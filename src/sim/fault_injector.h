// Deterministic fault injection for the simulated fabric and cores.
//
// FoundationDB-style: all faults are drawn from dedicated seeded RNG streams,
// one per sender, in that sender's event order, so a chaos run is a pure
// function of its seed (and independent of lane count and threading) —
// a failing seed replays bit-identically under a debugger. The injector is
// consulted by Network::Send (per-message drop / duplication / extra delay)
// and drives straggler and crash/restart schedules through callbacks the
// cluster installs. With no injector installed (the default), the fabric
// behaves exactly as before: zero drops, zero jitter.
//
// OnMessage is on the per-message hot path, so the link tables are flat
// open-addressed maps keyed on the packed (from, to) pair and the Decision
// is a fixed-size value (at most two copies exist) — no per-message
// allocation. The draw order is identical to the original std::map/vector
// implementation, so chaos trace hashes are unchanged.
#ifndef ROCKSTEADY_SRC_SIM_FAULT_INJECTOR_H_
#define ROCKSTEADY_SRC_SIM_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <deque>

#include "src/common/annotations.h"
#include "src/common/flat_map.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/common/types.h"

namespace rocksteady {

class FaultInjector {
 public:
  struct Config {
    uint64_t seed = 1;
    // Per-message probabilities applied to every link unless overridden.
    double drop_probability = 0.0;       // Message vanishes in flight.
    double duplicate_probability = 0.0;  // Message delivered twice.
    // Uniform extra in-flight delay in [0, max_extra_delay_ns]; 0 = never.
    Tick max_extra_delay_ns = 0;
  };

  // What Network::Send should do with one message: deliver `copies` times
  // (0 = drop, at most 2 = original + duplicate), copy i delayed by
  // extra_delay_ns[i].
  struct Decision {
    int copies = 1;
    std::array<Tick, 2> extra_delay_ns{};
  };

  explicit FaultInjector(const Config& config) : config_(config) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Draws the fate of one message on link from->to from the sender's own
  // stream, so each draw sequence depends only on that sender's send order.
  // Called by Network::Send in the sender's event order.
  Decision OnMessage(uint32_t from, uint32_t to);

  // Creates the streams of senders [0, num_nodes). Network calls it when the
  // injector is installed and when a node joins, so the send path never
  // grows the stream table while lanes run. The one-shot DropNext/
  // DuplicateNext helpers and SetLinkOverride are setup-time-only under
  // threaded lanes too (their tables are read-only while lanes run).
  void CoverSenders(size_t num_nodes) {
    for (size_t node = sender_rng_.size(); node < num_nodes; node++) {
      sender_rng_.emplace_back(Mix64(config_.seed + 0x9E3779B97F4A7C15ull * (node + 1)));
    }
  }

  // Overrides the link-level probabilities for one directed link (regression
  // tests use this to lose exactly the response path of an RPC).
  void SetLinkOverride(uint32_t from, uint32_t to, double drop_probability,
                       double duplicate_probability) {
    link_overrides_[PackLink(from, to)] = {drop_probability, duplicate_probability};
  }
  void ClearLinkOverride(uint32_t from, uint32_t to) { link_overrides_.Erase(PackLink(from, to)); }

  // One-shot deterministic drop/duplicate of the next `n` messages on a
  // directed link, regardless of probabilities. Used by targeted tests.
  void DropNext(uint32_t from, uint32_t to, int n) { drop_next_[PackLink(from, to)] += n; }
  void DuplicateNext(uint32_t from, uint32_t to, int n) {
    duplicate_next_[PackLink(from, to)] += n;
  }

  const Config& config() const { return config_; }

 private:
  struct LinkOverride {
    double drop_probability = 0.0;
    double duplicate_probability = 0.0;
  };

  Config config_;
  // Per-sender streams (stable addresses; draws happen on the sender's lane
  // only). Dedicated: fault draws never perturb workload RNG use.
  ROCKSTEADY_SHARED_GUARDED("per-sender slots; stream i drawn only from node i's lane")
  std::deque<Random> sender_rng_;
  ROCKSTEADY_SHARED_GUARDED("all lanes read on the send path; mutated only at setup (lanes parked)")
  FlatMap64<LinkOverride> link_overrides_;
  FlatMap64<int> drop_next_;
  FlatMap64<int> duplicate_next_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_SIM_FAULT_INJECTOR_H_
