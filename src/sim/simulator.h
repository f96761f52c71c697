// Discrete-event simulation kernel.
//
// The paper evaluated Rocksteady on a 24-node CloudLab cluster with 40 Gbps
// kernel-bypass NICs. That hardware is substituted here by a deterministic
// single-threaded discrete-event simulation: every server core, NIC, and link
// is a simulated resource, and all timing comes from sim::CostModel. Data
// structures (log, hash table) are real and mutate inside event callbacks;
// only *time* is simulated.
//
// Engine (see DESIGN.md "Engine performance"): events are 128-byte slab-
// pooled objects whose callbacks live inline (EventFn), organized in a
// calendar queue — a ring of fixed-width time buckets covering a sliding
// window, with a min-heap overflow for events beyond the horizon. The
// schedule → dispatch → free cycle touches no allocator. Dispatch order is
// identical to the old binary-heap engine: (time, seq) with seq assigned at
// scheduling time, so equal-time events stay FIFO and trace hashes are
// unchanged. Lane engines (src/sim/lane_set.h) reuse the queue with a
// partition-invariant seq: (origin node, the node's own counter).
#ifndef ROCKSTEADY_SRC_SIM_SIMULATOR_H_
#define ROCKSTEADY_SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/dcheck.h"
#include "src/common/inline_function.h"
#include "src/common/random.h"
#include "src/common/types.h"

namespace rocksteady {

// Event callbacks store up to this many capture bytes inline (larger ones
// heap-box and count a fallback). 88 makes the whole Event exactly two
// cache lines, and fits every wrapper in the stack: the widest hot-path
// closure — a CoreSet dispatch/completion wrapper or a Network delivery
// wrapper carrying a nested 64-byte-inline callback — is exactly 88 bytes.
inline constexpr size_t kEventInlineBytes = 88;
using EventFn = InlineFunction<void(), kEventInlineBytes>;

class LaneSet;
using NodeId = uint32_t;

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  ~Simulator();

  Tick now() const { return engine_->now_; }

  // Schedules `fn` at absolute time `t` (>= now). Events scheduled for the
  // same tick run in scheduling order (FIFO), which keeps runs deterministic.
  // Scheduling in the past is a checked error: fatal in debug builds, and
  // clamped to now() in release builds — time never flows backwards.
  void At(Tick t, EventFn fn);

  void After(Tick delay, EventFn fn) { At(now() + delay, std::move(fn)); }

  // --- Engine-only calls. ---
  // Only a bare engine (Simulator(seed)) runs its own queue and keeps its
  // own digest. A node view or a lane engine runs through its LaneSet (a
  // Cluster's Run/RunUntil/trace_hash), so these abort, in every build,
  // when called on one: a view would otherwise run nothing and report a
  // constant hash.

  // Runs events until the queue drains. Returns the number processed.
  size_t Run();

  // Runs events with timestamp <= `t`, then advances the clock to `t`.
  // Returns the number processed. `t` must be >= now(): the clock never
  // rewinds (checked error in debug builds; no-op in release builds).
  size_t RunUntil(Tick t);

  bool Idle() const { return ring_count_ == 0 && overflow_.empty(); }
  size_t events_processed() const {
    RequireBareEngine("events_processed");
    return events_processed_;
  }

  // Order-sensitive digest of every event dispatched so far: two runs of
  // the same scenario are deterministic iff their trace hashes are equal.
  // Mixed from each event's (time, seq) at dispatch, so any divergence in
  // scheduling order or timing changes the hash. (Lane mode: see
  // LaneSet::trace_hash.)
  uint64_t trace_hash() const {
    RequireBareEngine("trace_hash");
    return trace_hash_;
  }

  // A node view draws from its node's private stream (LaneSet::NodeRng).
  Random& rng() { return node_rng_ != nullptr ? *node_rng_ : rng_; }

  // Event-pool telemetry. In steady state the free list satisfies every
  // schedule, so slab_allocations stays flat — asserted by the allocation
  // regression test, reported by the engine bench. A node view reports its
  // lane's pool.
  struct PoolStats {
    uint64_t slab_allocations = 0;  // Times the pool grew by one slab.
    uint64_t live_events = 0;       // Currently scheduled.
    uint64_t free_events = 0;       // Pooled, ready for reuse.
  };
  PoolStats pool_stats() const {
    return PoolStats{engine_->slab_allocations_, engine_->ring_count_ + engine_->overflow_.size(),
                     engine_->free_count_};
  }

 private:
  friend class LaneSet;

  // One pooled event: two cache lines (32 bytes of links + 96-byte EventFn).
  // prev/next double as the intrusive bucket-list links and, for free
  // events, the free-list thread (next only).
  struct Event {
    Tick time = 0;
    // Tie-break so equal-time events stay FIFO: one global counter in a
    // bare engine; (origin node << kOriginShift) | the origin's own counter
    // in a lane engine (see LaneSeq).
    uint64_t seq = 0;
    Event* prev = nullptr;
    Event* next = nullptr;
    EventFn fn;
  };
  static_assert(sizeof(Event) == 128, "Event should stay two cache lines");

  // Calendar geometry: 8192 buckets of 1024 ns cover an ~8.4 ms window —
  // wider than the RPC timeout, so nearly all events land in the ring.
  // Later events (leases, deadlines) wait in the overflow heap and are
  // adopted when the window slides over them.
  static constexpr int kBucketWidthLog2 = 10;
  static constexpr size_t kNumBuckets = 8192;
  static constexpr size_t kBucketMask = kNumBuckets - 1;
  static constexpr size_t kOccupancyWords = kNumBuckets / 64;
  static constexpr size_t kSlabEvents = 1024;

  struct BucketList {
    Event* head = nullptr;
    Event* tail = nullptr;
  };

  // Aborts naming `call` unless this is a bare engine (see "Engine-only
  // calls" above).
  void RequireBareEngine(const char* call) const {
    if (engine_ != this || lane_set_ != nullptr) {
      RefuseEngineCall(call);
    }
  }
  [[noreturn]] static void RefuseEngineCall(const char* call);

  static uint64_t BucketOf(Tick t) { return t >> kBucketWidthLog2; }
  static bool EventLater(const Event* a, const Event* b);

  void MixTrace(Tick time, uint64_t seq) {
    // FNV-1a over the event's (time, seq); cheap enough to keep always on.
    trace_hash_ = (trace_hash_ ^ time) * 0x100000001b3ull;
    trace_hash_ = (trace_hash_ ^ seq) * 0x100000001b3ull;
  }

  // --- Lane mode (see src/sim/lane_set.h). ---
  // A lane engine is one lane's queue; nothing schedules on it directly.
  // Every node placed on the lane gets a *view*: a Simulator whose At()
  // schedules onto the engine with the node as the event's origin, whose
  // now() is the engine's clock and whose rng() is the node's stream.
  // Events order by (time, origin, origin's seq); root contexts (setup,
  // safe-point tasks, code between runs) use kRootOrigin, which sorts after
  // every node.
  static constexpr int kOriginShift = 40;
  static constexpr uint32_t kRootOrigin = (1u << (64 - kOriginShift)) - 1;

  // A node's scheduling state, kept on the node's lane: its counter and its
  // trace-hash chain (FNV-1a over (time, seq) of every event it schedules).
  struct NodeState {
    uint64_t next_seq = 0;
    uint64_t chain = 0xcbf29ce484222325ull;
  };

  // A node view onto `engine`.
  Simulator(Simulator* engine, NodeId node, Random* node_rng);

  void BeginLaneMode(LaneSet* lane_set);
  // Draws the seq of a lane event at `t` scheduled by `origin` — or, in
  // root context (every lane parked), by kRootOrigin — and mixes it into
  // the scheduler's chain.
  uint64_t LaneSeq(Tick t, NodeId origin);
  void LaneAt(Tick t, NodeId origin, EventFn fn);
  // Dispatches every queued event with time < `end`. Returns events
  // dispatched.
  size_t RunWindow(Tick end);

  Event* AllocEvent();
  void FreeEvent(Event* e);
  // Ring-or-overflow insertion of a fully formed event (time, seq, fn set).
  void InsertQueued(Event* e);
  void InsertRing(Event* e, uint64_t ab);
  // Slides the window so `new_base` is its first bucket and adopts every
  // overflow event that now falls inside it.
  void AdvanceWindowTo(uint64_t new_base);
  // Absolute bucket number of the first occupied ring bucket at or after
  // `scan_ab_`. Requires ring_count_ > 0.
  uint64_t FirstOccupiedBucket();
  // Detaches and returns the earliest event (nullptr when idle), advancing
  // the window if the earliest lives in the overflow heap.
  Event* PopMin();
  // Time of the earliest event without popping or sliding the window.
  bool PeekMinTime(Tick* t);

  Simulator* engine_ = this;  // A view's lane engine; `this` for engines.
  NodeId node_ = 0;           // A view's node.
  Random* node_rng_ = nullptr;

  Tick now_ = 0;
  uint64_t next_seq_ = 0;
  size_t events_processed_ = 0;
  uint64_t trace_hash_ = 0xcbf29ce484222325ull;  // FNV offset basis.

  // Ring + overflow queue state (empty in views).
  std::vector<BucketList> buckets_;
  std::array<uint64_t, kOccupancyWords> occupancy_{};
  uint64_t win_base_ = 0;  // Absolute bucket number of the window's start.
  uint64_t scan_ab_ = 0;   // Monotone scan cursor (absolute bucket number).
  size_t ring_count_ = 0;
  std::vector<Event*> overflow_;  // Min-heap on (time, seq).

  // Slab pool.
  std::vector<std::unique_ptr<Event[]>> slabs_;
  Event* free_list_ = nullptr;
  uint64_t slab_allocations_ = 0;
  uint64_t free_count_ = 0;

  // Lane-engine state, owned by the lane's worker while it runs and by the
  // driver while every lane is parked.
  LaneSet* lane_set_ = nullptr;
  bool dispatching_ = false;      // Inside RunWindow (not root context).
  std::vector<NodeState> nodes_;  // By NodeId; only this lane's nodes are used.

  Random rng_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_SIM_SIMULATOR_H_
