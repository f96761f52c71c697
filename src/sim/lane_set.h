// Sharded event lanes with a partition-invariant event order.
//
// Partitions the simulation into N lanes, each owning one calendar-queue
// engine and a disjoint set of simulated nodes (servers, cores, NICs).
// Lanes execute conservatively in lookahead windows: with L = the minimum
// cross-lane link latency (per-message cost + propagation), every event in
// [start, start + L) can only schedule cross-lane work at or past the
// horizon, so lanes run a whole window without seeing each other. Cross-lane
// Network sends land in per-(src-lane, dst-lane) mailboxes and are adopted
// by the destination lane at the start of the next window.
//
// Determinism is exact, not statistical, and needs no merge: events order
// by (time, origin, seq), where origin is the node that scheduled the event
// (through its Simulator view or as a Network sender; kRootOrigin for setup
// and safe-point code) and seq is that node's own scheduling counter. A
// node schedules only from its own lane, in its lane's dispatch order,
// which by induction is the same for every lane count and threading; the
// trace hash is per-node chains combined in node-id order (DESIGN.md
// "Sharded execution" has the proof sketch).
//
// Threading: with threads enabled, lane 0 runs on the driving thread and
// lanes 1..N-1 on persistent workers. A window is one parallel phase — each
// lane adopts the mail it received in the previous window, runs the window,
// and publishes its next event time — and one acquire/release epoch pair
// per lane. Without threads the same loop runs the lanes sequentially; one
// lane runs with no windows at all.
#ifndef ROCKSTEADY_SRC_SIM_LANE_SET_H_
#define ROCKSTEADY_SRC_SIM_LANE_SET_H_

#include <atomic>   // lint:allow-nondeterminism — barrier epochs; the event schedule they guard is deterministic.
#include <deque>
#include <functional>
#include <memory>
#include <thread>   // lint:allow-nondeterminism — lane workers; conservative windows keep the schedule exact.
#include <vector>

#include "src/common/annotations.h"
#include "src/common/random.h"
#include "src/sim/simulator.h"

namespace rocksteady {

class LaneSet {
 public:
  struct Config {
    int lanes = 1;
    bool threads = false;
    // Conservative safe horizon: the minimum cross-lane delivery latency.
    // Clusters pass CostModel::net_per_message_ns + net_propagation_ns.
    Tick lookahead = 1;
    uint64_t seed = 1;
  };

  explicit LaneSet(const Config& config);
  ~LaneSet();

  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;

  int lanes() const { return static_cast<int>(sims_.size()); }
  bool threads() const { return config_.threads; }
  // A lane's engine, for pool telemetry; schedule through SimFor views.
  Simulator& lane_sim(int lane) { return *sims_[static_cast<size_t>(lane)]; }

  // --- Node placement (setup time, before any Run). ---
  // Assigns a simulated node to a lane and seeds its private RNG stream.
  // Nodes must be assigned in id order (0, 1, 2, ...).
  void AssignNode(NodeId node, int lane);
  int lane_of(NodeId node) const { return lane_of_[node]; }
  // The node's view of its lane: At() schedules an event with the node as
  // origin.
  Simulator* SimFor(NodeId node) { return views_[node].get(); }
  // The node's private RNG stream. Draws happen in the node's event order,
  // which is lane-count- and thread-invariant, unlike sharing a lane rng.
  Random& NodeRng(NodeId node) { return node_rng_[node]; }

  // --- Deliveries (called by Network::Send). ---
  // Schedules an event on `to`'s lane at `deliver`, with `from` as origin:
  // directly when both share a lane or in root context, otherwise through
  // the mailbox (then `deliver` must be >= the current window's horizon;
  // lanes never see intra-window traffic).
  void Deliver(NodeId from, NodeId to, Tick deliver, EventFn fn);

  // --- Safe-point tasks. ---
  // Runs `fn` on the driving thread once every event before time `t` has
  // executed and before any event at or after `t` does, with all lanes
  // parked — the home for cross-cutting control actions (migration
  // kickoff, operator actions). Placement depends only on the global event
  // timeline, so it is lane-count- and thread-invariant.
  void AtSafePoint(Tick t, std::function<void()> fn);  // lint:allow-churn — cold, a handful per run.

  // --- Execution (same contract as Simulator::Run / RunUntil). ---
  size_t Run();
  size_t RunUntil(Tick t);

  Tick now() const { return now_; }
  // True when no event, cross-lane delivery or safe-point task is pending.
  bool Idle() { return GlobalMinEventTime() == kNoEvent && safe_points_.empty(); }
  // Every node's scheduling chain in node-id order, then the root chain:
  // each event's (time, seq) is mixed into its origin's chain when it is
  // scheduled, so the digest covers every event and its place in the order.
  uint64_t trace_hash() const;
  size_t events_processed() const;
  uint64_t windows_run() const { return windows_run_; }

  // Per-window timing hooks for benches (only invoked when threads are off
  // and lanes > 1; wall-clock timing stays outside src/). Each lane's phase
  // — mail adoption plus its window — is bracketed by lane_begin/lane_end;
  // merge_begin/merge_end bracket the driver's sequential step between
  // windows (the next horizon from the lanes' published minimum times).
  struct PhaseHooks {
    std::function<void(int lane)> lane_begin;  // lint:allow-churn — bench-only, per window.
    std::function<void(int lane)> lane_end;    // lint:allow-churn — bench-only, per window.
    std::function<void()> merge_begin;         // lint:allow-churn — bench-only, per window.
    std::function<void()> merge_end;           // lint:allow-churn — bench-only, per window.
  };
  void set_phase_hooks(PhaseHooks hooks) { hooks_ = std::move(hooks); }

 private:
  friend class Simulator;

  // One cross-lane delivery waiting for adoption; its seq is drawn when
  // posted.
  struct CrossEntry {
    Tick time = 0;
    uint64_t seq = 0;
    EventFn fn;
  };

  // Per-lane barrier slot. The driver publishes a window by writing
  // window_end_/post_buf_, then storing `go` (release); the worker runs its
  // phase and stores `done` (release), which the driver acquires. The lane
  // owns mail_min/next_time while it runs; the driver reads them after.
  struct alignas(64) WorkerSlot {
    std::atomic<uint64_t> go{0};    // lint:allow-nondeterminism — barrier handoff only.
    std::atomic<uint64_t> done{0};  // lint:allow-nondeterminism — barrier handoff only.
    bool exit = false;
    Tick mail_min = ~Tick{0};   // Earliest delivery this lane posted and nobody adopted yet.
    Tick next_time = ~Tick{0};  // Published after the phase: min(queue, mail_min).
  };

  struct SafePoint {
    Tick t;
    uint64_t order;  // Insertion order: same-tick tasks run FIFO.
    std::function<void()> fn;  // lint:allow-churn — cold, driver-thread only.
  };

  void RunLoop(bool bounded, Tick until);
  // One lane's window phase: adopt last window's inbound mail, run the
  // window, publish the lane's next event time.
  void RunLane(int lane);
  void RunLanesThreaded();
  void StartWorkers();
  void StopWorkers();
  void WorkerLoop(int lane);
  Tick GlobalMinEventTime();  // kNoEvent when every lane is idle.
  std::vector<CrossEntry>& MailCell(int buf, int src, int dst) {
    const size_t n = sims_.size();
    return mail_[static_cast<size_t>(buf) * n * n + static_cast<size_t>(src) * n +
                 static_cast<size_t>(dst)];
  }

  static constexpr Tick kNoEvent = ~Tick{0};

  Config config_;
  std::vector<std::unique_ptr<Simulator>> sims_;   // Lane engines.
  std::vector<std::unique_ptr<Simulator>> views_;  // NodeId -> the node's view.
  std::vector<int> lane_of_;      // NodeId -> lane.
  std::deque<Random> node_rng_;   // NodeId -> private stream (stable addrs).

  // Counter and trace-hash chain of root-context scheduling (kRootOrigin):
  // setup code, safe-point tasks and code between runs, all with every lane
  // parked.
  ROCKSTEADY_SHARED_GUARDED("root-context counter; touched only while every lane is parked")
  uint64_t root_seq_ = 0;
  ROCKSTEADY_SHARED_GUARDED("root-context chain; touched only while every lane is parked")
  uint64_t root_chain_ = 0xcbf29ce484222325ull;

  // Mailboxes, double-buffered and flattened [buf][src][dst]. In a window
  // lane s posts into cell (post_buf_, s, d) while lane d drains the cells
  // (post_buf_ ^ 1, *, d) posted in the previous window; the driver flips
  // post_buf_ between windows.
  ROCKSTEADY_SHARED_GUARDED("per-(buf,src,dst) cell: src posts in window k, dst drains in window k+1, barrier between")
  std::vector<std::vector<CrossEntry>> mail_;

  // The current window's horizon and posting buffer: written by the driver
  // before each window's go epoch; read-only while lanes run.
  ROCKSTEADY_SHARED_GUARDED("written at the barrier before each window; read-only while lanes run")
  Tick window_end_ = 0;
  ROCKSTEADY_SHARED_GUARDED("written at the barrier before each window; read-only while lanes run")
  int post_buf_ = 0;

  ROCKSTEADY_SHARED_GUARDED("slot l: lane l writes during its phase, driver reads after the done epoch")
  std::vector<std::unique_ptr<WorkerSlot>> slots_;

  std::vector<std::thread> workers_;  // lint:allow-nondeterminism — persistent lane workers.
  bool workers_started_ = false;
  uint64_t barrier_epoch_ = 0;
  int spins_ = 0;  // Barrier spin budget before yielding; set before workers start.

  std::vector<SafePoint> safe_points_;  // Sorted by (t, order); bounded: drained every Run.
  uint64_t safe_point_order_ = 0;

  Tick now_ = 0;
  uint64_t windows_run_ = 0;

  PhaseHooks hooks_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_SIM_LANE_SET_H_
