#include "src/sim/lane_set.h"

#include <algorithm>
#include <utility>

#include "src/common/dcheck.h"
#include "src/common/hash.h"

namespace rocksteady {

namespace {

// Waits until `flag` reads `value`. A window is a few microseconds, so with
// a core per lane it spins `spins` times before yielding the CPU; with more
// lanes than cores spinning only delays a descheduled lane.
void AwaitEpoch(const std::atomic<uint64_t>& flag, uint64_t value, int spins) {  // lint:allow-nondeterminism — barrier handoff only.
  for (int spin = 0; flag.load(std::memory_order_acquire) != value; spin++) {
    if (spin < spins) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

LaneSet::LaneSet(const Config& config) : config_(config) {
  ROCKSTEADY_DCHECK_GE(config.lanes, 1);
  ROCKSTEADY_DCHECK_GE(config.lookahead, Tick{1});
  const int n = config.lanes;
  for (int l = 0; l < n; l++) {
    sims_.push_back(std::make_unique<Simulator>(Mix64(config.seed ^ static_cast<uint64_t>(l))));
    sims_.back()->BeginLaneMode(this);
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  mail_.resize(2 * static_cast<size_t>(n) * static_cast<size_t>(n));
}

LaneSet::~LaneSet() { StopWorkers(); }

void LaneSet::AssignNode(NodeId node, int lane) {
  ROCKSTEADY_DCHECK_GE(lane, 0);
  ROCKSTEADY_DCHECK(lane < lanes());
  ROCKSTEADY_DCHECK_EQ(static_cast<size_t>(node), lane_of_.size());
  ROCKSTEADY_DCHECK(node < Simulator::kRootOrigin);
  lane_of_.push_back(lane);
  // One private stream per node, derived from the run seed: the stream a
  // draw comes from depends on *which node* draws, not on lane placement,
  // so the draw sequence is invariant across lane counts and threading.
  node_rng_.emplace_back(Mix64(config_.seed + 0x9E3779B97F4A7C15ull * (node + 1)));
  Simulator* engine = sims_[static_cast<size_t>(lane)].get();
  views_.push_back(std::unique_ptr<Simulator>(new Simulator(engine, node, &node_rng_.back())));
  for (auto& sim : sims_) {
    sim->nodes_.resize(lane_of_.size());
  }
}

void LaneSet::Deliver(NodeId from, NodeId to, Tick deliver, EventFn fn) {
  const int src_lane = lane_of_[from];
  const int dst_lane = lane_of_[to];
  Simulator* src = sims_[static_cast<size_t>(src_lane)].get();
  if (src_lane == dst_lane || !src->dispatching_) {
    // Same lane, or root context (setup / safe-point task) with every lane
    // parked: the delivery enters the destination queue directly.
    sims_[static_cast<size_t>(dst_lane)]->LaneAt(deliver, from, std::move(fn));
    return;
  }
  // In a window: the conservative horizon guarantees the delivery cannot
  // land inside the current window on any lane.
  ROCKSTEADY_DCHECK_GE(deliver, window_end_);
  MailCell(post_buf_, src_lane, dst_lane)
      .push_back(CrossEntry{deliver, src->LaneSeq(deliver, from), std::move(fn)});
  WorkerSlot& slot = *slots_[static_cast<size_t>(src_lane)];
  slot.mail_min = std::min(slot.mail_min, deliver);
}

void LaneSet::AtSafePoint(Tick t, std::function<void()> fn) {  // lint:allow-churn — cold, a handful per run.
  SafePoint sp{t, safe_point_order_++, std::move(fn)};
  auto pos = std::upper_bound(
      safe_points_.begin(), safe_points_.end(), sp,
      [](const SafePoint& a, const SafePoint& b) {
        return a.t != b.t ? a.t < b.t : a.order < b.order;
      });
  safe_points_.insert(pos, std::move(sp));
}

Tick LaneSet::GlobalMinEventTime() {
  Tick gm = kNoEvent;
  for (int l = 0; l < lanes(); l++) {
    Tick t;
    if (sims_[static_cast<size_t>(l)]->PeekMinTime(&t) && t < gm) {
      gm = t;
    }
    gm = std::min(gm, slots_[static_cast<size_t>(l)]->mail_min);
  }
  return gm;
}

uint64_t LaneSet::trace_hash() const {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV offset basis.
  for (size_t node = 0; node < lane_of_.size(); node++) {
    hash = (hash ^ sims_[static_cast<size_t>(lane_of_[node])]->nodes_[node].chain) *
           0x100000001b3ull;
  }
  return (hash ^ root_chain_) * 0x100000001b3ull;
}

size_t LaneSet::events_processed() const {
  size_t total = 0;
  for (const auto& sim : sims_) {
    total += sim->events_processed_;
  }
  return total;
}

void LaneSet::RunLane(int lane) {
  Simulator* sim = sims_[static_cast<size_t>(lane)].get();
  // Adopt the previous window's inbound mail (seqs drawn by the senders).
  for (int src = 0; src < lanes(); src++) {
    std::vector<CrossEntry>& cell = MailCell(post_buf_ ^ 1, src, lane);
    for (CrossEntry& entry : cell) {
      Simulator::Event* e = sim->AllocEvent();
      e->time = entry.time;
      e->seq = entry.seq;
      e->fn = std::move(entry.fn);
      sim->InsertQueued(e);
    }
    cell.clear();  // Capacity is retained: steady state allocates nothing.
  }
  WorkerSlot& slot = *slots_[static_cast<size_t>(lane)];
  slot.mail_min = kNoEvent;
  sim->RunWindow(window_end_);
  Tick t;
  slot.next_time = sim->PeekMinTime(&t) ? std::min(t, slot.mail_min) : slot.mail_min;
}

void LaneSet::StartWorkers() {
  if (workers_started_) {
    return;
  }
  workers_started_ = true;
  // Only the handoff's speed depends on the core count, never the schedule.
  const unsigned cores = std::thread::hardware_concurrency();  // lint:allow-nondeterminism — spin policy only.
  spins_ = static_cast<unsigned>(lanes()) <= cores ? 512 : 0;
  for (int l = 1; l < lanes(); l++) {
    workers_.emplace_back([this, l] { WorkerLoop(l); });
  }
}

void LaneSet::StopWorkers() {
  if (!workers_started_) {
    return;
  }
  barrier_epoch_++;
  for (int l = 1; l < lanes(); l++) {
    slots_[static_cast<size_t>(l)]->exit = true;
    slots_[static_cast<size_t>(l)]->go.store(barrier_epoch_, std::memory_order_release);
  }
  for (std::thread& worker : workers_) {  // lint:allow-nondeterminism — joining persistent lane workers.
    worker.join();
  }
  workers_.clear();
  workers_started_ = false;
}

void LaneSet::WorkerLoop(int lane) {
  WorkerSlot& slot = *slots_[static_cast<size_t>(lane)];
  uint64_t seen = 0;
  for (;;) {
    AwaitEpoch(slot.go, ++seen, spins_);
    if (slot.exit) {
      slot.done.store(seen, std::memory_order_release);
      return;
    }
    RunLane(lane);
    slot.done.store(seen, std::memory_order_release);
  }
}

void LaneSet::RunLanesThreaded() {
  // Fan the window out to the workers (lanes 1..N-1), run lane 0 on the
  // driving thread, then wait for every worker's epoch acknowledgement.
  barrier_epoch_++;
  for (int l = 1; l < lanes(); l++) {
    slots_[static_cast<size_t>(l)]->go.store(barrier_epoch_, std::memory_order_release);
  }
  RunLane(0);
  for (int l = 1; l < lanes(); l++) {
    AwaitEpoch(slots_[static_cast<size_t>(l)]->done, barrier_epoch_, spins_);
  }
}

size_t LaneSet::Run() {
  const size_t before = events_processed();
  RunLoop(false, 0);
  Tick end = now_;
  for (auto& sim : sims_) {
    end = std::max(end, sim->now_);
  }
  // Every lane ends on the same clock: a lane's last dispatch time depends
  // on the partition, the run's end does not.
  for (auto& sim : sims_) {
    sim->now_ = end;
  }
  now_ = end;
  return events_processed() - before;
}

size_t LaneSet::RunUntil(Tick t) {
  ROCKSTEADY_DCHECK_GE(t, now_);
  const size_t before = events_processed();
  RunLoop(true, t);
  for (auto& sim : sims_) {
    if (sim->now_ < t) {
      sim->now_ = t;
    }
  }
  now_ = t;
  return events_processed() - before;
}

void LaneSet::RunLoop(bool bounded, Tick until) {
  const bool threaded = config_.threads && lanes() > 1;
  if (threaded) {
    StartWorkers();
  }
  Tick gm = GlobalMinEventTime();
  for (;;) {
    // Run due safe-point tasks: everything before sp.t has executed, nothing
    // at/after sp.t has.
    while (!safe_points_.empty() && safe_points_.front().t <= gm &&
           (!bounded || safe_points_.front().t <= until)) {
      SafePoint sp = std::move(safe_points_.front());
      safe_points_.erase(safe_points_.begin());
      now_ = std::max(now_, sp.t);
      // Advance every lane's clock to the safe point before the task runs:
      // task code schedules relative to now() (directly or through
      // Network::Send), and a lane's last-dispatch time depends on the
      // partition — sp.t is the only lane-count-invariant base. Legal
      // because every pending event is at >= gm >= sp.t.
      for (auto& sim : sims_) {
        sim->now_ = std::max(sim->now_, sp.t);
      }
      sp.fn();
      gm = GlobalMinEventTime();  // The task may have scheduled new events.
    }
    if (gm == kNoEvent || (bounded && gm > until)) {
      break;
    }
    // The horizon: the next safe point, or past `until` (RunUntil is
    // inclusive of it).
    Tick end = kNoEvent;
    if (!safe_points_.empty()) {
      end = safe_points_.front().t;
    }
    if (bounded) {
      end = std::min(end, until + 1);
    }
    if (lanes() == 1) {
      // No other lane to hear from: run straight to the horizon.
      sims_[0]->RunWindow(end);
      gm = GlobalMinEventTime();
      continue;
    }
    // Conservative window: every event in [gm, gm + lookahead) can only
    // produce cross-lane deliveries at/after its end, so lanes run it
    // independently (the bound saturates near the end of time).
    if (gm + config_.lookahead > gm) {
      end = std::min(end, gm + config_.lookahead);
    }
    window_end_ = end;
    post_buf_ ^= 1;
    if (threaded) {
      RunLanesThreaded();
    } else {
      for (int l = 0; l < lanes(); l++) {
        if (hooks_.lane_begin) {
          hooks_.lane_begin(l);
        }
        RunLane(l);
        if (hooks_.lane_end) {
          hooks_.lane_end(l);
        }
      }
    }
    if (!threaded && hooks_.merge_begin) {
      hooks_.merge_begin();
    }
    gm = kNoEvent;
    for (const auto& slot : slots_) {
      gm = std::min(gm, slot->next_time);
    }
    if (!threaded && hooks_.merge_end) {
      hooks_.merge_end();
    }
    windows_run_++;
  }
}

}  // namespace rocksteady
