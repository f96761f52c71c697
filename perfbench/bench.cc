// The repository benchmark: YCSB workloads against a simulated Rocksteady
// cluster, measured on both clocks.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--lanes <n>] [--threads <0|1>] [--spans <file>]
//
// Simulated-clock metrics (latency percentiles, goodput, migration rate,
// capacity) are exact functions of (workload, seed): every repetition in a
// run must reproduce them bit for bit, and the run fails its output check if
// one does not. Host-clock metrics (setup_s, wall_s, peak_rss_mb) are
// medians over as many full repetitions (build, load, warm-up, measure) as
// fit in --seconds. Everything is driven through the public API: Cluster's
// mode-independent Run/RunUntil/AtSafePoint, RamCloudClient, migration
// kickoff, and the public counters of the layers.
//
// Prints JSON lines; the last is the run's result (see perfbench/run.py).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/audit.h"
#include "src/common/hash.h"
#include "src/common/inline_function.h"
#include "src/hashtable/hash_table.h"
#include "src/log/log.h"
#include "src/migration/rocksteady_target.h"
#include "src/sim/network.h"
#include "src/workload/ycsb.h"

namespace perfbench {

uint64_t AllocCount();  // alloc_count.cc

using rocksteady::AuditReport;
using rocksteady::Cluster;
using rocksteady::ClusterConfig;
using rocksteady::KeyHash;
using rocksteady::LaneSet;
using rocksteady::MigrationStats;
using rocksteady::RamCloudClient;
using rocksteady::Random;
using rocksteady::Simulator;
using rocksteady::Status;
using rocksteady::TableId;
using rocksteady::Tick;
using rocksteady::YcsbConfig;
using rocksteady::YcsbWorkload;

constexpr TableId kTable = 1;
constexpr size_t kKeyBytes = 30;     // §4.1.
constexpr size_t kValueBytes = 100;  // §4.1.
constexpr Tick kLatencyLimit = 250 * rocksteady::kMicrosecond;  // §4.2's p99.9 bound.
constexpr size_t kMaxOutstanding = 32;                         // Per client.
constexpr Tick kChunk = rocksteady::kMillisecond;              // RunUntil slice.
// Ops still queued this long after the last arrival window count as failed.
constexpr Tick kDrainCap = 2 * rocksteady::kSecond;
// Capacity ladder: rung k offers base * kRampStep^k; probed with a coarse
// stride, then rung by rung upward from the last passing coarse rung.
constexpr double kRampStep = 1.04;
constexpr int kRampStride = 6;
constexpr int kRampMinRung = -36;
constexpr int kRampMaxRung = 72;
// Repetitions a run makes even when --seconds has passed (twice that when
// traced, which alternates untraced and traced repetitions).
constexpr int kMinReps = 3;

using Clock = std::chrono::steady_clock;
const Clock::time_point g_start = Clock::now();

double HostNow() { return std::chrono::duration<double>(Clock::now() - g_start).count(); }

// ---------------------------------------------------------------------------
// Workload shapes.

struct Shape {
  std::string name;
  int masters = 4;
  int clients = 8;
  uint64_t records = 0;
  double read_fraction = 0.95;
  bool spread = false;  // Table split evenly over all masters; else all on master 0.
  double offered_ops = 0;  // Aggregate open-loop rate, ops/s.
  Tick warmup = 0;
  Tick measure = 0;  // Arrival window after warm-up.
  // Rocksteady moves [mig_start, mig_end] from master 0 to master 1: at the
  // start of the measured phase, or (ycsb_b_steady) after it, so the
  // measured phase runs with the migration layer idle.
  bool migrate_in_measure = true;
  KeyHash mig_start = 0;
  KeyHash mig_end = 0;
  Tick probe = 0;  // Post-measure probe: arrival window around the migration.
  int lanes = 0;   // 0 leaves ClusterConfig's default engine.
  bool lane_threads = false;
  int hash_log2_buckets = 16;
};

int Log2Ceil(uint64_t v) {
  int b = 0;
  while ((1ull << b) < v) {
    b++;
  }
  return b;
}

std::optional<Shape> MakeShape(const std::string& name, double scale) {
  auto scaled = [scale](double v) { return std::max(1.0, v * scale); };
  auto scaled_t = [scale](Tick t) {
    return std::max<Tick>(rocksteady::kMillisecond,
                          static_cast<Tick>(static_cast<double>(t) * scale));
  };
  Shape s;
  s.name = name;
  if (name == "ycsb_b_steady") {
    s.masters = 4;
    s.records = static_cast<uint64_t>(scaled(1'000'000));
    s.read_fraction = 0.95;
    s.spread = true;
    s.offered_ops = 640'000;
    s.warmup = scaled_t(50 * rocksteady::kMillisecond);
    s.measure = scaled_t(400 * rocksteady::kMillisecond);
    s.migrate_in_measure = false;
    const KeyHash quarter = ~0ull / 4;
    s.mig_start = quarter / 2;
    s.mig_end = quarter - 1;
    s.probe = scaled_t(100 * rocksteady::kMillisecond);
  } else if (name == "ycsb_b_migrate") {
    s.masters = 4;
    s.records = static_cast<uint64_t>(scaled(1'000'000));
    s.read_fraction = 0.95;
    s.spread = false;
    s.offered_ops = 640'000;  // 80% of the source's dispatch capacity.
    s.warmup = scaled_t(50 * rocksteady::kMillisecond);
    s.measure = scaled_t(350 * rocksteady::kMillisecond);
    s.mig_start = 1ull << 63;
    s.mig_end = ~0ull;
  } else if (name == "ycsb_a_scale24") {
    s.masters = 24;
    s.records = static_cast<uint64_t>(scaled(1'440'000));
    s.read_fraction = 0.5;
    s.spread = true;
    s.offered_ops = 2'000'000;
    s.warmup = scaled_t(10 * rocksteady::kMillisecond);
    s.measure = scaled_t(150 * rocksteady::kMillisecond);
    const KeyHash slice = ~0ull / 24;
    s.mig_start = 0;
    s.mig_end = slice - 1;
    s.lanes = 4;
    s.lane_threads = true;
  } else {
    return std::nullopt;
  }
  const uint64_t per_master = s.spread ? s.records / static_cast<uint64_t>(s.masters) : s.records;
  // RAMCloud sizes ~2 entries per bucket.
  s.hash_log2_buckets = std::max(10, Log2Ceil(std::max<uint64_t>(1, per_master / 2)));
  return s;
}

// ---------------------------------------------------------------------------
// Spans: recorded from the benchmark's own code around calls into the
// layers, kept in memory, written at exit.

struct Span {
  std::string name;
  int parent = -1;
  double host_start = 0;
  double host_end = 0;
  Tick sim_start = 0;
  Tick sim_end = 0;
};

class Tracer {
 public:
  bool on = false;

  int Open(const char* name, int parent, Tick sim_now) {
    if (!on) {
      return -1;
    }
    spans_.push_back(Span{name, parent, HostNow(), 0, sim_now, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id, Tick sim_now) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].host_end = HostNow();
    spans_[static_cast<size_t>(id)].sim_end = sim_now;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

Tracer g_tracer;

// ---------------------------------------------------------------------------
// Open-loop YCSB client. One per simulated client machine; everything it
// records lives in the actor, so under threaded lanes nothing is shared
// between clients. Results are merged after Run.

struct OpSample {
  Tick arrival = 0;
  Tick done = 0;  // 0: never completed.
  uint32_t id = 0;  // Record id (key = Cluster::MakeKey(id)).
  uint16_t phase = 0;
  bool is_read = false;
  bool ok = false;
};

// A record is intact when it is 100 B of all-'v' (as loaded) or all-'w'
// (as written); `must_be_written` demands the latter.
bool ValueIntact(const std::string& value, bool must_be_written) {
  if (value.size() != kValueBytes) {
    return false;
  }
  const char c = value[0];
  if (c != 'w' && (must_be_written || c != 'v')) {
    return false;
  }
  return std::all_of(value.begin(), value.end(), [c](char x) { return x == c; });
}

class Actor {
 public:
  Actor(RamCloudClient* client, const YcsbWorkload& workload)
      : client_(client), workload_(workload), write_value_(kValueBytes, 'w') {}

  // Starts an arrival phase at the current simulated time (call from a
  // safe point): Poisson arrivals at `rate` until `stop`.
  void BeginPhase(uint16_t phase, double rate, Tick stop, size_t expected_ops) {
    phase_ = phase;
    rate_ = rate;
    stop_ = stop;
    arrivals_done_ = false;
    samples_.reserve(samples_.size() + expected_ops + expected_ops / 4 + 64);
    acked_writes_.reserve(samples_.capacity());
    ScheduleNextArrival();
  }

  bool Idle() const { return arrivals_done_ && outstanding_ == 0 && backlog_.empty(); }
  size_t backlog() const { return backlog_.size(); }
  size_t backlog_peak() const { return backlog_peak_; }
  uint64_t corrupt_reads() const { return corrupt_reads_; }
  const std::vector<OpSample>& samples() const { return samples_; }
  const std::vector<uint32_t>& acked_writes() const { return acked_writes_; }

 private:
  void ScheduleNextArrival() {
    Simulator& sim = client_->sim();
    const double u = std::max(1e-12, client_->rng().NextDouble());
    const Tick gap = std::max<Tick>(
        1, static_cast<Tick>(-std::log(u) / rate_ * static_cast<double>(rocksteady::kSecond)));
    const Tick at = sim.now() + gap;
    if (at >= stop_) {
      arrivals_done_ = true;
      return;
    }
    sim.At(at, [this] { Arrive(); });
  }

  void Arrive() {
    workload_.NextOpInto(client_->rng(), &op_);
    OpSample sample;
    sample.arrival = client_->sim().now();
    sample.id = static_cast<uint32_t>(std::strtoull(op_.key.c_str() + 4, nullptr, 10));
    sample.phase = phase_;
    sample.is_read = op_.is_read;
    samples_.push_back(sample);
    const auto index = static_cast<uint32_t>(samples_.size() - 1);
    if (outstanding_ < kMaxOutstanding) {
      Issue(index);
    } else {
      backlog_.push_back(index);
      backlog_peak_ = std::max(backlog_peak_, backlog_.size());
    }
    ScheduleNextArrival();
  }

  // Completion closures capture {this, index}: 16 bytes, inside
  // std::function's inline buffer, so issuing an op allocates nothing here.
  void Issue(uint32_t index) {
    outstanding_++;
    const OpSample& s = samples_[index];
    rocksteady::Cluster::MakeKeyInto(s.id, kKeyBytes, &key_);
    if (s.is_read) {
      client_->Read(kTable, key_, [this, index](Status status, const std::string& value) {
        const bool ok = status == Status::kOk;
        if (ok && !ValueIntact(value, false)) {
          corrupt_reads_++;
        }
        Done(index, ok);
      });
    } else {
      client_->Write(kTable, key_, write_value_, [this, index](Status status) {
        const bool ok = status == Status::kOk;
        if (ok) {
          acked_writes_.push_back(samples_[index].id);
        }
        Done(index, ok);
      });
    }
  }

  void Done(uint32_t index, bool ok) {
    outstanding_--;
    OpSample& s = samples_[index];
    s.done = client_->sim().now();
    s.ok = ok;
    while (outstanding_ < kMaxOutstanding && !backlog_.empty()) {
      const uint32_t next = backlog_.front();
      backlog_.pop_front();
      Issue(next);
    }
  }

  RamCloudClient* client_;
  YcsbWorkload workload_;
  std::string write_value_;
  std::string key_;
  YcsbWorkload::Op op_;
  uint16_t phase_ = 0;
  double rate_ = 1;
  Tick stop_ = 0;
  bool arrivals_done_ = true;
  size_t outstanding_ = 0;
  std::deque<uint32_t> backlog_;
  size_t backlog_peak_ = 0;
  uint64_t corrupt_reads_ = 0;
  std::vector<OpSample> samples_;
  std::vector<uint32_t> acked_writes_;
};

// ---------------------------------------------------------------------------
// Layer counter snapshots (public counters only).

struct Snapshot {
  double host = 0;
  Tick sim = 0;
  uint64_t events = 0;
  uint64_t allocs = 0;
  uint64_t fn_fallbacks = 0;
  uint64_t slabs = 0;
  uint64_t windows = 0;
  uint64_t net_messages = 0;
  uint64_t net_bytes = 0;
  uint64_t rpc_calls = 0;
  uint64_t rpc_retransmissions = 0;
  uint64_t dup_suppressed = 0;
  uint64_t wrong_server_retries = 0;
  uint64_t retry_later_retries = 0;
  uint64_t client_sheds = 0;
  uint64_t replication_rejects = 0;
  uint64_t pull_rejects = 0;
  uint64_t replicated_bytes = 0;
  uint64_t log_appended = 0;
  uint64_t log_cleaned = 0;
  uint64_t log_allocated = 0;
  uint64_t log_live = 0;
  std::vector<Tick> dispatch_busy;
  std::vector<Tick> worker_busy;
};

Snapshot TakeSnapshot(Cluster& c) {
  Snapshot s;
  s.host = HostNow();
  s.sim = c.now();
  s.events = c.events_processed();
  s.allocs = AllocCount();
  s.fn_fallbacks = rocksteady::InlineFunctionHeapFallbacks();
  std::set<Simulator*> sims;
  for (size_t i = 0; i < c.num_masters(); i++) {
    sims.insert(&c.master(i).sim());
  }
  for (size_t i = 0; i < c.num_clients(); i++) {
    sims.insert(&c.client(i).sim());
  }
  for (Simulator* sim : sims) {
    s.slabs += sim->pool_stats().slab_allocations;
  }
  s.windows = c.lanes() != nullptr ? c.lanes()->windows_run() : 0;
  s.net_messages = c.net().total_messages();
  s.net_bytes = c.net().total_bytes_sent();
  s.rpc_calls = c.rpc().calls_issued();
  s.rpc_retransmissions = c.rpc().retransmissions();
  for (size_t n = 0; n < c.net().NumNodes(); n++) {
    if (const auto* e = c.rpc().Endpoint(static_cast<rocksteady::NodeId>(n)); e != nullptr) {
      s.dup_suppressed += e->duplicates_suppressed();
    }
  }
  for (size_t i = 0; i < c.num_clients(); i++) {
    s.wrong_server_retries += c.client(i).wrong_server_retries();
    s.retry_later_retries += c.client(i).retry_later_retries();
  }
  for (size_t i = 0; i < c.num_masters(); i++) {
    auto& m = c.master(i);
    s.client_sheds += m.client_sheds();
    s.replication_rejects += m.replication_rejects();
    s.pull_rejects += m.migration_pull_rejects();
    s.replicated_bytes += m.replicas().bytes_replicated();
    s.log_appended += m.objects().log().stats().appended_bytes;
    s.log_cleaned += m.objects().log().stats().cleaned_segments;
    s.log_allocated += m.objects().log().allocated_bytes();
    s.log_live += m.objects().log().live_bytes();
    s.dispatch_busy.push_back(m.cores().total_dispatch_busy());
    s.worker_busy.push_back(m.cores().total_worker_busy());
  }
  return s;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

void Put(Metrics* m, const std::string& name, double value, const char* unit) {
  m->push_back(Metric{name, value, unit});
}

// Nearest-rank percentile of `v` (sorted in place). Empty -> 0.
Tick Percentile(std::vector<Tick>* v, double q) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  return (*v)[std::min(v->size(), std::max<size_t>(rank, 1)) - 1];
}

double Us(Tick t) { return static_cast<double>(t) / 1e3; }
double Sec(Tick t) { return static_cast<double>(t) / 1e9; }

// Mean of `v` in microseconds. Empty -> 0.
double MeanUs(const std::vector<Tick>& v) {
  double sum = 0;
  for (const Tick t : v) {
    sum += static_cast<double>(t);
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size()) / 1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// One repetition: a fresh cluster through setup, warm-up and the measured
// phase; the final repetition also runs the post phases (probe migration,
// capacity ladder, output check) on its cluster.

enum Phase : uint16_t { kMain = 0, kProbe = 1, kRungBase = 2 };

struct MigrationRun {
  bool started = false;
  std::optional<MigrationStats> stats;
  double host_s = 0;  // Host time of the event loop while it was in flight.
  uint64_t events = 0;
};

class Rep {
 public:
  Rep(const Shape& shape, uint64_t seed, const ClusterConfig& config, bool traced)
      : shape_(shape), seed_(seed), config_(config), traced_(traced) {}
  ~Rep() { g_tracer.Close(root_, cluster_ != nullptr ? cluster_->now() : 0); }

  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  // Build, load, warm up. Returns setup seconds.
  double Setup(const YcsbWorkload& workload) {
    const double t0 = HostNow();
    g_tracer.on = traced_;
    root_ = g_tracer.Open("rep", -1, 0);
    const int setup = g_tracer.Open("setup", root_, 0);
    int span = g_tracer.Open("setup.build", setup, 0);
    cluster_ = std::make_unique<Cluster>(config_);
    rocksteady::EnableMigration(cluster_.get());
    cluster_->CreateTable(kTable, 0);
    if (shape_.spread) {
      Spread();
    }
    build_s_ = HostNow() - t0;
    g_tracer.Close(span, 0);
    span = g_tracer.Open("setup.load", setup, 0);
    const double t1 = HostNow();
    cluster_->LoadTable(kTable, shape_.records, kKeyBytes, kValueBytes);
    load_s_ = HostNow() - t1;
    g_tracer.Close(span, 0);

    for (size_t c = 0; c < cluster_->num_clients(); c++) {
      actors_.push_back(std::make_unique<Actor>(&cluster_->client(c), workload));
    }
    stop_ = shape_.warmup + shape_.measure;
    StartPhase(kMain, shape_.offered_ops, 0, stop_);
    span = g_tracer.Open("run.warmup", setup, cluster_->now());
    cluster_->RunUntil(shape_.warmup);
    g_tracer.Close(span, cluster_->now());
    g_tracer.Close(setup, cluster_->now());
    return HostNow() - t0;
  }

  // The measured event loop. Returns its host seconds.
  double Measure() {
    const int run = g_tracer.Open("run", root_, cluster_->now());
    before_ = TakeSnapshot(*cluster_);
    if (shape_.migrate_in_measure) {
      StartMigration(shape_.warmup, &main_mig_);
    }
    RunToIdle(run, &main_mig_, &state_host_s_);
    after_ = TakeSnapshot(*cluster_);
    for (const auto& a : actors_) {
      backlog_peak_ = std::max(backlog_peak_, a->backlog_peak());
    }
    g_tracer.Close(run, cluster_->now());
    measure_hash_ = cluster_->trace_hash();
    return after_.host - before_.host;
  }

  // Simulated-clock end-to-end metrics of the measured phase: exact.
  Metrics SimMetrics() const {
    Metrics m;
    std::vector<Tick> reads;
    std::vector<Tick> writes;
    uint64_t ok = 0;
    for (const auto& a : actors_) {
      for (const OpSample& s : a->samples()) {
        if (s.phase != kMain || s.arrival < shape_.warmup || !s.ok) {
          continue;
        }
        ok++;
        (s.is_read ? reads : writes).push_back(s.done - s.arrival);
      }
    }
    const OpCounts n = CountOps();
    // Means, not medians, are the gated central statistic: most ops of a
    // lightly loaded cluster see the exact unloaded latency, so a median
    // would read the same for every seed.
    Put(&m, "read_mean_us", MeanUs(reads), "us");
    Put(&m, "write_mean_us", MeanUs(writes), "us");
    Put(&m, "read_p50_us", Us(Percentile(&reads, 0.5)), "us");
    Put(&m, "read_p999_us", Us(Percentile(&reads, 0.999)), "us");
    Put(&m, "write_p50_us", Us(Percentile(&writes, 0.5)), "us");
    Put(&m, "write_p999_us", Us(Percentile(&writes, 0.999)), "us");
    Put(&m, "goodput_kops", static_cast<double>(ok) / Sec(shape_.measure) / 1e3, "kops");
    Put(&m, "op_ok_frac",
        n.attempted == 0 ? 0 : static_cast<double>(ok) / static_cast<double>(n.attempted),
        "frac");
    Put(&m, "read_samples", static_cast<double>(reads.size()), "count");
    Put(&m, "write_samples", static_cast<double>(writes.size()), "count");
    return m;
  }

  struct OpCounts {
    uint64_t attempted = 0;
    uint64_t failed = 0;  // Failed, refused, or never completed.
  };
  OpCounts CountOps() const {
    OpCounts n;
    for (const auto& a : actors_) {
      for (const OpSample& s : a->samples()) {
        if (s.phase == kMain && s.arrival >= shape_.warmup) {
          n.attempted++;
          n.failed += s.ok ? 0 : 1;
        }
      }
    }
    return n;
  }

  // Migration metrics of the workload's migration (measured phase, or the
  // post-measure probe on ycsb_b_steady). Reads and ops count when they
  // complete inside [start, end].
  Metrics MigrationMetrics(const MigrationRun& mig) const {
    Metrics m;
    const MigrationStats& st = *mig.stats;
    std::vector<Tick> reads;
    uint64_t ops = 0;
    for (const auto& a : actors_) {
      for (const OpSample& s : a->samples()) {
        if (s.ok && s.done >= st.start_time && s.done <= st.end_time && s.phase <= kProbe) {
          ops++;
          if (s.is_read) {
            reads.push_back(s.done - s.arrival);
          }
        }
      }
    }
    const Tick span = st.end_time - st.start_time;
    Put(&m, "migration_mbps", st.RateMBps(), "MB/s");
    Put(&m, "mig_read_p999_us", Us(Percentile(&reads, 0.999)), "us");
    Put(&m, "mig_goodput_kops", span == 0 ? 0 : static_cast<double>(ops) / Sec(span) / 1e3,
        "kops");
    Put(&m, "mig_read_samples", static_cast<double>(reads.size()), "count");
    return m;
  }

  // Post phase 1 (ycsb_b_steady): the probe migration under the workload's
  // offered load, after the measured phase.
  void RunProbe() {
    const int span = g_tracer.Open("post.probe", root_, cluster_->now());
    const Tick start = cluster_->now() + rocksteady::kMicrosecond;
    StartPhase(kProbe, shape_.offered_ops, start, start + shape_.probe);
    StartMigration(start, &probe_mig_);
    RunToIdle(span, &probe_mig_, nullptr);
    g_tracer.Close(span, cluster_->now());
  }

  // Post phase 2: highest rung of the offered-rate ladder whose read p99.9
  // (failed reads count as over the limit) stays <= 250 us with the client
  // backlog bounded at the rung's last arrival.
  double RunCapacityLadder(size_t rung_ops) {
    const int span = g_tracer.Open("post.ramp", root_, cluster_->now());
    uint16_t phase = kRungBase;
    auto rate_of = [&](int k) { return shape_.offered_ops * std::pow(kRampStep, k); };
    auto passes = [&](int k) {
      const double rate = rate_of(k);
      const Tick start = cluster_->now() + rocksteady::kMicrosecond;
      const Tick stop =
          start + static_cast<Tick>(static_cast<double>(rung_ops) / rate * 1e9);
      const uint16_t p = phase++;
      StartPhase(p, rate, start, stop);
      cluster_->RunUntil(stop);
      size_t backlog = 0;
      for (const auto& a : actors_) {
        backlog += a->backlog();
      }
      RunToIdle(-1, nullptr, nullptr);
      std::vector<Tick> reads;
      for (const auto& a : actors_) {
        for (const OpSample& s : a->samples()) {
          if (s.phase == p && s.is_read) {
            reads.push_back(s.ok ? s.done - s.arrival : ~Tick{0});
          }
        }
      }
      const bool ok = !reads.empty() && Percentile(&reads, 0.999) <= kLatencyLimit &&
                      backlog <= std::max<size_t>(8, rung_ops / 200);
      rungs_++;
      return ok;
    };
    int lo = 0;
    int hi = 0;
    if (passes(0)) {
      for (hi = kRampStride; hi <= kRampMaxRung && passes(hi); hi += kRampStride) {
        lo = hi;
      }
    } else {
      for (lo = -kRampStride; lo > kRampMinRung && !passes(lo); lo -= kRampStride) {
        hi = lo;
      }
    }
    for (int k = lo + 1; k < hi && k <= kRampMaxRung && passes(k); k++) {
      lo = k;
    }
    g_tracer.Close(span, cluster_->now());
    return rate_of(lo) / 1e3;
  }

  // Post phase 3: the output check. Appends a description of every
  // failure to `errors`.
  void Verify(std::vector<std::string>* errors) {
    const int span = g_tracer.Open("verify", root_, cluster_->now());
    Cluster& c = *cluster_;
    // Keys to read back: a seeded uniform sample, a seeded sample from the
    // migrated range, and every key whose write was acknowledged.
    std::vector<uint64_t> ids;
    std::vector<uint64_t> written;
    Random rng(seed_ ^ 0x5eedf00dull);
    const uint64_t sample = std::min<uint64_t>(shape_.records, 2000);
    for (uint64_t i = 0; i < sample; i++) {
      ids.push_back(rng.Uniform(shape_.records));
    }
    std::string key;
    uint64_t in_range = 0;
    uint64_t misplaced = 0;
    const uint64_t scan_from = rng.Uniform(shape_.records);
    for (uint64_t i = 0; i < shape_.records && in_range < 1000; i++) {
      const uint64_t id = (scan_from + i) % shape_.records;
      Cluster::MakeKeyInto(id, kKeyBytes, &key);
      const KeyHash h = rocksteady::HashKey(kTable, key);
      if (h >= shape_.mig_start && h <= shape_.mig_end) {
        ids.push_back(id);
        in_range++;
        misplaced += c.coordinator().OwnerOf(kTable, h) != c.master(1).id() ? 1 : 0;
      }
    }
    if (in_range == 0) {
      errors->push_back("no loaded key falls in the migrated range");
    }
    if (misplaced > 0) {
      errors->push_back(std::to_string(misplaced) + " migrated keys not owned by the target");
    }
    for (const auto& a : actors_) {
      if (a->corrupt_reads() > 0) {
        errors->push_back("reads returned corrupt values during the run");
      }
      written.insert(written.end(), a->acked_writes().begin(), a->acked_writes().end());
    }
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()), written.end());
    ids.insert(ids.end(), written.begin(), written.end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

    struct Reader {
      std::vector<uint64_t> ids;
      size_t next = 0;
      size_t in_flight = 0;
      size_t done = 0;
      std::vector<std::pair<uint64_t, std::string>> bad;  // (id, why)
    };
    std::vector<Reader> readers(c.num_clients());
    for (size_t i = 0; i < ids.size(); i++) {
      readers[i % readers.size()].ids.push_back(ids[i]);
    }
    const std::vector<uint64_t>* acked = &written;
    std::function<void(size_t)> pump = [&](size_t r) {
      Reader& rd = readers[r];
      while (rd.in_flight < 16 && rd.next < rd.ids.size()) {
        const uint64_t id = rd.ids[rd.next++];
        rd.in_flight++;
        c.client(r).Read(kTable, Cluster::MakeKey(id, kKeyBytes),
                         [&, r, id](Status status, const std::string& value) {
                           Reader& me = readers[r];
                           me.in_flight--;
                           me.done++;
                           const bool must_w = std::binary_search(acked->begin(), acked->end(), id);
                           if (status != Status::kOk) {
                             me.bad.emplace_back(id, "read failed");
                           } else if (!ValueIntact(value, must_w)) {
                             me.bad.emplace_back(id, must_w ? "acked write lost or corrupt"
                                                            : "value corrupt");
                           }
                           pump(r);
                         });
      }
    };
    c.AtSafePoint(c.now() + rocksteady::kMicrosecond, [&] {
      for (size_t r = 0; r < readers.size(); r++) {
        pump(r);
      }
    });
    const Tick cap = c.now() + 10 * rocksteady::kSecond;
    auto all_done = [&] {
      return std::all_of(readers.begin(), readers.end(),
                         [](const Reader& r) { return r.done == r.ids.size(); });
    };
    c.RunUntil(c.now() + rocksteady::kMicrosecond);
    while (!all_done() && c.now() < cap) {
      c.RunUntil(c.now() + kChunk);
    }
    verified_keys_ = ids.size();
    if (!all_done()) {
      errors->push_back("read-back did not finish");
    }
    for (const Reader& r : readers) {
      for (size_t i = 0; i < r.bad.size() && i < 5; i++) {
        errors->push_back("key " + Cluster::MakeKey(r.bad[i].first, kKeyBytes) + ": " +
                          r.bad[i].second);
      }
    }
    AuditReport report;
    c.coordinator().AuditInvariants(&report);
    if (!report.ok()) {
      errors->push_back("coordinator audit: " + report.Summary());
    }
    const MigrationRun& mig = migration();
    if (!mig.stats.has_value()) {
      errors->push_back("migration did not complete");
    } else if (mig.stats->aborted_over_budget) {
      errors->push_back("migration aborted");
    }
    const auto target = c.master(1).id();
    if (c.coordinator().OwnerOf(kTable, shape_.mig_start) != target ||
        c.coordinator().OwnerOf(kTable, shape_.mig_end) != target) {
      errors->push_back("target does not own the migrated range");
    }
    g_tracer.Close(span, c.now());
  }

  Cluster& cluster() const { return *cluster_; }
  const Shape& shape() const { return shape_; }
  const MigrationRun& migration() const {
    return shape_.migrate_in_measure ? main_mig_ : probe_mig_;
  }
  const Snapshot& before() const { return before_; }
  const Snapshot& after() const { return after_; }
  uint64_t measure_hash() const { return measure_hash_; }
  double build_s() const { return build_s_; }
  double load_s() const { return load_s_; }
  int rungs() const { return rungs_; }
  size_t verified_keys() const { return verified_keys_; }
  // Largest backlog any client held during the measured phase.
  size_t backlog_peak() const { return backlog_peak_; }
  const std::vector<std::unique_ptr<Actor>>& actors() const { return actors_; }
  // Host seconds of the measured phase by run.* state (untraced runs too).
  const std::map<std::string, double>& state_host_s() const { return state_host_s_; }

 private:
  // Even hash-range split over all masters, as bench/'s SpreadTableAcross
  // does; repeated here so the benchmark depends on src/ alone.
  void Spread() {
    Cluster& c = *cluster_;
    const auto n = static_cast<uint64_t>(shape_.masters);
    for (uint64_t i = 1; i < n; i++) {
      c.coordinator().SplitTablet(kTable, static_cast<KeyHash>((~0ull / n) * i));
    }
    const auto tablets = c.coordinator().GetTableConfig(kTable);
    for (size_t i = 0; i < tablets.size(); i++) {
      const auto owner = c.master(i % static_cast<size_t>(n)).id();
      if (tablets[i].owner != owner) {
        c.coordinator().ReassignTablet(kTable, tablets[i].start_hash, tablets[i].end_hash, owner);
      }
    }
  }

  void StartPhase(uint16_t phase, double rate, Tick start, Tick stop) {
    const double per_client = rate / static_cast<double>(actors_.size());
    const auto expected = static_cast<size_t>(per_client * Sec(stop - start));
    cluster_->AtSafePoint(start, [this, phase, per_client, stop, expected] {
      for (auto& a : actors_) {
        a->BeginPhase(phase, per_client, stop, expected);
      }
    });
  }

  void StartMigration(Tick at, MigrationRun* mig) {
    cluster_->AtSafePoint(at, [this, mig] {
      mig->started = true;
      rocksteady::StartRocksteadyMigration(
          cluster_.get(), kTable, shape_.mig_start, shape_.mig_end, 0, 1,
          rocksteady::RocksteadyOptions{}, [mig](const MigrationStats& s) { mig->stats = s; });
    });
  }

  // Runs in kChunk slices until every actor is idle and `mig` (if any) has
  // finished, or kDrainCap past the last arrival window. With a parent span
  // open, each stretch of chunks gets a run.{measure,migrate,drain} span;
  // `state_s` (if any) accumulates host seconds per state.
  void RunToIdle(int parent, MigrationRun* mig, std::map<std::string, double>* state_s) {
    Cluster& c = *cluster_;
    const char* open_state = nullptr;
    int span = -1;
    const Tick cap = std::max(c.now(), stop_) + kDrainCap;
    auto idle = [&] {
      const bool mig_busy = mig != nullptr && mig->started && !mig->stats.has_value();
      return !mig_busy && std::all_of(actors_.begin(), actors_.end(),
                                      [](const auto& a) { return a->Idle(); });
    };
    // The first slice lets pending safe points (phase/migration starts) fire.
    bool first = true;
    while ((first || !idle()) && c.now() < cap) {
      const bool migrating = mig != nullptr && mig->started && !mig->stats.has_value();
      const bool arriving = std::any_of(actors_.begin(), actors_.end(),
                                        [](const auto& a) { return !a->Idle(); }) &&
                            c.now() < stop_;
      const char* state = migrating ? "run.migrate" : arriving ? "run.measure" : "run.drain";
      if (state != open_state && parent >= 0) {
        g_tracer.Close(span, c.now());
        span = g_tracer.Open(state, parent, c.now());
      }
      open_state = state;
      const double h0 = HostNow();
      const uint64_t e0 = c.events_processed();
      c.RunUntil(c.now() + kChunk);
      const double dh = HostNow() - h0;
      if (state_s != nullptr) {
        (*state_s)[state] += dh;
      }
      if (migrating && mig != nullptr) {
        mig->host_s += dh;
        mig->events += c.events_processed() - e0;
      }
      first = false;
    }
    g_tracer.Close(span, c.now());
  }

  Shape shape_;
  uint64_t seed_;
  ClusterConfig config_;
  bool traced_;
  int root_ = -1;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<Actor>> actors_;
  Tick stop_ = 0;
  MigrationRun main_mig_;
  MigrationRun probe_mig_;
  Snapshot before_;
  Snapshot after_;
  uint64_t measure_hash_ = 0;
  double build_s_ = 0;
  double load_s_ = 0;
  int rungs_ = 0;
  size_t verified_keys_ = 0;
  size_t backlog_peak_ = 0;
  std::map<std::string, double> state_host_s_;
};

// ---------------------------------------------------------------------------
// Timed-call battery (traced runs): each layer's public hot-path call on
// the workload's data shape, timed from outside. Median of three passes.

template <typename F>
double MedianNs(int passes, size_t ops, F&& once) {
  std::vector<double> v;
  for (int p = 0; p < passes; p++) {
    const double t0 = HostNow();
    once();
    v.push_back((HostNow() - t0) * 1e9 / static_cast<double>(ops));
  }
  return Median(v);
}

void RunBattery(const Shape& shape, const ClusterConfig& config, uint64_t seed, Metrics* m) {
  const int root = g_tracer.Open("battery", -1, 0);
  // Simulator::At + dispatch in steady state: 256 self-rescheduling chains
  // (the live-event population of a loaded cluster), 1M events.
  constexpr size_t kEvents = 1'000'000;
  constexpr size_t kChains = 256;
  int span = g_tracer.Open("battery.sim_at", root, 0);
  const double at_ns = MedianNs(3, kEvents, [&] {
    Simulator sim(seed);
    size_t fired = 0;
    std::function<void(size_t)> step = [&](size_t chain) {
      if (++fired + kChains <= kEvents) {
        sim.At(sim.now() + 500 + (chain * 37 + fired) % 1000, [&step, chain] { step(chain); });
      }
    };
    for (size_t c = 0; c < kChains; c++) {
      sim.At(c, [&step, c] { step(c); });
    }
    sim.Run();
    if (fired != kEvents) {
      std::abort();
    }
  });
  g_tracer.Close(span, 0);

  constexpr size_t kSends = 200'000;
  span = g_tracer.Open("battery.net_send", root, 0);
  const double send_ns = MedianNs(3, kSends, [&] {
    Simulator sim(seed);
    rocksteady::Network net(&sim, &config.costs);
    const auto a = net.AddNode();
    const auto b = net.AddNode();
    uint64_t delivered = 0;
    for (size_t i = 0; i < kSends; i++) {
      sim.At(static_cast<Tick>(i) * 2000, [&, a, b] {
        net.Send(a, b, 64 + kKeyBytes, [&delivered] { delivered++; });
      });
    }
    sim.Run();
    if (delivered != kSends) {
      std::abort();
    }
  });
  g_tracer.Close(span, 0);

  const uint64_t per_master =
      shape.spread ? shape.records / static_cast<uint64_t>(shape.masters) : shape.records;
  std::vector<KeyHash> hashes(per_master);
  Random rng(seed);
  for (auto& h : hashes) {
    h = rng.Next();
  }
  std::vector<size_t> order(per_master);
  for (size_t i = 0; i < order.size(); i++) {
    order[i] = i;
  }
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  double insert_ns = 0;
  double lookup_ns = 0;
  {
    span = g_tracer.Open("battery.hashtable", root, 0);
    std::vector<double> ins;
    std::vector<double> look;
    for (int p = 0; p < 3; p++) {
      rocksteady::HashTable table(shape.hash_log2_buckets);
      double t0 = HostNow();
      for (size_t i = 0; i < hashes.size(); i++) {
        table.Insert(hashes[i], rocksteady::LogRef(1, static_cast<uint32_t>(i % (1u << 30))));
      }
      ins.push_back((HostNow() - t0) * 1e9 / static_cast<double>(hashes.size()));
      uint64_t found = 0;
      t0 = HostNow();
      for (const size_t i : order) {
        found += table.Lookup(hashes[i]).valid() ? 1 : 0;
      }
      look.push_back((HostNow() - t0) * 1e9 / static_cast<double>(order.size()));
      if (found != order.size()) {
        std::abort();
      }
    }
    insert_ns = Median(ins);
    lookup_ns = Median(look);
    g_tracer.Close(span, 0);
  }

  constexpr size_t kAppends = 200'000;
  span = g_tracer.Open("battery.log_append", root, 0);
  const std::string value(kValueBytes, 'w');
  std::vector<std::string> keys(1024);
  for (size_t i = 0; i < keys.size(); i++) {
    keys[i] = Cluster::MakeKey(i, kKeyBytes);
  }
  const double append_ns = MedianNs(3, kAppends, [&] {
    rocksteady::Log log(config.master.segment_size);
    for (size_t i = 0; i < kAppends; i++) {
      if (!log.AppendObject(kTable, hashes[i % hashes.size()], keys[i % keys.size()], value, i + 1)
               .ok()) {
        std::abort();
      }
    }
  });
  g_tracer.Close(span, 0);
  g_tracer.Close(root, 0);

  Put(m, "sim.at_dispatch_ns", at_ns, "ns");
  Put(m, "sim.net.send_ns", send_ns, "ns");
  Put(m, "hashtable.insert_ns", insert_ns, "ns");
  Put(m, "hashtable.lookup_ns", lookup_ns, "ns");
  Put(m, "log.append_ns", append_ns, "ns");
}

// Per-layer metrics of one repetition's measured phase (plus its migration).
void LayerMetrics(const Rep& rep, Metrics* m) {
  const Snapshot& b = rep.before();
  const Snapshot& a = rep.after();
  const Shape& shape = rep.shape();
  const double events = static_cast<double>(a.events - b.events);
  const double wall = a.host - b.host;
  uint64_t ops = 0;
  uint64_t completed = 0;
  uint64_t writes_ok = 0;
  for (const auto& actor : rep.actors()) {
    for (const OpSample& s : actor->samples()) {
      if (s.phase == kMain && s.arrival >= shape.warmup) {
        ops++;
        completed += s.ok ? 1 : 0;
        writes_ok += s.ok && !s.is_read ? 1 : 0;
      }
    }
  }
  const double dops = std::max<double>(1, static_cast<double>(ops));
  Put(m, "sim.events", events, "count");
  Put(m, "sim.host_ns_per_event", events > 0 ? wall * 1e9 / events : 0, "ns");
  Put(m, "sim.allocs_per_event", events > 0 ? static_cast<double>(a.allocs - b.allocs) / events : 0,
      "1/event");
  Put(m, "sim.slab_growth", static_cast<double>(a.slabs - b.slabs), "count");
  Put(m, "sim.fn_fallbacks", static_cast<double>(a.fn_fallbacks - b.fn_fallbacks), "count");
  const double windows = static_cast<double>(a.windows - b.windows);
  Put(m, "sim.lanes.windows", windows, "count");
  Put(m, "sim.lanes.events_per_window", windows > 0 ? events / windows : 0, "count");
  Put(m, "sim.net.messages", static_cast<double>(a.net_messages - b.net_messages), "count");
  Put(m, "sim.net.bytes_per_op", static_cast<double>(a.net_bytes - b.net_bytes) / dops, "B");

  const double span = Sec(a.sim - b.sim);
  const int workers = rep.cluster().master(0).cores().num_workers();
  auto util = [&](const std::vector<Tick>& x, const std::vector<Tick>& y, size_t lo, size_t hi,
                  double cores) {
    double busy = 0;
    for (size_t i = lo; i < hi; i++) {
      busy += Sec(y[i] - x[i]);
    }
    return span > 0 && hi > lo ? busy / (span * cores * static_cast<double>(hi - lo)) : 0;
  };
  const size_t n = a.dispatch_busy.size();
  Put(m, "sim.cores.dispatch_util.src", util(b.dispatch_busy, a.dispatch_busy, 0, 1, 1), "frac");
  Put(m, "sim.cores.dispatch_util.tgt", util(b.dispatch_busy, a.dispatch_busy, 1, 2, 1), "frac");
  Put(m, "sim.cores.dispatch_util.rest", util(b.dispatch_busy, a.dispatch_busy, 2, n, 1), "frac");
  Put(m, "sim.cores.worker_util.src", util(b.worker_busy, a.worker_busy, 0, 1, workers), "frac");
  Put(m, "sim.cores.worker_util.tgt", util(b.worker_busy, a.worker_busy, 1, 2, workers), "frac");
  Put(m, "sim.cores.worker_util.rest", util(b.worker_busy, a.worker_busy, 2, n, workers), "frac");

  Put(m, "rpc.calls_per_op", static_cast<double>(a.rpc_calls - b.rpc_calls) / dops, "count");
  Put(m, "rpc.retransmissions",
      static_cast<double>(a.rpc_retransmissions - b.rpc_retransmissions), "count");
  Put(m, "rpc.dup_suppressed", static_cast<double>(a.dup_suppressed - b.dup_suppressed), "count");

  Put(m, "cluster.client.wrong_server_retries",
      static_cast<double>(a.wrong_server_retries - b.wrong_server_retries), "count");
  Put(m, "cluster.client.retry_later_retries",
      static_cast<double>(a.retry_later_retries - b.retry_later_retries), "count");
  Put(m, "cluster.master.client_sheds", static_cast<double>(a.client_sheds - b.client_sheds),
      "count");
  Put(m, "cluster.master.replication_rejects",
      static_cast<double>(a.replication_rejects - b.replication_rejects), "count");
  Put(m, "cluster.master.pull_rejects", static_cast<double>(a.pull_rejects - b.pull_rejects),
      "count");
  Put(m, "cluster.replicated_bytes", static_cast<double>(a.replicated_bytes - b.replicated_bytes),
      "B");

  const MigrationRun& mig = rep.migration();
  const MigrationStats st = mig.stats.value_or(MigrationStats{});
  const Tick transfer = st.last_pull_time > st.start_time ? st.last_pull_time - st.start_time : 0;
  Put(m, "migration.transfer_mbps",
      transfer > 0 ? static_cast<double>(st.bytes_pulled) / 1e6 / Sec(transfer) : 0, "MB/s");
  Put(m, "migration.rereplication_s",
      st.end_time > st.last_pull_time ? Sec(st.end_time - st.last_pull_time) : 0, "s");
  Put(m, "migration.pulls", static_cast<double>(st.pulls_completed), "count");
  Put(m, "migration.pp_batches", static_cast<double>(st.priority_pull_batches), "count");
  // Records returned per priority-pull batch; MigrationStats exposes no count
  // of records requested, so the returned/requested ratio is out of reach.
  Put(m, "migration.pp_records_per_batch",
      st.priority_pull_batches > 0 ? static_cast<double>(st.priority_pull_records) /
                                         static_cast<double>(st.priority_pull_batches)
                                   : 0,
      "1/batch");
  Put(m, "migration.pacing_backoffs", static_cast<double>(st.pacing_backoffs), "count");
  Put(m, "migration.host_ns_per_event",
      mig.events > 0 ? mig.host_s * 1e9 / static_cast<double>(mig.events) : 0, "ns");

  const double user_bytes = static_cast<double>(writes_ok) * (kKeyBytes + kValueBytes);
  Put(m, "log.write_amp",
      user_bytes > 0 ? static_cast<double>(a.log_appended - b.log_appended) / user_bytes : 0,
      "ratio");
  Put(m, "log.space_amp",
      a.log_live > 0 ? static_cast<double>(a.log_allocated) / static_cast<double>(a.log_live) : 0,
      "ratio");
  Put(m, "log.cleaned_segments", static_cast<double>(a.log_cleaned - b.log_cleaned), "count");

  Put(m, "store.load_ns_per_record", rep.load_s() * 1e9 / static_cast<double>(shape.records),
      "ns");
  Put(m, "workload.issued", static_cast<double>(ops), "count");
  Put(m, "workload.completed", static_cast<double>(completed), "count");
  Put(m, "workload.backlog_peak", static_cast<double>(rep.backlog_peak()), "count");
  Put(m, "workload.fail_frac", ops > 0 ? static_cast<double>(ops - completed) / dops : 0, "frac");
  for (const char* state : {"run.measure", "run.migrate", "run.drain"}) {
    const auto it = rep.state_host_s().find(state);
    Put(m, std::string("span.") + state + "_s", it == rep.state_host_s().end() ? 0 : it->second,
        "s");
  }
}

// Lane split for traced runs: an unthreaded run of the same lanes with
// LaneSet::PhaseHooks timing each window's slowest lane and the sequential
// merge during the measured phase. Returns the measured phase's trace hash,
// which must equal the threaded run's.
uint64_t LaneSplit(const Shape& shape, uint64_t seed, ClusterConfig config,
                   const YcsbWorkload& workload, double* lane_max_s, double* merge_s) {
  config.lane_threads = false;
  Rep split(shape, seed, config, false);
  split.Setup(workload);  // Hooks go in after warm-up: only the measured phase counts.
  Clock::time_point mark;
  double window_max = 0;
  LaneSet::PhaseHooks hooks;
  hooks.lane_begin = [&](int) { mark = Clock::now(); };
  hooks.lane_end = [&](int) {
    window_max = std::max(window_max, std::chrono::duration<double>(Clock::now() - mark).count());
  };
  hooks.merge_begin = [&] { mark = Clock::now(); };
  hooks.merge_end = [&] {
    *lane_max_s += window_max;
    *merge_s += std::chrono::duration<double>(Clock::now() - mark).count();
    window_max = 0;
  };
  split.cluster().lanes()->set_phase_hooks(std::move(hooks));
  split.Measure();
  return split.measure_hash();
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  int lanes = -1;    // Override (ycsb_a_scale24 self-test): lane count.
  int threads = -1;  // Override: threaded lanes.
  std::string spans;
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ycsb_b_steady|ycsb_b_migrate|ycsb_a_scale24> "
               "--seed <n> --seconds <s> --trace <0|1> [--scale <f>] [--lanes <n>] "
               "[--threads <0|1>] [--spans <file>]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (flag == "--scale") {
      args->scale = std::atof(v);
    } else if (flag == "--lanes") {
      args->lanes = std::atoi(v);
    } else if (flag == "--threads") {
      args->threads = std::atoi(v);
    } else if (flag == "--spans") {
      args->spans = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->scale > 0 && args->scale <= 1.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(ch) >= 0x20) {
      out += ch;
    }
  }
  return out;
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  char buf[512];
  for (size_t i = 0; i < m.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                  m[i].name.c_str(), m[i].value, m[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < v.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", i ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

void WriteSpans(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  const auto& spans = g_tracer.spans();
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"host_start_s\":%.9f,"
                 "\"host_end_s\":%.9f,\"sim_start_ns\":%" PRIu64 ",\"sim_end_ns\":%" PRIu64 "}%s\n",
                 i, s.name.c_str(), s.parent, s.host_start, s.host_end, s.sim_start, s.sim_end,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

bool SameMetrics(const Metrics& a, const Metrics& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].name != b[i].name || a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  std::optional<Shape> maybe_shape = MakeShape(args.workload, args.scale);
  if (!maybe_shape.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    Usage();
    return 2;
  }
  Shape shape = *maybe_shape;
  if (args.lanes >= 0 && shape.lanes > 0) {
    shape.lanes = args.lanes;
  }
  if (args.threads >= 0 && shape.lanes > 0) {
    shape.lane_threads = args.threads != 0;
  }

  ClusterConfig config;
  config.num_masters = shape.masters;
  config.num_clients = shape.clients;
  config.seed = args.seed;
  config.master.hash_table_log2_buckets = shape.hash_log2_buckets;
  config.master.segment_size = 256 * 1024;
  if (shape.lanes > 0) {
    config.lanes = shape.lanes;
    config.lane_threads = shape.lane_threads;
  }
  YcsbConfig ycsb;
  ycsb.num_records = shape.records;
  ycsb.key_length = kKeyBytes;
  ycsb.value_length = kValueBytes;
  ycsb.read_fraction = shape.read_fraction;
  ycsb.theta = 0.99;
  const YcsbWorkload workload(ycsb);

  std::vector<std::string> errors;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  std::vector<double> build_s;
  Metrics first_sim;
  uint64_t first_hash = 0;
  std::unique_ptr<Rep> rep;
  const double t_start = HostNow();
  int reps = 0;
  // Traced runs alternate untraced and traced repetitions so the tracing
  // overhead is measured on the same process and inputs.
  while (reps < kMinReps * (args.trace ? 2 : 1) || HostNow() - t_start < args.seconds) {
    const bool traced = args.trace && reps % 2 == 1;
    rep.reset();
    rep = std::make_unique<Rep>(shape, args.seed, config, traced);
    setup_s.push_back(rep->Setup(workload));
    const double wall = rep->Measure();
    (traced ? traced_wall_s : wall_s).push_back(wall);
    build_s.push_back(rep->build_s());
    Metrics sim = rep->SimMetrics();
    if (rep->migration().stats.has_value()) {
      for (Metric& m : rep->MigrationMetrics(rep->migration())) {
        sim.push_back(m);
      }
    }
    if (reps == 0) {
      first_sim = sim;
      first_hash = rep->measure_hash();
    } else if (!SameMetrics(sim, first_sim) || rep->measure_hash() != first_hash) {
      errors.push_back("repetition " + std::to_string(reps) +
                       " diverged from repetition 0 (simulated metrics or trace hash)");
    }
    reps++;
    g_tracer.on = false;
  }
  g_tracer.on = args.trace;

  // Post phases on the last repetition's cluster.
  if (!shape.migrate_in_measure) {
    rep->RunProbe();
  }
  const size_t rung_ops = static_cast<size_t>(std::max(2000.0, 30'000 * args.scale));
  const double max_rate_kops = rep->RunCapacityLadder(rung_ops);
  rep->Verify(&errors);
  const uint64_t final_hash = rep->cluster().trace_hash();
  const int rungs = rep->rungs();
  const size_t verified_keys = rep->verified_keys();

  Metrics sim = rep->SimMetrics();
  const MigrationRun& mig = rep->migration();
  Metrics mig_metrics;
  if (mig.stats.has_value()) {
    mig_metrics = rep->MigrationMetrics(mig);
  }
  const Rep::OpCounts counts = rep->CountOps();
  for (const Metric& m : sim) {
    if (m.name.find("samples") == std::string::npos && m.value <= 0) {
      errors.push_back("simulated metric " + m.name + " is not positive");
    }
  }
  const auto sample_count = [](const Metrics& ms, const char* name) {
    for (const Metric& m : ms) {
      if (m.name == name) {
        return m.value;
      }
    }
    return 0.0;
  };
  // At least 10 samples beyond every reported p99.9.
  if (sample_count(sim, "read_samples") < 10'000 || sample_count(sim, "write_samples") < 10'000 ||
      sample_count(mig_metrics, "mig_read_samples") < 10'000) {
    if (args.scale >= 1.0) {
      errors.push_back("fewer than 10k samples behind a reported p99.9");
    }
  }

  Metrics e2e;
  Put(&e2e, "setup_s", Median(setup_s), "s");
  Put(&e2e, "wall_s", Median(wall_s), "s");
  Put(&e2e, "peak_rss_mb", PeakRssMb(), "MB");
  Metrics sim_exact = sim;
  sim_exact.insert(sim_exact.end(), mig_metrics.begin(), mig_metrics.end());
  Put(&sim_exact, "max_rate_kops", max_rate_kops, "kops");
  for (const char* name : {"read_mean_us", "read_p999_us", "write_mean_us", "write_p999_us",
                           "goodput_kops", "op_ok_frac", "max_rate_kops", "migration_mbps",
                           "mig_read_p999_us", "mig_goodput_kops"}) {
    for (const Metric& m : sim_exact) {
      if (m.name == name) {
        e2e.push_back(m);
      }
    }
  }

  Metrics layer;
  if (args.trace) {
    LayerMetrics(*rep, &layer);
    rep.reset();  // Closes its spans and frees its cluster before the battery.
    RunBattery(shape, config, args.seed, &layer);
    Put(&layer, "setup.build_s", Median(build_s), "s");
    Put(&layer, "trace.overhead_s", Median(traced_wall_s) - Median(wall_s), "s");
    double lane_max_s = 0;
    double merge_s = 0;
    if (shape.lanes > 1) {
      if (LaneSplit(shape, args.seed, config, workload, &lane_max_s, &merge_s) != first_hash) {
        errors.push_back("unthreaded lane-split run diverged from the threaded schedule");
      }
    }
    Put(&layer, "sim.lanes.lane_max_s", lane_max_s, "s");
    Put(&layer, "sim.lanes.merge_s", merge_s, "s");
    Put(&layer, "sim.lanes.sync_s",
        shape.lanes > 1 ? Median(wall_s) - (lane_max_s + merge_s) : 0, "s");
  }

  if (!args.spans.empty() && args.trace) {
    WriteSpans(args.spans);
  }

  std::string errs = "[";
  for (size_t i = 0; i < errors.size(); i++) {
    errs += (i ? ",\"" : "\"") + JsonEscape(errors[i]) + "\"";
  }
  errs += "]";
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"trace\":%d,\"reps\":%d,\"correct\":%s,"
      "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"trace_hash\":\"0x%016" PRIx64 "\","
      "\"final_trace_hash\":\"0x%016" PRIx64 "\",\"ladder_rungs\":%d,\"verified_keys\":%zu,"
      "\"setup_reps_s\":%s,\"wall_reps_s\":%s,\"sim_exact\":%s,\"metrics\":%s,"
      "\"errors\":%s}\n",
      shape.name.c_str(), args.seed, args.trace ? 1 : 0, reps, errors.empty() ? "true" : "false",
      counts.attempted, counts.failed, first_hash, final_hash, rungs, verified_keys,
      JsonList(setup_s).c_str(), JsonList(wall_s).c_str(), MetricsJson(sim_exact).c_str(),
      MetricsJson(args.trace ? layer : e2e).c_str(), errs.c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
