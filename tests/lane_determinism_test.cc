// Cross-shard determinism suite for sharded event lanes (LaneSet).
//
// The lane engine's core promise: a run's trace is a pure function of its
// seed — never of the lane count or of whether lanes execute on real worker
// threads. This drives full cluster scenarios (plain YCSB-B, YCSB-B with a
// mid-run Rocksteady migration, YCSB-B under injected fabric faults) at
// lanes {1, 2, 4} x threads {off, on} across 20 seeds (the migration
// scenario also at 8 threaded lanes, oversubscribing a small host on
// purpose so the barrier runs under preemption) and asserts every digest —
// trace hash, event count, end time, client/migration/fault counters, final
// object placement — is bit-identical. (sim_determinism_test pins run-twice
// equality of the default one-lane cluster.)
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/audit.h"
#include "src/migration/rocksteady_target.h"
#include "src/sim/fault_injector.h"
#include "src/sim/lane_set.h"
#include "src/workload/client_actor.h"
#include "src/workload/ycsb.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr KeyHash kMid = 1ull << 63;
constexpr uint64_t kRecords = 1'000;

enum class Scenario { kYcsb, kMigration, kFaults };

struct LaneDigest {
  uint64_t trace_hash = 0;
  size_t events = 0;
  Tick end_time = 0;
  uint64_t client_completed = 0;
  uint64_t client_failed = 0;
  uint64_t records_pulled = 0;
  uint64_t source_objects = 0;
  uint64_t target_objects = 0;
  uint64_t injected_drops = 0;
  uint64_t injected_duplicates = 0;
  uint64_t retransmissions = 0;

  friend bool operator==(const LaneDigest&, const LaneDigest&) = default;
};

LaneDigest RunLaneScenario(Scenario kind, uint64_t seed, int lanes, bool threads) {
  // The injector must outlive the cluster's network.
  FaultInjector injector({.seed = seed * 1'000 + 7,
                          .drop_probability = 0.01,
                          .duplicate_probability = 0.005,
                          .max_extra_delay_ns = 2 * kMicrosecond});

  ClusterConfig config;
  config.num_masters = 4;
  config.num_clients = 2;
  config.master.hash_table_log2_buckets = 14;
  config.master.segment_size = 64 * 1024;
  config.seed = seed;
  config.lanes = lanes;
  config.lane_threads = threads;
  Cluster cluster(config);
  if (kind == Scenario::kFaults) {
    // Fault draws come from per-sender streams: each node's drop/duplicate/
    // delay draws depend only on that node's send order, which the
    // partition-invariant event order keeps lane-count- and thread-invariant.
    cluster.net().SetFaultInjector(&injector);
  }
  if (kind != Scenario::kYcsb) {
    EnableMigration(&cluster);
  }
  cluster.CreateTable(kTable, 0);
  cluster.LoadTable(kTable, kRecords, 30, 100);

  YcsbConfig ycsb = YcsbConfig::WorkloadB();
  ycsb.num_records = kRecords;
  YcsbWorkload workload(ycsb);
  ClientActorConfig actor_config;
  actor_config.ops_per_second = 40'000;
  actor_config.stop_time = 30 * kMillisecond;
  std::vector<std::unique_ptr<ClientActor>> actors;
  for (size_t c = 0; c < cluster.num_clients(); c++) {
    actors.push_back(
        std::make_unique<ClientActor>(kTable, &cluster.client(c), &workload, actor_config));
    actors.back()->Start();
  }

  std::optional<MigrationStats> stats;
  if (kind != Scenario::kYcsb) {
    // Safe-point kickoff: the lane-mode home for cross-cutting control
    // actions. Placement depends only on the global event timeline.
    cluster.AtSafePoint(10 * kMillisecond, [&] {
      StartRocksteadyMigration(&cluster, kTable, kMid, ~0ull, 0, 1, RocksteadyOptions{},
                               [&](const MigrationStats& s) { stats = s; });
    });
  }
  cluster.Run();

  AuditReport report;
  cluster.master(0).objects().AuditInvariants(&report);
  cluster.master(1).objects().AuditInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.Summary();

  LaneDigest digest;
  digest.trace_hash = cluster.trace_hash();
  digest.events = cluster.events_processed();
  digest.end_time = cluster.now();
  for (const auto& actor : actors) {
    digest.client_completed += actor->completed();
    digest.client_failed += actor->failed();
  }
  digest.records_pulled = stats ? stats->records_pulled : 0;
  digest.source_objects = cluster.master(0).objects().object_count();
  digest.target_objects = cluster.master(1).objects().object_count();
  digest.injected_drops = cluster.net().injected_drops();
  digest.injected_duplicates = cluster.net().injected_duplicates();
  digest.retransmissions = cluster.rpc().retransmissions();
  return digest;
}

const char* ScenarioName(Scenario kind) {
  switch (kind) {
    case Scenario::kYcsb:
      return "ycsb";
    case Scenario::kMigration:
      return "migration";
    case Scenario::kFaults:
      return "faults";
  }
  return "?";
}

class LaneDeterminismTest : public testing::TestWithParam<std::tuple<Scenario, uint64_t>> {};

TEST_P(LaneDeterminismTest, HashesIdenticalAcrossLaneCountsAndThreads) {
  const auto [kind, seed] = GetParam();
  const LaneDigest reference = RunLaneScenario(kind, seed, 1, false);
  // The scenario actually exercised the machinery.
  EXPECT_GT(reference.events, 1'000u);
  EXPECT_GT(reference.client_completed, 0u);
  if (kind != Scenario::kYcsb) {
    EXPECT_GT(reference.records_pulled, 0u);
    EXPECT_EQ(reference.source_objects + reference.target_objects, kRecords);
  }
  if (kind == Scenario::kFaults) {
    EXPECT_GT(reference.injected_drops, 0u);
    EXPECT_GT(reference.retransmissions, 0u);
  }
  for (const int lanes : {2, 4}) {
    const LaneDigest unthreaded = RunLaneScenario(kind, seed, lanes, false);
    EXPECT_EQ(unthreaded, reference) << "lanes=" << lanes << " unthreaded diverged";
    const LaneDigest threaded = RunLaneScenario(kind, seed, lanes, true);
    EXPECT_EQ(threaded, reference) << "lanes=" << lanes << " threaded diverged";
  }
  if (kind == Scenario::kMigration) {
    EXPECT_EQ(RunLaneScenario(kind, seed, 8, true), reference) << "lanes=8 threaded diverged";
  }
}

std::string LaneParamName(const testing::TestParamInfo<std::tuple<Scenario, uint64_t>>& info) {
  return std::string(ScenarioName(std::get<0>(info.param))) + "_s" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneDeterminismTest,
                         testing::Combine(testing::Values(Scenario::kYcsb, Scenario::kMigration,
                                                          Scenario::kFaults),
                                          testing::Range(uint64_t{0}, uint64_t{20})),
                         LaneParamName);

// Two different seeds must diverge (guards against a degenerate lane hash).
TEST(LaneDeterminismTest, DifferentSeedsDiverge) {
  const LaneDigest a = RunLaneScenario(Scenario::kYcsb, 42, 4, false);
  const LaneDigest b = RunLaneScenario(Scenario::kYcsb, 43, 4, false);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

// Same-timestamp events order by (origin node, the origin's own counter),
// with root contexts (setup, safe-point tasks) after every node — never by
// lane index, mailbox drain order, scheduling time or threading.
TEST(LaneOrderTest, SameTimestampOrderIsOriginThenOriginSeq) {
  std::vector<std::string> reference;
  for (const int lanes : {1, 2, 3}) {
    for (const bool threads : {false, true}) {
      LaneSet::Config config;
      config.lanes = lanes;
      config.threads = threads;
      config.lookahead = 10;
      config.seed = 1;
      LaneSet set(config);
      for (NodeId n = 0; n < 4; n++) {
        set.AssignNode(n, static_cast<int>(n) % lanes);
      }
      // Every recorded event runs on node 0, so `order` has one writer.
      std::vector<std::string> order;
      auto note = [&order](const char* tag) { return [&order, tag] { order.push_back(tag); }; };
      // Root-scheduled first, but root origins sort after every node.
      set.SimFor(0)->At(150, note("root"));
      // Node 3 sends before node 1; node 1 sends twice (FIFO by its seq).
      set.SimFor(3)->At(5, [&] { set.Deliver(3, 0, 150, note("from-n3")); });
      set.SimFor(1)->At(10, [&] {
        set.Deliver(1, 0, 150, note("from-n1-a"));
        set.Deliver(1, 0, 150, note("from-n1-b"));
      });
      // Node 0 schedules its own tick-150 event last, yet has the lowest id.
      set.SimFor(0)->At(100, [&] { set.SimFor(0)->At(150, note("self")); });
      // A safe-point task starts a chain on node 2 (root origin); the chain's
      // second step runs with node 2 as origin and sends.
      set.AtSafePoint(120, [&] {
        set.SimFor(2)->At(125, [&] {
          set.SimFor(2)->At(130, [&] { set.Deliver(2, 0, 150, note("from-n2-chain")); });
        });
      });
      set.Run();
      const std::vector<std::string> expected = {"self",          "from-n1-a", "from-n1-b",
                                                 "from-n2-chain", "from-n3",   "root"};
      EXPECT_EQ(order, expected) << "lanes=" << lanes << " threads=" << threads;
      EXPECT_EQ(set.events_processed(), 11u);
      if (reference.empty()) {
        reference = order;
      }
      EXPECT_EQ(order, reference) << "lanes=" << lanes << " threads=" << threads;
    }
  }
}

struct RunDigest {
  uint64_t trace_hash;
  size_t events;
  Tick now;
  friend bool operator==(const RunDigest&, const RunDigest&) = default;
};

// Mail still in flight when RunUntil returns is adopted by the next run,
// after a safe-point task has scheduled new work in between.
TEST(LaneOrderTest, MailInFlightAcrossRunUntilAndSafePointWork) {
  constexpr int kNodes = 8;
  std::vector<RunDigest> reference;
  for (const int lanes : {1, 2, 4, 8}) {
    for (const bool threads : {false, true}) {
      LaneSet::Config config;
      config.lanes = lanes;
      config.threads = threads;
      config.lookahead = 20;
      config.seed = 7;
      LaneSet set(config);
      for (NodeId n = 0; n < kNodes; n++) {
        set.AssignNode(n, static_cast<int>(n) % lanes);
      }
      // Relay hops: node n forwards to 3n + 1 (mod 8) after 20 + n ns, and
      // every fourth hop also schedules a local tick after 7 ns. Counters
      // are per node, so each has one writer.
      std::vector<uint64_t> sent(kNodes, 0);
      std::vector<uint64_t> delivered(kNodes, 0);
      std::vector<uint64_t> hops(kNodes, 0);
      Tick stop = 1'500;
      std::function<void(NodeId, bool)> hop = [&](NodeId at, bool relayed) {
        hops[at]++;
        delivered[at] += relayed ? 1 : 0;
        Simulator* sim = set.SimFor(at);
        if (sim->now() >= stop) {
          return;
        }
        const NodeId next = (3 * at + 1) % kNodes;
        sent[at]++;
        set.Deliver(at, next, sim->now() + 20 + at, [&hop, next] { hop(next, true); });
        if (hops[at] % 4 == 0) {
          sim->At(sim->now() + 7, [&hops, at] { hops[at]++; });
        }
      };
      for (NodeId n = 0; n < kNodes; n++) {
        set.SimFor(n)->At(n, [&hop, n] { hop(n, false); });
      }
      auto total = [](const std::vector<uint64_t>& v) {
        return std::accumulate(v.begin(), v.end(), uint64_t{0});
      };
      std::vector<RunDigest> digests;
      set.RunUntil(1'000);
      EXPECT_GT(total(sent), total(delivered)) << "no mail in flight, lanes=" << lanes;
      digests.push_back({set.trace_hash(), set.events_processed(), set.now()});
      set.AtSafePoint(1'010, [&] {
        stop = 2'500;
        for (NodeId n = 0; n < kNodes; n += 2) {
          set.SimFor(n)->At(1'013, [&hop, n] { hop(n, false); });
          set.Deliver(n, n + 1, 1'040, [&hop, n] { hop(n + 1, false); });
        }
      });
      set.RunUntil(2'000);
      digests.push_back({set.trace_hash(), set.events_processed(), set.now()});
      set.Run();
      digests.push_back({set.trace_hash(), set.events_processed(), set.now()});
      EXPECT_EQ(total(sent), total(delivered));
      if (reference.empty()) {
        reference = digests;
      }
      EXPECT_EQ(digests, reference) << "lanes=" << lanes << " threads=" << threads;
    }
  }
}

// Only a bare engine runs its own queue and keeps its own digest. A node
// view or a lane engine refuses, in every build type, so code that still
// drives a view instead of its LaneSet fails loudly instead of running
// nothing and reporting a constant hash.
TEST(LaneViewDeathTest, ViewsAndLaneEnginesRefuseEngineOnlyCalls) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  LaneSet::Config config;
  config.lookahead = 1'000;
  LaneSet set(config);
  set.AssignNode(0, 0);
  Simulator* view = set.SimFor(0);
  view->At(10, [] {});
  EXPECT_DEATH(view->Run(), "Simulator::Run called on a node view or lane engine");
  EXPECT_DEATH(view->RunUntil(20), "Simulator::RunUntil called on a node view");
  EXPECT_DEATH((void)view->trace_hash(), "Simulator::trace_hash called on a node view");
  EXPECT_DEATH((void)view->events_processed(), "Simulator::events_processed called");
  EXPECT_DEATH(set.lane_sim(0).Run(), "Simulator::Run called on a node view or lane engine");
  // The LaneSet itself runs the view's event.
  EXPECT_EQ(set.Run(), 1u);
}

}  // namespace
}  // namespace rocksteady
