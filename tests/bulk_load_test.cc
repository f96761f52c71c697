// Parallel bulk load against a serial reference.
//
// Cluster::LoadTable writes each master's share of the records on its own
// thread and then seeds backups with one thread per backup server. Its
// contract is that the result is byte-identical to the plain serial load:
// write records 0..n-1 in id order into their owners, then copy every
// segment of every master to each of its backups. The reference loader
// below is that serial load, run on a twin cluster; the test compares every
// master's log (segment ids, bytes, seal state, stats), hash-table slot
// order and version horizon, every backup's replicas, and the trace hash of
// a short YCSB run started from each loaded cluster.
//
// Load failures must be loud in every build type: the death tests cover a
// table with no owning tablet and a record that cannot fit in a segment.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/backup_service.h"
#include "src/cluster/cluster.h"
#include "src/common/hash.h"
#include "src/workload/client_actor.h"
#include "src/workload/ycsb.h"

namespace rocksteady {
namespace {

constexpr TableId kTable = 1;
constexpr TableId kSideTable = 2;
constexpr size_t kKeyLength = 30;
constexpr size_t kValueLength = 100;

struct Shape {
  int masters = 4;
  uint64_t records = 0;
  bool spread = false;  // Tablets across every master, or all on master 0.
  int lanes = 1;
  bool lane_threads = false;
  size_t key_length = kKeyLength;
  // A second, smaller table on master 1 loaded after the first: re-seeding
  // rewrites every replica the first load left on the backups.
  uint64_t side_records = 0;
};

ClusterConfig ConfigFor(const Shape& shape) {
  ClusterConfig config;
  config.num_masters = shape.masters;
  config.num_clients = 2;
  config.master.hash_table_log2_buckets = 12;
  config.master.segment_size = 64 * 1024;
  config.seed = 7;
  config.lanes = shape.lanes;
  config.lane_threads = shape.lane_threads;
  return config;
}

// Equal hash-range tablets of `table` across every master.
void SpreadTable(Cluster& cluster, TableId table) {
  const auto n = static_cast<uint64_t>(cluster.num_masters());
  for (uint64_t i = 1; i < n; i++) {
    cluster.coordinator().SplitTablet(table, (~0ull / n) * i);
  }
  const auto tablets = cluster.coordinator().GetTableConfig(table);
  for (size_t i = 0; i < tablets.size(); i++) {
    const ServerId owner = cluster.master(i % cluster.num_masters()).id();
    if (tablets[i].owner != owner) {
      cluster.coordinator().ReassignTablet(table, tablets[i].start_hash, tablets[i].end_hash,
                                           owner);
    }
  }
}

void CreateTables(Cluster& cluster, const Shape& shape) {
  cluster.CreateTable(kTable, 0);
  if (shape.spread) {
    SpreadTable(cluster, kTable);
  }
  if (shape.side_records > 0) {
    cluster.CreateTable(kSideTable, 1);
  }
}

// The serial load LoadTable must reproduce: per-record writes in id order,
// then a per-segment copy of every master's log to each of its backups.
void ReferenceLoad(Cluster& cluster, TableId table, uint64_t records, size_t key_length) {
  const std::string value(kValueLength, 'v');
  for (uint64_t id = 0; id < records; id++) {
    const std::string key = Cluster::MakeKey(id, key_length);
    const KeyHash hash = HashKey(table, key);
    const ServerId owner = cluster.coordinator().OwnerOf(table, hash);
    ASSERT_NE(owner, kInvalidServerId);
    ASSERT_TRUE(cluster.coordinator().master(owner)->objects().Write(table, key, hash, value).ok());
  }
  for (size_t m = 0; m < cluster.num_masters(); m++) {
    MasterServer& owner = cluster.master(m);
    for (const NodeId node : owner.replicas().backups()) {
      for (size_t b = 0; b < cluster.num_masters(); b++) {
        if (cluster.master(b).node() != node) {
          continue;
        }
        for (const auto& segment : owner.objects().log().segments()) {
          cluster.master(b).backup().Write(owner.id(), segment->id(), 0, segment->data(),
                                           segment->used(), segment->sealed());
        }
      }
    }
  }
}

std::vector<std::pair<KeyHash, uint64_t>> HashTableSequence(const ObjectManager& objects) {
  std::vector<std::pair<KeyHash, uint64_t>> slots;
  objects.hash_table().ForEach(
      [&](KeyHash hash, LogRef ref) { slots.emplace_back(hash, ref.raw); });
  return slots;
}

void ExpectSameMaster(const ObjectManager& got, const ObjectManager& want, size_t m) {
  SCOPED_TRACE("master " + std::to_string(m));
  const auto& got_segments = got.log().segments();
  const auto& want_segments = want.log().segments();
  ASSERT_EQ(got_segments.size(), want_segments.size());
  for (size_t s = 0; s < got_segments.size(); s++) {
    const Segment& a = *got_segments[s];
    const Segment& b = *want_segments[s];
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.sealed(), b.sealed());
    EXPECT_EQ(a.live_bytes(), b.live_bytes());
    ASSERT_EQ(a.used(), b.used());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.used()), 0) << "segment " << a.id();
  }
  EXPECT_EQ(HashTableSequence(got), HashTableSequence(want));
  const LogStats& a = got.log().stats();
  const LogStats& b = want.log().stats();
  EXPECT_EQ(a.appended_bytes, b.appended_bytes);
  EXPECT_EQ(a.appended_entries, b.appended_entries);
  EXPECT_EQ(a.dead_bytes, b.dead_bytes);
  EXPECT_EQ(a.cleaned_segments, b.cleaned_segments);
  EXPECT_EQ(a.relocated_entries, b.relocated_entries);
  EXPECT_EQ(a.relocated_bytes, b.relocated_bytes);
  EXPECT_EQ(got.version_horizon(), want.version_horizon());
  EXPECT_EQ(got.log().HeadPosition(), want.log().HeadPosition());
}

void ExpectSameBackup(Cluster& got, Cluster& want, size_t b) {
  SCOPED_TRACE("backup " + std::to_string(b));
  const BackupService& a = got.master(b).backup();
  const BackupService& w = want.master(b).backup();
  EXPECT_EQ(a.bytes_stored(), w.bytes_stored());
  EXPECT_EQ(a.segment_count(), w.segment_count());
  for (size_t m = 0; m < got.num_masters(); m++) {
    const auto got_replicas = a.GetRecoveryData(got.master(m).id(), 0);
    const auto want_replicas = w.GetRecoveryData(want.master(m).id(), 0);
    ASSERT_EQ(got_replicas.size(), want_replicas.size()) << "replicas of master " << m;
    for (size_t s = 0; s < got_replicas.size(); s++) {
      EXPECT_EQ(got_replicas[s].segment_id, want_replicas[s].segment_id);
      EXPECT_TRUE(got_replicas[s].data == want_replicas[s].data)
          << "replica of master " << m << " segment " << got_replicas[s].segment_id;
      EXPECT_EQ(got_replicas[s].sealed, want_replicas[s].sealed)
          << "seal of master " << m << "'s segment " << got_replicas[s].segment_id;
    }
  }
}

// A short YCSB-B run from the loaded state; returns the trace hash.
uint64_t RunYcsb(Cluster& cluster, const Shape& shape) {
  YcsbConfig ycsb = YcsbConfig::WorkloadB();
  ycsb.num_records = shape.records;
  ycsb.key_length = shape.key_length;
  YcsbWorkload workload(ycsb);
  ClientActorConfig actor_config;
  actor_config.ops_per_second = 40'000;
  actor_config.stop_time = 5 * kMillisecond;
  std::vector<std::unique_ptr<ClientActor>> actors;
  for (size_t c = 0; c < cluster.num_clients(); c++) {
    actors.push_back(
        std::make_unique<ClientActor>(kTable, &cluster.client(c), &workload, actor_config));
    actors.back()->Start();
  }
  cluster.Run();
  uint64_t completed = 0;
  for (const auto& actor : actors) {
    completed += actor->completed();
    EXPECT_EQ(actor->failed(), 0u);
  }
  EXPECT_GT(completed, 0u);
  return cluster.trace_hash();
}

void ExpectParallelLoadMatchesSerial(const Shape& shape) {
  Cluster loaded(ConfigFor(shape));
  Cluster reference(ConfigFor(shape));
  CreateTables(loaded, shape);
  CreateTables(reference, shape);

  loaded.LoadTable(kTable, shape.records, shape.key_length, kValueLength);
  ReferenceLoad(reference, kTable, shape.records, shape.key_length);
  if (shape.side_records > 0) {
    loaded.LoadTable(kSideTable, shape.side_records, shape.key_length, kValueLength);
    ReferenceLoad(reference, kSideTable, shape.side_records, shape.key_length);
  }

  for (size_t m = 0; m < loaded.num_masters(); m++) {
    ExpectSameMaster(loaded.master(m).objects(), reference.master(m).objects(), m);
    ExpectSameBackup(loaded, reference, m);
  }
  EXPECT_EQ(RunYcsb(loaded, shape), RunYcsb(reference, shape));
}

TEST(BulkLoadTest, TwentyFourMastersSpreadMatchSerialLoad) {
  // More owners than host cores: loader threads each take several masters.
  ExpectParallelLoadMatchesSerial({.masters = 24, .records = 48'000, .spread = true,
                                   .side_records = 2'000});
}

TEST(BulkLoadTest, SingleOwnerTableMatchesSerialLoad) {
  // One owner: the load is one task; only seeding fans out.
  ExpectParallelLoadMatchesSerial({.masters = 4, .records = 20'000});
}

TEST(BulkLoadTest, ThreadedLanesClusterMatchesSerialLoad) {
  ExpectParallelLoadMatchesSerial(
      {.masters = 8, .records = 8'000, .spread = true, .lanes = 4, .lane_threads = true});
}

TEST(BulkLoadTest, RepeatedKeysKeepIdOrder) {
  // Six-byte keys truncate ids >= 100 onto 100 distinct keys, so each key
  // is written about ten times; the surviving version and every dead entry
  // must follow id order.
  ExpectParallelLoadMatchesSerial(
      {.masters = 4, .records = 1'000, .spread = true, .key_length = 6});
}

TEST(BackupServiceTest, AppendsRewritesAndGapsKeepTheirBytes) {
  BackupService backup;
  const std::vector<uint8_t> head = {1, 2, 3, 4};
  const std::vector<uint8_t> tail = {9, 8};
  backup.Reserve(1, 5, 6);
  backup.Write(1, 5, 0, head.data(), head.size(), false);  // Append into the reserved room.
  backup.Write(1, 5, 4, tail.data(), tail.size(), true);   // Append the rest.
  backup.Write(1, 5, 1, tail.data(), tail.size(), false);  // Rewrite in place.
  backup.Write(1, 7, 2, tail.data(), tail.size(), false);  // Gap: bytes 0-1 stay zero.
  backup.Reserve(1, 9, 16);                                // Room alone holds no bytes.
  const auto replicas = backup.GetRecoveryData(1, 0);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0].segment_id, 5u);
  EXPECT_EQ(replicas[0].data, (std::vector<uint8_t>{1, 9, 8, 4, 9, 8}));
  EXPECT_TRUE(replicas[0].sealed);  // A later unsealed rewrite keeps the seal.
  EXPECT_EQ(replicas[1].segment_id, 7u);
  EXPECT_EQ(replicas[1].data, (std::vector<uint8_t>{0, 0, 9, 8}));
  EXPECT_FALSE(replicas[1].sealed);
  EXPECT_TRUE(replicas[2].data.empty());
  EXPECT_EQ(backup.bytes_stored(), 10u);
}

TEST(BulkLoadDeathTest, TableWithoutTabletAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Cluster cluster(ConfigFor({}));
        cluster.LoadTable(/*table=*/9, 10, kKeyLength, kValueLength);
      },
      "no tablet of table 9 owns record 0");
}

TEST(BulkLoadDeathTest, RecordLargerThanSegmentAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Cluster cluster(ConfigFor({}));
        cluster.CreateTable(kTable, 0);
        cluster.LoadTable(kTable, 10, kKeyLength, /*value_length=*/128 * 1024);
      },
      "writing record 0 of table 1 to master 1 failed: NO_SPACE");
}

}  // namespace
}  // namespace rocksteady
