#include "src/cluster/cluster.h"

#include <algorithm>
#include <atomic>  // lint:allow-nondeterminism — bulk-load task claiming only.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <thread>  // lint:allow-nondeterminism — bulk-load workers own disjoint servers.

#include "src/common/hash.h"

namespace rocksteady {

namespace {

LaneSet::Config LaneConfig(const ClusterConfig& config) {
  if (config.lanes <= 0) {
    std::fprintf(stderr, "ClusterConfig::lanes is %d; a cluster runs on at least one lane\n",
                 config.lanes);
    std::abort();
  }
  LaneSet::Config lane_config;
  lane_config.lanes = config.lanes;
  lane_config.threads = config.lane_threads;
  // Conservative safe horizon: the minimum cross-lane delivery latency.
  // Every Network::Send charges at least net_per_message_ns of
  // serialization plus propagation, so no in-window event can make another
  // lane's event land inside the window.
  lane_config.lookahead = config.costs.net_per_message_ns + config.costs.net_propagation_ns;
  lane_config.seed = config.seed;
  return lane_config;
}

// Runs task(i) for every i in [0, n) on min(hardware threads, n) threads,
// the caller included, each claiming the next unclaimed index. Tasks must
// touch disjoint state: the thread count and claim order then change speed
// only, never results. The first exception a thread hits is rethrown here
// once all have joined. (The caller works too so that a lone task runs
// where the serial load ran, allocating from the caller's malloc arena.)
void ParallelFor(size_t n, const std::function<void(size_t)>& task) {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());  // lint:allow-nondeterminism — speed only.
  const size_t threads = std::min(cores, n);
  std::atomic<size_t> next{0};  // lint:allow-nondeterminism — task claiming only.
  std::vector<std::exception_ptr> errors(threads);
  const auto work = [&](size_t t) {
    try {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        task(i);
      }
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;  // lint:allow-nondeterminism — joined before return.
  for (size_t t = 1; t < threads; t++) {
    helpers.emplace_back(work, t);
  }
  if (threads > 0) {
    work(0);
  }
  for (auto& helper : helpers) {
    helper.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), lanes_(LaneConfig(config)), net_(&lanes_, &config_.costs),
      rpc_(&lanes_, &net_, &config_.costs) {
  const int lanes = lanes_.lanes();
  // The coordinator lives on lane 0; servers and clients round-robin across
  // lanes so the paper-shape cluster (24 servers) spreads evenly.
  coordinator_ = std::make_unique<Coordinator>(&rpc_, &config_.costs);
  for (int i = 0; i < config_.num_masters; i++) {
    masters_.push_back(std::make_unique<MasterServer>(coordinator_.get(), &config_.costs,
                                                      config_.master, i % lanes));
  }
  // Backup placement: master i replicates to the next R servers (mod N),
  // never itself. With fewer than R+1 servers, replication degrades to the
  // servers available (single-master unit tests run unreplicated).
  for (int i = 0; i < config_.num_masters; i++) {
    std::vector<NodeId> backups;
    for (int r = 1; r <= config_.master.replication_factor && r < config_.num_masters; r++) {
      backups.push_back(masters_[(i + r) % config_.num_masters]->node());
    }
    masters_[i]->replicas().SetBackups(std::move(backups));
  }
  for (int i = 0; i < config_.num_clients; i++) {
    clients_.push_back(
        std::make_unique<RamCloudClient>(coordinator_.get(), &config_.costs, i % lanes));
  }
}

void Cluster::CreateTable(TableId table, size_t master_index) {
  coordinator_->CreateTable(table, masters_.at(master_index)->id());
}

std::string Cluster::MakeKey(uint64_t id, size_t key_length) {
  std::string key;
  MakeKeyInto(id, key_length, &key);
  return key;
}

void Cluster::MakeKeyInto(uint64_t id, size_t key_length, std::string* out) {
  // Byte-for-byte the snprintf("user%0*llu") this hand-rolled formatter
  // replaced: "user", the id zero-padded to (key_length - 4) digits (wider
  // if the id needs it), then '0'-filled / truncated to key_length. The
  // printf machinery was a measurable per-op cost in the workload path.
  const size_t min_digits = key_length > 4 ? key_length - 4 : 1;
  char digits[20];
  size_t n = 0;
  uint64_t v = id;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  const size_t width = std::max(min_digits, n);
  out->resize(4 + width);
  char* p = out->data();
  std::memcpy(p, "user", 4);
  std::memset(p + 4, '0', width - n);
  for (size_t i = 0; i < n; i++) {
    p[4 + width - n + i] = digits[n - 1 - i];
  }
  out->resize(key_length, '0');
}

void Cluster::LoadTable(TableId table, uint64_t num_records, size_t key_length,
                        size_t value_length) {
  // Pre-pass: the ids each master owns, ascending. An unowned record aborts
  // here, before any record is written.
  std::vector<std::vector<uint64_t>> ids_of(coordinator_->masters().size());  // By ServerId - 1.
  std::string key;
  for (uint64_t id = 0; id < num_records; id++) {
    MakeKeyInto(id, key_length, &key);
    const ServerId owner = coordinator_->OwnerOf(table, HashKey(table, key));
    if (owner == kInvalidServerId) {
      std::fprintf(stderr, "LoadTable: no tablet of table %llu owns record %llu (key %s)\n",
                   static_cast<unsigned long long>(table), static_cast<unsigned long long>(id),
                   key.c_str());
      std::abort();
    }
    ids_of[owner - 1].push_back(id);
  }
  std::vector<ServerId> owners;
  for (size_t i = 0; i < ids_of.size(); i++) {
    if (!ids_of[i].empty()) {
      owners.push_back(static_cast<ServerId>(i + 1));
    }
  }

  // Each task writes one master's ids in order, stopping at its first
  // failed write; failures are reported once every loader has joined.
  struct Failure {
    Status status = Status::kOk;
    uint64_t id = 0;
  };
  std::vector<Failure> failures(owners.size());
  const std::string value(value_length, 'v');
  ParallelFor(owners.size(), [&](size_t i) {
    ObjectManager& objects = coordinator_->master(owners[i])->objects();
    std::string record_key;
    for (const uint64_t id : ids_of[owners[i] - 1]) {
      MakeKeyInto(id, key_length, &record_key);
      const Result<Version> written =
          objects.Write(table, record_key, HashKey(table, record_key), value);
      if (!written.ok()) {
        failures[i] = {written.status(), id};
        return;
      }
    }
  });
  for (size_t i = 0; i < owners.size(); i++) {
    if (failures[i].status != Status::kOk) {
      const std::string_view status = ToString(failures[i].status);
      std::fprintf(stderr,
                   "LoadTable: writing record %llu of table %llu to master %u failed: %.*s\n",
                   static_cast<unsigned long long>(failures[i].id),
                   static_cast<unsigned long long>(table), owners[i],
                   static_cast<int>(status.size()), status.data());
      std::abort();
    }
  }
  ids_of.clear();  // Free the id lists before seeding allocates the replicas.
  SeedReplicas();
}

void Cluster::SeedReplicas() {
  std::map<NodeId, size_t> server_of;
  for (size_t s = 0; s < masters_.size(); s++) {
    server_of[masters_[s]->node()] = s;
  }
  // The masters each server backs up, in master order.
  std::vector<std::vector<MasterServer*>> backed(masters_.size());
  for (const auto& owner : masters_) {
    for (const NodeId node : owner->replicas().backups()) {
      const auto it = server_of.find(node);
      if (it != server_of.end()) {
        backed[it->second].push_back(owner.get());
      }
    }
  }
  std::vector<size_t> servers;
  for (size_t s = 0; s < backed.size(); s++) {
    if (!backed[s].empty()) {
      servers.push_back(s);
    }
  }
  // Allocate every replica here first and let the threads only copy: the
  // memory then comes from, and is freed back to, this thread's malloc
  // arena like the rest of the cluster's, so the next cluster reuses it
  // instead of faulting in fresh pages (per-thread arenas hand freed memory
  // back to the kernel).
  for (const size_t s : servers) {
    for (MasterServer* owner : backed[s]) {
      for (const auto& segment : owner->objects().log().segments()) {
        masters_[s]->backup().Reserve(owner->id(), segment->id(), segment->used());
      }
    }
  }
  ParallelFor(servers.size(), [&](size_t i) {
    BackupService& backup = masters_[servers[i]]->backup();
    for (MasterServer* owner : backed[servers[i]]) {
      for (const auto& segment : owner->objects().log().segments()) {
        backup.Write(owner->id(), segment->id(), 0, segment->data(), segment->used(),
                     segment->sealed());
      }
    }
  });
}

}  // namespace rocksteady
