#include "src/cluster/client.h"

#include <algorithm>
#include <map>
#include <type_traits>

#include "src/common/logging.h"

namespace rocksteady {

RamCloudClient::RamCloudClient(Coordinator* coordinator, const CostModel* costs, int lane)
    : coordinator_(coordinator), costs_(costs) {
  endpoint_ = coordinator_->rpc().CreateEndpoint(nullptr, lane);
  sim_ = endpoint_->sim();
  rng_ = &coordinator_->rpc().CallerRng(endpoint_->node());
}

bool RamCloudClient::CachedOwner(TableId table, KeyHash hash, NodeId* node) const {
  for (const auto& entry : cache_) {
    if (entry.table == table && entry.start_hash <= hash && hash <= entry.end_hash) {
      *node = entry.owner_node;
      return true;
    }
  }
  return false;
}

void RamCloudClient::RefreshConfig(TableId table, std::function<void()> then) {
  auto request = std::make_unique<GetTableConfigRequest>();
  request->table = table;
  coordinator_->rpc().Call(
      node(), coordinator_->node(), std::move(request),
      [this, table, then = std::move(then)](Status status,
                                            std::unique_ptr<RpcResponse> response) {
        if (status == Status::kOk && response->status == Status::kOk) {
          auto& config = static_cast<GetTableConfigResponse&>(*response);
          std::erase_if(cache_, [&](const TabletConfigEntry& e) { return e.table == table; });
          cache_.insert(cache_.end(), config.tablets.begin(), config.tablets.end());
        }
        then();
      },
      costs_->rpc_timeout_ns);
}

RamCloudClient::RetryState* RamCloudClient::AllocState(TableId table) {
  RetryState* s = free_states_;
  if (s != nullptr) {
    free_states_ = s->next_free;
  } else {
    states_.push_back(std::make_unique<RetryState>());
    s = states_.back().get();
  }
  s->table = table;
  s->attempts_left = kMaxAttempts;
  s->next_free = nullptr;
  return s;
}

void RamCloudClient::FreeState(RetryState* s) {
  // The go closure is deliberately NOT destroyed here: a synchronous Report
  // from inside an executing go (e.g. a cache miss on the final attempt)
  // reaches this point with that closure's frame still on the stack. The
  // slot's next user overwrites it instead.
  s->done = nullptr;
  s->read_done = nullptr;
  // clear() (not = {}) so key/value/payload capacity survives for the next
  // op through this slot — the whole point of pooling the strings here.
  s->payload.clear();
  s->next_free = free_states_;
  free_states_ = s;
}

void RamCloudClient::Retry(RetryState* s) {
  s->attempts_left--;
  s->go();
}

void RamCloudClient::Finish(RetryState* s, Status status) {
  // Move the continuation out before invoking it: it may synchronously
  // issue a new op (and that op must not see a half-retired slot).
  if (s->read_done) {
    ReadCallback done = std::move(s->read_done);
    done(status, s->payload);
  } else {
    DoneCallback done = std::move(s->done);
    done(status);
  }
  FreeState(s);
}

void RamCloudClient::Report(RetryState* s, Status status, Tick hint) {
  Simulator& sim = *sim_;
  if (status == Status::kOk) {
    ops_completed_++;
    Finish(s, status);
    return;
  }
  if (s->attempts_left <= 1) {
    ops_failed_++;
    Finish(s, Status::kServerDown);
    return;
  }
  switch (status) {
    case Status::kWrongServer:
    case Status::kTableNotFound: {
      wrong_server_retries_++;
      // Escalating backoff: repeated kWrongServer for the same op means
      // the map is *still* stale (e.g. a pre-copy freeze window before
      // the coordinator learns the new owner) — don't hammer.
      const int attempt = kMaxAttempts - s->attempts_left;
      const Tick backoff =
          attempt <= 1 ? 0
                       : std::min<Tick>(static_cast<Tick>(attempt) *
                                            costs_->wrong_server_backoff_step_ns,
                                        costs_->wrong_server_backoff_max_ns);
      sim.After(backoff, [this, s] { RefreshConfig(s->table, [this, s] { Retry(s); }); });
      return;
    }
    case Status::kRetryLater: {
      retry_later_retries_++;
      const Tick jitter = rng_->UniformRange(costs_->retry_backoff_min_ns,
                                             costs_->retry_backoff_max_ns);
      const Tick at = std::max(hint, sim.now()) + jitter;
      sim.At(at, [this, s] { Retry(s); });
      return;
    }
    case Status::kServerDown:
      server_down_retries_++;
      // Likely a crash: wait for recovery to make progress, then refresh.
      sim.After(costs_->recovering_retry_hint_ns,
                [this, s] { RefreshConfig(s->table, [this, s] { Retry(s); }); });
      return;
    default:
      // kObjectNotFound is a legitimate outcome, not a failure.
      if (status == Status::kObjectNotFound) {
        ops_completed_++;
      } else {
        ops_failed_++;
      }
      Finish(s, status);
      return;
  }
}

template <typename Request>
void RamCloudClient::StartPointOp(RetryState* s, KeyHash hash) {
  s->go = [this, s, hash] {
    NodeId owner;
    if (!CachedOwner(s->table, hash, &owner)) {
      Report(s, Status::kWrongServer, 0);
      return;
    }
    auto request = std::make_unique<Request>();
    request->table = s->table;
    request->key = s->key;
    request->hash = hash;
    if constexpr (std::is_same_v<Request, WriteRequest>) {
      request->value = s->value;
      request->secondary_key = s->secondary;
    }
    coordinator_->rpc().Call(
        node(), owner, std::move(request),
        [this, s](Status status, std::unique_ptr<RpcResponse> response) {
          if (status != Status::kOk) {
            Report(s, status, 0);
            return;
          }
          if constexpr (std::is_same_v<Request, ReadRequest>) {
            auto& read = static_cast<ReadResponse&>(*response);
            if (read.status == Status::kOk) {
              s->payload = std::move(read.value);
            }
            Report(s, read.status, read.retry_after);
          } else {
            auto& write = static_cast<WriteResponse&>(*response);
            Report(s, write.status, write.retry_after);
          }
        },
        costs_->rpc_timeout_ns);
  };
  s->go();
}

void RamCloudClient::Read(TableId table, std::string_view key, ReadCallback done) {
  RetryState* s = AllocState(table);
  s->read_done = std::move(done);
  s->key.assign(key);
  StartPointOp<ReadRequest>(s, HashKey(table, key));
}

void RamCloudClient::Write(TableId table, std::string_view key, std::string_view value,
                           DoneCallback done, std::string_view secondary_key) {
  RetryState* s = AllocState(table);
  s->done = std::move(done);
  s->key.assign(key);
  s->value.assign(value);
  s->secondary.assign(secondary_key);
  StartPointOp<WriteRequest>(s, HashKey(table, key));
}

void RamCloudClient::Remove(TableId table, std::string_view key, DoneCallback done) {
  RetryState* s = AllocState(table);
  s->done = std::move(done);
  s->key.assign(key);
  StartPointOp<RemoveRequest>(s, HashKey(table, key));
}

void RamCloudClient::FanOut(RetryState* s, std::span<const KeyHash> hashes,
                            std::span<const std::string> keys) {
  // Group by owning server (the cluster-load effect Figure 3 measures:
  // spread N means N parallel RPCs for the same 7 keys).
  std::map<NodeId, std::unique_ptr<MultiGetRequest>> groups;
  for (size_t i = 0; i < hashes.size(); i++) {
    NodeId owner;
    if (!CachedOwner(s->table, hashes[i], &owner)) {
      Report(s, Status::kWrongServer, 0);
      return;
    }
    auto& request = groups[owner];
    if (request == nullptr) {
      request = std::make_unique<MultiGetRequest>();
      request->table = s->table;
    }
    if (!keys.empty()) {
      request->keys.push_back(keys[i]);
    }
    request->hashes.push_back(hashes[i]);
  }
  struct Aggregate {
    size_t remaining = 0;
    Status worst = Status::kOk;
    Tick hint = 0;
    RetryState* s = nullptr;
  };
  auto aggregate = std::make_shared<Aggregate>();
  aggregate->remaining = groups.size();
  aggregate->s = s;
  for (auto& [owner, request] : groups) {
    coordinator_->rpc().Call(
        node(), owner, std::move(request),
        [this, aggregate](Status status, std::unique_ptr<RpcResponse> response) {
          Status effective = status;
          Tick hint = 0;
          if (status == Status::kOk) {
            auto& multi = static_cast<MultiGetResponse&>(*response);
            effective = multi.status;
            hint = multi.retry_after;
          }
          if (effective != Status::kOk && aggregate->worst == Status::kOk) {
            aggregate->worst = effective;
          }
          aggregate->hint = std::max(aggregate->hint, hint);
          if (--aggregate->remaining == 0) {
            Report(aggregate->s, aggregate->worst, aggregate->hint);
          }
        },
        costs_->rpc_timeout_ns);
  }
}

void RamCloudClient::MultiGet(TableId table, std::vector<std::string> keys, DoneCallback done) {
  RetryState* s = AllocState(table);
  s->done = std::move(done);
  s->go = [this, s, keys = std::move(keys)] {
    std::vector<KeyHash> hashes;
    hashes.reserve(keys.size());
    for (const auto& key : keys) {
      hashes.push_back(HashKey(s->table, key));
    }
    FanOut(s, hashes, keys);
  };
  s->go();
}

void RamCloudClient::IndexScan(TableId table, uint8_t index_id, std::string start_key,
                               uint32_t count, DoneCallback done) {
  RetryState* s = AllocState(table);
  s->done = std::move(done);
  s->go = [this, s, index_id, start_key = std::move(start_key), count] {
    const auto* config = coordinator_->GetIndexConfig(s->table, index_id);
    if (config == nullptr) {
      Report(s, Status::kTableNotFound, 0);
      return;
    }
    NodeId indexlet_node = 0;
    bool found = false;
    for (const auto& indexlet : *config) {
      if (start_key >= indexlet.start_key &&
          (indexlet.end_key.empty() || start_key < indexlet.end_key)) {
        indexlet_node = indexlet.owner_node;
        found = true;
        break;
      }
    }
    if (!found) {
      Report(s, Status::kTableNotFound, 0);
      return;
    }
    auto lookup = std::make_unique<IndexLookupRequest>();
    lookup->table = s->table;
    lookup->index_id = index_id;
    lookup->start_key = start_key;
    lookup->count = count;
    coordinator_->rpc().Call(
        node(), indexlet_node, std::move(lookup),
        [this, s](Status status, std::unique_ptr<RpcResponse> response) {
          if (status != Status::kOk) {
            Report(s, status, 0);
            return;
          }
          auto& lookup_response = static_cast<IndexLookupResponse&>(*response);
          if (lookup_response.status != Status::kOk) {
            Report(s, lookup_response.status, 0);
            return;
          }
          if (lookup_response.hashes.empty()) {
            Report(s, Status::kOk, 0);
            return;
          }
          // Phase 2: fetch the records by hash from their tablet owners
          // (the index holds hashes, not records — Figure 2).
          FanOut(s, lookup_response.hashes, {});
        },
        costs_->rpc_timeout_ns);
  };
  s->go();
}

}  // namespace rocksteady
