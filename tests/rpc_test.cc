// Tests for the RPC layer: dispatch integration, timing, timeouts, crash
// behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/rpc/rpc_system.h"
#include "src/sim/fault_injector.h"

namespace rocksteady {
namespace {

// A one-lane engine: every endpoint is a node with its own view.
struct Fixture {
  CostModel costs;
  LaneSet lanes{LaneSet::Config{.lanes = 1, .seed = 7}};
  Network net{&lanes, &costs};
  RpcSystem rpc{&lanes, &net, &costs};
  std::vector<std::unique_ptr<CoreSet>> cores;

  // A server endpoint whose `workers` worker cores run on its node's view.
  RpcEndpoint* Server(int workers) {
    RpcEndpoint* endpoint = rpc.CreateEndpoint(nullptr);
    cores.push_back(std::make_unique<CoreSet>(endpoint->sim(), workers));
    endpoint->set_cores(cores.back().get());
    return endpoint;
  }
};

TEST(RpcTest, RoundTripThroughDispatch) {
  Fixture f;
  RpcEndpoint* server = f.Server(2);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);

  server->Register(Opcode::kRead, [](RpcContext context) {
    auto& request = context.As<ReadRequest>();
    auto response = std::make_unique<ReadResponse>();
    response->value = "value-for-" + request.key;
    context.reply(std::move(response));
  });

  std::string got;
  auto request = std::make_unique<ReadRequest>();
  request->key = "k1";
  f.rpc.Call(client->node(), server->node(), std::move(request),
             [&](Status status, std::unique_ptr<RpcResponse> response) {
               ASSERT_EQ(status, Status::kOk);
               got = static_cast<ReadResponse&>(*response).value;
             });
  f.lanes.Run();
  EXPECT_EQ(got, "value-for-k1");
}

TEST(RpcTest, LatencyIncludesDispatchAndNetwork) {
  Fixture f;
  RpcEndpoint* server = f.Server(2);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  Tick completed_at = 0;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status, std::unique_ptr<RpcResponse>) { completed_at = client->sim()->now(); });
  f.lanes.Run();
  // At minimum: two propagation delays + dispatch rx + dispatch tx.
  const Tick floor = 2 * f.costs.net_propagation_ns + f.costs.dispatch_per_rpc_ns +
                     f.costs.dispatch_tx_ns;
  EXPECT_GE(completed_at, floor);
  EXPECT_LT(completed_at, floor + 5'000);
}

TEST(RpcTest, ConcurrentCallsSerializeOnDispatch) {
  Fixture f;
  RpcEndpoint* server = f.Server(4);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  int handled = 0;
  server->Register(Opcode::kRead, [&](RpcContext context) {
    handled++;
    context.reply(std::make_unique<ReadResponse>());
  });
  int completed = 0;
  for (int i = 0; i < 10; i++) {
    f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
               [&](Status status, std::unique_ptr<RpcResponse>) {
                 EXPECT_EQ(status, Status::kOk);
                 completed++;
               });
  }
  f.lanes.Run();
  EXPECT_EQ(handled, 10);
  EXPECT_EQ(completed, 10);
}

TEST(RpcTest, TimeoutFiresWhenServerDown) {
  Fixture f;
  RpcEndpoint* server = f.Server(1);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  f.net.SetNodeDown(server->node(), true);
  Status got = Status::kOk;
  bool fired = false;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse> response) {
               got = status;
               fired = true;
               EXPECT_EQ(response, nullptr);
             },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(got, Status::kServerDown);
  EXPECT_EQ(f.lanes.now(), kMillisecond);
}

TEST(RpcTest, NoTimeoutAfterResponse) {
  Fixture f;
  RpcEndpoint* server = f.Server(1);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  int callbacks = 0;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) {
               callbacks++;
               EXPECT_EQ(status, Status::kOk);
             },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(callbacks, 1);  // The timeout must not double-fire.
}

TEST(RpcTest, HaltedServerNeverReplies) {
  Fixture f;
  RpcEndpoint* server = f.Server(1);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  server->cores()->Halt();  // NIC up, cores dead.
  Status got = Status::kOk;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) { got = status; },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(got, Status::kServerDown);
}

TEST(RpcTest, RetransmitDeliversThroughRequestDrop) {
  Fixture f;
  FaultInjector injector({.seed = 3});
  f.net.SetFaultInjector(&injector);
  RpcEndpoint* server = f.Server(1);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  injector.DropNext(client->node(), server->node(), 1);  // Lose the request.
  Status got = Status::kServerDown;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) { got = status; },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(got, Status::kOk);
  EXPECT_GE(f.rpc.retransmissions(), 1u);
  EXPECT_EQ(f.net.injected_drops(), 1u);
}

TEST(RpcTest, DuplicateRequestExecutesHandlerOnce) {
  Fixture f;
  FaultInjector injector({.seed = 3});
  f.net.SetFaultInjector(&injector);
  RpcEndpoint* server = f.Server(1);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  int executions = 0;
  server->Register(Opcode::kWrite, [&](RpcContext context) {
    executions++;
    context.reply(std::make_unique<WriteResponse>());
  });
  injector.DuplicateNext(client->node(), server->node(), 1);
  int callbacks = 0;
  f.rpc.Call(client->node(), server->node(), std::make_unique<WriteRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) {
               EXPECT_EQ(status, Status::kOk);
               callbacks++;
             },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(callbacks, 1);
  EXPECT_GE(server->duplicates_suppressed() + server->responses_replayed(), 1u);
  EXPECT_EQ(f.net.injected_duplicates(), 1u);
}

// Regression (the classic at-least-once hazard): the server applies a write,
// but the *response* is lost. The client retransmits; the server must replay
// its cached response instead of applying the write a second time.
TEST(RpcTest, LostResponseDoesNotDoubleApplyWrite) {
  Fixture f;
  FaultInjector injector({.seed = 3});
  f.net.SetFaultInjector(&injector);
  RpcEndpoint* server = f.Server(1);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  int applied = 0;
  server->Register(Opcode::kWrite, [&](RpcContext context) {
    applied++;
    context.reply(std::make_unique<WriteResponse>());
  });
  injector.DropNext(server->node(), client->node(), 1);  // Lose the response.
  Status got = Status::kServerDown;
  int callbacks = 0;
  f.rpc.Call(client->node(), server->node(), std::make_unique<WriteRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) {
               got = status;
               callbacks++;
             },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(applied, 1);  // Executed exactly once despite the retransmission.
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(got, Status::kOk);
  EXPECT_GE(server->responses_replayed(), 1u);
  EXPECT_GE(f.rpc.retransmissions(), 1u);
}

TEST(RpcTest, ServerToServerCallsChargeBothDispatches) {
  Fixture f;
  RpcEndpoint* a = f.Server(1);
  RpcEndpoint* b = f.Server(1);
  b->Register(Opcode::kRead,
              [](RpcContext context) { context.reply(std::make_unique<ReadResponse>()); });
  bool done = false;
  f.rpc.Call(a->node(), b->node(), std::make_unique<ReadRequest>(),
             [&](Status, std::unique_ptr<RpcResponse>) { done = true; });
  f.lanes.Run();
  EXPECT_TRUE(done);
  // Caller's dispatch polled the response off its NIC.
  EXPECT_GE(a->cores()->total_dispatch_busy(), f.costs.dispatch_per_rpc_ns);
  EXPECT_GE(b->cores()->total_dispatch_busy(),
            f.costs.dispatch_per_rpc_ns + f.costs.dispatch_tx_ns);
}

// Regression: an answer that arrives after its call's deadline is dropped
// at the caller's NIC, not polled by the caller's dispatch core. Polling such
// stale answers (and replays of retransmissions) fed a master's dispatch
// backlog until it never drained.
TEST(RpcTest, LateAnswerIsNotPolledByCallerDispatch) {
  Fixture f;
  RpcEndpoint* caller = f.Server(1);
  RpcEndpoint* server = f.Server(1);
  server->Register(Opcode::kRead, [server](RpcContext context) {
    server->sim()->After(2 * kMillisecond, [context = std::move(context)]() mutable {
      context.reply(std::make_unique<ReadResponse>());
    });
  });
  Status got = Status::kOk;
  f.rpc.Call(caller->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) { got = status; },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(got, Status::kServerDown);
  EXPECT_GE(f.rpc.retransmissions(), 1u);
  EXPECT_EQ(caller->cores()->total_dispatch_busy(), 0u);
}

// Regression: the dedup cache must stay bounded under sustained traffic.
// Completed entries expire through the completion fifo once past the
// retention horizon, so the cache holds at most one retention window's worth
// of calls regardless of how long the workload runs.
TEST(RpcTest, DedupCacheStaysBoundedUnderSustainedTraffic) {
  Fixture f;
  RpcEndpoint* server = f.Server(1);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kWrite, [](RpcContext context) {
    context.reply(std::make_unique<WriteResponse>());
  });
  // One write per millisecond across ten retention horizons.
  const Tick spacing = kMillisecond;
  const int calls = static_cast<int>(10 * f.costs.rpc_dedup_retention_ns / spacing);
  int completed = 0;
  for (int i = 0; i < calls; i++) {
    client->sim()->At(static_cast<Tick>(i) * spacing, [&] {
      f.rpc.Call(client->node(), server->node(), std::make_unique<WriteRequest>(),
                 [&](Status status, std::unique_ptr<RpcResponse>) {
                   EXPECT_EQ(status, Status::kOk);
                   completed++;
                 });
    });
  }
  f.lanes.Run();
  EXPECT_EQ(completed, calls);
  // At most one retention window of entries (plus the handful whose expiry
  // the final prune had not reached yet), not all `calls` of them.
  const size_t window = static_cast<size_t>(f.costs.rpc_dedup_retention_ns / spacing);
  EXPECT_LE(server->dedup_size(), window + 8);
  EXPECT_LT(server->dedup_size(), static_cast<size_t>(calls) / 2);
}

// Regression: an execution wiped by a crash leaves a dedup entry that never
// completes (no reply, so no completion-fifo record). The creation-time
// fifo must expire it after the retention horizon — without that, every
// crash leaks entries for the lifetime of the process.
TEST(RpcTest, DedupCacheExpiresCrashOrphanedEntries) {
  Fixture f;
  RpcEndpoint* server = f.Server(1);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  // The handler swallows the request: models work in flight when the server
  // dies (the reply never happens).
  server->Register(Opcode::kWrite, [](RpcContext) {});
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  f.rpc.Call(client->node(), server->node(), std::make_unique<WriteRequest>(),
             [](Status, std::unique_ptr<RpcResponse>) {}, /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(server->dedup_size(), 1u);  // Undone entry parked in the cache.
  // Crash-restart bumps the core epoch: the entry is now orphaned, not
  // in flight.
  server->cores()->Halt();
  server->cores()->Restart();
  // Well past the retention horizon, any delivery triggers the prune.
  client->sim()->After(2 * f.costs.rpc_dedup_retention_ns, [&] {
    f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
               [](Status status, std::unique_ptr<RpcResponse>) {
                 EXPECT_EQ(status, Status::kOk);
               });
  });
  f.lanes.Run();
  EXPECT_LE(server->dedup_size(), 1u);  // Orphan expired; only the fresh call remains.
}

}  // namespace
}  // namespace rocksteady
