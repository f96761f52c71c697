// Shard-safety and RPC-semantics annotations, consumed by tools/analyze.py.
//
// ROADMAP item 1 partitions the engine into per-shard event lanes that later
// run on real threads. Before that refactor lands, every piece of mutable
// state with static storage duration — the state that would silently become
// cross-thread shared state — must be classified, and every RPC handler must
// state why a late duplicate execution (the at-least-once loophole: the
// per-call_id dedup cache expires after the retention horizon) is safe.
//
// The macros expand to nothing; the analyzer matches their spelling in the
// token stream.
//
//   ROCKSTEADY_SHARD_LOCAL
//     This variable is (or will be, trivially) per-shard: either it is
//     confined to one shard's lane by construction, or duplicating it per
//     shard is correct. The sharding refactor may replicate it freely.
//
//   ROCKSTEADY_SHARED_GUARDED("why")
//     This variable is genuinely cross-shard. The string must say what
//     guards it today and what the sharded engine must do about it. Every
//     such site is listed in build/shard_state.json — that file is the
//     work-list for ROADMAP item 1.
//
//   ROCKSTEADY_IDEMPOTENT("why")
//     Placed on an RPC handler registration (before the handler argument).
//     Asserts that re-executing the handler for an already-applied call_id —
//     after its dedup entry expired — cannot corrupt state or lose an acked
//     write. The string records the reviewed argument (pure read, versioned
//     write, re-drivable state machine, ...).
//
// Usage:
//   ROCKSTEADY_SHARED_GUARDED("set once at startup") LogLevel g_level = ...;
//   endpoint_->Register(Opcode::kRead,
//                       ROCKSTEADY_IDEMPOTENT("pure read")
//                       [this](RpcContext c) { HandleRead(std::move(c)); });
#ifndef ROCKSTEADY_SRC_COMMON_ANNOTATIONS_H_
#define ROCKSTEADY_SRC_COMMON_ANNOTATIONS_H_

#define ROCKSTEADY_SHARD_LOCAL
#define ROCKSTEADY_SHARED_GUARDED(why)
// Decorates an expression position (the handler argument of
// RpcEndpoint::Register); the analyzer matches the spelling in the
// registration statement's token stream.
#define ROCKSTEADY_IDEMPOTENT(why)

#endif  // ROCKSTEADY_SRC_COMMON_ANNOTATIONS_H_
