// EngineContext: per-job evaluation configuration, threaded explicitly.
//
// Every evaluation path (cq_eval, evaluator, chase, certain, semantics,
// compose, the .dx driver) takes an EngineContext instead of consulting
// process-wide state. A context bundles
//
//   - the join-engine mode (indexed, or the generic active-domain
//     oracle),
//   - default step budgets for the NP search engines (homomorphism and
//     RepA backtracking), applied as a *cap* on per-call options,
//   - an optional per-job statistics sink, and
//   - an optional *plan table* (src/plan/plan_table.h): compiled query
//     plans keyed by (formula identity, schema fingerprint, engine mode),
//     so enumeration workloads — which evaluate one query over thousands
//     of member instances — compile each query exactly once and rebind
//     the immutable plan per instance.
//
// Contexts are small values: copy them freely, one per job. Copies of a
// context *share* its plan table (that is the point: every evaluation a
// job performs, on any of its shard threads, sees the same table). The
// batch executor (src/exec) gives every job its own context, its own
// table and its own Universe. The plan table is the one engine structure
// built for concurrent use; everything else simply never shares mutable
// state across threads (see README.md "Concurrency model").

#ifndef OCDX_LOGIC_ENGINE_CONTEXT_H_
#define OCDX_LOGIC_ENGINE_CONTEXT_H_

#include <cstdint>
#include <memory>

#include "logic/budget.h"
#include "logic/engine_config.h"

namespace ocdx {

namespace plan {
class PlanTable;
}  // namespace plan

namespace obs {
class TraceSink;
}  // namespace obs

/// Per-job evaluation counters and phase timers. Plain (unsynchronized)
/// integers: a sink must be owned by exactly one job, like everything
/// else a job touches. Every field is a uint64_t generated from the one
/// field list in logic/engine_stats.def, which also generates operator+=
/// and the src/obs/report.cc rendering table.
struct EngineStats {
#define OCDX_ENGINE_STAT(name, is_ns) uint64_t name = 0;
#include "logic/engine_stats.def"
#undef OCDX_ENGINE_STAT

  EngineStats& operator+=(const EngineStats& o) {
#define OCDX_ENGINE_STAT(name, is_ns) name += o.name;
#include "logic/engine_stats.def"
#undef OCDX_ENGINE_STAT
    return *this;
  }
};

/// All engine configuration for one job. Value type; default-constructed
/// means "indexed engine, paper-default budgets, no stats, no plan table"
/// (plans are then compiled per call).
struct EngineContext {
  /// The paper-default NP-search budget (matches the historical
  /// HomOptions / RepAOptions defaults). Kept as an alias of the Budget
  /// constant for existing callers.
  static constexpr uint64_t kDefaultSearchSteps = Budget::kDefaultSearchSteps;

  JoinEngineMode mode = JoinEngineMode::kIndexed;
  /// Resource limits for everything this context evaluates: NP-search
  /// step caps, chase trigger/null caps, member-enumeration caps, the
  /// wall-clock deadline and the cooperative cancellation flag (see
  /// logic/budget.h). Copied with the context like everything else.
  Budget budget;
  /// Optional per-job counters; must not be shared across jobs.
  EngineStats* stats = nullptr;
  /// Optional per-job trace sink (src/obs/trace.h) fed by the same
  /// obs::ScopedSpan instrumentation that accumulates the `*_ns` timers.
  /// Same ownership contract as `stats`: one sink per job, never shared
  /// across threads — shard fan-out (certain/member_enum.cc) gives each
  /// worker shard its own sink and absorbs them in shard order.
  obs::TraceSink* trace = nullptr;
  /// Optional compiled-plan table (src/plan/plan_table.h), owned by
  /// whoever owns the scope: a frozen scenario (a batch file's, shared by
  /// its jobs, or a snapshot bundle's) or a cold `ocdx`/`ocdxd` request.
  /// Thread-safe and shared by every copy of this context, including the
  /// shard contexts of a member-enumeration fan-out.
  std::shared_ptr<plan::PlanTable> plans;
  /// Intra-job fan-out width for the exponential member-enumeration loops
  /// (certain/member_enum.h): >1 shards each ForEachMember run across a
  /// scoped worker pool, one copy-on-write Universe overlay per shard
  /// over the read-shared caller universe (no cloning) plus the caller's
  /// plan table, with deterministic shard-ordered merge —
  /// canonical output is byte-identical for every value. 1 (the default,
  /// and any 0) keeps the sequential path. Shard workers run with
  /// shards = 1, so fan-out never nests.
  size_t shards = 1;

  bool indexed() const { return mode == JoinEngineMode::kIndexed; }

  static EngineContext ForMode(JoinEngineMode m) {
    EngineContext ctx;
    ctx.mode = m;
    return ctx;
  }

  /// Attaches a fresh plan table if none is present. Returns *this.
  /// Engine entry points that evaluate one query over many instances
  /// call this on their private context copy, so callers get compile-
  /// once behavior without opting in.
  EngineContext& EnsureCache();
};

}  // namespace ocdx

#endif  // OCDX_LOGIC_ENGINE_CONTEXT_H_
