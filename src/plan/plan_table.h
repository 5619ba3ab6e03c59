// PlanTable: the one compiled-plan table of an evaluation scope.
//
// Enumeration workloads evaluate one query over thousands of member
// instances, so a plan is compiled once per (formula, schema fingerprint,
// engine mode, boolean/answers convention, order/prebound) key and
// rebound per instance. A PlanTable holds those plans for one scope:
//
//   - each FrozenScenario (exec/frozen_scenario.h) owns one, which
//     RunFrozenCommand attaches to every run on it: every run of a
//     snapshot bundle — `ocdx snapshot run`, or an `ocdxd --preload`
//     bundle for the server's lifetime — shares the bundle's;
//   - each cold `ocdx` run, `ocdxd` request and `ocdx batch` file gets a
//     fresh table (EngineContext::EnsureCache in RunDxCommand), so a file
//     listed twice in a batch is two runs with two tables;
//   - a member-enumeration fan-out (certain/member_enum.cc) hands every
//     shard the caller's table, so shards share compile-once plans with
//     each other and with the job's sequential evaluations.
//
// The key is identity-based: a lookup matches only the *same* shared AST
// node (shared_ptr owner identity), which is exact because every entry's
// CompiledQuery retains its formula. Callers that mint throwaway formulas
// per call should hoist them (see StdRequirements in semantics/
// solutions.h) so identities stay stable.
//
// The table is append-only:
//
//   - *Probe* is lock-free: published entries are scanned through a
//     release/acquire-published count, so the member-enumeration hot path
//     never takes the mutex after first compile.
//   - *Compile* is mutex-serialized with a double-checked re-probe, so a
//     key is compiled exactly once per table lifetime however many shards
//     race to first use.
//   - Nothing is evicted. The capacity bounds the table; past it a
//     compile is returned without being published (correct, just not
//     shared). A zero-capacity table publishes nothing, so every call
//     compiles — the cache-off leg of the parity tests.
//
// plan::GetOrCompile is the only way in.
//
// \invariant One table per scope. A table is attached to the context of
//   the scope that owns it (frozen scenario, cold run) and reaches
//   everything that scope evaluates by context copy; nothing creates a
//   second table inside a scope that already has one, and a batch
//   template context's table never reaches a job (the batch runner drops
//   it, and RunFrozenCommand replaces a caller's with the scenario's).
// \invariant Published entries are immutable. A published CompiledQuery
//   is immutable (see compiled_query.h) and its slot is written exactly
//   once, before the count release-store that makes it visible, so
//   concurrent probes are data-race-free and a hit is safe to execute on
//   any thread.
// \invariant Shared ownership keeps the table alive: EngineContext holds
//   it by shared_ptr, so the table outlives every context — and every
//   shard context of a fan-out — that can probe it.

#ifndef OCDX_PLAN_PLAN_TABLE_H_
#define OCDX_PLAN_PLAN_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "base/instance.h"
#include "logic/engine_context.h"
#include "plan/compile.h"
#include "plan/compiled_query.h"

namespace ocdx {
namespace plan {

class PlanTable {
 public:
  /// Default capacity: far above any real workload's distinct-query
  /// count (the corpus peaks at about a dozen per job), small enough that
  /// the linear probe stays cheap.
  static constexpr size_t kDefaultCapacity = 1024;

  explicit PlanTable(size_t capacity = kDefaultCapacity);
  PlanTable(const PlanTable&) = delete;
  PlanTable& operator=(const PlanTable&) = delete;

  /// Published entries (acquire; safe from any thread).
  size_t size() const { return count_.load(std::memory_order_acquire); }

 private:
  friend CompiledQueryPtr GetOrCompile(const CompileRequest& req,
                                       const Instance& inst,
                                       JoinEngineMode engine,
                                       const EngineContext& ctx);

  /// Lock-free scan of the published prefix; nullptr on miss.
  const CompiledQueryPtr* Probe(const CompileRequest& req,
                                uint64_t schema_key,
                                JoinEngineMode engine) const;

  /// Appends if capacity allows. Callers hold mutex_.
  void PublishLocked(CompiledQueryPtr compiled);

  const size_t capacity_;
  std::mutex mutex_;
  /// slots_[i] is written once (under mutex_) before the count_
  /// release-store that publishes index i, and never written again.
  std::unique_ptr<CompiledQueryPtr[]> slots_;
  std::atomic<size_t> count_{0};
};

/// The one compilation funnel. With a table attached (ctx.plans) it
/// probes the table lock-free and, on a miss, compiles under the table's
/// mutex and publishes. Without one every call compiles. Maintains the
/// EngineStats counters: plan_cache_hits (probes the table answered),
/// plan_cache_misses (compiles done through a table), plan_compiles and
/// guard_depth_fallbacks (every compile). The schema key is
/// SchemaFingerprint(inst) for kIndexed, or 0 for kGeneric (the generic
/// skeleton is schema-independent, so it is shared across schemas).
CompiledQueryPtr GetOrCompile(const CompileRequest& req, const Instance& inst,
                              JoinEngineMode engine, const EngineContext& ctx);

}  // namespace plan
}  // namespace ocdx

#endif  // OCDX_PLAN_PLAN_TABLE_H_
