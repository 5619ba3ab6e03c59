#include "plan/plan_table.h"

#include <algorithm>

#include "obs/trace.h"

namespace ocdx {
namespace plan {

namespace {

// Same owner <=> neither owner_before the other (shared_ptr identity).
// Both sides are live here — the lookup key by definition, the entry's
// formula because its CompiledQuery retains it — so this is exact: a
// recycled address can never alias a dead formula.
bool SameFormula(const FormulaPtr& a, const FormulaPtr& b) {
  return !a.owner_before(b) && !b.owner_before(a);
}

// True iff `q` was compiled for exactly this lookup key: same formula,
// schema fingerprint, engine mode and boolean/answers convention, plus the
// mode-specific tail (prebound name set in boolean mode, output order in
// answers mode).
bool PlanKeyMatches(const CompiledQuery& q, const CompileRequest& req,
                    uint64_t schema_key, JoinEngineMode engine) {
  // q.prebound is sorted (it came from a std::set), so set equality is a
  // size check plus an in-order scan.
  auto prebound_eq = [&req](const std::vector<std::string>& have) {
    return have.size() == req.prebound.size() &&
           std::equal(have.begin(), have.end(), req.prebound.begin());
  };
  return SameFormula(q.source, req.formula) && q.schema_key == schema_key &&
         q.engine == engine && q.boolean_mode == req.boolean_mode &&
         (req.boolean_mode ? prebound_eq(q.prebound) : q.order == req.order);
}

}  // namespace

PlanTable::PlanTable(size_t capacity)
    : capacity_(capacity),
      slots_(std::make_unique<CompiledQueryPtr[]>(capacity)) {}

const CompiledQueryPtr* PlanTable::Probe(const CompileRequest& req,
                                         uint64_t schema_key,
                                         JoinEngineMode engine) const {
  // The acquire load synchronizes with the publisher's release store, so
  // every slot below `n` — written before that store, under the mutex —
  // is visible and final. Copying a published CompiledQueryPtr only
  // increments an atomic refcount, which is safe from any thread.
  size_t n = count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    if (PlanKeyMatches(*slots_[i], req, schema_key, engine)) return &slots_[i];
  }
  return nullptr;
}

void PlanTable::PublishLocked(CompiledQueryPtr compiled) {
  size_t n = count_.load(std::memory_order_relaxed);
  if (n >= capacity_) return;  // Full: the caller still got its plan.
  slots_[n] = std::move(compiled);
  count_.store(n + 1, std::memory_order_release);
}

CompiledQueryPtr GetOrCompile(const CompileRequest& req, const Instance& inst,
                              JoinEngineMode engine, const EngineContext& ctx) {
  const uint64_t schema_key =
      engine == JoinEngineMode::kGeneric ? 0 : SchemaFingerprint(inst);
  auto compile = [&] {
    CompiledQueryPtr fresh;
    {
      obs::ScopedSpan span(ctx, obs::kPhasePlanCompile);
      fresh = CompileQuery(req, inst, engine, schema_key);
    }
    if (ctx.stats != nullptr) {
      ++ctx.stats->plan_compiles;
      if (fresh->guard_depth_fallback) ++ctx.stats->guard_depth_fallbacks;
    }
    return fresh;
  };

  PlanTable* table = ctx.plans.get();
  if (table == nullptr) return compile();
  if (const CompiledQueryPtr* hit = table->Probe(req, schema_key, engine)) {
    if (ctx.stats != nullptr) ++ctx.stats->plan_cache_hits;
    return *hit;
  }
  std::lock_guard<std::mutex> lock(table->mutex_);
  // Double-check: another shard may have published while we waited.
  if (const CompiledQueryPtr* hit = table->Probe(req, schema_key, engine)) {
    if (ctx.stats != nullptr) ++ctx.stats->plan_cache_hits;
    return *hit;
  }
  CompiledQueryPtr fresh = compile();
  if (ctx.stats != nullptr) ++ctx.stats->plan_cache_misses;
  table->PublishLocked(fresh);
  return fresh;
}

}  // namespace plan
}  // namespace ocdx
