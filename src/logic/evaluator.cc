#include "logic/evaluator.h"

#include <algorithm>
#include <optional>
#include <set>

#include "logic/budget.h"
#include "plan/plan_table.h"
#include "plan/runner.h"
#include "util/fault.h"
#include "util/str.h"

namespace ocdx {

// The evaluator is a dispatcher over the src/plan subsystem: it obtains
// a CompiledQuery for (formula, schema, engine mode) — through the
// context's plan table when one is attached, else by compiling privately
// — binds it to this instance, and runs the matching plan form.

namespace {

// A fresh, uncached generic compile for the bind-failure path: the plan
// in hand is relational but this instance's relation arities do
// not match, so the generic evaluator must run to report its historical
// InvalidArgument. Rare, and never worth a cache slot.
plan::CompiledQueryPtr FreshGeneric(const plan::CompileRequest& req,
                                    const Instance& inst) {
  return plan::CompileQuery(req, inst, JoinEngineMode::kGeneric,
                            /*schema_key=*/0);
}

}  // namespace

std::vector<Value> Evaluator::Domain(const FormulaPtr& f) const {
  std::set<Value> acc;
  for (Value v : inst_.ActiveDomain()) acc.insert(v);
  for (Value v : ConstantsIn(f)) acc.insert(v);
  for (Value v : extra_domain_) acc.insert(v);
  return std::vector<Value>(acc.begin(), acc.end());
}

Result<bool> Evaluator::Holds(const FormulaPtr& f, const Env& binding) {
  // Fast path: CQ-shaped sentences under a full binding run as compiled
  // boolean joins with early exit (positive-CQ truth is independent of the
  // quantification domain, so extra domain values cannot change it).
  plan::CompileRequest req;
  req.formula = f;
  req.boolean_mode = true;
  bool all_bound = true;
  for (const std::string& v : FreeVars(f)) {
    if (binding.find(v) == binding.end()) {
      all_bound = false;
      break;
    }
    req.prebound.insert(v);
  }
  const bool cq_eligible = oracle_ == nullptr && ctx_.indexed() && all_bound;
  if (!cq_eligible) req.prebound.clear();

  OCDX_RETURN_IF_ERROR(fault::Probe("plan-bind"));
  plan::CompiledQueryPtr cq = plan::GetOrCompile(
      req, inst_,
      cq_eligible ? JoinEngineMode::kIndexed : JoinEngineMode::kGeneric, ctx_);
  if (cq->kind == plan::PlanKind::kRelational) {
    plan::BoundQuery bound = plan::BindQuery(*cq, inst_, &ctx_);
    if (bound.arity_ok) {
      if (ctx_.stats != nullptr) ++ctx_.stats->cq_plans;
      if (bound.trivially_empty) return false;
      return plan::RunRelational(bound, &binding, /*out=*/nullptr);
    }
    cq = FreshGeneric(req, inst_);
  }

  if (ctx_.stats != nullptr) ++ctx_.stats->generic_evals;
  std::vector<Value> domain = Domain(f);
  const plan::GenericPlan& gp = *cq->generic;
  plan::BoundQuery bound = plan::BindQuery(*cq, inst_, &ctx_);
  plan::GenericRunner runner(bound, oracle_);
  BudgetGauge gauge(ctx_.budget, ctx_.stats);
  runner.set_gauge(&gauge);
  for (const auto& [name, value] : binding) {
    auto it = gp.slots.find(name);
    if (it != gp.slots.end()) runner.frame()[it->second] = value;
  }
  return runner.Run(domain);
}

Result<Relation> Evaluator::Answers(const FormulaPtr& f,
                                    const std::vector<std::string>& order) {
  // Check the order covers the free variables.
  std::vector<std::string> free = FreeVars(f);
  for (const std::string& v : free) {
    if (std::find(order.begin(), order.end(), v) == order.end()) {
      return Status::InvalidArgument(
          StrCat("free variable '", v, "' missing from output order"));
    }
  }
  // Fast path: safe conjunctive queries evaluate by index-driven joins
  // instead of domain^k enumeration (rule bodies are usually CQs). The
  // context's mode selects the compiled/indexed plan or no fast path at
  // all (see logic/engine_context.h).
  plan::CompileRequest req;
  req.formula = f;
  req.order = order;
  const bool cq_eligible = oracle_ == nullptr && ctx_.indexed();
  OCDX_RETURN_IF_ERROR(fault::Probe("plan-bind"));
  plan::CompiledQueryPtr cq = plan::GetOrCompile(
      req, inst_,
      cq_eligible ? JoinEngineMode::kIndexed : JoinEngineMode::kGeneric, ctx_);
  if (cq->kind == plan::PlanKind::kRelational) {
    plan::BoundQuery bound = plan::BindQuery(*cq, inst_, &ctx_);
    if (bound.arity_ok) {
      if (ctx_.stats != nullptr) ++ctx_.stats->cq_plans;
      Relation out(order.size());
      if (!bound.trivially_empty) {
        plan::RunRelational(bound, /*binding=*/nullptr, &out);
      }
      return out;
    }
    cq = FreshGeneric(req, inst_);
  }

  if (ctx_.stats != nullptr) ++ctx_.stats->generic_evals;
  std::vector<Value> domain = Domain(f);
  Relation out(order.size());
  size_t k = order.size();
  if (k == 0) {
    return Status::InvalidArgument(
        "Answers() needs at least one output variable; use Holds() for "
        "sentences");
  }
  if (domain.empty()) return out;

  const plan::GenericPlan& gp = *cq->generic;
  plan::BoundQuery bound = plan::BindQuery(*cq, inst_, &ctx_);
  plan::GenericRunner runner(bound, oracle_);
  BudgetGauge gauge(ctx_.budget, ctx_.stats);
  runner.set_gauge(&gauge);
  std::vector<Value>& frame = runner.frame();

  out.Reserve(16);
  std::vector<size_t> idx(k, 0);
  Tuple t(k);
  while (true) {
    // The outer domain^k odometer is governed alongside the runner's
    // inner quantifier loops (same gauge, shared tick counter).
    OCDX_RETURN_IF_ERROR(gauge.Tick());
    for (size_t i = 0; i < k; ++i) {
      frame[gp.out_slots[i]] = domain[idx[i]];
      t[i] = domain[idx[i]];
    }
    OCDX_ASSIGN_OR_RETURN(bool v, runner.Run(domain));
    if (v) out.Add(t);
    size_t p = k;
    bool done = false;
    while (p > 0) {
      --p;
      if (++idx[p] < domain.size()) break;
      idx[p] = 0;
      if (p == 0) done = true;
    }
    if (done) break;
  }
  return out;
}

Result<bool> EvalSentence(const FormulaPtr& f, const Instance& inst,
                          const Universe& universe,
                          const EngineContext& ctx) {
  Evaluator ev(inst, universe, ctx);
  return ev.Holds(f);
}

}  // namespace ocdx
