#include "logic/evaluator.h"

#include <algorithm>

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
  return Domain(ConstantsIn(f));
}

std::vector<Value> Evaluator::GenericDomain(const PreparedQuery& q) const {
  // A relational plan reaches the generic path only when binding fails
  // (an arity mismatch, rare); its constants were never collected.
  if (q.plan_->kind == plan::PlanKind::kGeneric) return Domain(q.constants_);
  return Domain(q.req_.formula);
}

std::vector<Value> Evaluator::Domain(
    const std::vector<Value>& constants) const {
  std::vector<Value> acc(constants.begin(), constants.end());
  for (const auto& [name, rel] : inst_.relations()) {
    for (TupleRef t : rel.tuples()) acc.insert(acc.end(), t.begin(), t.end());
  }
  acc.insert(acc.end(), extra_domain_.begin(), extra_domain_.end());
  std::sort(acc.begin(), acc.end());
  acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
  return acc;
}

plan::CompiledQueryPtr Evaluator::Compile(const plan::CompileRequest& req,
                                          bool cq_eligible) const {
  return plan::GetOrCompile(
      req, inst_,
      cq_eligible ? JoinEngineMode::kIndexed : JoinEngineMode::kGeneric, ctx_);
}

PreparedQuery Evaluator::PrepareHolds(const FormulaPtr& f,
                                      const Env& binding) {
  // CQ-shaped sentences under a full binding run as compiled boolean
  // joins with early exit (positive-CQ truth is independent of the
  // quantification domain, so extra domain values cannot change it), as
  // do universal sentences through their negated dual (plan/compile.h).
  PreparedQuery q;
  q.req_.formula = f;
  q.req_.boolean_mode = true;
  bool all_bound = true;
  for (const std::string& v : FreeVars(f)) {
    if (binding.find(v) == binding.end()) {
      all_bound = false;
      break;
    }
    q.req_.prebound.insert(v);
  }
  const bool cq_eligible = oracle_ == nullptr && ctx_.indexed() && all_bound;
  if (!cq_eligible) q.req_.prebound.clear();
  q.plan_ = Compile(q.req_, cq_eligible);
  if (q.plan_->kind == plan::PlanKind::kGeneric) q.constants_ = ConstantsIn(f);
  return q;
}

Result<PreparedQuery> Evaluator::PrepareAnswers(
    const FormulaPtr& f, const std::vector<std::string>& order) {
  for (const std::string& v : FreeVars(f)) {
    if (std::find(order.begin(), order.end(), v) == order.end()) {
      return Status::InvalidArgument(
          StrCat("free variable '", v, "' missing from output order"));
    }
  }
  // Safe conjunctive queries evaluate by index-driven joins instead of
  // domain^k enumeration (rule bodies are usually CQs). The context's
  // mode selects the compiled/indexed plan or no fast path at all (see
  // logic/engine_context.h).
  PreparedQuery q;
  q.req_.formula = f;
  q.req_.order = order;
  q.plan_ = Compile(q.req_, oracle_ == nullptr && ctx_.indexed());
  if (q.plan_->kind == plan::PlanKind::kGeneric) q.constants_ = ConstantsIn(f);
  return q;
}

Result<bool> Evaluator::Holds(const FormulaPtr& f, const Env& binding) {
  return Holds(PrepareHolds(f, binding), binding);
}

Result<Relation> Evaluator::Answers(const FormulaPtr& f,
                                    const std::vector<std::string>& order) {
  OCDX_ASSIGN_OR_RETURN(PreparedQuery q, PrepareAnswers(f, order));
  return Answers(q);
}

plan::BoundQuery Evaluator::Bind(const PreparedQuery& q) const {
  return plan::ResolveQuery(*q.plan_, inst_, &ctx_);
}

Result<bool> Evaluator::Holds(const PreparedQuery& q, const Env& binding) {
  plan::BoundQuery bound = Bind(q);
  return Holds(q, &bound, binding);
}

Result<Relation> Evaluator::Answers(const PreparedQuery& q) {
  plan::BoundQuery bound = Bind(q);
  Relation out(q.req_.order.size());
  OCDX_RETURN_IF_ERROR(Answers(q, &bound, &out));
  return out;
}

Result<bool> Evaluator::Holds(const PreparedQuery& q, plan::BoundQuery* bound,
                              const Env& binding) {
  OCDX_RETURN_IF_ERROR(fault::Probe("plan-bind"));
  plan::RefreshQuery(bound);
  if (q.plan_->kind == plan::PlanKind::kGeneric) {
    return HoldsGeneric(q, *bound, binding);
  }
  if (bound->arity_ok) {
    if (ctx_.stats != nullptr) ++ctx_.stats->cq_plans;
    return plan::RunRelational(*bound, &binding, /*out=*/nullptr);
  }
  plan::CompiledQueryPtr fallback = FreshGeneric(q.req_, inst_);
  return HoldsGeneric(q, plan::BindQuery(*fallback, inst_, &ctx_), binding);
}

Status Evaluator::Answers(const PreparedQuery& q, plan::BoundQuery* bound,
                          Relation* out) {
  OCDX_RETURN_IF_ERROR(fault::Probe("plan-bind"));
  plan::RefreshQuery(bound);
  out->Clear();
  if (q.plan_->kind == plan::PlanKind::kGeneric) {
    return AnswersGeneric(q, *bound, out);
  }
  if (bound->arity_ok) {
    if (ctx_.stats != nullptr) ++ctx_.stats->cq_plans;
    plan::RunRelational(*bound, /*binding=*/nullptr, out);
    return Status::OK();
  }
  plan::CompiledQueryPtr fallback = FreshGeneric(q.req_, inst_);
  return AnswersGeneric(q, plan::BindQuery(*fallback, inst_, &ctx_), out);
}

Result<bool> Evaluator::HoldsGeneric(const PreparedQuery& q,
                                     const plan::BoundQuery& bound,
                                     const Env& binding) {
  if (ctx_.stats != nullptr) ++ctx_.stats->generic_evals;
  std::vector<Value> domain = GenericDomain(q);
  const plan::GenericPlan& gp = *bound.query->generic;
  plan::GenericRunner runner(bound, oracle_);
  BudgetGauge gauge(ctx_.budget, ctx_.stats);
  runner.set_gauge(&gauge);
  for (const auto& [name, value] : binding) {
    auto it = gp.slots.find(name);
    if (it != gp.slots.end()) runner.frame()[it->second] = value;
  }
  return runner.Run(domain);
}

Status Evaluator::AnswersGeneric(const PreparedQuery& q,
                                 const plan::BoundQuery& bound,
                                 Relation* out) {
  if (ctx_.stats != nullptr) ++ctx_.stats->generic_evals;
  std::vector<Value> domain = GenericDomain(q);
  size_t k = q.req_.order.size();
  // With no output column the odometer below makes one pass, the
  // sentence's truth, even over an empty domain: {()} or {}.
  if (k > 0 && domain.empty()) return Status::OK();

  const plan::GenericPlan& gp = *bound.query->generic;
  plan::GenericRunner runner(bound, oracle_);
  BudgetGauge gauge(ctx_.budget, ctx_.stats);
  runner.set_gauge(&gauge);
  std::vector<Value>& frame = runner.frame();

  out->Reserve(16);
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
    if (v) out->Add(t);
    bool done = true;
    for (size_t p = k; p-- > 0;) {
      if (++idx[p] < domain.size()) {
        done = false;
        break;
      }
      idx[p] = 0;
    }
    if (done) break;
  }
  return Status::OK();
}

Result<bool> EvalSentence(const FormulaPtr& f, const Instance& inst,
                          const Universe& universe,
                          const EngineContext& ctx) {
  Evaluator ev(inst, universe, ctx);
  return ev.Holds(f);
}

}  // namespace ocdx
