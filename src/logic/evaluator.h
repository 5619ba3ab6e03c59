// Active-domain FO evaluation with the naive interpretation of nulls.
//
// Following the paper (and finite model theory generally), a formula is
// evaluated over the structure whose universe is the instance's active
// domain plus the constants mentioned in the formula (plus any
// caller-supplied extras — Lemma 2 and Proposition 5 need evaluation over
// D_I u C_phi). Nulls are treated as ordinary atomic values: two nulls are
// equal iff they are the same null. This is the "naive evaluation"
// building block; certain-answer semantics are layered on top in
// src/certain.

#ifndef OCDX_LOGIC_EVALUATOR_H_
#define OCDX_LOGIC_EVALUATOR_H_

#include <map>
#include <string>
#include <vector>

#include "base/instance.h"
#include "logic/engine_context.h"
#include "logic/formula.h"
#include "logic/function_oracle.h"
#include "plan/compile.h"
#include "plan/runner.h"
#include "util/status.h"

namespace ocdx {

/// Variable binding environment (API boundary only: callers hand Holds a
/// named binding, which is compiled onto dense slots before evaluation —
/// the evaluation loop itself never touches variable names).
using Env = std::map<std::string, Value>;

/// A query prepared for evaluation over many instances of one schema —
/// the member-enumeration loops evaluate one query over thousands of
/// members. Preparing does the per-query work once: the free-variable
/// and prebound analysis, the compile request, the plan-table lookup
/// and, for a generic plan, the formula's constants. Each
/// Evaluator::Holds / Answers on a prepared query then costs one
/// BindQuery and one run; with a binding from Evaluator::Bind kept by
/// the caller, one refresh (plan::RefreshQuery) and one run. The formula
/// overloads of Holds / Answers prepare and run in one call, so there is
/// one evaluation path.
///
/// Run a prepared query only through evaluators with the context and
/// function oracle it was prepared under. A boolean one must be run
/// under bindings that bind exactly the names it was prepared with; an
/// instance of another schema is still evaluated correctly (plans
/// reference relations by name), just with a plan tuned for the first.
class PreparedQuery {
 private:
  friend class Evaluator;
  plan::CompileRequest req_;
  plan::CompiledQueryPtr plan_;
  /// ConstantsIn(formula), sorted; collected for generic plans only.
  std::vector<Value> constants_;
};

/// Evaluates FO formulas over one instance.
class Evaluator {
 public:
  /// `inst` and `universe` must outlive the evaluator. `ctx` selects the
  /// CQ fast path (kIndexed) or none (kGeneric, the active-domain
  /// definition applied literally) and receives stats; it is copied, so
  /// a temporary is fine.
  Evaluator(const Instance& inst, const Universe& universe,
            const EngineContext& ctx = EngineContext())
      : inst_(inst), universe_(universe), ctx_(ctx) {}

  /// Adds values to the quantification domain (beyond the active domain
  /// and the formula's constants).
  void AddDomainValues(const std::vector<Value>& values) {
    extra_domain_.insert(extra_domain_.end(), values.begin(), values.end());
  }

  /// Supplies interpretations for function terms (optional; evaluation of
  /// a function term without an oracle is an error).
  void set_function_oracle(FunctionOracle* oracle) { oracle_ = oracle; }

  /// Truth of a sentence (or of a formula under a partial binding of its
  /// free variables; unbound free variables are an error).
  Result<bool> Holds(const FormulaPtr& f, const Env& binding = {});

  /// All satisfying assignments of `f`'s free variables, in the order
  /// `free_order` (which must cover FreeVars(f)). Free variables range
  /// over the evaluation domain. An empty order asks for a sentence's
  /// truth as a 0-arity relation: {()} when it holds, {} otherwise, under
  /// every engine.
  Result<Relation> Answers(const FormulaPtr& f,
                           const std::vector<std::string>& free_order);

  /// Prepares `f` for Holds under bindings with the keys of `binding`.
  PreparedQuery PrepareHolds(const FormulaPtr& f, const Env& binding = {});

  /// Prepares `f` for Answers in `free_order`; InvalidArgument when the
  /// order misses a free variable.
  Result<PreparedQuery> PrepareAnswers(
      const FormulaPtr& f, const std::vector<std::string>& free_order);

  /// Holds / Answers of a prepared query over this evaluator's instance.
  Result<bool> Holds(const PreparedQuery& q, const Env& binding = {});
  Result<Relation> Answers(const PreparedQuery& q);

  /// Resolves `q` against this evaluator's instance object, for callers
  /// that run it many times while the instance's contents change (the
  /// member loops' image). The result serves only `q` and this
  /// evaluator, and both must outlive it.
  plan::BoundQuery Bind(const PreparedQuery& q) const;

  /// Holds / Answers through a binding from Bind: refreshes it against
  /// the instance's current contents and runs, with no name lookup.
  /// Answers replaces `out`'s rows (arity: the query's output order).
  Result<bool> Holds(const PreparedQuery& q, plan::BoundQuery* bound,
                     const Env& binding);
  Status Answers(const PreparedQuery& q, plan::BoundQuery* bound,
                 Relation* out);

  /// The evaluation domain for `f`: active domain + constants of f +
  /// extras, deduplicated and sorted.
  std::vector<Value> Domain(const FormulaPtr& f) const;

 private:
  std::vector<Value> Domain(const std::vector<Value>& constants) const;
  std::vector<Value> GenericDomain(const PreparedQuery& q) const;
  Result<bool> HoldsGeneric(const PreparedQuery& q,
                            const plan::BoundQuery& bound,
                            const Env& binding);
  Status AnswersGeneric(const PreparedQuery& q, const plan::BoundQuery& bound,
                        Relation* out);
  plan::CompiledQueryPtr Compile(const plan::CompileRequest& req,
                                 bool cq_eligible) const;

  const Instance& inst_;
  const Universe& universe_;
  EngineContext ctx_;
  std::vector<Value> extra_domain_;
  FunctionOracle* oracle_ = nullptr;
};

/// Convenience: evaluates a sentence over an instance.
Result<bool> EvalSentence(const FormulaPtr& f, const Instance& inst,
                          const Universe& universe,
                          const EngineContext& ctx = EngineContext());

}  // namespace ocdx

#endif  // OCDX_LOGIC_EVALUATOR_H_
