#include "logic/cq_eval.h"

#include "plan/plan_table.h"
#include "plan/runner.h"

namespace ocdx {

std::optional<Relation> TryEvalCQ(const FormulaPtr& f,
                                  const std::vector<std::string>& order,
                                  const Instance& inst,
                                  const EngineContext& ctx) {
  plan::CompileRequest req;
  req.formula = f;
  req.order = order;
  plan::CompiledQueryPtr cq =
      plan::GetOrCompile(req, inst, JoinEngineMode::kIndexed, ctx);
  if (cq->kind != plan::PlanKind::kRelational) return std::nullopt;
  plan::BoundQuery bound = plan::BindQuery(*cq, inst, &ctx);
  if (!bound.arity_ok) return std::nullopt;  // Generic reports the error.
  if (ctx.stats != nullptr) ++ctx.stats->cq_plans;
  Relation out(order.size());
  plan::RunRelational(bound, /*binding=*/nullptr, &out);
  return out;
}

}  // namespace ocdx
