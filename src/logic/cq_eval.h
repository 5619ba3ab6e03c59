// Slot-compiled, hash-indexed evaluation of safe conjunctive queries.
//
// The generic active-domain evaluator enumerates |domain|^k bindings; for
// the CQ-shaped formulas that dominate data exchange (rule bodies, OWA
// checks, guard conjunctions) a join over the atoms is exponentially
// cheaper. TryEvalCQ recognizes the safe-CQ shape — an exists-prefix over
// a conjunction of relational atoms, equalities, and *negated sub-CQ
// guards* (anti-joins, e.g. "& !exists r. A(x, r)") — and evaluates it; on
// any other shape it declines and the caller falls back to the generic
// evaluator, so using it is always sound.
//
// TryEvalCQ is a thin wrapper over the src/plan subsystem:
// plan::CompileQuery produces the immutable, schema-level CompiledQuery
// (slot frames, ordered atom steps, equality/guard schedules) and
// plan::BindQuery rebinds it per instance. When `ctx` carries a plan
// table (EngineContext::plans, plan/plan_table.h) the compile happens
// once per (formula, schema fingerprint, engine mode) — the member-
// enumeration loops call it thousands of times per query and pay for
// compilation exactly once. Without a table every call compiles.
//
// The reference it is checked against is the generic evaluator
// (logic/evaluator.h under JoinEngineMode::kGeneric), which applies the
// active-domain definition literally.

#ifndef OCDX_LOGIC_CQ_EVAL_H_
#define OCDX_LOGIC_CQ_EVAL_H_

#include <optional>
#include <string>
#include <vector>

#include "base/instance.h"
#include "logic/engine_context.h"
#include "logic/formula.h"
#include "util/status.h"

namespace ocdx {

/// Attempts to evaluate `f` over `inst` as a safe conjunctive query with
/// optional negated-CQ guards, using compiled, index-driven join plans.
/// Safety: every output variable and every equality/guard variable must
/// occur in some positive relational atom.
///
/// Returns the answer relation over `order`, or std::nullopt if the
/// formula does not have the supported shape (never an error for shape
/// reasons — the caller falls back). `ctx` supplies the optional plan
/// cache and stats sink; which engine runs is the caller's dispatch.
std::optional<Relation> TryEvalCQ(
    const FormulaPtr& f, const std::vector<std::string>& order,
    const Instance& inst, const EngineContext& ctx = EngineContext());

}  // namespace ocdx

#endif  // OCDX_LOGIC_CQ_EVAL_H_
