// Compiling formulas into CompiledQuery plans (see compiled_query.h).
//
// CompileQuery is the single compilation entry point for both engine
// modes. Under kIndexed it recognizes the safe-CQ(+guards) shape where
// one exists and emits a relational join plan; otherwise (and always
// under kGeneric) it emits the generic active-domain skeleton.
//
// Boolean mode also plans universal sentences: `forall x-bar. phi ->
// psi` (all free variables prebound) compiles to the relational plan of
// its existential dual `exists x-bar. phi & !psi` with
// RelationalPlan::negate set, so keys, functional dependencies and
// inclusion constraints — the coNP checks of Thm 3.1 / Prop 5 — run as
// anti-joins. The dual passes the same safety check as any CQ, so
// domain-dependent shapes (`forall x. A(x)`, a consequent variable the
// antecedent does not bind) stay generic. The plan is keyed under the
// formula as written; GuardDepthExceeded and guard_depth_fallback are
// decided on that formula too, never on the dual.
// Compilation consults the given instance only for *heuristics* (the
// join order, from row and per-position distinct-value counts) and for
// the compile-time arity sanity check; the emitted plan references
// relations by name and is executable — via plan::BindQuery — against
// any instance whose relation arities match (see the invariants on
// compiled_query.h).

#ifndef OCDX_PLAN_COMPILE_H_
#define OCDX_PLAN_COMPILE_H_

#include <set>
#include <string>
#include <vector>

#include "base/instance.h"
#include "plan/compiled_query.h"

namespace ocdx {
namespace plan {

/// What to compile. Exactly one of the two calling conventions applies:
/// answers mode (`boolean_mode` false, `order` names the output columns)
/// or boolean mode (`boolean_mode` true, `prebound` names the externally
/// bound free variables; `order` is ignored).
struct CompileRequest {
  FormulaPtr formula;
  std::vector<std::string> order;
  bool boolean_mode = false;
  std::set<std::string> prebound;
};

/// Compiles `req` for `engine`. `inst` seeds the join-order heuristic
/// and the compile-time arity check; `schema_key` is recorded on the
/// plan for cache keying. kGeneric skips CQ recognition entirely (callers
/// also pass it when a function oracle is active, matching the historical
/// dispatch). Never fails: unsupported shapes compile to the generic
/// skeleton (PlanKind::kGeneric).
CompiledQueryPtr CompileQuery(const CompileRequest& req, const Instance& inst,
                              JoinEngineMode engine, uint64_t schema_key);

/// A fingerprint of the instance's relational shape: the sorted
/// (name, arity) pairs. Two instances with equal fingerprints can share
/// a compiled plan; the fingerprint deliberately ignores contents, so
/// the enumeration engines' thousands of same-shape members all hit one
/// cache entry. Never returns 0 (0 is the schema-independent key used
/// for generic-only compiles).
uint64_t SchemaFingerprint(const Instance& inst);

/// True iff CQ recognition of `f` fails *because* a negated guard body
/// itself contains a negation (guards are one level deep). Such
/// formulas silently fall back to the generic evaluator; the .dx driver
/// uses this static check to surface a positioned note, and compilation
/// counts the fallback in EngineStats::guard_depth_fallbacks.
bool GuardDepthExceeded(const FormulaPtr& f);

}  // namespace plan
}  // namespace ocdx

#endif  // OCDX_PLAN_COMPILE_H_
