// Binding and executing CompiledQuery plans (see compiled_query.h).
//
// Binding is the per-instance half of the compile-once split, in two
// steps. ResolveQuery looks the plan's relation names up in one Instance
// (a map lookup per name). RefreshQuery then re-checks arities and
// precomputes the content-dependent facts a schema-level plan cannot
// carry (trivially-empty main atoms, guards over missing/empty
// relations); it touches no name and allocates nothing once warm.
// BindQuery does both. The member-enumeration loops resolve once per
// shard image (the same Instance object for every member, with the same
// relations) and refresh per member.
//
// \invariant Runners never mutate the CompiledQuery. All scratch (the
//   dense binding frame, probe keys, per-node quantifier state) is owned
//   by the runner or by the BoundQuery it runs, so a plan can be executed
//   concurrently from any number of jobs, each with its own BoundQuery.
// \invariant A BoundQuery borrows its CompiledQuery and its Instance's
//   relations; it must not outlive either, and it serves one Instance
//   object: relation pointers stay valid while that Instance adds no
//   relation, whatever its relations' contents do. Refresh it after the
//   contents change and before the next run.

#ifndef OCDX_PLAN_RUNNER_H_
#define OCDX_PLAN_RUNNER_H_

#include <map>
#include <string>
#include <vector>

#include "base/instance.h"
#include "logic/budget.h"
#include "logic/function_oracle.h"
#include "plan/compiled_query.h"
#include "util/status.h"

namespace ocdx {

struct EngineContext;

namespace plan {

/// A compiled plan resolved against one concrete instance.
struct BoundQuery {
  const CompiledQuery* query = nullptr;
  /// Resolved relation pointers, aligned with query->relations; nullptr
  /// where the instance lacks the relation.
  std::vector<const Relation*> rels;
  /// False iff some referenced relation exists with an arity different
  /// from the plan's expectation. The plan must then not run: callers
  /// fall back to a fresh generic evaluation, which reports the
  /// mismatch as the historical InvalidArgument.
  bool arity_ok = true;
  /// Relational plans: some positive atom ranges over a missing or empty
  /// relation, so the answer is empty (boolean: false, or true for a
  /// negated plan) without running.
  bool trivially_empty = false;
  /// Relational plans, by PlanGuard::guard_id: a guard over a missing or
  /// empty relation can never match and is skipped.
  std::vector<bool> guard_active;
  /// RunRelational's scratch, kept here so repeated runs reuse it: the
  /// dense binding frame, the shared probe key and the output row.
  std::vector<Value> frame;
  std::vector<Value> key_scratch;
  Tuple out_scratch;
};

/// Resolves `q`'s relation names against `inst`, accumulating the time
/// into ctx->stats->plan_bind_ns when a stats sink is attached (the timer
/// only — deliberately no trace event per bind). RefreshQuery must run
/// before the first run.
BoundQuery ResolveQuery(const CompiledQuery& q, const Instance& inst,
                        const EngineContext* ctx = nullptr);

/// Re-derives arity_ok, trivially_empty and guard_active from the
/// resolved relations' current contents, in place.
void RefreshQuery(BoundQuery* b);

/// ResolveQuery, then RefreshQuery: a plan bound for one run.
BoundQuery BindQuery(const CompiledQuery& q, const Instance& inst,
                     const EngineContext* ctx = nullptr);

/// Executes a bound relational plan (kind kRelational, arity_ok). In
/// boolean mode (`out` == nullptr) stops at the first full match. In
/// answers mode it projects a full match into `out` and resumes at the
/// plan's witness step (RelationalPlan::witness_step), the last step
/// that binds an out slot: every further match of the later steps would
/// repeat the row, so each distinct row costs one full match per binding
/// of the steps that fix it. The row order of `out` is the order of
/// those first matches, and depends on the join order; consumers that
/// need an order sort. `binding` supplies the boolean-mode preset values
/// by variable name (may be nullptr when the plan has no presets).
/// Returns true iff at least one match was found — or, for a negated
/// plan (RelationalPlan::negate), iff none was. A trivially empty
/// binding runs nothing.
bool RunRelational(BoundQuery& b,
                   const std::map<std::string, Value>* binding,
                   Relation* out);

/// Per-thread count of the full matches RunRelational reached, in both
/// modes. Like index_maintenance_stats() (base/tuple_index.h), it exists
/// so that tests can pin how much work a plan does: the first-witness
/// stop shows here and nowhere in the answers.
struct RelationalRunStats {
  uint64_t full_matches = 0;

  void Reset() { *this = RelationalRunStats{}; }
};

inline RelationalRunStats& relational_run_stats() {
  thread_local RelationalRunStats stats;
  return stats;
}

/// Executes a bound generic plan (kind kGeneric) over a dense frame.
/// One runner per evaluation call; for Answers-style enumeration the
/// caller seeds frame() slots per domain tuple and calls Run repeatedly.
class GenericRunner {
 public:
  /// `b` must outlive the runner (it holds the resolved relations).
  GenericRunner(const BoundQuery& b, FunctionOracle* oracle);

  /// The binding frame (size num_slots; invalid Value = unbound). Seed
  /// free-variable slots through the plan's `slots` map before Run.
  std::vector<Value>& frame() { return frame_; }

  /// Attaches a deadline/cancellation gauge (logic/budget.h), ticked once
  /// per quantifier-odometer iteration — the domain^k loops are the only
  /// place a generic evaluation does unbounded work. The gauge must
  /// outlive every Run call; nullptr (the default) disables polling.
  void set_gauge(BudgetGauge* gauge) { gauge_ = gauge; }

  /// Evaluates the root under the current frame and `domain`.
  Result<bool> Run(const std::vector<Value>& domain);

 private:
  Result<Value> EvalTerm(const GenericTerm& t);
  Result<bool> Eval(const GenericNode& n, const std::vector<Value>& domain);
  void Restore(const GenericNode& n);

  const GenericPlan& plan_;
  const std::vector<const Relation*>& rels_;
  FunctionOracle* oracle_;
  BudgetGauge* gauge_ = nullptr;
  std::vector<Value> frame_;
  // Per-node scratch, addressed by GenericNode::id (the compiled plan is
  // immutable and shared; scratch cannot live in it).
  std::vector<Tuple> atom_scratch_;
  std::vector<std::vector<Value>> saved_scratch_;
  std::vector<std::vector<size_t>> idx_scratch_;
};

}  // namespace plan
}  // namespace ocdx

#endif  // OCDX_PLAN_RUNNER_H_
