// Certain answers in annotated data exchange (Section 4).
//
// certain_{Sigma_alpha}(Q, S) is the set of tuples in Q(R) for every
// R in RepA(T) and every Sigma-alpha-solution T — which by Corollary 2
// collapses to box-Q over the single annotated canonical solution:
//
//     certain_{Sigma_alpha}(Q, S) = box-Q(CSolA(S)).
//
// The engine dispatches by query class and annotation, following the
// paper's complexity map (see DESIGN.md experiment index):
//
//   positive Q           -> naive evaluation on CSol(S)        (Prop 3)
//   monotone Q           -> CWA valuation enumeration on CSol  (Prop 4)
//   #op = 0 (all-closed) -> CWA valuation enumeration on CSolA (Thm 3.1)
//   forall*-exists* Q    -> small-witness search               (Prop 5)
//   #op = 1, FO Q        -> Lemma-2-bounded member search      (Thm 3.2)
//   #op >= 2, FO Q       -> bounded search, verdict flagged
//                           non-exhaustive                     (Thm 3.3)

#ifndef OCDX_CERTAIN_CERTAIN_H_
#define OCDX_CERTAIN_CERTAIN_H_

#include <memory>
#include <optional>
#include <string>

#include "certain/member_enum.h"
#include "chase/canonical.h"
#include "logic/engine_context.h"
#include "logic/classify.h"
#include "mapping/mapping.h"
#include "util/status.h"

namespace ocdx {

struct CertainOptions {
  MemberEnumOptions enum_options;
  /// Skip the positive/monotone fast paths (used by cross-validation
  /// tests that compare engines against each other).
  bool force_general_engine = false;
};

/// The outcome of a certain-answer decision.
struct CertainVerdict {
  bool certain = false;
  /// True iff the verdict is a proof: either a concrete counterexample
  /// was found (certain = false), or the bounded space was fully searched
  /// *and* the bounds are sufficient for the query/annotation class per
  /// the paper (certain = true). Only #op >= 2 with true verdicts — the
  /// provably undecidable cell — and budget-capped runs are flagged
  /// non-exhaustive.
  bool exhaustive = true;
  /// Which engine decided (for logging / EXPERIMENTS.md).
  std::string method;
  uint64_t members_checked = 0;
};

/// Certain-answer engine over one (mapping, source) pair.
class CertainAnswerEngine {
 public:
  /// Chases `source` and prepares the engine. The mapping must be a plain
  /// (non-Skolemized) annotated mapping. `ctx` is copied and drives every
  /// evaluation the engine performs.
  static Result<CertainAnswerEngine> Create(
      const Mapping& mapping, const Instance& source, Universe* universe,
      const EngineContext& ctx = EngineContext());

  /// Prepares the engine over an already-chased canonical solution (e.g. a
  /// snapshot-loaded one) instead of chasing. `csol` must be the canonical
  /// solution of (`mapping`, some source) with nulls minted in `*universe`.
  static CertainAnswerEngine FromCanonical(
      const Mapping& mapping, CanonicalSolution csol, Universe* universe,
      const EngineContext& ctx = EngineContext());

  /// As FromCanonical, but borrows `csol`: the engine reads it in place
  /// and never copies it, so it must outlive the engine. This is how the
  /// driver serves a run's memoized or a frozen store's solution.
  CertainAnswerEngine(const Mapping& mapping, const CanonicalSolution& csol,
                      Universe* universe,
                      const EngineContext& ctx = EngineContext());

  /// DEQA(Sigma_alpha, Q): is `t` a certain answer of `q`?
  /// `order` names q's free variables in t's column order.
  Result<CertainVerdict> IsCertain(const FormulaPtr& q,
                                   const std::vector<std::string>& order,
                                   const Tuple& t,
                                   const CertainOptions& options = {});

  /// Boolean-query variant (sentences).
  Result<CertainVerdict> IsCertainBoolean(const FormulaPtr& q,
                                          const CertainOptions& options = {});

  /// Computes the full certain-answer set (tuples over the constants of
  /// CSol(S) and q). For positive q this is the naive evaluation; for
  /// other classes it intersects Q over the enumerated members, with the
  /// verdict reporting exhaustiveness as in IsCertain.
  Result<Relation> CertainAnswers(const FormulaPtr& q,
                                  const std::vector<std::string>& order,
                                  CertainVerdict* verdict = nullptr,
                                  const CertainOptions& options = {});

  const CanonicalSolution& canonical() const { return *csol_; }
  const Mapping& mapping() const { return mapping_; }

 private:
  /// rel(CSolA): CSol(S), built at its first use and kept for every
  /// later query.
  const Instance& Plain();

  /// Chooses the annotated instance, pool size and method label for the
  /// general engine; also decides whether the bounded space constitutes a
  /// proof for this (query class, annotation) cell.
  struct Plan {
    AnnotatedInstance target;
    MemberEnumOptions enum_options;
    std::string method;
    bool bounds_are_proof = true;
  };
  Result<Plan> MakePlan(const FormulaPtr& q, QueryClass cls,
                        const CertainOptions& options);

  Mapping mapping_;
  /// The solution Create and FromCanonical hand over; null when borrowed.
  std::unique_ptr<const CanonicalSolution> owned_;
  const CanonicalSolution* csol_;
  Universe* universe_;
  EngineContext ctx_;
  std::optional<Instance> plain_;
};

}  // namespace ocdx

#endif  // OCDX_CERTAIN_CERTAIN_H_
