// The chase: building (annotated) canonical solutions.
//
// For a mapping (sigma, tau, Sigma_alpha) and a source instance S, the
// canonical solution CSol(S) [FKMP05] is built by firing every STD on
// every witness of its body: each witness mints a fresh tuple of nulls
// for the STD's existential variables and emits the head atoms. The
// *annotated* canonical solution CSolA(S) (Section 3) additionally tags
// every emitted position with the STD's annotation, and — when a body has
// no witnesses — records the empty annotated tuples (_, alpha) for each
// head atom.
//
// By Theorem 1.4, RepA(CSolA(S)) *is* the semantics of the mapping on S,
// and by Corollary 2 all certain-answer computation reduces to this one
// polynomial-time-computable instance. The chase is therefore the load-
// bearing substrate of the whole library.

#ifndef OCDX_CHASE_CANONICAL_H_
#define OCDX_CHASE_CANONICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "base/instance.h"
#include "logic/engine_context.h"
#include "mapping/mapping.h"
#include "util/status.h"

namespace ocdx {

/// One firing of one STD: the justification shared by the nulls it minted.
///
/// Both refs are relocatable handles into the minting Universe's
/// justification arena (Universe::InternWitness / AllocateWitness;
/// resolve with Universe::WitnessOf) and stay valid for the universe's
/// lifetime — and, being offsets rather than pointers, they survive
/// overlays verbatim.
/// `witness` is the *same* stored copy the trigger's NullInfo
/// justifications reference, so a firing costs one arena append instead
/// of 1 + #existential-variables heap vectors.
struct ChaseTrigger {
  int std_index = -1;
  /// Order of the body's free variables for `witness`; shared across all
  /// firings of one STD (the chase mints thousands of triggers, so each
  /// one must not copy the variable names).
  std::shared_ptr<const std::vector<std::string>> var_order;
  /// The satisfying assignment (a-bar, b-bar) of the body.
  WitnessRef witness;
  /// Fresh nulls minted for the STD's existential variables, in
  /// AnnotatedStd::ExistentialVars() order.
  WitnessRef fresh_nulls;
};

/// The result of chasing a source instance with a mapping. Its triggers
/// count the chase's firings, one per body witness of each STD, and their
/// fresh_nulls spans count the nulls it minted.
struct CanonicalSolution {
  AnnotatedInstance annotated;  ///< CSolA(S), with empty markers.
  /// All firings, in deterministic order. CWA justifications and the
  /// Skolem F' ~ v correspondence (Lemma 4) both key on these.
  std::vector<ChaseTrigger> triggers;

  /// CSol(S): the plain canonical solution rel(CSolA(S)).
  Instance Plain() const { return annotated.RelPart(); }
};

/// Chases `source` with `mapping` (which must not be Skolemized; use
/// skolem::SolveSkolem for SkSTDs). Fresh nulls are minted in `*universe`.
///
/// Deterministic: STDs fire in order; witnesses fire in sorted Value
/// order, independent of the engine mode in `ctx`.
Result<CanonicalSolution> Chase(
    const Mapping& mapping, const Instance& source, Universe* universe,
    const EngineContext& ctx = EngineContext());

/// True iff chasing again under `budget` would trip neither its trigger
/// cap nor its fresh-null cap: Chase's own tests, applied to the totals
/// `csol` records. A run may borrow a stored solution only then; the
/// totals only grow during a chase, so the final ones decide.
bool FitsChaseBudget(const CanonicalSolution& csol, const Budget& budget);

}  // namespace ocdx

#endif  // OCDX_CHASE_CANONICAL_H_
