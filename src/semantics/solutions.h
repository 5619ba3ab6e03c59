// Solution checking under OWA, CWA, and mixed annotations.
//
// For a mapping (sigma, tau, Sigma_alpha) and a source S:
//   - an OWA-solution [FKMP05] is any T over Const u Null with (S,T) |= Sigma;
//   - a CWA-solution [Lib06] is a homomorphic image of CSol(S) with a
//     homomorphism back into CSol(S);
//   - a Sigma-alpha-solution (Section 3) is, by Proposition 1, a
//     homomorphic image of CSolA(S) that has a homomorphism into an
//     *expansion* of CSolA(S).
// The two classical notions are the all-open / all-closed extremes
// (Theorem 1, items 1-2).

#ifndef OCDX_SEMANTICS_SOLUTIONS_H_
#define OCDX_SEMANTICS_SOLUTIONS_H_

#include "base/instance.h"
#include "chase/canonical.h"
#include "logic/engine_context.h"
#include "mapping/mapping.h"
#include "util/status.h"

namespace ocdx {

/// Does (S, T) |= Sigma? T may contain nulls; they are treated as atomic
/// values (naive semantics), exactly as in the paper's definition of
/// OWA-solutions.
Result<bool> SatisfiesStds(const Mapping& mapping, const Instance& source,
                           const Instance& target, const Universe& universe,
                           const EngineContext& ctx = EngineContext());

/// The head-requirement sentences "exists z-bar . head atoms" of the
/// mapping's STDs, in STD order. Callers that check SatisfiesStds
/// repeatedly (the enumeration drivers' per-candidate loops) build this
/// once and use the overload below: the plan table is keyed on formula
/// *identity*, so per-call formula construction would compile the same
/// requirement once per candidate instead of once.
std::vector<FormulaPtr> StdRequirements(const Mapping& mapping);

/// As SatisfiesStds, with the requirement formulas precomputed by
/// StdRequirements (must be for the same mapping).
Result<bool> SatisfiesStds(const Mapping& mapping,
                           const std::vector<FormulaPtr>& requirements,
                           const Instance& source, const Instance& target,
                           const Universe& universe,
                           const EngineContext& ctx = EngineContext());

/// Is T an OWA-solution for S under the mapping? (= SatisfiesStds.)
Result<bool> IsOwaSolution(const Mapping& mapping, const Instance& source,
                           const Instance& target, const Universe& universe,
                           const EngineContext& ctx = EngineContext());

/// Is T a Sigma-alpha-solution for S (Proposition 1)? `csola` must be the
/// annotated canonical solution of S under the mapping.
Result<bool> IsSigmaAlphaSolutionGiven(
    const AnnotatedInstance& csola, const AnnotatedInstance& target,
    const EngineContext& ctx = EngineContext());

/// Convenience overload that chases first.
Result<bool> IsSigmaAlphaSolution(
    const Mapping& mapping, const Instance& source,
    const AnnotatedInstance& target, Universe* universe,
    const EngineContext& ctx = EngineContext());

/// Is T (a plain instance) a CWA-solution for S under the *unannotated*
/// reading of the mapping? Implemented as the all-closed special case of
/// Proposition 1 (equivalently [Lib06]: homomorphic image of CSol(S) with
/// a homomorphism back into CSol(S)).
Result<bool> IsCwaSolution(const Mapping& mapping, const Instance& source,
                           const Instance& target, Universe* universe,
                           const EngineContext& ctx = EngineContext());

}  // namespace ocdx

#endif  // OCDX_SEMANTICS_SOLUTIONS_H_
