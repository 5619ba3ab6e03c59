// Skolemized STDs (Section 5 of the paper).
//
// An annotated SkSTD is psi(u1..uk) :- phi(x1..xn) where phi is an FO
// formula over the source schema *and* a set F of function symbols
// (atomic subformulas R(z-bar) or y = f(z-bar)), and each head argument
// u_i is a body variable or a function term f(z-bar). SkSTDs generalize
// STDs (Lemma 4) and are the vehicle for composition (Lemma 5, Thm 5):
// annotated SkSTD mappings with all-open CQ rules, and with all-closed FO
// rules, are closed under composition.
//
// Semantics: given *actual functions* F' (an interpretation of every
// function symbol), Sol_{F'}(S) is built like a canonical solution but
// with function terms evaluated through F'; then
//     [[S]]_{Sigma_alpha} = union over F' of RepA(Sol_{F'}(S)).
//
// ocdx realizes "exists F'" finitely two ways:
//   - term-keyed nulls (the F' ~ v correspondence in Lemma 4's proof):
//     each ground term f(a-bar) becomes a null keyed by the term; exact
//     whenever function symbols occur only in heads;
//   - explicit up-to-isomorphism enumeration of F' over the finitely many
//     relevant argument tuples; exact in general (genericity), used when
//     bodies mention function terms (e.g. composition outputs).
//
// The explicit enumeration is one loop, ForEachInterpretation, shared by
// InSkolemSemantics and InSkolemComposition (skolem/compose.h); each
// brings only its per-interpretation check. It runs sequentially on the
// caller's universe, whatever EngineContext::shards says.

#ifndef OCDX_SKOLEM_SKOLEM_H_
#define OCDX_SKOLEM_SKOLEM_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "base/instance.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "mapping/mapping.h"
#include "semantics/repa.h"
#include "semantics/valuation.h"
#include "util/status.h"

namespace ocdx {

/// All function symbols (name -> arity) used anywhere in the mapping's
/// bodies and heads.
std::map<std::string, size_t> MappingFunctions(const Mapping& mapping);

/// A set of ground function applications (function name, argument tuple).
using SlotSet = std::set<std::pair<std::string, Tuple>>;

/// Static guard analysis: the ground function applications that can
/// influence the truth of some rule body over `source`. A function term's
/// arguments only matter for bindings that satisfy the positive
/// relational atoms conjoined with it (its guards) — for any other
/// binding the enclosing conjunction is false regardless of the
/// function's value. Argument variables not bound by any guard fall back
/// to the full active domain. Fails with Unimplemented on nested function
/// terms in bodies (head nesting is fine).
Result<SlotSet> DemandedBodySlots(
    const Mapping& mapping, const Instance& source, Universe* universe,
    const EngineContext& ctx = EngineContext());

/// Lemma 4: translates a plain annotated STD mapping into an equivalent
/// annotated SkSTD mapping. Each existential variable z of STD #i becomes
/// the function term f_i_z(x-bar, y-bar) over *all* free variables of the
/// body, preserving annotations and right-hand sides.
Result<Mapping> Skolemize(const Mapping& mapping);

/// Returns the mapping itself if it has no existential head variables,
/// its Skolemization if it is a plain STD mapping, and an error if it
/// mixes existential variables with function terms.
Result<Mapping> EnsureSkolemized(const Mapping& mapping);

/// A concrete interpretation of function symbols, backed by an explicit
/// table. Apply() fails on arguments outside the table (the enumeration
/// driver always populates every relevant slot).
class TableOracle : public FunctionOracle {
 public:
  void Set(const std::string& func, Tuple args, Value result) {
    table_[{func, std::move(args)}] = result;
  }
  Result<Value> Apply(const std::string& func, const Tuple& args) override;

 private:
  std::map<std::pair<std::string, Tuple>, Value> table_;
};

/// Interprets every ground term f(a-bar) as a null keyed by the term,
/// minting on demand (the F' ~ v correspondence). The same term always
/// returns the same null.
class TermNullOracle : public FunctionOracle {
 public:
  explicit TermNullOracle(Universe* universe) : universe_(universe) {}
  Result<Value> Apply(const std::string& func, const Tuple& args) override;

  /// All term-nulls minted so far, keyed by (function, arguments).
  const std::map<std::pair<std::string, Tuple>, Value>& slots() const {
    return slots_;
  }

 private:
  Universe* universe_;
  std::map<std::pair<std::string, Tuple>, Value> slots_;
};

/// Resolves from a table, minting a recorded placeholder null for any
/// slot the table misses. The enumeration drivers use it to discover the
/// head-term slots of an interpretation (phase 2 of the two-phase
/// search).
class RecordingOracle : public FunctionOracle {
 public:
  RecordingOracle(TableOracle* table, Universe* universe)
      : table_(table), universe_(universe) {}

  Result<Value> Apply(const std::string& func, const Tuple& args) override;

  const std::map<std::pair<std::string, Tuple>, Value>& placeholders() const {
    return placeholders_;
  }

 private:
  TableOracle* table_;
  Universe* universe_;
  std::map<std::pair<std::string, Tuple>, Value> placeholders_;
};

/// Computes Sol_{F'}(S) for a Skolemized mapping under the oracle's
/// interpretation (including empty annotated tuples for unfired rules).
Result<AnnotatedInstance> SolveSkolem(
    const Mapping& mapping, const Instance& source, FunctionOracle* oracle,
    Universe* universe, const EngineContext& ctx = EngineContext());

struct SkolemMembership {
  bool member = false;
  /// True iff decided by the exact term-keyed path or a completed
  /// function enumeration.
  bool exhaustive = true;
  std::string method;
  uint64_t interpretations_checked = 0;
};

struct SkolemMembershipOptions {
  /// Budget for explicit F' enumeration.
  uint64_t max_interpretations = 2'000'000;
  RepAOptions repa;
};

/// Checks one interpretation F': `sol` is Sol_{F'}(S) with its head-slot
/// placeholders still nulls, and `v2` their valuation. Returns whether
/// the interpretation witnesses membership, which ends the search.
using InterpretationVisitor = std::function<Result<bool>(
    const AnnotatedInstance& sol, const Valuation& v2)>;

/// The two-phase search over the interpretations F' of a Skolemized
/// mapping, up to isomorphisms fixing `fixed`. Phase 1 valuates one null
/// per demanded body slot (named `slot_prefix`<i>), solves, and phase 2
/// valuates the head-slot placeholders that reached solution tuples;
/// `visit` sees each (solution, phase-2 valuation). Counts every
/// interpretation of either phase into out->interpretations_checked, sets
/// out->member when `visit` returns true, and stops with out->exhaustive
/// = false once the count passes `max_interpretations`. Polls the
/// context's deadline and cancellation once per interpretation.
Status ForEachInterpretation(const Mapping& mapping, const Instance& source,
                             const std::vector<Value>& fixed,
                             std::string_view slot_prefix,
                             uint64_t max_interpretations, Universe* universe,
                             const EngineContext& ctx,
                             const InterpretationVisitor& visit,
                             SkolemMembership* out);

/// Is `target` (ground) in [[source]] of the Skolemized mapping, i.e.
/// does some interpretation F' put target in RepA(Sol_{F'}(source))?
Result<SkolemMembership> InSkolemSemantics(
    const Mapping& mapping, const Instance& source, const Instance& target,
    Universe* universe, SkolemMembershipOptions options = {},
    const EngineContext& ctx = EngineContext());

/// Proposition 7: renders the mapping as the second-order sentence
/// "exists f1..fr forall x-bar (phi -> psi) ..." of [FKPT05].
std::string ToSecondOrderSentence(const Mapping& mapping,
                                  const Universe& universe);

}  // namespace ocdx

#endif  // OCDX_SKOLEM_SKOLEM_H_
