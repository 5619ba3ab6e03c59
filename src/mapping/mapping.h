// Annotated schema mappings (Section 3 of the paper).
//
// A mapping M = (sigma, tau, Sigma_alpha) consists of a source schema, a
// target schema and a set of *annotated source-to-target dependencies*
// (STDs)
//
//     psi(x-bar, z-bar) :- phi(x-bar, y-bar)
//
// where phi is an FO formula over sigma, psi is a conjunction of target
// atoms, and every position of every head atom carries an `op` / `cl`
// annotation. The same data structure also represents *Skolemized* STDs
// (SkSTDs, Section 5): head arguments and body equalities may then use
// function terms. Plain-STD mappings reject function terms in Validate().

#ifndef OCDX_MAPPING_MAPPING_H_
#define OCDX_MAPPING_MAPPING_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "base/annotation.h"
#include "base/schema.h"
#include "logic/classify.h"
#include "logic/formula.h"
#include "util/status.h"

namespace ocdx {

/// One target atom R(t1^a1, ..., tk^ak) in an STD head.
struct HeadAtom {
  std::string rel;
  std::vector<Term> terms;  ///< Variables, constants, or (SkSTD) func terms.
  AnnVec ann;               ///< One annotation per term.

  size_t arity() const { return terms.size(); }
  std::string ToString(const Universe& u) const;
};

/// An annotated (Sk)STD: head :- body.
struct AnnotatedStd {
  std::vector<HeadAtom> head;
  FormulaPtr body;

  /// Free variables of the body, in first-occurrence order. These are the
  /// paper's (x-bar, y-bar).
  std::vector<std::string> BodyVars() const { return FreeVars(body); }

  /// Head variables that are not free in the body: the existential z-bar,
  /// instantiated by fresh nulls during the chase.
  std::vector<std::string> ExistentialVars() const;

  /// Maximum number of open (resp. closed) positions over the head atoms.
  size_t MaxOpenPerAtom() const;
  size_t MaxClosedPerAtom() const;

  /// True iff any function term occurs in the head or body (an SkSTD).
  bool IsSkolemized() const;

  std::string ToString(const Universe& u) const;
};

/// An annotated schema mapping (sigma, tau, Sigma_alpha).
class Mapping {
 public:
  Mapping() = default;
  Mapping(Schema source, Schema target)
      : source_(std::move(source)), target_(std::move(target)) {}

  const Schema& source() const { return source_; }
  const Schema& target() const { return target_; }
  const std::vector<AnnotatedStd>& stds() const { return stds_; }

  void AddStd(AnnotatedStd std_) { stds_.push_back(std::move(std_)); }

  /// #op(Sigma_alpha): the maximum number of open positions per head atom
  /// (the parameter of both trichotomy theorems).
  size_t MaxOpenPerAtom() const;

  /// #cl(Sigma_alpha): the maximum number of closed positions per head
  /// atom (the parameter of Theorem 2).
  size_t MaxClosedPerAtom() const;

  bool IsAllOpen() const { return MaxClosedPerAtom() == 0; }
  bool IsAllClosed() const { return MaxOpenPerAtom() == 0; }

  /// True iff every STD body is a conjunctive query (the setting of
  /// [FKMP05, FKPT05]).
  bool HasCQBodies() const;

  /// True iff every STD body is syntactically monotone (Lemma 3 / Cor 4).
  bool HasMonotoneBodies() const;

  /// True iff some STD is Skolemized.
  bool IsSkolemized() const;

  /// The same mapping with every annotation replaced by `uniform`
  /// (Sigma_op / Sigma_cl of the paper).
  Mapping WithUniformAnnotation(Ann uniform) const;

  /// Structural checks: body relations exist in the source schema with
  /// matching arity, head relations in the target schema, head variables
  /// are body variables or existential, annotations sized correctly.
  /// If `allow_functions` is false, function terms are rejected.
  Status Validate(bool allow_functions = false) const;

  std::string ToString(const Universe& u) const;

 private:
  Schema source_;
  Schema target_;
  std::vector<AnnotatedStd> stds_;
};

/// The distinguished constants of a valuation search (iso_enum.h): every
/// constant of `domains` (nulls are skipped) and every constant written in
/// a rule of `mappings`, sorted and deduplicated. Searches enumerate
/// valuations up to the permutations of Const that fix this set.
std::vector<Value> DistinguishedConstants(
    std::initializer_list<std::vector<Value>> domains,
    std::initializer_list<const Mapping*> mappings);

}  // namespace ocdx

#endif  // OCDX_MAPPING_MAPPING_H_
