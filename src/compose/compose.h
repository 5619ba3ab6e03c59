// Semantic composition of annotated schema mappings (Section 5, Thm 4).
//
// For mappings Sigma_alpha : sigma -> tau and Delta_alpha' : tau -> omega,
// the composition is the relation
//
//   Sigma_alpha o Delta_alpha' =
//     { (S, W) ground : exists J in [[S]]_{Sigma_alpha}
//                              with W in [[J]]_{Delta_alpha'} }.
//
// The decision problem Comp(Sigma_alpha, Delta_alpha') is classified by
// #op(Sigma_alpha) — Table 1 of the paper:
//
//     #op = 0   NP-complete          (exact here: valuation enumeration)
//     #op = 1   NEXPTIME-complete    (bounded member search)
//     #op > 1   undecidable          (bounded search, flagged)
//   + NP for monotone all-open Delta regardless of Sigma's annotation
//     (Lemma 3 / Corollary 4).
//
// Every path is one RepAMemberEnumerator run (certain/member_enum.h), so
// each shards under EngineContext::shards and honours the budget's
// max_members, its deadline and the "enum" fault probe. The NP paths
// enumerate CSolA(S) with every position closed, whose members are
// exactly the valuation images v(CSol(S)); under shards > 1 they check
// the first image on the calling thread and fan out only when the search
// needs more.

#ifndef OCDX_COMPOSE_COMPOSE_H_
#define OCDX_COMPOSE_COMPOSE_H_

#include <string>

#include "base/instance.h"
#include "certain/member_enum.h"
#include "logic/engine_context.h"
#include "mapping/mapping.h"
#include "semantics/repa.h"
#include "util/status.h"

namespace ocdx {

struct ComposeOptions {
  /// Bounds for the intermediate-instance search. The extra-tuple bounds
  /// and the soft max_members cap apply to the general path only; the NP
  /// paths visit every valuation, under the budget's hard cap alone.
  MemberEnumOptions enum_options;
  RepAOptions repa;
};

struct ComposeVerdict {
  bool member = false;
  /// Positive verdicts are always proofs (a concrete intermediate J is
  /// found). A negative verdict is a proof when the member search visited
  /// its whole bounded space on a decidable path: on the NP paths
  /// (all-closed Sigma; monotone all-open Delta) that space is every
  /// valuation, so a negative verdict there is always a proof (a search
  /// cut by the budget returns an error, not a verdict); on the general
  /// path #op = 1 must also hold within the Claim 5 / Lemma 2 bounds.
  bool exhaustive = true;
  std::string method;
  uint64_t intermediates_checked = 0;
};

/// Decides (source, target) in Sigma_alpha o Delta_alpha'. Both instances
/// must be ground; sigma's target schema and delta's source schema must
/// declare the same relations.
Result<ComposeVerdict> InComposition(
    const Mapping& sigma, const Mapping& delta, const Instance& source,
    const Instance& target, Universe* universe, ComposeOptions options = {},
    const EngineContext& ctx = EngineContext());

}  // namespace ocdx

#endif  // OCDX_COMPOSE_COMPOSE_H_
