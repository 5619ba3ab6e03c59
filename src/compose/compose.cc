#include "compose/compose.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "chase/canonical.h"
#include "semantics/membership.h"
#include "semantics/solutions.h"
#include "util/str.h"

namespace ocdx {

namespace {

uint64_t SatShift(uint64_t base, size_t k) {
  if (k >= 40) return UINT64_MAX;
  uint64_t factor = uint64_t{1} << k;
  if (base > UINT64_MAX / factor) return UINT64_MAX;
  return base * factor;
}

size_t CountOpenTemplates(const AnnotatedInstance& t) {
  size_t k = 0;
  for (const auto& [name, rel] : t.relations()) {
    for (const AnnotatedTupleRef& at : rel.tuples()) {
      if (at.IsEmptyMarker()) {
        if (IsAllOpen(at.ann)) ++k;
      } else if (CountOpen(at.ann) > 0) {
        ++k;
      }
    }
  }
  return k;
}

}  // namespace

Result<ComposeVerdict> InComposition(const Mapping& sigma,
                                     const Mapping& delta,
                                     const Instance& source,
                                     const Instance& target,
                                     Universe* universe,
                                     ComposeOptions options,
                                     const EngineContext& ctx) {
  OCDX_RETURN_IF_ERROR(sigma.Validate());
  OCDX_RETURN_IF_ERROR(delta.Validate());
  if (!source.IsGround() || !target.IsGround()) {
    return Status::InvalidArgument(
        "composition membership is defined for ground instances");
  }
  // The intermediate schemas must coincide.
  for (const RelationDecl& d : delta.source().decls()) {
    const RelationDecl* s = sigma.target().Find(d.name);
    if (s == nullptr || s->arity() != d.arity()) {
      return Status::InvalidArgument(
          StrCat("intermediate schemas differ on relation '", d.name, "'"));
    }
  }
  for (const RelationDecl& s : sigma.target().decls()) {
    if (delta.source().Find(s.name) == nullptr) {
      return Status::InvalidArgument(
          StrCat("intermediate schemas differ on relation '", s.name, "'"));
    }
  }

  // One plan table for the whole membership decision (unless the caller
  // attached one): the J-searches below run Delta's bodies over every
  // enumerated intermediate, so each query compiles once and rebinds
  // per J.
  EngineContext call_ctx = ctx;
  call_ctx.EnsureCache();

  OCDX_ASSIGN_OR_RETURN(CanonicalSolution csol,
                        Chase(sigma, source, universe, call_ctx));
  // Each J is checked against W and Delta only, so the search need fix
  // only their constants; CSolA(S)'s move under its twin symmetries
  // (member_enum.h).
  std::vector<Value> fixed =
      DistinguishedConstants({target.ActiveDomain()}, {&delta});

  ComposeVerdict out;

  const bool delta_monotone_open =
      delta.IsAllOpen() && delta.HasMonotoneBodies();
  const bool sigma_closed = sigma.IsAllClosed();
  const bool np_path = delta_monotone_open || sigma_closed;
  // The enumerated T, and whether visiting all of RepA(T) proves a
  // negative verdict.
  AnnotatedInstance& t = csol.annotated;
  bool bounds_are_proof = true;
  MemberEnumOptions enum_options = options.enum_options;
  if (np_path) {
    // NP paths: J ranges over the valuation images of CSol(S) only, the
    // members of its closed view (an all-closed CSolA(S) already is one).
    //  - sigma all-closed: [[S]]_{Sigma_cl} = Rep(CSol(S)) exactly;
    //  - monotone all-open Delta: Lemma 3 collapses Sigma_alpha to
    //    Sigma_op, and the minimal J = v(CSol(S)) decides membership.
    out.method = sigma_closed
                     ? "valuation enumeration (all-closed Sigma, NP)"
                     : "valuation enumeration (monotone all-open Delta, "
                       "Lemma 3 / Cor 4, NP)";
    if (!sigma_closed) t = Annotate(t.RelPart(), Ann::kClosed);
    // Every valuation is visited: only the hard Budget::max_members cap
    // may cut an NP search short, so a negative verdict stays a proof.
    enum_options.max_members = UINT64_MAX;
  } else {
    // General path: J ranges over RepA(CSolA(S)) within bounds.
    size_t max_open = sigma.MaxOpenPerAtom();
    // A Claim-5-style sufficiency bound on the fresh pool, conservative
    // per Lemma 2 applied to the conjunction of Delta's rule bodies.
    uint64_t k = 0;
    size_t arity_total = 0;
    for (const AnnotatedStd& std_ : delta.stds()) {
      k += static_cast<uint64_t>(QuantifierRank(std_.body)) +
           FreeVars(std_.body).size();
      arity_total += FreeVars(std_.body).size();
    }
    uint64_t paper_bound = SatShift(std::max<uint64_t>(1, k + arity_total),
                                    CountOpenTemplates(t));
    bounds_are_proof = max_open <= 1 &&
                       paper_bound <= options.enum_options.fresh_pool;
    out.method = max_open <= 1
                     ? "bounded J-search (#op = 1, NEXPTIME, Thm 4.2)"
                     : "bounded J-search (#op >= 2: undecidable, Thm 4.3)";
  }
  // Every member must hold every intermediate relation, so Delta's bodies
  // see empty relations rather than missing ones.
  for (const RelationDecl& d : sigma.target().decls()) {
    t.GetOrCreate(d.name, d.arity());
  }
  // Requirement formulas built once: the plan table keys on formula
  // identity, so per-J construction would recompile per intermediate.
  const std::vector<FormulaPtr> delta_reqs =
      delta_monotone_open ? StdRequirements(delta) : std::vector<FormulaPtr>{};

  // Per-shard search state. Each shard checks Delta in its own scratch
  // universe, and gets its own copy of `target`: the checks build lazy
  // probe indexes on the ground instance, which must not be shared across
  // shard threads. found merges by OR (order-independent), and the
  // first shard to find a witnessing J cancels the NP searches still
  // running in the others through the shard budgets' cooperative flag.
  struct ShardSearch {
    uint64_t checked = 0;
    bool found = false;
    Instance target_copy;
  };
  std::vector<std::unique_ptr<ShardSearch>> searches;
  const RepAMemberEnumerator::ShardFnFactory factory =
      [&](const MemberShard& shard) -> RepAMemberEnumerator::ShardMemberFn {
        searches.push_back(std::make_unique<ShardSearch>());
        ShardSearch* state = searches.back().get();
        state->target_copy = target;
        Universe* su = shard.universe;
        const EngineContext* sctx = shard.ctx;
        return [state, su, sctx, &delta, &delta_reqs, &options,
                delta_monotone_open](const Instance& j) -> Result<bool> {
          ++state->checked;
          // Delta's chases over J count into compose_check_triggers as
          // well (logic/engine_stats.def), failed checks included.
          EngineStats* stats = sctx->stats;
          const uint64_t fired = stats != nullptr ? stats->chase_triggers : 0;
          Result<bool> member = false;
          if (delta_monotone_open) {
            member = SatisfiesStds(delta, delta_reqs, j, state->target_copy,
                                   *su, *sctx);
          } else {
            Result<MembershipResult> res = InSolutionSpace(
                delta, j, state->target_copy, su, options.repa, *sctx);
            member = res.ok() ? Result<bool>(res.value().member)
                              : Result<bool>(res.status());
          }
          if (stats != nullptr) {
            stats->compose_check_triggers += stats->chase_triggers - fired;
          }
          OCDX_RETURN_IF_ERROR(member.status());
          if (member.value()) {
            state->found = true;
            return false;  // First success: stop every shard.
          }
          return true;
        };
      };
  RepAMemberEnumerator en(t, fixed, universe, enum_options, &call_ctx);
  OCDX_RETURN_IF_ERROR(en.ForEachMember(factory));
  bool found = false;
  for (const auto& s : searches) {
    out.intermediates_checked += s->checked;
    found = found || s->found;
  }
  out.member = found;
  out.exhaustive = found || (en.exhausted() && bounds_are_proof);
  return out;
}

}  // namespace ocdx
