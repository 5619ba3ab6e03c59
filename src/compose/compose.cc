#include "compose/compose.h"

#include <memory>
#include <set>
#include <vector>

#include "chase/canonical.h"
#include "logic/budget.h"
#include "semantics/iso_enum.h"
#include "semantics/membership.h"
#include "semantics/solutions.h"
#include "util/str.h"

namespace ocdx {

namespace {

// Distinguished constants for the J-search: everything W, Delta and the
// canonical solution can "see".
std::vector<Value> FixedConstants(const AnnotatedInstance& csola,
                                  const Mapping& delta,
                                  const Instance& target) {
  std::set<Value> fixed;
  for (Value v : csola.ActiveDomain()) {
    if (v.IsConst()) fixed.insert(v);
  }
  for (Value v : target.ActiveDomain()) fixed.insert(v);
  for (const AnnotatedStd& std_ : delta.stds()) {
    for (Value v : ConstantsIn(std_.body)) fixed.insert(v);
    for (const HeadAtom& atom : std_.head) {
      for (const Term& t : atom.terms) {
        if (t.IsConst()) fixed.insert(t.constant);
      }
    }
  }
  return std::vector<Value>(fixed.begin(), fixed.end());
}

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
  std::vector<Value> fixed = FixedConstants(csol.annotated, delta, target);

  ComposeVerdict out;

  const bool delta_monotone_open =
      delta.IsAllOpen() && delta.HasMonotoneBodies();
  const bool sigma_closed = sigma.IsAllClosed();

  if (delta_monotone_open || sigma_closed) {
    // NP paths: J ranges over the valuation images of CSol(S) only.
    //  - sigma all-closed: [[S]]_{Sigma_cl} = Rep(CSol(S)) exactly;
    //  - monotone all-open Delta: Lemma 3 collapses Sigma_alpha to
    //    Sigma_op, and the minimal J = v(CSol(S)) decides membership.
    out.method = sigma_closed
                     ? "valuation enumeration (all-closed Sigma, NP)"
                     : "valuation enumeration (monotone all-open Delta, "
                       "Lemma 3 / Cor 4, NP)";
    // Requirement formulas built once: the plan table keys on formula
    // identity, so per-J construction would recompile per intermediate.
    const std::vector<FormulaPtr> delta_reqs =
        delta_monotone_open ? StdRequirements(delta) : std::vector<FormulaPtr>{};
    ValuationEnumerator en(csol.annotated.Nulls(), fixed, universe);
    // One deadline/cancellation poll per intermediate J (logic/budget.h):
    // the valuation space is exponential in the null count, so the loop
    // itself must be governed, not just the membership checks inside it.
    BudgetGauge gauge(call_ctx.budget, call_ctx.stats);
    Valuation v;
    while (en.Next(&v)) {
      OCDX_RETURN_IF_ERROR(gauge.Tick());
      ++out.intermediates_checked;
      Instance j = v.ApplyRelPart(csol.annotated);
      for (const RelationDecl& d : sigma.target().decls()) {
        j.GetOrCreate(d.name, d.arity());
      }
      if (delta_monotone_open) {
        OCDX_ASSIGN_OR_RETURN(
            bool ok,
            SatisfiesStds(delta, delta_reqs, j, target, *universe, call_ctx));
        if (ok) {
          out.member = true;
          return out;
        }
      } else {
        OCDX_ASSIGN_OR_RETURN(
            MembershipResult res,
            InSolutionSpace(delta, j, target, universe, options.repa, call_ctx));
        if (res.member) {
          out.member = true;
          return out;
        }
      }
    }
    out.member = false;
    return out;
  }

  // General path: J ranges over RepA(CSolA(S)) within bounds.
  size_t max_open = sigma.MaxOpenPerAtom();
  // A Claim-5-style sufficiency bound on the fresh pool, conservative per
  // Lemma 2 applied to the conjunction of Delta's rule bodies.
  uint64_t k = 0;
  size_t arity_total = 0;
  for (const AnnotatedStd& std_ : delta.stds()) {
    k += static_cast<uint64_t>(QuantifierRank(std_.body)) +
         FreeVars(std_.body).size();
    arity_total += FreeVars(std_.body).size();
  }
  uint64_t paper_bound =
      SatShift(std::max<uint64_t>(1, k + arity_total),
               CountOpenTemplates(csol.annotated));
  bool bounds_are_proof = max_open <= 1;
  if (paper_bound > options.enum_options.fresh_pool) {
    bounds_are_proof = false;
  }
  out.method = max_open <= 1
                   ? "bounded J-search (#op = 1, NEXPTIME, Thm 4.2)"
                   : "bounded J-search (#op >= 2: undecidable, Thm 4.3)";

  RepAMemberEnumerator en(csol.annotated, fixed, universe,
                          options.enum_options, &call_ctx);
  // Per-shard search state. Each shard chases Delta into its own scratch
  // universe, and gets its own copy of `target`: the RepA matcher builds
  // lazy probe indexes on the ground instance, which must not be shared
  // across shard threads. found merges by OR (order-independent), and the
  // first shard to find a witnessing J cancels the NP searches still
  // running in the others through the shard budgets' cooperative flag.
  struct ShardSearch {
    uint64_t checked = 0;
    bool found = false;
    Instance target_copy;
  };
  std::vector<std::unique_ptr<ShardSearch>> searches;
  Status st = en.ForEachMember(
      [&](const MemberShard& shard) -> RepAMemberEnumerator::ShardMemberFn {
        searches.push_back(std::make_unique<ShardSearch>());
        ShardSearch* state = searches.back().get();
        state->target_copy = target;
        Universe* su = shard.universe;
        const EngineContext* sctx = shard.ctx;
        return [state, su, sctx, &sigma, &delta, &options](
                   const Instance& j_raw) -> Result<bool> {
          ++state->checked;
          Instance j = j_raw;
          for (const RelationDecl& d : sigma.target().decls()) {
            j.GetOrCreate(d.name, d.arity());
          }
          OCDX_ASSIGN_OR_RETURN(
              MembershipResult res,
              InSolutionSpace(delta, j, state->target_copy, su, options.repa,
                              *sctx));
          if (res.member) {
            state->found = true;
            return false;  // First success: stop every shard.
          }
          return true;
        };
      });
  OCDX_RETURN_IF_ERROR(st);

  bool found = false;
  for (const auto& s : searches) {
    out.intermediates_checked += s->checked;
    found = found || s->found;
  }

  out.member = found;
  out.exhaustive = found ? true : (en.exhausted() && bounds_are_proof);
  return out;
}

}  // namespace ocdx
