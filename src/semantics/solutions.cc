#include "semantics/solutions.h"

#include <algorithm>

#include "logic/cq_eval.h"
#include "logic/evaluator.h"
#include "semantics/homomorphism.h"

namespace ocdx {

std::vector<FormulaPtr> StdRequirements(const Mapping& mapping) {
  std::vector<FormulaPtr> out;
  out.reserve(mapping.stds().size());
  for (const AnnotatedStd& std_ : mapping.stds()) {
    // Head requirement: exists z-bar . conjunction of head atoms.
    std::vector<FormulaPtr> atoms;
    atoms.reserve(std_.head.size());
    for (const HeadAtom& atom : std_.head) {
      atoms.push_back(Formula::Atom(atom.rel, atom.terms));
    }
    out.push_back(Formula::Exists(std_.ExistentialVars(),
                                  Formula::And(std::move(atoms))));
  }
  return out;
}

Result<bool> SatisfiesStds(const Mapping& mapping, const Instance& source,
                           const Instance& target, const Universe& universe,
                           const EngineContext& ctx) {
  return SatisfiesStds(mapping, StdRequirements(mapping), source, target,
                       universe, ctx);
}

Result<bool> SatisfiesStds(const Mapping& mapping,
                           const std::vector<FormulaPtr>& requirements,
                           const Instance& source, const Instance& target,
                           const Universe& universe,
                           const EngineContext& ctx) {
  // No per-call cache setup here: SatisfiesStds is an *inner* step of
  // the enumeration drivers (composition intermediates, membership
  // candidates), which attach one plan table up front, precompute the
  // requirement formulas (StdRequirements — the cache keys on formula
  // identity) and reuse both across calls. With an uncached context each
  // call compiles privately.
  Evaluator source_eval(source, universe, ctx);
  Evaluator target_eval(target, universe, ctx);
  for (size_t i = 0; i < mapping.stds().size(); ++i) {
    const AnnotatedStd& std_ = mapping.stds()[i];
    const FormulaPtr& requirement = requirements[i];
    const std::vector<std::string> body_vars = std_.BodyVars();

    Relation answers(body_vars.size());
    std::vector<TupleRef> witnesses;
    if (body_vars.empty()) {
      OCDX_ASSIGN_OR_RETURN(bool holds, source_eval.Holds(std_.body));
      if (holds) witnesses.push_back(TupleRef{});
    } else {
      OCDX_ASSIGN_OR_RETURN(answers, source_eval.Answers(std_.body, body_vars));
      witnesses.assign(answers.tuples().begin(), answers.tuples().end());
    }
    if (witnesses.empty()) continue;

    // Semijoin form: forall w . T |= psi(w)  iff  the projection of the
    // witnesses onto the requirement's free variables is contained in the
    // requirement's answer set over T — one compiled join plus hashed
    // containment instead of a (re-compiled) Holds call per witness.
    // kGeneric keeps the per-witness loop: the definition, checked
    // literally, as the reference for this semijoin.
    const std::vector<std::string> req_vars = FreeVars(requirement);
    if (ctx.indexed() && !body_vars.empty() && !req_vars.empty()) {
      std::optional<Relation> req_answers =
          TryEvalCQ(requirement, req_vars, target, ctx);
      if (req_answers.has_value()) {
        std::vector<size_t> proj(req_vars.size());
        bool proj_ok = true;
        for (size_t i = 0; i < req_vars.size(); ++i) {
          auto it = std::find(body_vars.begin(), body_vars.end(), req_vars[i]);
          if (it == body_vars.end()) {
            proj_ok = false;  // Unreachable: head free vars are body vars.
            break;
          }
          proj[i] = static_cast<size_t>(it - body_vars.begin());
        }
        if (proj_ok) {
          Tuple key(req_vars.size());
          bool all_in = true;
          for (TupleRef w : witnesses) {
            for (size_t i = 0; i < proj.size(); ++i) key[i] = w[proj[i]];
            if (!req_answers->Contains(key)) {
              all_in = false;
              break;
            }
          }
          if (!all_in) return false;
          continue;
        }
      }
    }

    for (TupleRef w : witnesses) {
      Env env;
      for (size_t i = 0; i < body_vars.size(); ++i) env[body_vars[i]] = w[i];
      OCDX_ASSIGN_OR_RETURN(bool ok, target_eval.Holds(requirement, env));
      if (!ok) return false;
    }
  }
  return true;
}

Result<bool> IsOwaSolution(const Mapping& mapping, const Instance& source,
                           const Instance& target, const Universe& universe,
                           const EngineContext& ctx) {
  return SatisfiesStds(mapping, source, target, universe, ctx);
}

Result<bool> IsSigmaAlphaSolutionGiven(const AnnotatedInstance& csola,
                                       const AnnotatedInstance& target,
                                       const EngineContext& ctx) {
  // Proposition 1: T is a Sigma-alpha-solution iff
  //   (1) T is a homomorphic image of CSolA(S) (presolution), and
  //   (2) there is a homomorphism from T into an expansion of CSolA(S).
  OCDX_ASSIGN_OR_RETURN(std::optional<NullMap> onto,
                        FindOntoImage(csola, target, {}, ctx));
  if (!onto.has_value()) return false;
  OCDX_ASSIGN_OR_RETURN(std::optional<NullMap> back,
                        FindExpansionHom(target, csola, {}, ctx));
  return back.has_value();
}

Result<bool> IsSigmaAlphaSolution(const Mapping& mapping,
                                  const Instance& source,
                                  const AnnotatedInstance& target,
                                  Universe* universe,
                                  const EngineContext& ctx) {
  OCDX_ASSIGN_OR_RETURN(CanonicalSolution csol,
                        Chase(mapping, source, universe, ctx));
  return IsSigmaAlphaSolutionGiven(csol.annotated, target, ctx);
}

Result<bool> IsCwaSolution(const Mapping& mapping, const Instance& source,
                           const Instance& target, Universe* universe,
                           const EngineContext& ctx) {
  Mapping closed = mapping.WithUniformAnnotation(Ann::kClosed);
  return IsSigmaAlphaSolution(closed, source, Annotate(target, Ann::kClosed),
                              universe, ctx);
}

}  // namespace ocdx
