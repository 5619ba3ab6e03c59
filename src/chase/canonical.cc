#include "chase/canonical.h"

#include <algorithm>

#include "logic/budget.h"
#include "logic/evaluator.h"
#include "obs/trace.h"
#include "plan/head_plan.h"
#include "util/fault.h"
#include "util/str.h"

namespace ocdx {

namespace {

// Evaluates a head term under the witness binding + fresh nulls.
Result<Value> EvalHeadTerm(const Term& t, const Env& env) {
  switch (t.kind) {
    case Term::Kind::kConst:
      return t.constant;
    case Term::Kind::kVar: {
      auto it = env.find(t.name);
      if (it == env.end()) {
        return Status::Internal(
            StrCat("head variable '", t.name, "' has no binding"));
      }
      return it->second;
    }
    case Term::Kind::kFunc:
      return Status::InvalidArgument(
          StrCat("function term '", t.name,
                 "' in a plain chase; Skolemized mappings must go through "
                 "skolem::SolveSkolem"));
  }
  return Status::Internal("unknown term kind");
}

// The kGeneric witness loop: the chase step written out literally, one
// string-keyed environment per witness. It is the reference FireCompiled
// is checked against (EndToEndParity.ChaseAgreesAcrossEngines).
Status FireLiteral(const AnnotatedStd& std_, size_t std_index,
                   const std::shared_ptr<const std::vector<std::string>>& vars,
                   const std::vector<std::string>& exist_vars,
                   const std::vector<TupleRef>& witnesses,
                   Universe* universe, CanonicalSolution* out) {
  const std::vector<std::string>& body_vars = *vars;
  for (TupleRef w : witnesses) {
    ChaseTrigger trigger;
    trigger.std_index = static_cast<int>(std_index);
    trigger.var_order = vars;
    // One stored witness copy, shared with every NullInfo minted below.
    trigger.witness = universe->InternWitness(w);

    Env env;
    for (size_t v = 0; v < body_vars.size(); ++v) env[body_vars[v]] = w[v];
    // One fresh null per existential variable per witness: the paper's
    // bottom-bar_(phi, psi, a-bar, b-bar).
    auto [fresh_ref, fresh] = universe->AllocateWitness(exist_vars.size());
    for (size_t j = 0; j < exist_vars.size(); ++j) {
      const std::string& z = exist_vars[j];
      NullInfo info;
      info.std_index = static_cast<int>(std_index);
      info.witness = trigger.witness;
      info.var = z;
      info.label = StrCat(z, "_s", std_index, "w", out->triggers.size());
      Value null = universe->MintNull(std::move(info));
      env[z] = null;
      fresh[j] = null;
    }
    trigger.fresh_nulls = fresh_ref;

    for (const HeadAtom& atom : std_.head) {
      Tuple t;
      t.reserve(atom.terms.size());
      for (const Term& term : atom.terms) {
        OCDX_ASSIGN_OR_RETURN(Value v, EvalHeadTerm(term, env));
        t.push_back(v);
      }
      out->annotated.Add(atom.rel, AnnotatedTuple(std::move(t), atom.ann));
    }
    out->triggers.push_back(std::move(trigger));
  }
  return Status::OK();
}

// Slot-compiled witness loop: head terms are resolved to witness / fresh-
// null positions once per STD (plan::CompileHeadPlans), so firing a
// witness is a handful of vector reads instead of string-map traffic. The
// instantiated head tuples are accumulated into one flat buffer per head
// atom and appended through the relations' batch AddAll — the whole delta
// of an STD costs at most one arena chunk allocation per target relation
// instead of per-tuple vector/annotation churn.
Status FireCompiled(const AnnotatedStd& std_, size_t std_index,
                    const std::shared_ptr<const std::vector<std::string>>& vars,
                    const std::vector<std::string>& exist_vars,
                    const std::vector<TupleRef>& witnesses,
                    Universe* universe, CanonicalSolution* out) {
  const std::vector<std::string>& body_vars = *vars;
  OCDX_ASSIGN_OR_RETURN(
      std::vector<std::vector<plan::HeadSlot>> head_plans,
      plan::CompileHeadPlans(std_.head, body_vars, exist_vars));

  // One flat delta buffer per head atom; row i belongs to witness i.
  std::vector<Tuple> deltas(std_.head.size());
  for (size_t a = 0; a < std_.head.size(); ++a) {
    deltas[a].reserve(witnesses.size() * head_plans[a].size());
  }

  out->triggers.reserve(out->triggers.size() + witnesses.size());
  for (TupleRef w : witnesses) {
    ChaseTrigger trigger;
    trigger.std_index = static_cast<int>(std_index);
    trigger.var_order = vars;
    // One stored witness copy per firing, shared by the trigger record
    // and all its NullInfo justifications (the former per-null vector
    // copies were the last allocation on this path).
    trigger.witness = universe->InternWitness(w);

    auto [fresh_ref, fresh] = universe->AllocateWitness(exist_vars.size());
    for (size_t j = 0; j < exist_vars.size(); ++j) {
      NullInfo info;
      info.std_index = static_cast<int>(std_index);
      info.witness = trigger.witness;
      info.var = exist_vars[j];
      // No pretty-print label: Universe::Describe falls back to the
      // unique "_N<id>" form, and materializing a label per null is a
      // measurable fraction of chase time on large sources.
      fresh[j] = universe->MintNull(std::move(info));
    }
    trigger.fresh_nulls = fresh_ref;

    for (size_t a = 0; a < std_.head.size(); ++a) {
      for (const plan::HeadSlot& slot : head_plans[a]) {
        switch (slot.kind) {
          case plan::HeadSlot::Kind::kConst:
            deltas[a].push_back(slot.constant);
            break;
          case plan::HeadSlot::Kind::kWitness:
            deltas[a].push_back(w[slot.index]);
            break;
          case plan::HeadSlot::Kind::kFresh:
            deltas[a].push_back(fresh[slot.index]);
            break;
        }
      }
    }
    out->triggers.push_back(std::move(trigger));
  }

  for (size_t a = 0; a < std_.head.size(); ++a) {
    const HeadAtom& atom = std_.head[a];
    AnnotatedRelation& rel =
        out->annotated.GetOrCreate(atom.rel, atom.ann.size());
    if (atom.ann.empty()) {
      // Propositional (0-ary) head atom: one proper row, not a batch.
      rel.Add(AnnotatedTupleRef{});
    } else {
      rel.AddAll(deltas[a], atom.ann);
    }
  }
  return Status::OK();
}

// The chase's cap test: a run trips once a running total passes its cap.
bool OverCap(uint64_t total, uint64_t cap) { return total > cap; }

}  // namespace

bool FitsChaseBudget(const CanonicalSolution& csol, const Budget& budget) {
  uint64_t minted = 0;
  for (const ChaseTrigger& t : csol.triggers) minted += t.fresh_nulls.len;
  return !OverCap(csol.triggers.size(), budget.chase_max_triggers) &&
         !OverCap(minted, budget.chase_max_nulls);
}

Result<CanonicalSolution> Chase(const Mapping& mapping, const Instance& source,
                                Universe* universe,
                                const EngineContext& ctx) {
  obs::ScopedSpan span(ctx, obs::kPhaseChase);
  OCDX_RETURN_IF_ERROR(mapping.Validate(/*allow_functions=*/false));
  OCDX_RETURN_IF_ERROR(mapping.source().Validate(source));

  CanonicalSolution out;
  // Pre-declare every target relation so that solutions mention all of
  // them (empty relations matter for CWA facts and for printing).
  for (const RelationDecl& decl : mapping.target().decls()) {
    out.annotated.GetOrCreate(decl.name, decl.arity());
  }

  Evaluator eval(source, *universe, ctx);

  // Governance (logic/budget.h): the trigger and fresh-null caps bound
  // the chase even for non-weakly-acyclic STD sets whose witness sets
  // explode; the gauge bounds wall time. Both trip with messages that
  // mention only caps and witness counts — quantities every join engine
  // agrees on — so budget diagnostics are byte-identical across engines.
  BudgetGauge gauge(ctx.budget, ctx.stats);
  uint64_t fired = 0;
  uint64_t minted = 0;

  for (size_t i = 0; i < mapping.stds().size(); ++i) {
    const AnnotatedStd& std_ = mapping.stds()[i];
    const std::vector<std::string> body_vars = std_.BodyVars();
    const std::vector<std::string> exist_vars = std_.ExistentialVars();

    // Collect the witnesses of the body over S: pointers into the answer
    // relation, sorted by Value order for deterministic firing.
    Relation answers(body_vars.size());
    std::vector<TupleRef> witnesses;
    if (body_vars.empty()) {
      OCDX_ASSIGN_OR_RETURN(bool holds, eval.Holds(std_.body));
      if (holds) witnesses.push_back(TupleRef{});
    } else {
      OCDX_ASSIGN_OR_RETURN(answers, eval.Answers(std_.body, body_vars));
      witnesses.assign(answers.tuples().begin(), answers.tuples().end());
      std::sort(witnesses.begin(), witnesses.end(),
                [](TupleRef a, TupleRef b) { return a < b; });
    }

    if (witnesses.empty()) {
      // "If phi evaluates to the empty set over S, we add empty tuples for
      // each atom in psi, annotated according to alpha."
      for (const HeadAtom& atom : std_.head) {
        out.annotated.Add(atom.rel, AnnotatedTuple::EmptyMarker(atom.ann));
      }
      continue;
    }

    OCDX_RETURN_IF_ERROR(fault::Probe("chase"));
    OCDX_RETURN_IF_ERROR(gauge.Poll());
    fired += witnesses.size();
    if (OverCap(fired, ctx.budget.chase_max_triggers)) {
      if (ctx.stats != nullptr) ++ctx.stats->chase_budget_trips;
      return Status::ResourceExhausted(
          StrCat("chase trigger budget exceeded: ",
                 ctx.budget.chase_max_triggers, " allowed, std ", i + 1,
                 " of ", mapping.stds().size(), " brings the total to ",
                 fired));
    }
    minted += witnesses.size() * exist_vars.size();
    if (OverCap(minted, ctx.budget.chase_max_nulls)) {
      if (ctx.stats != nullptr) ++ctx.stats->chase_budget_trips;
      return Status::ResourceExhausted(
          StrCat("chase fresh-null budget exceeded: ",
                 ctx.budget.chase_max_nulls, " allowed, std ", i + 1, " of ",
                 mapping.stds().size(), " brings the total to ", minted));
    }

    auto shared_vars =
        std::make_shared<const std::vector<std::string>>(body_vars);
    if (ctx.indexed()) {
      OCDX_RETURN_IF_ERROR(
          FireCompiled(std_, i, shared_vars, exist_vars, witnesses, universe,
                       &out));
    } else {
      OCDX_RETURN_IF_ERROR(
          FireLiteral(std_, i, shared_vars, exist_vars, witnesses, universe,
                      &out));
    }
    if (ctx.stats != nullptr) ctx.stats->chase_triggers += witnesses.size();
  }
  return out;
}

}  // namespace ocdx
