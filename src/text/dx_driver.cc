#include "text/dx_driver.h"

#include <algorithm>
#include <map>
#include <optional>

#include "certain/certain.h"
#include "chase/canonical.h"
#include "compose/compose.h"
#include "logic/budget.h"
#include "logic/classify.h"
#include "obs/trace.h"
#include "plan/compile.h"
#include "semantics/membership.h"
#include "semantics/repa.h"
#include "semantics/solutions.h"
#include "skolem/compose.h"
#include "skolem/skolem.h"
#include "text/canonical_render.h"
#include "util/str.h"

namespace ocdx {

bool DxChasePairOk(const DxMappingDecl& m, const DxInstanceDecl& i) {
  return !m.mapping.IsSkolemized() && !i.annotated && i.over == m.from;
}

namespace {

const char* YesNo(bool b) { return b ? "yes" : "no"; }

// ---------------------------------------------------------------------------
// Governed (budget/deadline/cancellation) error rendering
// ---------------------------------------------------------------------------

// Budget trips are *results*, not failures of the driver: they render as
// positioned `error ...` lines inside the command output — so a batch run
// keeps its byte-identity guarantee and the remaining inputs still run —
// while the first one is also reported out-of-band through the `governed`
// out-parameter for exit-code and summary purposes. Hard errors (parse
// bugs, internal invariants) still abort the command as before.
bool Governed(const Status& status) {
  return IsBudgetStatusCode(status.code());
}

// Records the run's first trip. Any other error is not a trip, so it is
// ignored here: the caller either aborts on it or renders it inline.
void NoteGoverned(const Status& status, Status* governed) {
  if (Governed(status) && governed != nullptr && governed->ok()) {
    *governed = status;
  }
}

// The positioned error block for a failed (mapping, instance) pair. The
// position is the mapping declaration's — the budget was exceeded while
// executing *its* rules — which both engines and every parallelism level
// agree on.
std::string MappingErrorLine(const DxMappingDecl& m, const Status& status) {
  return StrCat("  error (mapping ", m.name, ", line ", m.line, ", col ",
                m.col, "): ", status.ToString(), "\n");
}

// ---------------------------------------------------------------------------
// Input enumeration
// ---------------------------------------------------------------------------

// The run's canonical solutions, one per (mapping, instance) pair: by
// Corollary 2 it serves the chase, certain and membership sections alike.
// A pair in options.prechased is borrowed from that store when a chase
// under the run's budget would not trip (FitsChaseBudget); any other is
// chased at first use into the run's universe, and the outcome — the
// solution or its governed trip — answers every later lookup of the run.
// A store built under a looser budget than the run's thus still reports
// the trip a cold run reports. Callers read the solution in place.
class RunSolutions {
 public:
  RunSolutions(Universe* u, const DxDriverOptions& options)
      : u_(u), options_(options) {}

  Result<const CanonicalSolution*> Get(const DxMappingDecl& m,
                                       const DxInstanceDecl& inst) {
    if (options_.prechased != nullptr) {
      const CanonicalSolution* hit =
          options_.prechased->Find(m.name, inst.name);
      if (hit != nullptr && FitsChaseBudget(*hit, options_.engine.budget)) {
        return hit;
      }
    }
    std::optional<Result<CanonicalSolution>>& slot = chased_[{&m, &inst}];
    if (!slot) slot.emplace(Chase(m.mapping, inst.plain, u_, options_.engine));
    if (!slot->ok()) return slot->status();
    return &slot->value();
  }

 private:
  Universe* u_;
  const DxDriverOptions& options_;
  std::map<std::pair<const DxMappingDecl*, const DxInstanceDecl*>,
           std::optional<Result<CanonicalSolution>>>
      chased_;
};

template <typename Pred>
bool AnyInstance(const DxScenario& sc, Pred pred) {
  return std::any_of(sc.instances.begin(), sc.instances.end(), pred);
}

bool QueryOverTarget(const DxQuery& q, const Mapping& m) {
  for (const std::string& rel : RelationsIn(q.formula)) {
    if (!m.target().Contains(rel)) return false;
  }
  return true;
}

struct ComposeInputs {
  const DxMappingDecl* sigma = nullptr;
  const DxMappingDecl* delta = nullptr;
  const DxInstanceDecl* source = nullptr;
  const DxInstanceDecl* target = nullptr;
};

// Structural selection only; semantic requirements (groundness etc.) are
// reported by the composition engines themselves.
Result<ComposeInputs> SelectComposeInputs(const DxScenario& sc,
                                          const DxDriverOptions& options) {
  ComposeInputs in;
  auto named_mapping = [&](const std::string& name,
                           const char* what) -> Result<const DxMappingDecl*> {
    const DxMappingDecl* m = sc.FindMapping(name);
    if (m == nullptr) {
      return Status::NotFound(StrCat(what, " mapping '", name, "' not found"));
    }
    return m;
  };
  if (!options.sigma.empty()) {
    OCDX_ASSIGN_OR_RETURN(in.sigma, named_mapping(options.sigma, "sigma"));
  }
  if (!options.delta.empty()) {
    OCDX_ASSIGN_OR_RETURN(in.delta, named_mapping(options.delta, "delta"));
  }
  if (in.sigma == nullptr || in.delta == nullptr) {
    const DxMappingDecl* sigma = nullptr;
    const DxMappingDecl* delta = nullptr;
    for (const DxMappingDecl& s : sc.mappings) {
      if (in.sigma != nullptr && &s != in.sigma) continue;
      for (const DxMappingDecl& d : sc.mappings) {
        if (&s == &d) continue;
        if (in.delta != nullptr && &d != in.delta) continue;
        if (s.to != d.from) continue;
        sigma = &s;
        delta = &d;
        break;
      }
      if (sigma != nullptr) break;
    }
    if (sigma == nullptr) {
      return Status::NotFound(
          "no composable mapping pair (need sigma: s -> t and delta: t -> w)");
    }
    in.sigma = sigma;
    in.delta = delta;
  }
  if (in.sigma->to != in.delta->from) {
    return Status::InvalidArgument(
        StrCat("mappings '", in.sigma->name, "' and '", in.delta->name,
               "' do not compose (target schema '", in.sigma->to,
               "' vs source schema '", in.delta->from, "')"));
  }
  auto pick_instance =
      [&](const std::string& name, const std::string& over,
          const char* what) -> Result<const DxInstanceDecl*> {
    if (!name.empty()) {
      const DxInstanceDecl* i = sc.FindInstance(name);
      if (i == nullptr) {
        return Status::NotFound(
            StrCat(what, " instance '", name, "' not found"));
      }
      return i;
    }
    for (const DxInstanceDecl& i : sc.instances) {
      if (!i.annotated && i.over == over) return &i;
    }
    return Status::NotFound(
        StrCat("no plain instance over schema '", over, "' for the ", what,
               " of the composition"));
  };
  OCDX_ASSIGN_OR_RETURN(
      in.source, pick_instance(options.source, in.sigma->from, "source"));
  OCDX_ASSIGN_OR_RETURN(
      in.target, pick_instance(options.target, in.delta->to, "target"));
  return in;
}

bool HasComposePair(const DxScenario& sc) {
  return SelectComposeInputs(sc, DxDriverOptions{}).ok();
}

// ---------------------------------------------------------------------------
// classify
// ---------------------------------------------------------------------------

const char* DeqaCell(size_t num_open) {
  if (num_open == 0) return "coNP-complete (Thm 3.1)";
  if (num_open == 1) return "coNEXPTIME-complete (Thm 3.2)";
  return "undecidable (Thm 3.3)";
}

const char* ComposeCell(size_t num_open) {
  if (num_open == 0) return "NP-complete (Table 1)";
  if (num_open == 1) return "NEXPTIME-complete (Table 1)";
  return "undecidable (Table 1)";
}

std::string ClassifyText(const DxScenario& sc) {
  std::string out = StrCat("schemas=", sc.schemas.size(), ", mappings=",
                           sc.mappings.size(), ", instances=",
                           sc.instances.size(), ", queries=",
                           sc.queries.size(), "\n");
  for (const DxMappingDecl& decl : sc.mappings) {
    const Mapping& m = decl.mapping;
    const char* ann = m.IsAllOpen()    ? "all-open"
                      : m.IsAllClosed() ? "all-closed"
                                        : "mixed";
    out += StrCat("mapping ", decl.name, " (", decl.from, " -> ", decl.to,
                  "): stds=", m.stds().size(), ", #op=", m.MaxOpenPerAtom(),
                  ", #cl=", m.MaxClosedPerAtom(), ", annotation=", ann, "\n");
    out += StrCat("  bodies: CQ=", YesNo(m.HasCQBodies()), ", monotone=",
                  YesNo(m.HasMonotoneBodies()), ", skolemized=",
                  YesNo(m.IsSkolemized()), "\n");
    out += StrCat("  DEQA for FO queries (Thm 3): ",
                  DeqaCell(m.MaxOpenPerAtom()), "\n");
    out += StrCat("  composition membership as sigma (Thm 4): ",
                  ComposeCell(m.MaxOpenPerAtom()), "\n");
  }
  for (const DxQuery& q : sc.queries) {
    out += StrCat("query ", q.name, "(", Join(q.vars, ", "), "): class=",
                  QueryClassToString(Classify(q.formula)),
                  ", quantifier rank=", QuantifierRank(q.formula),
                  q.vars.empty() ? ", boolean" : "", "\n");
  }
  return out;
}

// ---------------------------------------------------------------------------
// chase
// ---------------------------------------------------------------------------

Status CheckMappingSelection(const DxScenario& sc,
                             const DxDriverOptions& options) {
  if (!options.mapping.empty() &&
      sc.FindMapping(options.mapping) == nullptr) {
    return Status::NotFound(
        StrCat("mapping '", options.mapping, "' not found"));
  }
  return Status::OK();
}

Result<std::string> ChaseText(const DxScenario& sc, Universe* u,
                              const DxDriverOptions& options,
                              RunSolutions* solutions, Status* governed) {
  OCDX_RETURN_IF_ERROR(CheckMappingSelection(sc, options));
  std::string out;
  for (const DxMappingDecl& m : sc.mappings) {
    if (!options.mapping.empty() && m.name != options.mapping) continue;
    for (const DxInstanceDecl& inst : sc.instances) {
      if (!DxChasePairOk(m, inst)) continue;
      Result<const CanonicalSolution*> chased = solutions->Get(m, inst);
      if (!chased.ok()) {
        if (!Governed(chased.status())) return chased.status();
        NoteGoverned(chased.status(), governed);
        out += StrCat("chase ", m.name, " / ", inst.name, ":\n",
                      MappingErrorLine(m, chased.status()));
        continue;
      }
      const CanonicalSolution& csol = *chased.value();
      size_t markers = 0;
      for (const auto& [rel_name, rel] : csol.annotated.relations()) {
        markers += rel.size() - rel.NumProperTuples();
      }
      size_t fresh = 0;
      for (const ChaseTrigger& t : csol.triggers) {
        fresh += t.fresh_nulls.size();
      }
      out += StrCat("chase ", m.name, " / ", inst.name, ":\n");
      {
        obs::ScopedSpan span(options.engine, obs::kPhaseRender);
        RenderAnnotatedInstance(csol.annotated, *u,
                                CanonicalNullNames(csol.annotated, *u), "  ",
                                &out);
      }
      out += StrCat("  triggers=", csol.triggers.size(), ", fresh nulls=",
                    fresh, ", empty markers=", markers, "\n");
    }
  }
  if (out.empty()) {
    return Status::NotFound(
        "no applicable (plain mapping, plain instance over its source "
        "schema) pair for chase");
  }
  return out;
}

// ---------------------------------------------------------------------------
// certain
// ---------------------------------------------------------------------------

Result<std::string> CertainText(const DxScenario& sc, Universe* u,
                                const DxDriverOptions& options,
                                RunSolutions* solutions, Status* governed) {
  OCDX_RETURN_IF_ERROR(CheckMappingSelection(sc, options));
  std::string out;
  for (const DxMappingDecl& m : sc.mappings) {
    if (!options.mapping.empty() && m.name != options.mapping) continue;
    for (const DxInstanceDecl& inst : sc.instances) {
      if (!DxChasePairOk(m, inst)) continue;
      std::vector<const DxQuery*> applicable;
      for (const DxQuery& q : sc.queries) {
        if (QueryOverTarget(q, m.mapping)) applicable.push_back(&q);
      }
      if (applicable.empty()) continue;
      Result<const CanonicalSolution*> csol = solutions->Get(m, inst);
      if (!csol.ok()) {
        if (!Governed(csol.status())) return csol.status();
        NoteGoverned(csol.status(), governed);
        out += StrCat("certain ", m.name, " / ", inst.name, ":\n",
                      MappingErrorLine(m, csol.status()));
        continue;
      }
      CertainAnswerEngine engine(m.mapping, *csol.value(), u, options.engine);
      out += StrCat("certain ", m.name, " / ", inst.name, ":\n");
      for (const DxQuery* q : applicable) {
        // Guard-depth diagnostic (static shape analysis, so the note is
        // byte-identical under every engine mode): negated sub-CQ guards
        // deeper than one level fall back to the generic evaluator; say
        // so instead of degrading silently.
        if (plan::GuardDepthExceeded(q->formula)) {
          out += StrCat("  note: ", q->name, " (line ", q->line, ", col ",
                        q->col,
                        "): negated guard nested deeper than one level; "
                        "evaluated without a CQ plan\n");
        }
        std::string head = StrCat("  ", q->name, "(", Join(q->vars, ", "),
                                  ")");
        // Per-query governed failures render in the query's own slot; the
        // remaining queries of the pair still run.
        auto query_error = [&](const Status& status) -> Status {
          if (!Governed(status)) return status;
          NoteGoverned(status, governed);
          out += StrCat(head, " = error (line ", q->line, ", col ", q->col,
                        "): ", status.ToString(), "\n");
          return Status::OK();
        };
        if (q->vars.empty()) {
          Result<CertainVerdict> verdict = [&] {
            obs::ScopedSpan span(options.engine, obs::kPhasePlanExec);
            return engine.IsCertainBoolean(q->formula);
          }();
          if (!verdict.ok()) {
            OCDX_RETURN_IF_ERROR(query_error(verdict.status()));
            continue;
          }
          out += StrCat(head, " = ", YesNo(verdict.value().certain), "  [",
                        verdict.value().method, "; exhaustive=",
                        YesNo(verdict.value().exhaustive), "]\n");
        } else {
          CertainVerdict verdict;
          Result<Relation> answers = [&] {
            obs::ScopedSpan span(options.engine, obs::kPhasePlanExec);
            return engine.CertainAnswers(q->formula, q->vars, &verdict);
          }();
          if (!answers.ok()) {
            OCDX_RETURN_IF_ERROR(query_error(answers.status()));
            continue;
          }
          out += StrCat(head, " = ");
          {
            obs::ScopedSpan span(options.engine, obs::kPhaseRender);
            RenderRelation(answers.value(), *u, &out);
          }
          out += StrCat("  [", verdict.method, "; exhaustive=",
                        YesNo(verdict.exhaustive), "]\n");
        }
      }
    }
  }
  if (out.empty()) {
    return Status::NotFound(
        "no applicable (mapping, instance, query) triple for certain");
  }
  return out;
}

// ---------------------------------------------------------------------------
// membership
// ---------------------------------------------------------------------------

// Solution-space triples: every (mapping, plain source over its source
// schema, plain *ground* candidate over its target schema). Skolemized
// mappings are decided through the SkSTD semantics (Lemma 4), plain ones
// through Theorem 2 (all-open PTIME path or chase + RepA search).
bool MembershipTripleOk(const DxMappingDecl& m, const DxInstanceDecl& s,
                        const DxInstanceDecl& t) {
  return !s.annotated && s.over == m.from && !t.annotated &&
         t.over == m.to && t.plain.IsGround() && &s != &t;
}

// RepA pairs: an annotated instance A and a plain ground instance G over
// the same schema.
bool RepAPairOk(const DxInstanceDecl& a, const DxInstanceDecl& g) {
  return a.annotated && !g.annotated && g.over == a.over &&
         g.plain.IsGround();
}

bool HasMembershipTarget(const DxScenario& sc, const DxMappingDecl& m,
                         const DxInstanceDecl& s) {
  return AnyInstance(sc, [&](const DxInstanceDecl& t) {
    return MembershipTripleOk(m, s, t);
  });
}

bool HasRepAInstance(const DxScenario& sc, const DxInstanceDecl& a) {
  return AnyInstance(
      sc, [&](const DxInstanceDecl& g) { return RepAPairOk(a, g); });
}

bool HasMembershipInputs(const DxScenario& sc) {
  for (const DxMappingDecl& m : sc.mappings) {
    for (const DxInstanceDecl& s : sc.instances) {
      if (HasMembershipTarget(sc, m, s)) return true;
    }
  }
  return AnyInstance(
      sc, [&](const DxInstanceDecl& a) { return HasRepAInstance(sc, a); });
}

Result<std::string> MembershipText(const DxScenario& sc, Universe* u,
                                   const DxDriverOptions& options,
                                   RunSolutions* solutions,
                                   Status* governed) {
  OCDX_RETURN_IF_ERROR(CheckMappingSelection(sc, options));
  std::string out;
  for (const DxMappingDecl& m : sc.mappings) {
    if (!options.mapping.empty() && m.name != options.mapping) continue;
    for (const DxInstanceDecl& s : sc.instances) {
      if (!HasMembershipTarget(sc, m, s)) continue;
      out += StrCat("membership ", m.name, " / ", s.name, ":\n");
      // One lookup per (mapping, source); every candidate below reads
      // CSolA(S) through InSolutionSpaceGiven. The all-open and Skolem
      // paths need no solution at all.
      const bool skolem = m.mapping.IsSkolemized();
      const bool all_open = m.mapping.IsAllOpen();
      const CanonicalSolution* csol = nullptr;
      // All-open requirement formulas built once per (mapping, source):
      // the plan table keys on formula identity, so the per-candidate
      // Theorem 2 checks below reuse one compiled plan per STD.
      std::vector<FormulaPtr> reqs;
      if (!skolem && all_open) reqs = StdRequirements(m.mapping);
      if (!skolem && !all_open) {
        Result<const CanonicalSolution*> chased = solutions->Get(m, s);
        if (!chased.ok()) {
          if (!Governed(chased.status())) return chased.status();
          NoteGoverned(chased.status(), governed);
          out += MappingErrorLine(m, chased.status());
          continue;
        }
        csol = chased.value();
      }
      for (const DxInstanceDecl& t : sc.instances) {
        if (!MembershipTripleOk(m, s, t)) continue;
        // Per-candidate governed failures render in the candidate's slot;
        // the remaining candidates still run.
        auto candidate_error = [&](const Status& status) -> Status {
          if (!Governed(status)) return status;
          NoteGoverned(status, governed);
          out += StrCat("  ", t.name, ": error: ", status.ToString(), "\n");
          return Status::OK();
        };
        if (skolem) {
          Result<SkolemMembership> v = InSkolemSemantics(
              m.mapping, s.plain, t.plain, u, {}, options.engine);
          if (!v.ok()) {
            OCDX_RETURN_IF_ERROR(candidate_error(v.status()));
            continue;
          }
          out += StrCat("  ", t.name, ": member=", YesNo(v.value().member),
                        ", exhaustive=", YesNo(v.value().exhaustive), "  [",
                        v.value().method, "]\n");
          continue;
        }
        // The witnessing valuation is engine-dependent (search order)
        // and is deliberately not printed.
        bool member;
        if (all_open) {
          // Theorem 2: with the all-open annotation, T in [[S]] iff
          // (S,T) |= Sigma — the same check InSolutionSpace would make,
          // with the hoisted requirement formulas.
          Result<bool> sat = SatisfiesStds(m.mapping, reqs, s.plain, t.plain,
                                           *u, options.engine);
          if (!sat.ok()) {
            OCDX_RETURN_IF_ERROR(candidate_error(sat.status()));
            continue;
          }
          member = sat.value();
        } else {
          Result<MembershipResult> v = InSolutionSpaceGiven(
              csol->annotated, t.plain, {}, options.engine);
          if (!v.ok()) {
            OCDX_RETURN_IF_ERROR(candidate_error(v.status()));
            continue;
          }
          member = v.value().member;
        }
        out += StrCat("  ", t.name, ": member=", YesNo(member), "  [",
                      all_open
                          ? "direct STD check (all-open, PTIME, Thm 2)"
                          : "chase + RepA search (NP, Thm 2)",
                      "]\n");
      }
    }
  }
  for (const DxInstanceDecl& a : sc.instances) {
    if (!HasRepAInstance(sc, a)) continue;
    out += StrCat("repa ", a.name, ":\n");
    for (const DxInstanceDecl& g : sc.instances) {
      if (!RepAPairOk(a, g)) continue;
      Result<bool> member =
          InRepA(a.annotated_instance, g.plain, nullptr, {}, options.engine);
      if (!member.ok()) {
        if (!Governed(member.status())) return member.status();
        NoteGoverned(member.status(), governed);
        out += StrCat("  ", g.name, ": error: ", member.status().ToString(),
                      "\n");
        continue;
      }
      out += StrCat("  ", g.name, ": member=", YesNo(member.value()), "\n");
    }
  }
  if (out.empty()) {
    return Status::NotFound(
        "no applicable membership input: need a (mapping, plain source, "
        "ground target) triple or an (annotated instance, ground "
        "instance) pair");
  }
  return out;
}

// ---------------------------------------------------------------------------
// compose
// ---------------------------------------------------------------------------

Result<std::string> ComposeText(const DxScenario& sc, Universe* u,
                                const DxDriverOptions& options,
                                Status* governed) {
  OCDX_ASSIGN_OR_RETURN(ComposeInputs in, SelectComposeInputs(sc, options));
  std::string out =
      StrCat("compose ", in.sigma->name, " o ", in.delta->name, " on (",
             in.source->name, ", ", in.target->name, "):\n");

  bool skolemized =
      in.sigma->mapping.IsSkolemized() || in.delta->mapping.IsSkolemized();
  if (skolemized) {
    Result<SkolemMembership> verdict = InSkolemComposition(
        in.sigma->mapping, in.delta->mapping, in.source->plain,
        in.target->plain, u, {}, options.engine);
    if (!verdict.ok()) {
      NoteGoverned(verdict.status(), governed);
      out += StrCat("  membership: error: ", verdict.status().message(),
                    "\n");
    } else {
      out += StrCat("  membership: member=", YesNo(verdict.value().member),
                    ", exhaustive=", YesNo(verdict.value().exhaustive), "  [",
                    verdict.value().method, "]\n");
    }
  } else {
    Result<ComposeVerdict> verdict =
        InComposition(in.sigma->mapping, in.delta->mapping, in.source->plain,
                      in.target->plain, u, {}, options.engine);
    if (!verdict.ok()) {
      NoteGoverned(verdict.status(), governed);
      out += StrCat("  membership: error: ", verdict.status().message(),
                    "\n");
    } else {
      out += StrCat("  membership: member=", YesNo(verdict.value().member),
                    ", exhaustive=", YesNo(verdict.value().exhaustive), "  [",
                    verdict.value().method, "]\n");
    }
  }

  // Lemma 5 syntactic composition: Skolemize plain inputs (Lemma 4), run
  // the rewriting, and show the resulting gamma : sigma-source -> omega.
  auto syntactic = [&]() -> Result<std::string> {
    OCDX_ASSIGN_OR_RETURN(Mapping sk_sigma,
                          EnsureSkolemized(in.sigma->mapping));
    OCDX_ASSIGN_OR_RETURN(Mapping sk_delta,
                          EnsureSkolemized(in.delta->mapping));
    OCDX_ASSIGN_OR_RETURN(ComposeSkolemResult gamma,
                          ComposeSkolem(sk_sigma, sk_delta, u));
    std::string text = StrCat("  syntactic composition (Lemma 5): ",
                              gamma.gamma.stds().size(), " SkSTDs, "
                              "flattened to CQ=",
                              YesNo(gamma.flattened_to_cq), "\n");
    for (const AnnotatedStd& std_ : gamma.gamma.stds()) {
      text += StrCat("    ", std_.ToString(*u), ";\n");
    }
    return text;
  };
  Result<std::string> gamma_text = syntactic();
  if (gamma_text.ok()) {
    out += gamma_text.value();
  } else {
    out += StrCat("  syntactic composition (Lemma 5): not available: ",
                  gamma_text.status().message(), "\n");
  }
  return out;
}

// ---------------------------------------------------------------------------

// True iff `command` ("chase" or "certain") has an input for mapping `m`:
// a chase pair, and for certain also a query over m's target schema.
bool MappingApplies(const DxScenario& sc, const DxMappingDecl& m,
                    const std::string& command) {
  bool pair = AnyInstance(
      sc, [&](const DxInstanceDecl& i) { return DxChasePairOk(m, i); });
  if (!pair || command == "chase") return pair;
  return std::any_of(
      sc.queries.begin(), sc.queries.end(),
      [&](const DxQuery& q) { return QueryOverTarget(q, m.mapping); });
}

bool AnyMappingApplies(const DxScenario& sc, const std::string& command) {
  return std::any_of(
      sc.mappings.begin(), sc.mappings.end(),
      [&](const DxMappingDecl& m) { return MappingApplies(sc, m, command); });
}

// One section of a run; every section shares the run's solutions.
Result<std::string> RunSection(const DxScenario& sc,
                               const std::string& command, Universe* u,
                               const DxDriverOptions& options,
                               RunSolutions* solutions, Status* governed) {
  if (command == "classify") return ClassifyText(sc);
  if (command == "chase") {
    return ChaseText(sc, u, options, solutions, governed);
  }
  if (command == "certain") {
    return CertainText(sc, u, options, solutions, governed);
  }
  if (command == "membership") {
    return MembershipText(sc, u, options, solutions, governed);
  }
  if (command == "compose") return ComposeText(sc, u, options, governed);
  return Status::InvalidArgument(
      StrCat("unknown command '", command,
             "' (expected chase, certain, classify, membership, compose or "
             "all)"));
}

}  // namespace

std::vector<std::string> ApplicableDxCommands(const DxScenario& scenario) {
  std::vector<std::string> out = {"classify"};
  if (AnyMappingApplies(scenario, "chase")) out.push_back("chase");
  if (AnyMappingApplies(scenario, "certain")) out.push_back("certain");
  if (HasMembershipInputs(scenario)) out.push_back("membership");
  if (HasComposePair(scenario)) out.push_back("compose");
  return out;
}

EngineContext DxRunContext(const DxScenario& scenario,
                           const EngineContext& engine) {
  EngineContext run = engine;
  run.EnsureCache();
  for (const auto& [key, value] : scenario.budget_settings) {
    Budget b;
    SetBudgetField(&b, key, value);
    run.budget.Tighten(b);
  }
  run.budget.ArmDeadline();
  return run;
}

Result<std::string> RunDxCommand(const DxScenario& scenario,
                                 const std::string& command,
                                 Universe* universe,
                                 const DxDriverOptions& options,
                                 Status* governed) {
  // One plan table, one budget and one set of solutions per run: every
  // evaluation of every section below shares them, so the enumeration-
  // heavy commands compile each (query, schema, mode) once and an `all`
  // run chases each pair once. Neither the table nor the sharing ever
  // changes output bytes — the golden corpus pins that under both
  // engines. The deadline starts here, once for a whole `all` run.
  DxDriverOptions run = options;
  run.engine = DxRunContext(scenario, options.engine);
  RunSolutions solutions(universe, run);
  if (command != "all") {
    return RunSection(scenario, command, universe, run, &solutions, governed);
  }
  std::string out;
  if (!scenario.name.empty()) {
    out += StrCat("scenario '", scenario.name, "'\n");
  }
  for (const std::string& cmd : ApplicableDxCommands(scenario)) {
    out += StrCat("== ", cmd, " ==\n");
    OCDX_ASSIGN_OR_RETURN(
        std::string text,
        RunSection(scenario, cmd, universe, run, &solutions, governed));
    out += text;
  }
  return out;
}

}  // namespace ocdx
