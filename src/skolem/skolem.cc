#include "skolem/skolem.h"

#include <set>

#include "logic/parser.h"
#include "semantics/iso_enum.h"
#include "util/str.h"

namespace ocdx {

std::map<std::string, size_t> MappingFunctions(const Mapping& mapping) {
  std::map<std::string, size_t> out;
  for (const AnnotatedStd& std_ : mapping.stds()) {
    for (const auto& [name, arity] : FunctionsIn(std_.body)) {
      out[name] = arity;
    }
    for (const HeadAtom& atom : std_.head) {
      for (const Term& t : atom.terms) {
        if (t.IsFunc()) out[t.name] = t.args.size();
      }
    }
  }
  return out;
}

namespace {

Term SkolemizeTerm(const Term& t, const std::map<std::string, Term>& subst) {
  if (t.IsVar()) {
    auto it = subst.find(t.name);
    if (it != subst.end()) return it->second;
  }
  return t;
}

}  // namespace

Result<Mapping> Skolemize(const Mapping& mapping) {
  OCDX_RETURN_IF_ERROR(mapping.Validate(/*allow_functions=*/false));
  Mapping out(mapping.source(), mapping.target());
  for (size_t i = 0; i < mapping.stds().size(); ++i) {
    const AnnotatedStd& std_ = mapping.stds()[i];
    std::vector<Term> body_var_terms;
    for (const std::string& v : std_.BodyVars()) {
      body_var_terms.push_back(Term::Var(v));
    }
    std::map<std::string, Term> subst;
    for (const std::string& z : std_.ExistentialVars()) {
      subst[z] = Term::Func(StrCat("sk_", i, "_", z), body_var_terms);
    }
    AnnotatedStd sk = std_;
    for (HeadAtom& atom : sk.head) {
      for (Term& t : atom.terms) t = SkolemizeTerm(t, subst);
    }
    out.AddStd(std::move(sk));
  }
  OCDX_RETURN_IF_ERROR(out.Validate(/*allow_functions=*/true));
  return out;
}

Result<Mapping> EnsureSkolemized(const Mapping& mapping) {
  bool has_existential = false;
  for (const AnnotatedStd& std_ : mapping.stds()) {
    if (!std_.ExistentialVars().empty()) {
      has_existential = true;
      break;
    }
  }
  if (!has_existential) return mapping;
  if (mapping.IsSkolemized()) {
    return Status::InvalidArgument(
        "mapping mixes existential head variables with function terms; "
        "Skolemize the existential variables explicitly");
  }
  return Skolemize(mapping);
}

Result<Value> TableOracle::Apply(const std::string& func, const Tuple& args) {
  auto it = table_.find({func, args});
  if (it == table_.end()) {
    return Status::NotFound(
        StrCat("no interpretation for ground term ", func, "/", args.size()));
  }
  return it->second;
}

Result<Value> TermNullOracle::Apply(const std::string& func,
                                    const Tuple& args) {
  auto key = std::make_pair(func, args);
  auto it = slots_.find(key);
  if (it != slots_.end()) return it->second;
  NullInfo info;
  info.var = func;
  info.witness = universe_->InternWitness(args);
  info.label = StrCat("t_", func, slots_.size());
  Value null = universe_->MintNull(std::move(info));
  slots_.emplace(key, null);
  return null;
}

Result<Value> RecordingOracle::Apply(const std::string& func,
                                     const Tuple& args) {
  Result<Value> hit = table_->Apply(func, args);
  if (hit.ok()) return hit;
  auto key = std::make_pair(func, args);
  auto it = placeholders_.find(key);
  if (it != placeholders_.end()) return it->second;
  NullInfo info;
  info.var = func;
  info.witness = universe_->InternWitness(args);
  info.label = StrCat("p_", func, placeholders_.size());
  Value null = universe_->MintNull(std::move(info));
  placeholders_.emplace(key, null);
  return null;
}

namespace {

Result<Value> EvalSkolemHeadTerm(const Term& t, const Env& env,
                                 FunctionOracle* oracle) {
  switch (t.kind) {
    case Term::Kind::kConst:
      return t.constant;
    case Term::Kind::kVar: {
      auto it = env.find(t.name);
      if (it == env.end()) {
        return Status::InvalidArgument(
            StrCat("SkSTD head variable '", t.name,
                   "' is not a body variable (SkSTDs have no existential "
                   "variables)"));
      }
      return it->second;
    }
    case Term::Kind::kFunc: {
      Tuple args;
      args.reserve(t.args.size());
      for (const Term& a : t.args) {
        OCDX_ASSIGN_OR_RETURN(Value v, EvalSkolemHeadTerm(a, env, oracle));
        args.push_back(v);
      }
      return oracle->Apply(t.name, args);
    }
  }
  return Status::Internal("unknown term kind");
}

}  // namespace

namespace {

// A function term occurring in a rule body, together with the positive
// relational atoms conjoined with it (its *guards*). Only argument
// bindings satisfying the guards can influence the rule: if a binding
// violates a guard, the enclosing conjunction is false no matter what
// value the function takes.
struct FuncSite {
  Term func;
  std::vector<FormulaPtr> guards;
};

void CollectTermSites(const Term& t, const std::vector<FormulaPtr>& guards,
                      std::vector<FuncSite>* out, bool* nested) {
  if (t.IsFunc()) {
    out->push_back({t, guards});
    for (const Term& a : t.args) {
      if (a.IsFunc()) *nested = true;
    }
  }
  for (const Term& a : t.args) CollectTermSites(a, guards, out, nested);
}

// Positive relational atoms reachable through nested And / Exists.
void GatherGuardAtoms(const FormulaPtr& f, std::vector<FormulaPtr>* atoms) {
  switch (f->kind()) {
    case Formula::Kind::kAtom:
      atoms->push_back(f);
      return;
    case Formula::Kind::kAnd:
      for (const FormulaPtr& c : f->children()) GatherGuardAtoms(c, atoms);
      return;
    case Formula::Kind::kExists:
      GatherGuardAtoms(f->children()[0], atoms);
      return;
    default:
      return;
  }
}

// Drops guards that mention any of `vars` (rebinding invalidates them).
std::vector<FormulaPtr> DropShadowed(const std::vector<FormulaPtr>& guards,
                                     const std::vector<std::string>& vars) {
  std::vector<FormulaPtr> out;
  for (const FormulaPtr& g : guards) {
    bool shadowed = false;
    for (const std::string& v : FreeVars(g)) {
      for (const std::string& b : vars) {
        if (v == b) shadowed = true;
      }
    }
    if (!shadowed) out.push_back(g);
  }
  return out;
}

void CollectFuncSites(const FormulaPtr& f, std::vector<FormulaPtr> guards,
                      std::vector<FuncSite>* out, bool* nested) {
  switch (f->kind()) {
    case Formula::Kind::kTrue:
    case Formula::Kind::kFalse:
      return;
    case Formula::Kind::kAtom:
    case Formula::Kind::kEquals:
      for (const Term& t : f->terms()) {
        CollectTermSites(t, guards, out, nested);
      }
      return;
    case Formula::Kind::kAnd: {
      std::vector<FormulaPtr> inner = guards;
      GatherGuardAtoms(f, &inner);
      for (const FormulaPtr& c : f->children()) {
        CollectFuncSites(c, inner, out, nested);
      }
      return;
    }
    case Formula::Kind::kOr:
    case Formula::Kind::kNot:
    case Formula::Kind::kImplies:
      for (const FormulaPtr& c : f->children()) {
        CollectFuncSites(c, guards, out, nested);
      }
      return;
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      std::vector<FormulaPtr> filtered = DropShadowed(guards, f->bound());
      // Atoms *inside* the quantifier still guard sites inside it; the
      // recursive kAnd case collects them.
      CollectFuncSites(f->children()[0], filtered, out, nested);
      return;
    }
  }
}

}  // namespace

Result<SlotSet> DemandedBodySlots(const Mapping& mapping,
                                  const Instance& source,
                                  Universe* universe,
                                  const EngineContext& ctx) {
  SlotSet out;
  std::vector<Value> adom = source.ActiveDomain();
  Evaluator eval(source, *universe, ctx);

  for (const AnnotatedStd& std_ : mapping.stds()) {
    std::vector<FuncSite> sites;
    bool nested = false;
    CollectFuncSites(std_.body, {}, &sites, &nested);
    if (nested) {
      return Status::Unimplemented(
          "nested function terms in rule bodies are not supported");
    }
    for (const FuncSite& site : sites) {
      // Argument variables and which of them the guards bind.
      std::vector<std::string> arg_vars;
      for (const Term& a : site.func.args) {
        if (a.IsVar()) arg_vars.push_back(a.name);
      }
      std::set<std::string> guard_vars;
      FormulaPtr guard_conj = Formula::And(site.guards);
      for (const std::string& v : FreeVars(guard_conj)) guard_vars.insert(v);

      std::vector<std::string> bound_args;
      for (const std::string& v : arg_vars) {
        if (guard_vars.count(v)) bound_args.push_back(v);
      }
      // Deduplicate while preserving order.
      std::vector<std::string> uniq;
      for (const std::string& v : bound_args) {
        if (std::find(uniq.begin(), uniq.end(), v) == uniq.end()) {
          uniq.push_back(v);
        }
      }

      // Bindings of the guard-bound argument variables.
      std::vector<Tuple> bindings;
      if (uniq.empty()) {
        bindings.push_back(Tuple{});
      } else {
        std::vector<std::string> other;
        for (const std::string& v : FreeVars(guard_conj)) {
          if (std::find(uniq.begin(), uniq.end(), v) == uniq.end()) {
            other.push_back(v);
          }
        }
        FormulaPtr projected =
            Formula::Exists(std::move(other), guard_conj);
        OCDX_ASSIGN_OR_RETURN(Relation rel, eval.Answers(projected, uniq));
        bindings = rel.SortedTuples();
      }

      // Materialize slots: guard-bound vars from bindings, unbound vars
      // from the full active domain, constants as themselves.
      for (const Tuple& binding : bindings) {
        Env env;
        for (size_t i = 0; i < uniq.size(); ++i) env[uniq[i]] = binding[i];
        // Odometer over unbound argument variables.
        std::vector<std::string> unbound;
        for (const std::string& v : arg_vars) {
          if (!guard_vars.count(v) &&
              std::find(unbound.begin(), unbound.end(), v) == unbound.end()) {
            unbound.push_back(v);
          }
        }
        std::vector<size_t> idx(unbound.size(), 0);
        if (!unbound.empty() && adom.empty()) continue;
        while (true) {
          for (size_t i = 0; i < unbound.size(); ++i) {
            env[unbound[i]] = adom[idx[i]];
          }
          Tuple args;
          bool ok = true;
          for (const Term& a : site.func.args) {
            if (a.IsConst()) {
              args.push_back(a.constant);
            } else if (a.IsVar()) {
              auto it = env.find(a.name);
              if (it == env.end()) {
                ok = false;
                break;
              }
              args.push_back(it->second);
            }
          }
          if (ok) out.insert({site.func.name, args});
          // Advance.
          size_t p = unbound.size();
          bool done = unbound.empty();
          while (p > 0) {
            --p;
            if (++idx[p] < adom.size()) break;
            idx[p] = 0;
            if (p == 0) done = true;
          }
          if (done) break;
        }
      }
    }
  }
  return out;
}

Result<AnnotatedInstance> SolveSkolem(const Mapping& mapping,
                                      const Instance& source,
                                      FunctionOracle* oracle,
                                      Universe* universe,
                                      const EngineContext& ctx) {
  OCDX_RETURN_IF_ERROR(mapping.Validate(/*allow_functions=*/true));
  OCDX_RETURN_IF_ERROR(mapping.source().Validate(source));

  AnnotatedInstance out;
  for (const RelationDecl& decl : mapping.target().decls()) {
    out.GetOrCreate(decl.name, decl.arity());
  }

  // Extend the evaluation domain with the images of the *demanded* body
  // slots (guard analysis), so that equalities y = f(z-bar) can bind y.
  std::vector<Value> extra_domain;
  {
    OCDX_ASSIGN_OR_RETURN(SlotSet slots,
                          DemandedBodySlots(mapping, source, universe, ctx));
    std::set<Value> images;
    for (const auto& [func, args] : slots) {
      Result<Value> img = oracle->Apply(func, args);
      if (img.ok()) images.insert(img.value());
    }
    extra_domain.assign(images.begin(), images.end());
  }

  Evaluator eval(source, *universe, ctx);
  eval.AddDomainValues(extra_domain);
  eval.set_function_oracle(oracle);

  for (const AnnotatedStd& std_ : mapping.stds()) {
    if (!std_.ExistentialVars().empty()) {
      return Status::InvalidArgument(
          "SkSTD heads must use only body variables and function terms "
          "(run Skolemize() first)");
    }
    const std::vector<std::string> body_vars = std_.BodyVars();

    std::vector<Tuple> witnesses;
    if (body_vars.empty()) {
      OCDX_ASSIGN_OR_RETURN(bool holds, eval.Holds(std_.body));
      if (holds) witnesses.push_back(Tuple{});
    } else {
      OCDX_ASSIGN_OR_RETURN(Relation answers,
                            eval.Answers(std_.body, body_vars));
      witnesses = answers.SortedTuples();
    }

    if (witnesses.empty()) {
      for (const HeadAtom& atom : std_.head) {
        out.Add(atom.rel, AnnotatedTuple::EmptyMarker(atom.ann));
      }
      continue;
    }
    for (const Tuple& w : witnesses) {
      Env env;
      for (size_t i = 0; i < body_vars.size(); ++i) env[body_vars[i]] = w[i];
      for (const HeadAtom& atom : std_.head) {
        Tuple t;
        t.reserve(atom.terms.size());
        for (const Term& term : atom.terms) {
          OCDX_ASSIGN_OR_RETURN(Value v,
                                EvalSkolemHeadTerm(term, env, oracle));
          t.push_back(v);
        }
        out.Add(atom.rel, AnnotatedTuple(std::move(t), atom.ann));
      }
    }
  }
  return out;
}

namespace {

// Do any function terms occur in rule *bodies*?
bool HasBodyFunctions(const Mapping& mapping) {
  for (const AnnotatedStd& std_ : mapping.stds()) {
    if (!FunctionsIn(std_.body).empty()) return true;
  }
  return false;
}

// Applies a valuation to every proper tuple of an annotated instance.
AnnotatedInstance ApplyValuationAnnotated(const AnnotatedInstance& t,
                                          const Valuation& v) {
  AnnotatedInstance out;
  for (const auto& [name, rel] : t.relations()) {
    AnnotatedRelation& dst = out.GetOrCreate(name, rel.arity());
    for (const AnnotatedTupleRef& at : rel.tuples()) {
      if (at.IsEmptyMarker()) {
        dst.Add(at);
      } else {
        Tuple mapped = v.Apply(at.values);
        dst.Add(AnnotatedTupleRef{mapped, at.ann});
      }
    }
  }
  return out;
}

}  // namespace

Status ForEachInterpretation(const Mapping& mapping, const Instance& source,
                             const std::vector<Value>& fixed,
                             std::string_view slot_prefix,
                             uint64_t max_interpretations, Universe* universe,
                             const EngineContext& ctx,
                             const InterpretationVisitor& visit,
                             SkolemMembership* out) {
  // Phase 1: the *demanded* body slots (guard analysis): only these can
  // change which witnesses fire. Phase 2: head-term slots demanded during
  // each solve, discovered as placeholder nulls and valuated afterwards.
  OCDX_ASSIGN_OR_RETURN(SlotSet demanded,
                        DemandedBodySlots(mapping, source, universe, ctx));
  std::vector<std::pair<std::string, Tuple>> slots(demanded.begin(),
                                                   demanded.end());
  std::vector<Value> slot_nulls;
  for (size_t i = 0; i < slots.size(); ++i) {
    slot_nulls.push_back(universe->FreshNull(StrCat(slot_prefix, i)));
  }

  // Both phases share one deadline/cancellation gauge (logic/budget.h):
  // the space is exponential in the slot count, and the
  // per-interpretation solves alone do not poll often enough. False once
  // the interpretation cap is passed.
  BudgetGauge gauge(ctx.budget, ctx.stats);
  auto admit = [&]() -> Result<bool> {
    OCDX_RETURN_IF_ERROR(gauge.Tick());
    if (++out->interpretations_checked <= max_interpretations) return true;
    out->exhaustive = false;
    return false;
  };
  ValuationEnumerator phase1(slot_nulls, fixed, universe);
  Valuation v1;
  while (phase1.Next(&v1)) {
    OCDX_ASSIGN_OR_RETURN(bool admitted, admit());
    if (!admitted) return Status::OK();
    TableOracle table;
    std::vector<Value> fixed2 = fixed;
    for (size_t i = 0; i < slots.size(); ++i) {
      Value img = v1.Apply(slot_nulls[i]);
      table.Set(slots[i].first, slots[i].second, img);
      fixed2.push_back(img);
    }
    RecordingOracle oracle(&table, universe);
    OCDX_ASSIGN_OR_RETURN(AnnotatedInstance sol,
                          SolveSkolem(mapping, source, &oracle, universe, ctx));

    // Phase 2: valuate the placeholder (head-slot) nulls that actually
    // reached solution tuples; placeholders that only entered the
    // evaluation domain are irrelevant.
    std::set<Value> in_tuples;
    for (Value v : sol.Nulls()) in_tuples.insert(v);
    std::vector<Value> phase2_nulls;
    for (const auto& [slot, null] : oracle.placeholders()) {
      if (in_tuples.count(null)) phase2_nulls.push_back(null);
    }
    ValuationEnumerator phase2(phase2_nulls, fixed2, universe);
    Valuation v2;
    while (phase2.Next(&v2)) {
      OCDX_ASSIGN_OR_RETURN(admitted, admit());
      if (!admitted) return Status::OK();
      OCDX_ASSIGN_OR_RETURN(bool member, visit(sol, v2));
      if (member) {
        out->member = true;
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

Result<SkolemMembership> InSkolemSemantics(const Mapping& mapping,
                                           const Instance& source,
                                           const Instance& target,
                                           Universe* universe,
                                           SkolemMembershipOptions options,
                                           const EngineContext& ctx) {
  if (!target.IsGround()) {
    return Status::InvalidArgument(
        "SkSTD semantics membership is defined for ground targets");
  }
  // `call_ctx` gains a plan table only on the explicit-enumeration path
  // below: that path re-evaluates the same SkSTD bodies once per
  // candidate interpretation, while the term-keyed fast path solves
  // exactly once and would pay cache setup for nothing.
  EngineContext call_ctx = ctx;
  for (const AnnotatedStd& std_ : mapping.stds()) {
    if (!std_.ExistentialVars().empty()) {
      // Plain STD rules: Skolemize first (Lemma 4), then decide.
      OCDX_ASSIGN_OR_RETURN(Mapping skolemized, EnsureSkolemized(mapping));
      return InSkolemSemantics(skolemized, source, target, universe, options,
                               call_ctx);
    }
  }
  SkolemMembership out;

  if (!HasBodyFunctions(mapping)) {
    // Exact term-keyed path (the F' ~ v correspondence of Lemma 4):
    // every ground head term becomes a null; a valuation of those nulls
    // is exactly an interpretation of the used slots.
    TermNullOracle oracle(universe);
    OCDX_ASSIGN_OR_RETURN(AnnotatedInstance sol,
                          SolveSkolem(mapping, source, &oracle, universe, call_ctx));
    OCDX_ASSIGN_OR_RETURN(out.member,
                          InRepA(sol, target, nullptr, options.repa, call_ctx));
    out.exhaustive = true;
    out.method = "term-keyed nulls (Lemma 4)";
    out.interpretations_checked = 1;
    return out;
  }

  // Explicit enumeration of interpretations.
  call_ctx.EnsureCache();
  out.method = "explicit F' enumeration (two-phase, up to isomorphism)";
  OCDX_RETURN_IF_ERROR(ForEachInterpretation(
      mapping, source,
      DistinguishedConstants({source.ActiveDomain(), target.ActiveDomain()},
                             {&mapping}),
      "s", options.max_interpretations, universe, call_ctx,
      [&](const AnnotatedInstance& sol, const Valuation& v2) {
        return InRepA(ApplyValuationAnnotated(sol, v2), target, nullptr,
                      options.repa, call_ctx);
      },
      &out));
  return out;
}

std::string ToSecondOrderSentence(const Mapping& mapping,
                                  const Universe& universe) {
  std::map<std::string, size_t> funcs = MappingFunctions(mapping);
  std::string out;
  if (!funcs.empty()) {
    out += "exists";
    for (const auto& [name, arity] : funcs) {
      out += " ";
      out += name;
      out += "/";
      out += std::to_string(arity);
    }
    out += " . ";
  }
  bool first = true;
  for (const AnnotatedStd& std_ : mapping.stds()) {
    if (!first) out += " & ";
    first = false;
    std::vector<std::string> vars = std_.BodyVars();
    out += "forall ";
    out += Join(vars, " ");
    out += ". (";
    out += std_.body->ToString(universe);
    out += " -> ";
    std::vector<std::string> atoms;
    for (const HeadAtom& atom : std_.head) {
      atoms.push_back(atom.ToString(universe));
    }
    out += Join(atoms, " & ");
    out += ")";
  }
  return out;
}

}  // namespace ocdx
