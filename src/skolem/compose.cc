#include "skolem/compose.h"

#include <functional>
#include <set>

#include "logic/classify.h"
#include "util/str.h"

namespace ocdx {

namespace {

// One normal-form Sigma rule: a single head atom and its body.
struct NormalRule {
  HeadAtom atom;
  FormulaPtr body;
};

// Collects term variables.
void TermVars(const Term& t, std::set<std::string>* out) {
  if (t.IsVar()) out->insert(t.name);
  for (const Term& a : t.args) TermVars(a, out);
}

// Applies a variable renaming to a term.
Term RenameTermVars(const Term& t,
                    const std::map<std::string, std::string>& ren) {
  Term out = t;
  if (out.IsVar()) {
    auto it = ren.find(out.name);
    if (it != ren.end()) out.name = it->second;
  }
  for (Term& a : out.args) a = RenameTermVars(a, ren);
  return out;
}

// Rewrites every tau-atom of `f` through beta_R. `counter` generates
// globally fresh variable names.
class BetaRewriter {
 public:
  BetaRewriter(const std::map<std::string, std::vector<NormalRule>>& rules,
               const Schema& tau, size_t* counter)
      : rules_(rules), tau_(tau), counter_(counter) {}

  Result<FormulaPtr> Rewrite(const FormulaPtr& f) {
    switch (f->kind()) {
      case Formula::Kind::kTrue:
      case Formula::Kind::kFalse:
      case Formula::Kind::kEquals:
        return f;
      case Formula::Kind::kAtom:
        return RewriteAtom(f);
      case Formula::Kind::kNot: {
        OCDX_ASSIGN_OR_RETURN(FormulaPtr c, Rewrite(f->children()[0]));
        return Formula::Not(std::move(c));
      }
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        std::vector<FormulaPtr> cs;
        for (const FormulaPtr& c : f->children()) {
          OCDX_ASSIGN_OR_RETURN(FormulaPtr r, Rewrite(c));
          cs.push_back(std::move(r));
        }
        return f->kind() == Formula::Kind::kAnd ? Formula::And(std::move(cs))
                                                : Formula::Or(std::move(cs));
      }
      case Formula::Kind::kImplies: {
        OCDX_ASSIGN_OR_RETURN(FormulaPtr a, Rewrite(f->children()[0]));
        OCDX_ASSIGN_OR_RETURN(FormulaPtr b, Rewrite(f->children()[1]));
        return Formula::Implies(std::move(a), std::move(b));
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForall: {
        OCDX_ASSIGN_OR_RETURN(FormulaPtr c, Rewrite(f->children()[0]));
        return f->kind() == Formula::Kind::kExists
                   ? Formula::Exists(f->bound(), std::move(c))
                   : Formula::Forall(f->bound(), std::move(c));
      }
    }
    return Status::Internal("unknown formula kind");
  }

 private:
  Result<FormulaPtr> RewriteAtom(const FormulaPtr& atom) {
    if (!tau_.Contains(atom->rel())) {
      return Status::InvalidArgument(
          StrCat("Delta body atom '", atom->rel(),
                 "' is not a relation of the intermediate schema"));
    }
    auto it = rules_.find(atom->rel());
    if (it == rules_.end()) {
      // No Sigma rule produces this relation: beta_R = false. (Validated
      // mappings cover every target relation, so this cannot happen for
      // validated Sigma.)
      return Formula::False();
    }
    std::vector<FormulaPtr> disjuncts;
    for (const NormalRule& rule : it->second) {
      // Freshly rename the sigma-rule's variables.
      std::set<std::string> vars;
      for (const std::string& v : FreeVars(rule.body)) vars.insert(v);
      for (const Term& t : rule.atom.terms) TermVars(t, &vars);
      std::map<std::string, std::string> ren;
      std::vector<std::string> fresh_names;
      for (const std::string& v : vars) {
        std::string fresh = StrCat("v", (*counter_)++);
        ren[v] = fresh;
        fresh_names.push_back(fresh);
      }
      FormulaPtr body = RenameVars(rule.body, ren);
      // y-bar = u-bar_j equalities.
      std::vector<FormulaPtr> conj = {body};
      for (size_t p = 0; p < atom->terms().size(); ++p) {
        conj.push_back(Formula::Eq(atom->terms()[p],
                                   RenameTermVars(rule.atom.terms[p], ren)));
      }
      disjuncts.push_back(
          Formula::Exists(std::move(fresh_names), Formula::And(std::move(conj))));
    }
    return Formula::Or(std::move(disjuncts));
  }

  const std::map<std::string, std::vector<NormalRule>>& rules_;
  const Schema& tau_;
  size_t* counter_;
};

// DNF of a positive-existential formula as lists of atomic conjuncts,
// with existential quantifiers dropped (sound for SkSTD bodies whose
// quantified variables are globally fresh, per Lemma 5's proof). Returns
// Unimplemented if the formula is not positive-existential.
Status DnfConjuncts(const FormulaPtr& f,
                    std::vector<std::vector<FormulaPtr>>* out) {
  switch (f->kind()) {
    case Formula::Kind::kTrue:
      out->push_back({});
      return Status::OK();
    case Formula::Kind::kFalse:
      return Status::OK();
    case Formula::Kind::kAtom:
    case Formula::Kind::kEquals:
      out->push_back({f});
      return Status::OK();
    case Formula::Kind::kAnd: {
      std::vector<std::vector<FormulaPtr>> acc = {{}};
      for (const FormulaPtr& c : f->children()) {
        std::vector<std::vector<FormulaPtr>> child;
        OCDX_RETURN_IF_ERROR(DnfConjuncts(c, &child));
        std::vector<std::vector<FormulaPtr>> next;
        for (const auto& a : acc) {
          for (const auto& b : child) {
            std::vector<FormulaPtr> merged = a;
            merged.insert(merged.end(), b.begin(), b.end());
            next.push_back(std::move(merged));
          }
        }
        acc = std::move(next);
      }
      out->insert(out->end(), acc.begin(), acc.end());
      return Status::OK();
    }
    case Formula::Kind::kOr: {
      for (const FormulaPtr& c : f->children()) {
        OCDX_RETURN_IF_ERROR(DnfConjuncts(c, out));
      }
      return Status::OK();
    }
    case Formula::Kind::kExists:
      return DnfConjuncts(f->children()[0], out);
    default:
      return Status::Unimplemented(
          "CQ flattening applies only to positive-existential bodies");
  }
}

}  // namespace

Result<ComposeSkolemResult> ComposeSkolem(const Mapping& sigma,
                                          const Mapping& delta,
                                          Universe* universe) {
  (void)universe;
  OCDX_RETURN_IF_ERROR(sigma.Validate(/*allow_functions=*/true));
  OCDX_RETURN_IF_ERROR(delta.Validate(/*allow_functions=*/true));

  // Lemma 5 operates on SkSTDs; Skolemize plain STD inputs (Lemma 4).
  {
    OCDX_ASSIGN_OR_RETURN(Mapping s, EnsureSkolemized(sigma));
    OCDX_ASSIGN_OR_RETURN(Mapping d, EnsureSkolemized(delta));
    bool changed = s.IsSkolemized() != sigma.IsSkolemized() ||
                   d.IsSkolemized() != delta.IsSkolemized();
    if (changed) return ComposeSkolem(s, d, universe);
  }

  // Schema compatibility: sigma's target is delta's source.
  for (const RelationDecl& d : delta.source().decls()) {
    const RelationDecl* s = sigma.target().Find(d.name);
    if (s == nullptr || s->arity() != d.arity()) {
      return Status::InvalidArgument(
          StrCat("intermediate schemas differ on relation '", d.name, "'"));
    }
  }

  // Step 1: rename sigma's function symbols apart from delta's.
  Mapping sigma_r = sigma;
  {
    std::map<std::string, size_t> sf = MappingFunctions(sigma);
    std::map<std::string, size_t> df = MappingFunctions(delta);
    std::map<std::string, std::string> ren;
    for (const auto& [name, arity] : sf) {
      if (df.count(name)) ren[name] = name + "#s";
    }
    if (!ren.empty()) {
      Mapping renamed(sigma.source(), sigma.target());
      for (const AnnotatedStd& std_ : sigma.stds()) {
        AnnotatedStd r = std_;
        r.body = RenameFunctions(r.body, ren);
        for (HeadAtom& atom : r.head) {
          for (Term& t : atom.terms) {
            // Rename function symbols in head terms.
            std::function<void(Term&)> rec = [&](Term& term) {
              if (term.IsFunc()) {
                auto it = ren.find(term.name);
                if (it != ren.end()) term.name = it->second;
              }
              for (Term& a : term.args) rec(a);
            };
            rec(t);
          }
        }
        renamed.AddStd(std::move(r));
      }
      sigma_r = std::move(renamed);
    }
  }

  // Step 2: normal form of sigma (one head atom per rule).
  std::map<std::string, std::vector<NormalRule>> rules;
  for (const AnnotatedStd& std_ : sigma_r.stds()) {
    for (const HeadAtom& atom : std_.head) {
      rules[atom.rel].push_back(NormalRule{atom, std_.body});
    }
  }

  // Step 3: rewrite each delta body through beta_R.
  size_t counter = 0;
  BetaRewriter rewriter(rules, delta.source(), &counter);
  Mapping gamma(sigma.source(), delta.target());
  for (const AnnotatedStd& std_ : delta.stds()) {
    AnnotatedStd g = std_;
    OCDX_ASSIGN_OR_RETURN(g.body, rewriter.Rewrite(std_.body));
    gamma.AddStd(std::move(g));
  }

  ComposeSkolemResult out{std::move(gamma), false};

  // Step 4: CQ flattening when both inputs are CQ mappings.
  if (sigma.HasCQBodies() && delta.HasCQBodies()) {
    Mapping flat(out.gamma.source(), out.gamma.target());
    bool ok = true;
    for (const AnnotatedStd& std_ : out.gamma.stds()) {
      std::vector<std::vector<FormulaPtr>> dnf;
      Status st = DnfConjuncts(std_.body, &dnf);
      if (!st.ok()) {
        ok = false;
        break;
      }
      for (auto& conjuncts : dnf) {
        AnnotatedStd piece = std_;
        piece.body = Formula::And(std::move(conjuncts));
        flat.AddStd(std::move(piece));
      }
    }
    if (ok) {
      out.gamma = std::move(flat);
      out.flattened_to_cq = true;
    }
  }

  OCDX_RETURN_IF_ERROR(out.gamma.Validate(/*allow_functions=*/true));
  return out;
}

Result<SkolemMembership> InSkolemComposition(const Mapping& sigma,
                                             const Mapping& delta,
                                             const Instance& source,
                                             const Instance& target,
                                             Universe* universe,
                                             SkolemMembershipOptions options,
                                             const EngineContext& ctx) {
  bool delta_open_monotone =
      delta.IsAllOpen() && delta.HasMonotoneBodies();
  bool sigma_closed = sigma.IsAllClosed();
  if (!delta_open_monotone && !sigma_closed) {
    return Status::Unimplemented(
        "semantic SkSTD composition is implemented for the Theorem 5 "
        "classes: all-open+monotone Delta or all-closed Sigma");
  }

  // Lemma 4: plain STD rules become Skolemized rules first.
  for (const AnnotatedStd& std_ : sigma.stds()) {
    if (!std_.ExistentialVars().empty()) {
      OCDX_ASSIGN_OR_RETURN(Mapping sk, EnsureSkolemized(sigma));
      return InSkolemComposition(sk, delta, source, target, universe,
                                 options, ctx);
    }
  }

  // Enumerate Sigma interpretations; the minimal intermediate
  // J = rel(Sol_{F'}(S)) suffices in both supported classes (all-closed:
  // RepA is a singleton; all-open+monotone Delta: Claim 8).
  SkolemMembership out;
  out.method = sigma_closed
                   ? "J = Sol_F'(S) (all-closed Sigma)"
                   : "J = Sol_F'(S) (monotone all-open Delta, Claim 8)";

  // One plan table for the whole composition decision (unless the
  // caller attached one): the interpretation loops below re-run Sigma's
  // bodies per phase-1 valuation and Delta's per intermediate J.
  EngineContext call_ctx = ctx;
  call_ctx.EnsureCache();

  OCDX_RETURN_IF_ERROR(ForEachInterpretation(
      sigma, source,
      DistinguishedConstants({source.ActiveDomain(), target.ActiveDomain()},
                             {&sigma, &delta}),
      "cs", options.max_interpretations, universe, call_ctx,
      [&](const AnnotatedInstance& sol, const Valuation& v2) -> Result<bool> {
        Instance j = v2.ApplyRelPart(sol);
        for (const RelationDecl& d : sigma.target().decls()) {
          j.GetOrCreate(d.name, d.arity());
        }
        OCDX_ASSIGN_OR_RETURN(
            SkolemMembership inner,
            InSkolemSemantics(delta, j, target, universe, options, call_ctx));
        if (!inner.exhaustive) out.exhaustive = false;
        return inner.member;
      },
      &out));
  return out;
}

}  // namespace ocdx
