// Randomized parity tests for the indexed evaluation engine: the
// slot-compiled, hash-indexed join plans (TryEvalCQ), the indexed chase,
// homomorphism search and RepA search must be observationally identical
// to the generic engine (JoinEngineMode::kGeneric), which applies the
// definitions literally: active-domain CQ evaluation, the per-witness
// chase loop, the static-order homomorphism scan and the unpruned RepA
// search. Several test names still say "Naive": they predate the removal
// of the nested-loop engine and are kept as stable test IDs. Also pins
// the HomSearch step-accounting contract: max_steps counts index probes.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "certain/certain.h"
#include "generic_corpus.h"
#include "chase/canonical.h"
#include "logic/cq_eval.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "mapping/rule_parser.h"
#include "plan/plan_table.h"
#include "semantics/homomorphism.h"
#include "semantics/membership.h"
#include "semantics/repa.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"
#include "util/rng.h"
#include "util/str.h"
#include "workloads/scenarios.h"
#include "workloads/tripartite.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Generated-CQ parity over the conference / tripartite workload instances.
// ---------------------------------------------------------------------------

// Builds a random conjunction of atoms over the instance's schema, with
// constants from its active domain, an occasional equality and an
// occasional negated guard, then projects a random non-empty subset of
// the variables away with `exists`, keeping at least one output. The
// projection is what lets a plan stop at its first witness (the out
// slots are fixed before the last step). Guard variables are bound by
// the atoms or by the guard's own `exists g`, so the query stays safe.
FormulaPtr RandomCq(const Instance& inst, Rng* rng,
                    std::vector<std::string>* order) {
  static const std::vector<std::string> kPool = {"x", "y", "z", "w"};
  std::vector<std::pair<std::string, size_t>> rels;
  for (const auto& [name, rel] : inst.relations()) {
    rels.push_back({name, rel.arity()});
  }
  const std::vector<Value> adom = inst.ActiveDomain();
  auto constant = [&] { return Term::Constant(adom[rng->Below(adom.size())]); };
  std::vector<FormulaPtr> conj;
  std::set<std::string> used;
  size_t natoms = 1 + rng->Below(3);
  for (size_t i = 0; i < natoms; ++i) {
    const auto& [name, arity] = rels[rng->Below(rels.size())];
    std::vector<Term> terms;
    for (size_t p = 0; p < arity; ++p) {
      if (!adom.empty() && rng->Chance(1, 5)) {
        terms.push_back(constant());
        continue;
      }
      const std::string& v = kPool[rng->Below(kPool.size())];
      used.insert(v);
      terms.push_back(Term::Var(v));
    }
    conj.push_back(Formula::Atom(name, std::move(terms)));
  }
  std::vector<std::string> vars(used.begin(), used.end());
  if (vars.size() >= 2 && rng->Chance(1, 3)) {
    conj.push_back(Formula::Eq(Term::Var(vars[0]), Term::Var(vars[1])));
  }
  if (!vars.empty() && rng->Chance(1, 3)) {
    const auto& [name, arity] = rels[rng->Below(rels.size())];
    std::vector<Term> terms;
    bool inner = false;
    for (size_t p = 0; p < arity; ++p) {
      uint64_t pick = rng->Below(4);
      if (pick == 0 && !adom.empty()) {
        terms.push_back(constant());
      } else if (pick == 1) {
        terms.push_back(Term::Var("g"));
        inner = true;
      } else {
        terms.push_back(Term::Var(vars[rng->Below(vars.size())]));
      }
    }
    FormulaPtr atom = Formula::Atom(name, std::move(terms));
    conj.push_back(Formula::Not(inner ? Formula::Exists({"g"}, atom) : atom));
  }
  FormulaPtr body = Formula::And(std::move(conj));
  order->clear();
  if (vars.size() < 2) {
    *order = vars;
    return body;
  }
  // Keep a random non-empty proper subset as outputs; project the rest.
  std::vector<std::string> projected;
  size_t keep = 1 + rng->Below(vars.size() - 1);
  for (size_t i = 0; i < vars.size(); ++i) {
    size_t left = vars.size() - i;
    bool take = rng->Below(left) < keep - order->size();
    (take ? *order : projected).push_back(vars[i]);
  }
  return Formula::Exists(std::move(projected), std::move(body));
}

// Relations whose columns hold very different numbers of distinct
// values: Hop's columns range over 12 nodes, Lab's second column over 3
// colours, Tag's second column over 1 value. Keying a step on a colour
// column fans out by a third of the relation, on a node column by one
// row — the contrast the join-order cost model reads.
Instance SkewedInstance(Universe* u, Rng* rng) {
  constexpr size_t kNodes = 12;
  auto node = [u](size_t i) { return u->Const(StrCat("n", i)); };
  Instance inst;
  for (size_t i = 0; i < kNodes; ++i) {
    for (int e = 0; e < 3; ++e) {
      inst.Add("Hop", {node(i), node(rng->Below(kNodes))});
    }
    inst.Add("Lab", {node(i), u->Const(StrCat("c", rng->Below(3)))});
    if (rng->Chance(1, 2)) inst.Add("Tag", {node(i), u->Const("t")});
  }
  return inst;
}

class CqEngineParity : public ::testing::TestWithParam<int> {};

TEST_P(CqEngineParity, IndexedNaiveAndGenericAgree) {
  Rng rng(911 + GetParam());
  Universe u;
  // Three workload instances: a small conference source, a tripartite
  // reduction target (which mixes several relations and constants), and
  // a skewed graph.
  Result<ConferenceScenario> conf = BuildConferenceScenario(5, 2, &u);
  ASSERT_TRUE(conf.ok());
  TripartiteInstance tri = TripartiteWithMatching(3, 2, &rng);
  Result<TripartiteReduction> red = BuildTripartiteReduction(tri, &u);
  ASSERT_TRUE(red.ok());
  Instance skewed = SkewedInstance(&u, &rng);

  for (const Instance* inst : {&conf.value().source, &red.value().source,
                               &red.value().target, &skewed}) {
    for (int q = 0; q < 8; ++q) {
      std::vector<std::string> order;
      FormulaPtr f = RandomCq(*inst, &rng, &order);
      if (order.empty()) continue;

      std::optional<Relation> fast = TryEvalCQ(f, order, *inst);
      ASSERT_TRUE(fast.has_value()) << f->ToString(u);

      Evaluator ev(*inst, u, EngineContext::ForMode(JoinEngineMode::kGeneric));
      Result<Relation> slow = ev.Answers(f, order);
      ASSERT_TRUE(slow.ok());
      EXPECT_TRUE(*fast == slow.value())
          << "seed " << GetParam() << " query " << q << ": " << f->ToString(u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CqEngineParity, ::testing::Range(0, 32));

// Answers with an empty output order is a sentence's truth as a 0-arity
// relation, {()} or {}, under both engines: CQ-shaped sentences run as
// relational plans under kIndexed, everything runs the domain odometer
// under kGeneric, and an empty instance leaves the odometer an empty
// domain, over which the sentence is still evaluated once.
TEST(SentenceParity, ZeroArityAnswersAgreeAcrossEngines) {
  Universe u;
  Instance graph;
  graph.Add("E", {u.Const("a"), u.Const("b")});
  graph.Add("E", {u.Const("b"), u.Const("c")});
  graph.Add("P", {u.Const("c")});
  Instance empty;
  empty.GetOrCreate("E", 2);
  empty.GetOrCreate("P", 1);
  const char* const kSentences[] = {
      "exists x y. E(x, y)",
      "exists x y z. E(x, y) & E(y, z) & P(z)",
      "exists x. E(x, 'a')",
      "exists x y. E(x, y) & !P(y)",
      "forall x y. E(x, y) -> !P(x)",
      "forall x. P(x)",
  };
  for (const Instance* inst : {&graph, &empty}) {
    for (const char* text : kSentences) {
      SCOPED_TRACE(std::string(text) +
                   (inst == &empty ? " (empty instance)" : ""));
      Result<FormulaPtr> f = ParseFormula(text, &u);
      ASSERT_TRUE(f.ok()) << f.status().ToString();
      Evaluator generic(*inst, u,
                        EngineContext::ForMode(JoinEngineMode::kGeneric));
      Result<bool> holds = generic.Holds(f.value());
      ASSERT_TRUE(holds.ok()) << holds.status().ToString();
      for (JoinEngineMode mode :
           {JoinEngineMode::kIndexed, JoinEngineMode::kGeneric}) {
        Evaluator ev(*inst, u, EngineContext::ForMode(mode));
        Result<Relation> answers = ev.Answers(f.value(), {});
        ASSERT_TRUE(answers.ok()) << answers.status().ToString();
        EXPECT_EQ(answers.value().arity(), 0u);
        EXPECT_EQ(answers.value().size(), holds.value() ? 1u : 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Homomorphism parity: indexed vs generic (static-order scan) vs brute
// force.
// ---------------------------------------------------------------------------

// Exhaustive reference: does any map Null(a) -> Null(b) send every proper
// tuple of `a` (annotation preserved) into `b`, with a's markers in b?
bool BruteForceHomExists(const AnnotatedInstance& a,
                         const AnnotatedInstance& b) {
  std::vector<Value> a_nulls = a.Nulls();
  std::vector<Value> b_nulls = b.Nulls();
  for (const auto& [name, rel] : a.relations()) {
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      if (!t.IsEmptyMarker()) continue;
      const AnnotatedRelation* brel = b.Find(name);
      if (brel == nullptr || !brel->Contains(t)) return false;
    }
  }
  if (a_nulls.empty()) {
    NullMap id;
    for (const auto& [name, rel] : a.relations()) {
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        if (t.IsEmptyMarker()) continue;
        const AnnotatedRelation* brel = b.Find(name);
        if (brel == nullptr ||
            !brel->Contains(AnnotatedTuple(id.Apply(t.values), t.ann))) {
          return false;
        }
      }
    }
    return true;
  }
  if (b_nulls.empty()) b_nulls.push_back(a_nulls[0]);  // Doomed but total.
  std::vector<size_t> choice(a_nulls.size(), 0);
  while (true) {
    NullMap h;
    for (size_t i = 0; i < a_nulls.size(); ++i) {
      h.Set(a_nulls[i], b_nulls[choice[i]]);
    }
    bool ok = true;
    for (const auto& [name, rel] : a.relations()) {
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        if (t.IsEmptyMarker() || !ok) continue;
        const AnnotatedRelation* brel = b.Find(name);
        if (brel == nullptr ||
            !brel->Contains(AnnotatedTuple(h.Apply(t.values), t.ann))) {
          ok = false;
        }
      }
    }
    if (ok) return true;
    size_t p = 0;
    while (p < choice.size() && ++choice[p] == b_nulls.size()) {
      choice[p++] = 0;
    }
    if (p == choice.size()) return false;
  }
}

AnnotatedInstance RandomAnnotated(Universe* u, Rng* rng,
                                  const std::vector<Value>& nulls,
                                  size_t tuples) {
  AnnotatedInstance out;
  for (size_t i = 0; i < tuples; ++i) {
    Tuple t;
    for (int p = 0; p < 2; ++p) {
      if (rng->Below(3) == 0) {
        t.push_back(u->Const(std::string(1, 'a' + (char)rng->Below(3))));
      } else {
        t.push_back(nulls[rng->Below(nulls.size())]);
      }
    }
    AnnVec ann = rng->Below(2) == 0 ? AllOpen(2) : AllClosed(2);
    out.Add("R", std::move(t), std::move(ann));
  }
  return out;
}

class HomEngineParity : public ::testing::TestWithParam<int> {};

TEST_P(HomEngineParity, IndexedAgreesWithNaiveAndBruteForce) {
  Universe u;
  Rng rng(1234 + GetParam());
  std::vector<Value> a_nulls, b_nulls;
  for (int i = 0; i < 3; ++i) a_nulls.push_back(u.FreshNull());
  for (int i = 0; i < 3; ++i) b_nulls.push_back(u.FreshNull());
  AnnotatedInstance a = RandomAnnotated(&u, &rng, a_nulls, 2 + rng.Below(3));
  AnnotatedInstance b = RandomAnnotated(&u, &rng, b_nulls, 2 + rng.Below(4));

  Result<std::optional<NullMap>> indexed = FindHomomorphism(a, b);
  ASSERT_TRUE(indexed.ok());
  Result<std::optional<NullMap>> generic = FindHomomorphism(
      a, b, {}, EngineContext::ForMode(JoinEngineMode::kGeneric));
  ASSERT_TRUE(generic.ok());
  bool brute = BruteForceHomExists(a, b);

  EXPECT_EQ(indexed.value().has_value(), brute) << "seed " << GetParam();
  EXPECT_EQ(generic.value().has_value(), brute) << "seed " << GetParam();
  // A returned witness must actually be a homomorphism.
  if (indexed.value().has_value()) {
    const NullMap& h = *indexed.value();
    for (const auto& [name, rel] : a.relations()) {
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        if (t.IsEmptyMarker()) continue;
        const AnnotatedRelation* brel = b.Find(name);
        ASSERT_NE(brel, nullptr);
        EXPECT_TRUE(brel->Contains(AnnotatedTuple(h.Apply(t.values), t.ann)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, HomEngineParity, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// End-to-end parity: chase and solution-space membership across engines.
// ---------------------------------------------------------------------------

TEST(EndToEndParity, ChaseAgreesAcrossEngines) {
  Universe u1, u2;
  Result<ConferenceScenario> sc1 = BuildConferenceScenario(13, 6, &u1);
  Result<ConferenceScenario> sc2 = BuildConferenceScenario(13, 6, &u2);
  ASSERT_TRUE(sc1.ok() && sc2.ok());
  Result<CanonicalSolution> indexed =
      Chase(sc1.value().mapping, sc1.value().source, &u1);
  ASSERT_TRUE(indexed.ok());
  Result<CanonicalSolution> generic =
      Chase(sc2.value().mapping, sc2.value().source, &u2,
            EngineContext::ForMode(JoinEngineMode::kGeneric));
  ASSERT_TRUE(generic.ok());
  // Same deterministic firing order in both engines: identical null ids,
  // hence identical annotated instances and trigger counts.
  EXPECT_TRUE(indexed.value().annotated == generic.value().annotated);
  EXPECT_EQ(indexed.value().triggers.size(), generic.value().triggers.size());
}

TEST(EndToEndParity, MembershipAgreesAcrossEngines) {
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(77 + seed);
    TripartiteInstance yes = TripartiteWithMatching(3, 2, &rng);
    TripartiteInstance no;
    no.n = 3;
    for (uint32_t i = 0; i < 3; ++i) {
      no.triples.push_back({0, i, i});
      no.triples.push_back({0, i, (i + 1) % 3});
    }
    for (const TripartiteInstance* tri : {&yes, &no}) {
      for (bool all_open : {true, false}) {
        std::vector<bool> members;
        for (JoinEngineMode mode :
             {JoinEngineMode::kIndexed, JoinEngineMode::kGeneric}) {
          Universe u;
          Result<TripartiteReduction> red =
              BuildTripartiteReduction(*tri, &u);
          ASSERT_TRUE(red.ok());
          Mapping mapping =
              all_open
                  ? red.value().mapping.WithUniformAnnotation(Ann::kOpen)
                  : red.value().mapping;
          Result<MembershipResult> r = InSolutionSpace(
              mapping, red.value().source, red.value().target, &u, {},
              EngineContext::ForMode(mode));
          ASSERT_TRUE(r.ok());
          members.push_back(r.value().member);
        }
        EXPECT_EQ(members[0], members[1]) << "seed " << seed;
      }
    }
  }
}

TEST(EndToEndParity, InRepAAgreesAcrossEngines) {
  for (int seed = 0; seed < 20; ++seed) {
    Universe u;
    Rng rng(4321 + seed);
    std::vector<Value> nulls;
    for (int i = 0; i < 3; ++i) nulls.push_back(u.FreshNull());
    AnnotatedInstance t = RandomAnnotated(&u, &rng, nulls, 2 + rng.Below(3));
    Instance ground;
    for (int i = 0; i < 6; ++i) {
      ground.Add("R", {u.Const(std::string(1, 'a' + (char)rng.Below(3))),
                       u.Const(std::string(1, 'a' + (char)rng.Below(3)))});
    }
    Result<bool> indexed = InRepA(t, ground);
    ASSERT_TRUE(indexed.ok());
    Result<bool> generic =
        InRepA(t, ground, nullptr, {},
               EngineContext::ForMode(JoinEngineMode::kGeneric));
    ASSERT_TRUE(generic.ok());
    EXPECT_EQ(indexed.value(), generic.value()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Certain-answer parity: kIndexed against kGeneric over the
// certain/ engines (CertainVerdict dispatch + RepA member enumeration),
// not just raw CQ evaluation. Randomizes the mapping's annotations, the
// source, the query, and whether the general (member_enum) engine is
// forced.
// ---------------------------------------------------------------------------

class CertainEngineParity : public ::testing::TestWithParam<int> {};

TEST_P(CertainEngineParity, VerdictsAgreeAcrossEngines) {
  const int seed = GetParam();
  Rng rng(31337 + seed);

  // Random annotation signature for the one STD.
  static const char* kRules[] = {
      "Submissions(x^cl, z^cl) :- Papers(x, y);",
      "Submissions(x^cl, z^op) :- Papers(x, y);",
      "Submissions(x^op, z^op) :- Papers(x, y);",
  };
  const std::string rules = kRules[rng.Below(3)];

  // Random boolean queries spanning the dispatch classes: positive,
  // forall-exists, and general FO (the member_enum path).
  static const char* kQueries[] = {
      "exists p a. Submissions(p, a)",
      "exists p. Submissions(p, 'x0')",
      "forall p a1 a2. (Submissions(p, a1) & Submissions(p, a2)) -> a1 = a2",
      "forall p a. Submissions(p, a) -> exists q. Submissions(q, 'x0')",
      "!(exists p. Submissions(p, 'zz'))",
  };

  // One random source, rebuilt identically per engine mode (fresh
  // universes keep null ids deterministic per mode).
  const size_t n_papers = 1 + rng.Below(3);
  const uint64_t src_seed = rng.Next();
  const size_t query_idx = rng.Below(5);
  const bool force_general = rng.Below(2) == 0;

  std::vector<bool> certains;
  std::vector<bool> exhaustives;
  std::vector<std::vector<Tuple>> answer_sets;
  for (JoinEngineMode mode :
       {JoinEngineMode::kIndexed, JoinEngineMode::kGeneric}) {
    Universe u;
    Schema src, tgt;
    src.Add("Papers", {"paper", "title"});
    tgt.Add("Submissions", {"paper", "author"});
    Result<Mapping> m = ParseMapping(rules, src, tgt, &u);
    ASSERT_TRUE(m.ok()) << m.status().ToString();

    Instance s;
    Rng srng(src_seed);
    for (size_t i = 0; i < n_papers; ++i) {
      s.Add("Papers",
            {u.Const("x" + std::to_string(srng.Below(3))),
             u.Const("t" + std::to_string(srng.Below(2)))});
    }

    Result<FormulaPtr> q = ParseFormula(kQueries[query_idx], &u);
    ASSERT_TRUE(q.ok()) << q.status().ToString();

    Result<CertainAnswerEngine> engine =
        CertainAnswerEngine::Create(m.value(), s, &u,
                                    EngineContext::ForMode(mode));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    CertainOptions opts;
    opts.force_general_engine = force_general;
    // Tight enumeration caps: the caps are identical in every engine
    // mode, so parity is preserved while the kGeneric evaluator stays
    // tractable on all-open annotations.
    opts.enum_options.fresh_pool = 1;
    opts.enum_options.max_extra_tuples = 2;
    opts.enum_options.max_universe = 8;
    opts.enum_options.open_replication_limit = 2;
    opts.enum_options.max_members = 2000;
    Result<CertainVerdict> v = engine.value().IsCertainBoolean(q.value(), opts);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    certains.push_back(v.value().certain);
    exhaustives.push_back(v.value().exhaustive);

    // Non-boolean certain answers through the same pair.
    Result<FormulaPtr> qa = ParseFormula("exists a. Submissions(p, a)", &u);
    ASSERT_TRUE(qa.ok());
    Result<Relation> ans =
        engine.value().CertainAnswers(qa.value(), {"p"}, nullptr, opts);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    answer_sets.push_back(ans.value().SortedTuples());
  }

  EXPECT_EQ(certains[0], certains[1]) << "seed " << seed;
  EXPECT_EQ(exhaustives[0], exhaustives[1]) << "seed " << seed;
  EXPECT_EQ(answer_sets[0], answer_sets[1]) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Random, CertainEngineParity, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Same search space: over the corpus and the enumerate fixtures, every
// certain-answer query reaches the same verdict after visiting the same
// number of members under kIndexed and kGeneric (at shards = 1, where
// members_checked is deterministic). Member enumeration does not depend
// on the engine, so equal counts mean the compiled plans (negated
// universal sentences included) stop the search at the same member the
// literal definition does.
// ---------------------------------------------------------------------------

std::vector<std::string> CertainTrace(const fs::path& file,
                                      JoinEngineMode mode) {
  std::ifstream in(file, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  Universe u;
  Result<DxScenario> sc = ParseDxScenario(text.str(), &u);
  EXPECT_TRUE(sc.ok()) << sc.status().ToString();
  if (!sc.ok()) return {};
  EngineContext ctx = EngineContext::ForMode(mode);
  Budget scenario_budget;
  for (const auto& [key, value] : sc.value().budget_settings) {
    SetBudgetField(&scenario_budget, key, value);
  }
  ctx.budget.Tighten(scenario_budget);

  std::vector<std::string> trace;
  for (const DxMappingDecl& m : sc.value().mappings) {
    for (const DxInstanceDecl& inst : sc.value().instances) {
      if (!DxChasePairOk(m, inst)) continue;
      Result<CertainAnswerEngine> engine =
          CertainAnswerEngine::Create(m.mapping, inst.plain, &u, ctx);
      if (!engine.ok()) {
        trace.push_back(m.name + "/" + inst.name + ": " +
                        engine.status().ToString());
        continue;
      }
      for (const DxQuery& q : sc.value().queries) {
        bool over_target = true;
        for (const std::string& rel : RelationsIn(q.formula)) {
          over_target = over_target && m.mapping.target().Contains(rel);
        }
        if (!over_target) continue;
        CertainVerdict v;
        std::string answers;
        if (q.vars.empty()) {
          Result<CertainVerdict> r = engine.value().IsCertainBoolean(q.formula);
          if (r.ok()) v = r.value();
          else answers = r.status().ToString();
        } else {
          Result<Relation> r =
              engine.value().CertainAnswers(q.formula, q.vars, &v);
          if (r.ok()) {
            for (const Tuple& t : r.value().SortedTuples()) {
              answers += TupleToString(t, u);
            }
          } else {
            answers = r.status().ToString();
          }
        }
        trace.push_back(m.name + "/" + inst.name + " " + q.name +
                        " certain=" + std::to_string(v.certain) +
                        " exhaustive=" + std::to_string(v.exhaustive) +
                        " members=" + std::to_string(v.members_checked) +
                        " " + v.method + " " + answers);
      }
    }
  }
  return trace;
}

TEST(CorpusSearchSpace, VerdictsAndMembersCheckedAgreeAcrossEngines) {
  std::vector<fs::path> files;
  for (const fs::path& dir :
       {fs::path(OCDX_CORPUS_DIR),
        fs::path(OCDX_CORPUS_DIR).parent_path() / "render_fixtures"}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (entry.path().extension() != ".dx") continue;
      if (dir.filename() == "render_fixtures" &&
          name.rfind("enumerate_", 0) != 0) {
        continue;
      }
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  files = GenericAffordableFiles(files);
  ASSERT_GE(files.size(), 10u);
  size_t enumerated = 0;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    std::vector<std::string> indexed =
        CertainTrace(file, JoinEngineMode::kIndexed);
    std::vector<std::string> generic =
        CertainTrace(file, JoinEngineMode::kGeneric);
    EXPECT_EQ(indexed, generic);
    for (const std::string& line : indexed) {
      if (line.find(" members=1 ") == std::string::npos) ++enumerated;
    }
  }
  // The comparison must cover real enumerations, not only Prop 3 runs.
  EXPECT_GE(enumerated, 20u);
}

// ---------------------------------------------------------------------------
// Plan-cache parity: the cached / uncached / generic triangle over the
// certain/ engines, and the compile-once pin for enumeration workloads
// (PR 5: compile-once query plans).
// ---------------------------------------------------------------------------

struct CacheTriangleLeg {
  JoinEngineMode mode;
  bool cache_opt_out;
};

struct PlanCacheParity : ::testing::TestWithParam<int> {};

TEST_P(PlanCacheParity, CachedUncachedAndNaiveAgree) {
  const int seed = GetParam();
  Rng rng(8080 + seed);
  static const char* kRules[] = {
      "Submissions(x^cl, z^cl) :- Papers(x, y);",
      "Submissions(x^cl, z^op) :- Papers(x, y);",
      "Submissions(x^op, z^op) :- Papers(x, y);",
  };
  static const char* kQueries[] = {
      "exists p a. Submissions(p, a)",
      "forall p a1 a2. (Submissions(p, a1) & Submissions(p, a2)) -> a1 = a2",
      "!(exists p. Submissions(p, 'zz'))",
  };
  const std::string rules = kRules[rng.Below(3)];
  const size_t query_idx = rng.Below(3);
  const size_t n_papers = 1 + rng.Below(3);
  const uint64_t src_seed = rng.Next();

  const CacheTriangleLeg legs[] = {
      {JoinEngineMode::kIndexed, /*cache_opt_out=*/false},
      {JoinEngineMode::kIndexed, /*cache_opt_out=*/true},
      {JoinEngineMode::kGeneric, /*cache_opt_out=*/false},
  };
  std::vector<bool> certains;
  std::vector<bool> exhaustives;
  std::vector<std::vector<Tuple>> answer_sets;
  for (const CacheTriangleLeg& leg : legs) {
    Universe u;
    Schema src, tgt;
    src.Add("Papers", {"paper", "title"});
    tgt.Add("Submissions", {"paper", "author"});
    Result<Mapping> m = ParseMapping(rules, src, tgt, &u);
    ASSERT_TRUE(m.ok()) << m.status().ToString();

    Instance s;
    Rng srng(src_seed);
    for (size_t i = 0; i < n_papers; ++i) {
      s.Add("Papers",
            {u.Const("x" + std::to_string(srng.Below(3))),
             u.Const("t" + std::to_string(srng.Below(2)))});
    }
    Result<FormulaPtr> q = ParseFormula(kQueries[query_idx], &u);
    ASSERT_TRUE(q.ok());

    EngineContext ctx = EngineContext::ForMode(leg.mode);
    // Cache off: a zero-capacity table publishes nothing, so every call
    // compiles.
    if (leg.cache_opt_out) ctx.plans = std::make_shared<plan::PlanTable>(0);
    Result<CertainAnswerEngine> engine =
        CertainAnswerEngine::Create(m.value(), s, &u, ctx);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    CertainOptions opts;
    opts.enum_options.fresh_pool = 1;
    opts.enum_options.max_extra_tuples = 2;
    opts.enum_options.max_universe = 8;
    opts.enum_options.open_replication_limit = 2;
    opts.enum_options.max_members = 2000;
    Result<CertainVerdict> v = engine.value().IsCertainBoolean(q.value(), opts);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    certains.push_back(v.value().certain);
    exhaustives.push_back(v.value().exhaustive);

    Result<FormulaPtr> qa = ParseFormula("exists a. Submissions(p, a)", &u);
    ASSERT_TRUE(qa.ok());
    Result<Relation> ans =
        engine.value().CertainAnswers(qa.value(), {"p"}, nullptr, opts);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    answer_sets.push_back(ans.value().SortedTuples());
  }
  EXPECT_EQ(certains[0], certains[1]) << "seed " << seed;
  EXPECT_EQ(certains[0], certains[2]) << "seed " << seed;
  EXPECT_EQ(exhaustives[0], exhaustives[1]) << "seed " << seed;
  EXPECT_EQ(exhaustives[0], exhaustives[2]) << "seed " << seed;
  EXPECT_EQ(answer_sets[0], answer_sets[1]) << "seed " << seed;
  EXPECT_EQ(answer_sets[0], answer_sets[2]) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Random, PlanCacheParity, ::testing::Range(0, 12));

TEST(PlanCacheParity, CompileOncePerQuerySchemaModeOnEnumeration) {
  // The tentpole pin: a member-enumeration workload (CWA valuation
  // enumeration, Thm 3.1) visits many member instances but compiles each
  // query exactly once — O(queries) compilations, not O(members x
  // queries).
  Universe u;
  Schema src, tgt;
  src.Add("Papers", {"paper", "title"});
  tgt.Add("Submissions", {"paper", "author"});
  Result<Mapping> m = ParseMapping(
      "Submissions(x^cl, z^cl) :- Papers(x, y);", src, tgt, &u);
  ASSERT_TRUE(m.ok());
  Instance s;
  for (int i = 0; i < 3; ++i) {
    s.Add("Papers", {u.Const("p" + std::to_string(i)), u.Const("t")});
  }

  EngineStats stats;
  EngineContext ctx;
  ctx.stats = &stats;
  ctx.EnsureCache();
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m.value(), s, &u, ctx);
  ASSERT_TRUE(engine.ok());

  Result<FormulaPtr> q1 = ParseFormula(
      "forall p a1 a2. (Submissions(p, a1) & Submissions(p, a2)) -> a1 = a2",
      &u);
  Result<FormulaPtr> q2 =
      ParseFormula("!(exists p. Submissions(p, 'zz'))", &u);
  ASSERT_TRUE(q1.ok() && q2.ok());

  uint64_t before = stats.plan_compiles;
  Result<CertainVerdict> v1 = engine.value().IsCertainBoolean(q1.value());
  ASSERT_TRUE(v1.ok());
  ASSERT_GT(v1.value().members_checked, 1u)
      << "workload must actually enumerate members";
  // One distinct (query, schema, mode) triple -> one compilation, no
  // matter how many members were visited.
  EXPECT_EQ(stats.plan_compiles - before, 1u);

  // Same query again: the engine-owned cache still has the plan.
  before = stats.plan_compiles;
  ASSERT_TRUE(engine.value().IsCertainBoolean(q1.value()).ok());
  EXPECT_EQ(stats.plan_compiles - before, 0u);

  // A second distinct query adds exactly one triple.
  before = stats.plan_compiles;
  Result<CertainVerdict> v2 = engine.value().IsCertainBoolean(q2.value());
  ASSERT_TRUE(v2.ok());
  ASSERT_GT(v2.value().members_checked, 1u);
  EXPECT_EQ(stats.plan_compiles - before, 1u);
}

// ---------------------------------------------------------------------------
// Step accounting: max_steps covers index probes, not just search nodes.
// ---------------------------------------------------------------------------

TEST(HomBudget, MaxStepsCountsIndexProbes) {
  Universe u;
  AnnotatedInstance a, b;
  a.Add("R", {u.FreshNull(), u.FreshNull()}, AllClosed(2));
  b.Add("R", {u.FreshNull(), u.FreshNull()}, AllClosed(2));

  // Two search nodes suffice for the generic scan (root + leaf)...
  HomOptions tight;
  tight.max_steps = 2;
  {
    Result<std::optional<NullMap>> r = FindHomomorphism(
        a, b, tight, EngineContext::ForMode(JoinEngineMode::kGeneric));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().has_value());
  }
  // ...but the indexed engine additionally charges its probe and the
  // probed candidate, so the same budget is exhausted: index work cannot
  // hide from the ResourceExhausted contract.
  {
    Result<std::optional<NullMap>> r = FindHomomorphism(a, b, tight);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  // With an adequate budget the indexed engine finds the same answer.
  HomOptions roomy;
  roomy.max_steps = 100;
  Result<std::optional<NullMap>> r = FindHomomorphism(a, b, roomy);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().has_value());
}

// ---------------------------------------------------------------------------
// Index layer: lazy build and invalidation on Add.
// ---------------------------------------------------------------------------

TEST(PositionIndexTest, ProbeReflectsLaterAdds) {
  Universe u;
  Relation rel(2);
  rel.Add({u.Const("a"), u.Const("b")});
  rel.Add({u.Const("a"), u.Const("c")});

  std::vector<Value> key = {u.Const("a")};
  const std::vector<uint32_t>* ids = rel.Probe(0b01, key);
  ASSERT_NE(ids, nullptr);
  EXPECT_EQ(ids->size(), 2u);

  // Adding invalidates and rebuilds lazily; the new tuple is visible.
  rel.Add({u.Const("a"), u.Const("d")});
  ids = rel.Probe(0b01, key);
  ASSERT_NE(ids, nullptr);
  EXPECT_EQ(ids->size(), 3u);

  // A probe on the second position sees exactly the matching tuple.
  std::vector<Value> key2 = {u.Const("d")};
  ids = rel.Probe(0b10, key2);
  ASSERT_NE(ids, nullptr);
  ASSERT_EQ(ids->size(), 1u);
  EXPECT_EQ(rel.tuples()[(*ids)[0]][1], u.Const("d"));

  // Missing key: null bucket.
  std::vector<Value> key3 = {u.Const("zzz")};
  EXPECT_EQ(rel.Probe(0b01, key3), nullptr);
}

TEST(PositionIndexTest, AnnotatedProbeFiltersBySignature) {
  Universe u;
  AnnotatedRelation rel(2);
  rel.Add(AnnotatedTuple({u.Const("a"), u.Const("b")}, AllOpen(2)));
  rel.Add(AnnotatedTuple({u.Const("a"), u.Const("b")}, AllClosed(2)));
  rel.Add(AnnotatedTuple::EmptyMarker(AllOpen(2)));

  std::vector<Value> key = {u.Const("a")};
  const std::vector<uint32_t>* open_ids =
      rel.ProbeProper(0b01, key, AllOpen(2));
  ASSERT_NE(open_ids, nullptr);
  ASSERT_EQ(open_ids->size(), 1u);
  EXPECT_TRUE(IsAllOpen(rel.tuples()[(*open_ids)[0]].ann));

  const std::vector<uint32_t>* closed_ids =
      rel.ProbeProper(0b01, key, AllClosed(2));
  ASSERT_NE(closed_ids, nullptr);
  ASSERT_EQ(closed_ids->size(), 1u);
  EXPECT_TRUE(IsAllClosed(rel.tuples()[(*closed_ids)[0]].ann));

  // Annotation-only probe (mask 0) never returns markers.
  const std::vector<uint32_t>* all_open =
      rel.ProbeProper(0, {}, AllOpen(2));
  ASSERT_NE(all_open, nullptr);
  EXPECT_EQ(all_open->size(), 1u);
}

}  // namespace
}  // namespace ocdx
