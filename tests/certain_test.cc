// Tests for the certain-answer engines (Section 4 of the paper):
// Proposition 3 (positive queries / naive evaluation), Proposition 4
// (monotone queries collapse to CWA), Proposition 5 (forall-exists),
// Theorem 3's engine dispatch, and the paper's motivating examples.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "certain/certain.h"
#include "certain/naive.h"
#include "logic/parser.h"
#include "mapping/rule_parser.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"

namespace ocdx {
namespace {

class CertainTest : public ::testing::Test {
 protected:
  Mapping MustParse(const std::string& rules, const Schema& src,
                    const Schema& tgt, Ann def = Ann::kClosed) {
    Result<Mapping> m = ParseMapping(rules, src, tgt, &u_, def);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? m.value() : Mapping();
  }

  FormulaPtr Q(const std::string& text) {
    Result<FormulaPtr> r = ParseFormula(text, &u_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : Formula::False();
  }

  CertainVerdict MustDecideBoolean(CertainAnswerEngine& engine,
                                   const FormulaPtr& q,
                                   CertainOptions opts = {}) {
    Result<CertainVerdict> v = engine.IsCertainBoolean(q, opts);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? v.value() : CertainVerdict{};
  }

  Universe u_;
};

// ---------------------------------------------------------------------------
// The paper's introductory anomaly: a mapping that keeps paper# and drops
// the author, assigning a null to the author attribute. "Then the certain
// answer to a query asking whether every paper has exactly one author is
// true [under CWA]. ... declaring author as open, the certain answer to
// the 'one-author' query is false, as expected."
// ---------------------------------------------------------------------------
class OneAuthorTest : public CertainTest {
 protected:
  void SetUp() override {
    src_.Add("Papers", {"paper", "title"});
    tgt_.Add("Submissions", {"paper", "author"});
    s_.Add("Papers", {u_.Const("p1"), u_.Const("t1")});
    s_.Add("Papers", {u_.Const("p2"), u_.Const("t2")});
    one_author_ = Q(
        "forall p a1 a2. (Submissions(p, a1) & Submissions(p, a2)) "
        "-> a1 = a2");
  }
  Schema src_, tgt_;
  Instance s_;
  FormulaPtr one_author_;
};

TEST_F(OneAuthorTest, CwaSaysEveryPaperHasOneAuthor) {
  Mapping cwa =
      MustParse("Submissions(x^cl, z^cl) :- Papers(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(cwa, s_, &u_);
  ASSERT_TRUE(engine.ok());
  CertainVerdict v = MustDecideBoolean(engine.value(), one_author_);
  EXPECT_TRUE(v.certain) << "the minimalist CWA creates exactly one "
                            "(paper, author) tuple per paper";
  EXPECT_TRUE(v.exhaustive);
}

TEST_F(OneAuthorTest, OpenAuthorAttributeFixesTheAnomaly) {
  Mapping mixed =
      MustParse("Submissions(x^cl, z^op) :- Papers(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(mixed, s_, &u_);
  ASSERT_TRUE(engine.ok());
  CertainVerdict v = MustDecideBoolean(engine.value(), one_author_);
  EXPECT_FALSE(v.certain)
      << "with author open, instances with several authors are solutions";
  EXPECT_TRUE(v.exhaustive) << "falsity is witnessed by a counterexample";
}

TEST_F(OneAuthorTest, ClosedPaperAttributeStillConstrains) {
  // Only source papers may appear: certain("every submission is a source
  // paper's") is true even with the open author.
  Mapping mixed =
      MustParse("Submissions(x^cl, z^op) :- Papers(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(mixed, s_, &u_);
  ASSERT_TRUE(engine.ok());
  FormulaPtr only_source = Q(
      "forall p a. Submissions(p, a) -> (p = 'p1' | p = 'p2')");
  CertainVerdict v = MustDecideBoolean(engine.value(), only_source);
  EXPECT_TRUE(v.certain);
}

// ---------------------------------------------------------------------------
// Proposition 3: positive queries — naive evaluation, annotation-independent.
// ---------------------------------------------------------------------------
class PositiveTest : public CertainTest {
 protected:
  void SetUp() override {
    src_.Add("E", 2);
    tgt_.Add("R", 2);
    s_.Add("E", {u_.Const("a"), u_.Const("b")});
    s_.Add("E", {u_.Const("b"), u_.Const("c")});
  }
  Schema src_, tgt_;
  Instance s_;
};

TEST_F(PositiveTest, NaiveEvaluationDropsNullTuples) {
  Mapping m = MustParse("R(x^cl, z^op) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m, s_, &u_);
  ASSERT_TRUE(engine.ok());
  // Certain answers to R(x, w): none are null-free in the canonical
  // solution's second column, so the certain answers of pi_1 exist but
  // pairs do not.
  CertainVerdict verdict;
  Result<Relation> pairs =
      engine.value().CertainAnswers(Q("R(x, w)"), {"x", "w"}, &verdict);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs.value().size(), 0u);
  EXPECT_EQ(verdict.method, "naive evaluation (PTIME, Prop 3)");

  Result<Relation> firsts =
      engine.value().CertainAnswers(Q("exists w. R(x, w)"), {"x"});
  ASSERT_TRUE(firsts.ok());
  EXPECT_EQ(firsts.value().size(), 2u);
  EXPECT_TRUE(firsts.value().Contains({u_.Const("a")}));
  EXPECT_TRUE(firsts.value().Contains({u_.Const("b")}));
}

TEST_F(PositiveTest, AnnotationIndependence) {
  // Prop 3: for positive queries all annotations give the same certain
  // answers; moreover the general (forced) engine must agree with the
  // naive fast path.
  FormulaPtr q = Q("exists w. R(x, w)");
  Relation expected(1);
  for (const char* ann :
       {"R(x^cl, z^cl) :- E(x, y);", "R(x^cl, z^op) :- E(x, y);",
        "R(x^op, z^op) :- E(x, y);"}) {
    Mapping m = MustParse(ann, src_, tgt_);
    Result<CertainAnswerEngine> engine =
        CertainAnswerEngine::Create(m, s_, &u_);
    ASSERT_TRUE(engine.ok());
    Result<Relation> fast = engine.value().CertainAnswers(q, {"x"});
    ASSERT_TRUE(fast.ok());

    CertainOptions force;
    force.force_general_engine = true;
    force.enum_options.fresh_pool = 3;
    // For a *monotone* q, extra open tuples only add answers and never
    // remove them, so capping the per-member extras keeps the
    // intersection exact while bounding the search.
    force.enum_options.max_extra_tuples = 1;
    Result<Relation> slow = engine.value().CertainAnswers(q, {"x"}, nullptr,
                                                          force);
    ASSERT_TRUE(slow.ok());
    EXPECT_TRUE(fast.value() == slow.value())
        << "engines disagree under " << ann;
    if (expected.size() == 0) {
      expected = fast.value();
    } else {
      EXPECT_TRUE(expected == fast.value())
          << "annotation changed positive certain answers: " << ann;
    }
  }
}

// ---------------------------------------------------------------------------
// The copying-mapping anomaly of [ABFL04] (paper, Sections 1-2): under
// OWA, negation misbehaves; under CWA it is well-behaved.
// ---------------------------------------------------------------------------
TEST_F(PositiveTest, CopyingMappingNegationOwaVsCwa) {
  FormulaPtr not_d = Q("!R('d', 'd')");  // (d,d) is not in the source.

  Mapping cwa = MustParse("R(x^cl, y^cl) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> e1 = CertainAnswerEngine::Create(cwa, s_, &u_);
  ASSERT_TRUE(e1.ok());
  CertainVerdict v1 = MustDecideBoolean(e1.value(), not_d);
  EXPECT_TRUE(v1.certain) << "CWA: the target is exactly a copy";
  EXPECT_TRUE(v1.exhaustive);

  Mapping owa = MustParse("R(x^op, y^op) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> e2 = CertainAnswerEngine::Create(owa, s_, &u_);
  ASSERT_TRUE(e2.ok());
  CertainVerdict v2 = MustDecideBoolean(e2.value(), not_d);
  EXPECT_FALSE(v2.certain) << "OWA: some solution contains (d, d)";
}

// ---------------------------------------------------------------------------
// Proposition 4: monotone queries (CQ + inequalities) collapse to the CWA
// semantics for every annotation.
// ---------------------------------------------------------------------------
TEST_F(PositiveTest, MonotoneQueriesCollapseAcrossAnnotations) {
  FormulaPtr q = Q("exists x y. R(x, y) & x != y");
  std::vector<bool> results;
  for (const char* ann :
       {"R(x^cl, y^cl) :- E(x, y);", "R(x^cl, y^op) :- E(x, y);",
        "R(x^op, y^op) :- E(x, y);"}) {
    Mapping m = MustParse(ann, src_, tgt_);
    Result<CertainAnswerEngine> engine =
        CertainAnswerEngine::Create(m, s_, &u_);
    ASSERT_TRUE(engine.ok());
    CertainVerdict v = MustDecideBoolean(engine.value(), q);
    EXPECT_EQ(v.method, "monotone->CWA valuation enumeration (Prop 4)");
    results.push_back(v.certain);
  }
  // Copying mapping, E = {(a,b),(b,c)}: in every valuation image, the
  // copy of E itself contains a tuple with two distinct values.
  for (bool r : results) EXPECT_TRUE(r);
}

TEST_F(PositiveTest, MonotoneInequalityNotCertainWhenNullsCanCollapse) {
  // R(x, z) :- E(x, y) (z existential, closed): certain("exists pair with
  // x != z") is false because a valuation can send every null to its
  // row's x-value... and also certain("exists x z with x = z") is false
  // because a valuation can keep them all distinct.
  Mapping m = MustParse("R(x^cl, z^cl) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m, s_, &u_);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(
      MustDecideBoolean(engine.value(), Q("exists x z. R(x, z) & x != z"))
          .certain);
  FormulaPtr eq = Q("exists x z. R(x, z) & x = z");
  EXPECT_TRUE(IsPositive(eq));
  EXPECT_FALSE(MustDecideBoolean(engine.value(), eq).certain);
}

// ---------------------------------------------------------------------------
// Engine cross-validation: the CWA fast path and the general engine agree
// on all-closed mappings for full FO queries.
// ---------------------------------------------------------------------------
TEST_F(PositiveTest, GeneralEngineAgreesOnAllClosed) {
  Mapping m = MustParse("R(x^cl, z^cl) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m, s_, &u_);
  ASSERT_TRUE(engine.ok());
  for (const char* qt : {
           "forall x z. R(x, z) -> (x = 'a' | x = 'b')",
           "forall x z. R(x, z) -> x = z",
           "exists x. !R(x, x)",
           "!R('a', 'c')",
       }) {
    FormulaPtr q = Q(qt);
    CertainVerdict fast = MustDecideBoolean(engine.value(), q);
    CertainOptions force;
    force.force_general_engine = true;
    CertainVerdict slow = MustDecideBoolean(engine.value(), q, force);
    EXPECT_EQ(fast.certain, slow.certain) << qt;
    EXPECT_TRUE(slow.method.find("CWA") != std::string::npos) << slow.method;
  }
}

// ---------------------------------------------------------------------------
// Proposition 5: forall*-exists* queries (integrity constraints).
// ---------------------------------------------------------------------------
TEST_F(PositiveTest, ForallExistsConstraintValidation) {
  Mapping m = MustParse("R(x^cl, z^op) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m, s_, &u_);
  ASSERT_TRUE(engine.ok());

  // "Every R-edge starts at a or b" is an inclusion constraint that the
  // closed first column guarantees in every solution.
  FormulaPtr inc = Q("forall x z. R(x, z) -> (x = 'a' | x = 'b')");
  ASSERT_TRUE(IsForallExists(inc));
  CertainOptions opts;
  opts.enum_options.fresh_pool = 4;
  CertainVerdict v = MustDecideBoolean(engine.value(), inc, opts);
  EXPECT_TRUE(v.certain);
  EXPECT_TRUE(v.method.find("Prop 5") != std::string::npos) << v.method;

  // A key constraint on the open column fails (counterexample found).
  FormulaPtr key = Q("forall x z1 z2. (R(x, z1) & R(x, z2)) -> z1 = z2");
  CertainVerdict v2 = MustDecideBoolean(engine.value(), key, opts);
  EXPECT_FALSE(v2.certain);
  EXPECT_TRUE(v2.exhaustive);
}

// ---------------------------------------------------------------------------
// Lemma 2 / Theorem 3.2 territory: #op = 1 with a genuinely non-monotone,
// non-forall-exists query. Small enough that the Lemma-2 bound is
// reachable and the verdict is a proof.
// ---------------------------------------------------------------------------
TEST_F(PositiveTest, OpenNullBoundedSearchFindsCounterexamples) {
  Mapping m = MustParse("R(x^cl, z^op) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m, s_, &u_);
  ASSERT_TRUE(engine.ok());

  // "Some x has exactly one successor": in the canonical solution each x
  // has one null successor, but open replication refutes it.
  FormulaPtr q =
      Q("exists x z. R(x, z) & forall w. R(x, w) -> w = z");
  CertainOptions opts;
  opts.enum_options.fresh_pool = 6;
  opts.enum_options.max_universe = 40;
  Result<CertainVerdict> v = engine.value().IsCertainBoolean(q, opts);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_FALSE(v.value().certain);
  EXPECT_TRUE(v.value().exhaustive);
  EXPECT_TRUE(v.value().method.find("Lemma-2") != std::string::npos)
      << v.value().method;
}

TEST_F(PositiveTest, UndecidableCellIsFlaggedNonExhaustive) {
  // #op = 2: a true verdict cannot be a proof (Theorem 3.3).
  Mapping m = MustParse("R(z1^op, z2^op) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m, s_, &u_);
  ASSERT_TRUE(engine.ok());
  FormulaPtr q = Q("forall x y. R(x, y) -> exists z. !R(y, z)");
  ASSERT_EQ(Classify(q), QueryClass::kFirstOrder);
  CertainOptions opts;
  opts.enum_options.fresh_pool = 2;
  opts.enum_options.max_universe = 16;
  opts.enum_options.max_members = 40'000;
  Result<CertainVerdict> v = engine.value().IsCertainBoolean(q, opts);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  if (v.value().certain) {
    EXPECT_FALSE(v.value().exhaustive);
    EXPECT_TRUE(v.value().method.find("undecidable") != std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Member-enumeration regressions: the fresh-constant pool must survive
// adversarial constant names, and an early-stopped enumeration must not
// report itself exhausted.
// ---------------------------------------------------------------------------
TEST_F(PositiveTest, FreshPoolSurvivesAdversarialConstantNames) {
  // Regression: a scenario constant literally named '#e0' used to alias
  // into the enumerator's fresh pool, so with a pool of one there was no
  // genuinely fresh value and "z stays among the named constants" came
  // back certain — unsoundly, since open positions license tuples over
  // values the scenario never names. tests/corpus/fresh_pool_alias.dx
  // pins the same bug through the CLI at the default pool size.
  Instance s;
  s.Add("E", {u_.Const("a"), u_.Const("#e0")});
  Mapping m = MustParse("R(x^cl, y^op) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine = CertainAnswerEngine::Create(m, s, &u_);
  ASSERT_TRUE(engine.ok());
  FormulaPtr q = Q("forall x z. R(x, z) -> (z = 'a' | z = '#e0')");
  CertainOptions opts;
  opts.enum_options.fresh_pool = 1;
  CertainVerdict v = MustDecideBoolean(engine.value(), q, opts);
  EXPECT_FALSE(v.certain)
      << "a member filling the open position with a fresh value refutes it";
  EXPECT_TRUE(v.exhaustive) << "falsity is witnessed by a counterexample";
}

TEST_F(PositiveTest, EarlyStoppedSearchIsNeverReportedExhaustive) {
  // Regression: exhausted() used to stay true when the visitor stopped
  // the run early. At the engine level the observable is the verdict's
  // exhaustive flag: a *false* verdict early-stops on its counterexample
  // yet is exhaustive (the counterexample is the proof), while a capped
  // *true* verdict in the undecidable cell must not be (pinned by
  // UndecidableCellIsFlaggedNonExhaustive above). Here: truncate the
  // member space under the soft cap so a "certain" outcome cannot claim
  // a proof.
  Mapping m = MustParse("R(x^cl, z^op) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m, s_, &u_);
  ASSERT_TRUE(engine.ok());
  FormulaPtr q = Q("forall x z. R(x, z) -> (x = 'a' | x = 'b')");
  CertainOptions opts;
  opts.enum_options.max_members = 1;  // Soft cap: truncation, not a trip.
  CertainVerdict v = MustDecideBoolean(engine.value(), q, opts);
  if (v.certain) {
    EXPECT_FALSE(v.exhaustive)
        << "one visited member cannot prove certainty of the whole space";
  }
}

// ---------------------------------------------------------------------------
// Tuple-level (non-boolean) decisions and input validation.
// ---------------------------------------------------------------------------
TEST_F(PositiveTest, TupleDecisionsAndValidation) {
  Mapping m = MustParse("R(x^cl, z^op) :- E(x, y);", src_, tgt_);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m, s_, &u_);
  ASSERT_TRUE(engine.ok());

  FormulaPtr q = Q("exists w. R(x, w)");
  Result<CertainVerdict> yes =
      engine.value().IsCertain(q, {"x"}, {u_.Const("a")});
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(yes.value().certain);
  Result<CertainVerdict> no =
      engine.value().IsCertain(q, {"x"}, {u_.Const("zzz")});
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(no.value().certain);

  // Arity and free-variable validation.
  EXPECT_FALSE(engine.value().IsCertain(q, {"x", "y"}, {u_.Const("a")}).ok());
  EXPECT_FALSE(engine.value().IsCertain(q, {"w"}, {u_.Const("a")}).ok());
  EXPECT_FALSE(engine.value().IsCertainBoolean(q).ok());
  EXPECT_FALSE(engine.value().CertainAnswers(q, {}).ok());
}

// NaiveEval in isolation.
TEST_F(PositiveTest, NaiveEvalHelper) {
  Instance t;
  Value n = u_.FreshNull();
  t.Add("R", {u_.Const("a"), u_.Const("b")});
  t.Add("R", {u_.Const("a"), n});
  Result<Relation> r = NaiveEval(Q("R(x, y)"), {"x", "y"}, t, u_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);
  EXPECT_TRUE(r.value().Contains({u_.Const("a"), u_.Const("b")}));
}

// The work of every certain-answer enumeration over the corpus and the
// enumerate fixtures, pinned: members_checked at shards = 1 for each
// (mapping, instance, query) that `ocdx certain` runs. The counts show
// which members are visited and in which order (the first counterexample
// ends a run): one valuation per orbit of the canonical solution's twin
// symmetries (semantics/iso_enum.h): the five interchangeable rows of
// enumerate_12.dx give 174 of the 10,427 valuations an unreduced
// enumeration visits. How the loop refills its image may change what a
// member costs, never these counts.
TEST(CorpusMembersChecked, UnchangedAtOneShard) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  const fs::path corpus(OCDX_CORPUS_DIR);
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() == ".dx") files.push_back(entry.path());
  }
  // The generated enumerate files (perfbench's enumerate workload shape)
  // visit thousands of members per query.
  for (const auto& entry :
       fs::directory_iterator(corpus.parent_path() / "render_fixtures")) {
    if (entry.path().extension() == ".dx" &&
        entry.path().filename().string().rfind("enumerate_", 0) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::string got;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    Universe u;
    Result<DxScenario> sc = ParseDxScenario(text.str(), &u);
    ASSERT_TRUE(sc.ok()) << file << ": " << sc.status().ToString();
    EngineContext ctx;
    Budget scenario_budget;
    for (const auto& [key, value] : sc.value().budget_settings) {
      SetBudgetField(&scenario_budget, key, value);
    }
    ctx.budget.Tighten(scenario_budget);
    for (const DxMappingDecl& m : sc.value().mappings) {
      for (const DxInstanceDecl& inst : sc.value().instances) {
        if (!DxChasePairOk(m, inst)) continue;
        Result<CertainAnswerEngine> engine =
            CertainAnswerEngine::Create(m.mapping, inst.plain, &u, ctx);
        if (!engine.ok()) continue;
        for (const DxQuery& q : sc.value().queries) {
          bool over_target = true;
          for (const std::string& rel : RelationsIn(q.formula)) {
            over_target = over_target && m.mapping.target().Contains(rel);
          }
          if (!over_target) continue;
          CertainVerdict v;
          if (q.vars.empty()) {
            Result<CertainVerdict> r =
                engine.value().IsCertainBoolean(q.formula);
            if (r.ok()) v = r.value();
          } else {
            (void)engine.value().CertainAnswers(q.formula, q.vars, &v);
          }
          got += file.filename().string() + " " + m.name + "/" + inst.name +
                 " " + q.name + " " + std::to_string(v.members_checked) + "\n";
        }
      }
    }
  }
  const std::string want = R"(annotated_literals.dx M/S has_pair 1
bulk_import.dx M/S hops 1
bulk_import.dx M/S tagged 1
conference.dx M/S submitted 1
conference.dx M/S reviewed 1
conference.dx M/S one_author 5
empty_markers.dx Open/S nobody_banned 2
empty_markers.dx Open/S accounts 1
empty_markers.dx Closed/S nobody_banned 1
empty_markers.dx Closed/S accounts 1
fresh_pool_alias.dx M/S only_named 3
fresh_pool_alias.dx M/S unnamed_pair 7
member_search.dx M/S owns_read 1
member_search.dx M/S nothing_extra 2
member_search.dx M/S single_title 2
member_search.dx M/S no_shared_title 4
membership.dx Mop/S copied 1
membership.dx Mcl/S copied 1
nulls_and_ineq.dx M/S hops 1
nulls_and_ineq.dx M/S proper_hop 5
nulls_and_ineq.dx M/S connected 5
open_vs_closed.dx Mop/S copied 1
open_vs_closed.dx Mop/S nothing_else 2
open_vs_closed.dx Mop/S sink_exists 10
open_vs_closed.dx Mcl/S copied 1
open_vs_closed.dx Mcl/S nothing_else 1
open_vs_closed.dx Mcl/S sink_exists 1
valuation_enum.dx M/S someone_assigned 1
valuation_enum.dx M/S unique_office 61
valuation_enum.dx M/S shared_office 42
valuation_enum.dx M/S lonely_office 1
enumerate_12.dx Mcl/S someone_assigned 1
enumerate_12.dx Mcl/S unique_office 174
enumerate_12.dx Mcl/S shared_office 139
enumerate_12.dx Mcl/S lonely_office 1
enumerate_12.dx Mop1/S someone_assigned 1
enumerate_12.dx Mop1/S unique_office 2
enumerate_12.dx Mop1/S shared_office 139
enumerate_12.dx Mop1/S lonely_office 1
enumerate_small.dx Mcl/S someone_assigned 1
enumerate_small.dx Mcl/S unique_office 20
enumerate_small.dx Mcl/S shared_office 11
enumerate_small.dx Mcl/S lonely_office 1
enumerate_small.dx Mop1/S someone_assigned 1
enumerate_small.dx Mop1/S unique_office 2
enumerate_small.dx Mop1/S shared_office 11
enumerate_small.dx Mop1/S lonely_office 1
)";
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace ocdx
