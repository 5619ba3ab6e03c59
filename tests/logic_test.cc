// Unit tests for src/logic: formula AST, parser, evaluator, classify.

#include <gtest/gtest.h>

#include "logic/classify.h"
#include "logic/engine_config.h"
#include "logic/evaluator.h"
#include "logic/formula.h"
#include "logic/parser.h"

namespace ocdx {
namespace {

class LogicTest : public ::testing::Test {
 protected:
  FormulaPtr Parse(const std::string& text) {
    Result<FormulaPtr> r = ParseFormula(text, &u_);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    return r.ok() ? r.value() : Formula::False();
  }
  Universe u_;
};

TEST_F(LogicTest, ParseAtom) {
  FormulaPtr f = Parse("E(x, y)");
  EXPECT_EQ(f->kind(), Formula::Kind::kAtom);
  EXPECT_EQ(f->rel(), "E");
  EXPECT_EQ(FreeVars(f), (std::vector<std::string>{"x", "y"}));
}

TEST_F(LogicTest, ParseConstantsAndEquality) {
  FormulaPtr f = Parse("x = 'John' & y != 42");
  EXPECT_EQ(f->kind(), Formula::Kind::kAnd);
  EXPECT_EQ(ConstantsIn(f).size(), 2u);
}

TEST_F(LogicTest, ParsePrecedence) {
  // '&' binds tighter than '|', which binds tighter than '->'.
  FormulaPtr f = Parse("A(x) & B(x) | C(x) -> D(x)");
  EXPECT_EQ(f->kind(), Formula::Kind::kImplies);
  EXPECT_EQ(f->children()[0]->kind(), Formula::Kind::kOr);
}

TEST_F(LogicTest, ParseQuantifiers) {
  FormulaPtr f = Parse("forall x. exists y. E(x, y)");
  EXPECT_EQ(f->kind(), Formula::Kind::kForall);
  EXPECT_TRUE(FreeVars(f).empty());
  EXPECT_EQ(QuantifierRank(f), 2);
}

TEST_F(LogicTest, ParseQuantifierBlocks) {
  FormulaPtr f = Parse("forall x y exists z. R(x, y, z)");
  EXPECT_EQ(f->kind(), Formula::Kind::kForall);
  EXPECT_EQ(f->bound().size(), 2u);
  EXPECT_EQ(QuantifierRank(f), 3);
}

TEST_F(LogicTest, ParseNegationAndNested) {
  FormulaPtr f = Parse("Papers(x, y) & !exists r. Assignments(x, r)");
  EXPECT_EQ(f->kind(), Formula::Kind::kAnd);
  EXPECT_EQ(FreeVars(f), (std::vector<std::string>{"x", "y"}));
}

TEST_F(LogicTest, ParseFunctionTermsInEquality) {
  FormulaPtr f = Parse("S(em, proj) & id = f(em)");
  auto funcs = FunctionsIn(f);
  ASSERT_EQ(funcs.size(), 1u);
  EXPECT_EQ(funcs["f"], 1u);
}

TEST_F(LogicTest, ParseErrors) {
  EXPECT_FALSE(ParseFormula("E(x", &u_).ok());
  EXPECT_FALSE(ParseFormula("E(x) &", &u_).ok());
  EXPECT_FALSE(ParseFormula("exists . E(x)", &u_).ok());
  EXPECT_FALSE(ParseFormula("E(x) E(y)", &u_).ok());
  EXPECT_FALSE(ParseFormula("x = ", &u_).ok());
  EXPECT_FALSE(ParseFormula("'unterminated", &u_).ok());
}

TEST_F(LogicTest, BuilderNormalization) {
  EXPECT_EQ(Formula::And({})->kind(), Formula::Kind::kTrue);
  EXPECT_EQ(Formula::Or({})->kind(), Formula::Kind::kFalse);
  EXPECT_EQ(Formula::Not(Formula::True())->kind(), Formula::Kind::kFalse);
  FormulaPtr atom = Parse("E(x, y)");
  EXPECT_EQ(Formula::And({atom}), atom);
  // Nested conjunctions flatten.
  FormulaPtr nested = Formula::And(Formula::And(atom, atom), atom);
  EXPECT_EQ(nested->children().size(), 3u);
}

TEST_F(LogicTest, SubstituteRespectsBinding) {
  FormulaPtr f = Parse("E(x, y) & exists x. F(x, y)");
  std::map<std::string, Term> subst;
  subst["x"] = Term::Constant(u_.Const("a"));
  subst["y"] = Term::Var("w");
  FormulaPtr g = Substitute(f, subst);
  // Free x replaced, bound x untouched, y renamed everywhere.
  EXPECT_EQ(FreeVars(g), (std::vector<std::string>{"w"}));
  EXPECT_EQ(g->ToString(u_), "(E('a', w)) & (exists x. (F(x, w)))");
}

TEST_F(LogicTest, RoundTripThroughToString) {
  for (const char* text : {
           "E(x, y)",
           "exists z. (E(x, z)) & (E(z, y))",
           "forall x. (V(x)) -> (exists y. (E(x, y)))",
           "!(x = y)",
       }) {
    FormulaPtr f1 = Parse(text);
    FormulaPtr f2 = Parse(f1->ToString(u_));
    EXPECT_EQ(f1->ToString(u_), f2->ToString(u_)) << text;
  }
}

// --- Engine names ---------------------------------------------------------

TEST(EngineModeTest, ParsesExactlyTheTwoEngineNames) {
  JoinEngineMode mode = JoinEngineMode::kGeneric;
  ASSERT_TRUE(ParseJoinEngineMode("indexed", &mode));
  EXPECT_EQ(mode, JoinEngineMode::kIndexed);
  ASSERT_TRUE(ParseJoinEngineMode("generic", &mode));
  EXPECT_EQ(mode, JoinEngineMode::kGeneric);
  // Rejected names leave the output untouched.
  for (const char* bad : {"naive", "", "Indexed"}) {
    EXPECT_FALSE(ParseJoinEngineMode(bad, &mode)) << '"' << bad << '"';
    EXPECT_EQ(mode, JoinEngineMode::kGeneric) << '"' << bad << '"';
  }
}

// --- Evaluator ------------------------------------------------------------

class EvalTest : public LogicTest {
 protected:
  void SetUp() override {
    // Graph: a -> b -> c, with V = {a, b, c}.
    inst_.Add("V", {u_.Const("a")});
    inst_.Add("V", {u_.Const("b")});
    inst_.Add("V", {u_.Const("c")});
    inst_.Add("E", {u_.Const("a"), u_.Const("b")});
    inst_.Add("E", {u_.Const("b"), u_.Const("c")});
  }

  bool Holds(const std::string& text) {
    Evaluator ev(inst_, u_);
    Result<bool> r = ev.Holds(Parse(text));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r.value();
  }

  Instance inst_;
};

TEST_F(EvalTest, AtomsAndBooleans) {
  EXPECT_TRUE(Holds("E('a', 'b')"));
  EXPECT_FALSE(Holds("E('b', 'a')"));
  EXPECT_TRUE(Holds("E('a', 'b') & E('b', 'c')"));
  EXPECT_TRUE(Holds("E('b', 'a') | E('a', 'b')"));
  EXPECT_TRUE(Holds("!E('b', 'a')"));
  EXPECT_TRUE(Holds("E('b', 'a') -> E('c', 'a')"));
  EXPECT_TRUE(Holds("true"));
  EXPECT_FALSE(Holds("false"));
}

TEST_F(EvalTest, Quantifiers) {
  EXPECT_TRUE(Holds("exists x. E('a', x)"));
  EXPECT_FALSE(Holds("exists x. E(x, 'a')"));
  EXPECT_TRUE(Holds("forall x. (V(x) & !(x = 'c')) -> exists y. E(x, y)"));
  EXPECT_FALSE(Holds("forall x. V(x) -> exists y. E(x, y)"));
  EXPECT_TRUE(Holds("exists x y. E(x, y) & V(x)"));
}

TEST_F(EvalTest, UnknownRelationIsEmpty) {
  EXPECT_FALSE(Holds("Missing('a')"));
  EXPECT_TRUE(Holds("!Missing('a')"));
}

TEST_F(EvalTest, ConstantsOutsideInstanceEnterDomain) {
  // 'z' occurs in no relation; it still participates in the evaluation
  // domain because it appears in the formula.
  EXPECT_TRUE(Holds("exists x. x = 'zeta'"));
  EXPECT_FALSE(Holds("V('zeta')"));
}

TEST_F(EvalTest, AnswersEnumeratesSatisfyingTuples) {
  Evaluator ev(inst_, u_);
  Result<Relation> r = ev.Answers(Parse("exists z. E(x, z) & E(z, y)"),
                                  {"x", "y"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);
  EXPECT_TRUE(r.value().Contains({u_.Const("a"), u_.Const("c")}));
}

TEST_F(EvalTest, AnswersChecksFreeVarCoverage) {
  Evaluator ev(inst_, u_);
  EXPECT_FALSE(ev.Answers(Parse("E(x, y)"), {"x"}).ok());
}

TEST_F(EvalTest, NullsAreAtomicValues) {
  // Naive semantics: a null equals only itself.
  Value n1 = u_.FreshNull();
  Value n2 = u_.FreshNull();
  inst_.Add("E", {n1, n2});
  Evaluator ev(inst_, u_);
  EXPECT_TRUE(ev.Holds(Parse("exists x y. E(x, y) & !V(x) & !V(y)")).value());
  // No null equals another null.
  Env env;
  env["x"] = n1;
  env["y"] = n2;
  EXPECT_FALSE(ev.Holds(Parse("x = y"), env).value());
  env["y"] = n1;
  EXPECT_TRUE(ev.Holds(Parse("x = y"), env).value());
}

// --- Classification ---------------------------------------------------------

TEST_F(LogicTest, ClassifyPositive) {
  EXPECT_TRUE(IsPositive(Parse("exists z. E(x, z) & (E(z, y) | V(z))")));
  EXPECT_FALSE(IsPositive(Parse("!E(x, y)")));
  EXPECT_FALSE(IsPositive(Parse("x != y")));
  EXPECT_FALSE(IsPositive(Parse("forall x. V(x)")));
  EXPECT_EQ(Classify(Parse("E(x, y)")), QueryClass::kPositive);
}

TEST_F(LogicTest, ClassifyCQ) {
  EXPECT_TRUE(IsConjunctiveQuery(Parse("exists z. E(x, z) & E(z, y)")));
  EXPECT_TRUE(IsConjunctiveQuery(Parse("E(x, y) & x = y")));
  EXPECT_FALSE(IsConjunctiveQuery(Parse("E(x, y) | E(y, x)")));
  EXPECT_TRUE(IsUnionOfConjunctiveQueries(Parse("E(x, y) | E(y, x)")));
  EXPECT_FALSE(IsConjunctiveQuery(Parse("exists z. !E(x, z)")));
}

TEST_F(LogicTest, ClassifyMonotone) {
  // CQ with inequalities: monotone but not positive (Prop 4 territory).
  FormulaPtr cq_neq = Parse("exists z. E(x, z) & E(z, y) & x != y");
  EXPECT_FALSE(IsPositive(cq_neq));
  EXPECT_TRUE(IsMonotoneSyntactic(cq_neq));
  EXPECT_EQ(Classify(cq_neq), QueryClass::kMonotone);
  // Negated atoms are not monotone.
  EXPECT_FALSE(IsMonotoneSyntactic(Parse("!E(x, y)")));
  // Universal quantification is not monotone (active domain grows).
  EXPECT_FALSE(IsMonotoneSyntactic(Parse("forall x. E(x, x)")));
}

TEST_F(LogicTest, ClassifyForallExists) {
  FormulaPtr fe = Parse("forall x y. E(x, y) -> exists z. E(y, z)");
  EXPECT_FALSE(IsForallExists(fe));  // exists is nested, not prenex.
  FormulaPtr prenex = Parse("forall x y exists z. E(x, y) -> E(y, z)");
  EXPECT_TRUE(IsForallExists(prenex));
  EXPECT_EQ(Classify(prenex), QueryClass::kForallExists);
  EXPECT_TRUE(IsExistential(Parse("exists x y. E(x, y)")));
  EXPECT_FALSE(IsExistential(prenex));
}

}  // namespace
}  // namespace ocdx
