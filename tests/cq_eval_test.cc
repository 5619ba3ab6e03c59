// Tests for the conjunctive-query join fast path: shape recognition and
// agreement with the generic active-domain evaluator.

#include <gtest/gtest.h>

#include "logic/cq_eval.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "util/rng.h"

namespace ocdx {
namespace {

class CqEvalTest : public ::testing::Test {
 protected:
  FormulaPtr Parse(const std::string& text) {
    Result<FormulaPtr> r = ParseFormula(text, &u_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : Formula::False();
  }
  Universe u_;
};

TEST_F(CqEvalTest, SimpleJoin) {
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  inst.Add("E", {u_.Const("b"), u_.Const("c")});
  std::optional<Relation> r =
      TryEvalCQ(Parse("exists z. E(x, z) & E(z, y)"), {"x", "y"}, inst);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->Contains({u_.Const("a"), u_.Const("c")}));
}

TEST_F(CqEvalTest, DeclinesNonCqShapes) {
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  // Bare negation (unsafe), disjunction, universals: not this path.
  EXPECT_FALSE(TryEvalCQ(Parse("!E(x, y)"), {"x", "y"}, inst).has_value());
  EXPECT_FALSE(
      TryEvalCQ(Parse("E(x, y) | E(y, x)"), {"x", "y"}, inst).has_value());
  // Unsafe: output variable not bound by an atom.
  EXPECT_FALSE(TryEvalCQ(Parse("E(x, x) & y = y"), {"x", "y"}, inst)
                   .has_value());
  // Shadowing between bound and free occurrences.
  EXPECT_FALSE(
      TryEvalCQ(Parse("E(x, y) & exists x. E(x, x)"), {"x", "y"}, inst)
          .has_value());
}

TEST_F(CqEvalTest, NegatedGuards) {
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  inst.Add("E", {u_.Const("b"), u_.Const("c")});
  inst.Add("E", {u_.Const("c"), u_.Const("c")});
  // Inequalities are negated (atom-free) sub-CQ guards.
  std::optional<Relation> neq =
      TryEvalCQ(Parse("E(x, y) & x != y"), {"x", "y"}, inst);
  ASSERT_TRUE(neq.has_value());
  EXPECT_EQ(neq->size(), 2u);
  EXPECT_FALSE(neq->Contains({u_.Const("c"), u_.Const("c")}));
  // Anti-join: edges whose target is not a self-loop node.
  std::optional<Relation> anti =
      TryEvalCQ(Parse("E(x, y) & !E(y, y)"), {"x", "y"}, inst);
  ASSERT_TRUE(anti.has_value());
  EXPECT_EQ(anti->size(), 1u);
  EXPECT_TRUE(anti->Contains({u_.Const("a"), u_.Const("b")}));
  // Guards may carry their own existentials.
  std::optional<Relation> sources =
      TryEvalCQ(Parse("E(x, y) & !exists z. E(z, x)"), {"x", "y"}, inst);
  ASSERT_TRUE(sources.has_value());
  EXPECT_EQ(sources->size(), 1u);
  EXPECT_TRUE(sources->Contains({u_.Const("a"), u_.Const("b")}));
  // A guard whose free variable is bound by no positive atom declines, as
  // does a nested negation inside a guard body.
  EXPECT_FALSE(
      TryEvalCQ(Parse("E(x, x) & !E(x, y)"), {"x"}, inst).has_value());
  EXPECT_FALSE(TryEvalCQ(Parse("E(x, y) & !exists z. E(y, z) & y != z"),
                         {"x", "y"}, inst)
                   .has_value());
  // The generic active-domain engine agrees.
  Evaluator generic(inst, u_, EngineContext::ForMode(JoinEngineMode::kGeneric));
  Result<Relation> reference =
      generic.Answers(Parse("E(x, y) & !exists z. E(z, x)"), {"x", "y"});
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(reference.value() == *sources);
}

TEST_F(CqEvalTest, ConstantsAndEqualities) {
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  inst.Add("E", {u_.Const("a"), u_.Const("a")});
  std::optional<Relation> r =
      TryEvalCQ(Parse("E('a', y) & y = 'b'"), {"y"}, inst);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 1u);
  std::optional<Relation> loop =
      TryEvalCQ(Parse("E(x, y) & x = y"), {"x", "y"}, inst);
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->size(), 1u);
  EXPECT_TRUE(loop->Contains({u_.Const("a"), u_.Const("a")}));
}

// Property sweep: on random CQs and instances the fast path agrees with
// the generic evaluator tuple-for-tuple.
class CqAgreementSweep : public ::testing::TestWithParam<int> {};

TEST_P(CqAgreementSweep, AgreesWithGenericEvaluator) {
  Universe u;
  Rng rng(4242 + GetParam());
  Instance inst;
  size_t n = 2 + rng.Below(3);
  for (size_t i = 0; i < 2 * n; ++i) {
    inst.Add("E", {u.IntConst(static_cast<int64_t>(rng.Below(n))),
                   u.IntConst(static_cast<int64_t>(rng.Below(n)))});
    inst.Add("V", {u.IntConst(static_cast<int64_t>(rng.Below(n)))});
  }
  const char* queries[] = {
      "E(x, y)",
      "exists z. E(x, z) & E(z, y)",
      "E(x, y) & V(x) & V(y)",
      "exists z w. E(x, z) & E(z, w) & E(w, y)",
      "E(x, x) & E(x, y)",
      "E(x, y) & x = y",
      "E(x, y) & x != y",
      "E(x, y) & !E(y, x)",
      "E(x, y) & !exists z. E(y, z)",
  };
  for (const char* text : queries) {
    Result<FormulaPtr> q = ParseFormula(text, &u);
    ASSERT_TRUE(q.ok());
    std::optional<Relation> fast = TryEvalCQ(q.value(), {"x", "y"}, inst);
    ASSERT_TRUE(fast.has_value()) << text;
    // Generic evaluation, bypassing every fast path by evaluating the
    // formula under the full domain enumeration.
    Evaluator ev(inst, u, EngineContext::ForMode(JoinEngineMode::kGeneric));
    std::vector<Value> domain = ev.Domain(q.value());
    Relation slow(2);
    for (Value x : domain) {
      for (Value y : domain) {
        Env env;
        env["x"] = x;
        env["y"] = y;
        Result<bool> holds = ev.Holds(q.value(), env);
        ASSERT_TRUE(holds.ok());
        if (holds.value()) slow.Add({x, y});
      }
    }
    EXPECT_TRUE(*fast == slow) << text << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CqAgreementSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace ocdx
