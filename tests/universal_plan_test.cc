// Differential tests for universal sentences compiled as negated plans
// (plan/compile.h): a boolean-mode `forall x-bar. phi -> psi` with every
// free variable bound runs as the relational plan of its existential
// dual `exists x-bar. phi & !psi`, negated. Every sentence here is
// evaluated over seeded small instances by the indexed evaluator and by
// the generic one (JoinEngineMode::kGeneric, the active-domain definition
// applied literally), and the answers must agree. The plan kind is pinned
// too: domain-dependent shapes must stay on the generic skeleton, and
// the guard-depth diagnostic still speaks about the formula as written.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "plan/compile.h"
#include "plan/plan_table.h"
#include "util/rng.h"

namespace ocdx {
namespace {

struct Case {
  const char* formula;
  /// Expected compile: true = negated relational plan, false = generic.
  bool negated_plan;
};

// Key and inclusion constraints, constants on both sides, an existential
// CQ consequent, a guard in the antecedent, a negated consequent, nested
// quantifier blocks, and a free variable bound from outside (`k`).
const Case kRelational[] = {
    {"forall x y1 y2. (E(x, y1) & E(x, y2)) -> y1 = y2", true},
    {"forall x y. E(x, y) -> A(x)", true},
    {"forall x y. E(x, y) -> exists z. F(y, z)", true},
    {"forall x y. E(x, y) -> exists z. F(y, z) & A(z)", true},
    {"forall y. E('a', y) -> (F(y, 'b') & A(y))", true},
    {"forall x y. E(x, y) -> x = 'a'", true},
    {"forall x y. (E(x, y) & !A(y)) -> F(x, y)", true},
    {"forall x y. E(x, y) -> !F(y, x)", true},
    {"forall x. forall y. E(x, y) -> E(y, x)", true},
    {"forall y. E(k, y) -> A(y)", true},
    {"forall y. (E(k, y) & A(k)) -> y = k", true},
    // Relations the instances never hold: the dual is trivially empty
    // (reads true), or its guard can never match.
    {"forall x. M(x) -> A(x)", true},
    {"forall x. A(x) -> M(x)", true},
};

// Shapes that are not domain independent, or not a CQ with one-level
// guards, keep the generic skeleton.
const Case kGenericOnly[] = {
    {"forall x. A(x)", false},
    {"forall x y. A(x) -> E(x, y)", false},
    {"forall x. A(x) -> (E(x, x) | F(x, x))", false},
    {"forall x y. (A(x) & x = y) -> A(y)", false},
    // A negation inside the consequent's guard body: the dual's guard
    // would be two levels deep.
    {"forall x. A(x) -> exists y. E(x, y) & !F(y, y)", false},
};

class UniversalPlanTest : public ::testing::TestWithParam<int> {
 protected:
  FormulaPtr Parse(const std::string& text) {
    Result<FormulaPtr> r = ParseFormula(text, &u_);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return r.ok() ? r.value() : Formula::False();
  }

  // A small random instance: A/1, E/2, F/2 over three constants and one
  // null (naive evaluation treats the null as an ordinary value). Each
  // relation may come out empty; M is declared empty on odd seeds and
  // absent on even ones.
  Instance RandomInstance(Rng* rng) {
    const Value pool[] = {u_.Const("a"), u_.Const("b"), u_.Const("c"),
                          null_};
    auto pick = [&] { return pool[rng->Below(4)]; };
    Instance inst;
    inst.GetOrCreate("A", 1);
    inst.GetOrCreate("E", 2);
    inst.GetOrCreate("F", 2);
    if (GetParam() % 2 == 1) inst.GetOrCreate("M", 1);
    for (uint64_t i = rng->Below(4); i > 0; --i) inst.Add("A", {pick()});
    for (uint64_t i = rng->Below(6); i > 0; --i) {
      inst.Add("E", {pick(), pick()});
    }
    for (uint64_t i = rng->Below(5); i > 0; --i) {
      inst.Add("F", {pick(), pick()});
    }
    return inst;
  }

  // Checks one sentence over `inst` under `binding` (which binds `k` when
  // the sentence mentions it): indexed == generic, and the compiled kind.
  void Check(const Case& c, const Instance& inst, const Env& binding) {
    SCOPED_TRACE(c.formula);
    FormulaPtr f = Parse(c.formula);
    EngineStats stats;
    EngineContext indexed;
    indexed.stats = &stats;
    indexed.EnsureCache();
    Evaluator fast(inst, u_, indexed);
    Result<bool> got = fast.Holds(f, binding);
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    Evaluator oracle(inst, u_,
                     EngineContext::ForMode(JoinEngineMode::kGeneric));
    Result<bool> want = oracle.Holds(f, binding);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got.value(), want.value()) << inst.ToString(u_);

    if (c.negated_plan) {
      EXPECT_EQ(stats.cq_plans, 1u);
      EXPECT_EQ(stats.generic_evals, 0u);
    } else {
      EXPECT_EQ(stats.cq_plans, 0u);
      EXPECT_EQ(stats.generic_evals, 1u);
    }
    // The diagnostic and its counter speak about the formula as
    // written; a universal sentence never trips them.
    EXPECT_FALSE(plan::GuardDepthExceeded(f));
    EXPECT_EQ(stats.guard_depth_fallbacks, 0u);
  }

  Universe u_;
  Value null_ = u_.FreshNull("n");
};

TEST_P(UniversalPlanTest, IndexedAgreesWithGenericOnSeededInstances) {
  Rng rng(4242 + static_cast<uint64_t>(GetParam()));
  for (int round = 0; round < 8; ++round) {
    Instance inst = RandomInstance(&rng);
    Env binding;
    binding["k"] = rng.Below(2) == 0 ? u_.Const("a") : null_;
    for (const Case& c : kRelational) Check(c, inst, binding);
    for (const Case& c : kGenericOnly) Check(c, inst, binding);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniversalPlanTest, ::testing::Range(0, 6));

TEST(UniversalPlan, CompilesToANegatedPlanKeyedByTheSourceFormula) {
  Universe u;
  Instance inst;
  inst.Add("E", {u.Const("a"), u.Const("b")});
  Result<FormulaPtr> f =
      ParseFormula("forall x y1 y2. (E(x, y1) & E(x, y2)) -> y1 = y2", &u);
  ASSERT_TRUE(f.ok());

  plan::CompileRequest req;
  req.formula = f.value();
  req.boolean_mode = true;
  plan::CompiledQueryPtr q = plan::CompileQuery(
      req, inst, JoinEngineMode::kIndexed, plan::SchemaFingerprint(inst));
  ASSERT_EQ(q->kind, plan::PlanKind::kRelational);
  EXPECT_TRUE(q->relational->negate);
  EXPECT_EQ(q->source, f.value()) << "keyed under the formula as written";
  EXPECT_FALSE(q->guard_depth_fallback);

  // Answers mode and the generic engine never take the dual.
  req.boolean_mode = false;
  EXPECT_EQ(plan::CompileQuery(req, inst, JoinEngineMode::kIndexed, 1)->kind,
            plan::PlanKind::kGeneric);
  req.boolean_mode = true;
  EXPECT_EQ(plan::CompileQuery(req, inst, JoinEngineMode::kGeneric, 0)->kind,
            plan::PlanKind::kGeneric);

  // Repeated evaluation through a table: one compile, then hits on the
  // same plan; no formula is rebuilt per call.
  EngineStats stats;
  EngineContext ctx;
  ctx.stats = &stats;
  ctx.EnsureCache();
  Evaluator ev(inst, u, ctx);
  for (int i = 0; i < 3; ++i) {
    Result<bool> r = ev.Holds(f.value());
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value());
  }
  EXPECT_EQ(stats.plan_compiles, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 2u);
  EXPECT_EQ(stats.cq_plans, 3u);
  EXPECT_EQ(stats.generic_evals, 0u);

  inst.Add("E", {u.Const("a"), u.Const("c")});  // Breaks the key.
  Evaluator broken(inst, u, ctx);
  Result<bool> r = broken.Holds(f.value());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());
}

TEST(UniversalPlan, UnboundFreeVariableStaysGeneric) {
  // With `k` free and unbound the sentence is not closed: the evaluator
  // must take the generic path, which reports the unbound variable.
  Universe u;
  Instance inst;
  inst.Add("E", {u.Const("a"), u.Const("b")});
  Result<FormulaPtr> f = ParseFormula("forall y. E(k, y) -> E(y, k)", &u);
  ASSERT_TRUE(f.ok());
  EngineStats stats;
  EngineContext ctx;
  ctx.stats = &stats;
  Evaluator ev(inst, u, ctx);
  Result<bool> r = ev.Holds(f.value());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(stats.cq_plans, 0u);
}

TEST(UniversalPlan, NestedGuardNoteIsUnchanged) {
  // The enumerate workload's lonely_office shape keeps its note and its
  // fallback count: nested guards are not compiled.
  Universe u;
  Result<FormulaPtr> f = ParseFormula(
      "exists x o. Assign(x, o) & !(exists y. Assign(y, o) & !(y = x))", &u);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(plan::GuardDepthExceeded(f.value()));
  Instance inst;
  inst.Add("Assign", {u.Const("e"), u.Const("o")});
  EngineStats stats;
  EngineContext ctx;
  ctx.stats = &stats;
  Evaluator ev(inst, u, ctx);
  Result<bool> r = ev.Holds(f.value());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  EXPECT_EQ(stats.guard_depth_fallbacks, 1u);
  EXPECT_EQ(stats.generic_evals, 1u);
}

}  // namespace
}  // namespace ocdx
