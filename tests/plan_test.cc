// Tests for the src/plan subsystem: compile-once / bind-per-instance
// semantics, the context-owned plan table, and the guard-depth
// diagnostic. The engine-level parity triangles live in
// engine_parity_test.cc; this file pins the plan layer's own contracts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "logic/cq_eval.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "plan/compile.h"
#include "plan/plan_table.h"

namespace ocdx {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  FormulaPtr Parse(const std::string& text) {
    Result<FormulaPtr> r = ParseFormula(text, &u_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : Formula::False();
  }
  EngineContext Cached() {
    EngineContext ctx;
    ctx.plans = std::make_shared<plan::PlanTable>();
    ctx.stats = &stats_;
    return ctx;
  }
  Universe u_;
  EngineStats stats_;
};

TEST_F(PlanTest, CompiledPlanRebindsAcrossInstances) {
  // One compiled plan, executed against instances with different
  // contents (the member-enumeration shape). Results must match fresh
  // per-instance compilation, and the compile must happen exactly once.
  Instance a, b;
  a.Add("E", {u_.Const("a"), u_.Const("b")});
  a.Add("E", {u_.Const("b"), u_.Const("c")});
  b.Add("E", {u_.Const("x"), u_.Const("x")});
  b.Add("E", {u_.Const("x"), u_.Const("y")});

  FormulaPtr f = Parse("exists z. E(x, z) & E(z, y)");
  EngineContext ctx = Cached();

  std::optional<Relation> ra = TryEvalCQ(f, {"x", "y"}, a, ctx);
  std::optional<Relation> rb = TryEvalCQ(f, {"x", "y"}, b, ctx);
  ASSERT_TRUE(ra.has_value() && rb.has_value());
  // Same-shape instances share one table entry: one compile, one hit.
  EXPECT_EQ(stats_.plan_compiles, 1u);
  EXPECT_EQ(stats_.plan_cache_hits, 1u);
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
  EXPECT_EQ(ctx.plans->size(), 1u);

  std::optional<Relation> fresh_a = TryEvalCQ(f, {"x", "y"}, a);
  std::optional<Relation> fresh_b = TryEvalCQ(f, {"x", "y"}, b);
  ASSERT_TRUE(fresh_a.has_value() && fresh_b.has_value());
  EXPECT_TRUE(*ra == *fresh_a);
  EXPECT_TRUE(*rb == *fresh_b);
  EXPECT_TRUE(rb->Contains({u_.Const("x"), u_.Const("x")}));
  EXPECT_TRUE(rb->Contains({u_.Const("x"), u_.Const("y")}));
}

TEST_F(PlanTest, GuardReactivatesWhenRebindingFindsTuples) {
  // The pre-PR 5 compiler dropped guards over empty relations at compile
  // time; the schema-level plan keeps them and BindQuery decides per
  // instance. Same schema fingerprint (both instances declare E and M),
  // different guard liveness.
  Instance no_m, with_m;
  no_m.Add("E", {u_.Const("a"), u_.Const("b")});
  no_m.GetOrCreate("M", 1);  // Declared but empty: guard can never match.
  with_m.Add("E", {u_.Const("a"), u_.Const("b")});
  with_m.Add("E", {u_.Const("c"), u_.Const("d")});
  with_m.Add("M", {u_.Const("b")});

  FormulaPtr f = Parse("E(x, y) & !M(y)");
  EngineContext ctx = Cached();

  std::optional<Relation> r1 = TryEvalCQ(f, {"x", "y"}, no_m, ctx);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->size(), 1u);  // Guard vacuous: the edge survives.

  std::optional<Relation> r2 = TryEvalCQ(f, {"x", "y"}, with_m, ctx);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(stats_.plan_compiles, 1u) << "same fingerprint, one plan";
  EXPECT_EQ(r2->size(), 1u);
  EXPECT_TRUE(r2->Contains({u_.Const("c"), u_.Const("d")}));
  EXPECT_FALSE(r2->Contains({u_.Const("a"), u_.Const("b")}));
}

TEST_F(PlanTest, BooleanPresetsAreRuntimeValues) {
  // A cached boolean plan must re-read the binding per call — preset
  // values cannot be baked in at compile time.
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  FormulaPtr f = Parse("exists z. E(x, z)");
  EngineContext ctx = Cached();

  Evaluator ev(inst, u_, ctx);
  Env hit{{"x", u_.Const("a")}};
  Env miss{{"x", u_.Const("b")}};
  auto holds = [](Result<bool> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r.value();
  };
  // One prepared plan, run under both bindings.
  PreparedQuery q = ev.PrepareHolds(f, hit);
  EXPECT_TRUE(holds(ev.Holds(q, hit)));
  EXPECT_FALSE(holds(ev.Holds(q, miss)));
  EXPECT_TRUE(holds(ev.Holds(q, hit)));
  // Each formula-path call prepares again: one plan-table probe each.
  EXPECT_FALSE(holds(ev.Holds(f, miss)));
  EXPECT_TRUE(holds(ev.Holds(f, hit)));
  EXPECT_EQ(stats_.plan_compiles, 1u);
  EXPECT_EQ(stats_.plan_cache_hits, 2u);
  EXPECT_EQ(stats_.cq_plans, 5u) << "every run is the compiled plan";
  EXPECT_EQ(stats_.generic_evals, 0u);
}

TEST_F(PlanTest, CacheKeysDistinguishModeOrderAndSchema) {
  Instance a, b;
  a.Add("E", {u_.Const("a"), u_.Const("b")});
  b.Add("F", {u_.Const("a"), u_.Const("b")});  // Different shape.
  FormulaPtr f = Parse("E(x, y)");
  EngineContext ctx = Cached();
  // Same table and stats, generic mode.
  EngineContext generic_ctx = ctx;
  generic_ctx.mode = JoinEngineMode::kGeneric;
  Evaluator generic(a, u_, generic_ctx);

  ASSERT_TRUE(TryEvalCQ(f, {"x", "y"}, a, ctx).has_value());
  ASSERT_TRUE(generic.Answers(f, {"x", "y"}).ok());           // Mode.
  ASSERT_TRUE(TryEvalCQ(f, {"y", "x"}, a, ctx).has_value());  // Order.
  ASSERT_TRUE(TryEvalCQ(f, {"x", "y"}, b, ctx).has_value());  // Schema.
  EXPECT_EQ(stats_.plan_compiles, 4u);
  EXPECT_EQ(stats_.plan_cache_hits, 0u);
  // And each re-run is a hit.
  ASSERT_TRUE(TryEvalCQ(f, {"x", "y"}, a, ctx).has_value());
  ASSERT_TRUE(generic.Answers(f, {"x", "y"}).ok());
  EXPECT_EQ(stats_.plan_cache_hits, 2u);
  EXPECT_EQ(stats_.plan_compiles, 4u);
}

TEST_F(PlanTest, GuardDepthDiagnostic) {
  // One negation level is a supported guard; a negation *inside* a guard
  // body falls back to the generic evaluator and is diagnosed.
  EXPECT_FALSE(plan::GuardDepthExceeded(Parse("E(x, y) & !E(y, x)")));
  EXPECT_FALSE(plan::GuardDepthExceeded(Parse("!(exists p. E(p, p))")));
  FormulaPtr deep = Parse("E(x, y) & !(exists z. E(y, z) & !E(z, z))");
  EXPECT_TRUE(plan::GuardDepthExceeded(deep));

  // The evaluator still answers it (generic path), counts the fallback,
  // and the result matches the fully generic engine.
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  inst.Add("E", {u_.Const("b"), u_.Const("c")});
  inst.Add("E", {u_.Const("c"), u_.Const("c")});
  EngineContext ctx = Cached();
  Evaluator ev(inst, u_, ctx);
  Result<Relation> r = ev.Answers(deep, {"x", "y"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats_.guard_depth_fallbacks, 1u);
  Evaluator generic(inst, u_,
                    EngineContext::ForMode(JoinEngineMode::kGeneric));
  Result<Relation> slow = generic.Answers(deep, {"x", "y"});
  ASSERT_TRUE(slow.ok());
  EXPECT_TRUE(r.value() == slow.value());
  // "a -> b" survives: b's only successor c is a self-loop, so the inner
  // guard kills every witness of the outer guard body.
  EXPECT_TRUE(r.value().Contains({u_.Const("a"), u_.Const("b")}));
}

TEST_F(PlanTest, GenericPlansAreCachedToo) {
  // Non-CQ shapes (disjunction) go through the generic skeleton, which
  // the table holds like any other plan.
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  FormulaPtr f = Parse("E(x, y) | E(y, x)");
  EngineContext ctx = Cached();
  Evaluator ev(inst, u_, ctx);
  Result<Relation> r1 = ev.Answers(f, {"x", "y"});
  Result<Relation> r2 = ev.Answers(f, {"x", "y"});
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(r1.value() == r2.value());
  EXPECT_EQ(r1.value().size(), 2u);
  EXPECT_EQ(stats_.plan_compiles, 1u);
  EXPECT_GE(stats_.plan_cache_hits, 1u);
}

TEST_F(PlanTest, ZeroCapacityTableCompilesEveryCall) {
  // The cache-off leg of the parity tests: a table that publishes
  // nothing, so every call compiles and answers stay the same.
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  FormulaPtr f = Parse("E(x, y)");
  EngineContext ctx;
  ctx.plans = std::make_shared<plan::PlanTable>(0);
  ctx.stats = &stats_;
  std::optional<Relation> r1 = TryEvalCQ(f, {"x", "y"}, inst, ctx);
  std::optional<Relation> r2 = TryEvalCQ(f, {"x", "y"}, inst, ctx);
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  EXPECT_TRUE(*r1 == *r2);
  EXPECT_EQ(stats_.plan_compiles, 2u);
  EXPECT_EQ(stats_.plan_cache_hits, 0u);
  EXPECT_EQ(ctx.plans->size(), 0u);
}

TEST_F(PlanTest, RacingThreadsCompileOneKeyOnce) {
  // 8 threads race GetOrCompile on one key of one table: the
  // double-checked, mutex-serialized compile publishes exactly one plan
  // and every thread gets it. Each thread keeps its own stats sink, as
  // fan-out shards do.
  Instance inst;
  inst.Add("E", {u_.Const("a"), u_.Const("b")});
  plan::CompileRequest req;
  req.formula = Parse("exists z. E(x, z) & E(z, y)");
  req.order = {"x", "y"};
  auto table = std::make_shared<plan::PlanTable>();

  constexpr int kThreads = 8;
  std::vector<EngineStats> stats(kThreads);
  std::vector<plan::CompiledQueryPtr> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EngineContext ctx;
      ctx.plans = table;
      ctx.stats = &stats[t];
      got[t] = plan::GetOrCompile(req, inst, JoinEngineMode::kIndexed, ctx);
    });
  }
  for (std::thread& th : threads) th.join();

  EngineStats total;
  for (const EngineStats& s : stats) total += s;
  EXPECT_EQ(total.plan_compiles, 1u);
  EXPECT_EQ(total.plan_cache_misses, 1u);
  EXPECT_EQ(total.plan_cache_hits, kThreads - 1u);
  EXPECT_EQ(table->size(), 1u);
  for (const plan::CompiledQueryPtr& p : got) EXPECT_EQ(p, got[0]);
}

TEST_F(PlanTest, SchemaFingerprintIgnoresContents) {
  Instance a, b, c;
  a.Add("E", {u_.Const("a"), u_.Const("b")});
  b.Add("E", {u_.Const("p"), u_.Const("q")});
  b.Add("E", {u_.Const("q"), u_.Const("p")});
  c.Add("E", {u_.Const("a")});  // Same name, different arity.
  EXPECT_EQ(plan::SchemaFingerprint(a), plan::SchemaFingerprint(b));
  EXPECT_NE(plan::SchemaFingerprint(a), plan::SchemaFingerprint(c));
  EXPECT_NE(plan::SchemaFingerprint(a), 0u);
}

}  // namespace
}  // namespace ocdx
