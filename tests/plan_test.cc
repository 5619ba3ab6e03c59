// Tests for the src/plan subsystem: compile-once / bind-per-instance
// semantics, the context-owned plan table, and the guard-depth
// diagnostic. The engine-level parity triangles live in
// engine_parity_test.cc; this file pins the plan layer's own contracts.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "logic/cq_eval.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "plan/compile.h"
#include "plan/plan_table.h"
#include "plan/runner.h"
#include "util/str.h"

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
  // The benchmark's exchange shape, small: 60 nodes, each with hops to
  // the next 8, labelled with 4 colours round-robin, so every node has
  // exactly 2 hops to a node of its own colour.
  Instance ColourGraph() {
    constexpr int kNodes = 60;
    auto node = [this](int i) { return u_.Const(StrCat("n", i % kNodes)); };
    Instance inst;
    for (int x = 0; x < kNodes; ++x) {
      for (int d = 1; d <= 8; ++d) inst.Add("Hop", {node(x), node(x + d)});
      inst.Add("Lab", {node(x), u_.Const(StrCat("c", x % 4))});
    }
    return inst;
  }
  plan::CompiledQueryPtr CompileAnswers(const std::string& text,
                                        const std::vector<std::string>& order,
                                        const Instance& inst) {
    plan::CompileRequest req;
    req.formula = Parse(text);
    req.order = order;
    return plan::CompileQuery(req, inst, JoinEngineMode::kIndexed,
                              plan::SchemaFingerprint(inst));
  }
  // Runs the query on the indexed plan and the generic oracle, expects
  // equal answer sets, and returns the indexed run's full matches.
  uint64_t FullMatches(const std::string& text,
                       const std::vector<std::string>& order,
                       const Instance& inst, size_t* answers) {
    FormulaPtr f = Parse(text);
    plan::relational_run_stats().Reset();
    std::optional<Relation> fast = TryEvalCQ(f, order, inst);
    uint64_t matches = plan::relational_run_stats().full_matches;
    EXPECT_TRUE(fast.has_value());
    if (!fast.has_value()) return matches;
    Evaluator generic(inst, u_,
                      EngineContext::ForMode(JoinEngineMode::kGeneric));
    Result<Relation> slow = generic.Answers(f, order);
    EXPECT_TRUE(slow.ok() && *fast == slow.value()) << text;
    *answers = fast->size();
    return matches;
  }
  Universe u_;
  EngineStats stats_;
};

TEST_F(PlanTest, SameColourHopBindsOutputFirstAndStopsAtWitness) {
  // Keying Lab(w, l) on its 4-colour column would fan out by a quarter
  // of Lab; the distinct-count model keys Hop(x, w) on its node column
  // instead, after the tie at step 0 went to the atom that binds x.
  Instance inst = ColourGraph();
  const std::string q = "exists w l. Hop(x, w) & Lab(w, l) & Lab(x, l)";
  plan::CompiledQueryPtr cq = CompileAnswers(q, {"x"}, inst);
  ASSERT_EQ(cq->kind, plan::PlanKind::kRelational);
  const plan::RelationalPlan& plan = *cq->relational;
  ASSERT_EQ(plan.atoms.size(), 3u);
  EXPECT_EQ(cq->relations[plan.atoms[0].rel_slot], "Lab");
  EXPECT_EQ(plan.atoms[0].mask, 0u);
  EXPECT_NE(std::find(plan.atoms[0].binds.begin(), plan.atoms[0].binds.end(),
                      std::pair<uint32_t, int>{0, plan.out_slots[0]}),
            plan.atoms[0].binds.end())
      << "step 0 binds x";
  EXPECT_EQ(cq->relations[plan.atoms[1].rel_slot], "Hop");
  EXPECT_EQ(plan.witness_step, 0);

  // One full match per answer row: the second same-colour hop of each
  // node is never reached.
  size_t rows = 0, pairs = 0;
  EXPECT_EQ(FullMatches(q, {"x"}, inst, &rows), 60u);
  EXPECT_EQ(rows, 60u);
  // With w in the output every match is a distinct row.
  EXPECT_EQ(FullMatches("exists l. Hop(x, w) & Lab(w, l) & Lab(x, l)",
                        {"x", "w"}, inst, &pairs),
            120u);
  EXPECT_EQ(pairs, 120u);
}

TEST_F(PlanTest, WitnessStepIsLastWhenTheLastStepBindsAnOutput) {
  // The constant keys Lab on a 4-colour column (60 / 4 rows) ahead of
  // the unkeyed Hop; w, the only output, is bound by the last step, so
  // every match is enumerated.
  Instance inst = ColourGraph();
  const std::string q = "exists x. Lab(x, 'c0') & Hop(x, w)";
  plan::CompiledQueryPtr cq = CompileAnswers(q, {"w"}, inst);
  ASSERT_EQ(cq->kind, plan::PlanKind::kRelational);
  const plan::RelationalPlan& plan = *cq->relational;
  ASSERT_EQ(plan.atoms.size(), 2u);
  EXPECT_EQ(cq->relations[plan.atoms[0].rel_slot], "Lab");
  EXPECT_EQ(plan.witness_step, 1);
  size_t rows = 0;
  EXPECT_EQ(FullMatches(q, {"w"}, inst, &rows), 15u * 8u);
  EXPECT_EQ(rows, 60u);
}

TEST_F(PlanTest, NoOutputSlotEndsTheRunAtTheFirstMatch) {
  // No atom binds an out slot: the empty row is fixed before step 0, so
  // the first of the 120 matches ends the run, as in boolean mode.
  Instance inst = ColourGraph();
  const std::string q = "exists x w. Hop(x, w) & Lab(w, 'c0')";
  EXPECT_EQ(CompileAnswers(q, {}, inst)->relational->witness_step, -1);
  size_t rows = 0;
  EXPECT_EQ(FullMatches(q, {}, inst, &rows), 1u);
  EXPECT_EQ(rows, 1u);

  plan::CompileRequest boolean;
  boolean.formula = Parse(q);
  boolean.boolean_mode = true;
  plan::CompiledQueryPtr cq = plan::CompileQuery(
      boolean, inst, JoinEngineMode::kIndexed, plan::SchemaFingerprint(inst));
  ASSERT_EQ(cq->kind, plan::PlanKind::kRelational);
  EXPECT_EQ(cq->relational->witness_step, -1);
}

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
