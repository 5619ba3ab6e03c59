// Tests for semantic composition (Theorem 4, Table 1): the NP paths, the
// 3-colorability reduction, Lemma 3 / Corollary 4, and Proposition 6's
// non-composability witness family; the NP paths as a sharded, governed
// member loop; and the search counters pinned at one shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "compose/compose.h"
#include "logic/budget.h"
#include "logic/engine_context.h"
#include "mapping/rule_parser.h"
#include "skolem/compose.h"
#include "skolem/skolem.h"
#include "text/dx_parser.h"
#include "util/fault.h"
#include "util/str.h"
#include "workloads/coloring.h"
#include "workloads/scenarios.h"

namespace ocdx {
namespace {

class ComposeTest : public ::testing::Test {
 protected:
  ComposeVerdict MustDecide(const Mapping& sigma, const Mapping& delta,
                            const Instance& s, const Instance& w,
                            ComposeOptions opts = {}) {
    Result<ComposeVerdict> r = InComposition(sigma, delta, s, w, &u_, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : ComposeVerdict{};
  }
  Universe u_;
};

// --- Theorem 4 NP-hardness reduction: 3-colorability -----------------------

TEST_F(ComposeTest, TriangleIsThreeColorable) {
  Result<ColoringReduction> red =
      BuildColoringReduction(CompleteGraph(3), &u_);
  ASSERT_TRUE(red.ok()) << red.status().ToString();
  ComposeVerdict v = MustDecide(red.value().sigma, red.value().delta,
                                red.value().source, red.value().target);
  EXPECT_TRUE(v.member);
  EXPECT_TRUE(v.exhaustive);
  EXPECT_NE(v.method.find("all-closed Sigma"), std::string::npos) << v.method;
}

TEST_F(ComposeTest, K4IsNotThreeColorable) {
  Result<ColoringReduction> red =
      BuildColoringReduction(CompleteGraph(4), &u_);
  ASSERT_TRUE(red.ok());
  ComposeVerdict v = MustDecide(red.value().sigma, red.value().delta,
                                red.value().source, red.value().target);
  EXPECT_FALSE(v.member);
  EXPECT_TRUE(v.exhaustive) << "all-closed path is a decision procedure";
}

// Property sweep: the reduction agrees with brute-force 3-colorability,
// for every annotation of Delta (the theorem's "for every alpha'").
class ColoringSweep : public ComposeTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(ColoringSweep, ReductionMatchesBruteForce) {
  Rng rng(1234 + GetParam());
  Graph g = RandomGraph(4, 1, 2, &rng);
  bool expected = IsThreeColorable(g);
  for (Ann delta_ann : {Ann::kClosed, Ann::kOpen}) {
    Result<ColoringReduction> red =
        BuildColoringReduction(g, &u_, delta_ann);
    ASSERT_TRUE(red.ok());
    ComposeVerdict v = MustDecide(red.value().sigma, red.value().delta,
                                  red.value().source, red.value().target);
    EXPECT_EQ(v.member, expected)
        << "graph seed " << GetParam() << " delta_ann "
        << AnnToString(delta_ann);
    EXPECT_TRUE(v.exhaustive);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ColoringSweep,
                         ::testing::Range(0, 8));

// --- Lemma 3 / Corollary 4: monotone all-open Delta -------------------------

TEST_F(ComposeTest, MonotoneAllOpenDeltaCollapsesSigmaAnnotation) {
  // Sigma copies E with varying annotation; Delta (monotone CQ, all-open)
  // asks for a 2-path witness in omega.
  Schema src, tau, omega;
  src.Add("E", 2);
  tau.Add("F", 2);
  omega.Add("P", 2);
  Instance s;
  s.Add("E", {u_.Const("a"), u_.Const("b")});
  s.Add("E", {u_.Const("b"), u_.Const("c")});
  Instance w;
  w.Add("P", {u_.Const("a"), u_.Const("c")});

  Result<Mapping> delta = ParseMapping(
      "P(x^op, y^op) :- exists z. F(x, z) & F(z, y);", tau, omega, &u_);
  ASSERT_TRUE(delta.ok());

  std::vector<bool> results;
  for (const char* rules :
       {"F(x^cl, y^cl) :- E(x, y);", "F(x^cl, y^op) :- E(x, y);",
        "F(x^op, y^op) :- E(x, y);"}) {
    Result<Mapping> sigma = ParseMapping(rules, src, tau, &u_);
    ASSERT_TRUE(sigma.ok());
    ComposeVerdict v =
        MustDecide(sigma.value(), delta.value(), s, w);
    EXPECT_TRUE(v.exhaustive);
    EXPECT_NE(v.method.find("NP"), std::string::npos) << v.method;
    results.push_back(v.member);
  }
  // Lemma 3: all annotations of Sigma give the same composition.
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
  EXPECT_TRUE(results[0]) << "copying E then taking 2-paths reaches (a,c)";
}

// --- Proposition 6: the witness family ---------------------------------------

TEST_F(ComposeTest, Prop6CompositionMembers) {
  // Claim 6: every uniform instance { (i, c) : i = 1..n } belongs to the
  // composition, for any single value c.
  Result<Prop6Scenario> sc =
      BuildProp6Scenario(3, Ann::kClosed, Ann::kClosed, &u_);
  ASSERT_TRUE(sc.ok());
  Instance w;
  for (int i = 1; i <= 3; ++i) {
    w.Add("Dr", {u_.IntConst(i), u_.Const("c")});
  }
  ComposeVerdict v =
      MustDecide(sc.value().sigma, sc.value().delta, sc.value().source, w);
  EXPECT_TRUE(v.member);

  // But dropping a row breaks it: C = {1..n} forces every i to pair with
  // the (single, closed) N-value.
  Instance partial;
  partial.Add("Dr", {u_.IntConst(1), u_.Const("c")});
  ComposeVerdict v2 = MustDecide(sc.value().sigma, sc.value().delta,
                                 sc.value().source, partial);
  EXPECT_FALSE(v2.member);
  EXPECT_TRUE(v2.exhaustive);

  // Two different second-column values cannot both be present: the
  // intermediate N holds exactly one (closed) value.
  Instance two_vals;
  for (int i = 1; i <= 3; ++i) {
    two_vals.Add("Dr", {u_.IntConst(i), u_.Const("c")});
    two_vals.Add("Dr", {u_.IntConst(i), u_.Const("d")});
  }
  ComposeVerdict v3 = MustDecide(sc.value().sigma, sc.value().delta,
                                 sc.value().source, two_vals);
  EXPECT_FALSE(v3.member);
}

// --- General path (#op >= 1) --------------------------------------------------

TEST_F(ComposeTest, OpenSigmaGeneralPathFindsWitness) {
  // Sigma with an open position: the intermediate may replicate, which
  // the composition needs here.
  Schema src, tau, omega;
  src.Add("E", 1);
  tau.Add("F", 2);
  omega.Add("P", 2);
  Result<Mapping> sigma =
      ParseMapping("F(x^cl, z^op) :- E(x);", src, tau, &u_);
  Result<Mapping> delta = ParseMapping(
      "P(y^cl, y2^cl) :- F(x, y) & F(x, y2) & !(y = y2);", tau, omega, &u_);
  ASSERT_TRUE(sigma.ok());
  ASSERT_TRUE(delta.ok());

  Instance s;
  s.Add("E", {u_.Const("a")});
  // W needs two distinct F-successors of a: only possible by replicating
  // the open null.
  Instance w;
  w.Add("P", {u_.Const("u"), u_.Const("v")});
  w.Add("P", {u_.Const("v"), u_.Const("u")});

  ComposeOptions opts;
  opts.enum_options.fresh_pool = 2;
  ComposeVerdict v =
      MustDecide(sigma.value(), delta.value(), s, w, opts);
  EXPECT_TRUE(v.member);
  EXPECT_TRUE(v.exhaustive) << "positive verdicts carry a concrete witness";
  EXPECT_NE(v.method.find("Thm 4.2"), std::string::npos) << v.method;

  // With a closed second position the same W is impossible.
  Result<Mapping> sigma_cl =
      ParseMapping("F(x^cl, z^cl) :- E(x);", src, tau, &u_);
  ASSERT_TRUE(sigma_cl.ok());
  ComposeVerdict v2 = MustDecide(sigma_cl.value(), delta.value(), s, w, opts);
  EXPECT_FALSE(v2.member);
  EXPECT_TRUE(v2.exhaustive);
}

// --- Input validation ---------------------------------------------------------

TEST_F(ComposeTest, RejectsBadInputs) {
  Schema src, tau, tau2, omega;
  src.Add("E", 1);
  tau.Add("F", 2);
  tau2.Add("F", 3);
  omega.Add("P", 1);
  Result<Mapping> sigma = ParseMapping("F(x^cl, z^cl) :- E(x);", src, tau,
                                       &u_);
  Result<Mapping> delta2 = ParseMapping(
      "P(x^cl) :- exists y z. F(x, y, z);", tau2, omega, &u_);
  ASSERT_TRUE(sigma.ok());
  ASSERT_TRUE(delta2.ok());
  Instance s, w;
  s.Add("E", {u_.Const("a")});
  w.GetOrCreate("P", 1);
  EXPECT_FALSE(
      InComposition(sigma.value(), delta2.value(), s, w, &u_).ok())
      << "intermediate schema mismatch";

  Instance with_null;
  with_null.Add("E", {u_.FreshNull()});
  Result<Mapping> delta = ParseMapping("P(x^cl) :- exists y. F(x, y);", tau,
                                       omega, &u_);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(
      InComposition(sigma.value(), delta.value(), with_null, w, &u_).ok());
}

// --- The NP paths run on the sharded, governed member loop ------------------

// One composition input, built into the universe it is decided in.
struct ComposeInput {
  Mapping sigma, delta;
  Instance source, target;
};

struct ComposeCase {
  std::string name;
  std::function<ComposeInput(Universe*)> build;
};

ComposeInput Coloring(const Graph& g, Ann delta_ann, Universe* u) {
  ColoringReduction red = BuildColoringReduction(g, u, delta_ann).value();
  return {red.sigma, red.delta, red.source, red.target};
}

// Lemma 3's column of Table 1 with nulls: #op(Sigma) = 1, so the NP path
// enumerates the closed view of CSolA(S). Every edge i -> i+1 of S becomes
// a path F(i, z_i), G(z_i, i+1) of J; two of the z_i that meet add the
// cross paths. W lists the edges of S (a member: the z_i stay apart), or
// all but the first (no J fits).
ComposeInput MonotoneOpen(size_t n, bool member, Universe* u) {
  Schema src, tau, omega;
  src.Add("E", 2);
  tau.Add("F", 2);
  tau.Add("G", 2);
  omega.Add("P", 2);
  ComposeInput in{
      ParseMapping("F(x^cl, z^op) & G(z^op, y^cl) :- E(x, y);", src, tau, u)
          .value(),
      ParseMapping("P(x^op, y^op) :- exists z. F(x, z) & G(z, y);", tau,
                   omega, u)
          .value(),
      {},
      {}};
  in.target.GetOrCreate("P", 2);
  for (size_t i = 0; i < n; ++i) {
    Tuple edge = {u->IntConst(static_cast<int64_t>(i)),
                  u->IntConst(static_cast<int64_t>(i + 1))};
    in.source.Add("E", edge);
    if (member || i > 0) in.target.Add("P", edge);
  }
  return in;
}

std::string MonotoneOpenName(size_t n, bool member) {
  return StrCat("monotone-open n=", n,
                member ? " W=edges" : " W=edges-but-first");
}

std::vector<ComposeCase> NpCases() {
  std::vector<ComposeCase> cases;
  for (size_t n : {3, 4}) {
    cases.push_back({StrCat("closed-sigma K", n), [n](Universe* u) {
                       return Coloring(CompleteGraph(n), Ann::kClosed, u);
                     }});
  }
  for (int seed : {0, 1, 2, 3}) {
    Rng rng(1234 + seed);
    Graph g = RandomGraph(4, 1, 2, &rng);
    cases.push_back({StrCat("closed-sigma random ", seed), [g](Universe* u) {
                       return Coloring(g, Ann::kOpen, u);
                     }});
  }
  for (size_t n : {1, 2, 3}) {
    for (bool member : {true, false}) {
      cases.push_back({MonotoneOpenName(n, member), [n, member](Universe* u) {
                         return MonotoneOpen(n, member, u);
                       }});
    }
  }
  return cases;
}

Result<ComposeVerdict> DecideCase(const ComposeCase& c,
                                  const EngineContext& ctx,
                                  ComposeOptions options = {}) {
  Universe u;
  ComposeInput in = c.build(&u);
  return InComposition(in.sigma, in.delta, in.source, in.target, &u, options,
                       ctx);
}

TEST(ComposeShard, NpVerdictEqualAcrossShards) {
  bool saw_member = false, saw_non_member = false;
  bool saw_closed = false, saw_open = false;
  for (const ComposeCase& c : NpCases()) {
    Result<ComposeVerdict> one = DecideCase(c, EngineContext());
    ASSERT_TRUE(one.ok()) << c.name << ": " << one.status().ToString();
    EXPECT_TRUE(one.value().exhaustive) << c.name;
    EXPECT_NE(one.value().method.find("NP"), std::string::npos) << c.name;
    (one.value().member ? saw_member : saw_non_member) = true;
    (one.value().method.find("all-closed") != std::string::npos ? saw_closed
                                                                : saw_open) =
        true;
    for (size_t shards : {2, 4}) {
      EngineContext ctx;
      ctx.shards = shards;
      Result<ComposeVerdict> many = DecideCase(c, ctx);
      ASSERT_TRUE(many.ok()) << c.name << ": " << many.status().ToString();
      EXPECT_EQ(many.value().member, one.value().member)
          << c.name << " at " << shards << " shards";
      EXPECT_EQ(many.value().exhaustive, one.value().exhaustive)
          << c.name << " at " << shards << " shards";
      EXPECT_EQ(many.value().method, one.value().method) << c.name;
      if (!one.value().member) {
        // A negative verdict visits every valuation, whatever the split.
        EXPECT_EQ(many.value().intermediates_checked,
                  one.value().intermediates_checked)
            << c.name << " at " << shards << " shards";
      }
    }
  }
  EXPECT_TRUE(saw_member && saw_non_member);
  EXPECT_TRUE(saw_closed && saw_open);
}

// Budget::max_members is a hard cap on the NP paths too: below the
// valuation count, the search is a governed ResourceExhausted.
TEST(ComposeShard, NpPathHonoursMemberBudget) {
  for (const ComposeCase& c : NpCases()) {
    Result<ComposeVerdict> free = DecideCase(c, EngineContext());
    ASSERT_TRUE(free.ok()) << c.name;
    if (free.value().member || free.value().intermediates_checked < 2) {
      continue;
    }
    for (size_t shards : {1, 2}) {
      EngineContext ctx;
      ctx.shards = shards;
      ctx.budget.max_members = free.value().intermediates_checked - 1;
      Result<ComposeVerdict> capped = DecideCase(c, ctx);
      ASSERT_FALSE(capped.ok()) << c.name << " at " << shards << " shards";
      EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted)
          << c.name << ": " << capped.status().ToString();
    }
  }
}

// The "enum" fault probe sits in the loop the NP paths now share.
TEST(ComposeShard, NpPathTripsEnumFault) {
  for (const ComposeCase& c : NpCases()) {
    for (size_t shards : {1, 2}) {
      EngineContext ctx;
      ctx.shards = shards;
      fault::InstallForTest("enum", 1);
      Result<ComposeVerdict> v = DecideCase(c, ctx);
      fault::Clear();
      ASSERT_FALSE(v.ok()) << c.name << " at " << shards << " shards";
      EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted) << c.name;
    }
  }
}

// The soft MemberEnumOptions::max_members bound does not cut an NP search
// short: every valuation is still visited, and a negative verdict stays a
// proof.
TEST(ComposeShard, NpPathIgnoresSoftMemberCap) {
  bool saw_capped = false;
  for (const ComposeCase& c : NpCases()) {
    Result<ComposeVerdict> free = DecideCase(c, EngineContext());
    ASSERT_TRUE(free.ok()) << c.name;
    if (free.value().member || free.value().intermediates_checked < 2) {
      continue;
    }
    saw_capped = true;
    ComposeOptions options;
    options.enum_options.max_members = 1;
    for (size_t shards : {1, 2}) {
      EngineContext ctx;
      ctx.shards = shards;
      Result<ComposeVerdict> capped = DecideCase(c, ctx, options);
      ASSERT_TRUE(capped.ok()) << c.name << ": " << capped.status().ToString();
      EXPECT_FALSE(capped.value().member) << c.name;
      EXPECT_TRUE(capped.value().exhaustive)
          << c.name << " at " << shards << " shards";
      EXPECT_EQ(capped.value().intermediates_checked,
                free.value().intermediates_checked)
          << c.name << " at " << shards << " shards";
    }
  }
  EXPECT_TRUE(saw_capped);
}

// Under --shards>1 the member enumerator runs its first prefix (here: the
// first intermediate) on the calling thread before fanning out. A witness
// there ends the search without starting a shard, after the same checks
// and chase triggers as a one-shard search; a search that needs more
// intermediates fans out, and its shards draw the later prefixes only,
// so a negative verdict checks each intermediate once, firing exactly the
// one-shard chase triggers.
TEST(ComposeShard, NpPathProbesFirstIntermediateBeforeFanningOut) {
  bool saw_probe_witness = false, saw_fan_out = false;
  for (const ComposeCase& c : NpCases()) {
    EngineStats one_stats;
    EngineContext one_ctx;
    one_ctx.stats = &one_stats;
    Result<ComposeVerdict> one = DecideCase(c, one_ctx);
    ASSERT_TRUE(one.ok()) << c.name;
    for (size_t shards : {2, 4}) {
      EngineStats stats;
      EngineContext ctx;
      ctx.shards = shards;
      ctx.stats = &stats;
      Result<ComposeVerdict> many = DecideCase(c, ctx);
      ASSERT_TRUE(many.ok()) << c.name;
      if (one.value().intermediates_checked == 1) {
        saw_probe_witness = saw_probe_witness || one.value().member;
        EXPECT_EQ(stats.enum_shard_runs, 0u) << c.name;
        EXPECT_EQ(many.value().intermediates_checked, 1u) << c.name;
        EXPECT_EQ(stats.chase_triggers, one_stats.chase_triggers) << c.name;
      } else {
        saw_fan_out = true;
        EXPECT_EQ(stats.enum_shard_runs, 1u) << c.name;
        if (!one.value().member) {
          EXPECT_EQ(stats.chase_triggers, one_stats.chase_triggers) << c.name;
          EXPECT_EQ(stats.compose_check_triggers,
                    one_stats.compose_check_triggers)
              << c.name;
        }
      }
    }
  }
  EXPECT_TRUE(saw_probe_witness && saw_fan_out);
}

// --- Search counters pinned at one shard -----------------------------------
//
// member, exhaustive and intermediates_checked / interpretations_checked of
// the composition scenarios above, the Skolem compositions of
// skolem_test.cc, the .dx corpus and bench_comp_table1's reductions,
// recorded before the NP path moved onto RepAMemberEnumerator and the
// Skolem searches onto ForEachInterpretation; the NP paths visit one
// intermediate per orbit of CSol(S)'s twin symmetries. A change to the
// valuation order or to what counts as one intermediate shows here.

std::string CounterLine(const std::string& name, const ComposeVerdict& v) {
  return StrCat(name, " member=", v.member ? 1 : 0, " exhaustive=",
                v.exhaustive ? 1 : 0, " intermediates=",
                v.intermediates_checked, "\n");
}

std::string CounterLine(const std::string& name,
                        const Result<SkolemMembership>& r) {
  if (!r.ok()) return StrCat(name, " error ", r.status().ToString(), "\n");
  return StrCat(name, " member=", r.value().member ? 1 : 0, " exhaustive=",
                r.value().exhaustive ? 1 : 0, " interpretations=",
                r.value().interpretations_checked, "\n");
}

std::string ComposeCounters() {
  std::string got;
  auto decide = [&](const std::string& name, const Mapping& sigma,
                    const Mapping& delta, const Instance& s,
                    const Instance& w, Universe* u, ComposeOptions opts = {}) {
    Result<ComposeVerdict> v = InComposition(sigma, delta, s, w, u, opts);
    got += v.ok() ? CounterLine(name, v.value())
                  : StrCat(name, " error ", v.status().ToString(), "\n");
  };
  auto build = [&](const std::string& name,
                   const std::function<ComposeInput(Universe*)>& builder) {
    Universe u;
    ComposeInput in = builder(&u);
    decide(name, in.sigma, in.delta, in.source, in.target, &u);
  };
  auto coloring = [&](const std::string& name, const Graph& g, Ann ann) {
    build(name, [&](Universe* u) { return Coloring(g, ann, u); });
  };
  coloring("K3", CompleteGraph(3), Ann::kClosed);
  coloring("K4", CompleteGraph(4), Ann::kClosed);
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(1234 + seed);
    Graph g = RandomGraph(4, 1, 2, &rng);
    for (Ann ann : {Ann::kClosed, Ann::kOpen}) {
      coloring(StrCat("sweep", seed, " delta=", AnnToString(ann)), g, ann);
    }
  }
  for (size_t n : {3, 4}) {
    Rng rng(3 * n + 1);
    coloring(StrCat("table1 colorable n=", n),
             RandomThreeColorableGraph(n, 3, 4, &rng), Ann::kClosed);
  }
  for (size_t n : {1, 2, 3}) {
    for (bool member : {true, false}) {
      build(MonotoneOpenName(n, member),
            [&](Universe* u) { return MonotoneOpen(n, member, u); });
    }
  }
  {
    // ComposeTest.MonotoneAllOpenDeltaCollapsesSigmaAnnotation.
    Universe u;
    Schema src, tau, omega;
    src.Add("E", 2);
    tau.Add("F", 2);
    omega.Add("P", 2);
    Instance s, w;
    s.Add("E", {u.Const("a"), u.Const("b")});
    s.Add("E", {u.Const("b"), u.Const("c")});
    w.Add("P", {u.Const("a"), u.Const("c")});
    Mapping delta = ParseMapping(
        "P(x^op, y^op) :- exists z. F(x, z) & F(z, y);", tau, omega, &u)
                        .value();
    for (const char* rules :
         {"F(x^cl, y^cl) :- E(x, y);", "F(x^cl, y^op) :- E(x, y);",
          "F(x^op, y^op) :- E(x, y);"}) {
      decide(StrCat("lemma3 ", rules),
             ParseMapping(rules, src, tau, &u).value(), delta, s, w, &u);
    }
  }
  {
    // ComposeTest.Prop6CompositionMembers.
    Universe u;
    Prop6Scenario sc =
        BuildProp6Scenario(3, Ann::kClosed, Ann::kClosed, &u).value();
    Instance uniform, partial, two_vals;
    for (int i = 1; i <= 3; ++i) {
      uniform.Add("Dr", {u.IntConst(i), u.Const("c")});
      two_vals.Add("Dr", {u.IntConst(i), u.Const("c")});
      two_vals.Add("Dr", {u.IntConst(i), u.Const("d")});
    }
    partial.Add("Dr", {u.IntConst(1), u.Const("c")});
    decide("prop6 uniform", sc.sigma, sc.delta, sc.source, uniform, &u);
    decide("prop6 partial", sc.sigma, sc.delta, sc.source, partial, &u);
    decide("prop6 two-values", sc.sigma, sc.delta, sc.source, two_vals, &u);
  }
  {
    // ComposeTest.OpenSigmaGeneralPathFindsWitness.
    Universe u;
    Schema src, tau, omega;
    src.Add("E", 1);
    tau.Add("F", 2);
    omega.Add("P", 2);
    Mapping delta =
        ParseMapping("P(y^cl, y2^cl) :- F(x, y) & F(x, y2) & !(y = y2);",
                     tau, omega, &u)
            .value();
    Instance s, w;
    s.Add("E", {u.Const("a")});
    w.Add("P", {u.Const("u"), u.Const("v")});
    w.Add("P", {u.Const("v"), u.Const("u")});
    ComposeOptions opts;
    opts.enum_options.fresh_pool = 2;
    for (const char* rules :
         {"F(x^cl, z^op) :- E(x);", "F(x^cl, z^cl) :- E(x);"}) {
      decide(StrCat("general ", rules),
             ParseMapping(rules, src, tau, &u).value(), delta, s, w, &u,
             opts);
    }
  }
  // ComposeSkolemTest's two Theorem 5 sweeps: every W over a small domain,
  // decided through gamma (InSkolemSemantics) and semantically
  // (InSkolemComposition); one line per sweep and side, summed.
  for (Ann ann : {Ann::kClosed, Ann::kOpen}) {
    Universe u;
    Schema src, tau, omega;
    src.Add("S", 2);
    tau.Add("T", 2);
    omega.Add("W", 2);
    const bool closed = ann == Ann::kClosed;
    Mapping sigma = ParseMapping(closed ? "T(x^cl, f(x, y)^cl) :- S(x, y);"
                                        : "T(x^op, f(x, y)^op) :- S(x, y);",
                                 src, tau, &u, ann, true)
                        .value();
    Mapping delta = ParseMapping(closed ? "W(a^cl, g(b)^cl) :- T(a, b);"
                                        : "W(a^op, g(b)^op) :- T(a, b);",
                                 tau, omega, &u, ann, true)
                        .value();
    Mapping gamma = ComposeSkolem(sigma, delta, &u).value().gamma;
    Instance s;
    s.Add("S", {u.Const("a"), u.Const("b")});
    std::vector<Value> dom = {u.Const("a"), u.Const("w1")};
    if (closed) dom.insert(dom.begin() + 1, u.Const("b"));
    std::vector<Tuple> all_tuples;
    for (Value x : dom) {
      for (Value y : dom) all_tuples.push_back({x, y});
    }
    uint64_t n = 0, members[2] = {0, 0}, exhaustive[2] = {0, 0},
             interps[2] = {0, 0};
    for (uint32_t mask = 0; mask < (1u << all_tuples.size()); ++mask) {
      if (closed && __builtin_popcount(mask) > 2) continue;
      Instance w;
      w.GetOrCreate("W", 2);
      for (size_t i = 0; i < all_tuples.size(); ++i) {
        if ((mask >> i) & 1) w.Add("W", all_tuples[i]);
      }
      ++n;
      Result<SkolemMembership> sides[2] = {
          InSkolemSemantics(gamma, s, w, &u),
          InSkolemComposition(sigma, delta, s, w, &u)};
      for (int k = 0; k < 2; ++k) {
        if (!sides[k].ok()) {
          got += StrCat("skolem error ", sides[k].status().ToString(), "\n");
          continue;
        }
        members[k] += sides[k].value().member;
        exhaustive[k] += sides[k].value().exhaustive;
        interps[k] += sides[k].value().interpretations_checked;
      }
    }
    for (int k = 0; k < 2; ++k) {
      got += StrCat("skolem-sweep ", closed ? "closed " : "open ",
                    k == 0 ? "gamma" : "semantic", " n=", n, " members=",
                    members[k], " exhaustive=", exhaustive[k],
                    " interpretations=", interps[k], "\n");
    }
  }
  return got;
}

// Every composable (sigma, delta, plain source, ground target) of a .dx
// file, as `ocdx compose` would decide the driver's choice among them.
std::string CorpusComposeCounters() {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const fs::path& dir :
       {fs::path(OCDX_CORPUS_DIR), fs::path(OCDX_EXAMPLES_DX_DIR),
        fs::path(OCDX_CORPUS_DIR).parent_path() / "render_fixtures"}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".dx") files.push_back(entry.path());
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
    if (!sc.ok()) {
      got += file.filename().string() + " parse error\n";
      continue;
    }
    EngineContext ctx;
    Budget scenario_budget;
    for (const auto& [key, value] : sc.value().budget_settings) {
      SetBudgetField(&scenario_budget, key, value);
    }
    ctx.budget.Tighten(scenario_budget);
    for (const DxMappingDecl& sigma : sc.value().mappings) {
      for (const DxMappingDecl& delta : sc.value().mappings) {
        if (&sigma == &delta || sigma.to != delta.from) continue;
        for (const DxInstanceDecl& s : sc.value().instances) {
          if (s.annotated || s.over != sigma.from) continue;
          for (const DxInstanceDecl& w : sc.value().instances) {
            if (w.annotated || w.over != delta.to) continue;
            const std::string name =
                StrCat(file.filename().string(), " ", sigma.name, " o ",
                       delta.name, " on (", s.name, ", ", w.name, ")");
            if (sigma.mapping.IsSkolemized() ||
                delta.mapping.IsSkolemized()) {
              got += CounterLine(
                  name, InSkolemComposition(sigma.mapping, delta.mapping,
                                            s.plain, w.plain, &u, {}, ctx));
              continue;
            }
            Result<ComposeVerdict> v = InComposition(
                sigma.mapping, delta.mapping, s.plain, w.plain, &u, {}, ctx);
            got += v.ok() ? CounterLine(name, v.value())
                          : StrCat(name, " error ", v.status().ToString(),
                                   "\n");
          }
        }
      }
    }
  }
  return got;
}

TEST(ComposeCounters, UnchangedAtOneShard) {
  const std::string want = R"(K3 member=1 exhaustive=1 intermediates=137
K4 member=0 exhaustive=1 intermediates=4516
sweep0 delta=cl member=1 exhaustive=1 intermediates=123
sweep0 delta=op member=1 exhaustive=1 intermediates=123
sweep1 delta=cl member=1 exhaustive=1 intermediates=595
sweep1 delta=op member=1 exhaustive=1 intermediates=595
sweep2 delta=cl member=1 exhaustive=1 intermediates=180
sweep2 delta=op member=1 exhaustive=1 intermediates=180
sweep3 delta=cl member=1 exhaustive=1 intermediates=65
sweep3 delta=op member=1 exhaustive=1 intermediates=65
sweep4 delta=cl member=1 exhaustive=1 intermediates=9
sweep4 delta=op member=1 exhaustive=1 intermediates=9
sweep5 delta=cl member=1 exhaustive=1 intermediates=595
sweep5 delta=op member=1 exhaustive=1 intermediates=595
sweep6 delta=cl member=1 exhaustive=1 intermediates=180
sweep6 delta=op member=1 exhaustive=1 intermediates=180
sweep7 delta=cl member=1 exhaustive=1 intermediates=1010
sweep7 delta=op member=1 exhaustive=1 intermediates=1010
table1 colorable n=3 member=1 exhaustive=1 intermediates=137
table1 colorable n=4 member=1 exhaustive=1 intermediates=66
monotone-open n=1 W=edges member=1 exhaustive=1 intermediates=1
monotone-open n=1 W=edges-but-first member=0 exhaustive=1 intermediates=3
monotone-open n=2 W=edges member=1 exhaustive=1 intermediates=5
monotone-open n=2 W=edges-but-first member=0 exhaustive=1 intermediates=17
monotone-open n=3 W=edges member=1 exhaustive=1 intermediates=69
monotone-open n=3 W=edges-but-first member=0 exhaustive=1 intermediates=141
lemma3 F(x^cl, y^cl) :- E(x, y); member=1 exhaustive=1 intermediates=1
lemma3 F(x^cl, y^op) :- E(x, y); member=1 exhaustive=1 intermediates=1
lemma3 F(x^op, y^op) :- E(x, y); member=1 exhaustive=1 intermediates=1
prop6 uniform member=1 exhaustive=1 intermediates=4
prop6 partial member=0 exhaustive=1 intermediates=4
prop6 two-values member=0 exhaustive=1 intermediates=6
general F(x^cl, z^op) :- E(x); member=1 exhaustive=1 intermediates=19
general F(x^cl, z^cl) :- E(x); member=0 exhaustive=1 intermediates=4
skolem-sweep closed gamma n=46 members=3 exhaustive=46 interpretations=840
skolem-sweep closed semantic n=46 members=3 exhaustive=46 interpretations=212
skolem-sweep open gamma n=16 members=12 exhaustive=16 interpretations=108
skolem-sweep open semantic n=16 members=12 exhaustive=16 interpretations=43
schema_evolution.dx Evolve12 o Evolve23 on (Catalog, Reachable) member=1 exhaustive=1 intermediates=1
composition.dx Sigma o Delta on (S, W) member=1 exhaustive=1 intermediates=1
skolem.dx Sigma o Delta on (S0, W) member=1 exhaustive=1 interpretations=6
enumerate_12.dx Mcl o Del on (S, W) member=1 exhaustive=1 intermediates=1
enumerate_12.dx Mop1 o Del on (S, W) member=1 exhaustive=1 intermediates=1
enumerate_small.dx Mcl o Del on (S, W) member=1 exhaustive=1 intermediates=1
enumerate_small.dx Mop1 o Del on (S, W) member=1 exhaustive=1 intermediates=1
exchange_small.dx Psig o Pdel on (Ps, Pw) member=1 exhaustive=1 intermediates=1
ingest_small.dx Psig o Pdel on (Ps, Pw) member=1 exhaustive=1 intermediates=1
)";
  EXPECT_EQ(ComposeCounters() + CorpusComposeCounters(), want);
}

}  // namespace
}  // namespace ocdx
