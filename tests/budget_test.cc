// Resource governance (logic/budget.h): Budget folding, the polling
// gauge, cooperative cancellation across threads, and the end-to-end
// contract that a budget trip inside a driver command is a *result* —
// positioned inline `error ...` text plus a governed status — never a
// hard failure, a hang, or a crash.

#include <atomic>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "logic/budget.h"
#include "logic/engine_context.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"
#include "util/fault.h"

namespace ocdx {
namespace {

TEST(ResourceBudgetTest, TightenTakesElementwiseMinimum) {
  Budget a;
  a.chase_max_triggers = 100;
  a.max_members = 10;
  Budget b;
  b.chase_max_triggers = 50;
  b.hom_max_steps = 7;

  a.Tighten(b);
  EXPECT_EQ(a.chase_max_triggers, 50u);  // b was tighter
  EXPECT_EQ(a.max_members, 10u);         // a was tighter (b unlimited)
  EXPECT_EQ(a.hom_max_steps, 7u);
  EXPECT_EQ(a.chase_max_nulls, Budget::kUnlimited);
}

TEST(ResourceBudgetTest, TightenKeepsEarliestDeadlineAndAdoptsCancel) {
  std::atomic<bool> flag{false};
  Budget a;
  a.deadline_ms = 500;
  Budget b;
  b.deadline_ms = 100;
  b.cancel = &flag;

  a.Tighten(b);
  EXPECT_EQ(a.deadline_ms, 100u);
  EXPECT_EQ(a.cancel, &flag);

  // A zero (unset) deadline never relaxes an existing one.
  Budget c;
  a.Tighten(c);
  EXPECT_EQ(a.deadline_ms, 100u);
}

TEST(ResourceBudgetTest, SetBudgetFieldKnowsEveryKeyAndRejectsOthers) {
  Budget b;
  EXPECT_TRUE(SetBudgetField(&b, "chase_max_triggers", 1));
  EXPECT_TRUE(SetBudgetField(&b, "chase_max_nulls", 2));
  EXPECT_TRUE(SetBudgetField(&b, "max_members", 3));
  EXPECT_TRUE(SetBudgetField(&b, "hom_max_steps", 4));
  EXPECT_TRUE(SetBudgetField(&b, "repa_max_steps", 5));
  EXPECT_TRUE(SetBudgetField(&b, "deadline_ms", 6));
  EXPECT_EQ(b.chase_max_triggers, 1u);
  EXPECT_EQ(b.chase_max_nulls, 2u);
  EXPECT_EQ(b.max_members, 3u);
  EXPECT_EQ(b.hom_max_steps, 4u);
  EXPECT_EQ(b.repa_max_steps, 5u);
  EXPECT_EQ(b.deadline_ms, 6u);
  EXPECT_FALSE(SetBudgetField(&b, "max_triggers", 7));
  EXPECT_FALSE(SetBudgetField(&b, "", 7));
}

TEST(BudgetGaugeTest, PreExpiredDeadlineTripsOnPollAndCounts) {
  Budget b;
  b.deadline_ms = 1;
  b.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  b.deadline_armed = true;

  EngineStats stats;
  BudgetGauge gauge(b, &stats);
  Status s = gauge.Poll();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "DeadlineExceeded: deadline of 1 ms exceeded");
  EXPECT_EQ(stats.deadline_trips, 1u);
}

TEST(BudgetGaugeTest, ArmDeadlineIsIdempotentAndZeroMeansNone) {
  Budget none;
  none.ArmDeadline();
  EXPECT_FALSE(none.deadline_armed);

  Budget b;
  b.deadline_ms = 60'000;
  b.ArmDeadline();
  ASSERT_TRUE(b.deadline_armed);
  auto first = b.deadline;
  b.ArmDeadline();  // no-op: the armed point must not move
  EXPECT_EQ(b.deadline, first);

  BudgetGauge gauge(b, nullptr);
  EXPECT_TRUE(gauge.Poll().ok());  // a minute out: not expired
}

TEST(BudgetGaugeTest, CancellationFromAnotherThreadStopsThePollLoop) {
  std::atomic<bool> flag{false};
  Budget b;
  b.cancel = &flag;
  BudgetGauge gauge(b, nullptr);

  std::thread canceller([&flag] { flag.store(true); });
  // The loop terminates only because the flag flips — this is the
  // cooperative-cancellation contract end to end.
  Status s;
  while ((s = gauge.Poll()).ok()) {
  }
  canceller.join();
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

constexpr char kChainScenario[] = R"(
scenario 'budget_trip';
schema G { E(a, b); }
mapping Loop from G to G [default op] {
  E(x^op, u^op) :- E(x, y) & E(y, z);
}
instance S over G {
  E('a', 'b'); E('b', 'c'); E('c', 'a');
  E('a', 'c'); E('c', 'b'); E('b', 'a');
}
query q(x, y) 'edges' { E(x, y) }
)";

// A chase budget trip inside `ocdx all` renders as a positioned inline
// error, the command still succeeds, the governed out-param carries the
// trip, and the per-cause counter advances — once: the run chases its one
// pair once, and the certain section renders the memoized trip. This is
// exactly what the CLI --chase-max-triggers flag produces (the flag
// writes the same field).
TEST(BudgetDriverTest, ChaseTripIsInlineGovernedNotAFailure) {
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(kChainScenario, &universe);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  EngineStats stats;
  DxDriverOptions options;
  options.engine = EngineContext::ForMode(JoinEngineMode::kIndexed);
  options.engine.stats = &stats;
  options.engine.budget.chase_max_triggers = 3;

  Status governed;
  Result<std::string> out = RunDxCommand(scenario.value(), "all", &universe,
                                         options, &governed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(governed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.value().find("error (mapping Loop, line 4, col 9): "
                             "ResourceExhausted: chase trigger budget "
                             "exceeded: 3 allowed"),
            std::string::npos)
      << out.value();
  EXPECT_EQ(stats.chase_budget_trips, 1u);
}

// The same scenario under a generous budget runs clean: the budget wiring
// itself must not perturb results.
TEST(BudgetDriverTest, GenerousBudgetLeavesTheRunClean) {
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(kChainScenario, &universe);
  ASSERT_TRUE(scenario.ok());

  DxDriverOptions options;
  options.engine = EngineContext::ForMode(JoinEngineMode::kIndexed);
  options.engine.budget.chase_max_triggers = 1'000'000;

  Status governed;
  Result<std::string> out = RunDxCommand(scenario.value(), "all", &universe,
                                         options, &governed);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(governed.ok()) << governed.ToString();
  EXPECT_EQ(out.value().find("error ("), std::string::npos) << out.value();
}

// The corpus composition scenario (two all-closed mappings) up to its
// candidate target W, which each test below supplies.
constexpr char kComposition[] = R"(
scenario 'composition';
schema src { Emp(name, dept); }
schema staff { Staff(name, dept); }
schema phone { Listed(name); }
mapping Sigma from src to staff [default cl] {
  Staff(x^cl, y^cl) :- Emp(x, y);
}
mapping Delta from staff to phone [default cl] {
  Listed(x^cl) :- exists d. Staff(x, d);
}
instance S over src { Emp('ann', 'sales'); Emp('bob', 'dev'); }
)";

// Compose renders every membership error inline, but only a budget trip
// marks the run governed. Composition membership is defined for ground
// instances only, so a null in W is an error that is not a trip: the
// command succeeds and the run is not governed.
TEST(BudgetDriverTest, ComposeErrorThatIsNotATripIsNotGoverned) {
  const std::string text =
      std::string(kComposition) +
      "instance W over phone { Listed('ann'); Listed('bob'); Listed(_n1); }\n";
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(text, &universe);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  for (const char* command : {"compose", "all"}) {
    SCOPED_TRACE(command);
    Status governed;
    Result<std::string> out =
        RunDxCommand(scenario.value(), command, &universe, {}, &governed);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(governed.ok()) << governed.ToString();
    EXPECT_NE(out.value().find("  membership: error: composition membership "
                               "is defined for ground instances\n"),
              std::string::npos)
        << out.value();
  }
}

// ...while a compose whose chase trips its budget still reports the trip.
TEST(BudgetDriverTest, ComposeBudgetTripIsGoverned) {
  const std::string text =
      std::string(kComposition) +
      "instance W over phone { Listed('ann'); Listed('bob'); }\n";
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(text, &universe);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  DxDriverOptions options;
  options.engine.budget.chase_max_triggers = 1;
  Status governed;
  Result<std::string> out = RunDxCommand(scenario.value(), "compose",
                                         &universe, options, &governed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(governed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.value().find("  membership: error: chase trigger budget "
                             "exceeded: 1 allowed"),
            std::string::npos)
      << out.value();
}

// A scenario `budget { ... }` block can only tighten the caller's budget:
// a scenario asking for more triggers than the caller allows still runs
// under the caller's cap.
TEST(BudgetDriverTest, ScenarioBudgetOnlyTightens) {
  constexpr char kRelaxing[] = R"(
scenario 'relax_attempt';
budget { chase_max_triggers = 1000000; }
schema G { E(a, b); }
mapping Loop from G to G [default op] {
  E(x^op, u^op) :- E(x, y) & E(y, z);
}
instance S over G {
  E('a', 'b'); E('b', 'c'); E('c', 'a');
}
)";
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(kRelaxing, &universe);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  ASSERT_EQ(scenario.value().budget_settings.size(), 1u);

  DxDriverOptions options;
  options.engine = EngineContext::ForMode(JoinEngineMode::kIndexed);
  options.engine.budget.chase_max_triggers = 2;

  Status governed;
  Result<std::string> out = RunDxCommand(scenario.value(), "chase", &universe,
                                         options, &governed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(governed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.value().find("2 allowed"), std::string::npos) << out.value();
}

// An installed fault fires at its probe site from the n-th hit onward and
// surfaces through the same governed channel as a genuine budget trip.
TEST(FaultInjectionTest, ProbeFiresFromNthHitThroughTheGovernedChannel) {
  fault::Clear();
  EXPECT_FALSE(fault::Armed());
  EXPECT_TRUE(fault::Probe("chase").ok());

  fault::InstallForTest("chase", 2);
  ASSERT_TRUE(fault::Armed());
  EXPECT_TRUE(fault::Probe("plan-bind").ok());  // other sites unaffected
  EXPECT_TRUE(fault::Probe("chase").ok());      // hit 1: below threshold
  Status s = fault::Probe("chase");             // hit 2: fires
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.message(), "injected fault at probe 'chase'");
  EXPECT_FALSE(fault::Probe("chase").ok());     // and keeps firing
  fault::Clear();
  EXPECT_TRUE(fault::Probe("chase").ok());
}

// A fault at the chase probe drives a whole driver command through the
// governed path: inline error, OK command status.
TEST(FaultInjectionTest, ChaseFaultRendersLikeABudgetTrip) {
  fault::InstallForTest("chase", 1);
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(kChainScenario, &universe);
  ASSERT_TRUE(scenario.ok());

  DxDriverOptions options;
  options.engine = EngineContext::ForMode(JoinEngineMode::kIndexed);
  Status governed;
  Result<std::string> out = RunDxCommand(scenario.value(), "chase", &universe,
                                         options, &governed);
  fault::Clear();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(governed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.value().find("injected fault at probe 'chase'"),
            std::string::npos)
      << out.value();
}

}  // namespace
}  // namespace ocdx
