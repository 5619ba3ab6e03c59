// One chase per (mapping, instance) pair per run (Corollary 2: one
// CSolA(S) serves the chase, certain and membership sections).
//
// The property is counted, not timed: `chase_triggers` of an `all` run
// must equal those of a `chase` run plus a `compose` run of the same
// file, each on its own (compose chases inside the composition engines,
// which keep their own chases). It must hold exactly for a direct
// RunDxCommand at one shard, for a batch `--command=all` at every worker
// count, and — minus the stored pairs, which a warm run borrows instead
// of chasing — for a snapshot's warm `all`. At two shards both sides
// leave out `compose_check_triggers`, the chases of Delta over each
// intermediate that InComposition's J-search checks: a sharded search
// that stops at its first witness may check more intermediates than a
// sequential one. A stored solution's totals
// decide whether a run under a chase budget may borrow it. The concurrent
// case runs warm `all` on one prechased bundle from several threads at
// once; the `tsan` test preset runs this file under ThreadSanitizer.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chase/canonical.h"
#include "exec/batch_runner.h"
#include "exec/frozen_scenario.h"
#include "logic/engine_context.h"
#include "snap/snapshot.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> ScenarioFiles() {
  std::vector<std::string> out;
  const fs::path corpus(OCDX_CORPUS_DIR);
  const fs::path fixtures = corpus.parent_path() / "render_fixtures";
  for (const fs::path& dir : {corpus, fixtures}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".dx") out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// One cold run of `command` on a fresh parse of `src`.
struct ColdRun {
  uint64_t triggers = 0;
  uint64_t check_triggers = 0;  ///< Part of triggers: compose's J checks.
  uint64_t budget_trips = 0;
  bool governed = false;
};

ColdRun RunCold(const std::string& src, const std::string& command,
                size_t shards) {
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(src, &universe);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  if (!scenario.ok()) return {};
  ColdRun run;
  if (command != "all") {
    std::vector<std::string> applicable =
        ApplicableDxCommands(scenario.value());
    if (std::find(applicable.begin(), applicable.end(), command) ==
        applicable.end()) {
      return run;  // A command that does not apply chases nothing.
    }
  }
  EngineStats stats;
  DxDriverOptions options;
  options.engine.stats = &stats;
  options.engine.shards = shards;
  Status governed;
  Result<std::string> out = RunDxCommand(scenario.value(), command,
                                         &universe, options, &governed);
  EXPECT_TRUE(out.ok()) << command << ": " << out.status().ToString();
  run.triggers = stats.chase_triggers;
  run.check_triggers = stats.compose_check_triggers;
  run.budget_trips = stats.chase_budget_trips;
  run.governed = !governed.ok();
  return run;
}

// chase + compose, each run on its own at one shard: what one `all` run
// may fire.
ColdRun ChasePlusCompose(const std::string& src) {
  const ColdRun chase = RunCold(src, "chase", 1);
  const ColdRun compose = RunCold(src, "compose", 1);
  ColdRun sum;
  sum.triggers = chase.triggers + compose.triggers;
  sum.check_triggers = chase.check_triggers + compose.check_triggers;
  return sum;
}

TEST(ChaseOnce, DirectAllChasesEachPairOnce) {
  for (const std::string& file : ScenarioFiles()) {
    SCOPED_TRACE(file);
    const std::string src = ReadFileOrDie(file);
    const ColdRun want = ChasePlusCompose(src);
    EXPECT_EQ(RunCold(src, "all", 1).triggers, want.triggers);
    const ColdRun two = RunCold(src, "all", 2);
    EXPECT_EQ(two.triggers - two.check_triggers,
              want.triggers - want.check_triggers);
  }
}

TEST(ChaseOnce, BatchAllChasesEachPairOnce) {
  for (const std::string& file : ScenarioFiles()) {
    SCOPED_TRACE(file);
    const std::string src = ReadFileOrDie(file);
    const ColdRun direct = RunCold(src, "all", 1);
    if (fs::path(file).filename() == "cyclic_chase.dx") {
      EXPECT_EQ(direct.budget_trips, 1u);
    }
    const uint64_t want = ChasePlusCompose(src).triggers;
    for (size_t workers : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(workers);
      BatchOptions options;
      options.command = "all";
      options.workers = workers;
      Result<BatchReport> report = RunDxBatch({file}, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_TRUE(report.value().ok());
      EXPECT_EQ(report.value().stats.chase_triggers, want);
      // A governed pair trips once per run, in batch as in a direct run.
      EXPECT_EQ(report.value().stats.chase_budget_trips, direct.budget_trips);
    }
  }
}

TEST(ChaseOnce, WarmAllChasesOnlyWhatTheSnapshotLacks) {
  for (const std::string& file : ScenarioFiles()) {
    SCOPED_TRACE(file);
    const std::string src = ReadFileOrDie(file);
    Result<snap::SnapshotBundle> built = snap::BuildSnapshotBundle(file, src);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Result<std::string> bytes = snap::SerializeSnapshot(built.value());
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    Result<snap::SnapshotBundle> warm = snap::ParseSnapshot(
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(bytes.value().data()),
            bytes.value().size()));
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();

    uint64_t stored = 0;
    for (const auto& [pair, csol] : warm.value().prechased.entries()) {
      stored += csol.triggers.size();
    }
    EngineStats stats;
    DxDriverOptions options;
    options.engine.stats = &stats;
    ASSERT_TRUE(
        snap::RunSnapshotCommand(warm.value(), "all", options).ok());
    // Ungoverned files store every pair, so only compose chases.
    EXPECT_EQ(stats.chase_triggers, ChasePlusCompose(src).triggers - stored);
  }
}

// A solution records the chase's totals: one trigger per firing (the
// `fired` count the chase reports as chase_triggers) and the fresh nulls
// of each. FitsChaseBudget, which decides whether a run may borrow a
// stored solution, must agree with a re-chase at each cap's boundary:
// the totals fit exactly, and one less trips the chase.
TEST(ChaseOnce, StoredTotalsDecideBorrowingAtTheCapBoundary) {
  int boundaries = 0;
  for (const std::string& file : ScenarioFiles()) {
    SCOPED_TRACE(file);
    Universe u;
    Result<DxScenario> scenario = ParseDxScenario(ReadFileOrDie(file), &u);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    for (const DxMappingDecl& m : scenario.value().mappings) {
      for (const DxInstanceDecl& inst : scenario.value().instances) {
        if (!DxChasePairOk(m, inst)) continue;
        EngineStats stats;
        EngineContext ctx;
        ctx.stats = &stats;
        Result<CanonicalSolution> csol = Chase(m.mapping, inst.plain, &u, ctx);
        ASSERT_TRUE(csol.ok()) << csol.status().ToString();
        const uint64_t fired = csol.value().triggers.size();
        EXPECT_EQ(fired, stats.chase_triggers);
        uint64_t minted = 0;
        for (const ChaseTrigger& t : csol.value().triggers) {
          minted += t.fresh_nulls.len;
        }
        for (uint64_t Budget::*cap :
             {&Budget::chase_max_triggers, &Budget::chase_max_nulls}) {
          const uint64_t total =
              cap == &Budget::chase_max_triggers ? fired : minted;
          EngineContext capped;
          capped.budget.*cap = total;
          EXPECT_TRUE(FitsChaseBudget(csol.value(), capped.budget));
          if (total == 0) continue;
          capped.budget.*cap = total - 1;
          EXPECT_FALSE(FitsChaseBudget(csol.value(), capped.budget));
          Result<CanonicalSolution> again =
              Chase(m.mapping, inst.plain, &u, capped);
          ASSERT_FALSE(again.ok());
          EXPECT_EQ(again.status().code(), StatusCode::kResourceExhausted);
          ++boundaries;
        }
      }
    }
  }
  EXPECT_GT(boundaries, 0);
}

TEST(ChaseOnce, ConcurrentWarmRunsBorrowOneBundle) {
  const std::string file = (fs::path(OCDX_CORPUS_DIR).parent_path() /
                            "render_fixtures" / "enumerate_12.dx")
                               .string();
  const std::string src = ReadFileOrDie(file);
  Result<FrozenScenario> bundle =
      BuildFrozenScenario(file, src, EngineContext());
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_GT(bundle.value().prechased.size(), 0u);
  const std::vector<std::string> sections =
      ApplicableDxCommands(bundle.value().scenario);
  for (const char* section : {"chase", "certain", "membership"}) {
    ASSERT_NE(std::find(sections.begin(), sections.end(), section),
              sections.end())
        << section;
  }

  Universe universe;
  Result<DxScenario> cold = ParseDxScenario(src, &universe);
  ASSERT_TRUE(cold.ok());
  Result<std::string> want = RunDxCommand(cold.value(), "all", &universe);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  const ColdRun compose = RunCold(src, "compose", 1);

  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 2;
  std::vector<std::string> outputs(kThreads * kRunsPerThread);
  std::vector<EngineStats> stats(kThreads * kRunsPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        const int slot = t * kRunsPerThread + r;
        DxDriverOptions options;
        options.engine.stats = &stats[slot];
        options.engine.shards = 2;
        Result<std::string> out =
            RunFrozenCommand(bundle.value(), "all", options);
        outputs[slot] = out.ok() ? out.value() : out.status().ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < outputs.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(outputs[i], want.value());
    EXPECT_EQ(stats[i].chase_triggers - stats[i].compose_check_triggers,
              compose.triggers - compose.check_triggers);
  }
}

}  // namespace
}  // namespace ocdx
