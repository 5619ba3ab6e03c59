// Budget fuzzing over the golden corpus: replay every scenario under
// randomized tiny budgets and assert the governance contract — each run
// either succeeds or fails with exactly one of the three governed codes
// (ResourceExhausted / DeadlineExceeded / Cancelled), never a hang, a
// crash, or an ungoverned error. CI runs this under AddressSanitizer, so
// "tripping a budget mid-evaluation leaks or double-frees" is also
// caught here.
//
// Seeds are fixed (std::mt19937 with documented constants), so failures
// replay deterministically; the fault-injection sweep drives the same
// contract from the probe sites (util/fault.h) instead of from caps.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "generic_corpus.h"
#include "logic/budget.h"
#include "logic/engine_context.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"
#include "util/fault.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<fs::path> CorpusFiles() {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(fs::path(OCDX_CORPUS_DIR))) {
    if (entry.path().extension() == ".dx") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Runs `all` over `src` under `engine` and asserts the governance
// contract: the command itself returns OK (trips render inline) or, at
// worst, a status whose code is one of the governed three — anything
// else (crash, ungoverned error) fails the test.
void RunUnderContract(const std::string& src, const fs::path& file,
                      const EngineContext& engine) {
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(src, &universe);
  ASSERT_TRUE(scenario.ok()) << file << ": " << scenario.status().ToString();

  DxDriverOptions options;
  options.engine = engine;
  Status governed;
  Result<std::string> out = RunDxCommand(scenario.value(), "all", &universe,
                                         options, &governed);
  if (!out.ok()) {
    // The driver aborts only on non-governed failures, so reaching here
    // at all is a contract violation.
    FAIL() << file << ": ungoverned failure under a tiny budget: "
           << out.status().ToString();
  }
  if (!governed.ok()) {
    EXPECT_TRUE(IsBudgetStatusCode(governed.code()))
        << file << ": governed channel carries a non-budget code: "
        << governed.ToString();
  }
}

TEST(BudgetFuzzTest, CorpusSurvivesRandomTinyBudgets) {
  std::vector<fs::path> files = CorpusFiles();
  ASSERT_FALSE(files.empty());

  // Fixed seed: replayable. Rounds per file stay small because the whole
  // sweep runs under ASan in CI.
  std::mt19937 rng(0xD5C0FFEE);
  std::uniform_int_distribution<uint64_t> tiny(1, 40);
  std::uniform_int_distribution<int> which(0, 4);
  std::uniform_int_distribution<int> shard_pick(1, 8);

  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    const std::string src = ReadFileOrDie(file);
    for (int round = 0; round < 6; ++round) {
      // Odd rounds run the generic engine where it is affordable; the
      // random draws below are the same either way, so the sweep replays.
      const bool generic = round % 2 == 1 && GenericAffordable(file);
      EngineContext engine = EngineContext::ForMode(
          generic ? JoinEngineMode::kGeneric : JoinEngineMode::kIndexed);
      // Random intra-job fan-out width: budget trips must stay governed
      // when they land inside shard workers and race first-success stops.
      engine.shards = static_cast<size_t>(shard_pick(rng));
      // Randomly tighten a couple of caps to tiny values; the untouched
      // caps stay at their defaults so every trip cause gets exercised
      // across the sweep.
      for (int k = 0; k < 2; ++k) {
        switch (which(rng)) {
          case 0:
            engine.budget.chase_max_triggers = tiny(rng);
            break;
          case 1:
            engine.budget.chase_max_nulls = tiny(rng);
            break;
          case 2:
            engine.budget.max_members = tiny(rng);
            break;
          case 3:
            engine.budget.hom_max_steps = tiny(rng);
            break;
          case 4:
            engine.budget.repa_max_steps = tiny(rng);
            break;
        }
      }
      RunUnderContract(src, file, engine);
    }
  }
}

TEST(BudgetFuzzTest, CorpusSurvivesInjectedFaultsAtEverySite) {
  std::vector<fs::path> files = CorpusFiles();
  ASSERT_FALSE(files.empty());

  const char* kSites[] = {"chase", "plan-bind", "enum"};
  const size_t kShards[] = {1, 4, 8};
  std::mt19937 rng(0xFA017);
  std::uniform_int_distribution<uint64_t> hit(1, 20);

  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    const std::string src = ReadFileOrDie(file);
    for (size_t i = 0; i < std::size(kSites); ++i) {
      // Sweep the shard widths too: the "enum" probe fires from inside
      // shard workers, where the trip must unwind through the fan-out
      // merge as the same governed status.
      fault::InstallForTest(kSites[i], hit(rng));
      EngineContext engine = EngineContext::ForMode(JoinEngineMode::kIndexed);
      engine.shards = kShards[i % std::size(kShards)];
      RunUnderContract(src, file, engine);
      fault::Clear();
    }
  }
}

TEST(BudgetFuzzTest, CorpusSurvivesAOnePercentDeadline) {
  // A 1 ms deadline is generous enough for trivial scenarios and tight
  // enough to trip mid-evaluation on the heavier ones; either outcome is
  // inside the contract, and ASan watches the unwind.
  std::vector<fs::path> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    EngineContext engine = EngineContext::ForMode(JoinEngineMode::kIndexed);
    engine.budget.deadline_ms = 1;
    RunUnderContract(ReadFileOrDie(file), file, engine);
  }
}

}  // namespace
}  // namespace ocdx
