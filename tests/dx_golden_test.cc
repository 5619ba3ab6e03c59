// Golden-file runner for the `.dx` scenario corpus.
//
// Every tests/corpus/*.dx file is parsed and driven through `ocdx all`
// (text/dx_driver.h) under the indexed engine (plan table on and off)
// AND the generic active-domain engine, the reference oracle; the output
// must be byte-identical to tests/corpus/golden/<name>.golden in every
// mode — pinning end-to-end pipeline behavior the way the engine-parity
// tests pin answer sets. The generic leg skips bulk_import.dx (about a
// minute of domain enumeration; its golden pins it).
//
// To regenerate goldens after an intentional output change:
//
//   OCDX_REGEN_GOLDEN=1 ./build/dx_golden_test
//
// (The regenerated files are written from the kIndexed run; the test
// still verifies the kGeneric run matches them.)

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "generic_corpus.h"
#include "logic/engine_context.h"
#include "plan/plan_table.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"

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

std::vector<fs::path> DxFilesIn(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".dx") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Parses fresh (own Universe) and runs `ocdx all` under the given engine
// — carried as an explicit EngineContext on the driver options, exactly
// like the CLI (no global engine-mode writes anywhere in this test).
// `cache_opt_out` runs the per-call-compilation path through a
// zero-capacity plan table, which publishes nothing (the table is a pure
// optimization: output bytes must not change).
std::string RunAllUnder(const std::string& src, JoinEngineMode mode,
                        const fs::path& file, bool cache_opt_out = false) {
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(src, &universe);
  EXPECT_TRUE(scenario.ok())
      << file << ": " << scenario.status().ToString();
  if (!scenario.ok()) return "";
  DxDriverOptions options;
  options.engine = EngineContext::ForMode(mode);
  if (cache_opt_out) {
    options.engine.plans = std::make_shared<plan::PlanTable>(0);
  }
  Result<std::string> out =
      RunDxCommand(scenario.value(), "all", &universe, options);
  EXPECT_TRUE(out.ok()) << file << ": " << out.status().ToString();
  return out.ok() ? out.value() : "";
}

TEST(DxGolden, CorpusMatchesGoldenUnderBothEngines) {
  const fs::path corpus_dir = OCDX_CORPUS_DIR;
  const fs::path golden_dir = corpus_dir / "golden";
  const bool regen = std::getenv("OCDX_REGEN_GOLDEN") != nullptr;

  std::vector<fs::path> files = DxFilesIn(corpus_dir);
  ASSERT_FALSE(files.empty()) << "no .dx files under " << corpus_dir;

  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    const std::string src = ReadFileOrDie(file);
    const std::string indexed =
        RunAllUnder(src, JoinEngineMode::kIndexed, file);
    if (GenericAffordable(file)) {
      EXPECT_EQ(indexed, RunAllUnder(src, JoinEngineMode::kGeneric, file))
          << file << ": kIndexed and kGeneric runs diverge";
    }
    // Disabling the plan table must not change a byte either.
    const std::string uncached = RunAllUnder(
        src, JoinEngineMode::kIndexed, file, /*cache_opt_out=*/true);
    EXPECT_EQ(indexed, uncached)
        << file << ": plan-cached and per-call-compiled runs diverge";

    const fs::path golden_path =
        golden_dir / (file.stem().string() + ".golden");
    if (regen) {
      fs::create_directories(golden_dir);
      std::ofstream out(golden_path, std::ios::binary);
      out << indexed;
      continue;
    }
    ASSERT_TRUE(fs::exists(golden_path))
        << "missing golden file " << golden_path
        << " (run with OCDX_REGEN_GOLDEN=1 to create it)";
    EXPECT_EQ(ReadFileOrDie(golden_path), indexed)
        << file << ": output differs from " << golden_path
        << " (re-run with OCDX_REGEN_GOLDEN=1 if the change is intended)";
  }
}

// The example scenarios are not golden-pinned (they are documentation),
// but they must parse and drive cleanly under both engines.
TEST(DxGolden, ExampleScenariosRunClean) {
  const fs::path dir = OCDX_EXAMPLES_DX_DIR;
  std::vector<fs::path> files = DxFilesIn(dir);
  ASSERT_FALSE(files.empty()) << "no .dx files under " << dir;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    const std::string src = ReadFileOrDie(file);
    const std::string indexed =
        RunAllUnder(src, JoinEngineMode::kIndexed, file);
    EXPECT_FALSE(indexed.empty());
    EXPECT_EQ(indexed, RunAllUnder(src, JoinEngineMode::kGeneric, file));
  }
}

}  // namespace
}  // namespace ocdx
