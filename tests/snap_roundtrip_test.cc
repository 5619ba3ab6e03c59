// Snapshot differential harness: every corpus scenario is chased,
// serialized (snap/snapshot.h), reloaded from bytes, and driven through
// every driver command — the warm output must be byte-identical to a
// cold parse-and-chase run under BOTH join engines and shard widths 1
// and 4: runs on an overlay of a frozen, prechased scenario mint and
// render exactly what a fresh parse does.
//
// The budget fixtures pin warm = cold under a chase trigger cap the
// stored solutions exceed, set at load time (the `--chase-max-triggers`
// flag of `ocdx snapshot run` and `ocdxd`) or only at run time (an
// `ocdxd` request's `chase-max-triggers=` field).
//
// The last fixtures pin serialization determinism —
// serialize(parse(serialize(b))) == serialize(b) — and the file
// wrappers.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "generic_corpus.h"
#include "logic/engine_context.h"
#include "snap/snapshot.h"
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

std::vector<fs::path> CorpusFiles() {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(OCDX_CORPUS_DIR)) {
    if (entry.path().extension() == ".dx") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::span<const uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// Every driver command the CLI exposes (print is pure text, pinned by
// the parser tests; everything else evaluates).
const char* const kCommands[] = {"chase",      "certain", "classify",
                                 "membership", "compose", "all"};

struct EngineCase {
  JoinEngineMode mode;
  size_t shards;
};
const EngineCase kEngines[] = {
    {JoinEngineMode::kIndexed, 1},
    {JoinEngineMode::kIndexed, 4},
    {JoinEngineMode::kGeneric, 1},
    {JoinEngineMode::kGeneric, 4},
};

TEST(SnapRoundtrip, CorpusWarmRunsAreByteIdentical) {
  std::vector<fs::path> files = CorpusFiles();
  ASSERT_FALSE(files.empty()) << "no .dx files under " << OCDX_CORPUS_DIR;

  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    const std::string src = ReadFileOrDie(file);

    Result<snap::SnapshotBundle> built =
        snap::BuildSnapshotBundle(file.string(), src);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Result<std::string> bytes = snap::SerializeSnapshot(built.value());
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    Result<snap::SnapshotBundle> warm_bundle =
        snap::ParseSnapshot(AsBytes(bytes.value()));
    ASSERT_TRUE(warm_bundle.ok()) << warm_bundle.status().ToString();

    for (const EngineCase& ec : kEngines) {
      if (ec.mode == JoinEngineMode::kGeneric && !GenericAffordable(file)) {
        continue;
      }
      for (const char* command : kCommands) {
        SCOPED_TRACE(std::string(command) + " engine=" +
                     (ec.mode == JoinEngineMode::kIndexed ? "indexed"
                                                          : "generic") +
                     " shards=" + std::to_string(ec.shards));
        DxDriverOptions options;
        options.engine = EngineContext::ForMode(ec.mode);
        options.engine.shards = ec.shards;

        // Cold: fresh Universe, fresh parse, live chase.
        Universe cold_universe;
        Result<DxScenario> scenario =
            ParseDxScenario(src, &cold_universe);
        ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
        Status cold_governed;
        Result<std::string> cold = RunDxCommand(
            scenario.value(), command, &cold_universe, options,
            &cold_governed);

        // Warm: the reloaded snapshot, pre-chased store armed.
        Status warm_governed;
        Result<std::string> warm = snap::RunSnapshotCommand(
            warm_bundle.value(), command, options, &warm_governed);

        ASSERT_EQ(cold.ok(), warm.ok())
            << (cold.ok() ? warm.status() : cold.status()).ToString();
        if (!cold.ok()) {
          EXPECT_EQ(cold.status().ToString(), warm.status().ToString());
          continue;
        }
        EXPECT_EQ(cold.value(), warm.value());
        EXPECT_EQ(cold_governed.ToString(), warm_governed.ToString());
      }
    }
  }
}

// Runs `all` on every corpus file cold and warm under a one-trigger
// chase cap, the warm run on a snapshot loaded under `load_engine`, and
// expects equal output and governed status. Returns how many files the
// cap governed, so callers can check the case was exercised.
int ExpectWarmEqualsColdUnderOneTrigger(const EngineContext& load_engine) {
  int governed_files = 0;
  for (const fs::path& file : CorpusFiles()) {
    SCOPED_TRACE(file.string());
    const std::string src = ReadFileOrDie(file);
    Result<snap::SnapshotBundle> built =
        snap::BuildSnapshotBundle(file.string(), src);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    if (!built.ok()) continue;
    Result<std::string> bytes = snap::SerializeSnapshot(built.value());
    EXPECT_TRUE(bytes.ok());
    if (!bytes.ok()) continue;
    Result<snap::SnapshotBundle> warm_bundle =
        snap::ParseSnapshot(AsBytes(bytes.value()), load_engine);
    EXPECT_TRUE(warm_bundle.ok()) << warm_bundle.status().ToString();
    if (!warm_bundle.ok()) continue;

    DxDriverOptions options;
    options.engine.budget.chase_max_triggers = 1;
    Universe cold_universe;
    Result<DxScenario> scenario = ParseDxScenario(src, &cold_universe);
    EXPECT_TRUE(scenario.ok());
    if (!scenario.ok()) continue;
    Status cold_governed;
    Result<std::string> cold = RunDxCommand(
        scenario.value(), "all", &cold_universe, options, &cold_governed);
    Status warm_governed;
    Result<std::string> warm = snap::RunSnapshotCommand(
        warm_bundle.value(), "all", options, &warm_governed);
    EXPECT_EQ(cold.ok(), warm.ok());
    if (cold.ok() && warm.ok()) {
      EXPECT_EQ(cold.value(), warm.value());
    }
    EXPECT_EQ(cold_governed.ToString(), warm_governed.ToString());
    if (!cold_governed.ok()) ++governed_files;
  }
  return governed_files;
}

// The cap is set at load: the load leaves the governed pairs out of the
// store, and the run re-chases them.
TEST(SnapRoundtrip, ChaseBudgetAtLoadMatchesCold) {
  EngineContext load;
  load.budget.chase_max_triggers = 1;
  EXPECT_GT(ExpectWarmEqualsColdUnderOneTrigger(load), 0);
}

// The cap is set only for the run: the store holds solutions the cap
// forbids, and the run must re-chase instead of borrowing them.
TEST(SnapRoundtrip, ChaseBudgetAtRunMatchesCold) {
  EXPECT_GT(ExpectWarmEqualsColdUnderOneTrigger(EngineContext()), 0);
}

TEST(SnapRoundtrip, SerializationIsAFixedPoint) {
  std::vector<fs::path> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    const std::string src = ReadFileOrDie(file);
    Result<snap::SnapshotBundle> built =
        snap::BuildSnapshotBundle(file.string(), src);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Result<std::string> first = snap::SerializeSnapshot(built.value());
    ASSERT_TRUE(first.ok());
    Result<snap::SnapshotBundle> reloaded =
        snap::ParseSnapshot(AsBytes(first.value()));
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    Result<std::string> second = snap::SerializeSnapshot(reloaded.value());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value(), second.value())
        << file << ": re-serializing a loaded snapshot changed bytes";
  }
}

// File-level wrappers: write + load through the filesystem behaves like
// the in-memory path, and a missing file is a clean NotFound.
TEST(SnapRoundtrip, FileWrappersRoundTrip) {
  std::vector<fs::path> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  const fs::path& file = files.front();
  const std::string src = ReadFileOrDie(file);
  Result<snap::SnapshotBundle> built =
      snap::BuildSnapshotBundle(file.string(), src);
  ASSERT_TRUE(built.ok());

  const fs::path snap_path =
      fs::temp_directory_path() / "ocdx_roundtrip_test.snap";
  ASSERT_TRUE(snap::WriteSnapshotFile(built.value(), snap_path.string()).ok());
  Result<snap::SnapshotBundle> loaded =
      snap::LoadSnapshotFile(snap_path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().source_path, file.string());
  EXPECT_EQ(loaded.value().dx_text, src);
  EXPECT_EQ(snap::DescribeSnapshot(loaded.value()),
            snap::DescribeSnapshot(built.value()));
  fs::remove(snap_path);

  Result<snap::SnapshotBundle> missing =
      snap::LoadSnapshotFile(snap_path.string());
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ocdx
