// Tests for the observability layer (src/obs): the EngineStats field
// list, ScopedSpan/TraceSink semantics, trace-structure
// determinism, the Chrome render, the ocdxd stats registry — and the
// property everything else rests on: attaching stats or trace sinks
// NEVER changes canonical output (whole-corpus byte-identity, both
// engines, 1 and 4 workers).

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/batch_runner.h"
#include "generic_corpus.h"
#include "logic/engine_context.h"
#include "obs/report.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "text/dx_driver.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(OCDX_CORPUS_DIR)) {
    if (entry.path().extension() == ".dx") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// EngineStats field list
// ---------------------------------------------------------------------------

// The struct, operator+= and the report table are all generated from
// logic/engine_stats.def; this pins that both rendered surfaces name every
// field of that list.
TEST(EngineStatsManifest, RenderedSurfacesNameEveryField) {
  EngineStats s;
  std::string table = obs::RenderStatsTable(s);
  std::string json = obs::RenderStatsJson(s);
  for (const char* name : {
#define OCDX_ENGINE_STAT(name, is_ns) #name,
#include "logic/engine_stats.def"
#undef OCDX_ENGINE_STAT
       }) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  }
}

// ---------------------------------------------------------------------------
// ScopedSpan / TraceSink
// ---------------------------------------------------------------------------

TEST(ScopedSpan, DetachedSpanRecordsNothing) {
  EngineContext ctx;  // no stats, no trace
  {
    obs::ScopedSpan span(ctx, obs::kPhaseChase);
  }
  // Nothing observable to assert beyond "did not crash" — the contract
  // (no clock read) is structural; the bench --check gate pins the cost.
  SUCCEED();
}

TEST(ScopedSpan, FeedsStatsTimerAndSinkEvent) {
  EngineStats stats;
  obs::TraceSink sink;
  {
    obs::ScopedSpan outer(&stats, &sink, obs::kPhaseJob);
    obs::ScopedSpan inner(&stats, &sink, obs::kPhaseParse);
  }
  ASSERT_EQ(sink.events().size(), 2u);
  // Exit order: inner completes first, at depth 1 under the job span.
  EXPECT_STREQ(sink.events()[0].name, "dx-parse");
  EXPECT_EQ(sink.events()[0].depth, 1u);
  EXPECT_STREQ(sink.events()[1].name, "job");
  EXPECT_EQ(sink.events()[1].depth, 0u);
  // Both timers ticked (monotonic end >= start, so >= 0 always; the job
  // span encloses the parse span).
  EXPECT_GE(stats.job_ns, stats.parse_ns);
}

TEST(ScopedSpan, StatsOnlySpanNeedsNoSink) {
  EngineStats stats;
  {
    obs::ScopedSpan span(&stats, nullptr, obs::kPhaseSnapLoad);
  }
  // Duration may legitimately render as 0ns on a coarse clock; the field
  // must simply be the one the phase names.
  EXPECT_EQ(stats.parse_ns, 0u);
}

TEST(TraceSink, CapsEventsAndCountsDrops) {
  obs::TraceSink sink;
  for (size_t i = 0; i < obs::TraceSink::kMaxEvents + 7; ++i) {
    uint32_t depth = sink.Enter();
    sink.Exit("chase", 0, 1, depth);
  }
  EXPECT_EQ(sink.events().size(), obs::TraceSink::kMaxEvents);
  EXPECT_EQ(sink.dropped(), 7u);
}

TEST(TraceSink, AbsorbKeepsShardTracksAndOrder) {
  obs::TraceSink parent;
  obs::TraceSink shard1(1), shard2(2);
  {
    obs::ScopedSpan s2(nullptr, &shard2, obs::kPhaseEnumShard);
  }
  {
    obs::ScopedSpan s1(nullptr, &shard1, obs::kPhaseEnumShard);
  }
  parent.Absorb(shard1);
  parent.Absorb(shard2);
  ASSERT_EQ(parent.events().size(), 2u);
  EXPECT_EQ(parent.events()[0].track, 1u);
  EXPECT_EQ(parent.events()[1].track, 2u);
  std::vector<std::string> lines = parent.StructureLines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "1/0 enum-shard");
  EXPECT_EQ(lines[1], "2/0 enum-shard");
}

TEST(ChromeTrace, RenderEscapesNamesAndEmitsMetadata) {
  obs::TraceSink sink;
  {
    obs::ScopedSpan span(nullptr, &sink, obs::kPhaseJob);
  }
  std::string json = obs::RenderChromeTrace(
      {obs::TraceJob{"job-0 weird\"path\\x.dx", &sink}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("weird\\\"path\\\\x.dx"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"job\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":\"0\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace determinism: same scenario, same command => same span structure
// ---------------------------------------------------------------------------

TEST(TraceDeterminism, SpanStructureStableAcrossRuns) {
  std::vector<std::vector<std::string>> structures;
  const std::string path = std::string(OCDX_CORPUS_DIR) + "/membership.dx";
  Result<std::string> source = ReadDxFile(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  for (int run = 0; run < 2; ++run) {
    EngineStats stats;
    obs::TraceSink sink;
    DxDriverOptions options;
    options.engine.stats = &stats;
    options.engine.trace = &sink;
    Status governed;
    Result<std::string> out =
        RunDxFile(path, source.value(), "all", options, &governed);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    structures.push_back(sink.StructureLines());
  }
  EXPECT_FALSE(structures[0].empty());
  EXPECT_EQ(structures[0], structures[1])
      << "span tree changed between identical runs";
}

// ---------------------------------------------------------------------------
// Non-interference: observability never changes canonical output
// ---------------------------------------------------------------------------

TEST(NonInterference, CorpusByteIdenticalWithSinksAttached) {
  const std::vector<std::string> corpus = CorpusFiles();
  ASSERT_FALSE(corpus.empty());
  for (JoinEngineMode mode :
       {JoinEngineMode::kIndexed, JoinEngineMode::kGeneric}) {
    const std::vector<std::string> files =
        mode == JoinEngineMode::kGeneric ? GenericAffordableFiles(corpus)
                                         : corpus;
    // Reference: no sinks, sequential.
    BatchOptions plain;
    plain.command = "all";
    plain.engine = EngineContext::ForMode(mode);
    plain.workers = 1;
    Result<BatchReport> reference = RunDxBatch(files, plain);
    ASSERT_TRUE(reference.ok());
    std::string want = RenderBatchOutput(reference.value());

    for (size_t workers : {size_t{1}, size_t{4}}) {
      BatchOptions observed = plain;
      observed.workers = workers;
      observed.collect_traces = true;  // per-job sinks + stats everywhere
      Result<BatchReport> got = RunDxBatch(files, observed);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(RenderBatchOutput(got.value()), want)
          << "engine mode " << static_cast<int>(mode) << ", -j " << workers;
      // One job, and one track, per file.
      EXPECT_EQ(got.value().total_jobs, files.size());
      EXPECT_EQ(got.value().traces.size(), files.size());
      // The aggregate must show the instrumentation actually ran.
      EXPECT_GT(got.value().stats.job_ns, 0u);
      EXPECT_GT(got.value().stats.parse_ns, 0u);
    }
  }
}

// Sharded enumeration must not multiply plan compiles: every shard
// probes the job's plan table (plan::PlanTable), which compiles each
// query exactly once regardless of how many shards probe it. Also pins
// the frozen-base wiring: shards mint overlays (overlay_mints) over the
// read-shared job universe.
TEST(SharedPlanCompileOnce, ShardCountDoesNotChangeCompileCount) {
  const char* kScenarios[] = {"valuation_enum.dx", "member_search.dx",
                              "membership_sweep.dx"};
  auto run = [&](size_t shards) {
    EngineStats total;
    for (const char* name : kScenarios) {
      const std::string path = std::string(OCDX_CORPUS_DIR) + "/" + name;
      Result<std::string> source = ReadDxFile(path);
      EXPECT_TRUE(source.ok()) << source.status().ToString();
      EngineStats stats;
      DxDriverOptions options;
      options.engine.stats = &stats;
      options.engine.shards = shards;
      Status governed;
      Result<std::string> out =
          RunDxFile(path, source.value(), "all", options, &governed);
      EXPECT_TRUE(out.ok()) << name << ": " << out.status().ToString();
      total += stats;
    }
    return total;
  };

  const EngineStats base = run(1);
  ASSERT_GT(base.plan_compiles, 0u);
  for (size_t shards : {size_t{4}, size_t{8}}) {
    const EngineStats sharded = run(shards);
    EXPECT_EQ(sharded.plan_compiles, base.plan_compiles)
        << "shards=" << shards << " changed the compile count";
    EXPECT_GT(sharded.enum_shard_runs, 0u) << "shards=" << shards;
    EXPECT_GT(sharded.plan_cache_hits, 0u) << "shards=" << shards;
    EXPECT_GT(sharded.frozen_base_reuses, 0u) << "shards=" << shards;
    EXPECT_GE(sharded.overlay_mints, shards) << "shards=" << shards;
  }
}

// enum-shard spans time fan-out shards only: a sequential run is timed
// once, as member-enum, and reports no shard time.
TEST(EnumShardTimer, OnlyFanOutShardsAreTimed) {
  const std::string path = std::string(OCDX_CORPUS_DIR) + "/valuation_enum.dx";
  Result<std::string> source = ReadDxFile(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto run = [&](size_t shards) {
    EngineStats stats;
    DxDriverOptions options;
    options.engine.stats = &stats;
    options.engine.shards = shards;
    Result<std::string> out = RunDxFile(path, source.value(), "all", options);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return stats;
  };
  const EngineStats sequential = run(1);
  EXPECT_GT(sequential.member_enum_ns, 0u);
  EXPECT_EQ(sequential.enum_shard_runs, 0u);
  EXPECT_EQ(sequential.enum_shard_ns, 0u);
  const EngineStats sharded = run(4);
  EXPECT_GT(sharded.enum_shard_runs, 0u);
  EXPECT_GT(sharded.enum_shard_ns, 0u);
}

// The batch summary surfaces the derived hit rate and the phase line.
TEST(BatchSummary, SurfacesHitRateAndPhases) {
  std::vector<std::string> files = CorpusFiles();
  BatchOptions options;
  options.command = "all";
  Result<BatchReport> report = RunDxBatch(files, options);
  ASSERT_TRUE(report.ok());
  std::string summary = RenderBatchSummary(report.value(), options);
  EXPECT_NE(summary.find("plan cache hit rate:"), std::string::npos);
  EXPECT_NE(summary.find("guard_depth_fallbacks="), std::string::npos);
  EXPECT_NE(summary.find("batch: phase ms:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// StatsRegistry (the ocdxd `stats` verb's backing store)
// ---------------------------------------------------------------------------

TEST(StatsRegistry, AggregatesRequestsByOutcome) {
  obs::StatsRegistry registry;
  EngineStats s;
  s.chase_triggers = 5;
  registry.Record(s, Status::OK(), /*failed=*/false);
  registry.Record(s, Status::ResourceExhausted("cap"), /*failed=*/false);
  registry.Record(s, Status::DeadlineExceeded("late"), /*failed=*/false);
  registry.Record(s, Status::Cancelled("bye"), /*failed=*/false);
  registry.Record(s, Status::OK(), /*failed=*/true);

  EXPECT_EQ(registry.Snapshot().chase_triggers, 25u);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"requests\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"governed\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"resource_exhausted\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"deadline_exceeded\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cancelled\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"chase_triggers\":25"), std::string::npos) << json;
}

// The ocdxd --preload path: a startup snapshot load is timed into the
// aggregate but is not a request.
TEST(StatsRegistry, MergeFoldsStatsWithoutCountingARequest) {
  obs::StatsRegistry registry;
  EngineStats load;
  load.snap_load_ns = 1234;
  registry.Merge(load);

  EXPECT_EQ(registry.Snapshot().snap_load_ns, 1234u);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"requests\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":0"), std::string::npos) << json;

  registry.Record(EngineStats{}, Status::OK(), /*failed=*/false);
  json = registry.RenderJson();
  EXPECT_NE(json.find("\"requests\":1"), std::string::npos) << json;
  EXPECT_EQ(registry.Snapshot().snap_load_ns, 1234u);
}

}  // namespace
}  // namespace ocdx
