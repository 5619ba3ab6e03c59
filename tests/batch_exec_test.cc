// Tests for the parallel execution subsystem (src/exec) and the
// EngineContext reentrancy contract it rests on.
//
// The headline property is *determinism*: `ocdx batch -j 8` must be
// byte-identical to `-j 1` over the whole corpus under every engine mode,
// and each file's block must be exactly what one `ocdx <command> FILE`
// run prints — a batch file is one job, run by RunDxFile in a universe
// of its own, writing only its own stats. CI additionally runs this file
// under ThreadSanitizer (the `tsan` preset), which turns any shared
// mutable state between jobs into a hard failure instead of a flaky
// diff.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "base/instance.h"
#include "exec/batch_runner.h"
#include "exec/pool.h"
#include "generic_corpus.h"
#include "logic/engine_config.h"
#include "logic/engine_context.h"
#include "obs/trace.h"
#include "plan/plan_table.h"
#include "semantics/homomorphism.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"
#include "util/str.h"

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

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, DrainsEveryTaskOnDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // Destructor must run all 200 tasks before joining.
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  // Rely on the drain guarantee via a second scoped pool-free check:
  // destruction happens at end of test; poll briefly instead.
  for (int i = 0; i < 1000 && !ran; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran);
}

// ---------------------------------------------------------------------------
// Batch determinism: the acceptance criterion of the subsystem.
// ---------------------------------------------------------------------------

TEST(BatchExec, ParallelOutputIsByteIdenticalToSequential) {
  const std::vector<std::string> corpus = CorpusFiles();
  ASSERT_FALSE(corpus.empty());
  for (JoinEngineMode mode :
       {JoinEngineMode::kIndexed, JoinEngineMode::kGeneric}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const std::vector<std::string> files =
        mode == JoinEngineMode::kGeneric ? GenericAffordableFiles(corpus)
                                         : corpus;
    BatchOptions seq;
    seq.workers = 1;
    seq.engine = EngineContext::ForMode(mode);
    BatchOptions par = seq;
    par.workers = 8;

    Result<BatchReport> a = RunDxBatch(files, seq);
    Result<BatchReport> b = RunDxBatch(files, par);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_TRUE(a.value().ok());
    EXPECT_TRUE(b.value().ok());
    EXPECT_EQ(a.value().total_jobs, b.value().total_jobs);
    EXPECT_EQ(RenderBatchOutput(a.value()), RenderBatchOutput(b.value()))
        << "batch output depends on the worker count";
    // Per-job engine work is deterministic too, not just the text: the
    // aggregated stats must agree exactly.
    EXPECT_EQ(a.value().stats.cq_plans, b.value().stats.cq_plans);
    EXPECT_EQ(a.value().stats.chase_triggers, b.value().stats.chase_triggers);
    EXPECT_EQ(a.value().stats.repa_steps, b.value().stats.repa_steps);
  }
}

// Each file's block is what one in-process `ocdx <command> FILE` run
// (RunDxFile) prints, or the `ocdx: error:` line for its failure, for
// every command, under both engines.
TEST(BatchExec, OutputMatchesDirectDriverRun) {
  const std::vector<std::string> corpus = CorpusFiles();
  ASSERT_FALSE(corpus.empty());
  for (JoinEngineMode mode :
       {JoinEngineMode::kIndexed, JoinEngineMode::kGeneric}) {
    const std::vector<std::string> files =
        mode == JoinEngineMode::kGeneric ? GenericAffordableFiles(corpus)
                                         : corpus;
    for (const char* command :
         {"all", "chase", "certain", "classify", "membership", "compose"}) {
      SCOPED_TRACE(StrCat("mode ", static_cast<int>(mode), ", ", command));
      BatchOptions options;
      options.workers = 4;
      options.command = command;
      options.engine = EngineContext::ForMode(mode);
      Result<BatchReport> report = RunDxBatch(files, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_EQ(report.value().files.size(), files.size());
      EXPECT_EQ(report.value().total_jobs, files.size());
      for (size_t f = 0; f < files.size(); ++f) {
        SCOPED_TRACE(files[f]);
        DxDriverOptions driver;
        driver.engine = options.engine;
        Result<std::string> direct =
            RunDxFile(files[f], ReadFileOrDie(files[f]), command, driver);
        const BatchFileReport& got = report.value().files[f];
        EXPECT_EQ(got.file, files[f]);
        EXPECT_EQ(got.status, direct.status());
        EXPECT_EQ(got.output,
                  direct.ok() ? direct.value()
                              : StrCat("ocdx: error: ",
                                       direct.status().ToString(), "\n"));
      }
    }
  }
}

// An unreadable file and a file that fails to parse each render one
// error line: the read error, and RunDxFile's path-prefixed parse error
// (what `ocdxd` replies for the same file).
TEST(BatchExec, ReadAndParseErrorsRenderOneLine) {
  const fs::path dir = fs::temp_directory_path() /
                       StrCat("ocdx_batch_exec_test_", ::getpid());
  fs::create_directories(dir);
  const std::string bad = (dir / "bad.dx").string();
  {
    std::ofstream out(bad, std::ios::binary);
    out << "scenario 'bad';\nschema src { E(a, b); }\nbogus;\n";
  }
  const std::string missing = "/nonexistent/nope.dx";
  for (size_t workers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(workers);
    BatchOptions options;
    options.workers = workers;
    Result<BatchReport> report = RunDxBatch({bad, missing}, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report.value().ok());
    EXPECT_EQ(report.value().files[0].status.code(), StatusCode::kParseError);
    EXPECT_EQ(report.value().files[1].status.code(), StatusCode::kNotFound);
    EXPECT_EQ(RenderBatchOutput(report.value()),
              StrCat("==> ", bad, " <==\n",
                     "ocdx: error: ParseError: ", bad,
                     ": expected 'scenario', 'budget', 'schema', 'mapping', "
                     "'instance' or 'query' near 'bogus' at line 3, col 1\n",
                     "==> ", missing, " <==\n",
                     "ocdx: error: NotFound: cannot read '", missing,
                     "'\n"));
  }
  fs::remove_all(dir);
}

TEST(BatchExec, FailuresAreDeterministicAndReported) {
  // A missing file and a real file: the report keeps input order, the
  // missing file renders a deterministic error block, and ok() is false.
  std::vector<std::string> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  std::vector<std::string> inputs = {"/nonexistent/nope.dx", files[0]};
  for (size_t workers : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(workers);
    BatchOptions options;
    options.workers = workers;
    Result<BatchReport> report = RunDxBatch(inputs, options);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.value().ok());
    ASSERT_EQ(report.value().files.size(), 2u);
    EXPECT_FALSE(report.value().files[0].status.ok());
    EXPECT_TRUE(report.value().files[1].status.ok());
    std::string out = RenderBatchOutput(report.value());
    EXPECT_NE(out.find("ocdx: error:"), std::string::npos);
    // Input order is preserved regardless of completion order.
    EXPECT_LT(out.find("/nonexistent/nope.dx"), out.find(files[0]));
  }
}

TEST(BatchExec, EmptyInputIsAnError) {
  EXPECT_FALSE(RunDxBatch({}, BatchOptions{}).ok());
}

// Parse once per file: a file is one job, and its run parses it once.
TEST(BatchExec, ParsesEachFileOnce) {
  std::vector<std::string> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(workers);
    BatchOptions options;
    options.workers = workers;
    options.collect_traces = true;
    Result<BatchReport> report = RunDxBatch(files, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report.value().total_jobs, files.size());
    size_t parses = 0;
    for (const BatchJobTrace& t : report.value().traces) {
      for (const obs::TraceEvent& e : t.sink->events()) {
        if (std::string(e.name) == obs::kPhaseParse.name) ++parses;
      }
    }
    EXPECT_EQ(parses, files.size());
    EXPECT_GT(report.value().stats.parse_ns, 0u);
  }
}

// ---------------------------------------------------------------------------
// EngineContext plumbing
// ---------------------------------------------------------------------------

TEST(EngineContext, PlanTablesArePerFile) {
  // Default contexts carry no table (per-call compilation); EnsureCache
  // attaches one and is idempotent; copies of one context share its
  // table — that is the intra-job contract.
  EngineContext ctx;
  EXPECT_EQ(ctx.plans, nullptr);
  ctx.EnsureCache();
  auto first = ctx.plans;
  ASSERT_NE(first, nullptr);
  ctx.EnsureCache();
  EXPECT_EQ(ctx.plans, first);  // Idempotent.
  EngineContext copy = ctx;
  EXPECT_EQ(copy.plans, first);

  // A batch file is one run with one table, so it compiles each query
  // exactly as often as one direct `all` run.
  const std::string file = std::string(OCDX_CORPUS_DIR) + "/conference.dx";
  Result<std::string> source = ReadDxFile(file);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EngineStats direct;
  DxDriverOptions driver;
  driver.engine.stats = &direct;
  ASSERT_TRUE(RunDxFile(file, source.value(), "all", driver).ok());

  BatchOptions options;
  options.workers = 4;
  options.engine.EnsureCache();
  Result<BatchReport> one = RunDxBatch({file}, options);
  ASSERT_TRUE(one.ok() && one.value().ok());
  ASSERT_EQ(one.value().total_jobs, 1u);
  EXPECT_GT(one.value().stats.plan_compiles, 0u);
  EXPECT_EQ(one.value().stats.plan_compiles, direct.plan_compiles)
      << "a batch file compiles each query once";

  // The same path listed twice is two runs with two tables.
  Result<BatchReport> two = RunDxBatch({file, file}, options);
  ASSERT_TRUE(two.ok() && two.value().ok());
  EXPECT_EQ(two.value().stats.plan_compiles,
            2 * one.value().stats.plan_compiles);

  // The template context's table is never handed to a job.
  EXPECT_EQ(options.engine.plans->size(), 0u);
}

TEST(EngineContext, ContextBudgetCapsHomSearch) {
  // A tripartite-ish instance with several nulls, searched under a
  // 1-step context budget: the per-call default (50M) must be capped by
  // the context and the search must exhaust.
  Universe u;
  AnnotatedInstance from, to;
  for (int i = 0; i < 4; ++i) {
    from.Add("R", {u.FreshNull(), u.FreshNull()}, {Ann::kOpen, Ann::kOpen});
    to.Add("R", {u.FreshNull(), u.FreshNull()}, {Ann::kOpen, Ann::kOpen});
  }
  EngineContext tight;
  tight.budget.hom_max_steps = 1;
  Result<std::optional<NullMap>> r = FindHomomorphism(from, to, {}, tight);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineContext, StatsSinkCountsWork) {
  Universe u;
  std::string src = ReadFileOrDie(
      std::string(OCDX_CORPUS_DIR) + "/conference.dx");
  Result<DxScenario> scenario = ParseDxScenario(src, &u);
  ASSERT_TRUE(scenario.ok());
  EngineStats stats;
  DxDriverOptions options;
  options.engine.stats = &stats;
  Result<std::string> out =
      RunDxCommand(scenario.value(), "all", &u, options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(stats.cq_plans, 0u);
  EXPECT_GT(stats.chase_triggers, 0u);
}

// ---------------------------------------------------------------------------
// One-Universe-per-job ownership (debug builds only)
// ---------------------------------------------------------------------------

#ifndef NDEBUG

using UniverseOwnershipDeathTest = testing::Test;

TEST(UniverseOwnershipDeathTest, CrossThreadUseAsserts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Universe u;
  u.Const("claimed-by-main");  // First touch pins ownership here.
  // The assert stringifies adjacent literals with their quotes, so match
  // the contiguous first clause of the message.
  EXPECT_DEATH(
      {
        std::thread t([&u] { u.Const("other-thread"); });
        t.join();
      },
      "Universe shared across threads");
}

#endif  // NDEBUG

}  // namespace
}  // namespace ocdx
