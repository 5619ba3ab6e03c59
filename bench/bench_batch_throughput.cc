// Batch-runner throughput: pinned `.dx` file sets driven end to end
// (`ocdx batch --command=all`) at increasing worker counts, plus the
// parse-bound bulk_import.dx batch beside one in-process `all` run of the
// same file (the parse-once target: batch within 1.2x of a single run).
//
// A batch job is one file. The scaling story is jobs/second at -j1 vs
// -j4/-j8: on a multi-core host the work-queue fans the corpus's
// independent files across cores (the jobs share no mutable state, so
// the speedup is bounded only by file-size imbalance); on a single-core
// host the numbers document the queue's overhead instead (expect ~1x,
// see BENCH_pr4.json context).
//
// Repeating the corpus (`repeat` counter) amplifies the workload so the
// pool's scheduling cost stays amortized and per-repetition noise drops.

#include <benchmark/benchmark.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "exec/batch_runner.h"

namespace ocdx {
namespace {

// Explicit file lists, never a directory glob, so a file added to the
// corpus cannot silently change what a row measures. kOriginalSet is the
// corpus BM_BatchCorpus was first recorded on (BENCH_pr4.json), keeping
// its jobs/second comparable across baselines; kEnumHeavySet holds the
// enumeration-heavy scenarios, which do one to two orders of magnitude
// more evaluation work per job.
constexpr std::initializer_list<const char*> kOriginalSet = {
    "annotated_literals.dx", "composition.dx",    "conference.dx",
    "empty_markers.dx",      "membership.dx",     "nulls_and_ineq.dx",
    "open_vs_closed.dx",     "skolem.dx"};
constexpr std::initializer_list<const char*> kEnumHeavySet = {
    "member_search.dx", "membership_sweep.dx", "valuation_enum.dx"};

std::string CorpusPath(const char* name) {
  return std::string(OCDX_CORPUS_DIR) + "/" + name;
}

std::vector<std::string> CorpusFiles(
    size_t repeat, std::initializer_list<const char*> names) {
  std::vector<std::string> out;
  out.reserve(names.size() * repeat);
  for (size_t r = 0; r < repeat; ++r) {
    for (const char* name : names) out.push_back(CorpusPath(name));
  }
  return out;
}

void RunBatchCorpus(benchmark::State& state,
                    std::initializer_list<const char*> names = kOriginalSet) {
  const size_t workers = static_cast<size_t>(state.range(0));
  const size_t repeat = 4;
  std::vector<std::string> files = CorpusFiles(repeat, names);
  BatchOptions options;
  options.workers = workers;

  size_t jobs = 0;
  for (auto _ : state) {
    Result<BatchReport> report = RunDxBatch(files, options);
    if (!report.ok() || !report.value().ok()) {
      state.SkipWithError("batch run failed");
      return;
    }
    jobs = report.value().total_jobs;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs) * state.iterations());
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["files"] = static_cast<double>(files.size());
}

void BM_BatchCorpus(benchmark::State& state) {
  RunBatchCorpus(state);
  state.SetLabel("batch: pinned original corpus, command=all, indexed");
}
BENCHMARK(BM_BatchCorpus)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The enumeration-heavy PR 5 scenarios (valuation enumeration, bounded
// member search, membership fan-out): the workload the compile-once
// plan table exists for.
void BM_BatchEnumCorpus(benchmark::State& state) {
  RunBatchCorpus(state, kEnumHeavySet);
  state.SetLabel("batch: enumeration-heavy corpus, command=all, indexed");
}
BENCHMARK(BM_BatchEnumCorpus)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Parse-bound: bulk_import.dx is ~4k facts no rule reads. A one-file
// batch is one job running the same RunDxFile call as
// BM_BulkImportDirect, the in-process equivalent of `ocdx all
// bulk_import.dx`, so at any worker count it should stay within 1.2x of
// it.
void BM_BulkImportBatch(benchmark::State& state) {
  BatchOptions options;
  options.workers = static_cast<size_t>(state.range(0));
  const std::string file = CorpusPath("bulk_import.dx");
  size_t jobs = 0;
  for (auto _ : state) {
    Result<BatchReport> report = RunDxBatch({file}, options);
    if (!report.ok() || !report.value().ok()) {
      state.SkipWithError("batch run failed");
      return;
    }
    jobs = report.value().total_jobs;
    benchmark::DoNotOptimize(report);
  }
  state.counters["workers"] = static_cast<double>(options.workers);
  state.counters["jobs"] = static_cast<double>(jobs);
  state.SetLabel("batch: bulk_import.dx, command=all");
}
BENCHMARK(BM_BulkImportBatch)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BulkImportDirect(benchmark::State& state) {
  const std::string file = CorpusPath("bulk_import.dx");
  Result<std::string> source = ReadDxFile(file);
  if (!source.ok()) {
    state.SkipWithError(source.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<std::string> out = RunDxFile(file, source.value(), "all", {});
    if (!out.ok()) {
      state.SkipWithError("direct run failed");
      return;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel("in-process RunDxFile(all): bulk_import.dx");
}
BENCHMARK(BM_BulkImportDirect)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
