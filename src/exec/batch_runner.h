// Parallel batch execution of `.dx` scenario workloads.
//
// The runner fans a set of scenario files — and, within each scenario,
// the independent command slices enumerated by PlanDxJobs
// (text/dx_driver.h) — across a fixed-size thread pool (exec/pool.h),
// then reassembles per-file canonical output in submission order.
//
// Each file is read, parsed and frozen exactly once, by a pool task,
// into a FrozenScenario (exec/frozen_scenario.h), prechased under `all`;
// the calling thread then plans the files' jobs in file order as their
// scenarios become ready, and every job runs on the shared scenario
// through RunFrozenCommand.
//
// Determinism contract (pinned by tests/batch_exec_test.cc and the CI
// corpus diff): RenderBatchOutput is *byte-identical* for every worker
// count, including workers = 1, under every engine mode. This falls out
// of three rules rather than any synchronization:
//
//   1. the jobs of a file share its one frozen scenario and mint only
//      through a private overlay of its frozen universe (one overlay per
//      job — debug-asserted by Universe); overlay ids continue the
//      base's id spaces, so every job sees exactly the universe a fresh
//      parse would give it;
//   2. job outputs are canonical text (sorted rendering, justification-
//      keyed null names), insensitive to interning order;
//   3. results land in submission-indexed slots; concatenation order is
//      the plan order, never completion order.
//
// Timing and throughput live only in RenderBatchSummary, which is
// intentionally not byte-stable.

#ifndef OCDX_EXEC_BATCH_RUNNER_H_
#define OCDX_EXEC_BATCH_RUNNER_H_

#include <string>
#include <vector>

#include "exec/job.h"
#include "logic/engine_context.h"
#include "text/dx_driver.h"
#include "util/status.h"

namespace ocdx {

struct BatchOptions {
  /// Worker threads; 1 = the sequential runner (same code path).
  size_t workers = 1;
  /// Driver command to run on every file ("all", "chase", ...).
  std::string command = "all";
  /// Engine template for every job (mode and budgets are copied per job;
  /// the stats pointer is ignored — each job gets its own sink — and so
  /// is any plan table: each file's scenario owns the one its jobs use).
  EngineContext engine;
  /// Fan out the slices within a scenario (per-mapping chase/certain
  /// jobs). Off = one job per file.
  bool split_scenarios = true;
  /// Give every file build and every job its own obs::TraceSink and
  /// return the sinks on the report (BatchReport::traces) for a merged
  /// Chrome trace. Stdout stays byte-identical either way.
  bool collect_traces = false;
  /// Extra driver selection applied to every file (mapping/sigma/...).
  DxDriverOptions driver;
};

/// Per-file slice of the report, in input order.
struct BatchFileReport {
  std::string file;
  Status status;       ///< OK iff planning and every job succeeded.
  /// First budget/deadline/cancellation trip among the file's jobs (OK
  /// when none). Orthogonal to `status`: a governed file still produced
  /// complete, deterministic output with inline `error ...` lines.
  Status governed;
  std::string output;  ///< Concatenated job outputs; failed jobs render a
                       ///< deterministic "ocdx: error:" line in place.
  size_t jobs = 0;
  /// Time of the file's build (read, parse, prechase under `all`,
  /// freeze) plus the sum of its job times (not wall time).
  double millis = 0;
};

/// One track of the merged Chrome render: a file build or a job. The
/// label becomes the thread name and the track's index fixes its tid
/// block, so traces are stably laid out for every worker count.
struct BatchJobTrace {
  std::string label;  ///< "file-<index> <file>" or "job-<index> <file>".
  std::unique_ptr<obs::TraceSink> sink;
};

struct BatchReport {
  std::vector<BatchFileReport> files;  ///< Input order.
  size_t total_jobs = 0;
  size_t governed_jobs = 0;  ///< Jobs that tripped a budget/deadline/cancel.
  double wall_millis = 0;  ///< End-to-end batch wall time.
  EngineStats stats;  ///< Aggregated over all file builds and jobs.
  /// Only when BatchOptions::collect_traces was set: one sink per input
  /// file (its build, in file order), then one per job in submission
  /// order.
  std::vector<BatchJobTrace> traces;

  bool ok() const {
    for (const BatchFileReport& f : files) {
      if (!f.status.ok()) return false;
    }
    return true;
  }
};

/// Reads, plans, and executes `files` under `options`. Only hard setup
/// errors (no input files) fail the call itself; per-file read/parse/run
/// failures are recorded in the report.
Result<BatchReport> RunDxBatch(const std::vector<std::string>& files,
                               const BatchOptions& options);

/// The canonical, worker-count-independent stdout block:
///   ==> FILE <==
///   <canonical command output>
/// per file, in input order.
std::string RenderBatchOutput(const BatchReport& report);

/// Human-readable timing/throughput summary (stderr material; not
/// byte-stable across runs).
std::string RenderBatchSummary(const BatchReport& report,
                               const BatchOptions& options);

/// Reads a file into a string (NotFound on failure) — the one
/// read-the-scenario routine shared by the batch runner, the `ocdx` CLI
/// and the `ocdxd` server, so "cannot read '<path>'" stays one message.
Result<std::string> ReadDxFile(const std::string& path);

/// Parses `path` into a fresh Universe and runs one driver command
/// against it: one cold `ocdxd` request or one in-process `ocdx` run.
/// `governed` (optional) receives the first budget/deadline/cancellation
/// trip, exactly as in RunDxCommand.
Result<std::string> RunDxFile(const std::string& path,
                              const std::string& source,
                              const std::string& command,
                              const DxDriverOptions& options,
                              Status* governed = nullptr);

}  // namespace ocdx

#endif  // OCDX_EXEC_BATCH_RUNNER_H_
