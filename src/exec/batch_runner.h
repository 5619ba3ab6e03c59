// Parallel batch execution of `.dx` scenario workloads.
//
// The runner runs each input file as one job on a fixed-size thread pool
// (exec/pool.h): the job reads the file and runs it through RunDxFile,
// the function behind one in-process `ocdx <command> FILE` run, in a
// universe of its own. One RunDxCommand call already chases each
// (mapping, instance) pair once for every section of the run
// (Corollary 2), so a file's sections share its solutions without any
// cross-job machinery, and a file's block of batch output is the
// single-run output by construction.
//
// Determinism contract (pinned by tests/batch_exec_test.cc and the CI
// corpus diff): RenderBatchOutput is *byte-identical* for every worker
// count, including workers = 1, under every engine mode. This falls out
// of two rules rather than any synchronization:
//
//   1. a job shares nothing mutable with another: its universe, plan
//      table, stats and trace sink are its own, and its output is
//      canonical text (sorted rendering, justification-keyed null
//      names);
//   2. results land in input-indexed slots; concatenation order is the
//      input order, never completion order.
//
// Timing and throughput live only in RenderBatchSummary, which is
// intentionally not byte-stable.

#ifndef OCDX_EXEC_BATCH_RUNNER_H_
#define OCDX_EXEC_BATCH_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "logic/engine_context.h"
#include "obs/trace.h"
#include "text/dx_driver.h"
#include "util/status.h"

namespace ocdx {

struct BatchOptions {
  /// Worker threads; 1 = the sequential runner (same code path).
  size_t workers = 1;
  /// Driver command to run on every file ("all", "chase", ...).
  std::string command = "all";
  /// Engine template for every job (mode and budgets are copied per job;
  /// the stats and trace pointers are ignored — each job gets its own
  /// sinks — and so is any plan table: each job's run attaches its own).
  EngineContext engine;
  /// Give every job its own obs::TraceSink and return the sinks on the
  /// report (BatchReport::traces) for a merged Chrome trace. Stdout stays
  /// byte-identical either way.
  bool collect_traces = false;
  /// Extra driver selection applied to every file (mapping/sigma/...).
  DxDriverOptions driver;
};

/// Per-file slice of the report, in input order.
struct BatchFileReport {
  std::string file;
  Status status;       ///< The read, parse or run failure, if any.
  /// First budget/deadline/cancellation trip of the file's run (OK when
  /// none). Orthogonal to `status`: a governed file still produced
  /// complete, deterministic output with inline `error ...` lines.
  Status governed;
  /// The run's canonical text, or one deterministic "ocdx: error:" line
  /// when `status` is not OK.
  std::string output;
  double millis = 0;  ///< Time of the file's job: read, parse and run.
};

/// One track of the merged Chrome render: one file's job. The label
/// becomes the thread name and the track's index fixes its tid block, so
/// traces are stably laid out for every worker count.
struct BatchJobTrace {
  std::string label;  ///< "job-<index> <file>".
  std::unique_ptr<obs::TraceSink> sink;
};

struct BatchReport {
  std::vector<BatchFileReport> files;  ///< Input order.
  size_t total_jobs = 0;  ///< One job per input file.
  size_t governed_jobs = 0;  ///< Jobs that tripped a budget/deadline/cancel.
  double wall_millis = 0;  ///< End-to-end batch wall time.
  EngineStats stats;  ///< Aggregated over all jobs.
  /// Only when BatchOptions::collect_traces was set: one sink per input
  /// file, in input order.
  std::vector<BatchJobTrace> traces;

  bool ok() const {
    for (const BatchFileReport& f : files) {
      if (!f.status.ok()) return false;
    }
    return true;
  }
};

/// Reads and runs `files` under `options`, one job per file. Only hard
/// setup errors (no input files) fail the call itself; per-file
/// read/parse/run failures are recorded in the report.
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
/// against it: one cold `ocdxd` request, one in-process `ocdx` run or one
/// batch job. A parse failure keeps its code and is prefixed with `path`.
/// `governed` (optional) receives the first budget/deadline/cancellation
/// trip, exactly as in RunDxCommand.
Result<std::string> RunDxFile(const std::string& path,
                              const std::string& source,
                              const std::string& command,
                              const DxDriverOptions& options,
                              Status* governed = nullptr);

}  // namespace ocdx

#endif  // OCDX_EXEC_BATCH_RUNNER_H_
