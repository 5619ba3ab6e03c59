// Job and result records for the batch executor (exec/batch_runner.h).
//
// A job is one independently runnable slice of work over one `.dx` file:
// a DxJobSpec (command + selection + engine context) from
// text/dx_driver.h's PlanDxJobs, plus enough identity to reassemble the
// deterministic, submission-ordered report. The jobs of one file share
// its FrozenScenario (exec/frozen_scenario.h) — the file's one parse,
// read-only — and mint only through a private overlay of its frozen
// universe, so jobs can run on any worker in any order, including two
// jobs of the same file at once.

#ifndef OCDX_EXEC_JOB_H_
#define OCDX_EXEC_JOB_H_

#include <cstdint>
#include <memory>
#include <string>

#include "exec/frozen_scenario.h"
#include "logic/engine_context.h"
#include "obs/trace.h"
#include "text/dx_driver.h"
#include "util/status.h"

namespace ocdx {

/// One schedulable unit.
struct BatchJob {
  size_t index = 0;       ///< Submission order across the whole batch.
  size_t file_index = 0;  ///< Index into the batch's input file list.
  std::string file;       ///< Path (for error messages).
  /// The file's frozen scenario, shared (read-only) by its slices; the
  /// last job of the file to finish releases it.
  std::shared_ptr<const FrozenScenario> scenario;
  DxJobSpec spec;         ///< Command slice to run.
  /// When set, the job allocates its own obs::TraceSink (one sink per
  /// job, like its stats) and returns it on the result for the batch
  /// trace merge.
  bool collect_trace = false;
};

/// The outcome of one job, written into the report slot matching the
/// job's submission index.
struct BatchJobResult {
  Status status;
  /// First budget/deadline/cancellation trip inside the job (OK when
  /// none). A governed job still has status OK and full output — the trip
  /// renders inline as positioned `error ...` lines (see RunDxCommand) —
  /// so governance never breaks batch byte-identity or stops the batch.
  Status governed;
  std::string output;  ///< prefix + canonical command text (when ok).
  double millis = 0;   ///< Wall time of this job alone.
  EngineStats stats;   ///< This job's evaluation counters and timers.
  /// The job's span buffer (only when BatchJob::collect_trace was set).
  /// Owned here so the merge can absorb sinks in submission order.
  std::unique_ptr<obs::TraceSink> trace;
};

}  // namespace ocdx

#endif  // OCDX_EXEC_JOB_H_
