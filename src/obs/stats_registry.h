// Process-lifetime stats aggregation for ocdxd (ROADMAP item 3: "a
// metrics endpoint fed by EngineStats").
//
// Jobs never share stats sinks; each ocdxd request runs with its own
// EngineStats, and the server folds the finished sink into this
// registry exactly once, at job completion — the mutex is therefore
// touched only at job boundaries, never inside evaluation, preserving
// the no-locks-on-evaluation-paths contract.

#ifndef OCDX_OBS_STATS_REGISTRY_H_
#define OCDX_OBS_STATS_REGISTRY_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "logic/engine_context.h"
#include "util/status.h"

namespace ocdx {
namespace obs {

class StatsRegistry {
 public:
  StatsRegistry();

  /// Folds one completed request in. `governed` is the request's first
  /// budget/deadline/cancellation trip (OK when it ran to completion);
  /// `failed` marks requests that produced an err response (read/parse/
  /// command errors) — their partial stats still merge.
  void Record(const EngineStats& job_stats, const Status& governed,
              bool failed);

  /// Folds in work that belongs to no request, such as the snapshot
  /// loads of `ocdxd --preload` at startup: the stats merge, and no
  /// request counter moves.
  void Merge(const EngineStats& stats);

  /// One-line JSON aggregate: requests served, ok/governed/failed
  /// counts, governed counts per cause, plan-cache hit rate, shard
  /// fan-out totals, uptime, and the full merged EngineStats (every
  /// field, via the obs/report.cc manifest).
  std::string RenderJson() const;

  /// The merged stats so far (copied under the lock).
  EngineStats Snapshot() const;

 private:
  mutable std::mutex mu_;
  EngineStats total_;
  uint64_t requests_ = 0;
  uint64_t ok_ = 0;
  uint64_t failed_ = 0;
  uint64_t governed_budget_ = 0;    ///< kResourceExhausted trips.
  uint64_t governed_deadline_ = 0;  ///< kDeadlineExceeded trips.
  uint64_t governed_cancelled_ = 0; ///< kCancelled trips.
  uint64_t governed_other_ = 0;     ///< Any other non-OK governed code.
  uint64_t start_ns_;
};

}  // namespace obs
}  // namespace ocdx

#endif  // OCDX_OBS_STATS_REGISTRY_H_
