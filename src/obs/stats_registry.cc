#include "obs/stats_registry.h"

#include <cinttypes>
#include <cstdio>

#include "obs/report.h"
#include "obs/trace.h"

namespace ocdx {
namespace obs {

StatsRegistry::StatsRegistry() : start_ns_(NowNs()) {}

void StatsRegistry::Record(const EngineStats& job_stats,
                           const Status& governed, bool failed) {
  std::lock_guard<std::mutex> lock(mu_);
  total_ += job_stats;
  ++requests_;
  if (failed) {
    ++failed_;
  } else if (governed.ok()) {
    ++ok_;
  } else {
    switch (governed.code()) {
      case StatusCode::kResourceExhausted:
        ++governed_budget_;
        break;
      case StatusCode::kDeadlineExceeded:
        ++governed_deadline_;
        break;
      case StatusCode::kCancelled:
        ++governed_cancelled_;
        break;
      default:
        ++governed_other_;
    }
  }
}

void StatsRegistry::Merge(const EngineStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  total_ += stats;
}

EngineStats StatsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::string StatsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t governed = governed_budget_ + governed_deadline_ +
                      governed_cancelled_ + governed_other_;
  uint64_t lookups = total_.plan_cache_hits + total_.plan_cache_misses;
  double hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(total_.plan_cache_hits) /
                         static_cast<double>(lookups);
  uint64_t uptime_ms = (NowNs() - start_ns_) / 1000000;

  char head[512];
  std::snprintf(
      head, sizeof(head),
      "{\"requests\":%" PRIu64 ",\"ok\":%" PRIu64 ",\"governed\":%" PRIu64
      ",\"failed\":%" PRIu64
      ",\"governed_by_cause\":{\"resource_exhausted\":%" PRIu64
      ",\"deadline_exceeded\":%" PRIu64 ",\"cancelled\":%" PRIu64
      ",\"other\":%" PRIu64 "},\"plan_cache_hit_rate\":%.4f"
      ",\"shard_fanouts\":%" PRIu64 ",\"shard_tasks\":%" PRIu64
      ",\"uptime_ms\":%" PRIu64 ",\"stats\":",
      requests_, ok_, governed, failed_, governed_budget_, governed_deadline_,
      governed_cancelled_, governed_other_, hit_rate, total_.enum_shard_runs,
      total_.enum_shard_tasks, uptime_ms);
  std::string out = head;
  out += RenderStatsJson(total_);
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace ocdx
