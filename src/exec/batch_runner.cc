#include "exec/batch_runner.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "exec/pool.h"
#include "text/dx_parser.h"
#include "util/stopwatch.h"
#include "util/str.h"

namespace ocdx {

namespace {

/// Runs one input file the way `ocdx <command> FILE` does: read, then
/// RunDxFile (parse + RunDxCommand) in a universe of its own. Everything
/// the task writes — its report slot, stats and trace sink — is its own.
void RunFile(const std::string& path, const BatchOptions& options,
             BatchFileReport* out, EngineStats* stats,
             std::unique_ptr<obs::TraceSink>* trace) {
  Stopwatch timer;
  DxDriverOptions driver = options.driver;
  driver.engine = options.engine;
  driver.engine.stats = stats;
  // The template's sink and table would be shared across workers, so
  // both are dropped: the file's run attaches its own table
  // (DxRunContext), and its trace sink is allocated here.
  driver.engine.trace = nullptr;
  driver.engine.plans = nullptr;
  if (options.collect_traces) {
    *trace = std::make_unique<obs::TraceSink>();
    driver.engine.trace = trace->get();
  }
  out->file = path;
  Result<std::string> source = ReadDxFile(path);
  Result<std::string> text =
      source.ok() ? RunDxFile(path, source.value(), options.command, driver,
                              &out->governed)
                  : Result<std::string>(source.status());
  if (text.ok()) {
    out->output = std::move(text).value();
  } else {
    out->status = text.status();
    out->output = StrCat("ocdx: error: ", out->status.ToString(), "\n");
  }
  // Cancellation has no in-engine trip counter (the flag is observed at
  // many sites); count it per job, where it is well-defined.
  if (out->governed.code() == StatusCode::kCancelled) ++stats->cancelled_jobs;
  out->millis = timer.ElapsedMillis();
}

}  // namespace

Result<std::string> ReadDxFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrCat("cannot read '", path, "'"));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Result<std::string> RunDxFile(const std::string& path,
                              const std::string& source,
                              const std::string& command,
                              const DxDriverOptions& options,
                              Status* governed) {
  // The job span brackets parse + command, as the CLI's single run does.
  obs::ScopedSpan job_span(options.engine.stats, options.engine.trace,
                           obs::kPhaseJob);
  Universe universe;
  std::optional<Result<DxScenario>> scenario;
  {
    obs::ScopedSpan parse_span(options.engine.stats, options.engine.trace,
                               obs::kPhaseParse);
    scenario.emplace(ParseDxScenario(source, &universe));
  }
  if (!scenario->ok()) {
    return Status(scenario->status().code(),
                  StrCat(path, ": ", scenario->status().message()));
  }
  return RunDxCommand(scenario->value(), command, &universe, options,
                      governed);
}

Result<BatchReport> RunDxBatch(const std::vector<std::string>& files,
                               const BatchOptions& options) {
  if (files.empty()) {
    return Status::InvalidArgument("batch needs at least one input file");
  }

  Stopwatch wall;
  BatchReport report;
  report.files.resize(files.size());
  report.total_jobs = files.size();
  std::vector<EngineStats> stats(files.size());
  std::vector<std::unique_ptr<obs::TraceSink>> traces(files.size());
  {
    // One worker or one file runs every task inline at submission: the
    // same code path, sequentially.
    const size_t workers = std::min(options.workers, files.size());
    std::optional<ThreadPool> pool;
    if (workers > 1) pool.emplace(workers);
    for (size_t f = 0; f < files.size(); ++f) {
      auto task = [&, f] {
        RunFile(files[f], options, &report.files[f], &stats[f], &traces[f]);
      };
      if (pool.has_value()) {
        pool->Submit(task);
      } else {
        task();
      }
    }
    // ~ThreadPool drains the queue and joins.
  }

  // Assembly in input order, never completion order.
  for (size_t f = 0; f < files.size(); ++f) {
    report.stats += stats[f];
    if (!report.files[f].governed.ok()) ++report.governed_jobs;
    if (options.collect_traces) {
      report.traces.push_back(BatchJobTrace{StrCat("job-", f, " ", files[f]),
                                            std::move(traces[f])});
    }
  }
  report.wall_millis = wall.ElapsedMillis();
  return report;
}

std::string RenderBatchOutput(const BatchReport& report) {
  std::string out;
  for (const BatchFileReport& f : report.files) {
    out += StrCat("==> ", f.file, " <==\n");
    out += f.output;
  }
  return out;
}

std::string RenderBatchSummary(const BatchReport& report,
                               const BatchOptions& options) {
  size_t failed = 0;
  double job_millis = 0;
  for (const BatchFileReport& f : report.files) {
    if (!f.status.ok()) ++failed;
    job_millis += f.millis;
  }
  std::string out = StrCat(
      "batch: ", report.files.size(), " file(s), ", report.total_jobs,
      " job(s), ", options.workers, " worker(s), command=", options.command,
      "\n");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "batch: wall %.2f ms, cpu (sum of jobs) %.2f ms, "
                "speedup %.2fx\n",
                report.wall_millis, job_millis,
                report.wall_millis > 0 ? job_millis / report.wall_millis
                                       : 0.0);
  out += buf;
  out += StrCat("batch: engine stats: cq_plans=", report.stats.cq_plans,
                ", generic_evals=", report.stats.generic_evals,
                ", chase_triggers=", report.stats.chase_triggers,
                ", hom_steps=", report.stats.hom_steps,
                ", repa_steps=", report.stats.repa_steps, "\n");
  out += StrCat("batch: plan stats: compiles=", report.stats.plan_compiles,
                ", cache_hits=", report.stats.plan_cache_hits,
                ", cache_misses=", report.stats.plan_cache_misses,
                ", guard_depth_fallbacks=",
                report.stats.guard_depth_fallbacks, "\n");
  const uint64_t lookups =
      report.stats.plan_cache_hits + report.stats.plan_cache_misses;
  if (lookups > 0) {
    std::snprintf(buf, sizeof(buf), "batch: plan cache hit rate: %.1f%%\n",
                  100.0 * static_cast<double>(report.stats.plan_cache_hits) /
                      static_cast<double>(lookups));
    out += buf;
  } else {
    out += "batch: plan cache hit rate: n/a (no lookups)\n";
  }
  std::snprintf(buf, sizeof(buf),
                "batch: phase ms: parse=%.2f chase=%.2f plan_compile=%.2f "
                "plan_bind=%.2f member_enum=%.2f hom=%.2f repa=%.2f "
                "render=%.2f\n",
                static_cast<double>(report.stats.parse_ns) / 1e6,
                static_cast<double>(report.stats.chase_ns) / 1e6,
                static_cast<double>(report.stats.plan_compile_ns) / 1e6,
                static_cast<double>(report.stats.plan_bind_ns) / 1e6,
                static_cast<double>(report.stats.member_enum_ns) / 1e6,
                static_cast<double>(report.stats.hom_search_ns) / 1e6,
                static_cast<double>(report.stats.repa_search_ns) / 1e6,
                static_cast<double>(report.stats.render_ns) / 1e6);
  out += buf;
  out += StrCat("batch: governance: chase_budget_trips=",
                report.stats.chase_budget_trips, ", deadline_trips=",
                report.stats.deadline_trips, ", cancelled_jobs=",
                report.stats.cancelled_jobs, ", governed_jobs=",
                report.governed_jobs, "\n");
  if (failed > 0) out += StrCat("batch: ", failed, " file(s) FAILED\n");
  return out;
}

}  // namespace ocdx
