#include "exec/batch_runner.h"

#include <atomic>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>

#include "exec/frozen_scenario.h"
#include "exec/pool.h"
#include "text/dx_parser.h"
#include "util/stopwatch.h"
#include "util/str.h"

namespace ocdx {

namespace {

/// One input file's build slot: written by its pool task, then read by
/// the planner once `ready` is set (release/acquire).
struct FileBuild {
  std::shared_ptr<const FrozenScenario> scenario;  ///< Null on failure.
  Status status;  ///< The read or parse failure, if any.
  double millis = 0;
  EngineStats stats;
  std::unique_ptr<obs::TraceSink> trace;
  std::atomic<bool> ready{false};
};

/// Reads, parses and freezes one file: the only parse the file gets.
/// Only `all` prechases: its jobs are the ones that read the same pairs,
/// and borrowing them from the store, they chase each pair once.
void BuildFile(const std::string& path, const BatchOptions& options,
               FileBuild* out) {
  Stopwatch timer;
  if (options.collect_traces) out->trace = std::make_unique<obs::TraceSink>();
  Result<std::string> source = ReadDxFile(path);
  if (!source.ok()) {
    out->status = source.status();
  } else {
    EngineContext ctx = options.engine;
    ctx.stats = &out->stats;
    ctx.trace = out->trace.get();
    Result<FrozenScenario> frozen = BuildFrozenScenario(
        path, std::move(source).value(), ctx, options.command == "all");
    if (frozen.ok()) {
      out->scenario =
          std::make_shared<const FrozenScenario>(std::move(frozen).value());
    } else {
      out->status = frozen.status();
    }
  }
  out->millis = timer.ElapsedMillis();
  out->ready.store(true, std::memory_order_release);
  out->ready.notify_one();
}

/// The file's job slices: PlanDxJobs, or the whole command as one job.
Result<std::vector<DxJobSpec>> PlanFile(const FrozenScenario& frozen,
                                        const BatchOptions& options,
                                        const DxDriverOptions& base) {
  if (options.split_scenarios) {
    return PlanDxJobs(frozen.scenario, options.command, base);
  }
  DxJobSpec spec;
  spec.command = options.command;
  spec.options = base;
  return std::vector<DxJobSpec>{std::move(spec)};
}

/// Runs one planned slice on its file's frozen scenario. Everything the
/// job writes — overlay, stats, trace — is its own.
BatchJobResult RunJob(const BatchJob& job) {
  BatchJobResult result;
  Stopwatch timer;
  DxDriverOptions options = job.spec.options;
  options.engine.stats = &result.stats;
  // Same rule for the trace sink: allocated here, owned by this job's
  // result, never seen by another worker. A sink inherited from the
  // spec's context would be shared across workers, so it is always
  // dropped.
  options.engine.trace = nullptr;
  if (job.collect_trace) {
    result.trace = std::make_unique<obs::TraceSink>();
    options.engine.trace = result.trace.get();
  }

  {
    obs::ScopedSpan job_span(&result.stats, result.trace.get(),
                             obs::kPhaseJob);
    Result<std::string> text = RunFrozenCommand(
        *job.scenario, job.spec.command, options, &result.governed);
    if (!text.ok()) {
      result.status = text.status();
    } else {
      result.output = StrCat(job.spec.prefix, text.value());
    }
  }
  // Cancellation has no in-engine trip counter (the flag is observed at
  // many sites); count it per job, where it is well-defined.
  if (result.governed.code() == StatusCode::kCancelled) {
    ++result.stats.cancelled_jobs;
  }
  result.millis = timer.ElapsedMillis();
  return result;
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

  DxDriverOptions base = options.driver;
  base.engine = options.engine;
  base.engine.stats = nullptr;
  base.engine.trace = nullptr;

  std::vector<FileBuild> builds(files.size());
  // Deques: the planner appends while workers write earlier slots, and a
  // deque append never moves an existing element.
  std::deque<BatchJob> jobs;
  std::deque<BatchJobResult> results;
  std::vector<std::pair<size_t, size_t>> file_job_ranges(files.size(),
                                                         {0, 0});
  {
    // workers <= 1 runs every task inline at submission: the same code
    // path, sequentially.
    std::optional<ThreadPool> pool;
    if (options.workers > 1) pool.emplace(options.workers);
    auto submit = [&pool](std::function<void()> task) {
      if (pool.has_value()) {
        pool->Submit(std::move(task));
      } else {
        task();
      }
    };

    // Builds first: they queue ahead of every job, so no file's parse
    // runs on the calling thread and the workers start on it at once.
    for (size_t f = 0; f < files.size(); ++f) {
      submit([&files, &builds, &options, f] {
        BuildFile(files[f], options, &builds[f]);
      });
    }

    // Planning, in file order as each scenario becomes ready: the job
    // submission order (and with it the trace layout) is fixed by the
    // input order alone.
    for (size_t f = 0; f < files.size(); ++f) {
      FileBuild& build = builds[f];
      build.ready.wait(false, std::memory_order_acquire);
      report.files[f].file = files[f];
      file_job_ranges[f].first = jobs.size();
      Result<std::vector<DxJobSpec>> specs =
          build.scenario == nullptr
              ? Result<std::vector<DxJobSpec>>(build.status)
              : PlanFile(*build.scenario, options, base);
      if (!specs.ok()) {
        report.files[f].status = specs.status();
      } else {
        for (DxJobSpec& spec : specs.value()) {
          BatchJob& job = jobs.emplace_back();
          job.index = jobs.size() - 1;
          job.file_index = f;
          job.file = files[f];
          job.scenario = build.scenario;
          job.spec = std::move(spec);
          job.collect_trace = options.collect_traces;
          BatchJobResult* slot = &results.emplace_back();
          submit([queued = &job, slot] {
            *slot = RunJob(*queued);
            queued->scenario.reset();
          });
        }
      }
      build.scenario.reset();
      file_job_ranges[f].second = jobs.size();
    }
    // ~ThreadPool drains the queue and joins.
  }
  report.total_jobs = jobs.size();

  // Deterministic assembly in plan order.
  for (size_t f = 0; f < files.size(); ++f) {
    BatchFileReport& fr = report.files[f];
    fr.millis += builds[f].millis;
    report.stats += builds[f].stats;
    for (size_t i = file_job_ranges[f].first; i < file_job_ranges[f].second;
         ++i) {
      ++fr.jobs;
      fr.millis += results[i].millis;
      report.stats += results[i].stats;
      if (!results[i].governed.ok()) {
        ++report.governed_jobs;
        if (fr.governed.ok()) fr.governed = results[i].governed;
      }
      if (results[i].status.ok()) {
        fr.output += results[i].output;
      } else {
        fr.output += StrCat(jobs[i].spec.prefix, "ocdx: error: ",
                            results[i].status.ToString(), "\n");
        if (fr.status.ok()) fr.status = results[i].status;
      }
    }
  }
  // Trace handoff: file f's build at traces[f], then job i at
  // traces[files + i], so the merged render's tid layout is identical
  // for every -j.
  if (options.collect_traces) {
    report.traces.reserve(files.size() + results.size());
    for (size_t f = 0; f < files.size(); ++f) {
      report.traces.push_back(BatchJobTrace{StrCat("file-", f, " ", files[f]),
                                            std::move(builds[f].trace)});
    }
    for (size_t i = 0; i < results.size(); ++i) {
      report.traces.push_back(BatchJobTrace{
          StrCat("job-", i, " ", jobs[i].file), std::move(results[i].trace)});
    }
  }
  report.wall_millis = wall.ElapsedMillis();
  return report;
}

std::string RenderBatchOutput(const BatchReport& report) {
  std::string out;
  for (const BatchFileReport& f : report.files) {
    out += StrCat("==> ", f.file, " <==\n");
    if (f.jobs == 0 && !f.status.ok()) {
      // Planning-level failure (unreadable file, parse error, no
      // applicable inputs): still rendered deterministically.
      out += StrCat("ocdx: error: ", f.status.ToString(), "\n");
    } else {
      out += f.output;
    }
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
                "batch: wall %.2f ms, cpu (sum of builds and jobs) %.2f ms, "
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
