#include "exec/batch_runner.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "exec/pool.h"
#include "plan/plan_table.h"
#include "text/dx_parser.h"
#include "util/stopwatch.h"
#include "util/str.h"

namespace ocdx {

namespace {

/// Runs one planned slice: fresh Universe, fresh parse, one command.
/// This is the *entire* per-job state — nothing here outlives the call
/// or is visible to another job.
BatchJobResult RunJob(const BatchJob& job) {
  BatchJobResult result;
  Stopwatch timer;
  DxDriverOptions options = job.spec.options;
  // Each job gets its *own* plan table; the spec's context never carries
  // one across jobs.
  options.engine.plans = std::make_shared<plan::PlanTable>();
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
    // Frozen-base reuse: when the planning pass attached a frozen
    // scoping universe (null-free scenarios only — see exec/job.h), the
    // job parses into a copy-on-write overlay of it, so the file's
    // constant table is interned once per *file*, not once per job, and
    // the overlay assigns exactly the ids a cold parse would. Otherwise
    // the job owns a cold universe, as before.
    std::unique_ptr<Universe> overlay;
    Universe cold;
    Universe* universe = &cold;
    if (job.frozen_base != nullptr) {
      overlay = job.frozen_base->NewOverlay();
      universe = overlay.get();
      ++result.stats.frozen_base_reuses;
      ++result.stats.overlay_mints;
    }
    std::optional<Result<DxScenario>> scenario;
    {
      obs::ScopedSpan parse_span(&result.stats, result.trace.get(),
                                 obs::kPhaseParse);
      scenario.emplace(ParseDxScenario(*job.source, universe));
    }
    if (!scenario->ok()) {
      result.status = scenario->status();
    } else {
      Result<std::string> text =
          RunDxCommand(scenario->value(), job.spec.command, universe,
                       options, &result.governed);
      if (!text.ok()) {
        result.status = text.status();
      } else {
        result.output = StrCat(job.spec.prefix, text.value());
      }
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
  // The job span brackets parse + command, exactly as in RunJob — so an
  // ocdxd request and a batch job time identically.
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

  // Planning pass (sequential, on the calling thread): read each file and
  // slice its command into independent jobs. The planning parse uses a
  // throwaway Universe; jobs re-parse into their own.
  std::vector<BatchJob> jobs;
  std::vector<std::pair<size_t, size_t>> file_job_ranges(files.size(),
                                                         {0, 0});
  for (size_t f = 0; f < files.size(); ++f) {
    report.files[f].file = files[f];
    file_job_ranges[f].first = jobs.size();

    Result<std::string> source = ReadDxFile(files[f]);
    if (!source.ok()) {
      report.files[f].status = source.status();
      file_job_ranges[f].second = jobs.size();
      continue;
    }
    auto shared_source =
        std::make_shared<const std::string>(std::move(source).value());

    std::vector<DxJobSpec> specs;
    DxDriverOptions base = options.driver;
    base.engine = options.engine;
    base.engine.stats = nullptr;
    base.engine.trace = nullptr;
    std::shared_ptr<const Universe> frozen_base;
    if (options.split_scenarios) {
      auto scoping = std::make_shared<Universe>();
      Result<DxScenario> scenario =
          ParseDxScenario(*shared_source, scoping.get());
      if (!scenario.ok()) {
        report.files[f].status = scenario.status();
        file_job_ranges[f].second = jobs.size();
        continue;
      }
      Result<std::vector<DxJobSpec>> plan =
          PlanDxJobs(scenario.value(), options.command, base);
      if (!plan.ok()) {
        report.files[f].status = plan.status();
        file_job_ranges[f].second = jobs.size();
        continue;
      }
      specs = std::move(plan).value();
      // Null-free planning parse → the overlay re-parse assigns exactly
      // the ids a cold parse would (see BatchJob::frozen_base), so the
      // jobs can share this universe as a frozen base instead of each
      // re-interning the file's constant table from scratch.
      if (scoping->num_nulls() == 0) {
        scoping->Freeze();
        frozen_base = std::move(scoping);
      }
    } else {
      DxJobSpec spec;
      spec.command = options.command;
      spec.options = base;
      specs.push_back(std::move(spec));
    }

    for (DxJobSpec& spec : specs) {
      BatchJob job;
      job.index = jobs.size();
      job.file_index = f;
      job.file = files[f];
      job.source = shared_source;
      job.spec = std::move(spec);
      job.frozen_base = frozen_base;
      job.collect_trace = options.collect_traces;
      jobs.push_back(std::move(job));
    }
    file_job_ranges[f].second = jobs.size();
  }
  report.total_jobs = jobs.size();

  // Execution. Results land in submission-indexed slots, so assembly
  // below is independent of completion order; workers share nothing but
  // the (read-only) job list and their disjoint result slots.
  std::vector<BatchJobResult> results(jobs.size());
  if (options.workers <= 1) {
    for (size_t i = 0; i < jobs.size(); ++i) results[i] = RunJob(jobs[i]);
  } else {
    ThreadPool pool(options.workers);
    for (size_t i = 0; i < jobs.size(); ++i) {
      const BatchJob* job = &jobs[i];
      BatchJobResult* slot = &results[i];
      pool.Submit([job, slot] { *slot = RunJob(*job); });
    }
    // ~ThreadPool drains the queue and joins.
  }

  // Deterministic assembly in plan order.
  for (size_t f = 0; f < files.size(); ++f) {
    BatchFileReport& fr = report.files[f];
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
  // Trace handoff in submission order: job i always lands at traces[i],
  // so the merged render's tid layout is identical for every -j.
  if (options.collect_traces) {
    report.traces.reserve(results.size());
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
                "plan_bind=%.2f member_enum=%.2f hom=%.2f repa=%.2f\n",
                static_cast<double>(report.stats.parse_ns) / 1e6,
                static_cast<double>(report.stats.chase_ns) / 1e6,
                static_cast<double>(report.stats.plan_compile_ns) / 1e6,
                static_cast<double>(report.stats.plan_bind_ns) / 1e6,
                static_cast<double>(report.stats.member_enum_ns) / 1e6,
                static_cast<double>(report.stats.hom_search_ns) / 1e6,
                static_cast<double>(report.stats.repa_search_ns) / 1e6);
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
