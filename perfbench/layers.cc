// layers — per-layer replay of a workload's `.dx` files through the
// library's public entry points, for the benchmark's traced run.
//
//   layers --seconds=S --shards=N --refs=DIR --trace-out=FILE FILE.dx...
//
// One pass visits every file. Per file ("op") it times, each in its own
// span:
//   parse     ParseDxScenario
//   chase     Chase, once per applicable (mapping, instance) pair
//   certain   CertainAnswerEngine::FromCanonical + CertainAnswers /
//             IsCertainBoolean for every query over the mapping's target
//   render    RunDxCommand("chase") over the prechased store: no chase,
//             only canonical null renaming and printing
//   semantics RunDxCommand("membership") (InSolutionSpace / InRepA)
//   compose   RunDxCommand("compose") (InComposition / ComposeSkolem)
// then, outside the op span, the snapshot path (BuildSnapshotBundle +
// SerializeSnapshot, ParseSnapshot, RunSnapshotCommand) and the in-process
// `all` op with the engine's stats/trace sinks detached and attached. Once
// per pass, RunDxBatch runs the whole file set on 2 workers.
//
// The warm-run, in-process and batch outputs are checked against
// DIR/<index>.ref (the single-process `ocdx all` output of the index-th
// file). Passes repeat until S seconds have elapsed and at least three
// have run; every metric is the median over passes of a per-op value.
// Output: one JSON object on stdout; spans as Chrome trace-event JSON in
// FILE, written at exit.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "certain/certain.h"
#include "chase/canonical.h"
#include "exec/batch_runner.h"
#include "logic/budget.h"
#include "logic/engine_context.h"
#include "logic/formula.h"
#include "obs/trace.h"
#include "snap/snapshot.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"

namespace {

using ocdx::EngineStats;

// RunDxBatch workers: the benchmark runs no program with more threads.
constexpr size_t kBatchWorkers = 2;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Spans live in memory until exit. `parent` indexes `spans`, -1 for a
// root; `op` is the file index, -1 for whole-pass spans.
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int parent;
  int op;
};
std::vector<Span> spans;

class ScopedSpan {
 public:
  ScopedSpan(const char* name, int parent, int op)
      : index_(static_cast<int>(spans.size())) {
    spans.push_back(Span{name, NowNs(), 0, parent, op});
  }
  ~ScopedSpan() { spans[index_].end_ns = NowNs(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }
  uint64_t ns() const { return NowNs() - spans[index_].start_ns; }

 private:
  int index_;
};

uint64_t Duration(int span) {
  return spans[span].end_ns - spans[span].start_ns;
}

bool Governed(const ocdx::Status& s) {
  return s.code() == ocdx::StatusCode::kResourceExhausted ||
         s.code() == ocdx::StatusCode::kDeadlineExceeded ||
         s.code() == ocdx::StatusCode::kCancelled;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Per-pass sums over every file; Metrics() turns them into per-op values.
struct PassTotals {
  uint64_t parse_ns = 0, parse_bytes = 0, chase_ns = 0, tuples = 0;
  uint64_t certain_ns = 0, enum_ns = 0, members = 0, render_ns = 0;
  uint64_t semantics_ns = 0, compose_ns = 0, op_ns = 0, op_self_ns = 0;
  uint64_t snap_write_ns = 0, snap_load_ns = 0, snap_bytes = 0;
  uint64_t warm_run_ns = 0, detached_ns = 0, attached_ns = 0;
  uint64_t batch_wall_ns = 0, batch_job_ns = 0, batch_jobs = 0;
  uint64_t batch_parse_ns = 0, batch_stats_job_ns = 0;
  EngineStats stats;  // every layered call of the pass
};

std::map<std::string, double> Metrics(const PassTotals& t, size_t files) {
  const double n = static_cast<double>(files);
  auto ms = [n](uint64_t ns) { return ns / 1e6 / n; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const EngineStats& s = t.stats;
  const double batch_job_ms = t.batch_job_ns / 1e6;
  const double batch_wall_ms = t.batch_wall_ns / 1e6;
  return {
      {"text.parse_ms", ms(t.parse_ns)},
      {"text.parse_mb_per_s", ratio(t.parse_bytes / 1e6, t.parse_ns / 1e9)},
      {"text.render_ms", ms(t.render_ns)},
      {"exec.wall_ms", batch_wall_ms},
      {"exec.job_ms", batch_job_ms},
      {"exec.jobs_per_file", t.batch_jobs / n},
      {"exec.idle_ms", kBatchWorkers * batch_wall_ms - batch_job_ms},
      {"exec.parse_share",
       ratio(static_cast<double>(t.batch_parse_ns), t.batch_stats_job_ns)},
      {"chase.ms", ms(t.chase_ns)},
      {"chase.triggers", s.chase_triggers / n},
      {"chase.tuples", t.tuples / n},
      {"chase.triggers_per_ms",
       ratio(static_cast<double>(s.chase_triggers), t.chase_ns / 1e6)},
      {"plan.compiles", s.plan_compiles / n},
      {"plan.compile_us", s.plan_compile_ns / 1e3 / n},
      {"plan.bind_us", s.plan_bind_ns / 1e3 / n},
      // Plan reuse, whichever cache tier served it: query evaluations per
      // compiled plan.
      {"plan.evals_per_compile",
       ratio(static_cast<double>(s.cq_plans + s.generic_evals),
             static_cast<double>(s.plan_compiles))},
      {"logic.cq_plans", s.cq_plans / n},
      {"logic.generic_evals", s.generic_evals / n},
      {"logic.guard_depth_fallbacks", s.guard_depth_fallbacks / n},
      {"certain.ms", ms(t.certain_ns)},
      {"certain.enum_ms", ms(t.enum_ns)},
      {"certain.members", t.members / n},
      {"certain.members_per_s",
       ratio(static_cast<double>(t.members), t.certain_ns / 1e9)},
      {"semantics.ms", ms(t.semantics_ns)},
      {"semantics.repa_steps", s.repa_steps / n},
      {"compose.ms", ms(t.compose_ns)},
      {"snap.write_ms", ms(t.snap_write_ns)},
      {"snap.load_ms", ms(t.snap_load_ns)},
      {"snap.bytes", t.snap_bytes / n},
      {"snap.warm_run_ms", ms(t.warm_run_ns)},
      {"trace.overhead_pct",
       100.0 * ratio(static_cast<double>(t.attached_ns) - t.detached_ns,
                     static_cast<double>(t.detached_ns))},
      {"trace.unattributed_pct",
       100.0 * ratio(static_cast<double>(t.op_self_ns),
                     static_cast<double>(t.op_ns))},
  };
}

struct Input {
  std::string path;
  std::string text;
  std::string ref;  // expected `ocdx all` output
};

class Replay {
 public:
  Replay(const std::vector<Input>& inputs, size_t shards)
      : inputs_(inputs), shards_(shards) {}

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  PassTotals Pass() {
    PassTotals t;
    for (size_t i = 0; i < inputs_.size(); ++i) {
      Op(static_cast<int>(i), &t);
      Snapshot(static_cast<int>(i), &t);
      Instrumentation(static_cast<int>(i), &t);
    }
    Batch(&t);
    return t;
  }

 private:
  ocdx::EngineContext Context(EngineStats* stats) const {
    ocdx::EngineContext ctx;
    ctx.shards = shards_;
    ctx.stats = stats;
    return ctx;
  }

  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::fprintf(stderr, "layers: %s\n", what.c_str());
  }

  // A layer call that fails for any reason but a budget trip is an error.
  void CheckStatus(const ocdx::Status& s, const std::string& what) {
    if (!s.ok() && !Governed(s)) Check(false, what + ": " + s.ToString());
  }

  void Op(int i, PassTotals* t) {
    int op = -1;
    {
      ScopedSpan span("op", -1, i);
      op = span.index();
      if (!OpLayers(i, op, t)) return;
    }
    uint64_t children = 0;
    for (size_t s = op + 1; s < spans.size(); ++s) {
      if (spans[s].parent != op) continue;
      uint64_t d = Duration(static_cast<int>(s));
      children += d;
      const std::string_view name = spans[s].name;
      if (name == "parse") t->parse_ns += d;
      if (name == "chase") t->chase_ns += d;
      if (name == "certain") t->certain_ns += d;
      if (name == "render") t->render_ns += d;
      if (name == "semantics") t->semantics_ns += d;
      if (name == "compose") t->compose_ns += d;
    }
    t->parse_bytes += inputs_[i].text.size();
    t->op_ns += Duration(op);
    t->op_self_ns += Duration(op) - children;
  }

  // The layer calls of one op, each in a child span of `op`. False when
  // the file does not parse.
  bool OpLayers(int i, int op, PassTotals* t) {
    const Input& in = inputs_[i];
    ocdx::Universe universe;
    std::optional<ocdx::Result<ocdx::DxScenario>> parsed;
    {
      ScopedSpan span("parse", op, i);
      parsed.emplace(ocdx::ParseDxScenario(in.text, &universe));
    }
    if (!parsed->ok()) {
      Check(false, in.path + ": " + parsed->status().ToString());
      return false;
    }
    const ocdx::DxScenario& sc = parsed->value();
    ocdx::EngineContext ctx = Context(&t->stats);
    // The scenario's budget block tightens the run, as in RunDxCommand.
    ocdx::Budget scenario_budget;
    for (const auto& [key, value] : sc.budget_settings) {
      ocdx::SetBudgetField(&scenario_budget, key, value);
    }
    ctx.budget.Tighten(scenario_budget);

    ocdx::PrechasedStore store;
    {
      ScopedSpan span("chase", op, i);
      for (const ocdx::DxMappingDecl& m : sc.mappings) {
        for (const ocdx::DxInstanceDecl& inst : sc.instances) {
          if (!ocdx::DxChasePairOk(m, inst)) continue;
          ocdx::Result<ocdx::CanonicalSolution> csol =
              ocdx::Chase(m.mapping, inst.plain, &universe, ctx);
          CheckStatus(csol.status(), in.path + " chase " + m.name);
          if (!csol.ok()) continue;
          for (const auto& [name, rel] : csol.value().annotated.relations()) {
            t->tuples += rel.size();
          }
          store.Put(m.name, inst.name, std::move(csol).value());
        }
      }
    }
    {
      ScopedSpan span("certain", op, i);
      uint64_t enum_before = t->stats.member_enum_ns;
      for (const auto& [key, csol] : store.entries()) {
        const ocdx::DxMappingDecl* m = sc.FindMapping(key.first);
        auto engine = ocdx::CertainAnswerEngine::FromCanonical(
            m->mapping, ocdx::CanonicalSolution(csol), &universe, ctx);
        for (const ocdx::DxQuery& q : sc.queries) {
          bool over_target = true;
          for (const std::string& rel : ocdx::RelationsIn(q.formula)) {
            over_target = over_target && m->mapping.target().Contains(rel);
          }
          if (!over_target) continue;
          ocdx::CertainVerdict verdict;
          ocdx::Status status;
          if (q.vars.empty()) {
            auto v = engine.IsCertainBoolean(q.formula);
            status = v.status();
            if (v.ok()) verdict = v.value();
          } else {
            status =
                engine.CertainAnswers(q.formula, q.vars, &verdict).status();
          }
          CheckStatus(status, in.path + " certain " + q.name);
          t->members += verdict.members_checked;
        }
      }
      t->enum_ns += t->stats.member_enum_ns - enum_before;
    }
    std::vector<std::string> commands = ocdx::ApplicableDxCommands(sc);
    auto command = [&](const char* layer, const char* cmd) {
      if (std::find(commands.begin(), commands.end(), cmd) == commands.end()) {
        return;
      }
      ScopedSpan span(layer, op, i);
      ocdx::DxDriverOptions options;
      options.engine = ctx;
      options.prechased = &store;
      CheckStatus(ocdx::RunDxCommand(sc, cmd, &universe, options).status(),
                  in.path + " " + cmd);
    };
    command("render", "chase");
    command("semantics", "membership");
    command("compose", "compose");
    return true;
  }

  void Snapshot(int i, PassTotals* t) {
    const Input& in = inputs_[i];
    ocdx::EngineContext ctx = Context(nullptr);
    std::optional<ocdx::Result<std::string>> bytes;
    {
      ScopedSpan span("snap-write", -1, i);
      auto bundle = ocdx::snap::BuildSnapshotBundle(in.path, in.text, ctx);
      bytes.emplace(bundle.ok()
                        ? ocdx::snap::SerializeSnapshot(bundle.value())
                        : ocdx::Result<std::string>(bundle.status()));
      t->snap_write_ns += span.ns();
    }
    if (!bytes->ok()) {
      Check(false, in.path + " snapshot: " + bytes->status().ToString());
      return;
    }
    const std::string& b = bytes->value();
    t->snap_bytes += b.size();
    std::optional<ocdx::Result<ocdx::snap::SnapshotBundle>> loaded;
    {
      ScopedSpan span("snap-load", -1, i);
      loaded.emplace(ocdx::snap::ParseSnapshot(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(b.data()), b.size())));
      t->snap_load_ns += span.ns();
    }
    if (!loaded->ok()) {
      Check(false, in.path + " snapshot load: " + loaded->status().ToString());
      return;
    }
    ocdx::DxDriverOptions options;
    options.engine = ctx;
    std::optional<ocdx::Result<std::string>> out;
    {
      ScopedSpan span("snap-warm-run", -1, i);
      out.emplace(ocdx::snap::RunSnapshotCommand(loaded->value(), "all",
                                                 options));
      t->warm_run_ns += span.ns();
    }
    Check(out->ok() && out->value() == in.ref, in.path + ": warm run differs");
  }

  // The in-process `all` op with the engine's own instrumentation
  // detached and attached; which runs first alternates from call to call.
  void Instrumentation(int i, PassTotals* t) {
    const Input& in = inputs_[i];
    bool attached_first = (calls_++ & 1) != 0;
    for (int leg = 0; leg < 2; ++leg) {
      bool attached = (leg == 0) == attached_first;
      EngineStats stats;
      ocdx::obs::TraceSink sink;
      ocdx::DxDriverOptions options;
      options.engine = Context(attached ? &stats : nullptr);
      if (attached) options.engine.trace = &sink;
      ScopedSpan span(attached ? "all-attached" : "all-detached", -1, i);
      auto out = ocdx::RunDxFile(in.path, in.text, "all", options);
      (attached ? t->attached_ns : t->detached_ns) += span.ns();
      Check(out.ok() && out.value() == in.ref,
            in.path + ": in-process run differs");
    }
  }

  void Batch(PassTotals* t) {
    std::vector<std::string> paths;
    std::string expected;
    for (const Input& in : inputs_) {
      paths.push_back(in.path);
      expected += "==> " + in.path + " <==\n" + in.ref;
    }
    ocdx::BatchOptions options;
    options.workers = kBatchWorkers;
    options.engine = Context(nullptr);
    ScopedSpan span("batch", -1, -1);
    auto report = ocdx::RunDxBatch(paths, options);
    t->batch_wall_ns += span.ns();
    if (!report.ok()) {
      Check(false, "batch: " + report.status().ToString());
      return;
    }
    for (const ocdx::BatchFileReport& f : report.value().files) {
      t->batch_job_ns += static_cast<uint64_t>(f.millis * 1e6);
    }
    t->batch_jobs += report.value().total_jobs;
    t->batch_parse_ns += report.value().stats.parse_ns;
    t->batch_stats_job_ns += report.value().stats.job_ns;
    Check(ocdx::RenderBatchOutput(report.value()) == expected,
          "batch output differs");
  }

  const std::vector<Input>& inputs_;
  size_t shards_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  unsigned calls_ = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d}}",
                 i ? "," : "", s.name, (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.op, s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

bool Flag(std::string_view arg, std::string_view name, std::string* out) {
  if (arg.size() <= name.size() + 3 || arg.substr(0, 2) != "--" ||
      arg.substr(2, name.size()) != name || arg[name.size() + 2] != '=') {
    return false;
  }
  *out = std::string(arg.substr(name.size() + 3));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string seconds_flag, shards_flag = "1", refs, trace_out;
  std::vector<Input> inputs;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (Flag(arg, "seconds", &seconds_flag) ||
        Flag(arg, "shards", &shards_flag) || Flag(arg, "refs", &refs) ||
        Flag(arg, "trace-out", &trace_out)) {
      continue;
    }
    inputs.push_back(Input{std::string(arg), "", ""});
  }
  const double seconds = std::atof(seconds_flag.c_str());
  const long shards = std::atol(shards_flag.c_str());
  if (inputs.empty() || seconds <= 0 || shards < 1 || refs.empty() ||
      trace_out.empty()) {
    std::fputs("usage: layers --seconds=S --shards=N --refs=DIR "
               "--trace-out=FILE FILE.dx...\n", stderr);
    return 2;
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    std::string ref_path = refs + "/" + std::to_string(i) + ".ref";
    if (!ReadFile(inputs[i].path, &inputs[i].text) ||
        !ReadFile(ref_path, &inputs[i].ref)) {
      std::fprintf(stderr, "layers: cannot read '%s' or '%s'\n",
                   inputs[i].path.c_str(), ref_path.c_str());
      return 1;
    }
  }

  Replay replay(inputs, static_cast<size_t>(shards));
  std::map<std::string, std::vector<double>> per_pass;
  const uint64_t start = NowNs();
  size_t passes = 0;
  while (passes < 3 || (NowNs() - start) / 1e9 < seconds) {
    for (const auto& [name, value] : Metrics(replay.Pass(), inputs.size())) {
      per_pass[name].push_back(value);
    }
    ++passes;
  }
  if (!WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "layers: cannot write '%s'\n", trace_out.c_str());
    return 1;
  }
  std::printf("{\"passes\":%zu,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{",
              passes, replay.attempted(), replay.failed());
  const char* sep = "";
  for (const auto& [name, values] : per_pass) {
    std::printf("%s\"%s\":%.17g", sep, name.c_str(), Median(values));
    sep = ",";
  }
  std::printf("}}\n");
  return 0;
}
