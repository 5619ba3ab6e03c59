// ocdxd — a minimal line-protocol server over `.dx` scenario files.
//
//   ocdxd serve [--engine=indexed|generic]
//               [--chase-max-triggers=N] [--max-members=N]
//               [--deadline-ms=N] [--shards=N]
//               [--preload=SNAP.snap ...]
//
// --preload (repeatable) loads snapshots (snap/snapshot.h) at startup:
// each is parsed and chased once, under the server's engine and budget
// flags, into a frozen scenario. A request whose <file-path> names either
// a preloaded snapshot file or the `.dx` path recorded inside one is
// served warm from it — no re-parse, and no re-chase of a pair whose
// stored solution fits the request's budget — with a response
// byte-identical to the cold path. Unmatched paths fall through to the
// usual fresh-parse job. A snapshot that fails to load aborts startup
// with exit 1 (a server silently missing its warm set would be a latency
// regression, not a convenience).
//
// Protocol (stdin/stdout, one request per line — run it under socat or
// (x)inetd for network service; keeping the transport external keeps the
// binary dependency-free):
//
//   request:   <command> <file-path> [key=value ...]
//              where <command> is any ocdx driver command
//              (chase | certain | classify | membership | compose | all),
//              or the single token "stats": respond with the process-
//              lifetime metrics aggregate (obs/stats_registry.h) as one
//              line of JSON — requests served / ok / governed-per-cause /
//              failed counts, plan-cache hit rate, shard fan-out totals,
//              uptime, and the merged EngineStats of every command
//              request served so far ("stats" requests themselves are
//              not counted), plus the startup --preload loads
//              (snap_load_ns; they count as no request)
//              and the optional trailing fields tighten the request's
//              resource budget: deadline-ms, chase-max-triggers,
//              max-members, hom-max-steps, repa-max-steps — or set its
//              intra-job fan-out width: shards=N (1..64; responses are
//              byte-identical for every width). An unknown field fails
//              the request (err line), never the server.
//   response:  "ok <nbytes>\n" followed by exactly <nbytes> bytes of
//              canonical command output ("governed <nbytes>\n" instead of
//              "ok" when the run completed but tripped a budget or
//              deadline — the trip renders inline in the payload), or
//              "err <message>\n"
//   "quit" (or EOF) ends the session.
//
// Shutdown: SIGTERM (and SIGINT) drain gracefully — the in-flight
// request observes the cancellation flag through its budget and returns
// a governed response, then the server exits 0 without reading further
// requests. The handler is installed without SA_RESTART so a blocking
// read wakes up too.
//
// Every cold request executes as an isolated job — fresh parse, fresh
// Universe, explicit EngineContext (exec/batch_runner.h's RunDxFile) —
// and every warm request runs on a private overlay of its frozen bundle,
// the path every `ocdx batch` job takes (exec/frozen_scenario.h). Either
// way responses are byte-identical to `ocdx <command> <file>` output and
// the server stays reentrant by construction.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/batch_runner.h"
#include "logic/budget.h"
#include "logic/engine_config.h"
#include "logic/engine_context.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "snap/snapshot.h"
#include "text/dx_driver.h"
#include "util/fault.h"
#include "util/str.h"

namespace {

constexpr char kUsage[] =
    "usage: ocdxd serve [--engine=indexed|generic]\n"
    "                   [--chase-max-triggers=N] [--max-members=N]\n"
    "                   [--deadline-ms=N] [--shards=N]\n"
    "                   [--preload=SNAP.snap ...]\n";

// Two shutdown flags: the sig_atomic_t is the only thing a handler may
// portably touch and gates the accept loop; the atomic<bool> is what the
// engine polls (Budget::cancel). Storing a lock-free atomic from a
// handler is the accepted practice even though the standard only blesses
// volatile sig_atomic_t.
volatile std::sig_atomic_t g_stop = 0;
std::atomic<bool> g_cancel{false};

void OnTerm(int) {
  g_stop = 1;
  g_cancel.store(true, std::memory_order_relaxed);
}

// Maps a wire budget field ("deadline-ms") to its Budget key
// ("deadline_ms"). Returns false on an unknown field.
bool SetWireBudgetField(const std::string& name, uint64_t value,
                        ocdx::Budget* budget) {
  std::string key = name;
  for (char& c : key) {
    if (c == '-') c = '_';
  }
  return ocdx::SetBudgetField(budget, key, value);
}

// Intra-job fan-out width (EngineContext::shards): a knob on the
// context, not a Budget cap, so it is parsed apart from the budget
// fields. Accepted range matches the ocdx --shards flag.
bool ParseShards(const std::string& text, size_t* out) {
  uint64_t value = 0;
  if (!ocdx::ParseU64(text, &value) || value < 1 || value > 64) return false;
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ocdx;

  fault::InstallFromEnv();

  std::string engine = "indexed";
  std::string chase_max_triggers;
  std::string max_members;
  std::string deadline_ms;
  std::string shards;
  std::string preload;
  std::vector<std::string> preload_paths;
  bool serve = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto flag = [&arg](std::string_view name, std::string* out) {
      if (arg.size() < name.size() + 3 || arg.substr(0, 2) != "--" ||
          arg.substr(2, name.size()) != name || arg[name.size() + 2] != '=') {
        return false;
      }
      *out = std::string(arg.substr(name.size() + 3));
      return true;
    };
    if (arg == "serve") {
      serve = true;
    } else if (flag("preload", &preload)) {
      preload_paths.push_back(preload);  // repeatable
    } else if (flag("engine", &engine) ||
               flag("chase-max-triggers", &chase_max_triggers) ||
               flag("max-members", &max_members) ||
               flag("deadline-ms", &deadline_ms) ||
               flag("shards", &shards)) {
      // handled
    } else {
      std::fprintf(stderr, "ocdxd: unknown argument '%s'\n%s",
                   std::string(arg).c_str(), kUsage);
      return 2;
    }
  }
  if (!serve) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  JoinEngineMode mode;
  if (!ParseJoinEngineMode(engine, &mode)) {
    std::fprintf(stderr, "ocdxd: unknown engine '%s'\n%s", engine.c_str(),
                 kUsage);
    return 2;
  }

  DxDriverOptions options;
  options.engine = EngineContext::ForMode(mode);
  options.engine.budget.cancel = &g_cancel;

  struct ServeFlag {
    const char* name;
    const std::string* value;
  };
  const ServeFlag serve_flags[] = {
      {"chase-max-triggers", &chase_max_triggers},
      {"max-members", &max_members},
      {"deadline-ms", &deadline_ms},
  };
  for (const ServeFlag& sf : serve_flags) {
    if (sf.value->empty()) continue;
    uint64_t value = 0;
    if (!ParseU64(*sf.value, &value) ||
        !SetWireBudgetField(sf.name, value, &options.engine.budget)) {
      std::fprintf(stderr, "ocdxd: bad --%s value '%s'\n%s", sf.name,
                   sf.value->c_str(), kUsage);
      return 2;
    }
  }
  if (!shards.empty() && !ParseShards(shards, &options.engine.shards)) {
    std::fprintf(stderr, "ocdxd: bad --shards value '%s' (want 1..64)\n%s",
                 shards.c_str(), kUsage);
    return 2;
  }

  // Process-lifetime metrics, folded in at request completion only (the
  // registry's mutex is never touched inside evaluation). Startup
  // snapshot loads merge in too, timed but not counted as requests.
  obs::StatsRegistry registry;

  // Warm set: each entry keeps the snapshot's own file path alongside the
  // bundle (whose source_path is the `.dx` path recorded at write time);
  // a request may address the bundle by either name. The bundle is
  // frozen (snap/snapshot.h) and owns one plan table, so plans compile
  // once per *server lifetime*, not per request.
  struct PreloadedEntry {
    std::string snap_path;
    snap::SnapshotBundle bundle;
  };
  std::vector<PreloadedEntry> preloaded;
  preloaded.reserve(preload_paths.size());
  for (const std::string& snap_path : preload_paths) {
    EngineStats load_stats;
    Result<snap::SnapshotBundle> bundle = [&] {
      obs::ScopedSpan span(&load_stats, nullptr, obs::kPhaseSnapLoad);
      EngineContext load = options.engine;
      load.stats = &load_stats;
      return snap::LoadSnapshotFile(snap_path, load);
    }();
    registry.Merge(load_stats);
    if (!bundle.ok()) {
      std::fprintf(stderr, "ocdxd: --preload=%s: %s\n", snap_path.c_str(),
                   bundle.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "ocdxd: preloaded '%s' (%zu prechased pairs)\n",
                 snap_path.c_str(), bundle.value().prechased.size());
    PreloadedEntry entry;
    entry.snap_path = snap_path;
    entry.bundle = std::move(bundle.value());
    preloaded.push_back(std::move(entry));
  }

  // Graceful drain on SIGTERM/SIGINT: no SA_RESTART, so a read blocked in
  // getline returns with EINTR and the loop condition sees g_stop.
  struct sigaction sa = {};
  sa.sa_handler = OnTerm;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  std::string line;
  while (!g_stop && std::getline(std::cin, line)) {
    if (g_stop) break;
    if (line == "quit") break;
    if (line.empty()) continue;
    if (line == "stats") {
      std::string payload = registry.RenderJson() + "\n";
      std::printf("ok %zu\n", payload.size());
      std::fwrite(payload.data(), 1, payload.size(), stdout);
      std::fflush(stdout);
      continue;
    }

    // Tokenize: <command> <file> [key=value ...].
    std::vector<std::string> tokens;
    size_t pos = 0;
    while (pos < line.size()) {
      size_t space = line.find(' ', pos);
      if (space == std::string::npos) space = line.size();
      if (space > pos) tokens.push_back(line.substr(pos, space - pos));
      pos = space + 1;
    }
    if (tokens.size() < 2) {
      std::fputs("err expected '<command> <file> [key=value ...]'\n",
                 stdout);
      std::fflush(stdout);
      continue;
    }
    const std::string& command = tokens[0];
    const std::string& path = tokens[1];

    // Per-request budget: starts from the serve-level defaults, tightened
    // by the request's trailing fields; the scenario's own budget block
    // can tighten further inside RunDxCommand.
    DxDriverOptions request = options;
    bool bad_field = false;
    for (size_t i = 2; i < tokens.size(); ++i) {
      size_t eq = tokens[i].find('=');
      if (eq != std::string::npos && eq != 0 &&
          tokens[i].substr(0, eq) == "shards") {
        if (!ParseShards(tokens[i].substr(eq + 1), &request.engine.shards)) {
          std::printf("err bad shards value '%s' (want 1..64)\n",
                      tokens[i].c_str());
          std::fflush(stdout);
          bad_field = true;
          break;
        }
        continue;
      }
      uint64_t value = 0;
      Budget tightener;
      if (eq == std::string::npos || eq == 0 ||
          !ParseU64(tokens[i].substr(eq + 1), &value) ||
          !SetWireBudgetField(tokens[i].substr(0, eq), value, &tightener)) {
        std::printf("err unknown budget field '%s'\n", tokens[i].c_str());
        std::fflush(stdout);
        bad_field = true;
        break;
      }
      request.engine.budget.Tighten(tightener);
    }
    if (bad_field) continue;

    // Warm path: a preloaded snapshot addressed by its own file name or
    // by the `.dx` path it was built from serves the request without
    // touching the filesystem.
    const PreloadedEntry* warm = nullptr;
    for (const PreloadedEntry& entry : preloaded) {
      if (path == entry.snap_path || path == entry.bundle.source_path) {
        warm = &entry;
        break;
      }
    }

    // Per-request stats sink (one per job, like its Universe), folded
    // into the registry when the response is decided.
    EngineStats request_stats;
    request.engine.stats = &request_stats;

    Status governed;
    Result<std::string> out = [&]() -> Result<std::string> {
      if (warm != nullptr) {
        // Each request runs over its own private overlay of the frozen
        // bundle and probes the bundle's server-lifetime plan table
        // (RunSnapshotCommand). Cold requests get a fresh table from
        // RunDxCommand — a fresh parse mints fresh formula identities, so
        // cross-request sharing could never hit.
        return snap::RunSnapshotCommand(warm->bundle, command, request,
                                        &governed);
      }
      Result<std::string> source = ReadDxFile(path);
      if (!source.ok()) return source.status();
      return RunDxFile(path, source.value(), command, request, &governed);
    }();
    registry.Record(request_stats, governed, /*failed=*/!out.ok());
    if (!out.ok()) {
      // One-line error: newlines in the message would break the framing.
      std::string msg = out.status().ToString();
      for (char& c : msg) {
        if (c == '\n') c = ' ';
      }
      std::printf("err %s\n", msg.c_str());
    } else {
      std::printf("%s %zu\n", governed.ok() ? "ok" : "governed",
                  out.value().size());
      std::fwrite(out.value().data(), 1, out.value().size(), stdout);
    }
    std::fflush(stdout);
  }
  return 0;
}
