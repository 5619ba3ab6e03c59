// Snapshot warm-start economics: what does `ocdxd --preload` actually
// buy over a cold parse-and-chase?
//
//   BM_ColdBuild_*   parse + chase every applicable pair
//                    (snap::BuildSnapshotBundle — the work a snapshot
//                    write does once, and a cold server does per file)
//   BM_WarmLoad_*    reconstitute the same state from snapshot bytes
//                    (snap::ParseSnapshot — validation + bulk loads)
//
// The headline is the LargestCorpus pair: the biggest scenario in
// tests/corpus (bulk_import.dx, ~24k bulk facts), where a cold run pays
// the full fact parse and the warm load streams the same rows back from
// the snapshot's binary instances section. The warm load must come in
// at least an order of magnitude under the cold build (the acceptance
// bar for this PR — the ratio is visible in BENCH_pr8.json as
// cold_build/warm_load real_time). The Synthetic pair covers the
// chase-heavy shape (triggers dominate facts), and the Corpus pair
// sweeps every corpus file to track the load-overhead floor on small,
// parse-bound scenarios.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "snap/snapshot.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::span<const uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// A chase-heavy scenario: a dense 14-node digraph copied through three
// STDs whose 2-atom bodies join E with itself, so trigger count scales
// with paths (~14^3 per join STD), each firing minting fresh nulls —
// while the text stays a few KB. This is the shape snapshots exist for:
// chase time dominates parse time by orders of magnitude.
std::string SyntheticHeavyScenario() {
  std::ostringstream dx;
  dx << "scenario 'snapshot_load_bench';\n"
     << "schema src { E(a, b); }\n"
     << "schema tgt { F(a, b, c); G(a, b, c); H(a, b); }\n"
     << "mapping M from src to tgt [default op] {\n"
     << "  F(x^op, z^op, u^op) :- E(x, y) & E(y, z);\n"
     << "  G(y^op, w^op, v^op) :- E(x, y) & E(x, z);\n"
     << "  H(x^op, u^op) :- E(x, y);\n"
     << "}\n"
     << "instance S over src {\n";
  constexpr int kNodes = 14;
  for (int i = 0; i < kNodes; ++i) {
    for (int j = 0; j < kNodes; ++j) {
      if (i == j) continue;
      dx << "  E('n" << i << "', 'n" << j << "');\n";
    }
  }
  dx << "}\n";
  return dx.str();
}

std::string CorpusConcatenation(std::vector<std::string>* files) {
  for (const auto& entry : fs::directory_iterator(OCDX_CORPUS_DIR)) {
    if (entry.path().extension() == ".dx") files->push_back(entry.path());
  }
  std::sort(files->begin(), files->end());
  return files->empty() ? "" : files->front();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void RunColdBuild(benchmark::State& state, const std::string& name,
                  const std::string& src) {
  size_t pairs = 0;
  for (auto _ : state) {
    Result<snap::SnapshotBundle> bundle =
        snap::BuildSnapshotBundle(name, src);
    if (!bundle.ok()) {
      state.SkipWithError(bundle.status().ToString().c_str());
      return;
    }
    pairs = bundle.value().prechased.size();
    benchmark::DoNotOptimize(bundle);
  }
  state.counters["prechased_pairs"] = static_cast<double>(pairs);
  state.counters["dx_bytes"] = static_cast<double>(src.size());
}

void RunWarmLoad(benchmark::State& state, const std::string& name,
                 const std::string& src) {
  Result<snap::SnapshotBundle> bundle = snap::BuildSnapshotBundle(name, src);
  if (!bundle.ok()) {
    state.SkipWithError(bundle.status().ToString().c_str());
    return;
  }
  Result<std::string> bytes = snap::SerializeSnapshot(bundle.value());
  if (!bytes.ok()) {
    state.SkipWithError(bytes.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<snap::SnapshotBundle> loaded =
        snap::ParseSnapshot(AsBytes(bytes.value()));
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(loaded);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes.value().size());
}

void BM_ColdBuild_Synthetic(benchmark::State& state) {
  RunColdBuild(state, "synthetic.dx", SyntheticHeavyScenario());
  state.SetLabel("cold: parse + chase, join-dense synthetic scenario");
}
BENCHMARK(BM_ColdBuild_Synthetic)->Unit(benchmark::kMillisecond);

void BM_WarmLoad_Synthetic(benchmark::State& state) {
  RunWarmLoad(state, "synthetic.dx", SyntheticHeavyScenario());
  state.SetLabel("warm: snapshot load of the same chased state");
}
BENCHMARK(BM_WarmLoad_Synthetic)->Unit(benchmark::kMillisecond);

// The acceptance headline: the largest corpus scenario by byte size
// (tests/corpus/bulk_import.dx — ~24k bulk facts no rule touches plus a
// small chase). Cold is parse-bound; warm reads the facts back from the
// binary instances section with an elided structure-only parse, and the
// cold/warm real_time ratio here is the >=10x warm-start bar.
std::string LargestCorpusFile() {
  std::string best;
  uintmax_t best_size = 0;
  for (const auto& entry : fs::directory_iterator(OCDX_CORPUS_DIR)) {
    if (entry.path().extension() != ".dx") continue;
    uintmax_t size = fs::file_size(entry.path());
    if (size > best_size) {
      best_size = size;
      best = entry.path();
    }
  }
  return best;
}

void BM_ColdBuild_LargestCorpus(benchmark::State& state) {
  const std::string file = LargestCorpusFile();
  if (file.empty()) {
    state.SkipWithError("no corpus files under OCDX_CORPUS_DIR");
    return;
  }
  RunColdBuild(state, file, ReadFile(file));
  state.SetLabel("cold: parse + chase, largest corpus scenario");
}
BENCHMARK(BM_ColdBuild_LargestCorpus)->Unit(benchmark::kMillisecond);

void BM_WarmLoad_LargestCorpus(benchmark::State& state) {
  const std::string file = LargestCorpusFile();
  if (file.empty()) {
    state.SkipWithError("no corpus files under OCDX_CORPUS_DIR");
    return;
  }
  RunWarmLoad(state, file, ReadFile(file));
  state.SetLabel("warm: snapshot load of the same imported state");
}
BENCHMARK(BM_WarmLoad_LargestCorpus)->Unit(benchmark::kMillisecond);

// The full corpus, one bundle per file per iteration: real scenarios,
// parse-bound (small instances), so this tracks load overhead floor.
void BM_ColdBuild_Corpus(benchmark::State& state) {
  std::vector<std::string> files;
  CorpusConcatenation(&files);
  if (files.empty()) {
    state.SkipWithError("no corpus files under OCDX_CORPUS_DIR");
    return;
  }
  std::vector<std::string> sources;
  for (const std::string& f : files) sources.push_back(ReadFile(f));
  for (auto _ : state) {
    for (size_t i = 0; i < files.size(); ++i) {
      Result<snap::SnapshotBundle> bundle =
          snap::BuildSnapshotBundle(files[i], sources[i]);
      if (!bundle.ok()) {
        state.SkipWithError(bundle.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(bundle);
    }
  }
  state.counters["files"] = static_cast<double>(files.size());
  state.SetLabel("cold: parse + chase, whole corpus");
}
BENCHMARK(BM_ColdBuild_Corpus)->Unit(benchmark::kMillisecond);

void BM_WarmLoad_Corpus(benchmark::State& state) {
  std::vector<std::string> files;
  CorpusConcatenation(&files);
  if (files.empty()) {
    state.SkipWithError("no corpus files under OCDX_CORPUS_DIR");
    return;
  }
  std::vector<std::string> snaps;
  for (const std::string& f : files) {
    Result<snap::SnapshotBundle> bundle =
        snap::BuildSnapshotBundle(f, ReadFile(f));
    if (!bundle.ok()) {
      state.SkipWithError(bundle.status().ToString().c_str());
      return;
    }
    Result<std::string> bytes = snap::SerializeSnapshot(bundle.value());
    if (!bytes.ok()) {
      state.SkipWithError(bytes.status().ToString().c_str());
      return;
    }
    snaps.push_back(bytes.value());
  }
  for (auto _ : state) {
    for (const std::string& bytes : snaps) {
      Result<snap::SnapshotBundle> loaded = snap::ParseSnapshot(AsBytes(bytes));
      if (!loaded.ok()) {
        state.SkipWithError(loaded.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(loaded);
    }
  }
  state.counters["files"] = static_cast<double>(snaps.size());
  state.SetLabel("warm: snapshot load, whole corpus");
}
BENCHMARK(BM_WarmLoad_Corpus)->Unit(benchmark::kMillisecond);

// End-to-end warm command: load once, serve `all` repeatedly — the
// ocdxd --preload steady state (overlay + evaluate, no parse, no chase).
void BM_WarmServe_Synthetic(benchmark::State& state) {
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle("synthetic.dx", SyntheticHeavyScenario());
  if (!bundle.ok()) {
    state.SkipWithError(bundle.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<std::string> out =
        snap::RunSnapshotCommand(bundle.value(), "chase");
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel("warm serve: chase command from preloaded bundle");
}
BENCHMARK(BM_WarmServe_Synthetic)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
