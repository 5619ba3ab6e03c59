// L1 of the benchmark ladder: the `.dx` parser on its own.
//
//   BM_ParseBulkImport        full parse of tests/corpus/bulk_import.dx
//                             (~24k facts: lexer -> interner -> relation
//                             append is the whole cost)
//   BM_ParseCorpus            every tests/corpus/*.dx file, one after the
//                             other, per iteration
//   BM_InternDistinct         the constant interner alone: 32k distinct
//                             short names into a fresh StringInterner
//                             (every call a first sight)
//   BM_InternHits             the same names again into an interner that
//                             holds them all (every call a hit)
//
// The parse rows report bytes/s (source text) and facts/s (instance
// facts in the text), so rows over different files compare. Every
// iteration parses into a fresh Universe, the way a cold job does. The
// intern rows report names/s.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/interner.h"
#include "text/dx_parser.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Instance facts in `src`, counted by a full parse.
int64_t CountFacts(const std::string& src) {
  Universe u;
  Result<DxScenario> s = ParseDxScenario(src, &u);
  if (!s.ok()) return 0;
  int64_t facts = 0;
  for (const DxInstanceDecl& inst : s.value().instances) {
    facts += static_cast<int64_t>(inst.annotated
                                      ? inst.annotated_instance.TotalTuples()
                                      : inst.plain.TotalTuples());
  }
  return facts;
}

void ParseLoop(benchmark::State& state, const std::vector<std::string>& srcs) {
  int64_t bytes = 0;
  int64_t facts = 0;
  for (const std::string& src : srcs) {
    bytes += static_cast<int64_t>(src.size());
    facts += CountFacts(src);
  }
  for (auto _ : state) {
    for (const std::string& src : srcs) {
      Universe u;
      Result<DxScenario> s = ParseDxScenario(src, &u);
      if (!s.ok()) {
        state.SkipWithError(s.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(s.value().instances.size());
    }
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  state.SetItemsProcessed(state.iterations() * facts);
  state.counters["facts"] = static_cast<double>(facts);
}

const std::string& BulkImport() {
  static const std::string src =
      ReadFile(fs::path(OCDX_CORPUS_DIR) / "bulk_import.dx");
  return src;
}

void BM_ParseBulkImport(benchmark::State& state) {
  ParseLoop(state, {BulkImport()});
}
BENCHMARK(BM_ParseBulkImport)->Unit(benchmark::kMillisecond);

void BM_ParseCorpus(benchmark::State& state) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(OCDX_CORPUS_DIR)) {
    if (entry.path().extension() == ".dx") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> srcs;
  for (const fs::path& p : paths) srcs.push_back(ReadFile(p));
  state.counters["files"] = static_cast<double>(srcs.size());
  ParseLoop(state, srcs);
}
BENCHMARK(BM_ParseCorpus)->Unit(benchmark::kMillisecond);

// Short distinct names, like the generated ingest files' constants.
const std::vector<std::string>& InternNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (int i = 0; i < 32768; ++i) {
      out.push_back("n" + std::to_string(i * 7919));
    }
    return out;
  }();
  return names;
}

void BM_InternDistinct(benchmark::State& state) {
  const std::vector<std::string>& names = InternNames();
  for (auto _ : state) {
    StringInterner in;
    for (const std::string& n : names) benchmark::DoNotOptimize(in.Intern(n));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(names.size()));
}
BENCHMARK(BM_InternDistinct)->Unit(benchmark::kMicrosecond);

void BM_InternHits(benchmark::State& state) {
  const std::vector<std::string>& names = InternNames();
  StringInterner in;
  for (const std::string& n : names) in.Intern(n);
  for (auto _ : state) {
    for (const std::string& n : names) benchmark::DoNotOptimize(in.Intern(n));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(names.size()));
}
BENCHMARK(BM_InternHits)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
