// L7 of the benchmark ladder: canonical rendering on its own
// (text/canonical_render.h). Inputs are chased once, outside the timed
// loop; every iteration renders into a fresh output string, the way a
// `chase` or `certain` section does.
//
//   BM_RenderExchange        CanonicalNullNames + RenderAnnotatedInstance
//                            over the canonical solution of an
//                            exchange-shaped scenario: a 600-node,
//                            2160-edge graph chased through an
//                            existential copy rule, a 2-atom join, a
//                            label copy and a negated-body guard
//                            (~290 KB of text)
//   BM_RenderBulkImport      the same over every chase pair of
//                            tests/corpus/bulk_import.dx
//   BM_RenderCertainAnswers  RenderRelation over the certain answers of
//                            `Hop(x, w)` on the exchange-shaped solution
//
// Each row reports bytes/s of rendered text and the text size.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "certain/certain.h"
#include "chase/canonical.h"
#include "logic/parser.h"
#include "text/canonical_render.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"
#include "util/rng.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The exchange workload's shape: 600 nodes, every node but a tenth
// (the sinks) with out-degree 4, one of four labels per node.
std::string ExchangeScenarioText() {
  constexpr size_t kNodes = 600;
  constexpr size_t kDegree = 4;
  Rng rng(20080607);
  auto node = [](size_t i) { return "'v" + std::to_string(i) + "'"; };
  std::string out =
      "schema src { E(a, b); Label(n, l); }\n"
      "schema tgt { T(a, b, z); Hop(a, c); Lab(n, l); Sink(n); }\n"
      "mapping M from src to tgt {\n"
      "  T(x^cl, y^cl, z^op) :- E(x, y);\n"
      "  Hop(x^cl, w^cl) :- E(x, y) & E(y, w);\n"
      "  Lab(n^cl, l^cl) :- Label(n, l);\n"
      "  Sink(n^cl) :- Label(n, l) & !exists y. E(n, y);\n"
      "}\n"
      "instance S over src {\n";
  for (size_t x = 0; x < kNodes; ++x) {
    if (x % 10 == 0) continue;  // a sink
    for (size_t d = 0; d < kDegree; ++d) {
      out += "  E(" + node(x) + ", " + node(rng.Below(kNodes)) + ");\n";
    }
  }
  for (size_t x = 0; x < kNodes; ++x) {
    out += "  Label(" + node(x) + ", 'c" + std::to_string(rng.Below(4)) +
           "');\n";
  }
  return out + "}\n";
}

// A parsed scenario and the canonical solutions of its chase pairs,
// minted in one universe that outlives the benchmark loop.
struct Chased {
  Universe universe;
  DxScenario scenario;
  std::vector<CanonicalSolution> solutions;
};

std::unique_ptr<Chased> ParseAndChase(const std::string& text,
                                      benchmark::State& state) {
  auto out = std::make_unique<Chased>();
  Result<DxScenario> parsed = ParseDxScenario(text, &out->universe);
  if (!parsed.ok()) {
    state.SkipWithError(parsed.status().ToString().c_str());
    return nullptr;
  }
  out->scenario = std::move(parsed).value();
  for (const DxMappingDecl& m : out->scenario.mappings) {
    for (const DxInstanceDecl& inst : out->scenario.instances) {
      if (!DxChasePairOk(m, inst)) continue;
      Result<CanonicalSolution> csol =
          Chase(m.mapping, inst.plain, &out->universe);
      if (!csol.ok()) {
        state.SkipWithError(csol.status().ToString().c_str());
        return nullptr;
      }
      out->solutions.push_back(std::move(csol).value());
    }
  }
  return out;
}

void RenderSolutions(benchmark::State& state, const std::string& text) {
  std::unique_ptr<Chased> chased = ParseAndChase(text, state);
  if (chased == nullptr) return;
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out;
    for (const CanonicalSolution& csol : chased->solutions) {
      RenderAnnotatedInstance(
          csol.annotated, chased->universe,
          CanonicalNullNames(csol.annotated, chased->universe), "  ", &out);
    }
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  state.counters["text_bytes"] = static_cast<double>(bytes);
}

void BM_RenderExchange(benchmark::State& state) {
  RenderSolutions(state, ExchangeScenarioText());
}
BENCHMARK(BM_RenderExchange)->Unit(benchmark::kMillisecond);

void BM_RenderBulkImport(benchmark::State& state) {
  RenderSolutions(state,
                  ReadFile(fs::path(OCDX_CORPUS_DIR) / "bulk_import.dx"));
}
BENCHMARK(BM_RenderBulkImport)->Unit(benchmark::kMillisecond);

void BM_RenderCertainAnswers(benchmark::State& state) {
  std::unique_ptr<Chased> chased =
      ParseAndChase(ExchangeScenarioText(), state);
  if (chased == nullptr) return;
  Result<FormulaPtr> q = ParseFormula("Hop(x, w)", &chased->universe);
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  CertainAnswerEngine engine = CertainAnswerEngine::FromCanonical(
      chased->scenario.mappings[0].mapping, chased->solutions[0],
      &chased->universe);
  Result<Relation> answers = engine.CertainAnswers(q.value(), {"x", "w"});
  if (!answers.ok()) {
    state.SkipWithError(answers.status().ToString().c_str());
    return;
  }
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out;
    RenderRelation(answers.value(), chased->universe, &out);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  state.counters["text_bytes"] = static_cast<double>(bytes);
  state.counters["answers"] = static_cast<double>(answers.value().size());
}
BENCHMARK(BM_RenderCertainAnswers)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
