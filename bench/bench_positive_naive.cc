// E3 (Proposition 3 / Corollary 3): positive queries are answered by
// PTIME naive evaluation on CSol(S), *independently of the annotation*.
// The three series (all-closed / mixed / all-open) should track each
// other: the annotation does not influence either the answers or the
// cost.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "certain/certain.h"
#include "logic/parser.h"
#include "mapping/rule_parser.h"
#include "util/rng.h"
#include "util/str.h"
#include "workloads/scenarios.h"

namespace ocdx {
namespace {

void RunPositive(benchmark::State& state, Ann uniform, bool keep_mixed) {
  const size_t papers = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ConferenceScenario> sc =
      BuildConferenceScenario(papers, papers / 2, &u);
  Mapping mapping = keep_mixed
                        ? sc.value().mapping
                        : sc.value().mapping.WithUniformAnnotation(uniform);
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(mapping, sc.value().source, &u);
  Result<FormulaPtr> q = ParseFormula(
      "exists a. Submissions(p, a) & exists r. Reviews(p, r)", &u);
  size_t answers = 0;
  for (auto _ : state) {
    Result<Relation> r = engine.value().CertainAnswers(q.value(), {"p"});
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    answers = r.value().size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["papers"] = static_cast<double>(papers);
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_PositiveAllClosed(benchmark::State& state) {
  RunPositive(state, Ann::kClosed, false);
  state.SetLabel("E3: positive query, all-closed (naive eval, Prop 3)");
}
void BM_PositiveMixed(benchmark::State& state) {
  RunPositive(state, Ann::kClosed, true);
  state.SetLabel("E3: positive query, mixed annotation (same engine)");
}
void BM_PositiveAllOpen(benchmark::State& state) {
  RunPositive(state, Ann::kOpen, false);
  state.SetLabel("E3: positive query, all-open (same engine)");
}
BENCHMARK(BM_PositiveAllClosed)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PositiveMixed)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PositiveAllOpen)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The four positive queries of the benchmark's exchange files over a
// chased graph of the same shape: 600 nodes with out-degree 4 (every
// tenth node a sink), 4 colours, and the exchange mapping (an
// existential copy, a 2-hop join, labels, a guarded sink rule). Each
// iteration answers all four queries; the engine's plan table keeps
// their plans and the solution keeps its probe indexes, so an iteration
// times the joins themselves. same_colour_hop is the join whose order
// decides the cost.
void BM_PositiveExchangeQueries(benchmark::State& state) {
  constexpr size_t kNodes = 600;
  Universe u;
  Schema src, tgt;
  src.Add("E", 2);
  src.Add("Label", 2);
  tgt.Add("T", 3);
  tgt.Add("Hop", 2);
  tgt.Add("Lab", 2);
  tgt.Add("Sink", 1);
  Result<Mapping> m = ParseMapping(
      "T(x^cl, y^cl, z^op) :- E(x, y);"
      "Hop(x^cl, w^cl) :- E(x, y) & E(y, w);"
      "Lab(n^cl, l^cl) :- Label(n, l);"
      "Sink(n^cl) :- Label(n, l) & !exists y. E(n, y);",
      src, tgt, &u);
  Rng rng(20080607);
  auto node = [&u](size_t i) { return u.Const(StrCat("n", i)); };
  Instance s;
  for (size_t x = 0; x < kNodes; ++x) {
    s.Add("Label", {node(x), u.Const(StrCat("c", rng.Below(4)))});
    if (x % 10 == 9) continue;
    for (int e = 0; e < 4; ++e) s.Add("E", {node(x), node(rng.Below(kNodes))});
  }
  Result<CertainAnswerEngine> engine =
      CertainAnswerEngine::Create(m.value(), s, &u);
  if (!m.ok() || !engine.ok()) {
    state.SkipWithError("exchange scenario failed to build");
    return;
  }
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      queries = {
          {"Hop(x, w) & Lab(w, 'c0')", {"x", "w"}},
          {"exists w l. Hop(x, w) & Lab(w, l) & Lab(x, l)", {"x"}},
          {"exists z. T(x, y, z) & Lab(y, 'c1')", {"x", "y"}},
          {"exists y z. T(x, y, z) & Sink(y)", {"x"}},
      };
  std::vector<FormulaPtr> formulas;
  for (const auto& [text, order] : queries) {
    formulas.push_back(ParseFormula(text, &u).value());
  }
  size_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      Result<Relation> r =
          engine.value().CertainAnswers(formulas[i], queries[i].second);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      answers += r.value().size();
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.SetLabel("E3: exchange queries over a chased 600-node graph");
}
BENCHMARK(BM_PositiveExchangeQueries)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
