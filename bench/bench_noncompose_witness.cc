// E9 (Proposition 6): the witness family showing annotated FO STD
// mappings are not closed under composition. The composition of the N/C
// mappings relates S0 = {R={0}, P={1..n}} to the instances pairing all of
// {1..n} with one common unknown value; the bench sweeps n and measures
// deciding membership of the canonical member and of a near-miss.

#include <benchmark/benchmark.h>

#include "compose/compose.h"
#include "logic/engine_context.h"
#include "workloads/scenarios.h"

namespace ocdx {
namespace {

void RunProp6(benchmark::State& state, bool positive_case) {
  const size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Result<Prop6Scenario> sc =
      BuildProp6Scenario(n, Ann::kClosed, Ann::kClosed, &u);
  Instance w;
  for (size_t i = 1; i <= n; ++i) {
    w.Add("Dr", {u.IntConst(static_cast<int64_t>(i)), u.Const("c")});
  }
  if (!positive_case) {
    // Near-miss: a second value for one of the rows.
    w.Add("Dr", {u.IntConst(1), u.Const("d")});
  }
  bool member = false;
  uint64_t intermediates = 0;
  // Production configuration: a job-scoped plan table across iterations.
  const EngineContext ctx =
      EngineContext::ForMode(JoinEngineMode::kIndexed).EnsureCache();
  for (auto _ : state) {
    Result<ComposeVerdict> v = InComposition(
        sc.value().sigma, sc.value().delta, sc.value().source, w, &u, {}, ctx);
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    member = v.value().member;
    intermediates = v.value().intermediates_checked;
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["member"] = member ? 1 : 0;
  state.counters["intermediates"] = static_cast<double>(intermediates);
}

void BM_Prop6Member(benchmark::State& state) {
  RunProp6(state, true);
  state.SetLabel("E9: Prop 6 family, canonical member (accept)");
}
void BM_Prop6NonMember(benchmark::State& state) {
  RunProp6(state, false);
  state.SetLabel("E9: Prop 6 family, near-miss (exhaustive reject)");
}
BENCHMARK(BM_Prop6Member)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Prop6NonMember)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
