// E2 (Theorem 2 + Corollary 1): solution-space recognition.
//
// PTIME for all-open annotations vs NP-complete as soon as one closed
// position exists — witnessed by the tripartite-matching reduction. The
// series show: (a) the PTIME all-open path scaling smoothly, (b) the NP
// path on yes-instances (a witness valuation is found), and (c) the NP
// path on no-instances (the whole search space must be refuted — the
// exponential wall).

#include <benchmark/benchmark.h>

#include "logic/engine_context.h"
#include "semantics/membership.h"
#include "util/rng.h"
#include "workloads/tripartite.h"

namespace ocdx {
namespace {

void RunMembership(benchmark::State& state, bool all_open, bool want_match) {
  // Production configuration: a job-scoped plan table carried across
  // iterations, as the driver/CLI attach per command run.
  const EngineContext ctx = EngineContext().EnsureCache();
  const size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Rng rng(2024 + n);
  TripartiteInstance inst;
  if (want_match) {
    inst = TripartiteWithMatching(n, n, &rng);
  } else {
    // Triples that all reuse b0: no perfect matching for n >= 2.
    inst.n = n;
    for (uint32_t i = 0; i < n; ++i) {
      inst.triples.push_back({0, i, i});
      inst.triples.push_back({0, i, (i + 1) % static_cast<uint32_t>(n)});
    }
  }
  Result<TripartiteReduction> red = BuildTripartiteReduction(inst, &u);
  if (!red.ok()) {
    state.SkipWithError(red.status().ToString().c_str());
    return;
  }
  Mapping mapping = all_open
                        ? red.value().mapping.WithUniformAnnotation(Ann::kOpen)
                        : red.value().mapping;
  bool member = false;
  for (auto _ : state) {
    Result<MembershipResult> r = InSolutionSpace(
        mapping, red.value().source, red.value().target, &u, {}, ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    member = r.value().member;
    benchmark::DoNotOptimize(r);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["member"] = member ? 1 : 0;
}

void BM_MembershipAllOpenPtime(benchmark::State& state) {
  RunMembership(state, /*all_open=*/true, /*want_match=*/true);
  state.SetLabel("E2: all-open PTIME path (Thm 2.1)");
}
BENCHMARK(BM_MembershipAllOpenPtime)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_MembershipNpYes(benchmark::State& state) {
  RunMembership(state, /*all_open=*/false, /*want_match=*/true);
  state.SetLabel("E2: #cl=1 NP path, matching exists (accept)");
}
BENCHMARK(BM_MembershipNpYes)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_MembershipNpNo(benchmark::State& state) {
  RunMembership(state, /*all_open=*/false, /*want_match=*/false);
  state.SetLabel("E2: #cl=1 NP path, no matching (exhaustive reject)");
}
BENCHMARK(BM_MembershipNpNo)->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
