// E1 (Lemma 1 / Theorem 1): the annotation lattice.
//
// Changing closed annotations to open only enlarges the semantics
// (Theorem 1.3), with the classical OWA and CWA semantics at the
// extremes (items 1-2). The series measure solution-space membership of
// the *same* target under the three readings; the member-flags exhibit
// the inclusion chain cl <= mixed <= op.

#include <benchmark/benchmark.h>

#include "mapping/rule_parser.h"
#include "logic/engine_context.h"
#include "semantics/membership.h"

namespace ocdx {
namespace {

void RunLattice(benchmark::State& state, const char* rules,
                const char* label, bool superset_target) {
  const size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Schema src, tgt;
  src.Add("E", 2);
  tgt.Add("R", 2);
  Result<Mapping> m = ParseMapping(rules, src, tgt, &u);
  Instance s;
  for (size_t i = 0; i < n; ++i) {
    s.Add("E", {u.IntConst(static_cast<int64_t>(i)), u.Const("c")});
  }
  // Target: one value per source row, plus (optionally) an extra row that
  // only open annotations tolerate.
  Instance t;
  for (size_t i = 0; i < n; ++i) {
    t.Add("R", {u.IntConst(static_cast<int64_t>(i)), u.Const("v")});
  }
  if (superset_target) {
    t.Add("R", {u.IntConst(0), u.Const("w")});
  }
  bool member = false;
  // Production configuration: a job-scoped plan table, as the driver/CLI
  // attach per command run.
  const EngineContext ctx =
      EngineContext::ForMode(JoinEngineMode::kIndexed).EnsureCache();
  for (auto _ : state) {
    Result<MembershipResult> r = InSolutionSpace(m.value(), s, t, &u, {}, ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    member = r.value().member;
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["member"] = member ? 1 : 0;
  state.SetLabel(label);
}

void BM_LatticeClosed(benchmark::State& state) {
  RunLattice(state, "R(x^cl, z^cl) :- E(x, y);",
             "E1: all-closed (CWA extreme, Thm 1.1) rejects the extra row",
             true);
}
void BM_LatticeMixed(benchmark::State& state) {
  RunLattice(state, "R(x^cl, z^op) :- E(x, y);",
             "E1: mixed accepts replication on the open attribute", true);
}
void BM_LatticeOpen(benchmark::State& state) {
  RunLattice(state, "R(x^op, z^op) :- E(x, y);",
             "E1: all-open (OWA extreme, Thm 1.2)", true);
}
BENCHMARK(BM_LatticeClosed)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LatticeMixed)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LatticeOpen)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
