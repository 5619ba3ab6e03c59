// E10/E11 (Lemma 4, Lemma 5, Theorem 5): Skolemized STDs.
//
//   E10: the Lemma 4 translation and the cost of SkSTD membership via
//        term-keyed nulls (the F' ~ v correspondence);
//   E11: the Lemma 5 syntactic composition — construction cost and output
//        size as the rule count grows, for both Theorem 5 classes.

#include <benchmark/benchmark.h>

#include "mapping/rule_parser.h"
#include "skolem/compose.h"
#include "skolem/skolem.h"
#include "util/str.h"

namespace ocdx {
namespace {

// A chain-shaped pair of mappings with `rules` parallel rules each.
struct ChainSetup {
  Universe u;
  Schema s0, s1, s2;
  Mapping sigma, delta;

  ChainSetup(size_t rules, Ann ann) {
    std::string sigma_rules, delta_rules;
    for (size_t i = 0; i < rules; ++i) {
      s0.Add(StrCat("A", i), 2);
      s1.Add(StrCat("B", i), 2);
      s2.Add(StrCat("C", i), 2);
      const char* a = AnnToString(ann);
      sigma_rules += StrCat("B", i, "(x^", a, ", f", i, "(x, y)^", a,
                            ") :- A", i, "(x, y);\n");
      delta_rules += StrCat("C", i, "(v^", a, ", g", i, "(w)^", a, ") :- B",
                            i, "(v, w);\n");
    }
    sigma = ParseMapping(sigma_rules, s0, s1, &u, ann, true).value();
    delta = ParseMapping(delta_rules, s1, s2, &u, ann, true).value();
  }
};

void BM_SkolemComposeConstruction(benchmark::State& state) {
  ChainSetup setup(static_cast<size_t>(state.range(0)), Ann::kClosed);
  size_t out_rules = 0;
  for (auto _ : state) {
    Result<ComposeSkolemResult> gamma =
        ComposeSkolem(setup.sigma, setup.delta, &setup.u);
    if (!gamma.ok()) {
      state.SkipWithError(gamma.status().ToString().c_str());
      return;
    }
    out_rules = gamma.value().gamma.stds().size();
    benchmark::DoNotOptimize(gamma);
  }
  state.counters["input_rules"] = static_cast<double>(2 * state.range(0));
  state.counters["output_rules"] = static_cast<double>(out_rules);
  state.SetLabel("E11: Lemma 5 syntactic composition (all-closed class)");
}
BENCHMARK(BM_SkolemComposeConstruction)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_SkolemizeAndMembership(benchmark::State& state) {
  // E10: Lemma 4 translation + term-keyed membership on growing sources.
  const size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Schema src, tgt;
  src.Add("E", 2);
  tgt.Add("R", 2);
  Result<Mapping> plain =
      ParseMapping("R(x^cl, z^op) :- E(x, y);", src, tgt, &u);
  Result<Mapping> sk = Skolemize(plain.value());
  Instance s, t;
  for (size_t i = 0; i < n; ++i) {
    s.Add("E", {u.IntConst(static_cast<int64_t>(i)), u.Const("c")});
    t.Add("R", {u.IntConst(static_cast<int64_t>(i)), u.Const("v")});
  }
  bool member = false;
  // Production configuration: a job-scoped plan table (see bench README
  // note in bench_semantics_lattice.cc).
  const EngineContext ctx =
      EngineContext::ForMode(JoinEngineMode::kIndexed).EnsureCache();
  for (auto _ : state) {
    Result<SkolemMembership> r = InSkolemSemantics(sk.value(), s, t, &u, {}, ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    member = r.value().member;
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["member"] = member ? 1 : 0;
  state.SetLabel("E10: Lemma 4 term-keyed membership (F' ~ v)");
}
BENCHMARK(BM_SkolemizeAndMembership)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SkolemSemanticAgreement(benchmark::State& state) {
  // E11: per-instance agreement check between the syntactic composite and
  // the semantic composition (the two-phase F' enumeration at work).
  ChainSetup setup(1, Ann::kClosed);
  Result<ComposeSkolemResult> gamma =
      ComposeSkolem(setup.sigma, setup.delta, &setup.u);
  Instance s, w;
  s.Add("A0", {setup.u.Const("a"), setup.u.Const("b")});
  w.Add("C0", {setup.u.Const("x"), setup.u.Const("y")});
  uint64_t interpretations = 0;
  const EngineContext ctx =
      EngineContext::ForMode(JoinEngineMode::kIndexed).EnsureCache();
  for (auto _ : state) {
    Result<SkolemMembership> lhs =
        InSkolemSemantics(gamma.value().gamma, s, w, &setup.u, {}, ctx);
    Result<SkolemMembership> rhs =
        InSkolemComposition(setup.sigma, setup.delta, s, w, &setup.u, {}, ctx);
    if (!lhs.ok() || !rhs.ok() ||
        lhs.value().member != rhs.value().member) {
      state.SkipWithError("syntactic/semantic composition disagree");
      return;
    }
    interpretations = lhs.value().interpretations_checked +
                      rhs.value().interpretations_checked;
  }
  state.counters["interpretations"] = static_cast<double>(interpretations);
  state.SetLabel("E11: syntactic vs semantic composition agreement");
}
BENCHMARK(BM_SkolemSemanticAgreement)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
