// Intra-job fan-out: a full RepA member enumeration (fixed space, no
// early stop) at shard widths 1/2/4/8. The series measures the scoped
// per-fan-out pool + per-shard Universe-overlay overhead against the
// parallel speedup; on a single-core host the widths record parity
// (interleaving cannot beat the sequential walk), on a multi-core host
// the wall-clock drop at 4/8 is the headline number for ROADMAP item 1.
// The members counter must not move across widths — the shards
// partition one space, they do not change it.

#include <benchmark/benchmark.h>

#include "certain/member_enum.h"
#include "logic/engine_context.h"

namespace ocdx {
namespace {

void BM_ShardedEnumeration(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  uint64_t members = 0;
  for (auto _ : state) {
    // Rebuilt per iteration: the sequential enumeration mints fresh
    // constants into the universe, so a shared long-lived universe would
    // let earlier iterations pollute later ones.
    Universe u;
    AnnotatedInstance t;
    for (int i = 0; i < 4; ++i) {
      t.Add("R", {u.FreshNull(), u.Const("c")}, {Ann::kClosed, Ann::kOpen});
    }
    MemberEnumOptions options;
    options.open_replication_limit = 2;
    EngineContext ctx;
    ctx.shards = shards;
    RepAMemberEnumerator en(t, {u.Const("a"), u.Const("b")}, &u, options,
                            &ctx);
    Status st = en.ForEachMember(
        [](const MemberShard&) -> RepAMemberEnumerator::ShardMemberFn {
          return [](const Instance& member) -> Result<bool> {
            benchmark::DoNotOptimize(member.TotalTuples());
            return true;
          };
        });
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    members = en.members_visited();
  }
  state.counters["members"] = static_cast<double>(members);
  state.SetLabel("intra-job fan-out: full enumeration, shard-partitioned");
}
BENCHMARK(BM_ShardedEnumeration)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
