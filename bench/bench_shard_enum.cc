// Intra-job fan-out: a full RepA member enumeration (fixed space, no
// early stop) at shard widths 1/2/4/8. The series measures the scoped
// per-fan-out pool + per-shard Universe-overlay overhead against the
// parallel speedup; on a single-core host the widths record parity
// (interleaving cannot beat the sequential walk), on a multi-core host
// the wall-clock drop at 4/8 is the headline number for ROADMAP item 1.
// The members counter must not move across widths — the shards
// partition one space, they do not change it.
//
// BM_MemberLoop is the member loop itself: an all-closed instance with
// five nulls, every member checked against a universal sentence through
// the certain-answer visitor's path (one binding per shard, one refresh
// and one plan run per member). Its time per member is what enumerate's
// slow files pay per member.

#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "certain/member_enum.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "plan/runner.h"

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

void BM_MemberLoop(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  uint64_t members = 0;
  for (auto _ : state) {
    Universe u;
    AnnotatedInstance t;
    for (int i = 0; i < 5; ++i) {
      t.Add("R", {u.Const("k" + std::to_string(i)), u.FreshNull()},
            {Ann::kClosed, Ann::kClosed});
    }
    Result<FormulaPtr> q =
        ParseFormula("forall x y z. (R(x, y) & R(x, z)) -> y = z", &u);
    EngineContext ctx;
    ctx.EnsureCache();
    ctx.shards = shards;
    MemberEnumOptions options;
    options.fresh_pool = 0;
    RepAMemberEnumerator en(t, {}, &u, options, &ctx);
    struct ShardQuery {
      std::optional<Evaluator> ev;
      std::optional<PreparedQuery> query;
      plan::BoundQuery bound;
    };
    std::vector<std::unique_ptr<ShardQuery>> states;
    const Env env;
    Status st = en.ForEachMember(
        [&](const MemberShard& shard) -> RepAMemberEnumerator::ShardMemberFn {
          states.push_back(std::make_unique<ShardQuery>());
          ShardQuery* sq = states.back().get();
          return [sq, shard, &q, &env](const Instance& member) -> Result<bool> {
            if (!sq->ev) {
              sq->ev.emplace(member, *shard.universe, *shard.ctx);
              sq->query.emplace(sq->ev->PrepareHolds(q.value(), env));
              sq->bound = sq->ev->Bind(*sq->query);
            }
            return sq->ev->Holds(*sq->query, &sq->bound, env);
          };
        });
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    members = en.members_visited();
  }
  state.counters["members"] = static_cast<double>(members);
  state.counters["ns_per_member"] = benchmark::Counter(
      static_cast<double>(members),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetLabel("all-closed, 5 nulls, universal sentence per member");
}
BENCHMARK(BM_MemberLoop)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocdx

BENCHMARK_MAIN();
