// The work per member, pinned by counting heap allocations: a binary of
// its own, because it replaces the global operator new with a counting
// one. In the steady state of an all-closed enumeration a member is one
// refill of the shard image and one run of a bound plan, and neither
// allocates: the image, its probe indexes, the plan binding and the
// runner's frame all keep their capacity from member to member.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "certain/certain.h"
#include "certain/member_enum.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "mapping/rule_parser.h"
#include "plan/runner.h"
#include "util/str.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// GCC pairs malloc with free across inlined new/delete and warns about
// the replacement pair itself; the pairing is right.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ocdx {
namespace {

// All closed: five null rows R(k_i, n_i) and twelve constant rows, so the
// image (17 rows) is large enough for the plan to probe R's index rather
// than scan it. The functional-dependency sentence holds in every member
// (the keys are distinct constants), so no counterexample ends the run.
AnnotatedInstance ClosedInstance(Universe* u) {
  AnnotatedInstance t;
  for (int i = 0; i < 5; ++i) {
    t.Add("R", {u->Const(StrCat("k", i)), u->FreshNull()},
          {Ann::kClosed, Ann::kClosed});
  }
  for (int i = 0; i < 12; ++i) {
    t.Add("R", {u->Const(StrCat("b", i)), u->Const(StrCat("d", i))},
          {Ann::kClosed, Ann::kClosed});
  }
  return t;
}

constexpr const char* kUniversal =
    "forall x y z. (R(x, y) & R(x, z)) -> y = z";

TEST(MemberAlloc, SteadyStateMembersAllocateNothing) {
  Universe u;
  AnnotatedInstance t = ClosedInstance(&u);
  Result<FormulaPtr> q = ParseFormula(kUniversal, &u);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EngineStats stats;
  EngineContext ctx;
  ctx.EnsureCache();
  ctx.stats = &stats;
  MemberEnumOptions options;
  options.fresh_pool = 0;
  RepAMemberEnumerator en(t, {}, &u, options, &ctx);

  // The member loop's visitor shape (certain/certain.cc): an evaluator
  // and a binding built at the first member, one refresh and run after.
  std::optional<Evaluator> ev;
  std::optional<PreparedQuery> prepared;
  plan::BoundQuery bound;
  const Env env;
  uint64_t members = 0;
  uint64_t window_allocations = 0;
  Status st = en.ForEachMember([&](const MemberShard& shard)
                                   -> RepAMemberEnumerator::ShardMemberFn {
    return [&, shard](const Instance& member) -> Result<bool> {
      if (!ev) {
        ev.emplace(member, *shard.universe, *shard.ctx);
        prepared.emplace(ev->PrepareHolds(q.value(), env));
        bound = ev->Bind(*prepared);
      }
      if (members == 100) {
        g_allocations.store(0);
        g_counting.store(true);
      }
      OCDX_ASSIGN_OR_RETURN(bool holds, ev->Holds(*prepared, &bound, env));
      EXPECT_TRUE(holds);
      if (++members == 1100) {
        g_counting.store(false);
        window_allocations = g_allocations.load();
        return false;
      }
      return true;
    };
  });
  g_counting.store(false);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(members, 1100u);
  EXPECT_EQ(window_allocations, 0u);
  EXPECT_EQ(stats.cq_plans, 1100u) << "the sentence must run as a plan";
  EXPECT_EQ(stats.generic_evals, 0u);
}

// The same through the certain-answer engine: two runs that differ only in
// how many members the hard budget lets them visit (200 and 1200) make
// exactly as many allocations, so the 1000 members between cost none.
// Each engine runs once first, so both measured runs find the plan
// compiled and the fresh constants minted.
TEST(MemberAlloc, CertainAnswerMembersAllocateNothing) {
  Universe u;
  Result<FormulaPtr> q = ParseFormula(kUniversal, &u);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Schema tgt;
  tgt.Add("R", 2);
  Mapping mapping(Schema(), tgt);
  CanonicalSolution csol;
  csol.annotated = ClosedInstance(&u);

  auto measure = [&](uint64_t max_members) {
    EngineContext ctx;
    ctx.budget.max_members = max_members;
    CertainAnswerEngine engine =
        CertainAnswerEngine::FromCanonical(mapping, csol, &u, ctx);
    Result<CertainVerdict> warm = engine.IsCertainBoolean(q.value());
    EXPECT_EQ(warm.status().code(), StatusCode::kResourceExhausted);
    g_allocations.store(0);
    g_counting.store(true);
    Result<CertainVerdict> run = engine.IsCertainBoolean(q.value());
    g_counting.store(false);
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    return g_allocations.load();
  };
  const uint64_t short_run = measure(200);
  const uint64_t long_run = measure(1200);
  EXPECT_GT(short_run, 0u);
  EXPECT_EQ(long_run, short_run);
}

}  // namespace
}  // namespace ocdx
