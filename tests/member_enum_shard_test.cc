// Intra-job fan-out tests for the RepA member enumerator
// (certain/member_enum.cc): the determinism contract (byte-identical
// canonical output for every shard count), first-success and caller
// cancellation across shard threads, the fresh-pool aliasing and
// early-stop outcome regressions, and the ThreadPool shutdown assert.
//
// CI runs this suite under ThreadSanitizer (the tsan preset builds the
// whole test tree), so the per-shard Universe-overlay isolation of the
// sharded paths is race-checked here, not just argued.

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "certain/member_enum.h"
#include "exec/pool.h"
#include "logic/engine_context.h"
#include "logic/evaluator.h"
#include "logic/parser.h"
#include "semantics/iso_enum.h"
#include "text/dx_driver.h"
#include "text/dx_parser.h"
#include "util/rng.h"
#include "util/str.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Runs `all` over `src` with the given engine mode and shard count and
// returns the canonical output (the governed status renders inline, so
// it is part of the bytes being compared).
std::string RunAll(const std::string& src, JoinEngineMode mode,
                   size_t shards) {
  Universe universe;
  Result<DxScenario> scenario = ParseDxScenario(src, &universe);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  if (!scenario.ok()) return "";
  DxDriverOptions options;
  options.engine = EngineContext::ForMode(mode);
  options.engine.shards = shards;
  Status governed;
  Result<std::string> out =
      RunDxCommand(scenario.value(), "all", &universe, options, &governed);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? out.value() : "";
}

// The tentpole acceptance gate: `ocdx` output over the enumeration
// corpus is byte-identical for shard counts 1, 4 and 8 under both join
// engines. These three scenarios exercise every sharded path — CWA
// valuation enumeration, the Prop 5 small-witness search, the Lemma-2
// member search, and RepA membership.
TEST(MemberEnumShardTest, CorpusByteIdentityAcrossShardCounts) {
  const char* kScenarios[] = {"valuation_enum.dx", "member_search.dx",
                              "membership_sweep.dx"};
  for (const char* name : kScenarios) {
    const fs::path file = fs::path(OCDX_CORPUS_DIR) / name;
    SCOPED_TRACE(file.string());
    const std::string src = ReadFileOrDie(file);
    for (JoinEngineMode mode :
         {JoinEngineMode::kIndexed, JoinEngineMode::kGeneric}) {
      const std::string baseline = RunAll(src, mode, 1);
      ASSERT_FALSE(baseline.empty());
      for (size_t shards : {size_t{4}, size_t{8}}) {
        EXPECT_EQ(baseline, RunAll(src, mode, shards))
            << name << " diverges at shards=" << shards;
      }
    }
  }
}

// A small annotated instance whose member space is big enough to spread
// over several shards: `nulls` nulls in closed positions (driving the
// valuation fan-out) and one open position licensing extra tuples.
AnnotatedInstance MakeSpreadInstance(Universe* u, size_t nulls) {
  AnnotatedInstance t;
  for (size_t i = 0; i < nulls; ++i) {
    t.Add("R", {u->FreshNull(), u->Const("c")}, {Ann::kClosed, Ann::kOpen});
  }
  return t;
}

TEST(MemberEnumShardTest, SequentialAndShardedAgreeOnFullEnumeration) {
  // The 1-to-2 replication limit keeps the space a few thousand members
  // (an unbounded open universe here blows past the soft member cap and
  // every run reads kTruncated instead of kExhausted).
  MemberEnumOptions options;
  options.open_replication_limit = 2;

  Universe u;
  AnnotatedInstance t = MakeSpreadInstance(&u, 3);
  const std::vector<Value> fixed = {u.Const("a"), u.Const("b")};

  uint64_t members_seq = 0;
  {
    RepAMemberEnumerator en(t, fixed, &u, options);
    Status st = en.ForEachMember([&](const Instance&) { return true; });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(en.outcome(), EnumOutcome::kExhausted);
    members_seq = en.members_visited();
    EXPECT_GT(members_seq, 100u);
  }

  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    Universe u2;
    AnnotatedInstance t2 = MakeSpreadInstance(&u2, 3);
    const std::vector<Value> fixed2 = {u2.Const("a"), u2.Const("b")};
    EngineStats stats;
    EngineContext ctx;
    ctx.shards = shards;
    ctx.stats = &stats;
    RepAMemberEnumerator en(t2, fixed2, &u2, options, &ctx);
    Status st = en.ForEachMember(
        [](const MemberShard&) -> RepAMemberEnumerator::ShardMemberFn {
          return [](const Instance&) -> Result<bool> { return true; };
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(en.outcome(), EnumOutcome::kExhausted) << "shards=" << shards;
    EXPECT_EQ(en.members_visited(), members_seq) << "shards=" << shards;
    EXPECT_EQ(stats.enum_shard_runs, 1u);
    EXPECT_EQ(stats.enum_shard_tasks, shards);
  }
}

TEST(MemberEnumShardTest, FirstSuccessStopsEveryShard) {
  Universe u;
  AnnotatedInstance t = MakeSpreadInstance(&u, 4);
  const std::vector<Value> fixed = {u.Const("a")};
  EngineStats stats;
  EngineContext ctx;
  ctx.shards = 4;
  ctx.stats = &stats;
  RepAMemberEnumerator en(t, fixed, &u, MemberEnumOptions{}, &ctx);

  // Every shard's visitor "succeeds" on its first member: whichever
  // lands first raises the shared stop flag, and the run must come back
  // as a deliberate early stop, not an exhausted pass.
  Status st = en.ForEachMember(
      [](const MemberShard&) -> RepAMemberEnumerator::ShardMemberFn {
        return [](const Instance&) -> Result<bool> { return false; };
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(en.outcome(), EnumOutcome::kEarlyStopped);
  EXPECT_FALSE(en.exhausted());
  EXPECT_EQ(stats.enum_shard_stops, 1u);
}

TEST(MemberEnumShardTest, CrossThreadCancellationSurfacesAsCancelled) {
  Universe u;
  // Big valuation space: the run cannot finish before the canceller
  // fires (and if cancellation broke, the soft member cap — not a hang —
  // would end the test with the wrong outcome).
  AnnotatedInstance t = MakeSpreadInstance(&u, 7);
  const std::vector<Value> fixed = {u.Const("a"), u.Const("b")};

  std::atomic<bool> cancel{false};
  std::atomic<uint64_t> visited{0};
  EngineContext ctx;
  ctx.shards = 4;
  ctx.budget.cancel = &cancel;
  // Bound the no-cancellation failure mode: if the flag were ignored,
  // the soft cap ends the run in seconds as kTruncated + OK, which the
  // assertions below still reject.
  MemberEnumOptions options;
  options.max_members = 50'000;

  // The canceller raises the *caller's* flag from a foreign thread once
  // enumeration is demonstrably in flight — the exact situation ocdxd's
  // SIGTERM handler creates.
  std::thread canceller([&] {
    while (visited.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    cancel.store(true, std::memory_order_release);
  });

  RepAMemberEnumerator en(t, fixed, &u, options, &ctx);
  Status st = en.ForEachMember(
      [&visited](const MemberShard&) -> RepAMemberEnumerator::ShardMemberFn {
        return [&visited](const Instance&) -> Result<bool> {
          visited.fetch_add(1, std::memory_order_acq_rel);
          // Slow the members down so the cancel lands mid-run.
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          return true;
        };
      });
  canceller.join();

  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_EQ(en.outcome(), EnumOutcome::kTruncated);
  EXPECT_FALSE(en.exhausted());
}

// Regression (stats sink): a fan-out under a caller without stats gives
// its shards none either — detached instrumentation is two null checks,
// not a clock read per member bind. With a caller sink, each shard gets
// its own and the counters merge into the caller's after the fan-out.
TEST(MemberEnumShardTest, ShardsGetAStatsSinkOnlyWhenTheCallerHasOne) {
  for (bool with_stats : {false, true}) {
    SCOPED_TRACE(with_stats ? "caller stats" : "no caller stats");
    Universe u;
    AnnotatedInstance t = MakeSpreadInstance(&u, 3);
    Result<FormulaPtr> f =
        ParseFormula("forall x y z. (R(x, y) & R(x, z)) -> y = z", &u);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    EngineStats stats;
    EngineContext ctx;
    ctx.EnsureCache();
    ctx.shards = 2;
    if (with_stats) ctx.stats = &stats;
    MemberEnumOptions options;
    options.open_replication_limit = 2;
    RepAMemberEnumerator en(t, {u.Const("a")}, &u, options, &ctx);
    std::vector<const EngineStats*> sinks;
    Status st = en.ForEachMember(
        [&](const MemberShard& shard) -> RepAMemberEnumerator::ShardMemberFn {
          sinks.push_back(shard.ctx->stats);
          return [&f, shard](const Instance& member) -> Result<bool> {
            Evaluator ev(member, *shard.universe, *shard.ctx);
            OCDX_RETURN_IF_ERROR(ev.Holds(f.value()).status());
            return true;
          };
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(sinks.size(), 2u);
    for (const EngineStats* sink : sinks) {
      if (with_stats) {
        EXPECT_NE(sink, nullptr);
        EXPECT_NE(sink, &stats);  // One sink per thread.
      } else {
        EXPECT_EQ(sink, nullptr);
      }
    }
    if (with_stats) {
      EXPECT_EQ(stats.enum_shard_runs, 1u);
      EXPECT_EQ(stats.enum_shard_tasks, 2u);
      EXPECT_EQ(stats.cq_plans, en.members_visited());
      EXPECT_GT(stats.cq_plans, 100u);
    }
  }
}

// Governed trips are exact at shard count 1: a hard member cap of N lets
// the visitor see exactly N members, across valuation and subset
// boundaries alike, and an expired deadline trips at the first
// valuation's poll, before any member.
TEST(MemberEnumShardTest, HardCapAndDeadlineTripExactlyAtOneShard) {
  MemberEnumOptions options;
  options.open_replication_limit = 2;
  for (uint64_t cap : {uint64_t{1}, uint64_t{7}, uint64_t{50}, uint64_t{333}}) {
    SCOPED_TRACE(StrCat("max_members=", cap));
    Universe u;
    AnnotatedInstance t = MakeSpreadInstance(&u, 3);
    EngineContext ctx;
    ctx.budget.max_members = cap;
    RepAMemberEnumerator en(t, {u.Const("a")}, &u, options, &ctx);
    uint64_t seen = 0;
    Status st = en.ForEachMember([&](const Instance&) {
      ++seen;
      return true;
    });
    EXPECT_EQ(seen, cap);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    EXPECT_EQ(st.message(), StrCat("member enumeration exceeded budget of ",
                                   cap, " members"));
    EXPECT_EQ(en.outcome(), EnumOutcome::kTruncated);
  }

  Universe u;
  AnnotatedInstance t = MakeSpreadInstance(&u, 3);
  EngineContext ctx;
  ctx.budget.deadline_ms = 1;
  ctx.budget.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  ctx.budget.deadline_armed = true;
  RepAMemberEnumerator en(t, {u.Const("a")}, &u, options, &ctx);
  uint64_t seen = 0;
  Status st = en.ForEachMember([&](const Instance&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_EQ(en.outcome(), EnumOutcome::kTruncated);
}

// A seeded twin-rich all-closed T over R/2 and S/2: 2-5 copies of each of
// 1-3 row shapes, every row with 1-2 nulls of its copy. The first row of
// a shape holds a constant of the copy's own ('k0', 'k1', ... in copy
// order); other positions draw the copy's nulls, its own constant, or
// now and then a constant 'g0'/'g1' that every copy shares (which links
// the copies into one component: no twins). At most five nulls, so the
// unreduced oracle stays small.
AnnotatedInstance MakeTwinRichInstance(uint64_t seed, Universe* u) {
  Rng rng(seed);
  for (;;) {
    AnnotatedInstance t;
    t.GetOrCreate("R", 2);
    t.GetOrCreate("S", 2);
    size_t nulls = 0, own = 0;
    const size_t shapes = rng.Between(1, 3);
    for (size_t s = 0; s < shapes; ++s) {
      // A shape: per row its relation and, per position, 0/1 for the
      // copy's nulls, 2 for its own constant, 3/4 for 'g0'/'g1'.
      std::vector<std::pair<std::string, std::array<int, 2>>> rows;
      const size_t n_rows = rng.Between(1, 3);
      for (size_t r = 0; r < n_rows; ++r) {
        std::array<int, 2> slots = {
            r == 0 ? 2
                   : static_cast<int>(rng.Chance(1, 4) ? 3 + rng.Below(2)
                                                       : rng.Below(3)),
            static_cast<int>(rng.Below(2))};
        if (slots[0] >= 2 && rng.Chance(1, 3)) slots[0] = 1 - slots[1];
        if (rng.Chance(1, 2)) std::swap(slots[0], slots[1]);
        rows.emplace_back(rng.Chance(1, 2) ? "R" : "S", slots);
      }
      const size_t copies = rng.Between(2, 5);
      for (size_t c = 0; c < copies; ++c) {
        const Value mine = u->Const(StrCat("k", own++));
        const Value copy_nulls[2] = {u->FreshNull(), u->FreshNull()};
        for (const auto& [rel, slots] : rows) {
          Tuple tuple;
          for (int slot : slots) {
            tuple.push_back(slot < 2    ? copy_nulls[slot]
                            : slot == 2 ? mine
                                        : u->Const(StrCat("g", slot - 3)));
          }
          t.Add(rel, tuple, {Ann::kClosed, Ann::kClosed});
        }
      }
    }
    nulls = t.Nulls().size();
    if (nulls <= 5) return t;
  }
}

// "Q holds on every member", from the definitions: every valuation
// representative fixing `fixed`, applied to rel(T) and evaluated afresh.
bool HoldsOnEveryValuation(const AnnotatedInstance& t, const FormulaPtr& q,
                           const std::vector<Value>& fixed, Universe* u) {
  const Instance plain = t.RelPart();
  ValuationEnumerator valuations(t.Nulls(), fixed, u);
  Valuation v;
  while (valuations.Next(&v)) {
    Result<bool> holds = Evaluator(v.Apply(plain), *u).Holds(q);
    EXPECT_TRUE(holds.ok()) << holds.status().ToString();
    if (!holds.ok() || !holds.value()) return false;
  }
  return true;
}

// Twin reduction against the unreduced enumeration: over seeded twin-rich
// T's, "Q holds on every member" must come out the same with the query's
// constants as `fixed` (copies are twins) as with every constant of T
// added to `fixed` (each copy's own constant is then fixed, so no two
// copies are twins: the unreduced oracle), at 1, 2 and 4 shards, and the
// same as a member-by-member check built from the definitions. The
// queries cover every class the enumerator serves, and some name a copy's
// own constant or a shared one.
TEST(MemberEnumShardTest, TwinReductionAgreesWithUnreducedOracle) {
  const char* kQueries[] = {
      "forall x o1 o2. (R(x, o1) & R(x, o2)) -> o1 = o2",
      "exists x y o. R(x, o) & R(y, o) & x != y",
      "exists x o. R(x, o) & !(exists y. R(y, o) & !(y = x))",
      "exists x y. R(x, y) | S(x, y)",
      "exists o. R('k0', o) & S(o, o)",
      "forall o. R('k1', o) -> !(exists z. S(z, o))",
      "exists x. R(x, 'g1') | S('g0', x) | R(x, 'k2')",
      "forall x y. S(x, y) -> (x = 'k0' | exists z. R(z, y))",
  };
  uint64_t reduced_members = 0, oracle_members = 0;
  size_t holds = 0, fails = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Universe u;
    const AnnotatedInstance t = MakeTwinRichInstance(seed, &u);
    std::vector<Value> t_constants;
    for (Value v : t.ActiveDomain()) {
      if (v.IsConst()) t_constants.push_back(v);
    }
    for (const char* text : kQueries) {
      Result<FormulaPtr> q = ParseFormula(text, &u);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      std::vector<Value> fixed = ConstantsIn(q.value());
      std::vector<Value> all_fixed = fixed;
      all_fixed.insert(all_fixed.end(), t_constants.begin(),
                       t_constants.end());
      const bool want = HoldsOnEveryValuation(t, q.value(), all_fixed, &u);
      for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
        SCOPED_TRACE(StrCat("seed=", seed, " query=", text,
                            " shards=", shards));
        auto every_member = [&](const std::vector<Value>& f,
                                uint64_t* members) {
          EngineContext ctx;
          ctx.EnsureCache();
          ctx.shards = shards;
          RepAMemberEnumerator en(t, f, &u, MemberEnumOptions{}, &ctx);
          std::atomic<bool> counterexample{false};
          Status st = en.ForEachMember(
              [&](const MemberShard& shard)
                  -> RepAMemberEnumerator::ShardMemberFn {
                return [&, shard](const Instance& member) -> Result<bool> {
                  Evaluator ev(member, *shard.universe, *shard.ctx);
                  OCDX_ASSIGN_OR_RETURN(bool ok, ev.Holds(q.value()));
                  if (!ok) counterexample.store(true);
                  return ok;
                };
              });
          EXPECT_TRUE(st.ok()) << st.ToString();
          if (!counterexample.load()) {
            EXPECT_EQ(en.outcome(), EnumOutcome::kExhausted);
          }
          if (shards == 1) *members += en.members_visited();
          return !counterexample.load();
        };
        const bool reduced = every_member(fixed, &reduced_members);
        const bool oracle = every_member(all_fixed, &oracle_members);
        EXPECT_EQ(reduced, oracle);
        EXPECT_EQ(oracle, want);
        if (shards == 1) ++(want ? holds : fails);
      }
    }
  }
  EXPECT_GT(holds, 0u);
  EXPECT_GT(fails, 0u);
  EXPECT_LT(reduced_members, oracle_members);
}

// Ground instances up to a bijection of their constants outside `fixed`.
// Invariant() is equal for isomorphic instances; Same() decides by a
// backtracking match of a's rows onto b's.
class GroundIsomorphism {
 public:
  explicit GroundIsomorphism(std::set<Value> fixed)
      : fixed_(std::move(fixed)) {}

  /// Sorted rows, each as its relation, its fixed constants and, per
  /// other value, the value's number of occurrences in the instance and
  /// its first position in the row.
  std::string Invariant(const Instance& inst) const {
    std::map<Value, int> degree;
    for (const auto& [name, rel] : inst.relations()) {
      for (TupleRef t : rel.tuples()) {
        for (Value v : t) ++degree[v];
      }
    }
    std::vector<std::string> rows;
    for (const auto& [name, rel] : inst.relations()) {
      for (TupleRef t : rel.tuples()) {
        std::string row = name;
        for (size_t p = 0; p < t.size(); ++p) {
          const size_t first = std::find(t.begin(), t.end(), t[p]) - t.begin();
          row += fixed_.count(t[p]) > 0
                     ? StrCat("|=", t[p].raw())
                     : StrCat("|", degree[t[p]], "@", first);
        }
        rows.push_back(std::move(row));
      }
    }
    std::sort(rows.begin(), rows.end());
    std::string out;
    for (const std::string& row : rows) out += row + ";";
    return out;
  }

  bool Same(const Instance& a, const Instance& b) {
    a_ = Rows(a);
    b_ = Rows(b);
    if (a_.size() != b_.size()) return false;
    forward_.clear();
    backward_.clear();
    trail_.clear();
    used_.assign(b_.size(), false);
    return Extend(0);
  }

 private:
  using Row = std::pair<std::string, Tuple>;

  static std::vector<Row> Rows(const Instance& inst) {
    std::vector<Row> rows;
    for (const auto& [name, rel] : inst.relations()) {
      for (TupleRef t : rel.tuples()) {
        rows.emplace_back(name, Tuple(t.begin(), t.end()));
      }
    }
    return rows;
  }

  bool Bind(Value x, Value y) {
    if (fixed_.count(x) > 0 || fixed_.count(y) > 0) return x == y;
    auto it = forward_.find(x);
    if (it != forward_.end()) return it->second == y;
    if (!backward_.emplace(y, x).second) return false;
    forward_.emplace(x, y);
    trail_.push_back(x);
    return true;
  }

  bool Extend(size_t i) {
    if (i == a_.size()) return true;
    for (size_t j = 0; j < b_.size(); ++j) {
      if (used_[j] || b_[j].first != a_[i].first) continue;
      const size_t mark = trail_.size();
      bool ok = true;
      for (size_t p = 0; ok && p < a_[i].second.size(); ++p) {
        ok = Bind(a_[i].second[p], b_[j].second[p]);
      }
      if (ok) {
        used_[j] = true;
        if (Extend(i + 1)) return true;
        used_[j] = false;
      }
      while (trail_.size() > mark) {
        backward_.erase(forward_[trail_.back()]);
        forward_.erase(trail_.back());
        trail_.pop_back();
      }
    }
    return false;
  }

  const std::set<Value> fixed_;
  std::vector<Row> a_, b_;
  std::map<Value, Value> forward_, backward_;
  std::vector<Value> trail_;
  std::vector<bool> used_;
};

// Soundness of the reduction, member by member: over the same seeded
// T's, every member of the unreduced enumeration is isomorphic, by a
// bijection fixing `fixed`, to some member the reduced one visits. A
// generic check that names only `fixed` therefore sees every member it
// would have seen. Fewer members are visited in total.
TEST(MemberEnumShardTest, TwinReductionKeepsEveryMemberUpToIsomorphism) {
  uint64_t reduced_total = 0, unreduced_total = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Universe u;
    const AnnotatedInstance t = MakeTwinRichInstance(seed, &u);
    std::vector<Value> t_constants;
    for (Value v : t.ActiveDomain()) {
      if (v.IsConst()) t_constants.push_back(v);
    }
    for (const std::vector<Value>& fixed :
         {std::vector<Value>{}, std::vector<Value>{u.Const("k0")},
          std::vector<Value>{u.Const("g0"), u.Const("k1")}}) {
      SCOPED_TRACE(StrCat("seed=", seed, " fixed=", fixed.size()));
      GroundIsomorphism iso(std::set<Value>(fixed.begin(), fixed.end()));
      std::map<std::string, std::vector<Instance>> reduced;
      RepAMemberEnumerator en(t, fixed, &u);
      ASSERT_TRUE(en.ForEachMember([&](const Instance& member) {
                      reduced[iso.Invariant(member)].push_back(member);
                      return true;
                    }).ok());
      reduced_total += en.members_visited();

      std::vector<Value> all_fixed = fixed;
      all_fixed.insert(all_fixed.end(), t_constants.begin(),
                       t_constants.end());
      const Instance plain = t.RelPart();
      ValuationEnumerator valuations(t.Nulls(), all_fixed, &u);
      Valuation v;
      while (valuations.Next(&v)) {
        ++unreduced_total;
        const Instance member = v.Apply(plain);
        bool found = false;
        for (const Instance& candidate : reduced[iso.Invariant(member)]) {
          found = found || iso.Same(member, candidate);
        }
        EXPECT_TRUE(found) << "no isomorphic member for valuation "
                           << unreduced_total;
      }
    }
  }
  EXPECT_LT(reduced_total, unreduced_total);
}

// Regression (fresh-constant pool): a scenario constant literally named
// '#e0' — the first name the pool used to mint — must not alias into
// the fresh pool. With a pool of one, the buggy enumerator produced no
// genuinely fresh value at all and the open position could only ever be
// filled with the instance's own constants.
TEST(MemberEnumShardTest, AdversarialConstantNameCannotAliasIntoFreshPool) {
  Universe u;
  AnnotatedInstance t;
  t.Add("R", {u.Const("#e0")}, {Ann::kOpen});
  MemberEnumOptions options;
  options.fresh_pool = 1;
  RepAMemberEnumerator en(t, {}, &u, options);

  std::set<Value> seen;
  Status st = en.ForEachMember([&](const Instance& member) {
    const Relation* r = member.Find("R");
    if (r != nullptr) {
      for (TupleRef row : r->tuples()) seen.insert(row[0]);
    }
    return true;
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(en.exhausted());
  // Some member must feature a value beyond the scenario's '#e0': the
  // one genuinely fresh pool constant.
  seen.erase(u.Const("#e0"));
  EXPECT_FALSE(seen.empty())
      << "the fresh pool aliased into the scenario constant '#e0'";
}

// Regression (outcome tri-state): an early-stopped run deliberately
// skips the rest of the space, so it must not read as exhausted; a
// later full pass over the same enumerator resets the outcome.
TEST(MemberEnumShardTest, EarlyStopIsNotExhausted) {
  Universe u;
  AnnotatedInstance t;
  t.Add("R", {u.Const("a")}, {Ann::kOpen});
  RepAMemberEnumerator en(t, {}, &u);

  Status st = en.ForEachMember([](const Instance&) { return false; });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(en.outcome(), EnumOutcome::kEarlyStopped);
  EXPECT_FALSE(en.exhausted());
  EXPECT_EQ(en.members_visited(), 1u);

  st = en.ForEachMember([](const Instance&) { return true; });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(en.outcome(), EnumOutcome::kExhausted);
  EXPECT_TRUE(en.exhausted());
}

// The ThreadPool shutdown contract (exec/pool.h): Submit once the
// destructor's drain has begun would be a silent task drop, so debug
// builds assert. The assert only exists without NDEBUG (in CI that is
// the asan preset); the forking death-test harness is skipped under
// TSan, whose runtime does not survive fork-with-threads.
#if !defined(NDEBUG) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if !__has_feature(thread_sanitizer)
#define OCDX_RUN_POOL_DEATH_TEST 1
#endif
#else
#define OCDX_RUN_POOL_DEATH_TEST 1
#endif
#endif

#ifdef OCDX_RUN_POOL_DEATH_TEST
TEST(ThreadPoolDeathTest, SubmitAfterShutdownAsserts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool* escaped = nullptr;
        {
          ThreadPool pool(1);
          escaped = &pool;
          pool.Submit([&escaped] {
            // Let the destructor begin its drain, then break the rule.
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            escaped->Submit([] {});
          });
        }
      },
      "Submit after shutdown");
}
#endif

}  // namespace
}  // namespace ocdx
