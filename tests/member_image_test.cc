// The member image of RepAMemberEnumerator (certain/member_enum.cc)
// against the definition. The enumerator builds every member as an edit
// of one reusable image per shard: v(rel(T)) refilled per valuation,
// extra tuples pushed and popped (Relation::Truncate) by the subset
// recursion. The oracle below builds each member fresh, the way the
// enumerator did before the image existed: a new Instance v(rel(T)) per
// valuation, a copy of it per member, extras added to the copy. Both run
// over one Universe, so the constants the valuation enumerator and the
// fresh pool mint are the same values on both sides; every member the
// visitor sees must equal the oracle's member at the same position, row
// order included, and the outcome must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "certain/member_enum.h"
#include "logic/engine_context.h"
#include "semantics/iso_enum.h"
#include "util/combinatorics.h"

namespace ocdx {
namespace {

// Relation name -> rows in insertion order: equality of this view is
// equality of the member *and* of the order a scan visits its rows.
using Rows = std::vector<std::pair<std::string, std::vector<Tuple>>>;

Rows RowsOf(const Instance& inst) {
  Rows out;
  for (const auto& [name, rel] : inst.relations()) {
    std::vector<Tuple> rows;
    for (TupleRef t : rel.tuples()) rows.emplace_back(t.begin(), t.end());
    out.emplace_back(name, std::move(rows));
  }
  return out;
}

struct Reference {
  std::vector<Rows> members;
  bool truncated = false;
};

// The oracle: RepA(T)'s bounded members, each built fresh from its
// definition v(rel(T)) u E, in the enumerator's documented order
// (valuations in ValuationEnumerator order; per valuation, subsets E of
// the extra-tuple universe by increasing size, lexicographically).
Reference ReferenceMembers(const AnnotatedInstance& t,
                           const std::vector<Value>& caller_fixed,
                           Universe* u, const MemberEnumOptions& o) {
  Reference ref;
  std::set<Value> fixed_set(caller_fixed.begin(), caller_fixed.end());
  for (Value v : t.ActiveDomain()) {
    if (v.IsConst()) fixed_set.insert(v);
  }
  std::vector<Value> fixed(fixed_set.begin(), fixed_set.end());
  std::set<std::string> occupied;
  for (Value c : fixed) occupied.insert(u->Describe(c));
  std::vector<std::string> fresh;
  for (size_t i = 0; fresh.size() < o.fresh_pool; ++i) {
    std::string name = "#e" + std::to_string(i);
    if (occupied.count(name) == 0) fresh.push_back(name);
  }

  ValuationEnumerator valuations(t.Nulls(), fixed, u);
  Valuation v;
  while (valuations.Next(&v)) {
    Instance base = v.ApplyRelPart(t);
    for (const auto& [name, rel] : t.relations()) {
      base.GetOrCreate(name, rel.arity());
    }
    std::set<Value> pool_set(fixed.begin(), fixed.end());
    for (Value c : base.ActiveDomain()) pool_set.insert(c);
    for (const std::string& name : fresh) pool_set.insert(u->Const(name));
    std::vector<Value> pool(pool_set.begin(), pool_set.end());

    struct Extra {
      std::string rel;
      Tuple tuple;
      size_t tpl;
    };
    std::vector<Extra> extras;
    std::set<std::pair<std::string, Tuple>> seen;
    std::vector<size_t> caps;
    bool full = false;
    auto add = [&](const std::string& rel, const Tuple& tuple) {
      if (base.Find(rel)->Contains(tuple)) return;
      if (seen.count({rel, tuple}) > 0) return;
      if (extras.size() >= o.max_universe) {
        full = true;
        return;
      }
      seen.insert({rel, tuple});
      extras.push_back(Extra{rel, tuple, caps.size() - 1});
    };
    for (const auto& [name, rel] : t.relations()) {
      for (const AnnotatedTupleRef& at : rel.tuples()) {
        std::vector<size_t> open;
        Tuple pattern(at.arity());
        size_t cap = o.open_replication_limit;
        if (at.IsEmptyMarker()) {
          if (!IsAllOpen(at.ann)) continue;
          for (size_t p = 0; p < at.arity(); ++p) open.push_back(p);
        } else {
          pattern = v.Apply(at.values);
          for (size_t p = 0; p < at.arity(); ++p) {
            if (at.ann[p] == Ann::kOpen) open.push_back(p);
          }
          if (open.empty()) continue;
          // v(t) is the first of a 1-to-m tuple's instantiations.
          if (cap != SIZE_MAX) cap = cap == 0 ? 0 : cap - 1;
        }
        caps.push_back(cap);
        AssignmentEnumerator fillings(open.size(), pool.size());
        while (!full && fillings.Next()) {
          Tuple cand = pattern;
          for (size_t j = 0; j < open.size(); ++j) {
            cand[open[j]] = pool[fillings.digits()[j]];
          }
          add(name, cand);
        }
      }
    }
    ref.truncated = ref.truncated || full;
    size_t max_size = std::min(extras.size(), o.max_extra_tuples);
    ref.truncated = ref.truncated || max_size < extras.size();

    std::vector<size_t> chosen;
    std::vector<size_t> used(caps.size(), 0);
    std::function<void(size_t, size_t)> rec = [&](size_t start,
                                                  size_t remaining) {
      if (remaining == 0) {
        Instance member = base;
        for (size_t i : chosen) member.Add(extras[i].rel, extras[i].tuple);
        ref.members.push_back(RowsOf(member));
        return;
      }
      for (size_t i = start; i + remaining <= extras.size(); ++i) {
        if (used[extras[i].tpl] >= caps[extras[i].tpl]) continue;
        ++used[extras[i].tpl];
        chosen.push_back(i);
        rec(i + 1, remaining - 1);
        chosen.pop_back();
        --used[extras[i].tpl];
      }
    };
    for (size_t m = 0; m <= max_size; ++m) rec(0, m);
  }
  return ref;
}

struct ImageCase {
  const char* name;
  std::function<AnnotatedInstance(Universe*)> build;
  std::vector<std::string> fixed;
  MemberEnumOptions options;
};

MemberEnumOptions Opts(size_t fresh_pool, size_t max_extra, size_t max_universe,
                       size_t replication) {
  MemberEnumOptions o;
  o.fresh_pool = fresh_pool;
  o.max_extra_tuples = max_extra;
  o.max_universe = max_universe;
  o.open_replication_limit = replication;
  return o;
}

std::vector<ImageCase> Cases() {
  const Ann cl = Ann::kClosed, op = Ann::kOpen;
  return {
      {"closed nulls (Thm 3.1)",
       [=](Universe* u) {
         AnnotatedInstance t;
         Value n1 = u->FreshNull(), n2 = u->FreshNull();
         t.Add("R", {n1, u->Const("a")}, {cl, cl});
         t.Add("R", {n2, n1}, {cl, cl});
         t.Add("R", {n2, u->Const("a")}, {cl, cl});
         t.Add("S", {n2}, {cl});
         return t;
       },
       {"b"},
       Opts(0, SIZE_MAX, 24, SIZE_MAX)},
      {"open positions",
       [=](Universe* u) {
         AnnotatedInstance t;
         Value n = u->FreshNull();
         t.Add("R", {u->Const("a"), n}, {cl, op});
         t.Add("S", {n}, {op});
         return t;
       },
       {},
       Opts(1, SIZE_MAX, 24, SIZE_MAX)},
      {"all-open marker beside a closed-only relation",
       [=](Universe* u) {
         AnnotatedInstance t;
         t.Add("R", {u->Const("a"), u->FreshNull()}, {cl, cl});
         t.Add("S", AnnotatedTuple::EmptyMarker({op}));
         t.Add("Q", AnnotatedTuple::EmptyMarker({cl, cl}));
         return t;
       },
       {"c"},
       Opts(1, 2, 24, SIZE_MAX)},
      {"1-to-m replication",
       [=](Universe* u) {
         AnnotatedInstance t;
         t.Add("R", {u->FreshNull(), u->Const("c")}, {cl, op});
         t.Add("R", {u->FreshNull(), u->Const("c")}, {cl, op});
         return t;
       },
       {"a"},
       Opts(1, SIZE_MAX, 24, 2)},
      {"truncated universe",
       [=](Universe* u) {
         AnnotatedInstance t;
         t.Add("R", {u->FreshNull(), u->Const("c")}, {op, op});
         return t;
       },
       {"a", "b"},
       Opts(2, 2, 3, SIZE_MAX)},
      {"universe exactly full",
       [=](Universe* u) {
         AnnotatedInstance t;
         t.Add("R", {u->Const("a")}, {op});
         t.Add("R", {u->Const("b")}, {op});
         return t;
       },
       {},
       Opts(2, SIZE_MAX, 2, SIZE_MAX)},
  };
}

TEST(MemberImage, EveryMemberEqualsAFreshlyBuiltOne) {
  for (const ImageCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    Universe u;
    AnnotatedInstance t = c.build(&u);
    std::vector<Value> fixed;
    for (const std::string& name : c.fixed) fixed.push_back(u.Const(name));

    Reference ref = ReferenceMembers(t, fixed, &u, c.options);
    ASSERT_FALSE(ref.members.empty());

    RepAMemberEnumerator en(t, fixed, &u, c.options);
    std::vector<Rows> seen;
    Status st = en.ForEachMember([&](const Instance& member) {
      seen.push_back(RowsOf(member));
      return true;
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(seen.size(), ref.members.size());
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], ref.members[i]) << "member " << i;
    }
    EXPECT_EQ(en.members_visited(), ref.members.size());
    EXPECT_EQ(en.exhausted(), !ref.truncated);
  }
}

TEST(MemberImage, ShardImagesVisitTheSameMembers) {
  // Under fan-out every shard edits its own image; together they visit
  // the oracle's members (in shard-interleaved order).
  for (const ImageCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    Universe u;
    AnnotatedInstance t = c.build(&u);
    std::vector<Value> fixed;
    for (const std::string& name : c.fixed) fixed.push_back(u.Const(name));
    Reference ref = ReferenceMembers(t, fixed, &u, c.options);

    EngineContext ctx;
    ctx.shards = 3;
    RepAMemberEnumerator en(t, fixed, &u, c.options, &ctx);
    std::vector<std::vector<Rows>> per_shard(ctx.shards);
    Status st = en.ForEachMember(
        [&](const MemberShard& shard) -> RepAMemberEnumerator::ShardMemberFn {
          std::vector<Rows>* out = &per_shard[shard.index];
          return [out](const Instance& member) -> Result<bool> {
            out->push_back(RowsOf(member));
            return true;
          };
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::multiset<Rows> got, want(ref.members.begin(), ref.members.end());
    for (const std::vector<Rows>& s : per_shard) got.insert(s.begin(), s.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(en.exhausted(), !ref.truncated);
  }
}

// Regression: the extra-tuple universe used to check its size cap before
// skipping base tuples and duplicates, so a universe holding exactly
// max_universe distinct extras, followed only by base or duplicate
// candidates, read as truncated although every member was visited.
TEST(MemberImage, ExactlyFullUniverseIsNotTruncated) {
  Universe u;
  AnnotatedInstance t;
  t.Add("R", {u.Const("a")}, {Ann::kOpen});
  t.Add("R", {u.Const("b")}, {Ann::kOpen});
  MemberEnumOptions options;
  options.fresh_pool = 2;
  options.max_universe = 2;
  RepAMemberEnumerator en(t, {}, &u, options);
  Status st = en.ForEachMember([](const Instance&) { return true; });
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Extras R(#e0), R(#e1): the base alone, each one, and both.
  EXPECT_EQ(en.members_visited(), 4u);
  EXPECT_EQ(en.outcome(), EnumOutcome::kExhausted);

  // One more fresh constant makes a third distinct extra: truncated.
  options.fresh_pool = 3;
  RepAMemberEnumerator over(t, {}, &u, options);
  st = over.ForEachMember([](const Instance&) { return true; });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(over.outcome(), EnumOutcome::kTruncated);
}

}  // namespace
}  // namespace ocdx
