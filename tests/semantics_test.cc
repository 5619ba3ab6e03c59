// Unit tests for src/semantics: Rep/RepA membership, homomorphisms,
// solution checking, solution-space membership (Theorem 2), and the
// up-to-isomorphism valuation enumerator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "certain/member_enum.h"
#include "chase/canonical.h"
#include "mapping/rule_parser.h"
#include "semantics/homomorphism.h"
#include "semantics/iso_enum.h"
#include "semantics/membership.h"
#include "semantics/repa.h"
#include "semantics/solutions.h"
#include "util/combinatorics.h"
#include "util/str.h"

namespace ocdx {
namespace {

class SemanticsTest : public ::testing::Test {
 protected:
  Mapping MustParse(const std::string& rules, const Schema& src,
                    const Schema& tgt, Ann def = Ann::kClosed) {
    Result<Mapping> m = ParseMapping(rules, src, tgt, &u_, def);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? m.value() : Mapping();
  }

  bool MustInRepA(const AnnotatedInstance& t, const Instance& r) {
    Result<bool> res = InRepA(t, r);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() && res.value();
  }

  Universe u_;
};

// Paper, Section 3: "RepA({(a^cl, n^op)}) contains all relations whose
// projection on the first attribute is {a}".
TEST_F(SemanticsTest, RepAOpenNullReplicates) {
  AnnotatedInstance t;
  Value n = u_.FreshNull();
  t.Add("R", {u_.Const("a"), n}, {Ann::kClosed, Ann::kOpen});

  Instance r1;  // {(a,b), (a,c)}: first projection {a} -> member.
  r1.Add("R", {u_.Const("a"), u_.Const("b")});
  r1.Add("R", {u_.Const("a"), u_.Const("c")});
  EXPECT_TRUE(MustInRepA(t, r1));

  Instance r2;  // {(a,b), (d,c)}: d breaks the closed first column.
  r2.Add("R", {u_.Const("a"), u_.Const("b")});
  r2.Add("R", {u_.Const("d"), u_.Const("c")});
  EXPECT_FALSE(MustInRepA(t, r2));

  Instance r3;  // Empty: misses the mandatory v-image.
  r3.GetOrCreate("R", 2);
  EXPECT_FALSE(MustInRepA(t, r3));
}

// Paper, Section 3: "RepA({(a^cl, n^cl)}) contains all one-tuple
// relations {(a, b)}".
TEST_F(SemanticsTest, RepAClosedNullIsExact) {
  AnnotatedInstance t;
  Value n = u_.FreshNull();
  t.Add("R", {u_.Const("a"), n}, AllClosed(2));

  Instance one;
  one.Add("R", {u_.Const("a"), u_.Const("b")});
  EXPECT_TRUE(MustInRepA(t, one));

  Instance two;
  two.Add("R", {u_.Const("a"), u_.Const("b")});
  two.Add("R", {u_.Const("a"), u_.Const("c")});
  EXPECT_FALSE(MustInRepA(t, two));
}

// Repeated nulls must be valuated consistently (naive-table semantics).
TEST_F(SemanticsTest, RepRepeatedNullsEquate) {
  Value n = u_.FreshNull();
  Instance t;
  t.Add("R", {n, n});
  Instance good;
  good.Add("R", {u_.Const("a"), u_.Const("a")});
  Instance bad;
  bad.Add("R", {u_.Const("a"), u_.Const("b")});
  EXPECT_TRUE(InRep(t, good).value());
  EXPECT_FALSE(InRep(t, bad).value());
}

// Two annotated tuples can share a null across relations.
TEST_F(SemanticsTest, RepASharedNullAcrossRelations) {
  Value n = u_.FreshNull();
  AnnotatedInstance t;
  t.Add("A", {n}, AllClosed(1));
  t.Add("B", {n}, AllClosed(1));
  Instance good;
  good.Add("A", {u_.Const("c")});
  good.Add("B", {u_.Const("c")});
  Instance bad;
  bad.Add("A", {u_.Const("c")});
  bad.Add("B", {u_.Const("d")});
  EXPECT_TRUE(MustInRepA(t, good));
  EXPECT_FALSE(MustInRepA(t, bad));
}

// All-open empty markers license arbitrary tuples (and the empty table);
// other markers do not change the semantics.
TEST_F(SemanticsTest, EmptyMarkers) {
  AnnotatedInstance all_open;
  all_open.Add("R", AnnotatedTuple::EmptyMarker(AllOpen(2)));
  Instance anything;
  anything.Add("R", {u_.Const("x"), u_.Const("y")});
  Instance empty;
  empty.GetOrCreate("R", 2);
  EXPECT_TRUE(MustInRepA(all_open, anything));
  EXPECT_TRUE(MustInRepA(all_open, empty));

  AnnotatedInstance closed_marker;
  closed_marker.Add("R", AnnotatedTuple::EmptyMarker(AllClosed(2)));
  EXPECT_FALSE(MustInRepA(closed_marker, anything));
  EXPECT_TRUE(MustInRepA(closed_marker, empty));
}

TEST_F(SemanticsTest, RepARejectsNonGround) {
  AnnotatedInstance t;
  t.Add("R", {u_.Const("a")}, AllClosed(1));
  Instance with_null;
  with_null.Add("R", {u_.FreshNull()});
  EXPECT_FALSE(InRepA(t, with_null).ok());
}

// --- Homomorphisms ---------------------------------------------------------

TEST_F(SemanticsTest, FindHomomorphismBasic) {
  Value n1 = u_.FreshNull(), n2 = u_.FreshNull(), m1 = u_.FreshNull();
  AnnotatedInstance a, b;
  a.Add("R", {u_.Const("a"), n1}, AllClosed(2));
  a.Add("R", {u_.Const("a"), n2}, AllClosed(2));
  b.Add("R", {u_.Const("a"), m1}, AllClosed(2));
  // n1, n2 -> m1 works.
  auto h = FindHomomorphism(a, b);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h.value().has_value());
  EXPECT_EQ(h.value()->Apply(n1), m1);
  EXPECT_EQ(h.value()->Apply(n2), m1);
  // No homomorphism the other way if constants differ.
  AnnotatedInstance c;
  c.Add("R", {u_.Const("b"), m1}, AllClosed(2));
  auto none = FindHomomorphism(a, c);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());
}

TEST_F(SemanticsTest, HomomorphismPreservesAnnotations) {
  Value n1 = u_.FreshNull(), m1 = u_.FreshNull();
  AnnotatedInstance a, b;
  a.Add("R", {u_.Const("a"), n1}, AllClosed(2));
  b.Add("R", {u_.Const("a"), m1}, AllOpen(2));
  auto h = FindHomomorphism(a, b);
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(h.value().has_value()) << "annotations differ";
}

TEST_F(SemanticsTest, HomomorphismMapsNullsToNullsOnly) {
  Value n1 = u_.FreshNull();
  AnnotatedInstance a, b;
  a.Add("R", {n1}, AllClosed(1));
  b.Add("R", {u_.Const("c")}, AllClosed(1));
  auto h = FindHomomorphism(a, b);
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(h.value().has_value());
}

// --- CWA solutions (Section 2 running example) ------------------------------

class CwaTest : public SemanticsTest {
 protected:
  void SetUp() override {
    src_.Add("E", 2);
    tgt_.Add("R", 2);
    mapping_ = MustParse("R(x, z) :- E(x, y);", src_, tgt_, Ann::kClosed);
    s_.Add("E", {u_.Const("a"), u_.Const("c1")});
    s_.Add("E", {u_.Const("a"), u_.Const("c2")});
    s_.Add("E", {u_.Const("b"), u_.Const("c3")});
  }
  Schema src_, tgt_;
  Mapping mapping_;
  Instance s_;
};

TEST_F(CwaTest, PaperExampleSolutionsAndNonSolutions) {
  // {(a, n), (b, n')} is a CWA-solution.
  Value n = u_.FreshNull(), np = u_.FreshNull();
  Instance good;
  good.Add("R", {u_.Const("a"), n});
  good.Add("R", {u_.Const("b"), np});
  EXPECT_TRUE(IsCwaSolution(mapping_, s_, good, &u_).value());

  // {(a, n), (b, n)} equates unjustified facts: NOT a CWA-solution.
  Instance bad;
  bad.Add("R", {u_.Const("a"), n});
  bad.Add("R", {u_.Const("b"), n});
  EXPECT_FALSE(IsCwaSolution(mapping_, s_, bad, &u_).value());

  // The canonical solution itself is always a CWA-solution.
  Result<CanonicalSolution> csol = Chase(mapping_, s_, &u_);
  ASSERT_TRUE(csol.ok());
  EXPECT_TRUE(IsCwaSolution(mapping_, s_, csol.value().Plain(), &u_).value());

  // An instance with an extra unjustified tuple is not (not an image).
  Instance extra = csol.value().Plain();
  extra.Add("R", {u_.Const("zz"), u_.Const("ww")});
  EXPECT_FALSE(IsCwaSolution(mapping_, s_, extra, &u_).value());
}

TEST_F(CwaTest, OwaSolutionsAreOpenToExtension) {
  Value n = u_.FreshNull();
  Instance minimal;
  minimal.Add("R", {u_.Const("a"), n});
  minimal.Add("R", {u_.Const("b"), n});
  // Under OWA this *is* a solution: every E-tuple has an R-witness.
  EXPECT_TRUE(IsOwaSolution(mapping_, s_, minimal, u_).value());
  Instance extended = minimal;
  extended.Add("R", {u_.Const("zz"), u_.Const("ww")});
  EXPECT_TRUE(IsOwaSolution(mapping_, s_, extended, u_).value());
  Instance not_solution;
  not_solution.Add("R", {u_.Const("a"), n});
  EXPECT_FALSE(IsOwaSolution(mapping_, s_, not_solution, u_).value());
}

// --- Sigma-alpha solutions (Section 3 example) -------------------------------

TEST_F(SemanticsTest, Section3SolutionExample) {
  // STD: R(x^op, z1^cl), R(y^cl, z2^cl) :- S(x, y); source S = {(a,b)}.
  Schema src, tgt;
  src.Add("S", 2);
  tgt.Add("R", 2);
  Mapping m =
      MustParse("R(x^op, z1^cl), R(y^cl, z2^cl) :- S(x, y);", src, tgt);
  Instance s;
  s.Add("S", {u_.Const("a"), u_.Const("b")});

  Result<CanonicalSolution> csol = Chase(m, s, &u_);
  ASSERT_TRUE(csol.ok());
  ASSERT_EQ(csol.value().annotated.Nulls().size(), 2u);

  // The canonical solution is a solution.
  EXPECT_TRUE(
      IsSigmaAlphaSolutionGiven(csol.value().annotated, csol.value().annotated)
          .value());

  // The paper's example: equating the two nulls still yields a solution
  // (the open first position of the first atom absorbs the b-tuple).
  Value n1, n2;
  for (Value v : csol.value().annotated.Nulls()) {
    const NullInfo& info = u_.null_info(v);
    if (info.var == "z1") n1 = v;
    if (info.var == "z2") n2 = v;
  }
  ASSERT_TRUE(n1.IsValid());
  ASSERT_TRUE(n2.IsValid());
  AnnotatedInstance equated;
  equated.Add("R", {u_.Const("a"), n1}, {Ann::kOpen, Ann::kClosed});
  equated.Add("R", {u_.Const("b"), n1}, {Ann::kClosed, Ann::kClosed});
  EXPECT_TRUE(
      IsSigmaAlphaSolutionGiven(csol.value().annotated, equated).value());
}

// --- Solution-space membership (Theorem 2) ----------------------------------

class MembershipTest : public SemanticsTest {
 protected:
  void SetUp() override {
    src_.Add("E", 2);
    tgt_.Add("R", 2);
    s_.Add("E", {u_.Const("a"), u_.Const("c1")});
    s_.Add("E", {u_.Const("a"), u_.Const("c2")});
    s_.Add("E", {u_.Const("b"), u_.Const("c3")});
  }
  Schema src_, tgt_;
  Instance s_;
};

TEST_F(MembershipTest, AllOpenUsesPtimePath) {
  Mapping m = MustParse("R(x^op, z^op) :- E(x, y);", src_, tgt_);
  Instance t;
  t.Add("R", {u_.Const("a"), u_.Const("v")});
  t.Add("R", {u_.Const("b"), u_.Const("w")});
  t.Add("R", {u_.Const("extra"), u_.Const("extra")});  // OWA allows junk.
  Result<MembershipResult> r = InSolutionSpace(m, s_, t, &u_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().member);
  EXPECT_TRUE(r.value().used_ptime_path);

  Instance missing;  // b has no R-witness.
  missing.Add("R", {u_.Const("a"), u_.Const("v")});
  EXPECT_FALSE(InSolutionSpace(m, s_, missing, &u_).value().member);
}

TEST_F(MembershipTest, ClosedFirstAttributeForbidsJunk) {
  Mapping m = MustParse("R(x^cl, z^op) :- E(x, y);", src_, tgt_);
  Instance t;
  t.Add("R", {u_.Const("a"), u_.Const("v")});
  t.Add("R", {u_.Const("b"), u_.Const("w")});
  Result<MembershipResult> ok = InSolutionSpace(m, s_, t, &u_);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value().member);
  EXPECT_FALSE(ok.value().used_ptime_path);

  Instance junk = t;
  junk.Add("R", {u_.Const("zzz"), u_.Const("w")});
  EXPECT_FALSE(InSolutionSpace(m, s_, junk, &u_).value().member)
      << "closed first attribute only admits source papers";
}

TEST_F(MembershipTest, AllClosedIsExactValuationImage) {
  Mapping m = MustParse("R(x^cl, z^cl) :- E(x, y);", src_, tgt_);
  // v(n1)=v1, v(n2)=v2, v(n3)=w : member.
  Instance t;
  t.Add("R", {u_.Const("a"), u_.Const("v1")});
  t.Add("R", {u_.Const("a"), u_.Const("v2")});
  t.Add("R", {u_.Const("b"), u_.Const("w")});
  EXPECT_TRUE(InSolutionSpace(m, s_, t, &u_).value().member);
  // Collapsing both a-tuples is fine (v(n1)=v(n2)=v1).
  Instance collapsed;
  collapsed.Add("R", {u_.Const("a"), u_.Const("v1")});
  collapsed.Add("R", {u_.Const("b"), u_.Const("w")});
  EXPECT_TRUE(InSolutionSpace(m, s_, collapsed, &u_).value().member);
  // Extra second value for 'a' is NOT allowed when z is closed.
  Instance extra = collapsed;
  extra.Add("R", {u_.Const("a"), u_.Const("v2")});
  extra.Add("R", {u_.Const("a"), u_.Const("v3")});
  EXPECT_FALSE(InSolutionSpace(m, s_, extra, &u_).value().member);
}

// --- Valuation enumeration ---------------------------------------------------

TEST_F(SemanticsTest, ValuationEnumeratorCountsAndCoverage) {
  std::vector<Value> nulls = {u_.FreshNull(), u_.FreshNull()};
  std::vector<Value> fixed = {u_.Const("a")};
  ValuationEnumerator en(nulls, fixed, &u_);
  // Partitions of 2 nulls: {{0,1}}, {{0},{1}}.
  //  - one block: assign a or fresh           -> 2
  //  - two blocks: (a,fresh),(fresh,a),(fresh,fresh) -> 3  [no (a,a)]
  int count = 0;
  Valuation v;
  std::set<std::pair<uint64_t, uint64_t>> images;
  while (en.Next(&v)) {
    ++count;
    images.insert({v.Apply(nulls[0]).raw(), v.Apply(nulls[1]).raw()});
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(images.size(), 5u) << "representatives must be pairwise distinct";
}

TEST_F(SemanticsTest, ValuationEnumeratorEmptyNulls) {
  ValuationEnumerator en({}, {u_.Const("a")}, &u_);
  Valuation v;
  EXPECT_TRUE(en.Next(&v));
  EXPECT_EQ(v.size(), 0u);
  EXPECT_FALSE(en.Next(&v));
}

TEST_F(SemanticsTest, ValuationEnumeratorResetsAForeignValuation) {
  // Next overwrites a Valuation that already maps exactly its nulls (the
  // member loops reuse one); any other Valuation is reset first, so no
  // stale entry survives, whatever the caller passes in.
  std::vector<Value> nulls = {u_.FreshNull(), u_.FreshNull()};
  Value stranger = u_.FreshNull();
  Valuation same_size;  // Two entries, one of them not a null of ours.
  same_size.Set(nulls[0], u_.Const("z"));
  same_size.Set(stranger, u_.Const("z"));
  Valuation larger = same_size;
  larger.Set(nulls[1], u_.Const("z"));
  for (Valuation v : {same_size, larger, Valuation()}) {
    ValuationEnumerator en(nulls, {u_.Const("a")}, &u_);
    ValuationEnumerator fresh(nulls, {u_.Const("a")}, &u_);
    Valuation want;
    while (en.Next(&v)) {
      ASSERT_TRUE(fresh.Next(&want));
      EXPECT_EQ(v.entries(), want.entries());
      EXPECT_FALSE(v.Defined(stranger));
      want = Valuation();  // The reference is rebuilt from empty.
    }
    EXPECT_FALSE(fresh.Next(&want));
  }
}

TEST_F(SemanticsTest, ValuationEnumeratorRepresentsAllIsoClasses) {
  // With 3 nulls and fixed {a}, every concrete valuation into {a, x, y}
  // must be isomorphic (fixing a) to some enumerated representative.
  std::vector<Value> nulls = {u_.FreshNull(), u_.FreshNull(), u_.FreshNull()};
  Value a = u_.Const("a");
  std::vector<Value> pool = {a, u_.Const("x"), u_.Const("y")};
  // Collect representative equality-patterns: (i~j equalities, =a flags).
  auto pattern = [&](const Valuation& v) {
    std::string p;
    for (size_t i = 0; i < nulls.size(); ++i) {
      for (size_t j = i + 1; j < nulls.size(); ++j) {
        p += v.Apply(nulls[i]) == v.Apply(nulls[j]) ? '1' : '0';
      }
      p += v.Apply(nulls[i]) == a ? 'A' : '.';
    }
    return p;
  };
  std::set<std::string> rep_patterns;
  ValuationEnumerator en(nulls, {a}, &u_);
  Valuation v;
  while (en.Next(&v)) rep_patterns.insert(pattern(v));

  // Enumerate all 27 concrete valuations into the pool.
  AssignmentEnumerator ae(3, pool.size());
  while (ae.Next()) {
    Valuation w;
    for (size_t i = 0; i < 3; ++i) w.Set(nulls[i], pool[ae.digits()[i]]);
    EXPECT_TRUE(rep_patterns.count(pattern(w)))
        << "missing isomorphism class " << pattern(w);
  }
}

// The enumerator's order, pinned against its definition: partitions in
// restricted-growth order, and per partition every block assignment over
// {fixed..., fresh} in lexicographic order (last block fastest), minus
// those where two blocks share a fixed constant. The reference builds
// every assignment with AssignmentEnumerator and rejects — the
// enumerator generates only the injective ones, and must yield exactly
// this sequence, fresh names included.
std::vector<std::vector<Value>> ReferenceValuations(
    const std::vector<Value>& nulls, const std::vector<Value>& distinguished,
    Universe* u) {
  std::set<Value> dedup(distinguished.begin(), distinguished.end());
  const std::vector<Value> fixed(dedup.begin(), dedup.end());
  size_t offset = 0;
  for (Value c : fixed) {
    const std::string& name = u->Describe(c);
    if (name.rfind("#f", 0) == 0) {
      offset = std::max<size_t>(offset, std::stoul(name.substr(2)) + 1);
    }
  }
  std::vector<std::vector<Value>> out;
  PartitionEnumerator partitions(nulls.size());
  while (partitions.Next()) {
    const uint32_t k = partitions.num_blocks();
    AssignmentEnumerator assign(k, fixed.size() + 1);
    while (assign.Next()) {
      const std::vector<uint32_t>& d = assign.digits();
      std::vector<bool> used(fixed.size(), false);
      bool injective = true;
      for (uint32_t digit : d) {
        if (digit == fixed.size()) continue;
        injective = injective && !used[digit];
        used[digit] = true;
      }
      if (!injective) continue;
      std::vector<Value> images;
      for (uint32_t b : partitions.blocks()) {
        images.push_back(d[b] < fixed.size()
                             ? fixed[d[b]]
                             : u->Const(StrCat("#f", offset + b)));
      }
      out.push_back(std::move(images));
    }
  }
  return out;
}

TEST_F(SemanticsTest, ValuationEnumeratorMatchesRejectFilterReference) {
  // "#f3" among the fixed constants moves the fresh names to "#f4" on.
  const std::vector<Value> pool = {u_.Const("b"), u_.Const("#f3"),
                                   u_.Const("a"), u_.Const("c")};
  for (size_t n = 0; n <= 5; ++n) {
    std::vector<Value> nulls;
    for (size_t i = 0; i < n; ++i) nulls.push_back(u_.FreshNull());
    for (size_t f = 0; f <= pool.size(); ++f) {
      SCOPED_TRACE(StrCat("nulls=", n, " fixed=", f));
      std::vector<Value> fixed(pool.begin(), pool.begin() + f);
      if (f > 0) fixed.push_back(pool[0]);  // Duplicates are dropped.
      std::vector<std::vector<Value>> want =
          ReferenceValuations(nulls, fixed, &u_);
      ValuationEnumerator en(nulls, fixed, &u_);
      std::vector<std::vector<Value>> got;
      ValuationOrdinal last;
      while (en.Advance()) {
        got.push_back(en.images());
        if (got.size() > 1) {
          EXPECT_LT(last, en.ordinal());
        }
        last = en.ordinal();
      }
      EXPECT_EQ(got, want);
      // Next(Valuation*) walks the same sequence.
      ValuationEnumerator again(nulls, fixed, &u_);
      Valuation v;
      size_t i = 0;
      while (again.Next(&v)) {
        ASSERT_LT(i, want.size());
        for (size_t j = 0; j < n; ++j) {
          EXPECT_EQ(v.Apply(nulls[j]), want[i][j]);
        }
        ++i;
      }
      EXPECT_EQ(i, want.size());
    }
  }
}

// Enumerators sharing one prefix counter split the valuations between
// them: driven round-robin (one thread, so the interleaving is fixed),
// together they yield each sequential valuation exactly once, and their
// ordinals sort the union back into the sequential order. The last case
// reduces by a twin group, so many of its prefixes hold no valuation.
TEST_F(SemanticsTest, ValuationEnumeratorsSharingPrefixesCoverOnce) {
  struct Case {
    std::vector<Value> nulls;
    std::vector<Value> fixed;
    std::vector<TwinClass> twins;
  };
  std::vector<Case> cases;
  for (size_t n : {size_t{0}, size_t{1}, size_t{4}}) {
    Case c;
    for (size_t i = 0; i < n; ++i) c.nulls.push_back(u_.FreshNull());
    c.fixed = {u_.Const("a"), u_.Const("b")};
    cases.push_back(std::move(c));
  }
  {
    // Rows (c_i, n_i): the four rows are twins.
    Case c;
    TwinClass twin;
    for (int i = 0; i < 4; ++i) {
      c.nulls.push_back(u_.FreshNull());
      c.fixed.push_back(u_.Const(StrCat("c", i)));
      twin.members.push_back({c.fixed.back(), c.nulls.back()});
    }
    c.fixed.push_back(u_.Const("a"));
    c.twins.push_back(std::move(twin));
    cases.push_back(std::move(c));
  }
  for (const Case& c : cases) {
    const size_t n = c.nulls.size();
    std::vector<std::vector<Value>> sequential;
    std::set<uint64_t> nonempty;
    ValuationEnumerator seq(c.nulls, c.fixed, &u_, nullptr, c.twins);
    while (seq.Advance()) {
      sequential.push_back(seq.images());
      nonempty.insert(seq.ordinal().prefix);
    }
    if (!c.twins.empty()) {
      EXPECT_LT(nonempty.size(), *nonempty.rbegin() + 1)
          << "some prefix must hold no valuation";
    }

    for (size_t k : {size_t{2}, size_t{3}, size_t{8}}) {
      SCOPED_TRACE(StrCat("nulls=", n, " twins=", c.twins.size(),
                          " enumerators=", k));
      std::atomic<uint64_t> tickets{0};
      std::vector<std::unique_ptr<ValuationEnumerator>> ens;
      for (size_t i = 0; i < k; ++i) {
        ens.push_back(std::make_unique<ValuationEnumerator>(
            c.nulls, c.fixed, &u_, &tickets, c.twins));
      }
      std::vector<std::pair<ValuationOrdinal, std::vector<Value>>> seen;
      std::vector<bool> done(k, false);
      std::set<size_t> producers;
      for (size_t live = k; live > 0;) {
        live = 0;
        for (size_t i = 0; i < k; ++i) {
          if (done[i]) continue;
          if (!ens[i]->Advance()) {
            done[i] = true;
            continue;
          }
          ++live;
          producers.insert(i);
          seen.emplace_back(ens[i]->ordinal(), ens[i]->images());
        }
      }
      std::sort(seen.begin(), seen.end());
      ASSERT_EQ(seen.size(), sequential.size());
      for (size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].second, sequential[i]) << "position " << i;
        if (i > 0) {
          EXPECT_LT(seen[i - 1].first, seen[i].first);
        }
      }
      if (n == 4) {
        EXPECT_EQ(producers.size(), k);  // 45 or more prefixes to share.
      }
    }
  }
}

// --- Twin symmetry -----------------------------------------------------------

// k rows (c_i, n_i) whose constants no check names: the k rows are twins,
// and the symmetric group on them swaps nulls and constants together.
struct TwinRows {
  std::vector<Value> nulls;
  std::vector<Value> constants;
  TwinClass twin;
};

TwinRows MakeTwinRows(size_t k, Universe* u) {
  TwinRows rows;
  for (size_t i = 0; i < k; ++i) {
    rows.nulls.push_back(u->FreshNull());
    rows.constants.push_back(u->Const(StrCat("c", i)));
    rows.twin.members.push_back({rows.constants.back(), rows.nulls.back()});
  }
  return rows;
}

// A valuation up to the renaming of fresh constants: per null, a named
// constant, or the number of the fresh constant in order of first use.
std::vector<uint64_t> IsoKey(const std::vector<Value>& images,
                             const std::vector<Value>& named) {
  std::vector<uint64_t> key;
  std::map<Value, uint64_t> fresh;
  for (Value v : images) {
    if (std::find(named.begin(), named.end(), v) != named.end()) {
      key.push_back(v.raw());
    } else {
      key.push_back(UINT64_MAX - fresh.emplace(v, fresh.size()).first->second);
    }
  }
  return key;
}

// The orbit counts of k twin rows: 20, 61 and 174 lex-least valuations
// for k = 3, 4, 5, where the unreduced enumeration yields 77, 799 and
// 10,427. RepAMemberEnumerator finds the same twins in the instance
// itself and visits one member per orbit.
TEST_F(SemanticsTest, TwinRowsYieldOneValuationPerOrbit) {
  const std::map<size_t, std::pair<uint64_t, uint64_t>> want = {
      {3, {77, 20}}, {4, {799, 61}}, {5, {10427, 174}}};
  for (const auto& [k, counts] : want) {
    SCOPED_TRACE(StrCat("k=", k));
    Universe u;
    TwinRows rows = MakeTwinRows(k, &u);
    uint64_t unreduced = 0, reduced = 0;
    ValuationEnumerator all(rows.nulls, rows.constants, &u);
    while (all.Advance()) ++unreduced;
    ValuationEnumerator orbits(rows.nulls, rows.constants, &u, nullptr,
                               {rows.twin});
    while (orbits.Advance()) ++reduced;
    EXPECT_EQ(unreduced, counts.first);
    EXPECT_EQ(reduced, counts.second);

    AnnotatedInstance t;
    for (size_t i = 0; i < k; ++i) {
      t.Add("R", {rows.constants[i], rows.nulls[i]},
            {Ann::kClosed, Ann::kClosed});
    }
    for (bool named : {false, true}) {
      // Naming the constants fixes them: the rows are no longer twins.
      RepAMemberEnumerator en(t, named ? rows.constants : std::vector<Value>{},
                              &u);
      ASSERT_TRUE(en.ForEachMember([](const Instance&) { return true; }).ok());
      EXPECT_EQ(en.members_visited(), named ? counts.first : counts.second);
    }
  }
}

// Brute force over all k! elements of the group: every unreduced
// representative maps onto exactly one reduced representative.
TEST_F(SemanticsTest, EveryValuationMapsOntoExactlyOneTwinRepresentative) {
  for (size_t k : {size_t{2}, size_t{3}, size_t{4}}) {
    SCOPED_TRACE(StrCat("k=", k));
    Universe u;
    TwinRows rows = MakeTwinRows(k, &u);
    std::vector<Value> named = rows.constants;
    named.push_back(u.Const("a"));  // Fixed by every element.
    std::set<std::vector<uint64_t>> reduced;
    ValuationEnumerator orbits(rows.nulls, named, &u, nullptr, {rows.twin});
    while (orbits.Advance()) {
      EXPECT_TRUE(reduced.insert(IsoKey(orbits.images(), named)).second);
    }
    std::vector<size_t> sigma(k);
    std::iota(sigma.begin(), sigma.end(), 0);
    std::vector<std::vector<size_t>> group;
    do {
      group.push_back(sigma);
    } while (std::next_permutation(sigma.begin(), sigma.end()));

    size_t unreduced = 0;
    ValuationEnumerator all(rows.nulls, named, &u);
    while (all.Advance()) {
      ++unreduced;
      const std::vector<Value>& v = all.images();
      std::set<std::vector<uint64_t>> hits;
      for (const std::vector<size_t>& g : group) {
        // The element maps row i onto row g[i]: the image valuation
        // sends n_{g[i]} to the image of v(n_i) (c_i -> c_{g[i]}).
        std::vector<Value> image(k);
        for (size_t i = 0; i < k; ++i) {
          Value w = v[i];
          auto c = std::find(rows.constants.begin(), rows.constants.end(), w);
          if (c != rows.constants.end()) {
            w = rows.constants[g[c - rows.constants.begin()]];
          }
          image[g[i]] = w;
        }
        std::vector<uint64_t> key = IsoKey(image, named);
        if (reduced.count(key) > 0) hits.insert(key);
      }
      EXPECT_EQ(hits.size(), 1u) << "valuation " << unreduced;
    }
    EXPECT_LT(reduced.size(), unreduced);
  }
}

}  // namespace
}  // namespace ocdx
