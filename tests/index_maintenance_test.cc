// Randomized differential stress tests for incremental index maintenance
// and the arena tuple store: interleave Add / AddAll / Probe / ProbeProper
// on both relation types and assert, at every step, that the maintained
// indexes answer exactly like an index rebuilt from scratch over a shadow
// copy of the data. This is the oracle that pins the PR-2 storage
// overhaul: index buckets absorbing appends in place, bucket-pointer
// stability, dedup through the flat hash table, and span validity across
// arena growth.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/arena.h"
#include "base/dedup.h"
#include "base/instance.h"
#include "base/relation.h"
#include "base/tuple_index.h"
#include "util/rng.h"

namespace ocdx {
namespace {

// A small value pool keeps key collisions frequent (buckets with many
// ids, duplicate Adds) without blowing up the reference rebuilds.
std::vector<Value> MakePool(Universe* u, size_t consts, size_t nulls) {
  std::vector<Value> pool;
  for (size_t i = 0; i < consts; ++i) {
    pool.push_back(u->Const(std::string(1, 'a' + static_cast<char>(i))));
  }
  for (size_t i = 0; i < nulls; ++i) pool.push_back(u->FreshNull());
  return pool;
}

Tuple RandomTuple(const std::vector<Value>& pool, size_t arity, Rng* rng) {
  Tuple t(arity);
  for (size_t p = 0; p < arity; ++p) t[p] = pool[rng->Below(pool.size())];
  return t;
}

// ---------------------------------------------------------------------------
// Relation: Add / AddAll / Probe vs a from-scratch rebuild.
// ---------------------------------------------------------------------------

class RelationMaintenance : public ::testing::TestWithParam<int> {};

TEST_P(RelationMaintenance, ProbesMatchScratchRebuildAtEveryStep) {
  const size_t kArity = 3;
  const size_t kOps = 2500;  // x4 instantiations > 10k randomized ops.
  Universe u;
  Rng rng(52100 + GetParam());
  std::vector<Value> pool = MakePool(&u, 4, 3);

  Relation rel(kArity);
  std::vector<Tuple> shadow;          // Insertion-order reference rows.
  std::set<Tuple> shadow_set;         // Reference dedup.
  const uint64_t all_masks = (uint64_t{1} << kArity) - 1;

  index_maintenance_stats().Reset();
  std::set<uint64_t> probed_masks;

  for (size_t op = 0; op < kOps; ++op) {
    switch (rng.Below(4)) {
      case 0: {  // Single Add (often a duplicate).
        Tuple t = RandomTuple(pool, kArity, &rng);
        bool fresh = shadow_set.insert(t).second;
        if (fresh) shadow.push_back(t);
        EXPECT_EQ(rel.Add(t), fresh);
        break;
      }
      case 1: {  // Batch AddAll.
        size_t n = 1 + rng.Below(6);
        Tuple flat;
        size_t expect_added = 0;
        for (size_t i = 0; i < n; ++i) {
          Tuple t = RandomTuple(pool, kArity, &rng);
          if (shadow_set.insert(t).second) {
            shadow.push_back(t);
            ++expect_added;
          }
          flat.insert(flat.end(), t.begin(), t.end());
        }
        EXPECT_EQ(rel.AddAll(flat), expect_added);
        break;
      }
      default: {  // Probe on a random mask/key.
        uint64_t mask = 1 + rng.Below(all_masks);
        probed_masks.insert(mask);
        Tuple key;
        for (uint64_t m = mask; m != 0; m &= m - 1) {
          key.push_back(pool[rng.Below(pool.size())]);
        }
        const std::vector<uint32_t>* ids = rel.Probe(mask, key);

        // Differential oracle: ids of shadow rows matching the key, in
        // insertion order (the rebuild-from-scratch answer).
        std::vector<uint32_t> expect;
        for (uint32_t id = 0; id < shadow.size(); ++id) {
          bool match = true;
          size_t ki = 0;
          for (uint64_t m = mask; m != 0; m &= m - 1) {
            size_t p = static_cast<size_t>(__builtin_ctzll(m));
            if (shadow[id][p] != key[ki++]) match = false;
          }
          if (match) expect.push_back(id);
        }
        if (expect.empty()) {
          // nullptr or an empty bucket are both "no match"; buckets are
          // never created empty, but this keeps the contract honest.
          EXPECT_TRUE(ids == nullptr || ids->empty());
        } else {
          ASSERT_NE(ids, nullptr);
          EXPECT_EQ(*ids, expect);
        }
        break;
      }
    }
    // Invariants at every step: size, dedup, row payloads.
    ASSERT_EQ(rel.size(), shadow.size());
  }

  // Full payload check once at the end (ids are insertion order).
  for (uint32_t id = 0; id < shadow.size(); ++id) {
    EXPECT_TRUE(rel.tuples()[id] == TupleRef(shadow[id]));
    EXPECT_TRUE(rel.Contains(shadow[id]));
  }

  // Zero full rebuilds: each probed mask built its index exactly once,
  // no matter how many Adds were interleaved.
  EXPECT_EQ(index_maintenance_stats().full_builds, probed_masks.size());
}

INSTANTIATE_TEST_SUITE_P(Random, RelationMaintenance, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Relation::Truncate: undoing Adds (the member image's pop) vs a shadow.
// ---------------------------------------------------------------------------

class RelationTruncate : public ::testing::TestWithParam<int> {};

TEST_P(RelationTruncate, MatchesShadowAfterInterleavedAddsAndTruncates) {
  const size_t kArity = 2;
  Universe u;
  Rng rng(77100 + GetParam());
  std::vector<Value> pool = MakePool(&u, 5, 2);

  Relation rel(kArity);
  std::vector<Tuple> shadow;
  const uint64_t all_masks = (uint64_t{1} << kArity) - 1;

  for (size_t op = 0; op < 3000; ++op) {
    switch (rng.Below(4)) {
      case 0:
      case 1: {  // Add (often a duplicate: then nothing to undo).
        Tuple t = RandomTuple(pool, kArity, &rng);
        bool fresh =
            std::find(shadow.begin(), shadow.end(), t) == shadow.end();
        if (fresh) shadow.push_back(t);
        EXPECT_EQ(rel.Add(t), fresh);
        break;
      }
      case 2: {  // Truncate to a random earlier size (or a no-op).
        size_t n = rng.Below(shadow.size() + 2);
        rel.Truncate(n);
        if (n < shadow.size()) shadow.resize(n);
        break;
      }
      default: {  // Probe a random mask, building or using its index.
        uint64_t mask = 1 + rng.Below(all_masks);
        Tuple key;
        for (uint64_t m = mask; m != 0; m &= m - 1) {
          key.push_back(pool[rng.Below(pool.size())]);
        }
        std::vector<uint32_t> expect;
        for (uint32_t id = 0; id < shadow.size(); ++id) {
          bool match = true;
          size_t ki = 0;
          for (uint64_t m = mask; m != 0; m &= m - 1) {
            if (shadow[id][static_cast<size_t>(__builtin_ctzll(m))] !=
                key[ki++]) {
              match = false;
            }
          }
          if (match) expect.push_back(id);
        }
        const std::vector<uint32_t>* ids = rel.Probe(mask, key);
        if (expect.empty()) {
          EXPECT_EQ(ids, nullptr) << "an emptied bucket reads as no match";
        } else {
          ASSERT_NE(ids, nullptr);
          EXPECT_EQ(*ids, expect);
        }
        break;
      }
    }
    ASSERT_EQ(rel.size(), shadow.size());
  }
  // Rows, dedup and the arena agree with the shadow; removed rows are
  // gone from the dedup table.
  for (uint32_t id = 0; id < shadow.size(); ++id) {
    EXPECT_TRUE(rel.tuples()[id] == TupleRef(shadow[id]));
    EXPECT_TRUE(rel.Contains(shadow[id]));
  }
  for (Value a : pool) {
    for (Value b : pool) {
      Tuple t = {a, b};
      bool in_shadow =
          std::find(shadow.begin(), shadow.end(), t) != shadow.end();
      EXPECT_EQ(rel.Contains(t), in_shadow);
    }
  }
  // A truncated relation serializes as its surviving rows (the arena
  // holds exactly the accepted rows): a copy equals the shadow in order.
  Relation copy = rel;
  ASSERT_EQ(copy.size(), shadow.size());
  for (uint32_t id = 0; id < shadow.size(); ++id) {
    EXPECT_TRUE(copy.tuples()[id] == TupleRef(shadow[id]));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, RelationTruncate, ::testing::Range(0, 4));

TEST(DedupIndexErase, BackwardShiftKeepsEveryProbeRunIntact) {
  // Hashes chosen to collide: homes 14, 15, 15, 0, 14 in a 16-slot table
  // make one probe run that wraps around the end. Erasing from the
  // middle of the run must shift later entries up (a tombstone-free
  // delete), in any order, not only newest-first.
  const size_t kHashes[] = {14, 15, 31, 16, 30, 3, 19};
  for (size_t victim = 0; victim < std::size(kHashes); ++victim) {
    DedupIndex index;
    for (uint32_t id = 0; id < std::size(kHashes); ++id) {
      index.Insert(kHashes[id], id);
    }
    index.Erase(kHashes[victim], static_cast<uint32_t>(victim));
    EXPECT_EQ(index.size(), std::size(kHashes) - 1);
    for (uint32_t id = 0; id < std::size(kHashes); ++id) {
      uint32_t found =
          index.Find(kHashes[id], [id](uint32_t got) { return got == id; });
      EXPECT_EQ(found, id == victim ? DedupIndex::kNone : id)
          << "victim " << victim << ", id " << id;
    }
  }
  // Erase everything in a scrambled order, re-checking the survivors.
  DedupIndex index;
  for (uint32_t id = 0; id < std::size(kHashes); ++id) {
    index.Insert(kHashes[id], id);
  }
  const uint32_t kOrder[] = {3, 0, 5, 1, 6, 2, 4};
  std::set<uint32_t> live(std::begin(kOrder), std::end(kOrder));
  for (uint32_t gone : kOrder) {
    index.Erase(kHashes[gone], gone);
    live.erase(gone);
    for (uint32_t id : live) {
      EXPECT_EQ(
          index.Find(kHashes[id], [id](uint32_t got) { return got == id; }),
          id);
    }
  }
  EXPECT_EQ(index.size(), 0u);
}

TEST(ValueArenaTruncate, ForgetsTheTailAcrossChunks) {
  Universe u;
  ValueArena arena;
  std::vector<ArenaRef> refs;
  std::vector<Value> all;
  // 100 three-value spans outgrow the first chunks (64, 128, ...).
  for (int i = 0; i < 100; ++i) {
    std::vector<Value> span = {u.IntConst(i), u.IntConst(i + 1),
                               u.IntConst(i + 2)};
    refs.push_back(arena.InternRef(span));
    all.insert(all.end(), span.begin(), span.end());
  }
  for (size_t keep : {size_t{90}, size_t{40}, size_t{21}, size_t{1}}) {
    arena.TruncateTo(refs[keep]);
    refs.resize(keep);
    all.resize(keep * 3);
    EXPECT_EQ(arena.size(), all.size());
    for (size_t i = 0; i < keep; ++i) {
      std::span<const Value> got = arena.Resolve(refs[i], 3);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), all.begin() + 3 * i));
    }
  }
  // Appending after a truncate reuses the freed space.
  ArenaRef next = arena.InternRef(std::vector<Value>{u.Const("z")});
  EXPECT_TRUE(next == (ArenaRef{0, 3}));
  EXPECT_EQ(arena.size(), 4u);
  EXPECT_EQ(arena.Resolve(next, 1)[0], u.Const("z"));
  std::span<const Value> first = arena.Resolve(refs[0], 3);
  EXPECT_TRUE(std::equal(first.begin(), first.end(), all.begin()));
}

TEST(RelationTruncate, PopsAcrossArenaChunksAndDedupGrowth) {
  // Enough rows to grow the dedup table several times and open several
  // arena chunks, then truncate back past all of them and refill.
  Universe u;
  Relation rel(1);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(rel.Add({u.IntConst(i)}));
  ASSERT_NE(rel.Probe(0b1, std::vector<Value>{u.IntConst(7)}), nullptr);
  rel.Truncate(3);
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_TRUE(rel.Contains({u.IntConst(2)}));
  EXPECT_FALSE(rel.Contains({u.IntConst(3)}));
  EXPECT_EQ(rel.Probe(0b1, std::vector<Value>{u.IntConst(7)}), nullptr);
  for (int i = 3; i < 500; ++i) ASSERT_TRUE(rel.Add({u.IntConst(i)}));
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(rel.tuples()[i] == TupleRef(Tuple{u.IntConst(i)}));
    const std::vector<uint32_t>* ids =
        rel.Probe(0b1, std::vector<Value>{u.IntConst(i)});
    ASSERT_NE(ids, nullptr);
    EXPECT_EQ(*ids, std::vector<uint32_t>{static_cast<uint32_t>(i)});
  }
  rel.Truncate(0);
  EXPECT_TRUE(rel.empty());
  EXPECT_FALSE(rel.Contains({u.IntConst(0)}));
}

// ---------------------------------------------------------------------------
// Bucket-pointer stability across Adds (the contract relation.h states).
// ---------------------------------------------------------------------------

TEST(RelationMaintenance, BucketPointersSurviveAdds) {
  Universe u;
  Relation rel(2);
  Value a = u.Const("a");
  rel.Add({a, u.Const("b")});

  std::vector<Value> key = {a};
  const std::vector<uint32_t>* bucket = rel.Probe(0b01, key);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 1u);

  // Grow the relation enough to force arena chunk growth and dedup-table
  // rehashes; the old bucket pointer must stay valid and absorb the new
  // matching ids in place.
  for (int i = 0; i < 1000; ++i) {
    rel.Add({a, u.IntConst(i)});
  }
  EXPECT_EQ(bucket->size(), 1001u);
  EXPECT_EQ(rel.Probe(0b01, key), bucket);

  // Spans handed out before the growth are still intact.
  EXPECT_EQ(rel.tuples()[0][0], a);
  EXPECT_EQ(rel.tuples()[0][1], u.Const("b"));
}

// ---------------------------------------------------------------------------
// AnnotatedRelation: Add / AddAll / ProbeProper vs scratch rebuild.
// ---------------------------------------------------------------------------

struct ShadowAnnRow {
  Tuple values;  // Empty = marker.
  AnnVec ann;

  bool operator<(const ShadowAnnRow& o) const {
    if (values != o.values) return values < o.values;
    return ann < o.ann;
  }
};

class AnnotatedMaintenance : public ::testing::TestWithParam<int> {};

TEST_P(AnnotatedMaintenance, ProbesMatchScratchRebuildAtEveryStep) {
  const size_t kArity = 2;
  const size_t kOps = 1500;
  Universe u;
  Rng rng(97000 + GetParam());
  std::vector<Value> pool = MakePool(&u, 3, 3);
  const std::vector<AnnVec> anns = {
      AllOpen(kArity), AllClosed(kArity), {Ann::kOpen, Ann::kClosed}};

  AnnotatedRelation rel(kArity);
  std::vector<ShadowAnnRow> shadow;
  std::set<ShadowAnnRow> shadow_set;
  const uint64_t all_masks = (uint64_t{1} << kArity) - 1;

  auto shadow_add = [&](ShadowAnnRow row) {
    if (shadow_set.insert(row).second) {
      shadow.push_back(std::move(row));
      return true;
    }
    return false;
  };

  for (size_t op = 0; op < kOps; ++op) {
    switch (rng.Below(5)) {
      case 0: {  // Proper Add.
        ShadowAnnRow row{RandomTuple(pool, kArity, &rng),
                         anns[rng.Below(anns.size())]};
        bool fresh = shadow_add(row);
        EXPECT_EQ(rel.Add(AnnotatedTuple(row.values, row.ann)), fresh);
        break;
      }
      case 1: {  // Marker Add.
        ShadowAnnRow row{Tuple{}, anns[rng.Below(anns.size())]};
        bool fresh = shadow_add(row);
        EXPECT_EQ(rel.Add(AnnotatedTuple::EmptyMarker(row.ann)), fresh);
        break;
      }
      case 2: {  // Batch AddAll under one annotation (the chase shape).
        const AnnVec& ann = anns[rng.Below(anns.size())];
        size_t n = 1 + rng.Below(5);
        Tuple flat;
        size_t expect_added = 0;
        for (size_t i = 0; i < n; ++i) {
          ShadowAnnRow row{RandomTuple(pool, kArity, &rng), ann};
          Tuple vals = row.values;
          if (shadow_add(std::move(row))) ++expect_added;
          flat.insert(flat.end(), vals.begin(), vals.end());
        }
        EXPECT_EQ(rel.AddAll(flat, ann), expect_added);
        break;
      }
      default: {  // ProbeProper on a random (mask, key, ann); mask may be 0.
        uint64_t mask = rng.Below(all_masks + 1);
        const AnnVec& ann = anns[rng.Below(anns.size())];
        Tuple key;
        for (uint64_t m = mask; m != 0; m &= m - 1) {
          key.push_back(pool[rng.Below(pool.size())]);
        }
        const std::vector<uint32_t>* ids = rel.ProbeProper(mask, key, ann);

        std::vector<uint32_t> expect;
        for (uint32_t id = 0; id < shadow.size(); ++id) {
          const ShadowAnnRow& row = shadow[id];
          if (row.values.empty()) continue;  // Markers are never indexed.
          if (row.ann != ann) continue;
          bool match = true;
          size_t ki = 0;
          for (uint64_t m = mask; m != 0; m &= m - 1) {
            size_t p = static_cast<size_t>(__builtin_ctzll(m));
            if (row.values[p] != key[ki++]) match = false;
          }
          if (match) expect.push_back(id);
        }
        if (expect.empty()) {
          EXPECT_TRUE(ids == nullptr || ids->empty());
        } else {
          ASSERT_NE(ids, nullptr);
          EXPECT_EQ(*ids, expect);
        }
        break;
      }
    }
    ASSERT_EQ(rel.size(), shadow.size());
  }

  for (uint32_t id = 0; id < shadow.size(); ++id) {
    const AnnotatedTupleRef& row = rel.tuples()[id];
    EXPECT_TRUE(row.values == TupleRef(shadow[id].values));
    EXPECT_TRUE(row.ann == AnnRef(shadow[id].ann));
    EXPECT_TRUE(rel.Contains(AnnotatedTuple(shadow[id].values,
                                            shadow[id].ann)));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, AnnotatedMaintenance,
                         ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Copy semantics: arena-backed rows must be re-interned, not aliased.
// ---------------------------------------------------------------------------

TEST(RelationMaintenance, CopiesAreIndependent) {
  Universe u;
  Relation a(2);
  a.Add({u.Const("a"), u.Const("b")});

  Relation b = a;
  b.Add({u.Const("c"), u.Const("d")});
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(b.Contains({u.Const("a"), u.Const("b")}));

  // Destroying the original must leave the copy's spans intact.
  {
    Relation c(2);
    {
      Relation tmp(2);
      tmp.Add({u.Const("x"), u.Const("y")});
      c = tmp;
    }
    EXPECT_EQ(c.tuples()[0][0], u.Const("x"));
    EXPECT_TRUE(c.Contains({u.Const("x"), u.Const("y")}));
  }

  AnnotatedRelation ar(2);
  ar.Add(AnnotatedTuple({u.Const("a"), u.Const("b")}, AllOpen(2)));
  ar.Add(AnnotatedTuple::EmptyMarker(AllClosed(2)));
  AnnotatedRelation br = ar;
  EXPECT_EQ(br.size(), 2u);
  EXPECT_TRUE(br.Contains(AnnotatedTuple({u.Const("a"), u.Const("b")},
                                         AllOpen(2))));
  EXPECT_TRUE(br.tuples()[1].IsEmptyMarker());
}

// The chase hot path never rebuilds an index: chasing a growing source
// relation that is probed between Adds performs exactly one full build
// per (relation, mask) signature.
TEST(RelationMaintenance, InterleavedAddProbeDoesOneBuildPerMask) {
  Universe u;
  Relation rel(2);
  index_maintenance_stats().Reset();

  std::vector<Value> key = {u.Const("k")};
  for (int i = 0; i < 200; ++i) {
    rel.Add({u.Const("k"), u.IntConst(i)});
    const std::vector<uint32_t>* ids = rel.Probe(0b01, key);
    ASSERT_NE(ids, nullptr);
    EXPECT_EQ(ids->size(), static_cast<size_t>(i + 1));
  }
  EXPECT_EQ(index_maintenance_stats().full_builds, 1u);
  EXPECT_GE(index_maintenance_stats().incremental_inserts, 199u);
}

// Clear empties live indexes in place (the member loops refill one image
// per valuation): across rounds of Clear, refill, Truncate and probe, every
// probe answers like a scan of the current rows, no mask is ever built a
// second time, and a bucket pointer taken after a refill survives the
// inserts of many new keys (buckets are deque-stable).
TEST(RelationMaintenance, ClearEmptiesIndexesInPlace) {
  Universe u;
  Rng rng(52177);
  std::vector<Value> pool = MakePool(&u, 6, 4);
  Relation rel(2);
  index_maintenance_stats().Reset();
  std::set<uint64_t> probed_masks;
  for (int round = 0; round < 60; ++round) {
    rel.Clear();
    std::vector<Tuple> shadow;
    std::set<Tuple> shadow_set;
    const size_t rows = 1 + rng.Below(40);
    for (size_t i = 0; i < rows; ++i) {
      Tuple t = RandomTuple(pool, 2, &rng);
      if (shadow_set.insert(t).second) shadow.push_back(t);
      rel.Add(t);
    }
    if (round % 3 == 2 && shadow.size() > 1) {  // Undo the newest rows.
      const size_t keep = shadow.size() / 2;
      rel.Truncate(keep);
      shadow.resize(keep);
    }
    for (uint64_t mask : {uint64_t{0b01}, uint64_t{0b10}, uint64_t{0b11}}) {
      if (round == 0 && mask == 0b11) continue;  // Built in a later round.
      probed_masks.insert(mask);
      for (Value a : pool) {
        for (Value b : pool) {
          Tuple key;
          if (mask & 0b01) key.push_back(a);
          if (mask & 0b10) key.push_back(b);
          std::vector<uint32_t> expect;
          for (uint32_t id = 0; id < shadow.size(); ++id) {
            if (((mask & 0b01) == 0 || shadow[id][0] == a) &&
                ((mask & 0b10) == 0 || shadow[id][1] == b)) {
              expect.push_back(id);
            }
          }
          const std::vector<uint32_t>* ids = rel.Probe(mask, key);
          if (expect.empty()) {
            EXPECT_TRUE(ids == nullptr || ids->empty());
          } else {
            ASSERT_NE(ids, nullptr);
            EXPECT_EQ(*ids, expect);
          }
          if ((mask & 0b10) == 0) break;
        }
      }
    }
  }
  EXPECT_EQ(index_maintenance_stats().full_builds, probed_masks.size());

  // Deque-stable buckets: a pointer taken now survives 500 new keys.
  rel.Clear();
  rel.Add({u.Const("k"), u.Const("v")});
  std::vector<Value> key = {u.Const("k")};
  const std::vector<uint32_t>* ids = rel.Probe(0b01, key);
  ASSERT_NE(ids, nullptr);
  for (int i = 0; i < 500; ++i) rel.Add({u.IntConst(i), u.Const("v")});
  rel.Add({u.Const("k"), u.Const("w")});
  EXPECT_EQ(rel.Probe(0b01, key), ids);
  EXPECT_EQ(*ids, (std::vector<uint32_t>{0, 501}));
}

// Cross-relation interleaving under a live BucketIterationGuard is the
// supported pattern (the chase probes sources while appending targets):
// the guard must stay silent, and the guarded bucket pointer must stay
// valid while the *other* relation grows.
TEST(BucketIterationGuard, CrossRelationInterleavingIsAllowed) {
  Universe u;
  Relation src(2), dst(2);
  src.Add({u.Const("k"), u.Const("a")});
  src.Add({u.Const("k"), u.Const("b")});
  std::vector<Value> key = {u.Const("k")};
  const std::vector<uint32_t>* ids = src.Probe(0b01, key);
  ASSERT_NE(ids, nullptr);
  BucketIterationGuard guard(&src);
  for (uint32_t id : *ids) {
    dst.Add(src.tuples()[id]);  // Appends to dst: no assertion.
  }
  EXPECT_EQ(dst.size(), 2u);
}

#ifndef NDEBUG
// The sharp edge itself: growing (or clearing) a relation while one of
// its buckets is being iterated trips the debug assertion. Only
// meaningful in assertion-enabled builds (the Asan preset runs it).
TEST(BucketIterationGuardDeathTest, SameRelationMutationAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Universe u;
  Relation rel(2);
  rel.Add({u.Const("k"), u.Const("a")});
  std::vector<Value> key = {u.Const("k")};
  ASSERT_NE(rel.Probe(0b01, key), nullptr);
  BucketIterationGuard guard(&rel);
  EXPECT_DEATH(rel.Add({u.Const("k"), u.Const("b")}),
               "snapshot the bucket size");
  EXPECT_DEATH(rel.Clear(), "snapshot the bucket size");
}
#endif

}  // namespace
}  // namespace ocdx
