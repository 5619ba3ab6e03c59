// Tests for the frozen-base architecture: the Universe's Freeze() /
// ScopedReadShare read-only states and copy-on-write overlays
// (NewOverlay, base/value.h), and frozen relations read by many threads
// at once (Relation::Freeze, base/relation.h).
//
// The load-bearing property is *id equivalence*: a value minted through
// an overlay must be bit-identical to the value one cold universe would
// have minted after the same operation sequence — that is what lets the
// shard fan-out and snapshot serving mint through overlays without
// moving a single byte of canonical output. The randomized differential
// test drives an overlay and a cold replay through the same interleaved
// mint/probe/enumerate schedule and compares every observable.
//
// CI runs this suite under ThreadSanitizer (the tsan preset builds the
// whole test tree), so the N-readers-one-frozen-base test is
// race-checked, not just argued; the ASan leg covers the differential
// test's arena bookkeeping.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/relation.h"
#include "base/tuple_index.h"
#include "base/value.h"

namespace ocdx {
namespace {

// Populates `u` with a representative base payload: interned constants,
// justified nulls and shared witness tuples (the shapes the chase
// produces). Deterministic.
void PopulateBase(Universe* u, size_t consts, size_t nulls) {
  std::vector<Value> pool;
  for (size_t i = 0; i < consts; ++i) {
    pool.push_back(u->Const("base_c" + std::to_string(i)));
  }
  for (size_t i = 0; i < nulls; ++i) {
    // Every third null shares its witness with the previous one, like
    // the nulls of one chase trigger.
    NullInfo info;
    info.std_index = static_cast<int32_t>(i % 5);
    info.var = "x" + std::to_string(i % 3);
    if (!pool.empty()) {
      std::vector<Value> witness = {pool[i % pool.size()],
                                    pool[(i * 7 + 1) % pool.size()]};
      info.witness = u->InternWitness(witness);
    }
    u->MintNull(std::move(info));
  }
}

// Every observable of `a` and `b` must agree: totals, constant names,
// null justifications, witness payloads, and the printable forms.
void ExpectUniversesAgree(const Universe& a, const Universe& b) {
  ASSERT_EQ(a.num_consts(), b.num_consts());
  ASSERT_EQ(a.num_nulls(), b.num_nulls());
  ASSERT_EQ(a.witness_size(), b.witness_size());
  for (uint32_t id = 0; id < a.num_consts(); ++id) {
    EXPECT_EQ(a.ConstName(id), b.ConstName(id)) << "const id " << id;
  }
  for (uint32_t id = 0; id < a.num_nulls(); ++id) {
    Value n = Value::MakeNull(id);
    const NullInfo& na = a.null_info(n);
    const NullInfo& nb = b.null_info(n);
    EXPECT_EQ(na.std_index, nb.std_index) << "null id " << id;
    EXPECT_EQ(na.var, nb.var) << "null id " << id;
    EXPECT_EQ(na.witness, nb.witness) << "null id " << id;
    ASSERT_TRUE(std::equal(a.WitnessOf(na.witness).begin(),
                           a.WitnessOf(na.witness).end(),
                           b.WitnessOf(nb.witness).begin(),
                           b.WitnessOf(nb.witness).end()))
        << "witness payload of null id " << id;
    EXPECT_EQ(a.Describe(n), b.Describe(n)) << "null id " << id;
  }
  std::vector<Value> wa, wb;
  a.AppendWitnessValues(&wa);
  b.AppendWitnessValues(&wb);
  EXPECT_EQ(wa, wb) << "serialized justification arenas diverge";
}

// The differential pin: an overlay over a frozen base and a cold root
// universe that replays the base's operations, driven through one
// interleaved random schedule of mints (old constants, new constants,
// justified nulls, witnesses) and probes, must return bit-identical
// Values at every step and agree on every enumerable observable
// afterwards — overlay ids continue the base's id spaces exactly.
TEST(FrozenOverlay, RandomizedDifferentialAgainstColdReplay) {
  Universe base;
  PopulateBase(&base, 40, 25);
  base.Freeze();
  ASSERT_TRUE(base.frozen());
  ASSERT_TRUE(base.read_only());

  auto cold = std::make_unique<Universe>();
  PopulateBase(cold.get(), 40, 25);
  std::unique_ptr<Universe> overlay = base.NewOverlay();
  ASSERT_TRUE(overlay->is_overlay());
  ASSERT_FALSE(cold->is_overlay());

  std::mt19937 rng(0xD0C5u);  // Fixed seed: the schedule is part of the test.
  std::uniform_int_distribution<int> op(0, 5);
  std::vector<Value> minted;  // Values both universes agreed on so far.
  for (int step = 0; step < 2000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    switch (op(rng)) {
      case 0: {  // Re-intern a base constant: must resolve, not re-mint.
        std::string name = "base_c" + std::to_string(rng() % 40);
        Value vc = cold->Const(name);
        Value vo = overlay->Const(name);
        ASSERT_EQ(vc.raw(), vo.raw());
        break;
      }
      case 1: {  // Intern a new constant: ids must continue identically.
        std::string name = "fresh_c" + std::to_string(rng() % 60);
        Value vc = cold->Const(name);
        Value vo = overlay->Const(name);
        ASSERT_EQ(vc.raw(), vo.raw());
        minted.push_back(vo);
        break;
      }
      case 2: {  // Mint a justified null over already-agreed values.
        NullInfo ic, io;
        ic.std_index = io.std_index = static_cast<int32_t>(rng() % 7);
        ic.var = io.var = "v" + std::to_string(rng() % 4);
        if (!minted.empty()) {
          std::vector<Value> witness = {minted[rng() % minted.size()]};
          WitnessRef rc = cold->InternWitness(witness);
          WitnessRef ro = overlay->InternWitness(witness);
          ASSERT_EQ(rc, ro);
          ic.witness = rc;
          io.witness = ro;
        }
        Value vc = cold->MintNull(std::move(ic));
        Value vo = overlay->MintNull(std::move(io));
        ASSERT_EQ(vc.raw(), vo.raw());
        minted.push_back(vo);
        break;
      }
      case 3: {  // Probe: present and absent names agree.
        std::string name = (rng() % 2 == 0)
                               ? "base_c" + std::to_string(rng() % 80)
                               : "fresh_c" + std::to_string(rng() % 80);
        ASSERT_EQ(cold->FindConst(name).raw(), overlay->FindConst(name).raw());
        break;
      }
      case 4: {  // Describe an agreed value (exercises name fallthrough).
        if (!minted.empty()) {
          Value v = minted[rng() % minted.size()];
          ASSERT_EQ(cold->Describe(v), overlay->Describe(v));
        }
        break;
      }
      default: {  // Resolve a random base null's witness through both.
        Value n = Value::MakeNull(static_cast<uint32_t>(rng() % 25));
        const NullInfo& nc = cold->null_info(n);
        const NullInfo& no = overlay->null_info(n);
        ASSERT_EQ(nc.witness, no.witness);
        auto sc = cold->WitnessOf(nc.witness);
        auto so = overlay->WitnessOf(no.witness);
        ASSERT_TRUE(std::equal(sc.begin(), sc.end(), so.begin(), so.end()));
        break;
      }
    }
  }
  ExpectUniversesAgree(*cold, *overlay);
  EXPECT_GT(overlay->num_consts(), 40u);
  EXPECT_GT(overlay->num_nulls(), 25u);
}

// Overlays nest: the batch executor freezes a planning-pass universe,
// jobs overlay it, and a job's shard fan-out overlays *that* overlay
// (after a ScopedReadShare). Reads must fall through both levels and
// ids must keep continuing the combined space.
TEST(FrozenOverlay, NestedOverlaysFallThroughBothLevels) {
  Universe base;
  PopulateBase(&base, 5, 3);
  base.Freeze();

  std::unique_ptr<Universe> mid = base.NewOverlay();
  Value mid_const = mid->Const("mid_c");
  Value mid_null = mid->FreshNull("mid_n");
  mid->Freeze();

  std::unique_ptr<Universe> top = mid->NewOverlay();
  // Base and mid values resolve by name/id through the top overlay.
  EXPECT_EQ(top->FindConst("base_c0"), base.FindConst("base_c0"));
  EXPECT_EQ(top->FindConst("mid_c"), mid_const);
  EXPECT_EQ(top->Describe(mid_null), mid->Describe(mid_null));
  // New mints continue the combined id spaces.
  Value top_const = top->Const("top_c");
  EXPECT_EQ(top_const.id(), mid->num_consts());
  Value top_null = top->FreshNull();
  EXPECT_EQ(top_null.id(), mid->num_nulls());
  EXPECT_EQ(top->num_consts(), mid->num_consts() + 1);
}

// The TSan pin: one frozen base, N reader threads, each minting through
// its own private overlay while reading shared base state — the exact
// shape of the shard fan-out and of ocdxd --preload serving. Any
// missing happens-before edge or hidden mutation in the read path is a
// reported race under the tsan preset.
TEST(FrozenOverlay, ManyThreadsReadOneFrozenBaseThroughOverlays) {
  Universe base;
  PopulateBase(&base, 30, 20);
  base.Freeze();

  constexpr int kThreads = 8;
  std::vector<std::string> describes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&base, &describes, i] {
      std::unique_ptr<Universe> overlay = base.NewOverlay();
      std::string acc;
      for (int round = 0; round < 200; ++round) {
        // Shared reads through the overlay (fall through to the base).
        Value c = overlay->FindConst("base_c" + std::to_string(round % 30));
        acc += overlay->Describe(c);
        Value n = Value::MakeNull(static_cast<uint32_t>(round % 20));
        acc += overlay->Describe(n);
        const NullInfo& info = overlay->null_info(n);
        acc += std::to_string(overlay->WitnessOf(info.witness).size());
        // Private mints into the overlay (never touch the base).
        overlay->Const("t" + std::to_string(i) + "_" + std::to_string(round));
        overlay->FreshNull();
      }
      describes[i] = std::move(acc);
      // Private growth only: the base's totals never moved.
      EXPECT_EQ(overlay->num_consts(), base.num_consts() + 200);
      EXPECT_EQ(overlay->num_nulls(), base.num_nulls() + 200);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(describes[i], describes[0]) << "reader " << i << " diverged";
  }
  EXPECT_EQ(base.num_consts(), 30u);
  EXPECT_EQ(base.num_nulls(), 20u);
}

// ScopedReadShare is the temporary form of Freeze: reads from foreign
// threads are legal only while the share is held, and the universe is
// mutable again afterwards — the fan-out's lifecycle.
TEST(FrozenOverlay, ScopedReadShareAllowsForeignReadsThenRestoresOwnership) {
  Universe u;
  PopulateBase(&u, 5, 2);
  EXPECT_FALSE(u.read_only());
  {
    Universe::ScopedReadShare share(u);
    EXPECT_TRUE(u.read_only());
    std::unique_ptr<Universe> overlay = u.NewOverlay();
    std::thread reader([&u, &overlay] {
      EXPECT_TRUE(u.FindConst("base_c1").IsValid());
      overlay->Const("from_reader");
    });
    reader.join();
    EXPECT_EQ(overlay->num_consts(), u.num_consts() + 1);
  }
  EXPECT_FALSE(u.read_only());
  // The owner can mint again once the share is released.
  Value v = u.Const("after_share");
  EXPECT_EQ(v.id(), u.num_consts() - 1);
}

// ---------------------------------------------------------------------------
// Frozen relations
// ---------------------------------------------------------------------------

constexpr size_t kArity = 4;
constexpr uint32_t kRows = 300;

Value C(uint32_t id) { return Value::MakeConst(id); }

// Row r of both test relations: small repeating domains so keyed probes
// return multi-row buckets.
std::vector<Value> RowValues(uint32_t r) {
  return {C(r % 5), C(r % 9), C(r % 4), C(r)};
}

Relation MakeRelation() {
  Relation rel(kArity);
  for (uint32_t r = 0; r < kRows; ++r) rel.Add(RowValues(r));
  return rel;
}

// Proper rows under two annotations plus one empty marker per
// annotation.
AnnotatedRelation MakeAnnotated() {
  const AnnVec open(kArity, Ann::kOpen);
  const AnnVec mixed{Ann::kClosed, Ann::kOpen, Ann::kClosed, Ann::kOpen};
  AnnotatedRelation rel(kArity);
  for (uint32_t r = 0; r < kRows; ++r) {
    rel.Add(AnnotatedTupleRef{RowValues(r), r % 2 == 0 ? open : mixed});
  }
  rel.Add(AnnotatedTuple::EmptyMarker(open));
  rel.Add(AnnotatedTuple::EmptyMarker(mixed));
  return rel;
}

std::vector<Value> Project(const std::vector<Value>& row, uint64_t mask) {
  std::vector<Value> key;
  for (size_t p = 0; p < row.size(); ++p) {
    if ((mask >> p) & 1) key.push_back(row[p]);
  }
  return key;
}

std::vector<uint32_t> Bucket(const std::vector<uint32_t>* b) {
  return b == nullptr ? std::vector<uint32_t>{} : *b;
}

// Every probe a reader makes of `mask`: one per row's projection, plus a
// key no row has. Results in a fixed order, comparable across threads.
std::vector<std::vector<uint32_t>> ProbeAll(const Relation& rel,
                                            uint64_t mask) {
  std::vector<std::vector<uint32_t>> out;
  for (uint32_t r = 0; r < kRows; r += 7) {
    out.push_back(Bucket(rel.Probe(mask, Project(RowValues(r), mask))));
  }
  std::vector<Value> missing(__builtin_popcountll(mask), C(999));
  out.push_back(Bucket(rel.Probe(mask, missing)));
  return out;
}

std::vector<std::vector<uint32_t>> ProbeAllProper(const AnnotatedRelation& rel,
                                                  uint64_t mask) {
  std::vector<std::vector<uint32_t>> out;
  for (uint32_t r = 0; r < kRows; r += 7) {
    AnnotatedTupleRef row = rel.row(r);
    std::vector<Value> values(row.values.begin(), row.values.end());
    out.push_back(Bucket(rel.ProbeProper(mask, Project(values, mask), row.ann)));
  }
  return out;
}

// The concurrency pin of the frozen-relation invariant: 8 threads
// first-probe a frozen Relation and a frozen AnnotatedRelation at once —
// two masks every thread probes plus one mask per thread — between
// Contains calls.
// Every result must equal the single-threaded one, and each distinct
// mask must be built exactly once across all threads. Under the tsan
// preset any unpublished write in the probe path is a reported race.
TEST(FrozenRelation, ConcurrentFirstProbeBuildsOnce) {
  constexpr int kThreads = 8;
  const std::vector<uint64_t> shared_masks = {0b0001, 0b0011};
  auto masks_of = [&](int t) {
    std::vector<uint64_t> masks = shared_masks;
    masks.push_back(static_cast<uint64_t>(t) + 4);  // 0b0100 .. 0b1011
    // Vary the order so threads collide on different masks first.
    if (t % 2 == 1) std::reverse(masks.begin(), masks.end());
    return masks;
  };
  // ProbeProper also takes the annotation-only mask 0 as a shared mask.
  auto proper_masks_of = [&](int t) {
    std::vector<uint64_t> masks = masks_of(t);
    masks.push_back(0);
    return masks;
  };

  // Single-threaded reference over identical, unfrozen relations.
  const Relation ref_rel = MakeRelation();
  const AnnotatedRelation ref_ann = MakeAnnotated();
  std::map<uint64_t, std::vector<std::vector<uint32_t>>> want, want_proper;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t m : masks_of(t)) want[m] = ProbeAll(ref_rel, m);
    for (uint64_t m : proper_masks_of(t)) {
      want_proper[m] = ProbeAllProper(ref_ann, m);
    }
  }

  Relation rel = MakeRelation();
  AnnotatedRelation ann = MakeAnnotated();
  rel.Freeze();
  ann.Freeze();
  ASSERT_TRUE(rel.frozen() && ann.frozen());

  std::atomic<bool> go{false};
  std::vector<uint64_t> builds(kThreads, 0);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t before = index_maintenance_stats().full_builds;
      for (uint64_t m : masks_of(t)) {
        if (ProbeAll(rel, m) != want.at(m)) ++mismatches[t];
      }
      for (uint64_t m : proper_masks_of(t)) {
        if (ProbeAllProper(ann, m) != want_proper.at(m)) ++mismatches[t];
      }
      for (uint32_t r = 0; r < kRows; r += 13) {
        if (!rel.Contains(RowValues(r))) ++mismatches[t];
        if (!ann.Contains(ann.row(r))) ++mismatches[t];
      }
      if (rel.Contains({C(999), C(999), C(999), C(999)})) ++mismatches[t];
      builds[t] = index_maintenance_stats().full_builds - before;
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  uint64_t total_builds = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    total_builds += builds[t];
  }
  // Relation: the 2 shared masks + 8 per-thread masks. AnnotatedRelation:
  // those 10 + the annotation-only mask 0.
  EXPECT_EQ(total_builds, want.size() + want_proper.size());
  EXPECT_EQ(want.size(), 10u);
  EXPECT_EQ(want_proper.size(), 11u);
}

#ifndef NDEBUG

using FrozenRelationDeathTest = testing::Test;

TEST(FrozenRelationDeathTest, AddOnFrozenRelationAsserts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Relation rel(1);
  rel.Add({C(0)});
  rel.Freeze();
  EXPECT_DEATH(rel.Add({C(1)}), "mutating a frozen relation");
}

#endif  // NDEBUG

}  // namespace
}  // namespace ocdx
