// Tests for the frozen-base Universe architecture (base/value.h):
// Freeze() / ScopedReadShare read-only states and copy-on-write overlays
// (NewOverlay).
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
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ocdx
