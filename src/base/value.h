// Value and Universe: the paper's two disjoint countably-infinite domains.
//
// Target instances in data exchange are populated by *constants* (elements
// of Const, which come from the source) and *nulls* (elements of Null,
// invented during the exchange). ocdx represents both as a single tagged
// 64-bit handle, `Value`, whose identity lives in a `Universe`:
//
//   - constants are interned strings ("a", "p1", "42", ...);
//   - nulls are minted fresh, each carrying its *justification* — the STD,
//     the witness tuple and the existential variable that created it
//     (Section 2 of the paper). Justifications are what the CWA machinery
//     and the Skolem semantics key on.
//
// Only the equality structure of values matters (queries are generic), so
// interning preserves the paper's semantics exactly.

#ifndef OCDX_BASE_VALUE_H_
#define OCDX_BASE_VALUE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/interner.h"

namespace ocdx {

/// A constant or a null. Trivially copyable; 8 bytes.
///
/// The default-constructed Value is an invalid sentinel (use for "unset").
class Value {
 public:
  constexpr Value() : raw_(kInvalidRaw) {}

  static Value MakeConst(uint32_t id) { return Value(uint64_t{id}); }
  static Value MakeNull(uint32_t id) { return Value(kNullBit | uint64_t{id}); }

  bool IsValid() const { return raw_ != kInvalidRaw; }
  bool IsConst() const { return IsValid() && (raw_ & kNullBit) == 0; }
  bool IsNull() const { return IsValid() && (raw_ & kNullBit) != 0; }

  /// Index into the universe's constant pool or null registry.
  uint32_t id() const { return static_cast<uint32_t>(raw_ & 0xffffffffULL); }

  /// Raw bits; stable hash/ordering key.
  uint64_t raw() const { return raw_; }

  friend bool operator==(Value a, Value b) { return a.raw_ == b.raw_; }
  friend bool operator!=(Value a, Value b) { return a.raw_ != b.raw_; }
  friend bool operator<(Value a, Value b) { return a.raw_ < b.raw_; }

 private:
  explicit constexpr Value(uint64_t raw) : raw_(raw) {}

  static constexpr uint64_t kNullBit = uint64_t{1} << 63;
  static constexpr uint64_t kInvalidRaw = ~uint64_t{0};

  uint64_t raw_;
};

struct ValueHash {
  size_t operator()(Value v) const {
    // SplitMix64 finalizer over the raw bits.
    uint64_t z = v.raw() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(z ^ (z >> 31));
  }
};

/// A relocatable handle to a stored witness tuple in a Universe's
/// justification arena: dense logical offset + length (see
/// Universe::InternWitness). Offsets are stable across overlays
/// (Universe::NewOverlay).
/// The default-constructed ref is the empty witness.
struct WitnessRef {
  uint64_t offset = 0;
  uint32_t len = 0;

  bool empty() const { return len == 0; }
  size_t size() const { return len; }

  friend bool operator==(WitnessRef a, WitnessRef b) {
    return a.offset == b.offset && a.len == b.len;
  }
};

/// Provenance of a null: the "justification" of Section 2.
///
/// A justification consists of an STD (identified by its index in the
/// mapping), a witness tuple (the source tuples (a-bar, b-bar) that
/// satisfied the STD's body) and the existential variable that the null
/// instantiates. Nulls minted outside a chase (e.g. by tests) leave
/// std_index = -1.
///
/// `witness` is a relocatable handle into the minting Universe's
/// justification arena (resolve with Universe::WitnessOf), so the nulls
/// of one chase trigger share one stored copy instead of each holding a
/// heap vector — the chase mints one null per existential variable per
/// witness, which made these copies the dominant remaining per-witness
/// allocation.
struct NullInfo {
  int32_t std_index = -1;
  /// Handle into the owning Universe's justification arena; pass refs
  /// returned by Universe::InternWitness (MintNull asserts nothing —
  /// interning is the caller's contract).
  WitnessRef witness;
  std::string var;
  std::string label;  ///< Optional pretty-print label.
};

/// Owns the identity of all values appearing in a family of instances.
///
/// Instances, mappings and solvers all operate on Values minted by one
/// Universe. Creating a fresh Universe per test gives deterministic ids.
///
/// \invariant Concurrency contract (amends the one-Universe-per-job
///   rule). A Universe is in exactly one of three states:
///
///   - *Mutable* (the default): it belongs to exactly one job at a time —
///     the batch executor (src/exec) gives each job a universe of its own
///     and never migrates one across threads.
///     No internal synchronization;
///     debug builds enforce the rule with a first-use thread ownership
///     assert on every read and write.
///   - *Frozen* (after Freeze(), permanent) or *shared* (inside a
///     ScopedReadShare, temporary): the constant table, null registry and
///     justification arena are immutable and may be READ from any number
///     of threads concurrently with no locking — reads skip the owner
///     assert, writes assert unconditionally. Freeze()/share entry must
///     happen-before the reader threads start (thread creation/join
///     provides the ordering; both fan-out and frozen scenarios satisfy
///     this by construction).
///   - *Overlay* (from NewOverlay() on a frozen or shared base): a
///     lightweight copy-on-write view. Reads fall through to the base;
///     mints (constants, nulls, witnesses) land in the overlay's private
///     delta under the ordinary one-owner rule. Ids continue the base's
///     id spaces, so a value minted through an overlay is bit-identical
///     to the value the base itself would have minted next — which is
///     what keeps canonical output byte-identical when fan-out and
///     snapshot serving mint through overlays. The base must stay
///     frozen/shared (and alive) for the overlay's whole lifetime.
class Universe {
 public:
  Universe() = default;
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  /// Seals the universe read-only, permanently: after Freeze() any thread
  /// may read concurrently, every mutation asserts, and NewOverlay()
  /// hands out copy-on-write views. Freezing must happen-before reader
  /// threads start (see the class \invariant).
  void Freeze() { frozen_ = true; }

  bool frozen() const { return frozen_; }

  /// Temporarily puts the universe in the shared read-only state for a
  /// lexical scope — the fan-out form of Freeze(): the caller's universe
  /// must become mutable again once the scoped worker pool drains.
  /// Entry/exit must happen-before/after the reader threads run (the
  /// scoped ThreadPool's create/join provides exactly that). Shares nest.
  class ScopedReadShare {
   public:
    explicit ScopedReadShare(const Universe& u) : u_(u) {
      u_.shared_.fetch_add(1, std::memory_order_relaxed);
    }
    ~ScopedReadShare() { u_.shared_.fetch_sub(1, std::memory_order_relaxed); }
    ScopedReadShare(const ScopedReadShare&) = delete;
    ScopedReadShare& operator=(const ScopedReadShare&) = delete;

   private:
    const Universe& u_;
  };

  /// True while reads are thread-safe: frozen, or inside a
  /// ScopedReadShare.
  bool read_only() const {
    return frozen_ || shared_.load(std::memory_order_relaxed) > 0;
  }

  /// A copy-on-write overlay over this (frozen or shared) universe: reads
  /// fall through, mints land in the overlay's private delta, and ids
  /// continue this universe's id spaces — exactly the ids the base would
  /// have minted next, with nothing copied. Returned *unowned*: the first
  /// thread to touch it claims it under the one-Universe-per-job rule.
  /// The base must outlive the overlay and stay read-only for the
  /// overlay's whole lifetime.
  std::unique_ptr<Universe> NewOverlay() const;

  /// True iff this universe is an overlay (NewOverlay) over some base.
  bool is_overlay() const { return base_ != nullptr; }

  /// Interns a constant by name and returns its Value. On an overlay the
  /// frozen base is probed first (read, any thread); only genuinely new
  /// names land in the overlay's private delta, continuing the base's id
  /// space — the same id the base would have assigned next.
  Value Const(std::string_view name) {
    if (base_ != nullptr) {
      Value v = base_->FindConst(name);
      if (v.IsValid()) return v;
    }
    CheckWrite();
    return Value::MakeConst(base_consts_ + consts_.Intern(name));
  }

  /// Interns an integer constant (rendered in decimal).
  Value IntConst(int64_t n) { return Const(std::to_string(n)); }

  /// Returns the constant named `name` if it exists (invalid Value if not).
  Value FindConst(std::string_view name) const {
    CheckRead();
    if (base_ != nullptr) {
      Value v = base_->FindConst(name);
      if (v.IsValid()) return v;
    }
    uint32_t id = consts_.Find(name);
    return id == UINT32_MAX ? Value() : Value::MakeConst(base_consts_ + id);
  }

  /// The interned name of constant id `id` (< num_consts()); the view
  /// stays valid for the universe's lifetime.
  std::string_view ConstName(uint32_t id) const {
    CheckRead();
    if (base_ != nullptr && id < base_consts_) return base_->ConstName(id);
    return consts_.Get(id - base_consts_);
  }

  /// Mints a fresh null with no justification (tests / ad-hoc instances).
  Value FreshNull(std::string label = "") {
    NullInfo info;
    info.label = std::move(label);
    return MintNull(std::move(info));
  }

  /// Mints a fresh null with a full justification (chase). `info.witness`
  /// must be a handle into *this* universe's justification arena —
  /// typically from InternWitness, shared across all the nulls of one
  /// trigger.
  Value MintNull(NullInfo info) {
    CheckWrite();
    uint32_t id = static_cast<uint32_t>(base_nulls_ + nulls_.size());
    nulls_.push_back(std::move(info));
    return Value::MakeNull(id);
  }

  /// Copies a witness tuple into the universe's justification arena and
  /// returns its relocatable handle (stable until the universe dies;
  /// appends never move earlier chunks). One call per chase trigger
  /// serves that trigger's ChaseTrigger record and every null it mints.
  WitnessRef InternWitness(std::span<const Value> witness) {
    CheckWrite();
    auto [ref, dst] = AllocateWitness(witness.size());
    for (size_t i = 0; i < witness.size(); ++i) dst[i] = witness[i];
    return ref;
  }

  /// Uninitialized justification-arena space the caller fills in place
  /// (the chase writes freshly minted nulls straight into it).
  std::pair<WitnessRef, std::span<Value>> AllocateWitness(size_t n);

  /// Resolves a witness handle to the stored values. O(log #chunks).
  std::span<const Value> WitnessOf(WitnessRef ref) const;

  const NullInfo& null_info(Value v) const {
    CheckRead();
    if (base_ != nullptr && v.id() < base_nulls_) return base_->null_info(v);
    return nulls_.at(v.id() - base_nulls_);
  }

  /// Printable form: the constant's name, or "_N<i>" / the null's label.
  std::string Describe(Value v) const;

  /// Counts include the base's values when this is an overlay: an overlay
  /// looks like one universe holding base and delta.
  size_t num_consts() const { return base_consts_ + consts_.size(); }
  size_t num_nulls() const { return base_nulls_ + nulls_.size(); }

  /// Total values in the justification arena (== the exclusive upper
  /// bound of the logical offset space; includes the base's arena when
  /// this is an overlay).
  uint64_t witness_size() const { return witness_size_; }

  /// Appends the whole justification arena, in logical offset order, to
  /// `out` (an overlay appends its base's arena first).
  void AppendWitnessValues(std::vector<Value>* out) const;

 private:
  /// One-Universe-per-job tripwire: the first thread to touch the
  /// universe owns it for good. A no-op in NDEBUG builds; the owner_
  /// member is unconditional so the class layout never depends on the
  /// consumer's NDEBUG setting (the library and its users may be
  /// compiled with different flags).
  void ClaimOwner() const {
#ifndef NDEBUG
    std::thread::id expected{};
    if (!owner_.compare_exchange_strong(expected, std::this_thread::get_id(),
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
      assert(expected == std::this_thread::get_id() &&
             "Universe shared across threads: every job needs its own "
             "Universe (see README.md 'Concurrency model')");
    }
#endif
  }

  /// Read-side assert: frozen or shared universes are readable from any
  /// thread; otherwise a concurrent reader would race the interner/arena
  /// growth of the owner, so the owner claim applies to reads too.
  void CheckRead() const {
#ifndef NDEBUG
    if (read_only()) return;
    ClaimOwner();
#endif
  }

  /// Write-side assert: mutating a frozen or shared universe is a bug
  /// (overlays exist precisely so nobody has to); otherwise the ordinary
  /// one-owner rule applies.
  void CheckWrite() {
#ifndef NDEBUG
    assert(!read_only() &&
           "mutating a frozen/shared Universe: mint through NewOverlay() "
           "instead (see the Universe concurrency contract)");
    ClaimOwner();
#endif
  }

  mutable std::atomic<std::thread::id> owner_{};
  bool frozen_ = false;
  mutable std::atomic<uint32_t> shared_{0};

  /// Overlay linkage (null for root universes). base_consts_/base_nulls_
  /// cache the base's counts at overlay creation — the base is read-only,
  /// so they never go stale — and every id/offset handed out by the
  /// overlay is displaced past them.
  const Universe* base_ = nullptr;
  uint32_t base_consts_ = 0;
  uint32_t base_nulls_ = 0;
  uint64_t base_witness_ = 0;

  /// Justification storage is chunked like ValueArena (base/arena.h) but
  /// hand-rolled — arena.h includes this header — and offset-addressed:
  /// `base` is the chunk's first logical offset, and offsets are *dense*
  /// (they count only values actually handed out, so concatenating the
  /// chunks reproduces the logical offset space exactly, so an overlay's
  /// offsets continue its base's).
  struct WitnessChunk {
    std::vector<Value> data;  ///< Reserved once; never reallocated.
    uint64_t base = 0;        ///< Logical offset of data[0].
  };

  StringInterner consts_;
  std::vector<NullInfo> nulls_;
  std::vector<WitnessChunk> witness_chunks_;
  size_t witness_left_ = 0;
  uint64_t witness_size_ = 0;
};

}  // namespace ocdx

#endif  // OCDX_BASE_VALUE_H_
