// Open-addressed (hash, id) table: the dedup set behind Relation::Add,
// and the name -> id table of the constant interner (base/interner.h).
//
// Replaces the node-based std::unordered_multimap<size_t, uint32_t> the
// relations used for dedup — one heap allocation per inserted tuple — with
// a flat power-of-two table probed linearly. A slot keeps the low 32
// bits of the row's hash beside its id, 8 bytes in all: every relation
// carries one of these tables for its lifetime, so its size is resident
// memory. The low bits pick the home slot, and a tag match is confirmed
// by the caller-supplied equality (which compares the actual tuples or
// names), so the table itself never needs to see payloads.

#ifndef OCDX_BASE_DEDUP_H_
#define OCDX_BASE_DEDUP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ocdx {

/// A set of uint32 ids keyed by precomputed 64-bit hashes. Ids must be
/// dense (they index the owner's row vector); `eq(id)` decides whether a
/// stored id's row equals the probe row.
class DedupIndex {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// The id of a stored row with this hash for which `eq` holds, or kNone.
  template <typename Eq>
  uint32_t Find(size_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNone;
    const uint32_t tag = static_cast<uint32_t>(hash);
    size_t mask = slots_.size() - 1;
    for (size_t i = tag & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == tag && eq(s.id)) return s.id;
    }
  }

  /// Records `id` under `hash`. The caller has already established (via
  /// Find) that no equal row is present; duplicates of the *hash* are fine.
  void Insert(size_t hash, uint32_t id) {
    if ((used_ + 1) * 4 > slots_.size() * 3) Grow();
    InsertNoGrow(static_cast<uint32_t>(hash), id);
    ++used_;
  }

  /// Removes the entry (`hash`, `id`), which must be present, by
  /// backward-shift deletion: later entries of its probe run move up, so
  /// no tombstones are left behind and Find stays exact.
  void Erase(size_t hash, uint32_t id) {
    size_t mask = slots_.size() - 1;
    size_t hole = static_cast<uint32_t>(hash) & mask;
    while (slots_[hole].id != id) hole = (hole + 1) & mask;
    for (size_t j = (hole + 1) & mask; slots_[j].id != kNone;
         j = (j + 1) & mask) {
      // The entry at j may fill the hole unless its home slot lies
      // cyclically in (hole, j] — then moving it would put it before its
      // home, where Find never looks.
      size_t home = slots_[j].tag & mask;
      bool stays = hole <= j ? (hole < home && home <= j)
                             : (hole < home || home <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = Slot{};
    --used_;
  }

  size_t size() const { return used_; }

  /// Sizes the table so that `n` more Inserts never grow it.
  void Reserve(size_t n) {
    size_t cap = slots_.empty() ? 16 : slots_.size();
    while ((used_ + n) * 4 > cap * 3) cap *= 2;
    if (cap != slots_.size()) Rehash(cap);
  }

  /// Empties the table but keeps its capacity (scratch-reuse pattern).
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    used_ = 0;
  }

 private:
  // Ids are dense row indexes, so a table never has more than 2^32
  // slots and the 32-bit tag always covers the home-slot mask.
  struct Slot {
    uint32_t tag = 0;
    uint32_t id = kNone;
  };

  void InsertNoGrow(uint32_t tag, uint32_t id) {
    size_t mask = slots_.size() - 1;
    size_t i = tag & mask;
    while (slots_[i].id != kNone) i = (i + 1) & mask;
    slots_[i] = Slot{tag, id};
  }

  void Grow() { Rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  void Rehash(size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    for (const Slot& s : old) {
      if (s.id != kNone) InsertNoGrow(s.tag, s.id);
    }
  }

  std::vector<Slot> slots_;
  size_t used_ = 0;
};

}  // namespace ocdx

#endif  // OCDX_BASE_DEDUP_H_
