// Up-to-isomorphism enumeration of valuations.
//
// The paper's NP-style procedures "guess a valuation v of the nulls".
// There are infinitely many valuations, but relational queries and
// mapping satisfaction are *generic*: they commute with permutations of
// Const that fix a given finite set of distinguished constants (the
// constants of the instances, queries and mappings involved — cf. Claim 1
// of the paper). Hence it suffices to enumerate one representative per
// isomorphism class:
//
//   - choose a set partition of the nulls (which nulls are equated), and
//   - assign each block either a distinguished constant (injectively; two
//     blocks sharing a constant are the same class as the coarser
//     partition) or a fresh constant, pairwise distinct and disjoint from
//     the distinguished set.
//
// This yields Bell(n) * poly many representatives and converts every
// "for all / exists valuation" question into a finite exact check.
//
// Order and generation. Partitions come in restricted-growth-string order
// (util/combinatorics.h). Within one partition of k blocks, an assignment
// is a digit per block, 0..|fixed|-1 for a distinguished constant and
// |fixed| for "fresh", and assignments come in lexicographic order, last
// block fastest, keeping only those whose constant digits are pairwise
// distinct. The enumerator steps an odometer that generates exactly
// those: a constant digit skips the constants the blocks before it hold,
// while the fresh digit may repeat. No assignment is built and thrown
// away.
//
// Prefixes. A prefix is a partition together with its first block's digit
// (the empty partition of zero nulls is one prefix on its own). Prefixes
// are numbered in the order above, and each holds at least one valuation
// (every later block can be fresh). Several enumerators may share one
// atomic prefix counter: each takes the next number from it when it has
// finished its current prefix and jumps to that prefix without generating
// the ones in between. Together they produce every valuation exactly once.
// ordinal() places a valuation in the order of an enumerator that owns
// every prefix, so results found out of order can be merged as a single
// enumerator would have found them.
//
// Fresh representative constants are interned with the reserved prefix
// "#f"; user constants must not start with '#'. The block with index b
// takes "#f<offset + b>" when it is fresh, minted the first time a
// valuation needs it.

#ifndef OCDX_SEMANTICS_ISO_ENUM_H_
#define OCDX_SEMANTICS_ISO_ENUM_H_

#include <atomic>
#include <compare>
#include <cstdint>
#include <vector>

#include "base/value.h"
#include "semantics/valuation.h"
#include "util/combinatorics.h"

namespace ocdx {

/// A valuation's place in the order of an enumerator that owns every
/// prefix: its prefix number, then its index among that prefix's
/// valuations. Ordinals compare in that order.
struct ValuationOrdinal {
  uint64_t prefix = UINT64_MAX;
  uint64_t index = UINT64_MAX;

  friend auto operator<=>(const ValuationOrdinal&,
                          const ValuationOrdinal&) = default;
};

/// Enumerates valuation representatives of `nulls` up to isomorphisms
/// fixing `distinguished` (constants; duplicates allowed, deduplicated).
class ValuationEnumerator {
 public:
  /// With `prefix_tickets` null the enumerator owns every prefix. With a
  /// counter (starting at 0) shared by several enumerators over the same
  /// nulls and constants, each owns the prefixes whose numbers it draws.
  ValuationEnumerator(std::vector<Value> nulls,
                      const std::vector<Value>& distinguished,
                      Universe* universe,
                      std::atomic<uint64_t>* prefix_tickets = nullptr);

  /// Steps to the next representative; returns false when exhausted.
  /// images() and ordinal() then describe it.
  bool Advance();

  /// Advance, then writes the representative into `out`.
  bool Next(Valuation* out);

  /// The nulls being valuated, in the caller's order.
  const std::vector<Value>& nulls() const { return nulls_; }

  /// The current representative: images()[i] is the image of nulls()[i].
  const std::vector<Value>& images() const { return images_; }

  /// The current representative's place in the unshared order.
  ValuationOrdinal ordinal() const { return {prefix_, index_}; }

  /// Total number of nulls being valuated.
  size_t num_nulls() const { return nulls_.size(); }

  /// Estimated number of representatives (saturating); callers can use
  /// this to refuse oversized searches.
  uint64_t EstimateCount() const;

 private:
  /// Moves to prefix number `prefix` (never backwards) and its first
  /// assignment; false when there is no such prefix.
  bool StartPrefix(uint64_t prefix);
  /// The next assignment of the current prefix; false when it is done.
  bool StepInPrefix();
  /// The smallest digit >= `from` free for the next block: a constant no
  /// earlier block holds, else the fresh digit.
  uint32_t LowestFree(uint32_t from) const;
  void Take(uint32_t digit);
  void Release(uint32_t digit);
  void Materialize();

  std::vector<Value> nulls_;
  std::vector<Value> fixed_;  ///< Deduplicated distinguished constants.
  Universe* universe_;
  std::atomic<uint64_t>* tickets_;
  PartitionEnumerator partitions_;
  uint64_t partition_ = UINT64_MAX;  ///< Number of the current partition.
  uint32_t num_blocks_ = 0;
  std::vector<uint32_t> digits_;  ///< Per block: constant index or fresh.
  std::vector<uint8_t> used_;     ///< Per constant: held by some block.
  uint64_t prefix_ = UINT64_MAX;
  uint64_t index_ = 0;
  bool exhausted_ = false;
  std::vector<Value> fresh_;   ///< Minted fresh representatives.
  std::vector<Value> images_;  ///< Aligned with nulls_.
  size_t fresh_offset_ = 0;    ///< First safe "#f<i>" index.
};

}  // namespace ocdx

#endif  // OCDX_SEMANTICS_ISO_ENUM_H_
