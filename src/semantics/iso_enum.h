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
// while the fresh digit may repeat. Without twins, no assignment is built
// and thrown away.
//
// Twins. The caller may also name twins: interchangeable parts of the
// instance whose nulls are valuated (TwinClass below), each class a set of
// parts that some automorphism of the instance maps onto each other while
// fixing every constant the caller's check can name. Such an automorphism
// permutes nulls and distinguished constants at once, and a generic check
// cannot tell a valuation from its image under it, so only one valuation
// per orbit of the group the twins generate (the product of one symmetric
// group per class) needs visiting. The enumerator yields exactly the
// lex-least valuation of each orbit in the order above: it skips a whole
// partition when some group element maps it to an earlier one, and tests
// each assignment of a kept partition against that partition's
// stabiliser, stopping at the first element that maps it to a smaller
// assignment. A non-canonical valuation costs a few digit comparisons and
// is never materialized. Every subgroup of the instance's automorphisms is
// sound, so a group too large to scan is cut to a subgroup (fewer members
// of a class permuted); without twins the enumeration is the unreduced one.
//
// Prefixes. A prefix is a partition together with its first block's digit
// (the empty partition of zero nulls is one prefix on its own). Prefixes
// are numbered in the order above. Without twins each holds at least one
// valuation (every later block can be fresh); with twins a prefix may hold
// none, and Advance then moves on to the next. Several enumerators may
// share one atomic prefix counter: each takes the next number from it when
// it has finished its current prefix and jumps to that prefix without
// generating the ones in between. Together they produce every valuation
// exactly once. ordinal() places a valuation in the order of an enumerator
// that owns every prefix (its index counts every assignment of the prefix,
// canonical or not), so results found out of order can be merged as a
// single enumerator would have found them.
//
// Fresh representative constants are interned with the reserved prefix
// "#f"; user constants must not start with '#'. The block with index b
// takes "#f<offset + b>" when it is fresh; all of them are minted at the
// first valuation.

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

/// One class of twins: parts of an instance that its automorphisms
/// interchange. Each member lists the nulls and constants of one part; all
/// members are equally long and aligned, so that for any two members i and
/// j the map sending members[i][p] to members[j][p] and members[j][p] to
/// members[i][p] for every p, and fixing every other null and constant,
/// is an automorphism of the instance that fixes every constant the
/// caller's check can name. Aligned entries are both nulls or both
/// constants; no value occurs twice in a class.
struct TwinClass {
  std::vector<std::vector<Value>> members;
};

/// Enumerates valuation representatives of `nulls` up to isomorphisms
/// fixing `distinguished` (constants; duplicates allowed, deduplicated),
/// and up to the automorphisms the twins generate.
class ValuationEnumerator {
 public:
  /// With `prefix_tickets` null the enumerator owns every prefix. With a
  /// counter (starting at 0) shared by several enumerators over the same
  /// nulls, constants and twins, each owns the prefixes whose numbers it
  /// draws. Every value of `twins` must be one of `nulls` or a constant of
  /// `distinguished`; a class that breaks that or the TwinClass contract
  /// is ignored.
  ValuationEnumerator(std::vector<Value> nulls,
                      const std::vector<Value>& distinguished,
                      Universe* universe,
                      std::atomic<uint64_t>* prefix_tickets = nullptr,
                      const std::vector<TwinClass>& twins = {});

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
  /// Expands the twin classes into the group's non-identity elements.
  void BuildGroup(const std::vector<TwinClass>& twins);
  /// Moves to prefix number `prefix` (never backwards) and its first
  /// assignment; false when there is no such prefix.
  bool StartPrefix(uint64_t prefix);
  /// Tests the current partition against every group element: clears
  /// partition_minimal_ when one maps it to an earlier partition, and
  /// otherwise collects its stabiliser.
  void ScanPartition();
  /// True when no stabiliser element maps the current assignment to a
  /// lexicographically smaller one.
  bool Canonical() const;
  /// Group element `e`'s image of digit `d`.
  uint32_t MapDigit(uint32_t e, uint32_t d) const {
    const uint32_t slot = moved_slot_[d];
    return slot == UINT32_MAX ? d : moved_[e * num_moved_ + slot];
  }
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

  // The twin group's non-identity elements, each as the null index it
  // maps onto null i (null_inv_, num_nulls() entries) and the images of
  // the digits it moves (moved_, num_moved_ entries; moved_slot_ maps a
  // digit to its entry, UINT32_MAX when no element moves it).
  size_t group_size_ = 0;
  size_t num_moved_ = 0;
  std::vector<uint32_t> null_inv_;
  std::vector<uint32_t> moved_;
  std::vector<uint32_t> moved_slot_;
  // The current partition against the group. stab_blocks_ holds, per
  // stabiliser element (stab_elems_), the block each block's digit comes
  // from in the element's image: num_blocks_ entries.
  uint64_t scanned_partition_ = UINT64_MAX;
  bool partition_minimal_ = true;
  std::vector<uint32_t> stab_elems_;
  std::vector<uint32_t> stab_blocks_;
  std::vector<uint32_t> first_null_;  ///< Per block: its first null.
  std::vector<uint32_t> relabel_;     ///< Scratch of ScanPartition.
};

}  // namespace ocdx

#endif  // OCDX_SEMANTICS_ISO_ENUM_H_
