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
// Fresh representative constants are interned with the reserved prefix
// "#f"; user constants must not start with '#'.

#ifndef OCDX_SEMANTICS_ISO_ENUM_H_
#define OCDX_SEMANTICS_ISO_ENUM_H_

#include <vector>

#include "base/value.h"
#include "semantics/valuation.h"
#include "util/combinatorics.h"

namespace ocdx {

/// Enumerates valuation representatives of `nulls` up to isomorphisms
/// fixing `distinguished` (constants; duplicates allowed, deduplicated).
class ValuationEnumerator {
 public:
  ValuationEnumerator(std::vector<Value> nulls,
                      const std::vector<Value>& distinguished,
                      Universe* universe);

  /// Produces the next representative; returns false when exhausted.
  bool Next(Valuation* out);

  /// Total number of nulls being valuated.
  size_t num_nulls() const { return nulls_.size(); }

  /// Estimated number of representatives (saturating); callers can use
  /// this to refuse oversized searches.
  uint64_t EstimateCount() const;

 private:
  bool NextAssignment();

  std::vector<Value> nulls_;
  std::vector<Value> fixed_;  ///< Deduplicated distinguished constants.
  Universe* universe_;
  PartitionEnumerator partitions_;
  bool have_partition_ = false;
  std::vector<uint32_t> blocks_;  ///< Copy of the current partition.
  uint32_t num_blocks_ = 0;
  AssignmentEnumerator assign_;   ///< blocks -> 0..|fixed| (|fixed|=fresh).
  std::vector<Value> fresh_;      ///< Lazily minted fresh representatives.
  // Per-step scratch, kept to spare the enumeration an allocation each.
  std::vector<bool> used_;
  std::vector<Value> block_value_;
  size_t fresh_offset_ = 0;       ///< First safe "#f<i>" index.
};

}  // namespace ocdx

#endif  // OCDX_SEMANTICS_ISO_ENUM_H_
