// Combinatorial enumerators used by the exact solvers.
//
// The paper's NP / coNP / coNEXPTIME procedures "guess" valuations of nulls
// and small auxiliary instances. ocdx makes those guesses exhaustively but
// finitely: by genericity of relational queries, valuations only matter up
// to isomorphism, so enumerating (a) set partitions of the nulls and
// (b) assignments of partition blocks to known-or-fresh constants covers
// the full (infinite) valuation space exactly. This header provides the
// underlying enumerators.

#ifndef OCDX_UTIL_COMBINATORICS_H_
#define OCDX_UTIL_COMBINATORICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ocdx {

/// Enumerates all set partitions of {0, .., n-1} as restricted-growth
/// strings: rgs[i] = block index of element i, with rgs[0] = 0 and
/// rgs[i] <= 1 + max(rgs[0..i-1]).
///
/// Usage:
///   PartitionEnumerator pe(3);
///   while (pe.Next()) { use(pe.blocks(), pe.num_blocks()); }
///
/// For n = 0 a single empty partition is produced.
class PartitionEnumerator {
 public:
  explicit PartitionEnumerator(size_t n) : n_(n), started_(false) {}

  /// Advances to the next partition; returns false when exhausted.
  bool Next();

  /// Block index of each element (valid after Next() returned true).
  const std::vector<uint32_t>& blocks() const { return rgs_; }

  /// Number of blocks in the current partition.
  uint32_t num_blocks() const;

 private:
  size_t n_;
  bool started_;
  std::vector<uint32_t> rgs_;
};

/// Enumerates all functions from {0,..,k-1} to {0,..,base-1} (i.e. all
/// mixed-radix counters of k digits in base `base`).
///
/// For k = 0 a single empty assignment is produced. For base = 0 and
/// k > 0 nothing is produced.
class AssignmentEnumerator {
 public:
  AssignmentEnumerator(size_t k, size_t base)
      : k_(k), base_(base), started_(false) {}

  /// Restarts as AssignmentEnumerator(k, base), keeping the digit
  /// vector's capacity (loops that enumerate per iteration allocate
  /// nothing once warm).
  void Reset(size_t k, size_t base) {
    k_ = k;
    base_ = base;
    started_ = false;
  }

  bool Next();

  const std::vector<uint32_t>& digits() const { return digits_; }

 private:
  size_t k_;
  size_t base_;
  bool started_;
  std::vector<uint32_t> digits_;
};

/// Number of set partitions of an n-element set (Bell number); saturates
/// at UINT64_MAX. Used to pre-estimate solver costs.
uint64_t BellNumber(size_t n);

}  // namespace ocdx

#endif  // OCDX_UTIL_COMBINATORICS_H_
