#include "util/combinatorics.h"

#include <algorithm>

namespace ocdx {

bool PartitionEnumerator::Next() {
  if (!started_) {
    started_ = true;
    rgs_.assign(n_, 0);  // All elements in one block (or empty for n_ = 0).
    return true;
  }
  if (n_ == 0) return false;
  // Find the rightmost position that can be incremented while keeping the
  // restricted-growth property rgs[i] <= 1 + max(rgs[0..i-1]).
  for (size_t i = n_; i-- > 1;) {
    uint32_t max_prefix = 0;
    for (size_t j = 0; j < i; ++j) max_prefix = std::max(max_prefix, rgs_[j]);
    if (rgs_[i] <= max_prefix) {
      ++rgs_[i];
      for (size_t j = i + 1; j < n_; ++j) rgs_[j] = 0;
      return true;
    }
  }
  return false;
}

uint32_t PartitionEnumerator::num_blocks() const {
  uint32_t m = 0;
  for (uint32_t b : rgs_) m = std::max(m, b + 1);
  return m;
}

bool AssignmentEnumerator::Next() {
  if (!started_) {
    started_ = true;
    if (k_ > 0 && base_ == 0) return false;
    digits_.assign(k_, 0);
    return true;
  }
  for (size_t i = k_; i-- > 0;) {
    if (digits_[i] + 1 < base_) {
      ++digits_[i];
      for (size_t j = i + 1; j < k_; ++j) digits_[j] = 0;
      return true;
    }
  }
  return false;
}

uint64_t BellNumber(size_t n) {
  // Bell triangle with saturating addition.
  std::vector<uint64_t> row = {1};
  auto sat_add = [](uint64_t a, uint64_t b) {
    return (a > UINT64_MAX - b) ? UINT64_MAX : a + b;
  };
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint64_t> next;
    next.reserve(row.size() + 1);
    next.push_back(row.back());
    for (uint64_t x : row) next.push_back(sat_add(next.back(), x));
    row = std::move(next);
  }
  return row.front();
}

}  // namespace ocdx
