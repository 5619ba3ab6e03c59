#include "semantics/iso_enum.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "util/str.h"

namespace ocdx {

ValuationEnumerator::ValuationEnumerator(std::vector<Value> nulls,
                                         const std::vector<Value>& distinguished,
                                         Universe* universe)
    : nulls_(std::move(nulls)),
      universe_(universe),
      partitions_(nulls_.size()),
      assign_(0, 0) {
  std::set<Value> dedup;
  for (Value v : distinguished) {
    if (v.IsConst()) dedup.insert(v);
  }
  fixed_.assign(dedup.begin(), dedup.end());
  // Fresh representatives must be distinct from every fixed constant.
  // Nested enumerations (e.g. the two-phase Skolem search) put "#f<i>"
  // constants from an outer enumeration into `distinguished`, so start
  // our own fresh names above any such index.
  for (Value v : fixed_) {
    const std::string& name = universe_->Describe(v);
    if (name.rfind("#f", 0) == 0) {
      size_t idx = 0;
      bool numeric = name.size() > 2;
      for (size_t i = 2; i < name.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
          numeric = false;
          break;
        }
        idx = idx * 10 + (name[i] - '0');
      }
      if (numeric) fresh_offset_ = std::max(fresh_offset_, idx + 1);
    }
  }
}

bool ValuationEnumerator::NextAssignment() {
  while (assign_.Next()) {
    // Skip assignments where two blocks share a fixed constant: that
    // isomorphism class is covered by the coarser partition merging them.
    const std::vector<uint32_t>& d = assign_.digits();
    used_.assign(fixed_.size(), false);
    bool ok = true;
    for (uint32_t digit : d) {
      if (digit < fixed_.size()) {
        if (used_[digit]) {
          ok = false;
          break;
        }
        used_[digit] = true;
      }
    }
    if (ok) return true;
  }
  return false;
}

bool ValuationEnumerator::Next(Valuation* out) {
  while (true) {
    if (!have_partition_) {
      if (!partitions_.Next()) return false;
      have_partition_ = true;
      blocks_ = partitions_.blocks();
      num_blocks_ = partitions_.num_blocks();
      assign_ = AssignmentEnumerator(num_blocks_, fixed_.size() + 1);
    }
    if (!NextAssignment()) {
      have_partition_ = false;
      continue;
    }
    const std::vector<uint32_t>& d = assign_.digits();
    // Materialize block values.
    block_value_.resize(num_blocks_);
    for (uint32_t b = 0; b < num_blocks_; ++b) {
      if (d[b] < fixed_.size()) {
        block_value_[b] = fixed_[d[b]];
      } else {
        while (fresh_.size() <= b) {
          fresh_.push_back(
              universe_->Const(StrCat("#f", fresh_offset_ + fresh_.size())));
        }
        block_value_[b] = fresh_[b];
      }
    }
    // Callers loop with one Valuation: when it already maps exactly these
    // nulls, overwrite it in place instead of rebuilding the map.
    bool reuse = out->size() == nulls_.size();
    for (size_t i = 0; reuse && i < nulls_.size(); ++i) {
      reuse = out->Defined(nulls_[i]);
    }
    if (!reuse) *out = Valuation();
    for (size_t i = 0; i < nulls_.size(); ++i) {
      out->Set(nulls_[i], block_value_[blocks_[i]]);
    }
    return true;
  }
}

uint64_t ValuationEnumerator::EstimateCount() const {
  uint64_t bell = BellNumber(nulls_.size());
  uint64_t base = fixed_.size() + 1;
  uint64_t pow = 1;
  for (size_t i = 0; i < nulls_.size(); ++i) {
    if (pow > UINT64_MAX / base) return UINT64_MAX;
    pow *= base;
  }
  if (bell > 0 && pow > UINT64_MAX / bell) return UINT64_MAX;
  return bell * pow;
}

}  // namespace ocdx
