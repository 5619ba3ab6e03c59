#include "semantics/iso_enum.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "util/str.h"

namespace ocdx {

ValuationEnumerator::ValuationEnumerator(std::vector<Value> nulls,
                                         const std::vector<Value>& distinguished,
                                         Universe* universe,
                                         std::atomic<uint64_t>* prefix_tickets)
    : nulls_(std::move(nulls)),
      universe_(universe),
      tickets_(prefix_tickets),
      partitions_(nulls_.size()) {
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
  used_.assign(fixed_.size(), 0);
  digits_.reserve(nulls_.size());
  images_.resize(nulls_.size());
}

uint32_t ValuationEnumerator::LowestFree(uint32_t from) const {
  const uint32_t fresh = static_cast<uint32_t>(fixed_.size());
  for (uint32_t d = from; d < fresh; ++d) {
    if (used_[d] == 0) return d;
  }
  return fresh;
}

void ValuationEnumerator::Take(uint32_t digit) {
  if (digit < fixed_.size()) used_[digit] = 1;
}

void ValuationEnumerator::Release(uint32_t digit) {
  if (digit < fixed_.size()) used_[digit] = 0;
}

bool ValuationEnumerator::StartPrefix(uint64_t prefix) {
  // Zero nulls have one (empty) partition and one prefix; otherwise every
  // partition has one prefix per digit of its first block.
  const uint64_t per_partition = nulls_.empty() ? 1 : fixed_.size() + 1;
  const uint64_t partition = prefix / per_partition;
  while (partition_ == UINT64_MAX || partition_ < partition) {
    if (!partitions_.Next()) return false;
    ++partition_;
  }
  num_blocks_ = partitions_.num_blocks();
  std::fill(used_.begin(), used_.end(), 0);
  digits_.resize(num_blocks_);
  for (uint32_t b = 0; b < num_blocks_; ++b) {
    digits_[b] = b == 0 ? static_cast<uint32_t>(prefix % per_partition)
                        : LowestFree(0);
    Take(digits_[b]);
  }
  prefix_ = prefix;
  index_ = 0;
  return true;
}

bool ValuationEnumerator::StepInPrefix() {
  // The rightmost block after the first whose digit can grow does; the
  // blocks after it restart at their smallest free digits. A constant
  // digit can always grow (to the next free constant, or to fresh); the
  // fresh digit is the largest and carries.
  const uint32_t fresh = static_cast<uint32_t>(fixed_.size());
  for (uint32_t i = num_blocks_; i-- > 1;) {
    if (digits_[i] == fresh) continue;
    Release(digits_[i]);
    digits_[i] = LowestFree(digits_[i] + 1);
    Take(digits_[i]);
    for (uint32_t j = i + 1; j < num_blocks_; ++j) {
      digits_[j] = LowestFree(0);
      Take(digits_[j]);
    }
    ++index_;
    return true;
  }
  return false;
}

bool ValuationEnumerator::Advance() {
  if (exhausted_) return false;
  if (prefix_ == UINT64_MAX || !StepInPrefix()) {
    uint64_t next = tickets_ != nullptr
                        ? tickets_->fetch_add(1, std::memory_order_relaxed)
                        : prefix_ + 1;  // UINT64_MAX + 1 == 0 at the start.
    if (!StartPrefix(next)) {
      exhausted_ = true;
      return false;
    }
  }
  Materialize();
  return true;
}

void ValuationEnumerator::Materialize() {
  const std::vector<uint32_t>& blocks = partitions_.blocks();
  for (size_t i = 0; i < nulls_.size(); ++i) {
    const uint32_t b = blocks[i];
    if (digits_[b] < fixed_.size()) {
      images_[i] = fixed_[digits_[b]];
      continue;
    }
    while (fresh_.size() <= b) {
      fresh_.push_back(
          universe_->Const(StrCat("#f", fresh_offset_ + fresh_.size())));
    }
    images_[i] = fresh_[b];
  }
}

bool ValuationEnumerator::Next(Valuation* out) {
  if (!Advance()) return false;
  // Callers loop with one Valuation: when it already maps exactly these
  // nulls, overwrite it in place instead of rebuilding the map.
  bool reuse = out->size() == nulls_.size();
  for (size_t i = 0; reuse && i < nulls_.size(); ++i) {
    reuse = out->Defined(nulls_[i]);
  }
  if (!reuse) *out = Valuation();
  for (size_t i = 0; i < nulls_.size(); ++i) out->Set(nulls_[i], images_[i]);
  return true;
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
