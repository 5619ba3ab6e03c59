#include "semantics/iso_enum.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <numeric>
#include <set>

#include "util/str.h"

namespace ocdx {

namespace {

// The largest twin group an enumerator scans: every partition is tested
// against each element, and every canonical assignment against its
// partition's whole stabiliser.
constexpr uint64_t kMaxGroupOrder = 720;

}  // namespace

ValuationEnumerator::ValuationEnumerator(std::vector<Value> nulls,
                                         const std::vector<Value>& distinguished,
                                         Universe* universe,
                                         std::atomic<uint64_t>* prefix_tickets,
                                         const std::vector<TwinClass>& twins)
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
  BuildGroup(twins);
}

void ValuationEnumerator::BuildGroup(const std::vector<TwinClass>& twins) {
  const size_t n = nulls_.size();
  moved_slot_.assign(fixed_.size() + 1, UINT32_MAX);
  if (n == 0 || twins.empty()) return;
  std::map<Value, uint32_t> null_index;
  for (uint32_t i = 0; i < n; ++i) null_index[nulls_[i]] = i;

  // The classes kept, their values resolved to null indices (is_null) or
  // digits, and the members each permutes: as many as keep the group's
  // order within kMaxGroupOrder (a subgroup is still sound).
  struct Kept {
    std::vector<bool> is_null;
    std::vector<std::vector<uint32_t>> members;
  };
  std::vector<Kept> kept;
  std::vector<uint32_t> moved_digits;  // moved_ slot -> its digit.
  std::set<Value> taken;
  uint64_t order = 1;
  for (const TwinClass& twin : twins) {
    if (twin.members.size() < 2 || twin.members[0].empty()) continue;
    const std::vector<Value>& first = twin.members[0];
    bool ok = true;
    std::set<Value> seen;
    for (const std::vector<Value>& member : twin.members) {
      ok = ok && member.size() == first.size();
      for (size_t p = 0; ok && p < member.size(); ++p) {
        const Value v = member[p];
        ok = v.IsNull() == first[p].IsNull() &&
             (v.IsNull() ? null_index.count(v) > 0
                         : std::binary_search(fixed_.begin(), fixed_.end(),
                                              v)) &&
             taken.count(v) == 0 && seen.insert(v).second;
      }
    }
    if (!ok) continue;
    size_t m = 1;
    uint64_t factorial = 1;
    while (m < twin.members.size() &&
           order * factorial * (m + 1) <= kMaxGroupOrder) {
      ++m;
      factorial *= m;
    }
    if (m < 2) continue;
    order *= factorial;
    Kept k;
    for (Value v : first) k.is_null.push_back(v.IsNull());
    for (size_t i = 0; i < m; ++i) {
      std::vector<uint32_t> resolved;
      for (Value v : twin.members[i]) {
        taken.insert(v);
        if (v.IsNull()) {
          resolved.push_back(null_index[v]);
          continue;
        }
        const uint32_t digit = static_cast<uint32_t>(
            std::lower_bound(fixed_.begin(), fixed_.end(), v) -
            fixed_.begin());
        moved_slot_[digit] = static_cast<uint32_t>(moved_digits.size());
        moved_digits.push_back(digit);
        resolved.push_back(digit);
      }
      k.members.push_back(std::move(resolved));
    }
    kept.push_back(std::move(k));
  }
  if (kept.empty()) return;
  group_size_ = order - 1;
  num_moved_ = moved_digits.size();

  // Per class, every permutation of its members, the identity first.
  std::vector<std::vector<std::vector<uint32_t>>> perms(kept.size());
  for (size_t c = 0; c < kept.size(); ++c) {
    std::vector<uint32_t> p(kept[c].members.size());
    std::iota(p.begin(), p.end(), 0);
    do {
      perms[c].push_back(p);
    } while (std::next_permutation(p.begin(), p.end()));
  }
  // One element per choice of a permutation per class, the all-identity
  // choice excluded. Member i's entry q goes where member p[i]'s was.
  null_inv_.reserve(group_size_ * n);
  moved_.reserve(group_size_ * num_moved_);
  std::vector<size_t> choice(kept.size(), 0);
  std::vector<uint32_t> forward(n);
  std::vector<uint32_t> inverse(n);
  std::vector<uint32_t> moved(num_moved_);
  for (;;) {
    size_t c = 0;
    while (c < kept.size() && ++choice[c] == perms[c].size()) choice[c++] = 0;
    if (c == kept.size()) break;
    std::iota(forward.begin(), forward.end(), 0);
    moved = moved_digits;
    for (size_t k = 0; k < kept.size(); ++k) {
      const std::vector<uint32_t>& p = perms[k][choice[k]];
      const Kept& twin = kept[k];
      for (size_t i = 0; i < p.size(); ++i) {
        for (size_t q = 0; q < twin.is_null.size(); ++q) {
          const uint32_t from = twin.members[i][q];
          const uint32_t to = twin.members[p[i]][q];
          if (twin.is_null[q]) {
            forward[from] = to;
          } else {
            moved[moved_slot_[from]] = to;
          }
        }
      }
    }
    for (uint32_t i = 0; i < n; ++i) inverse[forward[i]] = i;
    null_inv_.insert(null_inv_.end(), inverse.begin(), inverse.end());
    moved_.insert(moved_.end(), moved.begin(), moved.end());
  }
  // The per-partition scratch never grows past these.
  stab_elems_.reserve(group_size_);
  stab_blocks_.reserve(group_size_ * n);
  first_null_.reserve(n);
  relabel_.reserve(n);
}

void ValuationEnumerator::ScanPartition() {
  partition_minimal_ = true;
  stab_elems_.clear();
  stab_blocks_.clear();
  if (group_size_ == 0) return;
  const std::vector<uint32_t>& rgs = partitions_.blocks();
  const size_t n = nulls_.size();
  first_null_.assign(num_blocks_, UINT32_MAX);
  for (uint32_t i = 0; i < n; ++i) {
    if (first_null_[rgs[i]] == UINT32_MAX) first_null_[rgs[i]] = i;
  }
  for (uint32_t e = 0; e < group_size_; ++e) {
    // The element's image of the partition puts null i in the block of
    // inv[i]; renumber its blocks by first occurrence and compare the
    // restricted-growth strings.
    const uint32_t* inv = &null_inv_[e * n];
    relabel_.assign(num_blocks_, UINT32_MAX);
    uint32_t next = 0;
    int cmp = 0;
    for (size_t i = 0; i < n && cmp == 0; ++i) {
      uint32_t& label = relabel_[rgs[inv[i]]];
      if (label == UINT32_MAX) label = next++;
      if (label != rgs[i]) cmp = label < rgs[i] ? -1 : 1;
    }
    if (cmp < 0) {
      partition_minimal_ = false;
      return;
    }
    if (cmp > 0) continue;
    stab_elems_.push_back(e);
    for (uint32_t b = 0; b < num_blocks_; ++b) {
      stab_blocks_.push_back(rgs[inv[first_null_[b]]]);
    }
  }
}

bool ValuationEnumerator::Canonical() const {
  // A stabiliser element maps the assignment to the one whose block b
  // holds the element's image of the digit of block from[b].
  for (size_t s = 0; s < stab_elems_.size(); ++s) {
    const uint32_t e = stab_elems_[s];
    const uint32_t* from = &stab_blocks_[s * num_blocks_];
    for (uint32_t b = 0; b < num_blocks_; ++b) {
      const uint32_t image = MapDigit(e, digits_[from[b]]);
      if (image != digits_[b]) {
        if (image < digits_[b]) return false;
        break;
      }
    }
  }
  return true;
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
  prefix_ = prefix;
  index_ = 0;
  if (scanned_partition_ != partition_) {
    scanned_partition_ = partition_;
    ScanPartition();
  }
  if (!partition_minimal_) return true;
  std::fill(used_.begin(), used_.end(), 0);
  digits_.resize(num_blocks_);
  for (uint32_t b = 0; b < num_blocks_; ++b) {
    digits_[b] = b == 0 ? static_cast<uint32_t>(prefix % per_partition)
                        : LowestFree(0);
    Take(digits_[b]);
  }
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
  bool stepped = prefix_ != UINT64_MAX && StepInPrefix();
  for (;;) {
    if (!stepped) {
      uint64_t next = tickets_ != nullptr
                          ? tickets_->fetch_add(1, std::memory_order_relaxed)
                          : prefix_ + 1;  // UINT64_MAX + 1 == 0 at the start.
      if (!StartPrefix(next)) {
        exhausted_ = true;
        return false;
      }
      // A partition some twin symmetry maps to an earlier one holds no
      // canonical valuation: none of its prefixes does.
      if (!partition_minimal_) continue;
    }
    if (Canonical()) break;
    stepped = StepInPrefix();
  }
  Materialize();
  return true;
}

void ValuationEnumerator::Materialize() {
  // Every fresh representative is minted at the first valuation, so no
  // later one allocates, whichever blocks it leaves fresh.
  while (fresh_.size() < nulls_.size()) {
    fresh_.push_back(
        universe_->Const(StrCat("#f", fresh_offset_ + fresh_.size())));
  }
  const std::vector<uint32_t>& blocks = partitions_.blocks();
  for (size_t i = 0; i < nulls_.size(); ++i) {
    const uint32_t b = blocks[i];
    images_[i] = digits_[b] < fixed_.size() ? fixed_[digits_[b]] : fresh_[b];
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
