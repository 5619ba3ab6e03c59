// StringInterner: bidirectional string <-> dense-id map.
//
// Constants, relation names, variable names and Skolem function symbols are
// all interned so that the hot paths (tuple hashing, homomorphism search,
// valuation enumeration) compare 32-bit ids instead of strings.

#ifndef OCDX_UTIL_INTERNER_H_
#define OCDX_UTIL_INTERNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ocdx {

/// Heterogeneous string hashing so lookups by string_view need not
/// materialize a std::string (hot paths intern on every constant).
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const std::string& s) const {
    return operator()(std::string_view(s));
  }
};

/// Interns strings into dense uint32 ids, starting from 0.
///
/// Ids are stable for the lifetime of the interner and never reused.
///
/// Concurrency contract: unsynchronized, like every per-Universe
/// structure — an interner belongs to the one job that owns its Universe
/// (README.md "Concurrency model"); jobs running in parallel each own a
/// disjoint interner, so no locking is needed or wanted on this path.
class StringInterner {
 public:
  StringInterner() = default;

  /// Returns the id for `s`, interning it on first sight. Lookup is
  /// allocation-free; only a first sight copies the string.
  uint32_t Intern(std::string_view s) {
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(strings_.size());
    strings_.emplace_back(s);
    ids_.emplace(strings_.back(), id);
    return id;
  }

  /// Returns the id for `s` if already interned, or UINT32_MAX otherwise.
  /// Allocation-free.
  uint32_t Find(std::string_view s) const {
    auto it = ids_.find(s);
    return it == ids_.end() ? UINT32_MAX : it->second;
  }

  bool Contains(std::string_view s) const { return Find(s) != UINT32_MAX; }

  /// The string for a previously interned id.
  const std::string& Get(uint32_t id) const { return strings_.at(id); }

  size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      ids_;
};

}  // namespace ocdx

#endif  // OCDX_UTIL_INTERNER_H_
