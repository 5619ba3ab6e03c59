// StringInterner: bidirectional string <-> dense-id map.
//
// A Universe interns its constants through one of these (Universe::consts_),
// so the hot paths (tuple hashing, homomorphism search, valuation
// enumeration) compare 32-bit ids instead of strings.
//
// Names are stored back-to-back in one byte arena of chunks that never
// move, with one view per id into it, and looked up through a DedupIndex
// (base/dedup.h) keyed by the name's hash: a first sight costs one copy
// into the arena and one slot, a hit costs one hash and a probe.

#ifndef OCDX_BASE_INTERNER_H_
#define OCDX_BASE_INTERNER_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "base/dedup.h"

namespace ocdx {

/// Interns strings into dense uint32 ids, starting from 0, in first-sight
/// order.
///
/// Ids are stable for the lifetime of the interner and never reused. A
/// view returned by Get stays valid for the interner's lifetime, across
/// any number of later Interns: arena chunks are never reallocated.
///
/// Concurrency contract: unsynchronized, like every per-Universe
/// structure — an interner belongs to the one job that owns its Universe
/// (README.md "Concurrency model"); jobs running in parallel each own a
/// disjoint interner, so no locking is needed or wanted on this path.
class StringInterner {
 public:
  /// Returns the id for `s`, interning it on first sight. Hashes `s`
  /// once; only a first sight copies its bytes.
  uint32_t Intern(std::string_view s) {
    const size_t hash = Hash(s);
    uint32_t id = Lookup(hash, s);
    if (id != DedupIndex::kNone) return id;
    id = static_cast<uint32_t>(names_.size());
    names_.push_back(Store(s));
    ids_.Insert(hash, id);
    return id;
  }

  /// Returns the id for `s` if already interned, or UINT32_MAX otherwise.
  uint32_t Find(std::string_view s) const { return Lookup(Hash(s), s); }

  /// The string for a previously interned id (< size()).
  std::string_view Get(uint32_t id) const {
    assert(id < names_.size());
    return names_[id];
  }

  size_t size() const { return names_.size(); }

 private:
  static_assert(DedupIndex::kNone == UINT32_MAX);

  static size_t Hash(std::string_view s) {
    return std::hash<std::string_view>{}(s);
  }

  uint32_t Lookup(size_t hash, std::string_view s) const {
    return ids_.Find(hash, [&](uint32_t id) { return names_[id] == s; });
  }

  /// Copies `s` into the arena. A name that does not fit the current
  /// chunk opens a new one, twice the last chunk's size up to
  /// kMaxChunk (or exactly the name's size, if larger), so a small
  /// universe stays small and a large one allocates rarely.
  std::string_view Store(std::string_view s) {
    if (s.empty()) return {};
    if (s.size() > left_) {
      last_chunk_ = std::clamp(last_chunk_ * 2, kMinChunk, kMaxChunk);
      const size_t cap = std::max(last_chunk_, s.size());
      chunks_.push_back(std::make_unique_for_overwrite<char[]>(cap));
      next_ = chunks_.back().get();
      left_ = cap;
    }
    char* dst = next_;
    std::memcpy(dst, s.data(), s.size());
    next_ += s.size();
    left_ -= s.size();
    return std::string_view(dst, s.size());
  }

  static constexpr size_t kMinChunk = 1024;
  static constexpr size_t kMaxChunk = 64 * 1024;

  std::vector<std::string_view> names_;  ///< id -> bytes in chunks_.
  DedupIndex ids_;                       ///< hash -> id.
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* next_ = nullptr;
  size_t left_ = 0;
  size_t last_chunk_ = 0;
};

}  // namespace ocdx

#endif  // OCDX_BASE_INTERNER_H_
