// Hash indexes over tuple projections: the lookup substrate of the join
// engine.
//
// A PositionIndex maps the projection of a tuple onto a set of *key
// positions* (given as a bitmask) to the ids of all tuples sharing that
// projection. Relations build these lazily, one per bound-position
// signature that the join planner actually probes, and then maintain them
// *incrementally*: an Add appends the new tuple id into the affected
// bucket of every live index instead of dropping the indexes. The index
// is flat: distinct keys are stored back to back in one value arena and
// found through an open-addressed (hash, bucket number) table
// (base/dedup.h); bucket number b's key is the b-th key of the arena and
// its ids are the b-th bucket. Probes are allocation-free: callers pass a
// std::span over a scratch buffer.
//
// \invariant Buckets are stable: they live in a std::deque, which never
//   moves its elements when it grows at the back, so a pointer returned
//   by Probe stays valid across any number of later Insert calls. Under
//   Insert a bucket only ever *grows*, append-only, with ids in ascending
//   insertion order — never reorders or moves. The one way it shrinks
//   under a live relation is EraseLast, the undo of the latest Insert
//   (Relation::Truncate), which pops ids off bucket ends in the reverse
//   order they came. Clear empties the index in place: every bucket
//   keeps its capacity for the keys that come after it, and every
//   pointer Probe returned before it is invalid. A nullptr probe result
//   is not stable: the key's bucket can appear with a later Insert.
//
// \invariant Iterating a bucket while inserting into the same relation
//   can grow it mid-iteration — snapshot the size first. Debug builds
//   police this through BucketIterationGuard (relation.h); see the full
//   contract there.
//
// \invariant Build-once publication (IndexList): a relation's lazily
//   built read-side state — one PositionIndex per probed mask — is
//   published the PlanTable way.
//   The hit path is one acquire load and takes no lock; a miss takes the
//   owner's build mutex, re-checks, builds, and publishes with a release
//   store, so concurrent first probes of a frozen relation build each
//   piece exactly once. The mutexes live out of line, in a fixed striped
//   table keyed by owner address (internal::BuildMutex), so a relation
//   carries no lock state of its own. A build never probes, so it never
//   takes a second stripe.

#ifndef OCDX_BASE_TUPLE_INDEX_H_
#define OCDX_BASE_TUPLE_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "base/dedup.h"
#include "base/tuple.h"

namespace ocdx {

namespace internal {
/// The striped build mutex guarding `owner`'s lazy builds (relation.cc).
std::mutex& BuildMutex(const void* owner);
}  // namespace internal

/// Per-thread maintenance counters: how often an index was built by a
/// full scan vs. extended in place. The differential tests pin the "zero
/// full rebuilds" invariant with these (a mask's first probe builds its
/// index exactly once; every later Add extends it incrementally).
///
/// Thread-local, not process-wide: jobs run concurrently (src/exec), so a
/// shared counter would be cross-job mutable state in the storage layer.
/// Each worker counts its own maintenance work — a frozen relation's
/// index is counted by the one thread that built it — so per-thread
/// counts sum to exact totals.
struct IndexMaintenanceStats {
  uint64_t full_builds = 0;         ///< Index constructed by scanning.
  uint64_t incremental_inserts = 0; ///< Tuple appended into live indexes.

  void Reset() { *this = IndexMaintenanceStats{}; }
};

inline IndexMaintenanceStats& index_maintenance_stats() {
  thread_local IndexMaintenanceStats stats;
  return stats;
}

/// One hash index over a fixed set of key positions.
///
/// Keys are projections, all of one width; buckets hold tuple ids in
/// ascending insertion order, so index-driven iteration visits tuples in
/// the same order a scan would. See the bucket \invariant above.
class PositionIndex {
 public:
  /// `mask` bit p set means position p is part of the key. Key values are
  /// always laid out in ascending position order.
  explicit PositionIndex(uint64_t mask) : mask_(mask) {}

  uint64_t mask() const { return mask_; }

  /// Adds `id` under the projection of `t` (a full-width tuple).
  void Insert(TupleRef t, uint32_t id) { InsertKey(Project(t), id); }

  /// Adds `id` under an explicit, pre-built (borrowed) key. Appending to
  /// an existing bucket copies nothing; a new key is copied into the key
  /// arena, and reuses a cleared bucket's capacity when there is one.
  void InsertKey(std::span<const Value> key, uint32_t id) {
    const size_t h = TupleHash{}(key);
    uint32_t b = Find(h, key);
    if (b == DedupIndex::kNone) {
      if (num_buckets_ == 0) width_ = key.size();
      assert(key.size() == width_ && "index keys must share one width");
      b = static_cast<uint32_t>(num_buckets_++);
      keys_.insert(keys_.end(), key.begin(), key.end());
      table_.Insert(h, b);
      if (b < buckets_.size()) {
        buckets_[b].clear();
      } else {
        buckets_.emplace_back();
      }
    }
    buckets_[b].push_back(id);
  }

  /// Removes `id` from the end of the bucket of `t`'s projection, where
  /// the caller's latest Insert put it: the undo of that Insert
  /// (Relation::Truncate). The emptied bucket stays allocated for reuse;
  /// Probe reports it as no match.
  void EraseLast(TupleRef t, uint32_t id) {
    std::span<const Value> key = Project(t);
    uint32_t b = Find(TupleHash{}(key), key);
    assert(b != DedupIndex::kNone && !buckets_[b].empty() &&
           buckets_[b].back() == id && "EraseLast must undo the last Insert");
    (void)id;
    buckets_[b].pop_back();
  }

  /// Empties the index but keeps the capacity of its table, key arena and
  /// buckets. Invalidates every bucket pointer Probe returned.
  void Clear() {
    table_.Clear();
    keys_.clear();
    num_buckets_ = 0;
  }

  /// The bucket for `key`, or nullptr if empty.
  const std::vector<uint32_t>* Probe(std::span<const Value> key) const {
    assert(key.size() ==
               static_cast<size_t>(__builtin_popcountll(mask_)) &&
           "probe key width must match the index's bound positions");
    return ProbeRaw(key);
  }

  /// Probe with an explicit key layout (AnnotatedRelation prepends an
  /// annotation pseudo-value, so the key is one wider than the mask).
  const std::vector<uint32_t>* ProbeRaw(std::span<const Value> key) const {
    uint32_t b = Find(TupleHash{}(key), key);
    return b == DedupIndex::kNone || buckets_[b].empty() ? nullptr
                                                         : &buckets_[b];
  }

 private:
  /// The projection of `t` onto the mask, in a per-thread scratch buffer
  /// (valid until the thread's next Project).
  std::span<const Value> Project(TupleRef t) const {
    thread_local Tuple key;
    key.clear();
    for (uint64_t m = mask_; m != 0; m &= m - 1) {
      key.push_back(t[static_cast<size_t>(__builtin_ctzll(m))]);
    }
    return key;
  }

  /// The bucket number of `key` (hash `h`), or DedupIndex::kNone.
  uint32_t Find(size_t h, std::span<const Value> key) const {
    if (key.size() != width_) return DedupIndex::kNone;
    return table_.Find(h, [&](uint32_t b) {
      const Value* stored = keys_.data() + size_t{b} * width_;
      return std::equal(key.begin(), key.end(), stored);
    });
  }

  uint64_t mask_;
  size_t width_ = 0;        ///< Key width, fixed by the first key.
  size_t num_buckets_ = 0;  ///< Live buckets: buckets_[0, num_buckets_).
  DedupIndex table_;        ///< Key hash -> bucket number.
  std::vector<Value> keys_;  ///< Bucket b's key at [b * width_, +width_).
  std::deque<std::vector<uint32_t>> buckets_;
};

/// A relation's per-mask indexes: an append-only singly linked list
/// published through one atomic head pointer (a relation probes a
/// handful of masks, so a list walk beats hashing the mask). Lookups
/// are lock-free; GetOrBuild builds a missing index once under the
/// owner's build mutex (see the build-once \invariant above). Moves and
/// Clear are owner-only operations on an unshared relation.
class IndexList {
 public:
  IndexList() = default;
  IndexList(IndexList&& o) noexcept
      : head_(o.head_.exchange(nullptr, std::memory_order_relaxed)) {}
  IndexList& operator=(IndexList&& o) noexcept {
    if (this != &o) {
      Clear();
      head_.store(o.head_.exchange(nullptr, std::memory_order_relaxed),
                  std::memory_order_relaxed);
    }
    return *this;
  }
  IndexList(const IndexList&) = delete;
  IndexList& operator=(const IndexList&) = delete;
  ~IndexList() { Clear(); }

  /// The published index for `mask`, or nullptr. Lock-free.
  const PositionIndex* Find(uint64_t mask) const {
    for (const Node* n = head_.load(std::memory_order_acquire); n != nullptr;
         n = n->next) {
      if (n->index.mask() == mask) return &n->index;
    }
    return nullptr;
  }

  /// The index for `mask`; on first use, `fill(PositionIndex*)` populates
  /// it by a full scan, exactly once however many threads race here.
  template <typename Fill>
  const PositionIndex& GetOrBuild(uint64_t mask, Fill&& fill) const {
    if (const PositionIndex* hit = Find(mask)) return *hit;
    std::lock_guard<std::mutex> lock(internal::BuildMutex(this));
    if (const PositionIndex* hit = Find(mask)) return *hit;
    Node* node = new Node{PositionIndex(mask),
                          head_.load(std::memory_order_relaxed)};
    fill(&node->index);
    ++index_maintenance_stats().full_builds;
    head_.store(node, std::memory_order_release);
    return node->index;
  }

  /// Incremental maintenance: `f(PositionIndex&)` on every live index.
  /// Owner-only (the relation is mutable, hence unshared).
  template <typename F>
  void ForEach(F&& f) {
    for (Node* n = head_.load(std::memory_order_relaxed); n != nullptr;
         n = n->next) {
      f(n->index);
    }
  }

  /// Empties every index in place (PositionIndex::Clear). Owner-only.
  void ClearIndexes() {
    ForEach([](PositionIndex& index) { index.Clear(); });
  }

  /// Drops every index. Owner-only.
  void Clear() {
    Node* n = head_.exchange(nullptr, std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }

 private:
  struct Node {
    PositionIndex index;
    Node* next;
  };
  mutable std::atomic<Node*> head_{nullptr};
};

}  // namespace ocdx

#endif  // OCDX_BASE_TUPLE_INDEX_H_
