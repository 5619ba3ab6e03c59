// Bump arena for tuple values: the backing store of relation storage.
//
// Relations used to heap-allocate one std::vector<Value> per tuple; on
// chase-shaped workloads (millions of short tuples) the allocator, not the
// join engine, dominated. A ValueArena packs tuple payloads back-to-back
// into large chunks: interning a tuple is a bounds check plus a memcpy,
// and a batch of n tuples costs at most one chunk allocation after a
// Reserve.
//
// \invariant Span stability (the TupleRef lifetime rule): chunks are
//   never reallocated, moved, or freed before the arena dies, so every
//   span handed out by InternRef / AllocateRef (or produced by Resolve)
//   stays valid for the arena's lifetime, across any number of later
//   appends — this is what lets relations expose span-backed tuples
//   (TupleRef / AnnotatedTupleRef) whose pointers survive later Adds.
//   Clear() is the sole exception: it recycles capacity and invalidates
//   every previously returned span and ArenaRef (relations that Clear are
//   scratch by contract; see Relation::Clear).
//
// Rows are addressed by ArenaRef handles — (chunk, position)
// coordinates, 8 bytes — rather than spans, so a stored row is half the
// size of a pointer-and-length pair.

#ifndef OCDX_BASE_ARENA_H_
#define OCDX_BASE_ARENA_H_

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/value.h"

namespace ocdx {

/// A relocatable handle to a sequence of values in a ValueArena: chunk
/// index plus position within the chunk. 8 bytes, trivially copyable;
/// the length is carried by the owner (relations know their arity).
/// The default-constructed ref denotes the empty sequence.
struct ArenaRef {
  uint32_t chunk = 0;
  uint32_t pos = 0;

  friend bool operator==(ArenaRef a, ArenaRef b) {
    return a.chunk == b.chunk && a.pos == b.pos;
  }
};

/// Append-only chunked storage for Value sequences. Unsynchronized by
/// design: an arena belongs to one relation, which belongs to one job
/// (one-Universe-per-job, README.md "Concurrency model") — parallel
/// executors give every job disjoint arenas instead of locking this hot
/// path. Movable but not copyable (owners re-intern on copy).
class ValueArena {
 public:
  ValueArena() = default;
  ValueArena(ValueArena&&) = default;
  ValueArena& operator=(ValueArena&&) = default;
  ValueArena(const ValueArena&) = delete;
  ValueArena& operator=(const ValueArena&) = delete;

  /// Copies `src` into the arena and returns its relocatable handle; the
  /// handle (and any span Resolve derives from it) is stable until the
  /// arena is destroyed — appends never move existing chunks.
  ArenaRef InternRef(std::span<const Value> src) {
    auto [ref, dst] = AllocateRef(src.size());
    if (!src.empty()) {
      std::memcpy(dst.data(), src.data(), src.size() * sizeof(Value));
    }
    return ref;
  }

  /// Uninitialized space for `n` values (the caller fills the span in
  /// place; the handle addresses it for good).
  std::pair<ArenaRef, std::span<Value>> AllocateRef(size_t n) {
    if (n == 0) return {ArenaRef{}, std::span<Value>{}};
    if (n > left_) NewChunk(n);
    Chunk& c = chunks_.back();
    ArenaRef ref{static_cast<uint32_t>(chunks_.size() - 1),
                 static_cast<uint32_t>(c.used)};
    Value* out = c.data.get() + c.used;
    c.used += n;
    left_ -= n;
    size_ += n;
    return {ref, std::span<Value>{out, n}};
  }

  /// The `n` values addressed by `ref`. O(1): two loads and an add.
  std::span<const Value> Resolve(ArenaRef ref, size_t n) const {
    if (n == 0) return {};
    assert(ref.chunk < chunks_.size() && "ArenaRef from another arena");
    const Chunk& c = chunks_[ref.chunk];
    assert(ref.pos + n <= c.used && "ArenaRef range out of bounds");
    return {c.data.get() + ref.pos, n};
  }

  /// Ensures the next `n` values fit without a further chunk allocation:
  /// the single-allocation guarantee behind the batch AddAll paths.
  void Reserve(size_t n) {
    if (n > left_) NewChunk(n);
  }

  /// Forgets every value handed out at or after `ref` (a handle this
  /// arena returned for a non-empty span): the undo of the InternRef
  /// calls from that one on. Chunks opened after `ref`'s are freed.
  /// Invalidates spans past `ref`.
  void TruncateTo(ArenaRef ref) {
    assert(ref.chunk < chunks_.size() && "ArenaRef from another arena");
    chunks_.resize(ref.chunk + 1);
    Chunk& c = chunks_.back();
    assert(ref.pos <= c.used && "ArenaRef range out of bounds");
    c.used = ref.pos;
    left_ = c.size - c.used;
    size_ = c.base + c.used;
  }

  /// Total values stored.
  size_t size() const { return size_; }

  /// Forgets the contents but keeps (and coalesces) the allocated
  /// capacity, so a scratch arena filled and cleared in a loop stops
  /// allocating after the first lap. Invalidates every span and ArenaRef
  /// handed out.
  void Clear() {
    size_ = 0;
    if (chunks_.empty()) return;
    if (chunks_.size() > 1) {
      size_t total = 0;
      for (const Chunk& c : chunks_) total += c.size;
      chunks_.clear();
      chunks_.push_back(Chunk{std::make_unique<Value[]>(total), total, 0, 0});
    }
    chunks_[0].used = 0;
    chunks_[0].base = 0;
    left_ = chunks_[0].size;
  }

 private:
  struct Chunk {
    std::unique_ptr<Value[]> data;
    size_t size;    ///< Capacity in values.
    size_t used;    ///< Values handed out from this chunk.
    uint64_t base;  ///< Values handed out before this chunk opened.
  };

  // Big enough that per-chunk overhead vanishes, small enough that tiny
  // relations don't waste kilobytes: chunks double up to a cap.
  static constexpr size_t kMinChunk = 64;
  static constexpr size_t kMaxChunk = size_t{1} << 16;

  void NewChunk(size_t at_least) {
    size_t want = std::max(at_least, std::min(next_chunk_, kMaxChunk));
    next_chunk_ = std::min(next_chunk_ * 2, kMaxChunk);
    // base = size_: the abandoned tail of the previous chunk was never
    // handed out, so TruncateTo can recount size_ from base + used.
    chunks_.push_back(Chunk{std::make_unique<Value[]>(want), want, 0, size_});
    left_ = want;
  }

  std::vector<Chunk> chunks_;
  size_t left_ = 0;
  size_t size_ = 0;
  size_t next_chunk_ = kMinChunk;
};

}  // namespace ocdx

#endif  // OCDX_BASE_ARENA_H_
