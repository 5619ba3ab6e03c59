// Relations: deduplicated sets of (annotated) tuples of a fixed arity.
//
// Storage layout: tuple payloads live in a per-relation bump arena
// (base/arena.h) and rows are *relocatable arena handles* (ArenaRef) into
// it — adding a tuple is a hash, a dedup probe against a flat
// open-addressed id table (base/dedup.h), and a memcpy; annotation
// vectors are interned into a per-relation pool (a chase emits thousands
// of tuples under a handful of annotations). Batch AddAll reserves the
// arena once for a whole delta, so firing n chase witnesses costs O(head
// atoms) allocations, not O(n). Copying a relation re-interns rows into
// the copy's own arena (indexes rebuild lazily on demand).
//
// \invariant TupleRef lifetime: arena chunks never move or shrink before
//   the relation dies, so every TupleRef / AnnotatedTupleRef handed out
//   by tuples() stays valid for the relation's lifetime, across any
//   number of later Adds. Clear() is the one exception: it recycles the
//   arena and invalidates every previously returned span and bucket
//   pointer. Truncate(n) invalidates the spans of the rows it removes.
//
// \invariant Index-append contract: lazy per-mask hash indexes are built
//   by a full scan on the first probe of their mask and maintained
//   *incrementally* from then on — Add appends the new tuple id into the
//   affected bucket of every live index (counted by
//   index_maintenance_stats(); the differential tests pin builds ==
//   distinct probed masks). Clear empties live indexes in place rather
//   than dropping them, so they keep being maintained by the Adds after
//   it. Bucket pointers returned by Probe / ProbeProper stay valid
//   across later Adds (buckets live in a std::deque; tuple_index.h):
//   under Add a bucket only ever *grows*, append-only, in ascending id
//   order — never reorders or moves; only Truncate shrinks one, popping
//   the ids it removes. A nullptr probe result is NOT a stable answer:
//   the key's bucket can appear with a later Add.
//
// \invariant The one sharp edge: iterating a bucket while inserting into
//   the *same* relation can grow the bucket mid-iteration — snapshot the
//   bucket size first. Cross-relation interleaving (the chase probes
//   sources, appends targets) needs no care. Debug builds enforce the
//   discipline through BucketIterationGuard below.
//
// \invariant Frozen relations (the read side of base/value.h's frozen
//   base). A relation is mutable and single-owner until Freeze(), which
//   is permanent: after it, Add / AddAll / Truncate / Clear assert, and
//   any number of threads may read it concurrently — Contains, Probe,
//   ProbeProper, row(), tuples(). The lazy per-mask indexes are safe
//   under that sharing because they are published build-once
//   (tuple_index.h): a probe of an indexed mask takes no lock, and the
//   first probe of a new mask builds under the owner's striped build
//   mutex and publishes with a release store. The dedup table is built
//   eagerly by Add, so Contains reads it without a latch. The mutable
//   and frozen states share this one representation; Freeze() itself
//   only sets a flag (no per-row work), and must happen-before the
//   reader threads start. A frozen scenario's instances and prechased
//   solutions are frozen this way and read by every run on it;
//   everything a run builds (chase results, member instances) stays
//   mutable and its own.

#ifndef OCDX_BASE_RELATION_H_
#define OCDX_BASE_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/arena.h"
#include "base/dedup.h"
#include "base/tuple.h"
#include "base/tuple_index.h"

namespace ocdx {

namespace internal {
#ifndef NDEBUG
/// Debug registry behind BucketIterationGuard (relation.cc).
void PushBucketIteration(const void* rel);
void PopBucketIteration(const void* rel);
bool BucketIterationLive(const void* rel);
#endif
}  // namespace internal

/// RAII tripwire for the one sharp edge of the index-append contract
/// (see the \invariant blocks below): iterating a probe bucket while
/// inserting into the *same* relation can grow the bucket mid-iteration,
/// so such a caller must snapshot the bucket size first. Engine loops
/// that walk a bucket hold a guard on the relation they are reading; in
/// debug builds, `Add` / `AddAll` / `Clear` assert that no guard is live
/// on that relation. Cross-relation interleaving (the chase probes
/// sources while appending targets) never trips it. Release builds
/// compile the guard to nothing.
class BucketIterationGuard {
 public:
#ifndef NDEBUG
  explicit BucketIterationGuard(const void* rel) : rel_(rel) {
    internal::PushBucketIteration(rel_);
  }
  ~BucketIterationGuard() { internal::PopBucketIteration(rel_); }
#else
  explicit BucketIterationGuard(const void*) {}
#endif
  BucketIterationGuard(const BucketIterationGuard&) = delete;
  BucketIterationGuard& operator=(const BucketIterationGuard&) = delete;

 private:
#ifndef NDEBUG
  const void* rel_;
#endif
};

/// Random-access view over a relation's rows, resolving each relocatable
/// row handle to its borrowed form on demand. Copyable and cheap (one
/// pointer); iterators index (relation, row id) rather than borrowing the
/// view object, so iterators taken from two distinct view temporaries of
/// the same relation interoperate (begin()/end() in one expression is
/// fine). Yields rows *by value* — bind as `for (TupleRef t : ...)` or
/// `for (const auto& t : ...)` (lifetime extension applies).
template <typename Rel, typename Row>
class RowView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Row;

    iterator() = default;
    iterator(const Rel* rel, size_t i) : rel_(rel), i_(i) {}
    Row operator*() const { return rel_->row(i_); }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++i_;
      return t;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return a.i_ != b.i_;
    }

   private:
    const Rel* rel_ = nullptr;
    size_t i_ = 0;
  };

  explicit RowView(const Rel* rel) : rel_(rel) {}
  size_t size() const { return rel_->size(); }
  bool empty() const { return rel_->empty(); }
  Row operator[](size_t id) const { return rel_->row(id); }
  iterator begin() const { return iterator(rel_, 0); }
  iterator end() const { return iterator(rel_, rel_->size()); }

 private:
  const Rel* rel_;
};

/// A plain (unannotated) relation: a set of tuples over Const u Null.
///
/// Tuples are kept in insertion order for reproducible iteration; the
/// dedup table provides O(1) membership.
class Relation {
 public:
  explicit Relation(size_t arity) : arity_(arity) {}

  // Rows are handles into the arena, so copying re-interns them into the
  // copy's own arena (indexes are rebuilt lazily on demand). A copy is
  // mutable even when the original is frozen.
  Relation(const Relation& o);
  Relation& operator=(const Relation& o);
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  size_t arity() const { return arity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Seals the relation read-only, permanently, for concurrent readers
  /// (see the frozen-relation \invariant above). O(1).
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Inserts a copy of `t`; returns true iff it was not already present.
  /// The tuple's size must equal arity(). Live indexes absorb the new
  /// tuple in place (previously returned bucket pointers stay valid).
  bool Add(TupleRef t);
  bool Add(std::initializer_list<Value> t) {
    return Add(TupleRef(t.begin(), t.size()));
  }

  /// Batch insert of `flat.size() / arity()` consecutive rows with a
  /// single arena reservation. Returns the number of rows newly inserted
  /// (duplicates, including within the batch, are dropped).
  size_t AddAll(std::span<const Value> flat);

  /// Pre-sizes the arena and row vector for `rows` further tuples.
  void Reserve(size_t rows);

  /// Empties the relation but keeps arena/table capacity — for scratch
  /// relations filled and cleared in a loop (e.g. per search leaf, per
  /// member image). Live indexes are emptied in place, keeping their
  /// capacity, and go on absorbing later Adds: a mask probed before the
  /// Clear is not built again. Invalidates all previously returned spans
  /// and bucket pointers.
  void Clear();

  /// Removes the rows with ids >= `n` — the undo of the Adds that
  /// created them — unwinding the dedup table, every live index and the
  /// arena with them, so the relation is exactly as it was at size `n`
  /// (indexes stay live). No-op when `n >= size()`. Member enumeration
  /// pushes extra tuples onto one reusable image with Add and pops them
  /// with this. Invalidates spans of the removed rows.
  void Truncate(size_t n);

  bool Contains(TupleRef t) const;
  bool Contains(std::initializer_list<Value> t) const {
    return Contains(TupleRef(t.begin(), t.size()));
  }

  /// Row `id` (insertion order), resolved to its borrowed form. The span
  /// stays valid across later Adds.
  TupleRef row(size_t id) const { return arena_.Resolve(rows_[id], arity_); }

  /// All rows in insertion order. Spans stay valid across later Adds.
  RowView<Relation, TupleRef> tuples() const {
    return RowView<Relation, TupleRef>(this);
  }

  /// Index probe: ids (ascending) of the tuples whose values at the
  /// positions of `mask` (bit p = position p) equal `key`, where `key`
  /// lists those values in ascending position order. nullptr means no
  /// match (a bucket for the key may appear after a later Add). `mask`
  /// must be non-zero and within the arity. The underlying index is built
  /// lazily on the first probe of each mask and maintained incrementally
  /// from then on.
  const std::vector<uint32_t>* Probe(uint64_t mask,
                                     std::span<const Value> key) const;

  /// Tuples in lexicographic Value order (canonical form for comparison
  /// and printing), materialized.
  std::vector<Tuple> SortedTuples() const;

  /// True iff every tuple of this relation is in `other`.
  bool SubsetOf(const Relation& other) const;

  friend bool operator==(const Relation& a, const Relation& b) {
    if (a.arity_ != b.arity_ || a.size() != b.size()) return false;
    return a.SubsetOf(b);
  }

 private:
  size_t arity_;
  ValueArena arena_;
  std::vector<ArenaRef> rows_;
  /// Flat (hash -> id) dedup table; rows are stored once, in the arena.
  DedupIndex set_;
  bool frozen_ = false;
  /// Lazy per-bound-signature indexes, materialized by probing a
  /// logically const relation.
  IndexList indexes_;
};

/// An annotated relation: a set of annotated tuples, possibly including
/// empty markers (_, alpha). Same storage scheme as Relation, with
/// annotation vectors interned into a per-relation pool (a chase emits
/// thousands of tuples sharing a handful of annotations).
class AnnotatedRelation {
 public:
  explicit AnnotatedRelation(size_t arity) : arity_(arity) {}

  AnnotatedRelation(const AnnotatedRelation& o);
  AnnotatedRelation& operator=(const AnnotatedRelation& o);
  AnnotatedRelation(AnnotatedRelation&&) = default;
  AnnotatedRelation& operator=(AnnotatedRelation&&) = default;

  size_t arity() const { return arity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// As Relation::Freeze.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Inserts a copy of `t`; live indexes are maintained incrementally, as
  /// with Relation::Add. AnnotatedTuple converts implicitly.
  bool Add(const AnnotatedTupleRef& t);

  /// Batch insert of proper rows sharing one annotation (the shape of a
  /// chase head atom's delta): `flat` holds `flat.size() / arity()`
  /// consecutive rows. Returns the number newly inserted.
  size_t AddAll(std::span<const Value> flat, AnnRef ann);

  void Reserve(size_t rows);

  /// As Relation::Clear (live indexes are emptied in place); the
  /// annotation pool is retained (pool indexes stay meaningful, and
  /// scratch reuse is exactly the case that re-adds the same few
  /// annotations).
  void Clear();

  bool Contains(const AnnotatedTupleRef& t) const;

  /// Row `id` (insertion order), resolved to its borrowed form. Refs stay
  /// valid across later Adds.
  AnnotatedTupleRef row(size_t id) const {
    const StoredRow& r = rows_[id];
    return AnnotatedTupleRef{arena_.Resolve(r.ref, r.len),
                             AnnRef(ann_pool_[r.ann])};
  }

  /// All rows in insertion order. Refs stay valid across later Adds.
  RowView<AnnotatedRelation, AnnotatedTupleRef> tuples() const {
    return RowView<AnnotatedRelation, AnnotatedTupleRef>(this);
  }

  /// Index probe over *proper* (non-marker) tuples: ids (ascending) of the
  /// tuples whose annotation equals `ann` and whose values at the positions
  /// of `mask` equal `key` (ascending position order). Unlike
  /// Relation::Probe, `mask` may be zero (an annotation-signature-only
  /// probe). Only available for arity <= 32 (annotation signatures are
  /// packed into 32 bits); callers must fall back to scanning above that.
  const std::vector<uint32_t>* ProbeProper(uint64_t mask,
                                           std::span<const Value> key,
                                           AnnRef ann) const;

  /// The pure relational part rel(T): non-empty tuples, annotations
  /// dropped (Section 3).
  Relation RelPart() const;

  /// Number of non-marker tuples.
  size_t NumProperTuples() const;

  friend bool operator==(const AnnotatedRelation& a,
                         const AnnotatedRelation& b) {
    if (a.arity_ != b.arity_ || a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!b.Contains(a.row(i))) return false;
    }
    return true;
  }

 private:
  /// A stored row: relocatable handle + width (0 = empty marker) + pool
  /// annotation index. 16 bytes, no pointers.
  struct StoredRow {
    ArenaRef ref;
    uint32_t len = 0;
    uint32_t ann = 0;
  };

  /// Returns the pool index of `ann`, interning it if new. Linear scan: a
  /// relation sees a handful of distinct annotations in practice (the
  /// chase emits one per head atom), and the pool is consulted only on
  /// Add of a new row.
  uint32_t InternAnn(AnnRef ann);

  size_t arity_;
  ValueArena arena_;
  std::vector<AnnVec> ann_pool_;
  std::vector<StoredRow> rows_;
  DedupIndex set_;
  bool frozen_ = false;
  IndexList indexes_;
};

}  // namespace ocdx

#endif  // OCDX_BASE_RELATION_H_
