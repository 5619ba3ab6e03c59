#include "base/relation.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <mutex>

namespace ocdx {

#ifndef NDEBUG
namespace internal {

// Live BucketIterationGuard registry (debug builds only). A plain vector:
// the engines nest at most a handful of guards, and ocdx is single-
// threaded per the library contract (thread_local keeps the tripwire
// honest if tests ever shard across threads).
namespace {
thread_local std::vector<const void*> live_bucket_iterations;
}  // namespace

void PushBucketIteration(const void* rel) {
  live_bucket_iterations.push_back(rel);
}

void PopBucketIteration(const void* rel) {
  assert(!live_bucket_iterations.empty() &&
         live_bucket_iterations.back() == rel &&
         "BucketIterationGuard scopes must nest");
  live_bucket_iterations.pop_back();
}

bool BucketIterationLive(const void* rel) {
  for (const void* r : live_bucket_iterations) {
    if (r == rel) return true;
  }
  return false;
}

}  // namespace internal

#define OCDX_ASSERT_NO_LIVE_BUCKET_ITERATION(rel)                           \
  assert(!internal::BucketIterationLive(rel) &&                             \
         "mutating a relation while one of its probe buckets is being "     \
         "iterated (snapshot the bucket size first; see relation.h)")
#else
#define OCDX_ASSERT_NO_LIVE_BUCKET_ITERATION(rel) ((void)0)
#endif

#define OCDX_ASSERT_NOT_FROZEN()                                            \
  assert(!frozen_ &&                                                        \
         "mutating a frozen relation: it is shared read-only (see the "     \
         "frozen-relation invariant in relation.h)")

namespace internal {

std::mutex& BuildMutex(const void* owner) {
  // A fixed stripe table: no per-relation lock state, and a build never
  // takes a second stripe (tuple_index.h), so stripes cannot deadlock.
  static std::mutex stripes[64];
  return stripes[(reinterpret_cast<uintptr_t>(owner) >> 4) % 64];
}

}  // namespace internal

namespace {

// Debug-build arity checks for probe arguments: a malformed mask or a key
// of the wrong width would silently probe the wrong index.
inline void AssertProbeArgs(uint64_t mask, std::span<const Value> key,
                            size_t arity) {
#ifndef NDEBUG
  assert((arity >= 64 || mask < (uint64_t{1} << arity)) &&
         "probe mask names positions beyond the relation's arity");
  assert(key.size() == static_cast<size_t>(__builtin_popcountll(mask)) &&
         "probe key width must equal the mask's popcount");
#else
  (void)mask;
  (void)key;
  (void)arity;
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// Relation
// ---------------------------------------------------------------------------

Relation::Relation(const Relation& o) : arity_(o.arity_) {
  Reserve(o.size());
  for (size_t i = 0; i < o.size(); ++i) Add(o.row(i));
}

Relation& Relation::operator=(const Relation& o) {
  if (this != &o) *this = Relation(o);
  return *this;
}

bool Relation::Contains(TupleRef t) const {
  size_t h = TupleHash{}(t);
  return set_.Find(h, [&](uint32_t id) { return row(id) == t; }) !=
         DedupIndex::kNone;
}

bool Relation::Add(TupleRef t) {
  assert(t.size() == arity_ && "tuple arity mismatch");
  OCDX_ASSERT_NOT_FROZEN();
  OCDX_ASSERT_NO_LIVE_BUCKET_ITERATION(this);
  size_t h = TupleHash{}(t);
  if (set_.Find(h, [&](uint32_t id) { return row(id) == t; }) !=
      DedupIndex::kNone) {
    return false;
  }
  ArenaRef ref = arena_.InternRef(t);
  uint32_t id = static_cast<uint32_t>(rows_.size());
  rows_.push_back(ref);
  set_.Insert(h, id);
  // Incremental index maintenance: live indexes absorb the new id in
  // place instead of being dropped and rebuilt on the next probe.
  TupleRef stored = arena_.Resolve(ref, arity_);
  indexes_.ForEach([&](PositionIndex& index) {
    index.Insert(stored, id);
    ++index_maintenance_stats().incremental_inserts;
  });
  return true;
}

size_t Relation::AddAll(std::span<const Value> flat) {
  assert(arity_ > 0 && "AddAll needs a positive arity");
  OCDX_ASSERT_NOT_FROZEN();
  assert(flat.size() % arity_ == 0 && "flat batch size not a row multiple");
  size_t n = flat.size() / arity_;
  Reserve(n);
  size_t added = 0;
  for (size_t i = 0; i < n; ++i) {
    if (Add(flat.subspan(i * arity_, arity_))) ++added;
  }
  return added;
}

void Relation::Reserve(size_t rows) {
  arena_.Reserve(rows * arity_);
  rows_.reserve(rows_.size() + rows);
  set_.Reserve(rows);
}

void Relation::Clear() {
  OCDX_ASSERT_NOT_FROZEN();
  OCDX_ASSERT_NO_LIVE_BUCKET_ITERATION(this);
  arena_.Clear();
  rows_.clear();
  set_.Clear();
  // Live indexes stay live, emptied in place: a relation refilled in a
  // loop (member images) keeps each probed mask's index and its capacity
  // instead of rebuilding it on the next probe.
  indexes_.ClearIndexes();
}

void Relation::Truncate(size_t n) {
  OCDX_ASSERT_NOT_FROZEN();
  OCDX_ASSERT_NO_LIVE_BUCKET_ITERATION(this);
  if (n >= rows_.size()) return;
  // Newest first: each row's index ids sit at their bucket ends.
  for (size_t id = rows_.size(); id-- > n;) {
    TupleRef t = row(id);
    set_.Erase(TupleHash{}(t), static_cast<uint32_t>(id));
    indexes_.ForEach([&](PositionIndex& index) {
      index.EraseLast(t, static_cast<uint32_t>(id));
    });
  }
  if (arity_ > 0) arena_.TruncateTo(rows_[n]);
  rows_.resize(n);
}

const std::vector<uint32_t>* Relation::Probe(uint64_t mask,
                                             std::span<const Value> key) const {
  assert(mask != 0 && "use tuples() for unkeyed iteration");
  AssertProbeArgs(mask, key, arity_);
  const PositionIndex& index =
      indexes_.GetOrBuild(mask, [this](PositionIndex* fresh) {
        for (uint32_t id = 0; id < rows_.size(); ++id) {
          fresh->Insert(row(id), id);
        }
      });
  return index.Probe(key);
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out;
  out.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) out.push_back(ToTuple(row(i)));
  std::sort(out.begin(), out.end());
  return out;
}

bool Relation::SubsetOf(const Relation& other) const {
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!other.Contains(row(i))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// AnnotatedRelation
// ---------------------------------------------------------------------------

namespace {

// Packs an annotation vector into the low 32 bits (bit p set = closed).
// Carried as a leading pseudo-constant in index keys so that one
// PositionIndex per mask serves all annotation signatures.
Value AnnKeyValue(AnnRef ann) {
  uint32_t bits = 0;
  for (size_t p = 0; p < ann.size(); ++p) {
    if (ann[p] == Ann::kClosed) bits |= uint32_t{1} << p;
  }
  return Value::MakeConst(bits);
}

// Builds the [ann-pseudo-value, masked values...] index key for a proper
// row into `key`.
void BuildProperKey(const AnnotatedTupleRef& t, uint64_t mask, Tuple* key) {
  key->clear();
  key->push_back(AnnKeyValue(t.ann));
  for (uint64_t m = mask; m != 0; m &= m - 1) {
    key->push_back(t.values[static_cast<size_t>(__builtin_ctzll(m))]);
  }
}

}  // namespace

AnnotatedRelation::AnnotatedRelation(const AnnotatedRelation& o)
    : arity_(o.arity_) {
  Reserve(o.size());
  for (size_t i = 0; i < o.size(); ++i) Add(o.row(i));
}

AnnotatedRelation& AnnotatedRelation::operator=(const AnnotatedRelation& o) {
  if (this != &o) *this = AnnotatedRelation(o);
  return *this;
}

uint32_t AnnotatedRelation::InternAnn(AnnRef ann) {
  for (size_t i = 0; i < ann_pool_.size(); ++i) {
    if (AnnRef(ann_pool_[i]) == ann) return static_cast<uint32_t>(i);
  }
  ann_pool_.emplace_back(ann.begin(), ann.end());
  return static_cast<uint32_t>(ann_pool_.size() - 1);
}

bool AnnotatedRelation::Contains(const AnnotatedTupleRef& t) const {
  size_t h = AnnotatedTupleHash{}(t);
  return set_.Find(h, [&](uint32_t id) { return row(id) == t; }) !=
         DedupIndex::kNone;
}

bool AnnotatedRelation::Add(const AnnotatedTupleRef& t) {
  assert(t.ann.size() == arity_ && "annotation arity mismatch");
  OCDX_ASSERT_NOT_FROZEN();
  OCDX_ASSERT_NO_LIVE_BUCKET_ITERATION(this);
  assert((t.values.empty() || t.values.size() == arity_) &&
         "tuple arity mismatch");
  size_t h = AnnotatedTupleHash{}(t);
  if (set_.Find(h, [&](uint32_t id) { return row(id) == t; }) !=
      DedupIndex::kNone) {
    return false;
  }
  StoredRow r{arena_.InternRef(t.values),
              static_cast<uint32_t>(t.values.size()), InternAnn(t.ann)};
  uint32_t id = static_cast<uint32_t>(rows_.size());
  rows_.push_back(r);
  set_.Insert(h, id);
  AnnotatedTupleRef stored = row(id);
  if (!stored.IsEmptyMarker()) {
    // Incremental maintenance of the proper-tuple indexes (markers are
    // never indexed).
    thread_local Tuple key;
    indexes_.ForEach([&](PositionIndex& index) {
      BuildProperKey(stored, index.mask(), &key);
      index.InsertKey(key, id);
      ++index_maintenance_stats().incremental_inserts;
    });
  }
  return true;
}

size_t AnnotatedRelation::AddAll(std::span<const Value> flat, AnnRef ann) {
  assert(arity_ > 0 && "AddAll needs a positive arity");
  OCDX_ASSERT_NOT_FROZEN();
  assert(flat.size() % arity_ == 0 && "flat batch size not a row multiple");
  size_t n = flat.size() / arity_;
  Reserve(n);
  size_t added = 0;
  for (size_t i = 0; i < n; ++i) {
    if (Add(AnnotatedTupleRef{flat.subspan(i * arity_, arity_), ann})) {
      ++added;
    }
  }
  return added;
}

void AnnotatedRelation::Reserve(size_t rows) {
  arena_.Reserve(rows * arity_);
  rows_.reserve(rows_.size() + rows);
  set_.Reserve(rows);
}

void AnnotatedRelation::Clear() {
  OCDX_ASSERT_NOT_FROZEN();
  OCDX_ASSERT_NO_LIVE_BUCKET_ITERATION(this);
  arena_.Clear();
  rows_.clear();
  set_.Clear();
  indexes_.ClearIndexes();
  // ann_pool_ is deliberately kept: pool indexes held by future rows stay
  // meaningful, and the pool is tiny.
}

const std::vector<uint32_t>* AnnotatedRelation::ProbeProper(
    uint64_t mask, std::span<const Value> key, AnnRef ann) const {
  assert(arity_ <= 32 && "annotation signatures are packed into 32 bits");
  AssertProbeArgs(mask, key, arity_);
  const PositionIndex& index =
      indexes_.GetOrBuild(mask, [this, mask](PositionIndex* fresh) {
        Tuple k;
        for (uint32_t id = 0; id < rows_.size(); ++id) {
          AnnotatedTupleRef t = row(id);
          if (t.IsEmptyMarker()) continue;
          BuildProperKey(t, mask, &k);
          fresh->InsertKey(k, id);
        }
      });
  // Scratch buffer so probes stay allocation-free after warm-up.
  thread_local Tuple probe;
  probe.clear();
  probe.push_back(AnnKeyValue(ann));
  probe.insert(probe.end(), key.begin(), key.end());
  return index.ProbeRaw(probe);
}

Relation AnnotatedRelation::RelPart() const {
  Relation out(arity_);
  out.Reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    AnnotatedTupleRef t = row(i);
    if (!t.IsEmptyMarker()) out.Add(t.values);
  }
  return out;
}

size_t AnnotatedRelation::NumProperTuples() const {
  size_t n = 0;
  for (const StoredRow& r : rows_) {
    // A marker is a zero-width row of a positive-arity relation (0-ary
    // relations have width-0 *proper* rows and no markers).
    if (r.len != 0 || arity_ == 0) ++n;
  }
  return n;
}

}  // namespace ocdx
