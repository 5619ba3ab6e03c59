#include "semantics/homomorphism.h"

#include <algorithm>
#include <set>
#include <vector>

#include "obs/trace.h"
#include "util/str.h"

namespace ocdx {

namespace {

enum class Mode { kHom, kOntoImage, kExpansion };

class HomSearch {
 public:
  HomSearch(const AnnotatedInstance& a, const AnnotatedInstance& b, Mode mode,
            HomOptions options, const EngineContext& ctx)
      : a_(a),
        b_(b),
        mode_(mode),
        options_(options),
        ctx_(ctx),
        indexed_(ctx.indexed()) {
    options_.max_steps = std::min(options_.max_steps, ctx.budget.hom_max_steps);
    for (const auto& [name, rel] : a_.relations()) {
      const AnnotatedRelation* brel = b_.Find(name);
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        if (!t.IsEmptyMarker()) items_.push_back(Item{&name, t, brel});
      }
    }
    matched_.assign(items_.size(), false);
  }

  Result<std::optional<NullMap>> Run() {
    obs::ScopedSpan span(ctx_, obs::kPhaseHomSearch);
    // Marker preconditions. A homomorphism fixes markers, so every marker
    // of `a` must occur in `b`; the exact-image mode also needs the
    // converse.
    for (const auto& [name, rel] : a_.relations()) {
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        if (!t.IsEmptyMarker()) continue;
        const AnnotatedRelation* brel = b_.Find(name);
        if (brel == nullptr || !brel->Contains(t)) {
          return std::optional<NullMap>();
        }
      }
    }
    if (mode_ == Mode::kOntoImage) {
      for (const auto& [name, rel] : b_.relations()) {
        for (const AnnotatedTupleRef& t : rel.tuples()) {
          if (!t.IsEmptyMarker()) continue;
          const AnnotatedRelation* arel = a_.Find(name);
          if (arel == nullptr || !arel->Contains(t)) {
            return std::optional<NullMap>();
          }
        }
      }
    }
    Result<bool> found = Search(0);
    if (ctx_.stats != nullptr) ctx_.stats->hom_steps += steps_;
    OCDX_RETURN_IF_ERROR(found.status());
    if (!found.value()) return std::optional<NullMap>();
    return std::optional<NullMap>(h_);
  }

 private:
  struct Item {
    const std::string* rel;
    AnnotatedTupleRef tuple;  ///< Spans stay valid: relations are arena-backed.
    const AnnotatedRelation* brel;
  };

  /// The step budget covers every unit of search work: backtracking nodes,
  /// index probes, and probed candidates — so an index-driven run can
  /// never do unbounded work under a finite max_steps.
  Status Charge(uint64_t n) {
    steps_ += n;
    if (steps_ > options_.max_steps) {
      return Status::ResourceExhausted(StrCat(
          "homomorphism search exceeded ", options_.max_steps, " steps"));
    }
    // Amortized deadline/cancellation poll (see logic/budget.h): the step
    // budget bounds work, the gauge bounds wall time.
    return gauge_.Tick();
  }

  /// Number of positions of `item` already forced (constants or h-bound
  /// nulls): the most-constrained-first selection heuristic.
  size_t DeterminedPositions(const Item& item) const {
    size_t n = 0;
    for (Value v : item.tuple.values) {
      if (v.IsConst() || h_.Defined(v)) ++n;
    }
    return n;
  }

  size_t PickItem() const {
    if (!indexed_) {
      // kGeneric: static insertion order, the reference search order.
      for (size_t i = 0; i < items_.size(); ++i) {
        if (!matched_[i]) return i;
      }
      return items_.size();
    }
    size_t best = items_.size();
    size_t best_det = 0, best_n = 0;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (matched_[i]) continue;
      size_t det = DeterminedPositions(items_[i]);
      size_t n = items_[i].brel == nullptr ? 0 : items_[i].brel->size();
      if (best == items_.size() || det > best_det ||
          (det == best_det && n < best_n)) {
        best = i;
        best_det = det;
        best_n = n;
      }
    }
    return best;
  }

  Result<bool> Search(size_t num_matched) {
    OCDX_RETURN_IF_ERROR(Charge(1));
    if (num_matched == items_.size()) return CheckLeaf();
    const size_t pick = PickItem();
    const Item& item = items_[pick];
    if (item.brel == nullptr) return false;
    const AnnotatedRelation* brel = item.brel;
    matched_[pick] = true;

    // An all-open marker in `b` licenses any expansion tuple, so in
    // expansion mode the item is unconstrained if one is present.
    if (mode_ == Mode::kExpansion) {
      if (brel->Contains(AllOpenMarker(brel->arity()))) {
        Result<bool> found = Search(num_matched + 1);
        if (!found.ok() || found.value()) {
          matched_[pick] = false;
          return found;
        }
      }
    }

    Result<bool> result = false;
    if (mode_ != Mode::kExpansion && indexed_ && brel->arity() <= 32 &&
        item.tuple.values.size() == brel->arity()) {
      result = ProbeCandidates(item, brel, num_matched);
    } else {
      result = ScanCandidates(item, brel, num_matched);
    }
    matched_[pick] = false;
    return result;
  }

  /// Indexed candidate fetch: probe `brel`'s position index on the item's
  /// determined positions, filtered by annotation signature.
  Result<bool> ProbeCandidates(const Item& item, const AnnotatedRelation* brel,
                               size_t num_matched) {
    TupleRef src = item.tuple.values;
    uint64_t mask = 0;
    key_scratch_.clear();
    for (size_t p = 0; p < src.size(); ++p) {
      Value sv = src[p];
      if (sv.IsConst()) {
        mask |= uint64_t{1} << p;
        key_scratch_.push_back(sv);
      } else if (h_.Defined(sv)) {
        mask |= uint64_t{1} << p;
        key_scratch_.push_back(h_.Apply(sv));
      }
    }
    OCDX_RETURN_IF_ERROR(Charge(1));  // The probe itself.
    const std::vector<uint32_t>* ids =
        brel->ProbeProper(mask, key_scratch_, item.tuple.ann);
    if (ids == nullptr) return false;
    // The search only reads brel (bindings live in h_), so iterating the
    // live bucket is safe; the guard asserts that stays true.
    BucketIterationGuard guard(brel);
    for (uint32_t id : *ids) {
      OCDX_RETURN_IF_ERROR(Charge(1));
      const AnnotatedTupleRef& cand = brel->tuples()[id];
      std::vector<Value> added;
      if (TryUnify(item.tuple, cand, &added)) {
        OCDX_ASSIGN_OR_RETURN(bool found, Search(num_matched + 1));
        if (found) return true;
      }
      for (auto it = added.rbegin(); it != added.rend(); ++it) h_.Unset(*it);
    }
    return false;
  }

  Result<bool> ScanCandidates(const Item& item, const AnnotatedRelation* brel,
                              size_t num_matched) {
    for (const AnnotatedTupleRef& cand : brel->tuples()) {
      if (cand.IsEmptyMarker()) continue;
      if (mode_ != Mode::kExpansion && !(cand.ann == item.tuple.ann)) continue;
      std::vector<Value> added;
      if (TryUnify(item.tuple, cand, &added)) {
        OCDX_ASSIGN_OR_RETURN(bool found, Search(num_matched + 1));
        if (found) return true;
      }
      for (auto it = added.rbegin(); it != added.rend(); ++it) h_.Unset(*it);
    }
    return false;
  }

  // Attempts to make h map item.tuple into/compatible-with `cand`,
  // recording newly bound nulls in `added`. In kHom/kOntoImage mode every
  // position must agree; in kExpansion mode only the positions `cand`
  // annotates closed constrain h.
  bool TryUnify(const AnnotatedTupleRef& src, const AnnotatedTupleRef& cand,
                std::vector<Value>* added) {
    for (size_t p = 0; p < src.values.size(); ++p) {
      if (mode_ == Mode::kExpansion && cand.ann[p] == Ann::kOpen) continue;
      Value sv = src.values[p];
      Value cv = cand.values[p];
      if (sv.IsConst()) {
        if (sv != cv) return Undo(added);
      } else {
        // h maps nulls to nulls only.
        if (!cv.IsNull()) return Undo(added);
        if (h_.Defined(sv)) {
          if (h_.Apply(sv) != cv) return Undo(added);
        } else {
          h_.Set(sv, cv);
          added->push_back(sv);
        }
      }
    }
    return true;
  }

  bool Undo(std::vector<Value>* added) {
    for (auto it = added->rbegin(); it != added->rend(); ++it) h_.Unset(*it);
    added->clear();
    return false;
  }

  /// Cached (_, all-open) markers, one per arity (the expansion search
  /// asks at every node; building an AnnVec per node is pure churn).
  const AnnotatedTuple& AllOpenMarker(size_t arity) {
    auto it = marker_cache_.find(arity);
    if (it == marker_cache_.end()) {
      it = marker_cache_
               .emplace(arity, AnnotatedTuple::EmptyMarker(AllOpen(arity)))
               .first;
    }
    return it->second;
  }

  Result<bool> CheckLeaf() {
    if (mode_ != Mode::kOntoImage) return true;
    // Exact image: every proper tuple of b must be the h-image of some
    // proper tuple of a, with the same annotation. The image relations
    // are leaf-local scratch — Clear keeps their arena/table capacity, so
    // leaves after the first allocate (almost) nothing.
    for (auto& [name, rel] : image_scratch_) rel.Clear();
    for (const Item& item : items_) {
      auto it = image_scratch_.find(*item.rel);
      if (it == image_scratch_.end()) {
        it = image_scratch_
                 .emplace(*item.rel, AnnotatedRelation(item.tuple.arity()))
                 .first;
      }
      mapped_scratch_.resize(item.tuple.values.size());
      for (size_t p = 0; p < item.tuple.values.size(); ++p) {
        mapped_scratch_[p] = h_.Apply(item.tuple.values[p]);
      }
      it->second.Add(AnnotatedTupleRef{mapped_scratch_, item.tuple.ann});
    }
    std::set<Value> image_nulls;
    for (const auto& [name, rel] : image_scratch_) {
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        for (Value v : t.values) {
          if (v.IsNull()) image_nulls.insert(v);
        }
      }
    }
    for (const auto& [name, brel] : b_.relations()) {
      for (const AnnotatedTupleRef& t : brel.tuples()) {
        if (t.IsEmptyMarker()) continue;
        auto it = image_scratch_.find(name);
        if (it == image_scratch_.end() || !it->second.Contains(t)) {
          return false;
        }
      }
    }
    // Onto the nulls of b.
    for (Value v : b_.Nulls()) {
      if (!image_nulls.count(v)) return false;
    }
    return true;
  }

  const AnnotatedInstance& a_;
  const AnnotatedInstance& b_;
  Mode mode_;
  HomOptions options_;
  EngineContext ctx_;
  BudgetGauge gauge_{ctx_.budget, ctx_.stats};
  bool indexed_;
  std::vector<Item> items_;
  std::vector<bool> matched_;
  std::vector<Value> key_scratch_;
  std::map<std::string, AnnotatedRelation> image_scratch_;
  Tuple mapped_scratch_;
  std::map<size_t, AnnotatedTuple> marker_cache_;
  NullMap h_;
  uint64_t steps_ = 0;
};

}  // namespace

Result<std::optional<NullMap>> FindHomomorphism(const AnnotatedInstance& from,
                                                const AnnotatedInstance& to,
                                                HomOptions options,
                                                const EngineContext& ctx) {
  return HomSearch(from, to, Mode::kHom, options, ctx).Run();
}

Result<std::optional<NullMap>> FindOntoImage(const AnnotatedInstance& from,
                                             const AnnotatedInstance& image,
                                             HomOptions options,
                                             const EngineContext& ctx) {
  return HomSearch(from, image, Mode::kOntoImage, options, ctx).Run();
}

Result<std::optional<NullMap>> FindExpansionHom(const AnnotatedInstance& inst,
                                                const AnnotatedInstance& core,
                                                HomOptions options,
                                                const EngineContext& ctx) {
  return HomSearch(inst, core, Mode::kExpansion, options, ctx).Run();
}

}  // namespace ocdx
