#include "semantics/repa.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/str.h"

namespace ocdx {

bool MatchesOnClosed(TupleRef tuple, const AnnotatedTupleRef& t0,
                     const Valuation& v) {
  if (t0.IsEmptyMarker()) return IsAllOpen(t0.ann);
  if (tuple.size() != t0.values.size()) return false;
  for (size_t p = 0; p < t0.values.size(); ++p) {
    if (t0.ann[p] == Ann::kClosed && tuple[p] != v.Apply(t0.values[p])) {
      return false;
    }
  }
  return true;
}

bool InRepAUnder(const AnnotatedInstance& annotated, const Instance& ground,
                 const Valuation& v) {
  // (a) ground contains every valuated proper tuple.
  for (const auto& [name, rel] : annotated.relations()) {
    const Relation* grel = ground.Find(name);
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      if (t.IsEmptyMarker()) continue;
      if (grel == nullptr || !grel->Contains(v.Apply(t.values))) return false;
    }
  }
  // (b) every ground tuple coincides with some annotated tuple on its
  // closed positions.
  for (const auto& [name, grel] : ground.relations()) {
    if (grel.empty()) continue;
    const AnnotatedRelation* arel = annotated.Find(name);
    for (TupleRef r : grel.tuples()) {
      bool matched = false;
      if (arel != nullptr) {
        for (const AnnotatedTupleRef& t : arel->tuples()) {
          if (MatchesOnClosed(r, t, v)) {
            matched = true;
            break;
          }
        }
      }
      if (!matched) return false;
    }
  }
  return true;
}

namespace {

// Backtracking matcher for condition (a): assigns nulls so that every
// proper tuple of T lands in `ground`; at each leaf checks condition (b).
class RepASearch {
 public:
  RepASearch(const AnnotatedInstance& annotated, const Instance& ground,
             RepAOptions options, const EngineContext& ctx)
      : annotated_(annotated),
        ground_(ground),
        options_(options),
        ctx_(ctx),
        indexed_(ctx.indexed()) {
    options_.max_steps = std::min(options_.max_steps, ctx.budget.repa_max_steps);
    for (const auto& [name, rel] : annotated_.relations()) {
      const Relation* grel = ground_.Find(name);
      for (const AnnotatedTupleRef& t : rel.tuples()) {
        if (!t.IsEmptyMarker()) {
          proper_.push_back(Item{&name, t, grel, false});
        }
      }
    }
    // Relation pairs for the condition-(b) leaf check, resolved once.
    for (const auto& [name, grel] : ground_.relations()) {
      if (grel.empty()) continue;
      cover_.push_back({&grel, annotated_.Find(name)});
    }
  }

  Result<bool> Run(Valuation* witness) {
    obs::ScopedSpan span(ctx_, obs::kPhaseRepASearch);
    Result<bool> found = Search();
    if (ctx_.stats != nullptr) ctx_.stats->repa_steps += steps_;
    OCDX_RETURN_IF_ERROR(found.status());
    if (found.value() && witness != nullptr) *witness = valuation_;
    return found.value();
  }

 private:
  struct Item {
    const std::string* rel;
    AnnotatedTupleRef tuple;  ///< Spans stay valid: relations are arena-backed.
    const Relation* grel;
    bool matched;
  };

  /// Condition (b) alone: every ground tuple coincides with some annotated
  /// tuple on its closed positions. At a search leaf condition (a) holds
  /// by construction — every proper tuple was unified with an actual
  /// ground tuple — so re-verifying it (as the kGeneric reference does
  /// via InRepAUnder) is pure overhead.
  bool GroundCovered() const {
    for (const auto& [grel, arel] : cover_) {
      for (TupleRef r : grel->tuples()) {
        bool matched = false;
        if (arel != nullptr) {
          for (const AnnotatedTupleRef& t : arel->tuples()) {
            if (MatchesOnClosed(r, t, valuation_)) {
              matched = true;
              break;
            }
          }
        }
        if (!matched) return false;
      }
    }
    return true;
  }

  /// Could `t0` still cover `r` on its closed positions in *some*
  /// extension of the current valuation? Closed positions holding unbound
  /// nulls are wildcards; bound/constant closed positions must already
  /// agree.
  static bool PotentiallyCovers(TupleRef r, const AnnotatedTupleRef& t0,
                                const Valuation& v) {
    if (t0.IsEmptyMarker()) return IsAllOpen(t0.ann);
    if (r.size() != t0.values.size()) return false;
    for (size_t p = 0; p < t0.values.size(); ++p) {
      if (t0.ann[p] != Ann::kClosed) continue;
      Value b = v.Apply(t0.values[p]);
      if (b.IsConst() && b != r[p]) return false;
    }
    return true;
  }

  /// Forward check on condition (b): binding nulls only ever shrinks the
  /// set of annotated tuples that can cover a ground tuple, so a ground
  /// tuple with no potential cover left kills the whole branch. This is
  /// what collapses the exponential leaf count of the unpruned search.
  bool GroundCoverStillPossible() const {
    for (const auto& [grel, arel] : cover_) {
      for (TupleRef r : grel->tuples()) {
        bool possible = false;
        if (arel != nullptr) {
          for (const AnnotatedTupleRef& t : arel->tuples()) {
            if (PotentiallyCovers(r, t, valuation_)) {
              possible = true;
              break;
            }
          }
        }
        if (!possible) return false;
      }
    }
    return true;
  }

  // Number of distinct unbound nulls in an item (selection heuristic).
  // `seen_scratch_` is reused across calls: this runs once per item per
  // search node, so a fresh vector here was an allocation per visit.
  size_t UnboundNulls(const Item& item) {
    seen_scratch_.clear();
    for (Value v : item.tuple.values) {
      if (v.IsNull() && !valuation_.Defined(v) &&
          std::find(seen_scratch_.begin(), seen_scratch_.end(), v) ==
              seen_scratch_.end()) {
        seen_scratch_.push_back(v);
      }
    }
    return seen_scratch_.size();
  }

  /// One unit of search work: the step cap plus the amortized deadline/
  /// cancellation poll (see logic/budget.h).
  Status ChargeStep() {
    if (++steps_ > options_.max_steps) {
      return Status::ResourceExhausted(
          StrCat("InRepA exceeded ", options_.max_steps,
                 " backtracking steps"));
    }
    return gauge_.Tick();
  }

  Result<bool> Search() {
    OCDX_RETURN_IF_ERROR(ChargeStep());
    // Pick the unmatched item with the fewest unbound nulls.
    int best = -1;
    size_t best_unbound = SIZE_MAX;
    for (size_t i = 0; i < proper_.size(); ++i) {
      if (proper_[i].matched) continue;
      size_t u = UnboundNulls(proper_[i]);
      if (u < best_unbound) {
        best_unbound = u;
        best = static_cast<int>(i);
        if (u == 0) break;
      }
    }
    if (best < 0) {
      // All proper tuples matched; condition (b) remains.
      if (indexed_) return GroundCovered();
      return InRepAUnder(annotated_, ground_, valuation_);
    }

    Item& item = proper_[best];
    const Relation* grel = item.grel;
    if (grel == nullptr) return false;
    item.matched = true;

    TupleRef pattern = item.tuple.values;

    // Candidate fetch. The indexed engine probes the ground relation's
    // hash index on the pattern's determined positions (constants and
    // already-valuated nulls); the probe counts against max_steps.
    // kGeneric — and patterns with no determined position — scan.
    const std::vector<uint32_t>* ids = nullptr;
    if (indexed_ && grel->arity() <= 64 && grel->arity() > 0 &&
        pattern.size() == grel->arity()) {
      uint64_t mask = 0;
      key_scratch_.clear();
      for (size_t p = 0; p < pattern.size(); ++p) {
        Value pv = pattern[p];
        Value bound = pv.IsConst() ? pv : valuation_.Apply(pv);
        if (bound.IsConst()) {
          mask |= uint64_t{1} << p;
          key_scratch_.push_back(bound);
        }
      }
      if (mask != 0) {
        OCDX_RETURN_IF_ERROR(ChargeStep());
        ids = grel->Probe(mask, key_scratch_);
        if (ids == nullptr) {
          item.matched = false;
          return false;
        }
      }
    }
    // num_candidates snapshots the bucket size up front (the documented
    // same-relation discipline); the guard asserts nothing grows grel
    // underneath the loop in the first place.
    const size_t num_candidates =
        ids != nullptr ? ids->size() : grel->tuples().size();
    BucketIterationGuard bucket_guard(grel);
    // Bindings added by the current candidate live on a shared trail
    // (allocation-free across candidates and recursion levels); each
    // candidate unwinds back to its own mark.
    const size_t trail_mark = trail_.size();
    for (size_t c = 0; c < num_candidates; ++c) {
      TupleRef r =
          ids != nullptr ? grel->tuples()[(*ids)[c]] : grel->tuples()[c];
      // Try to unify pattern with r, extending the valuation.
      bool ok = true;
      for (size_t p = 0; p < pattern.size() && ok; ++p) {
        Value pv = pattern[p];
        if (pv.IsConst()) {
          ok = pv == r[p];
        } else {
          Value bound = valuation_.Apply(pv);
          if (bound.IsConst()) {
            ok = bound == r[p];
          } else {
            valuation_.Set(pv, r[p]);
            trail_.push_back(pv);
          }
        }
      }
      if (ok && (!indexed_ || trail_.size() == trail_mark ||
                 GroundCoverStillPossible())) {
        OCDX_ASSIGN_OR_RETURN(bool found, Search());
        if (found) return true;
      }
      // Undo bindings from this candidate.
      while (trail_.size() > trail_mark) {
        valuation_.Unset(trail_.back());
        trail_.pop_back();
      }
    }
    item.matched = false;
    return false;
  }

  const AnnotatedInstance& annotated_;
  const Instance& ground_;
  RepAOptions options_;
  EngineContext ctx_;
  BudgetGauge gauge_{ctx_.budget, ctx_.stats};
  bool indexed_;
  std::vector<Item> proper_;
  std::vector<std::pair<const Relation*, const AnnotatedRelation*>> cover_;
  std::vector<Value> key_scratch_;
  std::vector<Value> seen_scratch_;
  std::vector<Value> trail_;
  Valuation valuation_;
  uint64_t steps_ = 0;
};

}  // namespace

Result<bool> InRepA(const AnnotatedInstance& annotated, const Instance& ground,
                    Valuation* witness, RepAOptions options,
                    const EngineContext& ctx) {
  if (!ground.IsGround()) {
    return Status::InvalidArgument(
        "RepA membership is defined for ground instances (over Const)");
  }
  RepASearch search(annotated, ground, options, ctx);
  return search.Run(witness);
}

Result<bool> InRep(const Instance& table, const Instance& ground,
                   Valuation* witness, RepAOptions options,
                   const EngineContext& ctx) {
  return InRepA(Annotate(table, Ann::kClosed), ground, witness, options, ctx);
}

}  // namespace ocdx
