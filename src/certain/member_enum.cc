#include "certain/member_enum.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "exec/pool.h"
#include "logic/engine_context.h"
#include "obs/trace.h"
#include "util/combinatorics.h"
#include "util/fault.h"
#include "util/str.h"

namespace ocdx {

RepAMemberEnumerator::RepAMemberEnumerator(const AnnotatedInstance& t,
                                           const std::vector<Value>& fixed,
                                           Universe* universe,
                                           MemberEnumOptions options,
                                           const EngineContext* ctx)
    : t_(t), universe_(universe), options_(options), ctx_(ctx) {
  std::set<Value> f(fixed.begin(), fixed.end());
  for (Value v : t_.ActiveDomain()) {
    if (v.IsConst()) f.insert(v);
  }
  fixed_.assign(f.begin(), f.end());

  // Fresh-pool names, computed once. Every constant that can appear in a
  // member is either in fixed_ (instance + caller constants) or minted
  // with the reserved "#f" prefix (iso_enum.h), so skipping the names of
  // fixed_ guarantees the pool is genuinely fresh — a scenario constant
  // literally named "#e0" used to alias into the pool and make the
  // enumeration unsound.
  std::set<std::string> occupied;
  for (Value c : fixed_) occupied.insert(universe_->Describe(c));
  fresh_names_.reserve(options_.fresh_pool);
  for (size_t i = 0; fresh_names_.size() < options_.fresh_pool; ++i) {
    std::string name = StrCat("#e", i);
    if (occupied.count(name) > 0) continue;
    fresh_names_.push_back(std::move(name));
  }
}

// One shard's walk over its slice of the valuation space (global
// valuation index ≡ shard.index mod shard.count). Everything mutable is
// shard-local: `shard.universe` owns every value the shard mints, the
// gauge runs over the shard context's budget (whose `cancel` is the
// fan-out's shared stop flag), and the only cross-shard writes are the
// three atomics. `t_`, `fixed_` and `fresh_names_` are shared read-only.
void RepAMemberEnumerator::RunShard(const MemberShard& shard,
                                    const ShardMemberFn& fn,
                                    std::atomic<bool>* stop,
                                    std::atomic<uint64_t>* total_members,
                                    ShardOutcome* out) const {
  Universe* universe = shard.universe;
  const Budget no_budget;
  const Budget& budget = shard.ctx != nullptr ? shard.ctx->budget : no_budget;
  BudgetGauge gauge(budget, shard.ctx != nullptr ? shard.ctx->stats : nullptr);
  // The *caller's* cooperative flag. Under fan-out the shard budget's
  // `cancel` is the internal stop flag, so genuine caller cancellation
  // must be folded in explicitly (and is distinguishable at merge time:
  // a kCancelled trip is surfaced only when the caller really cancelled).
  const std::atomic<bool>* parent_cancel =
      ctx_ != nullptr ? ctx_->budget.cancel : nullptr;
  const bool fanned_out = shard.count > 1;

  auto parent_cancelled = [&] {
    return fanned_out && parent_cancel != nullptr &&
           parent_cancel->load(std::memory_order_relaxed);
  };

  // The shard's member image: one Instance holding every relation of T
  // (including ones populated only by markers — downstream consumers
  // iterate relations), resolved to slots once. Per valuation each slot
  // is refilled with v(rel(T)); extras are pushed onto it and popped off
  // (Relation::Truncate) as the subset recursion chooses them, so every
  // member is an edit of this one image. `extras` dedups the valuation's
  // extra-tuple universe per relation and owns the tuples.
  struct Slot {
    const AnnotatedRelation* source;
    Relation* image;
    Relation extras;
  };
  Instance image;
  std::vector<Slot> slots;
  slots.reserve(t_.relations().size());
  for (const auto& [name, rel] : t_.relations()) {
    slots.push_back(Slot{&rel, &image.GetOrCreate(name, rel.arity()),
                         Relation(rel.arity())});
  }

  // Open positions and all-open markers are the templates of extras;
  // without any (all-closed T) every valuation has exactly one member.
  bool has_templates = false;
  for (const Slot& slot : slots) {
    for (const AnnotatedTupleRef& at : slot.source->tuples()) {
      has_templates = has_templates || (at.IsEmptyMarker()
                                            ? IsAllOpen(at.ann)
                                            : CountOpen(at.ann) > 0);
    }
  }

  std::vector<Value> nulls = t_.Nulls();
  // fixed_ plus the fresh constants, sorted; minted at the first valuation
  // this shard owns, where they have always been minted.
  std::vector<Value> fixed_and_fresh;
  std::vector<Value> pool;
  Tuple scratch;
  ValuationEnumerator valuations(nulls, fixed_, universe);
  Valuation v;
  uint64_t vindex = UINT64_MAX;
  while (valuations.Next(&v)) {
    ++vindex;
    if (vindex % shard.count != shard.index) continue;
    // Stopped by a peer shard: leave quietly (no terminal event of our
    // own); the shard that raised the flag recorded the cause.
    if (stop->load(std::memory_order_acquire)) return;
    if (parent_cancelled()) {
      out->event = ShardOutcome::Event::kTrip;
      out->event_index = vindex;
      out->trip = Status::Cancelled("evaluation cancelled");
      stop->store(true, std::memory_order_release);
      return;
    }
    // Governance (logic/budget.h): the budget's max_members is a *hard*
    // cap — tripping it is a kResourceExhausted error, unlike the soft
    // options_.max_members bound, which quietly marks the run
    // non-exhaustive. The gauge bounds wall time; the "enum" probe is the
    // fault-injection site for this layer.
    Status governed = fault::Probe("enum");
    if (governed.ok()) governed = gauge.Poll();
    if (!governed.ok()) {
      out->event = ShardOutcome::Event::kTrip;
      out->event_index = vindex;
      out->trip = std::move(governed);
      stop->store(true, std::memory_order_release);
      return;
    }
    // Base member: v(rel(T)), rows in T's order (first occurrence wins).
    for (Slot& slot : slots) {
      slot.image->Clear();
      if (!slot.extras.empty()) slot.extras.Clear();
      for (const AnnotatedTupleRef& at : slot.source->tuples()) {
        if (at.IsEmptyMarker()) continue;
        scratch.assign(at.values.begin(), at.values.end());
        for (Value& x : scratch) x = v.Apply(x);
        slot.image->Add(scratch);
      }
    }

    // Extra-value pool: fixed constants + constants of the base (those of
    // T are in fixed_, so only the nulls' images are new) + fresh
    // (collision-free names precomputed in the constructor).
    if (fixed_and_fresh.empty()) {
      fixed_and_fresh = fixed_;
      for (const std::string& name : fresh_names_) {
        fixed_and_fresh.push_back(universe->Const(name));
      }
      std::sort(fixed_and_fresh.begin(), fixed_and_fresh.end());
    }
    if (has_templates) {
      pool = fixed_and_fresh;
      for (Value n : nulls) pool.push_back(v.Apply(n));
      std::sort(pool.begin(), pool.end());
      pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    }

    // Extra-tuple universe U: fillings of open positions of proper
    // tuples, plus arbitrary tuples for all-open markers. Each extra
    // remembers its template so the Section 6 "1-to-m" replication limit
    // can be enforced per template. A candidate already in the base or
    // already in U is skipped before the size cap is consulted: only a
    // genuinely new tuple that does not fit truncates U.
    struct Extra {
      uint32_t slot;
      uint32_t row;  ///< Row of slots[slot].extras.
      size_t template_id;
    };
    std::vector<Extra> extras;
    std::vector<size_t> template_cap;
    size_t current_template = 0;
    bool truncated = false;
    auto add_extra = [&](uint32_t slot_id, TupleRef tuple) {
      Slot& slot = slots[slot_id];
      if (slot.image->Contains(tuple) || slot.extras.Contains(tuple)) return;
      if (extras.size() >= options_.max_universe) {
        truncated = true;
        return;
      }
      slot.extras.Add(tuple);
      extras.push_back(Extra{slot_id,
                             static_cast<uint32_t>(slot.extras.size() - 1),
                             current_template});
    };

    for (uint32_t slot_id = 0; has_templates && slot_id < slots.size();
         ++slot_id) {
      for (const AnnotatedTupleRef& at : slots[slot_id].source->tuples()) {
        if (at.IsEmptyMarker()) {
          if (!IsAllOpen(at.ann)) continue;
          // All-open marker: any tuple over the pool; the marker itself
          // contributes no base tuple, so a 1-to-m limit allows m extras.
          current_template = template_cap.size();
          template_cap.push_back(options_.open_replication_limit);
          scratch.resize(at.arity());
          ForEachTuple(at.arity(), pool.size(),
                       [&](const std::vector<uint32_t>& digits) {
                         for (size_t p = 0; p < at.arity(); ++p) {
                           scratch[p] = pool[digits[p]];
                         }
                         add_extra(slot_id, scratch);
                         return !truncated;
                       });
          continue;
        }
        size_t n_open = CountOpen(at.ann);
        if (n_open == 0) continue;
        std::vector<size_t> open_pos;
        for (size_t p = 0; p < at.ann.size(); ++p) {
          if (at.ann[p] == Ann::kOpen) open_pos.push_back(p);
        }
        // The base tuple v(t) is the first of the <= m instantiations a
        // 1-to-m open tuple may take, so m-1 extras remain.
        current_template = template_cap.size();
        template_cap.push_back(
            options_.open_replication_limit == SIZE_MAX
                ? SIZE_MAX
                : (options_.open_replication_limit == 0
                       ? 0
                       : options_.open_replication_limit - 1));
        Tuple pattern = v.Apply(at.values);
        ForEachTuple(open_pos.size(), pool.size(),
                     [&](const std::vector<uint32_t>& digits) {
                       scratch = pattern;
                       for (size_t j = 0; j < open_pos.size(); ++j) {
                         scratch[open_pos[j]] = pool[digits[j]];
                       }
                       add_extra(slot_id, scratch);
                       return !truncated;
                     });
      }
    }
    if (truncated) out->truncated = true;

    // Visit base u E for subsets E of the universe, in increasing size.
    size_t max_size = std::min(extras.size(), options_.max_extra_tuples);
    if (max_size < extras.size()) out->truncated = true;

    // Combination enumeration, smallest subsets first (counterexamples
    // tend to be small, and early exit then prunes the rest). The
    // per-template usage counters enforce the 1-to-m replication limit.
    std::vector<size_t> used(template_cap.size(), 0);
    bool stop_run = false;  // This shard recorded a terminal event.
    bool stopped_by_peer = false;
    std::function<bool(size_t, size_t)> rec = [&](size_t start,
                                                  size_t remaining) -> bool {
      if (remaining == 0) {
        if (stop->load(std::memory_order_acquire)) {
          stopped_by_peer = true;
          return false;
        }
        if (parent_cancelled()) {
          out->event = ShardOutcome::Event::kTrip;
          out->event_index = vindex;
          out->trip = Status::Cancelled("evaluation cancelled");
          stop_run = true;
          return false;
        }
        Status trip = gauge.Tick();
        if (!trip.ok()) {
          out->event = ShardOutcome::Event::kTrip;
          out->event_index = vindex;
          out->trip = std::move(trip);
          stop_run = true;
          return false;
        }
        uint64_t n = total_members->fetch_add(1, std::memory_order_relaxed) + 1;
        if (n > budget.max_members) {
          out->event = ShardOutcome::Event::kTrip;
          out->event_index = vindex;
          out->trip = Status::ResourceExhausted(
              StrCat("member enumeration exceeded budget of ",
                     budget.max_members, " members"));
          stop_run = true;
          return false;
        }
        if (n > options_.max_members) {
          out->event = ShardOutcome::Event::kSoftCap;
          out->event_index = vindex;
          stop_run = true;
          return false;
        }
        Result<bool> r = fn(image);
        if (!r.ok()) {
          out->event = ShardOutcome::Event::kTrip;
          out->event_index = vindex;
          out->trip = r.status();
          stop_run = true;
          return false;
        }
        if (!r.value()) {
          out->event = ShardOutcome::Event::kEarlyStop;
          out->event_index = vindex;
          stop_run = true;
          return false;
        }
        return true;
      }
      for (size_t i = start; i + remaining <= extras.size(); ++i) {
        size_t tpl = extras[i].template_id;
        if (used[tpl] >= template_cap[tpl]) continue;
        ++used[tpl];
        // Push the extra onto the image; it is neither in the base nor a
        // duplicate of another extra, so the Add always inserts, and the
        // Truncate after the recursion pops exactly it.
        Slot& slot = slots[extras[i].slot];
        const size_t before = slot.image->size();
        slot.image->Add(slot.extras.row(extras[i].row));
        bool cont = rec(i + 1, remaining - 1);
        slot.image->Truncate(before);
        --used[tpl];
        if (!cont) return false;
      }
      return true;
    };
    for (size_t m = 0; m <= max_size && !stop_run && !stopped_by_peer; ++m) {
      rec(0, m);
    }
    if (stop_run) {
      stop->store(true, std::memory_order_release);
      return;
    }
    if (stopped_by_peer) return;
  }
}

Status RepAMemberEnumerator::RunSharded(size_t shards,
                                        const ShardFnFactory& factory) {
  obs::ScopedSpan run_span(ctx_ != nullptr ? ctx_->stats : nullptr,
                           ctx_ != nullptr ? ctx_->trace : nullptr,
                           obs::kPhaseMemberEnum);
  outcome_ = EnumOutcome::kExhausted;
  members_ = 0;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_members{0};

  std::vector<ShardOutcome> outcomes(shards);

  if (shards == 1) {
    // Sequential: the shard *is* the caller's job — same universe, same
    // context (budget cancel stays the caller's flag, the job's plan
    // table keeps serving every query). No enum-shard span: the whole
    // run is already timed as member-enum.
    MemberShard shard{0, 1, universe_, ctx_};
    ShardMemberFn fn = factory(shard);
    RunShard(shard, fn, &stop, &total_members, &outcomes[0]);
  } else {
    // Fan-out over copy-on-write overlays of the caller's universe. The
    // caller's universe is read-shared for the fan-out's duration; every
    // shard (including shard 0, which runs on the calling thread) mints
    // through its own private overlay, so nothing is deep-copied. Overlay
    // ids continue the base's id spaces, exactly the ids the caller's
    // universe would have assigned, so canonical output is unchanged bit
    // for bit.
    // Every shard context copies the caller's, so all shards probe the
    // caller's thread-safe plan table: a query compiles once per job, not
    // once per shard or per fan-out. Contexts and visitors are fully
    // built (factory called serially, in shard order) before any worker
    // starts.
    std::vector<std::unique_ptr<Universe>> overlays;
    std::vector<EngineContext> shard_ctxs(shards);
    std::vector<EngineStats> shard_stats(shards);
    // Trace sinks follow the stats rule — one per thread. Shard 0 runs
    // on the calling thread and keeps the caller's sink; worker shards
    // get their own sink on its shard-numbered track, absorbed into the
    // caller's in shard order after the pool drains.
    std::vector<std::unique_ptr<obs::TraceSink>> shard_sinks(shards);
    std::vector<MemberShard> shard_descs(shards);
    std::vector<ShardMemberFn> fns;
    fns.reserve(shards);
    const EngineContext base_ctx =
        ctx_ != nullptr ? *ctx_ : EngineContext();

    Universe::ScopedReadShare share(*universe_);
    {
      obs::ScopedSpan setup_span(ctx_ != nullptr ? ctx_->stats : nullptr,
                                 ctx_ != nullptr ? ctx_->trace : nullptr,
                                 obs::kPhaseFanoutSetup);
      overlays.reserve(shards);
      for (size_t s = 0; s < shards; ++s) {
        overlays.push_back(universe_->NewOverlay());
        shard_ctxs[s] = base_ctx;
        shard_ctxs[s].stats = &shard_stats[s];
        shard_ctxs[s].budget.cancel = &stop;
        shard_ctxs[s].shards = 1;  // Fan-out never nests.
        if (s > 0 && base_ctx.trace != nullptr) {
          shard_sinks[s] =
              std::make_unique<obs::TraceSink>(static_cast<uint32_t>(s));
          shard_ctxs[s].trace = shard_sinks[s].get();
        }
        shard_descs[s] = MemberShard{s, shards, overlays[s].get(),
                                     &shard_ctxs[s]};
        fns.push_back(factory(shard_descs[s]));
      }
    }
    auto run_shard = [&](size_t s) {
      obs::ScopedSpan span(shard_ctxs[s].stats, shard_ctxs[s].trace,
                           obs::kPhaseEnumShard);
      RunShard(shard_descs[s], fns[s], &stop, &total_members, &outcomes[s]);
    };
    {
      // A scoped pool of our own: submitting intra-job work to the outer
      // exec/ batch pool from inside a job could deadlock (all its
      // workers may be the jobs waiting for these very tasks).
      ThreadPool pool(shards - 1);
      for (size_t s = 1; s < shards; ++s) {
        pool.Submit([&run_shard, s] { run_shard(s); });
      }
      run_shard(0);
    }  // <- pool drained: every shard finished, results visible here.
    if (ctx_ != nullptr && ctx_->trace != nullptr) {
      for (size_t s = 1; s < shards; ++s) {
        if (shard_sinks[s] != nullptr) ctx_->trace->Absorb(*shard_sinks[s]);
      }
    }
    if (ctx_ != nullptr && ctx_->stats != nullptr) {
      for (const EngineStats& st : shard_stats) *ctx_->stats += st;
      ++ctx_->stats->enum_shard_runs;
      ctx_->stats->enum_shard_tasks += shards;
      ++ctx_->stats->frozen_base_reuses;
      ctx_->stats->overlay_mints += shards;
      if (stop.load(std::memory_order_relaxed)) {
        ++ctx_->stats->enum_shard_stops;
      }
    }
  }

  members_ = total_members.load(std::memory_order_relaxed);

  // Deterministic shard-ordered merge: the surfaced terminal event is the
  // one at the smallest global valuation index (ties broken by shard
  // order). kCancelled trips are first-success echoes — a peer raised the
  // shared stop flag and this shard's gauge saw it mid-search — unless
  // the *caller's* flag really was raised; echoes merge as plain
  // peer-stops.
  const bool caller_cancelled = ctx_ != nullptr && ctx_->budget.cancelled();
  const ShardOutcome* best = nullptr;
  bool any_truncated = false;
  for (const ShardOutcome& o : outcomes) {
    any_truncated = any_truncated || o.truncated;
    if (o.event == ShardOutcome::Event::kNone) continue;
    if (o.event == ShardOutcome::Event::kTrip &&
        o.trip.code() == StatusCode::kCancelled && !caller_cancelled) {
      continue;
    }
    if (best == nullptr || o.event_index < best->event_index) best = &o;
  }
  if (best == nullptr) {
    outcome_ = any_truncated ? EnumOutcome::kTruncated : EnumOutcome::kExhausted;
    return Status::OK();
  }
  switch (best->event) {
    case ShardOutcome::Event::kEarlyStop:
      outcome_ = EnumOutcome::kEarlyStopped;
      return Status::OK();
    case ShardOutcome::Event::kSoftCap:
      outcome_ = EnumOutcome::kTruncated;
      return Status::OK();
    case ShardOutcome::Event::kTrip:
      outcome_ = EnumOutcome::kTruncated;
      return best->trip;
    case ShardOutcome::Event::kNone:
      break;  // Unreachable.
  }
  return Status::OK();
}

Status RepAMemberEnumerator::ForEachMember(const MemberFn& fn) {
  return RunSharded(1, [&fn](const MemberShard&) -> ShardMemberFn {
    return [&fn](const Instance& member) -> Result<bool> {
      return fn(member);
    };
  });
}

Status RepAMemberEnumerator::ForEachMember(const ShardFnFactory& factory) {
  size_t shards = ctx_ != nullptr && ctx_->shards > 1 ? ctx_->shards : 1;
  return RunSharded(shards, factory);
}

}  // namespace ocdx
