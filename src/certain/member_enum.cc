#include "certain/member_enum.h"

#include <algorithm>
#include <map>
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

// One shard's walk over the valuation prefixes it draws (all of them at
// shard count 1; see iso_enum.h). Everything mutable is shard-local:
// `shard.universe` owns every value the shard mints, the gauge runs over
// the shard context's budget (whose `cancel` is the fan-out's shared stop
// flag), and the only cross-shard writes are the atomics. `t_`, `fixed_`
// and `fresh_names_` are shared read-only.
//
// The loop's state is built once per shard and reused by every member:
// the image, each source row as flat cells, the extra-tuple templates and
// every scratch vector. An all-closed enumeration then allocates nothing
// per member.
class RepAMemberEnumerator::ShardLoop {
 public:
  ShardLoop(const RepAMemberEnumerator& en, const MemberShard& shard,
            const ShardMemberFn& fn, std::atomic<bool>* stop,
            std::atomic<uint64_t>* total_members,
            std::atomic<uint64_t>* prefix_tickets, ShardOutcome* out)
      : en_(en),
        options_(en.options_),
        fn_(fn),
        stop_(stop),
        total_members_(total_members),
        out_(out),
        budget_(shard.ctx != nullptr ? shard.ctx->budget : no_budget_),
        gauge_(budget_, shard.ctx != nullptr ? shard.ctx->stats : nullptr),
        parent_cancel_(shard.count > 1 && en.ctx_ != nullptr
                           ? en.ctx_->budget.cancel
                           : nullptr),
        universe_(shard.universe),
        valuations_(en.t_.Nulls(), en.fixed_, shard.universe,
                    prefix_tickets) {
    const std::vector<Value>& nulls = valuations_.nulls();
    std::map<Value, uint32_t> null_index;
    for (uint32_t i = 0; i < nulls.size(); ++i) null_index[nulls[i]] = i;
    // The shard's member image: one Instance holding every relation of T
    // (including ones populated only by markers — downstream consumers
    // iterate relations), resolved to slots once. Each proper source row
    // becomes `arity` cells; open positions and all-open markers become
    // the templates of extras, numbered in source order.
    slots_.reserve(en.t_.relations().size());
    for (const auto& [name, rel] : en.t_.relations()) {
      const uint32_t slot_id = static_cast<uint32_t>(slots_.size());
      slots_.push_back(
          Slot{&image_.GetOrCreate(name, rel.arity()), Relation(rel.arity()),
               {}});
      Slot& slot = slots_.back();
      for (const AnnotatedTupleRef& at : rel.tuples()) {
        if (at.IsEmptyMarker()) {
          if (!IsAllOpen(at.ann)) continue;
          // All-open marker: any tuple over the pool; the marker itself
          // contributes no base tuple, so a 1-to-m limit allows m extras.
          Template tpl{slot_id, kMarker, {}, options_.open_replication_limit};
          for (uint32_t p = 0; p < at.arity(); ++p) tpl.open_pos.push_back(p);
          templates_.push_back(std::move(tpl));
          continue;
        }
        const uint32_t row = static_cast<uint32_t>(cells_.size());
        for (Value x : at.values) {
          auto it = null_index.find(x);
          cells_.push_back(it == null_index.end() ? Cell{x, kConstant}
                                                  : Cell{Value(), it->second});
        }
        slot.rows.push_back(row);
        if (CountOpen(at.ann) == 0) continue;
        Template tpl{slot_id, row, {}, 0};
        for (uint32_t p = 0; p < at.ann.size(); ++p) {
          if (at.ann[p] == Ann::kOpen) tpl.open_pos.push_back(p);
        }
        // The base tuple v(t) is the first of the <= m instantiations a
        // 1-to-m open tuple may take, so m-1 extras remain.
        const size_t m = options_.open_replication_limit;
        tpl.cap = m == SIZE_MAX ? SIZE_MAX : (m == 0 ? 0 : m - 1);
        templates_.push_back(std::move(tpl));
      }
    }
    used_.assign(templates_.size(), 0);
  }

  void Run() {
    while (valuations_.Advance()) {
      ordinal_ = valuations_.ordinal();
      // Stopped by a peer shard: leave quietly (no terminal event of our
      // own); the shard that raised the flag recorded the cause.
      if (stop_->load(std::memory_order_acquire)) return;
      if (ParentCancelled()) {
        Record(ShardOutcome::Event::kTrip,
               Status::Cancelled("evaluation cancelled"));
        stop_->store(true, std::memory_order_release);
        return;
      }
      // Governance (logic/budget.h): the budget's max_members is a *hard*
      // cap — tripping it is a kResourceExhausted error, unlike the soft
      // options_.max_members bound, which quietly marks the run
      // non-exhaustive. The gauge bounds wall time; the "enum" probe is
      // the fault-injection site for this layer.
      Status governed = fault::Probe("enum");
      if (governed.ok()) governed = gauge_.Poll();
      if (!governed.ok()) {
        Record(ShardOutcome::Event::kTrip, std::move(governed));
        stop_->store(true, std::memory_order_release);
        return;
      }
      Refill();
      // Extra-value pool: fixed constants + constants of the base (those
      // of T are in fixed_, so only the nulls' images are new) + fresh
      // (collision-free names precomputed in the constructor), minted at
      // the shard's first valuation, where they have always been minted.
      if (fixed_and_fresh_.empty()) {
        fixed_and_fresh_ = en_.fixed_;
        for (const std::string& name : en_.fresh_names_) {
          fixed_and_fresh_.push_back(universe_->Const(name));
        }
        std::sort(fixed_and_fresh_.begin(), fixed_and_fresh_.end());
      }
      if (!templates_.empty()) BuildExtras();

      // Visit base u E for subsets E of the universe, in increasing size
      // (counterexamples tend to be small, and early exit then prunes the
      // rest).
      size_t max_size = std::min(extras_.size(), options_.max_extra_tuples);
      if (max_size < extras_.size()) out_->truncated = true;
      stop_run_ = false;
      stopped_by_peer_ = false;
      for (size_t m = 0; m <= max_size && !stop_run_ && !stopped_by_peer_;
           ++m) {
        Visit(0, m);
      }
      if (stop_run_) {
        stop_->store(true, std::memory_order_release);
        return;
      }
      if (stopped_by_peer_) return;
    }
  }

 private:
  static constexpr uint32_t kConstant = UINT32_MAX;
  static constexpr uint32_t kMarker = UINT32_MAX;

  /// A source row's value: `constant` itself, or the valuation's image of
  /// nulls()[null].
  struct Cell {
    Value constant;
    uint32_t null;
  };
  struct Slot {
    Relation* image;
    /// The valuation's extra-tuple universe for this relation: dedups it
    /// and owns the tuples.
    Relation extras;
    /// Offsets into cells_ of this relation's proper source rows.
    std::vector<uint32_t> rows;
  };
  /// An open source row (its cells at `row`) or an all-open marker (`row`
  /// is kMarker, every position open); its extras fill `open_pos` from
  /// the pool.
  struct Template {
    uint32_t slot;
    uint32_t row;
    std::vector<uint32_t> open_pos;
    size_t cap;  ///< Section 6 "1-to-m": extras this template may add.
  };
  struct Extra {
    uint32_t slot;
    uint32_t row;  ///< Row of slots_[slot].extras.
    uint32_t template_id;
  };

  bool ParentCancelled() const {
    return parent_cancel_ != nullptr &&
           parent_cancel_->load(std::memory_order_relaxed);
  }

  void Record(ShardOutcome::Event event, Status trip = Status::OK()) {
    out_->event = event;
    out_->event_index = ordinal_;
    out_->trip = std::move(trip);
  }

  /// Writes v(cells) for the row at `row` into scratch_.
  void Apply(uint32_t row, size_t arity) {
    const std::vector<Value>& images = valuations_.images();
    scratch_.resize(arity);
    for (size_t p = 0; p < arity; ++p) {
      const Cell& c = cells_[row + p];
      scratch_[p] = c.null == kConstant ? c.constant : images[c.null];
    }
  }

  /// Base member: v(rel(T)), rows in T's order (first occurrence wins).
  /// Relation::Clear keeps every capacity and empties live indexes in
  /// place.
  void Refill() {
    for (Slot& slot : slots_) {
      slot.image->Clear();
      if (!slot.extras.empty()) slot.extras.Clear();
      for (uint32_t row : slot.rows) {
        Apply(row, slot.image->arity());
        slot.image->Add(scratch_);
      }
    }
  }

  /// Extra-tuple universe U: fillings of open positions of proper tuples,
  /// plus arbitrary tuples for all-open markers, over the pool. Each
  /// extra remembers its template so the 1-to-m replication limit can be
  /// enforced per template. A candidate already in the base or already
  /// in U is skipped before the size cap is consulted: only a genuinely
  /// new tuple that does not fit truncates U.
  void BuildExtras() {
    pool_ = fixed_and_fresh_;
    for (Value image : valuations_.images()) pool_.push_back(image);
    std::sort(pool_.begin(), pool_.end());
    pool_.erase(std::unique(pool_.begin(), pool_.end()), pool_.end());

    extras_.clear();
    bool truncated = false;
    for (uint32_t id = 0; id < templates_.size() && !truncated; ++id) {
      const Template& tpl = templates_[id];
      Slot& slot = slots_[tpl.slot];
      const size_t arity = slot.image->arity();
      if (tpl.row == kMarker) {
        pattern_.assign(arity, Value());
      } else {
        Apply(tpl.row, arity);
        pattern_.assign(scratch_.begin(), scratch_.end());
      }
      fillings_.Reset(tpl.open_pos.size(), pool_.size());
      while (fillings_.Next()) {
        const std::vector<uint32_t>& digits = fillings_.digits();
        scratch_.assign(pattern_.begin(), pattern_.end());
        for (size_t j = 0; j < tpl.open_pos.size(); ++j) {
          scratch_[tpl.open_pos[j]] = pool_[digits[j]];
        }
        if (slot.image->Contains(scratch_) || slot.extras.Contains(scratch_)) {
          continue;
        }
        if (extras_.size() >= options_.max_universe) {
          truncated = true;
          break;
        }
        slot.extras.Add(scratch_);
        extras_.push_back(Extra{tpl.slot,
                                static_cast<uint32_t>(slot.extras.size() - 1),
                                id});
      }
    }
    if (truncated) out_->truncated = true;
  }

  /// One member: the image as it stands. False ends the valuation's
  /// subset recursion (and, through stop_run_, the shard).
  bool Member() {
    if (stop_->load(std::memory_order_acquire)) {
      stopped_by_peer_ = true;
      return false;
    }
    if (ParentCancelled()) {
      Record(ShardOutcome::Event::kTrip,
             Status::Cancelled("evaluation cancelled"));
      stop_run_ = true;
      return false;
    }
    Status trip = gauge_.Tick();
    if (!trip.ok()) {
      Record(ShardOutcome::Event::kTrip, std::move(trip));
      stop_run_ = true;
      return false;
    }
    uint64_t n = total_members_->fetch_add(1, std::memory_order_relaxed) + 1;
    if (n > budget_.max_members) {
      Record(ShardOutcome::Event::kTrip,
             Status::ResourceExhausted(
                 StrCat("member enumeration exceeded budget of ",
                        budget_.max_members, " members")));
      stop_run_ = true;
      return false;
    }
    if (n > options_.max_members) {
      Record(ShardOutcome::Event::kSoftCap);
      stop_run_ = true;
      return false;
    }
    Result<bool> r = fn_(image_);
    if (!r.ok()) {
      Record(ShardOutcome::Event::kTrip, r.status());
      stop_run_ = true;
      return false;
    }
    if (!r.value()) {
      Record(ShardOutcome::Event::kEarlyStop);
      stop_run_ = true;
      return false;
    }
    return true;
  }

  /// Visits base u E for the subsets E of extras_[start..] of size
  /// `remaining`, pushing each chosen extra onto the image and popping it
  /// (Relation::Truncate) on the way back. The per-template usage
  /// counters enforce the 1-to-m replication limit.
  bool Visit(size_t start, size_t remaining) {
    if (remaining == 0) return Member();
    for (size_t i = start; i + remaining <= extras_.size(); ++i) {
      const uint32_t tpl = extras_[i].template_id;
      if (used_[tpl] >= templates_[tpl].cap) continue;
      ++used_[tpl];
      // The extra is neither in the base nor a duplicate of another
      // extra, so the Add always inserts, and the Truncate after the
      // recursion pops exactly it.
      Slot& slot = slots_[extras_[i].slot];
      const size_t before = slot.image->size();
      slot.image->Add(slot.extras.row(extras_[i].row));
      bool cont = Visit(i + 1, remaining - 1);
      slot.image->Truncate(before);
      --used_[tpl];
      if (!cont) return false;
    }
    return true;
  }

  const RepAMemberEnumerator& en_;
  const MemberEnumOptions& options_;
  const ShardMemberFn& fn_;
  std::atomic<bool>* stop_;
  std::atomic<uint64_t>* total_members_;
  ShardOutcome* out_;
  const Budget no_budget_;
  const Budget& budget_;
  BudgetGauge gauge_;
  /// The *caller's* cooperative flag, under fan-out only: there the shard
  /// budget's `cancel` is the internal stop flag, so genuine caller
  /// cancellation must be folded in explicitly (and is distinguishable at
  /// merge time: a kCancelled trip is surfaced only when the caller
  /// really cancelled).
  const std::atomic<bool>* parent_cancel_;
  Universe* universe_;
  ValuationEnumerator valuations_;
  ValuationOrdinal ordinal_;

  Instance image_;
  std::vector<Slot> slots_;
  std::vector<Cell> cells_;
  std::vector<Template> templates_;
  std::vector<size_t> used_;  ///< Per template: extras in the member.
  std::vector<Extra> extras_;
  std::vector<Value> fixed_and_fresh_;  ///< fixed_ + fresh pool, sorted.
  std::vector<Value> pool_;
  AssignmentEnumerator fillings_{0, 0};  ///< Pool values for a template.
  Tuple scratch_;
  Tuple pattern_;
  bool stop_run_ = false;  ///< This shard recorded a terminal event.
  bool stopped_by_peer_ = false;
};

void RepAMemberEnumerator::RunShard(const MemberShard& shard,
                                    const ShardMemberFn& fn,
                                    std::atomic<bool>* stop,
                                    std::atomic<uint64_t>* total_members,
                                    std::atomic<uint64_t>* prefix_tickets,
                                    ShardOutcome* out) const {
  ShardLoop(*this, shard, fn, stop, total_members, prefix_tickets, out).Run();
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
    RunShard(shard, fn, &stop, &total_members, /*prefix_tickets=*/nullptr,
             &outcomes[0]);
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
    // The shards draw valuation prefixes from this counter (iso_enum.h).
    std::atomic<uint64_t> prefix_tickets{0};
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
        // A stats sink only when the caller has one: detached
        // instrumentation must stay two null checks, not a clock read per
        // member bind.
        if (base_ctx.stats != nullptr) shard_ctxs[s].stats = &shard_stats[s];
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
      RunShard(shard_descs[s], fns[s], &stop, &total_members, &prefix_tickets,
               &outcomes[s]);
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
  // one at the smallest valuation ordinal — the valuation's position in
  // the unsharded order (iso_enum.h) — ties broken by shard order.
  // kCancelled trips are first-success echoes — a peer raised the shared
  // stop flag and this shard's gauge saw it mid-search — unless the
  // *caller's* flag really was raised; echoes merge as plain peer-stops.
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
