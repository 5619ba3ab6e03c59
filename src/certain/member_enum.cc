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

namespace {

// The twins of an all-closed T (iso_enum.h). T's proper rows fall into
// components: two rows are linked when they share a null or a constant
// outside `fixed`. Two components are twins when a bijection of their
// nulls and unfixed constants (nulls to nulls, constants to constants)
// maps one's rows onto the other's, keeping relations, positions and
// annotations and fixing every constant of `fixed`: swapping the two is
// then an automorphism of T. Matching backtracks over row pairings under
// one step budget for the whole search; a pair it gives up on counts as
// not twins, which only loses symmetry. Rows without a null or an unfixed
// constant, and empty markers, are fixed by every such automorphism.
class TwinFinder {
 public:
  TwinFinder(const AnnotatedInstance& t, const std::set<Value>& fixed);

  /// The twin classes, those whose members hold nulls first (the
  /// enumerator may permute only some of them).
  std::vector<TwinClass> Classes();

 private:
  struct Row {
    const std::string* relation;
    AnnotatedTupleRef tuple;
  };
  struct Component {
    std::vector<uint32_t> rows;
    std::vector<Value> values;  ///< Nulls and unfixed constants, in order.
    bool has_null = false;
  };

  bool Movable(Value v) const { return v.IsNull() || fixed_.count(v) == 0; }
  /// An isomorphism invariant: components of different shapes are never
  /// twins.
  std::string Shape(const Component& c) const;
  /// On success `image` holds the images of a.values under a bijection
  /// mapping a onto b.
  bool Match(const Component& a, const Component& b, std::vector<Value>* image);
  /// Pairs a's rows from the i-th on with b's unused rows.
  bool Extend(const Component& a, const Component& b, size_t i);
  bool Bind(Value x, Value y);
  void Unwind(size_t mark);

  const std::set<Value>& fixed_;
  std::vector<Row> rows_;
  std::vector<Component> components_;
  std::map<Value, Value> forward_;
  std::map<Value, Value> backward_;
  std::vector<Value> trail_;  ///< Values bound in forward_, in order.
  std::vector<bool> used_;    ///< Per row of the component matched onto.
  uint64_t steps_left_ = 100'000;
};

TwinFinder::TwinFinder(const AnnotatedInstance& t,
                       const std::set<Value>& fixed)
    : fixed_(fixed) {
  // Union-find over the movable values; each row links its own.
  std::map<Value, uint32_t> ids;
  std::vector<uint32_t> parent;
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<uint32_t> row_link;
  for (const auto& [name, rel] : t.relations()) {
    for (const AnnotatedTupleRef& at : rel.tuples()) {
      if (at.IsEmptyMarker()) continue;
      uint32_t link = UINT32_MAX;
      for (Value v : at.values) {
        if (!Movable(v)) continue;
        auto [it, added] = ids.emplace(v, static_cast<uint32_t>(parent.size()));
        if (added) parent.push_back(it->second);
        if (link == UINT32_MAX) {
          link = it->second;
        } else {
          parent[find(it->second)] = find(link);
        }
      }
      if (link == UINT32_MAX) continue;
      rows_.push_back(Row{&name, at});
      row_link.push_back(link);
    }
  }
  std::map<uint32_t, size_t> component_of;
  for (uint32_t r = 0; r < rows_.size(); ++r) {
    auto [it, added] = component_of.emplace(find(row_link[r]),
                                            components_.size());
    if (added) components_.emplace_back();
    components_[it->second].rows.push_back(r);
  }
  std::set<Value> seen;
  for (Component& c : components_) {
    for (uint32_t r : c.rows) {
      for (Value v : rows_[r].tuple.values) {
        if (!Movable(v) || !seen.insert(v).second) continue;
        c.values.push_back(v);
        c.has_null = c.has_null || v.IsNull();
      }
    }
  }
}

std::string TwinFinder::Shape(const Component& c) const {
  std::vector<std::string> rows;
  for (uint32_t r : c.rows) {
    const Row& row = rows_[r];
    std::string shape = *row.relation;
    for (size_t p = 0; p < row.tuple.values.size(); ++p) {
      const Value v = row.tuple.values[p];
      shape += v.IsNull() ? "|n" : Movable(v) ? "|c" : StrCat("|=", v.raw());
      shape += AnnToString(row.tuple.ann[p]);
    }
    rows.push_back(std::move(shape));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& row : rows) out += row + "\n";
  return out;
}

bool TwinFinder::Bind(Value x, Value y) {
  if (!Movable(x) || !Movable(y)) return x == y;
  if (x.IsNull() != y.IsNull()) return false;
  auto it = forward_.find(x);
  if (it != forward_.end()) return it->second == y;
  if (backward_.count(y) > 0) return false;
  forward_[x] = y;
  backward_[y] = x;
  trail_.push_back(x);
  return true;
}

void TwinFinder::Unwind(size_t mark) {
  while (trail_.size() > mark) {
    auto it = forward_.find(trail_.back());
    backward_.erase(it->second);
    forward_.erase(it);
    trail_.pop_back();
  }
}

bool TwinFinder::Extend(const Component& a, const Component& b, size_t i) {
  if (i == a.rows.size()) return true;
  const Row& x = rows_[a.rows[i]];
  for (size_t j = 0; j < b.rows.size(); ++j) {
    if (used_[j]) continue;
    if (steps_left_ == 0) return false;
    --steps_left_;
    const Row& y = rows_[b.rows[j]];
    if (y.relation != x.relation || !(y.tuple.ann == x.tuple.ann)) continue;
    const size_t mark = trail_.size();
    bool bound = true;
    for (size_t p = 0; bound && p < x.tuple.values.size(); ++p) {
      bound = Bind(x.tuple.values[p], y.tuple.values[p]);
    }
    if (bound) {
      used_[j] = true;
      if (Extend(a, b, i + 1)) return true;
      used_[j] = false;
    }
    Unwind(mark);
  }
  return false;
}

bool TwinFinder::Match(const Component& a, const Component& b,
                       std::vector<Value>* image) {
  if (a.rows.size() != b.rows.size() || a.values.size() != b.values.size()) {
    return false;
  }
  Unwind(0);
  used_.assign(b.rows.size(), false);
  if (!Extend(a, b, 0)) return false;
  image->clear();
  for (Value v : a.values) image->push_back(forward_.at(v));
  return true;
}

std::vector<TwinClass> TwinFinder::Classes() {
  std::vector<TwinClass> classes;
  std::vector<size_t> representative;  // Per class: its first component.
  std::map<std::string, std::vector<size_t>> by_shape;  // Shape -> classes.
  for (size_t c = 0; c < components_.size(); ++c) {
    std::vector<size_t>& candidates = by_shape[Shape(components_[c])];
    std::vector<Value> image;
    bool placed = false;
    for (size_t k : candidates) {
      if (Match(components_[representative[k]], components_[c], &image)) {
        classes[k].members.push_back(image);
        placed = true;
        break;
      }
    }
    if (placed) continue;
    candidates.push_back(classes.size());
    representative.push_back(c);
    classes.push_back(TwinClass{{components_[c].values}});
  }
  std::vector<TwinClass> out;
  for (bool with_nulls : {true, false}) {
    for (size_t k = 0; k < classes.size(); ++k) {
      if (classes[k].members.size() > 1 &&
          components_[representative[k]].has_null == with_nulls) {
        out.push_back(std::move(classes[k]));
      }
    }
  }
  return out;
}

}  // namespace

RepAMemberEnumerator::RepAMemberEnumerator(const AnnotatedInstance& t,
                                           const std::vector<Value>& fixed,
                                           Universe* universe,
                                           MemberEnumOptions options,
                                           const EngineContext* ctx)
    : t_(t), universe_(universe), options_(options), ctx_(ctx) {
  std::set<Value> f(fixed.begin(), fixed.end());
  // Twins only where no extras exist: an extra-tuple universe is cut at
  // max_universe in an order that does not respect them.
  bool closed = true;
  for (const auto& [name, rel] : t_.relations()) {
    for (const AnnotatedTupleRef& at : rel.tuples()) {
      closed = closed && (at.IsEmptyMarker() ? !IsAllOpen(at.ann)
                                             : CountOpen(at.ann) == 0);
    }
  }
  if (closed && !t_.Nulls().empty()) twins_ = TwinFinder(t_, f).Classes();
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
        stats_(shard.ctx != nullptr ? shard.ctx->stats : nullptr),
        universe_(shard.universe),
        valuations_(en.t_.Nulls(), en.fixed_, shard.universe, prefix_tickets,
                    en.twins_) {
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

  /// Visits the valuations the shard draws until it stops or they run
  /// out. With `first_prefix_only` it pauses instead at the first
  /// valuation of a later prefix and returns true; the next Run visits
  /// that valuation first.
  bool Run(bool first_prefix_only = false) {
    uint64_t first_prefix = UINT64_MAX;
    while (pending_ || valuations_.Advance()) {
      ordinal_ = valuations_.ordinal();
      if (first_prefix_only) {
        if (first_prefix == UINT64_MAX) first_prefix = ordinal_.prefix;
        if (ordinal_.prefix != first_prefix) {
          pending_ = true;
          return true;
        }
      }
      pending_ = false;
      if (!VisitValuation()) return false;
    }
    return false;
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

  /// Visits the members of the current valuation; false when the shard
  /// must stop.
  bool VisitValuation() {
    // Stopped by a peer shard: leave quietly (no terminal event of our
    // own); the shard that raised the flag recorded the cause.
    if (stop_->load(std::memory_order_acquire)) return false;
    if (ParentCancelled()) {
      Record(ShardOutcome::Event::kTrip,
             Status::Cancelled("evaluation cancelled"));
      stop_->store(true, std::memory_order_release);
      return false;
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
      return false;
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
      return false;
    }
    return !stopped_by_peer_;
  }

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
    if (stats_ != nullptr) ++stats_->enum_members;
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
  EngineStats* stats_;
  Universe* universe_;
  ValuationEnumerator valuations_;
  ValuationOrdinal ordinal_;
  bool pending_ = false;  ///< Run paused with this valuation unvisited.

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
    ShardLoop(*this, shard, fn, &stop, &total_members,
              /*prefix_tickets=*/nullptr, &outcomes[0])
        .Run();
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
    // Shard 0 runs the first prefix on the calling thread before any
    // worker starts. When that ends the run (a witness, a trip, or no
    // prefix left), no worker starts: a one-valuation space or a first
    // witness costs what a sequential run costs. Otherwise shard 0 holds
    // the next prefix it drew, and the workers draw after it, so no
    // valuation is visited twice.
    ShardLoop first(*this, shard_descs[0], fns[0], &stop, &total_members,
                    &prefix_tickets, &outcomes[0]);
    const bool fan_out = first.Run(/*first_prefix_only=*/true);
    if (fan_out) {
      // A scoped pool of our own: submitting intra-job work to the outer
      // exec/ batch pool from inside a job could deadlock (all its
      // workers may be the jobs waiting for these very tasks).
      ThreadPool pool(shards - 1);
      for (size_t s = 1; s < shards; ++s) {
        pool.Submit([&, s] {
          obs::ScopedSpan span(shard_ctxs[s].stats, shard_ctxs[s].trace,
                               obs::kPhaseEnumShard);
          ShardLoop(*this, shard_descs[s], fns[s], &stop, &total_members,
                    &prefix_tickets, &outcomes[s])
              .Run();
        });
      }
      obs::ScopedSpan span(shard_ctxs[0].stats, shard_ctxs[0].trace,
                           obs::kPhaseEnumShard);
      first.Run();
    }  // <- pool drained: every shard finished, results visible here.
    if (ctx_ != nullptr && ctx_->trace != nullptr) {
      for (size_t s = 1; s < shards; ++s) {
        if (shard_sinks[s] != nullptr) ctx_->trace->Absorb(*shard_sinks[s]);
      }
    }
    if (ctx_ != nullptr && ctx_->stats != nullptr) {
      for (const EngineStats& st : shard_stats) *ctx_->stats += st;
      if (fan_out) {
        ++ctx_->stats->enum_shard_runs;
        ctx_->stats->enum_shard_tasks += shards;
      }
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
