#include "plan/runner.h"

#include <algorithm>
#include <span>

#include "obs/trace.h"
#include "util/str.h"

namespace ocdx {
namespace plan {

namespace {

// ---------------------------------------------------------------------------
// Relational execution (the indexed engine).
// ---------------------------------------------------------------------------

// Relations smaller than this are scanned with the key checked in place
// instead of probed: for a handful of rows that is cheaper than hashing
// the key, and it spares relations refilled per call (member images,
// certain/member_enum.cc) an index build each time. A scan visits the
// matches in ascending id order, exactly as a bucket would.
constexpr size_t kScanBelow = 16;

/// Executes a bound relational plan. A full match projects its row into
/// `out` (answers mode) and unwinds to RelationalPlan::witness_step: the
/// steps after it can only repeat the row, so each binding of the steps
/// up to it needs one match. A boolean plan has no witness step, so its
/// first full match ends the run.
class RelationalRunner {
 public:
  RelationalRunner(BoundQuery& bound, Relation* out)
      : plan_(*bound.query->relational),
        bound_(bound),
        out_(out),
        frame_(bound.frame),
        key_scratch_(bound.key_scratch),
        out_scratch_(bound.out_scratch) {
    frame_.assign(plan_.num_slots, Value());
    out_scratch_.resize(plan_.out_slots.size());
  }

  uint64_t matches() const { return matches_; }

  const Relation* Rel(const PlanAtomStep& ap) const {
    return bound_.rels[ap.rel_slot];
  }

  /// Returns true iff at least one match was found.
  bool Run(const std::map<std::string, Value>* binding) {
    if (binding != nullptr) {
      for (const auto& [slot, name] : plan_.preset_vars) {
        auto it = binding->find(name);
        if (it != binding->end()) frame_[slot] = it->second;
      }
    }
    if (StageOk(0)) Descend(0);
    return matches_ > 0;
  }

 private:
  bool EqOk(const PlanEq& eq) const {
    Value l = eq.lhs.is_const ? eq.lhs.constant : frame_[eq.lhs.slot];
    Value r = eq.rhs.is_const ? eq.rhs.constant : frame_[eq.rhs.slot];
    return l == r;
  }

  /// Equality and guard checks that become decidable after step-1 atoms.
  bool StageOk(size_t stage) {
    for (const PlanEq& eq : plan_.eqs_after[stage]) {
      if (!EqOk(eq)) return false;
    }
    for (const PlanGuard& g : plan_.guards_after[stage]) {
      if (!bound_.guard_active[g.guard_id]) continue;  // Cannot match.
      if (GuardMatches(g, 0)) return false;  // Anti-join: a match kills it.
    }
    return true;
  }

  /// True iff `t` agrees with the step's key (the scan-path filter).
  bool KeyMatches(const PlanAtomStep& ap, TupleRef t) const {
    size_t i = 0;
    for (uint64_t m = ap.mask; m != 0; m &= m - 1, ++i) {
      const PlanTerm& k = ap.key[i];
      Value want = k.is_const ? k.constant : frame_[k.slot];
      if (t[static_cast<size_t>(__builtin_ctzll(m))] != want) return false;
    }
    return true;
  }

  /// The probe key of `ap` under the current frame, in the one scratch
  /// buffer every step and guard shares: a key is dead once Probe has
  /// returned its bucket, so deeper steps may overwrite it.
  std::span<const Value> Key(const PlanAtomStep& ap) {
    key_scratch_.clear();
    for (const PlanTerm& k : ap.key) {
      key_scratch_.push_back(k.is_const ? k.constant : frame_[k.slot]);
    }
    return key_scratch_;
  }

  /// True iff a full match below `step` ends its loop: every step after
  /// the witness step.
  bool Unwinds(size_t step) const {
    return static_cast<int>(step) > plan_.witness_step;
  }

  /// Runs the steps from `step` on. True iff a full match ended their
  /// loops; the caller's own loop then ends too iff Unwinds(its step).
  bool Descend(size_t step) {
    if (step == plan_.atoms.size()) {
      ++matches_;
      if (out_ == nullptr) return true;  // Boolean mode: witness found.
      for (size_t i = 0; i < plan_.out_slots.size(); ++i) {
        out_scratch_[i] = frame_[plan_.out_slots[i]];
      }
      out_->Add(out_scratch_);  // Copies into the relation's arena.
      return true;
    }
    const PlanAtomStep& ap = plan_.atoms[step];
    const Relation* rel = Rel(ap);
    if (ap.mask != 0 && rel->size() >= kScanBelow) {
      const std::vector<uint32_t>* ids = rel->Probe(ap.mask, Key(ap));
      if (ids == nullptr) return false;
      // Plans never insert into the relations they scan (answers go to
      // out_), which is what makes iterating the live bucket safe; the
      // guard turns any future violation into a debug assertion.
      BucketIterationGuard guard(rel);
      for (uint32_t id : *ids) {
        if (TryTuple(ap, rel->tuples()[id], step) && Unwinds(step)) {
          return true;
        }
      }
    } else {
      for (TupleRef t : rel->tuples()) {
        if (KeyMatches(ap, t) && TryTuple(ap, t, step) && Unwinds(step)) {
          return true;
        }
      }
    }
    return false;
  }

  bool TryTuple(const PlanAtomStep& ap, TupleRef t, size_t step) {
    for (const auto& [pos, slot] : ap.binds) frame_[slot] = t[pos];
    bool ok = true;
    for (const auto& [pos, slot] : ap.checks) {
      if (frame_[slot] != t[pos]) {
        ok = false;
        break;
      }
    }
    bool stop = false;
    if (ok && StageOk(step + 1)) stop = Descend(step + 1);
    for (const auto& [pos, slot] : ap.binds) frame_[slot] = Value();
    return stop;
  }

  /// True iff the guard's sub-CQ has a match under the current frame.
  bool GuardMatches(const PlanGuard& g, size_t step) {
    if (step == 0) {
      for (const PlanEq& eq : g.eqs_after[0]) {
        if (!EqOk(eq)) return false;
      }
    }
    if (step == g.atoms.size()) return true;
    const PlanAtomStep& ap = g.atoms[step];
    const Relation* rel = Rel(ap);
    // Guards share the frame; their bindings are undone on exit.
    auto try_tuple = [&](TupleRef t) {
      for (const auto& [pos, slot] : ap.binds) frame_[slot] = t[pos];
      bool ok = true;
      for (const auto& [pos, slot] : ap.checks) {
        if (frame_[slot] != t[pos]) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const PlanEq& eq : g.eqs_after[step + 1]) {
          if (!EqOk(eq)) {
            ok = false;
            break;
          }
        }
      }
      bool found = ok && GuardMatches(g, step + 1);
      for (const auto& [pos, slot] : ap.binds) frame_[slot] = Value();
      return found;
    };
    if (ap.mask != 0 && rel->size() >= kScanBelow) {
      const std::vector<uint32_t>* ids = rel->Probe(ap.mask, Key(ap));
      if (ids == nullptr) return false;
      BucketIterationGuard guard(rel);
      for (uint32_t id : *ids) {
        if (try_tuple(rel->tuples()[id])) return true;
      }
    } else {
      for (TupleRef t : rel->tuples()) {
        if (KeyMatches(ap, t) && try_tuple(t)) return true;
      }
    }
    return false;
  }

  const RelationalPlan& plan_;
  const BoundQuery& bound_;
  Relation* out_;
  std::vector<Value>& frame_;
  std::vector<Value>& key_scratch_;
  Tuple& out_scratch_;
  uint64_t matches_ = 0;
};

}  // namespace

BoundQuery ResolveQuery(const CompiledQuery& q, const Instance& inst,
                        const EngineContext* ctx) {
  EngineStats* stats = ctx != nullptr ? ctx->stats : nullptr;
  uint64_t start_ns = stats != nullptr ? obs::NowNs() : 0;
  BoundQuery b;
  b.query = &q;
  b.rels.reserve(q.relations.size());
  for (const std::string& name : q.relations) {
    b.rels.push_back(inst.Find(name));
  }
  if (stats != nullptr) stats->plan_bind_ns += obs::NowNs() - start_ns;
  return b;
}

void RefreshQuery(BoundQuery* b) {
  b->arity_ok = true;
  b->trivially_empty = false;
  auto check_atom = [b](const PlanAtomStep& ap, bool is_guard,
                        bool* guard_dead) {
    const Relation* rel = b->rels[ap.rel_slot];
    if (rel == nullptr || rel->empty()) {
      if (is_guard) {
        *guard_dead = true;  // The guard's sub-CQ can never match.
      } else {
        b->trivially_empty = true;
      }
    }
    if (rel != nullptr && rel->arity() != ap.arity) b->arity_ok = false;
  };

  const CompiledQuery& q = *b->query;
  switch (q.kind) {
    case PlanKind::kRelational: {
      const RelationalPlan& plan = *q.relational;
      for (const PlanAtomStep& ap : plan.atoms) {
        check_atom(ap, /*is_guard=*/false, nullptr);
      }
      b->guard_active.assign(plan.num_guards, true);
      for (const auto& stage : plan.guards_after) {
        for (const PlanGuard& g : stage) {
          bool dead = false;
          for (const PlanAtomStep& ap : g.atoms) {
            check_atom(ap, /*is_guard=*/true, &dead);
          }
          if (dead) b->guard_active[g.guard_id] = false;
        }
      }
      break;
    }
    case PlanKind::kGeneric:
      // Arity mismatches surface as the generic evaluator's
      // InvalidArgument during execution, as they always have.
      break;
  }
}

BoundQuery BindQuery(const CompiledQuery& q, const Instance& inst,
                     const EngineContext* ctx) {
  BoundQuery b = ResolveQuery(q, inst, ctx);
  RefreshQuery(&b);
  return b;
}

bool RunRelational(BoundQuery& b,
                   const std::map<std::string, Value>* binding,
                   Relation* out) {
  const bool negate = b.query->relational->negate;
  if (b.trivially_empty) return negate;
  RelationalRunner runner(b, out);
  bool matched = runner.Run(binding);
  relational_run_stats().full_matches += runner.matches();
  return matched != negate;
}

// ---------------------------------------------------------------------------
// Generic execution.
// ---------------------------------------------------------------------------

GenericRunner::GenericRunner(const BoundQuery& b, FunctionOracle* oracle)
    : plan_(*b.query->generic),
      rels_(b.rels),
      oracle_(oracle),
      frame_(plan_.num_slots),
      atom_scratch_(plan_.num_nodes),
      saved_scratch_(plan_.num_nodes),
      idx_scratch_(plan_.num_nodes) {}

Result<Value> GenericRunner::EvalTerm(const GenericTerm& t) {
  switch (t.kind) {
    case Term::Kind::kVar: {
      Value v = frame_[t.slot];
      if (!v.IsValid()) {
        return Status::InvalidArgument(
            StrCat("unbound variable '", t.src->name,
                   "' during evaluation"));
      }
      return v;
    }
    case Term::Kind::kConst:
      return t.constant;
    case Term::Kind::kFunc: {
      if (oracle_ == nullptr) {
        return Status::FailedPrecondition(
            StrCat("function term '", t.src->name,
                   "' evaluated without a function oracle"));
      }
      Tuple args;
      args.reserve(t.args.size());
      for (const GenericTerm& a : t.args) {
        OCDX_ASSIGN_OR_RETURN(Value v, EvalTerm(a));
        args.push_back(v);
      }
      return oracle_->Apply(t.src->name, args);
    }
  }
  return Status::Internal("unknown term kind");
}

void GenericRunner::Restore(const GenericNode& n) {
  const std::vector<Value>& saved = saved_scratch_[n.id];
  for (size_t i = 0; i < n.bound_slots.size(); ++i) {
    frame_[n.bound_slots[i]] = saved[i];
  }
}

Result<bool> GenericRunner::Eval(const GenericNode& n,
                                 const std::vector<Value>& domain) {
  switch (n.kind) {
    case Formula::Kind::kTrue:
      return true;
    case Formula::Kind::kFalse:
      return false;
    case Formula::Kind::kAtom: {
      Tuple& scratch = atom_scratch_[n.id];
      scratch.resize(n.terms.size());
      for (size_t i = 0; i < n.terms.size(); ++i) {
        OCDX_ASSIGN_OR_RETURN(Value v, EvalTerm(n.terms[i]));
        scratch[i] = v;
      }
      const Relation* rel = rels_[n.rel_slot];
      if (rel == nullptr) return false;
      if (rel->arity() != scratch.size()) {
        return Status::InvalidArgument(
            StrCat("atom ", n.src->rel(), "/", scratch.size(),
                   " does not match relation arity ", rel->arity()));
      }
      return rel->Contains(scratch);
    }
    case Formula::Kind::kEquals: {
      OCDX_ASSIGN_OR_RETURN(Value a, EvalTerm(n.terms[0]));
      OCDX_ASSIGN_OR_RETURN(Value b, EvalTerm(n.terms[1]));
      return a == b;
    }
    case Formula::Kind::kNot: {
      OCDX_ASSIGN_OR_RETURN(bool v, Eval(n.children[0], domain));
      return !v;
    }
    case Formula::Kind::kAnd: {
      for (const GenericNode& c : n.children) {
        OCDX_ASSIGN_OR_RETURN(bool v, Eval(c, domain));
        if (!v) return false;
      }
      return true;
    }
    case Formula::Kind::kOr: {
      for (const GenericNode& c : n.children) {
        OCDX_ASSIGN_OR_RETURN(bool v, Eval(c, domain));
        if (v) return true;
      }
      return false;
    }
    case Formula::Kind::kImplies: {
      OCDX_ASSIGN_OR_RETURN(bool a, Eval(n.children[0], domain));
      if (!a) return true;
      return Eval(n.children[1], domain);
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      bool is_exists = n.kind == Formula::Kind::kExists;
      const size_t k = n.bound_slots.size();
      std::vector<Value>& saved = saved_scratch_[n.id];
      std::vector<size_t>& idx = idx_scratch_[n.id];
      saved.resize(k);
      idx.resize(k);
      // Shadowing: remember the outer bindings of the bound slots.
      for (size_t i = 0; i < k; ++i) {
        saved[i] = frame_[n.bound_slots[i]];
      }
      // Odometer over domain^k.
      bool result = !is_exists;  // exists: false until witness.
      if (!(domain.empty() && k > 0)) {
        std::fill(idx.begin(), idx.end(), 0);
        while (true) {
          if (gauge_ != nullptr) {
            Status g = gauge_->Tick();
            if (!g.ok()) {
              Restore(n);
              return g;
            }
          }
          for (size_t i = 0; i < k; ++i) {
            frame_[n.bound_slots[i]] = domain[idx[i]];
          }
          Result<bool> v = Eval(n.children[0], domain);
          if (!v.ok()) {
            Restore(n);
            return v;
          }
          if (is_exists && v.value()) {
            result = true;
            break;
          }
          if (!is_exists && !v.value()) {
            result = false;
            break;
          }
          // Advance odometer.
          size_t p = k;
          while (p > 0) {
            --p;
            if (++idx[p] < domain.size()) break;
            idx[p] = 0;
            if (p == 0) {
              p = SIZE_MAX;
              break;
            }
          }
          if (p == SIZE_MAX || k == 0) break;
        }
      }
      Restore(n);
      return result;
    }
  }
  return Status::Internal("unknown formula kind");
}

Result<bool> GenericRunner::Run(const std::vector<Value>& domain) {
  return Eval(plan_.root, domain);
}

}  // namespace plan
}  // namespace ocdx
