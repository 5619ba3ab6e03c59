#include "plan/compile.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

namespace ocdx {
namespace plan {

namespace {

// ---------------------------------------------------------------------------
// Relation-name interning: every plan form references relations through
// one per-plan name table, so BindQuery resolves each name exactly once.
// ---------------------------------------------------------------------------

class RelInterner {
 public:
  explicit RelInterner(std::vector<std::string>* table) : table_(table) {}

  uint32_t GetOrAdd(const std::string& name) {
    auto [it, inserted] = index_.emplace(name, table_->size());
    if (inserted) table_->push_back(name);
    return static_cast<uint32_t>(it->second);
  }

 private:
  std::vector<std::string>* table_;
  std::unordered_map<std::string, size_t> index_;
};

// ---------------------------------------------------------------------------
// Shape recognition (the front half of the indexed compiler).
// ---------------------------------------------------------------------------

// Flattens a *positive* exists-prefixed conjunction (no nested negation).
// `deep_guard` is set when a kNot is encountered, i.e. when this is a
// guard body whose nesting exceeds the supported one level.
bool FlattenPositive(const Formula& f, std::vector<ShapeAtom>* atoms,
                     std::vector<ShapeEq>* equalities, bool* deep_guard) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
      return true;
    case Formula::Kind::kAtom:
      for (const Term& t : f.terms()) {
        if (t.IsFunc()) return false;
      }
      atoms->push_back(ShapeAtom{&f.rel(), &f.terms()});
      return true;
    case Formula::Kind::kEquals:
      if (f.terms()[0].IsFunc() || f.terms()[1].IsFunc()) return false;
      equalities->push_back(ShapeEq{f.terms()[0], f.terms()[1]});
      return true;
    case Formula::Kind::kAnd:
      for (const FormulaPtr& c : f.children()) {
        if (!FlattenPositive(*c, atoms, equalities, deep_guard)) return false;
      }
      return true;
    case Formula::Kind::kExists:
      // Existential variables are simply projected away at the end; the
      // prefix may also occur nested inside the conjunction, which is
      // equivalent for CQs as long as bound names do not clash with outer
      // ones (CollectBound declines shadowing).
      return FlattenPositive(*f.children()[0], atoms, equalities, deep_guard);
    case Formula::Kind::kNot:
      if (deep_guard != nullptr) *deep_guard = true;
      return false;
    default:
      return false;
  }
}

// Flattens the full supported shape: positive conjuncts plus negated
// sub-CQ guards at the top conjunction level.
bool Flatten(const Formula& f, QueryShape* shape, bool* deep_guard) {
  switch (f.kind()) {
    case Formula::Kind::kNot: {
      ShapeGuard guard;
      if (!FlattenPositive(*f.children()[0], &guard.atoms, &guard.equalities,
                           deep_guard)) {
        return false;
      }
      guard.free_vars = FreeVars(f.children()[0]);
      shape->guards.push_back(std::move(guard));
      return true;
    }
    case Formula::Kind::kAnd:
      for (const FormulaPtr& c : f.children()) {
        if (!Flatten(*c, shape, deep_guard)) return false;
      }
      return true;
    case Formula::Kind::kExists:
      return Flatten(*f.children()[0], shape, deep_guard);
    default:
      return FlattenPositive(f, &shape->atoms, &shape->equalities,
                             /*deep_guard=*/nullptr);
  }
}

// Collects bound-variable names; declines shadowing (same name bound
// twice or bound-and-free), which would make plain flattening unsound.
bool CollectBound(const Formula& f, std::set<std::string>* bound) {
  switch (f.kind()) {
    case Formula::Kind::kExists: {
      for (const std::string& v : f.bound()) {
        if (!bound->insert(v).second) return false;
      }
      return CollectBound(*f.children()[0], bound);
    }
    case Formula::Kind::kAnd:
      for (const FormulaPtr& c : f.children()) {
        if (!CollectBound(*c, bound)) return false;
      }
      return true;
    case Formula::Kind::kNot:
      return CollectBound(*f.children()[0], bound);
    default:
      return true;
  }
}

/// Recognizes the safe-CQ(+guards) shape of `f`, where `order` lists the
/// output variables and `prebound` the externally bound ones (boolean
/// mode). False = unsupported shape, compile the generic skeleton.
/// `deep_guard` reports the guard-nesting diagnostic.
bool RecognizeCq(const FormulaPtr& f, const std::vector<std::string>& order,
                 const std::set<std::string>& prebound, const Instance& inst,
                 QueryShape* shape, bool* deep_guard) {
  std::set<std::string> bound;
  if (!CollectBound(*f, &bound)) return false;
  for (const std::string& v : order) {
    if (bound.count(v)) return false;  // Shadowed output variable.
  }
  // A name both bound and free would be conflated by flattening.
  for (const std::string& v : FreeVars(f)) {
    if (bound.count(v)) return false;
  }
  if (!Flatten(*f, shape, deep_guard)) return false;

  // Malformed atoms (arity mismatch against the compile-time instance)
  // must reach the generic evaluator so that they produce its
  // InvalidArgument error instead of garbage. Mismatches against a
  // *different* instance at bind time are caught by BindQuery.
  for (const ShapeAtom& a : shape->atoms) {
    const Relation* rel = inst.Find(*a.rel);
    if (rel != nullptr && rel->arity() != a.terms->size()) return false;
  }
  for (const ShapeGuard& g : shape->guards) {
    for (const ShapeAtom& a : g.atoms) {
      const Relation* rel = inst.Find(*a.rel);
      if (rel != nullptr && rel->arity() != a.terms->size()) return false;
    }
  }

  // Safety: every output variable must occur in some positive atom; every
  // equality or guard variable must be bound by a positive atom or given
  // from outside (otherwise it ranges over the whole domain and the
  // generic evaluator is the right tool).
  std::set<std::string> atom_vars;
  for (const ShapeAtom& a : shape->atoms) {
    for (const Term& t : *a.terms) {
      if (t.IsVar()) atom_vars.insert(t.name);
    }
  }
  auto covered = [&](const std::string& v) {
    return atom_vars.count(v) > 0 || prebound.count(v) > 0;
  };
  for (const std::string& v : order) {
    if (!atom_vars.count(v)) return false;
  }
  for (const ShapeEq& eq : shape->equalities) {
    if (eq.lhs.IsVar() && !covered(eq.lhs.name)) return false;
    if (eq.rhs.IsVar() && !covered(eq.rhs.name)) return false;
  }
  for (const ShapeGuard& g : shape->guards) {
    for (const std::string& v : g.free_vars) {
      if (!covered(v)) return false;
    }
    std::set<std::string> guard_atom_vars;
    for (const ShapeAtom& a : g.atoms) {
      for (const Term& t : *a.terms) {
        if (t.IsVar()) guard_atom_vars.insert(t.name);
      }
    }
    for (const ShapeEq& eq : g.equalities) {
      for (const Term* side : {&eq.lhs, &eq.rhs}) {
        if (side->IsVar() && !guard_atom_vars.count(side->name) &&
            !covered(side->name)) {
          return false;
        }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Relational (indexed-engine) compilation.
// ---------------------------------------------------------------------------

/// Interns variable names to dense slot ids at compile time.
class SlotMap {
 public:
  int GetOrAdd(const std::string& v) {
    auto [it, inserted] = slots_.emplace(v, static_cast<int>(slots_.size()));
    return it->second;
  }
  size_t size() const { return slots_.size(); }

 private:
  std::unordered_map<std::string, int> slots_;
};

// Row and distinct-value counts of the compile-time instance, the join-
// order heuristic's only inputs. A distinct count is one pass over a
// column; it is taken the first time the heuristic keys on that
// (relation, position) and kept for the rest of the compile.
class ColumnStats {
 public:
  explicit ColumnStats(const Instance& inst) : inst_(inst) {}

  const Relation* Find(const std::string& name) const {
    return inst_.Find(name);
  }

  size_t Distinct(const Relation& rel, uint32_t pos) {
    auto [it, inserted] = distinct_.emplace(std::make_pair(&rel, pos), 0);
    if (inserted) it->second = CountDistinct(rel, pos);
    return it->second;
  }

 private:
  // Counts with a flat open-addressed set of raw values; the all-ones
  // pattern (an invalid Value, never stored in a relation) marks a free
  // slot. Sized for the rows, so it never grows.
  static size_t CountDistinct(const Relation& rel, uint32_t pos) {
    constexpr uint64_t kFree = ~uint64_t{0};
    size_t cap = 16;
    while (cap < 2 * rel.size()) cap *= 2;
    std::vector<uint64_t> seen(cap, kFree);
    size_t n = 0;
    for (TupleRef t : rel.tuples()) {
      uint64_t raw = t[pos].raw();
      for (size_t i = ValueHash{}(t[pos]) & (cap - 1);;
           i = (i + 1) & (cap - 1)) {
        if (seen[i] == raw) break;
        if (seen[i] == kFree) {
          seen[i] = raw;
          ++n;
          break;
        }
      }
    }
    return n;
  }

  const Instance& inst_;
  std::map<std::pair<const Relation*, uint32_t>, size_t> distinct_;
};

// Greedy next-atom choice: minimize the estimated fan-out of the step,
// |R| / min(|R|, prod distinct(R, p)) over the positions p it keys on
// (constants and bound variables), with distinct counts read from the
// compile-time instance. An unkeyed step costs |R|; a step keyed on a
// column of 4 colours costs |R| / 4, one keyed on a key column costs 1.
// Ties break toward an atom that binds a not-yet-bound output variable
// (`outs`), so the answer row is fixed early and the runner's
// first-witness stop (RelationalPlan::witness_step) cuts more; then
// toward more keyed positions, smaller relations and source order. The
// last remaining atom is taken without counting anything. For the
// enumeration workloads that rebind the plan, members share the
// canonical solution's shape, so the ordering carries over.
size_t PickNextAtom(const std::vector<ShapeAtom>& atoms,
                    const std::vector<bool>& used,
                    const std::function<bool(const std::string&)>& is_bound,
                    const std::vector<std::string>& outs,
                    ColumnStats* stats) {
  size_t best = SIZE_MAX;
  size_t unused = 0;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (!used[i]) {
      ++unused;
      best = i;
    }
  }
  if (unused <= 1) return best;
  best = SIZE_MAX;
  double best_cost = 0;
  bool best_out = false;
  size_t best_nb = 0, best_n = 0;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (used[i]) continue;
    const Relation* rel = stats->Find(*atoms[i].rel);
    size_t n = rel == nullptr ? 0 : rel->size();
    size_t nb = 0;
    bool binds_out = false;
    double keyed = 1;
    for (uint32_t p = 0; p < atoms[i].terms->size(); ++p) {
      const Term& t = (*atoms[i].terms)[p];
      if (t.IsConst() || (t.IsVar() && is_bound(t.name))) {
        ++nb;
        if (n > 0) keyed *= static_cast<double>(stats->Distinct(*rel, p));
      } else if (t.IsVar() &&
                 std::find(outs.begin(), outs.end(), t.name) != outs.end()) {
        binds_out = true;
      }
    }
    double cost =
        n == 0 ? 0
               : static_cast<double>(n) /
                     std::min(static_cast<double>(n), keyed);
    if (best == SIZE_MAX || cost < best_cost ||
        (cost == best_cost &&
         (binds_out != best_out ? binds_out
                                : nb != best_nb ? nb > best_nb
                                                : n < best_n))) {
      best = i;
      best_cost = cost;
      best_out = binds_out;
      best_nb = nb;
      best_n = n;
    }
  }
  return best;
}

/// Compiles one atom given the currently bound slots. `bind_slot` interns
/// a variable and must mark it bound for subsequent atoms.
PlanAtomStep CompileAtom(const ShapeAtom& atom, RelInterner* rels,
                         SlotMap* slots,
                         const std::function<bool(int)>& slot_bound,
                         const std::function<void(int)>& mark_bound) {
  PlanAtomStep ap;
  ap.rel_slot = rels->GetOrAdd(*atom.rel);
  ap.arity = static_cast<uint32_t>(atom.terms->size());
  std::set<int> bound_here;  // First occurrences within this atom.
  for (uint32_t p = 0; p < atom.terms->size(); ++p) {
    const Term& term = (*atom.terms)[p];
    if (term.IsConst()) {
      ap.mask |= uint64_t{1} << p;
      ap.key.push_back(PlanTerm{true, term.constant, -1});
      continue;
    }
    int slot = slots->GetOrAdd(term.name);
    if (slot_bound(slot)) {
      ap.mask |= uint64_t{1} << p;
      ap.key.push_back(PlanTerm{false, Value(), slot});
    } else if (bound_here.count(slot)) {
      ap.checks.push_back({p, slot});
    } else {
      ap.binds.push_back({p, slot});
      bound_here.insert(slot);
    }
  }
  for (int slot : bound_here) mark_bound(slot);
  return ap;
}

/// Compiles the recognized shape into a relational plan. False means the
/// shape is fine but not plannable (arity > 64); the caller emits the
/// generic skeleton instead.
bool CompileRelational(const QueryShape& shape,
                       const std::vector<std::string>& order,
                       const std::set<std::string>& prebound,
                       ColumnStats* stats, RelInterner* rels,
                       RelationalPlan* plan) {
  for (const ShapeAtom& a : shape.atoms) {
    if (a.terms->size() > kMaxPlanArity) return false;
  }
  for (const ShapeGuard& g : shape.guards) {
    for (const ShapeAtom& a : g.atoms) {
      if (a.terms->size() > kMaxPlanArity) return false;
    }
  }

  SlotMap slots;
  // bound_step[slot]: -1 = never bound; 0 = preset; i+1 = bound by the
  // i-th atom of the main plan.
  std::vector<int> bound_step;
  auto ensure = [&](int slot) {
    if (static_cast<size_t>(slot) >= bound_step.size()) {
      bound_step.resize(slot + 1, -1);
    }
  };

  for (const std::string& v : order) {
    int s = slots.GetOrAdd(v);
    ensure(s);
    plan->out_slots.push_back(s);
  }
  for (const std::string& v : prebound) {
    int s = slots.GetOrAdd(v);
    ensure(s);
    bound_step[s] = 0;
    plan->preset_vars.push_back({s, v});
  }

  // Greedy main join order.
  std::vector<bool> used(shape.atoms.size(), false);
  auto var_bound = [&](const std::string& v) {
    int s = slots.GetOrAdd(v);
    ensure(s);
    return bound_step[s] >= 0;
  };
  for (size_t step = 0; step < shape.atoms.size(); ++step) {
    size_t pick = PickNextAtom(shape.atoms, used, var_bound, order, stats);
    used[pick] = true;
    PlanAtomStep ap = CompileAtom(
        shape.atoms[pick], rels, &slots,
        [&](int s) {
          ensure(s);
          return bound_step[s] >= 0;
        },
        [&](int s) {
          ensure(s);
          bound_step[s] = static_cast<int>(step) + 1;
        });
    plan->atoms.push_back(std::move(ap));
  }
  // The answer row is fixed once the last step that binds an out slot
  // has run; presets (bound_step 0) fix nothing.
  for (int s : plan->out_slots) {
    plan->witness_step = std::max(plan->witness_step, bound_step[s] - 1);
  }

  plan->eqs_after.resize(plan->atoms.size() + 1);
  plan->guards_after.resize(plan->atoms.size() + 1);

  auto resolve = [&](const Term& t) -> PlanTerm {
    if (t.IsConst()) return PlanTerm{true, t.constant, -1};
    int s = slots.GetOrAdd(t.name);
    ensure(s);
    return PlanTerm{false, Value(), s};
  };
  auto ready_step = [&](const PlanTerm& sc) -> int {
    return sc.is_const ? 0 : bound_step[sc.slot];
  };

  // Equalities fire at the earliest step where both sides are bound.
  for (const ShapeEq& eq : shape.equalities) {
    PlanEq ep{resolve(eq.lhs), resolve(eq.rhs)};
    int l = ready_step(ep.lhs), r = ready_step(ep.rhs);
    if (l < 0 || r < 0) return false;  // Unreachable given safety.
    plan->eqs_after[static_cast<size_t>(std::max(l, r))].push_back(ep);
  }

  // Guards fire at the earliest step where all their free variables are
  // bound; their atoms get their own greedy sub-plan and slots. Every
  // guard is compiled — whether it can match a particular instance
  // (missing/empty relations) is decided per bind, not here.
  for (const ShapeGuard& g : shape.guards) {
    int ready = 0;
    for (const std::string& v : g.free_vars) {
      int s = slots.GetOrAdd(v);
      ensure(s);
      if (bound_step[s] < 0) return false;  // Unreachable.
      ready = std::max(ready, bound_step[s]);
    }

    PlanGuard gp;
    gp.guard_id = static_cast<uint32_t>(plan->num_guards++);
    // guard_bound[slot]: -1 = unbound inside the guard; 0 = bound by the
    // outer plan (by `ready`); j+1 = bound by guard atom j.
    std::vector<int> guard_bound;
    auto gensure = [&](int slot) {
      if (static_cast<size_t>(slot) >= guard_bound.size()) {
        guard_bound.resize(slot + 1, -1);
      }
    };
    for (size_t s = 0; s < bound_step.size(); ++s) {
      if (bound_step[s] >= 0 && bound_step[s] <= ready) {
        gensure(static_cast<int>(s));
        guard_bound[s] = 0;
      }
    }
    std::vector<bool> gused(g.atoms.size(), false);
    auto gvar_bound = [&](const std::string& v) {
      int s = slots.GetOrAdd(v);
      gensure(s);
      return guard_bound[s] >= 0;
    };
    for (size_t gstep = 0; gstep < g.atoms.size(); ++gstep) {
      size_t pick = PickNextAtom(g.atoms, gused, gvar_bound, {}, stats);
      gused[pick] = true;
      PlanAtomStep ap = CompileAtom(
          g.atoms[pick], rels, &slots,
          [&](int s) {
            gensure(s);
            return guard_bound[s] >= 0;
          },
          [&](int s) {
            gensure(s);
            guard_bound[s] = static_cast<int>(gstep) + 1;
          });
      gp.atoms.push_back(std::move(ap));
    }
    gp.eqs_after.resize(gp.atoms.size() + 1);
    for (const ShapeEq& eq : g.equalities) {
      PlanEq ep{resolve(eq.lhs), resolve(eq.rhs)};
      auto gready = [&](const PlanTerm& sc) -> int {
        if (sc.is_const) return 0;
        gensure(sc.slot);
        return guard_bound[sc.slot];
      };
      int l = gready(ep.lhs), r = gready(ep.rhs);
      if (l < 0 || r < 0) return false;  // Unreachable given safety.
      gp.eqs_after[static_cast<size_t>(std::max(l, r))].push_back(ep);
    }
    plan->guards_after[static_cast<size_t>(ready)].push_back(std::move(gp));
  }

  plan->num_slots = slots.size();
  return true;
}

// ---------------------------------------------------------------------------
// Generic (active-domain) compilation.
// ---------------------------------------------------------------------------

class GenericCompiler {
 public:
  explicit GenericCompiler(RelInterner* rels) : rels_(rels) {}

  int GetOrAdd(const std::string& v) {
    auto [it, inserted] = slots_.emplace(v, static_cast<int>(slots_.size()));
    return it->second;
  }

  GenericTerm CompileTerm(const Term& t) {
    GenericTerm out;
    out.kind = t.kind;
    out.src = &t;
    switch (t.kind) {
      case Term::Kind::kConst:
        out.constant = t.constant;
        break;
      case Term::Kind::kVar:
        out.slot = GetOrAdd(t.name);
        break;
      case Term::Kind::kFunc:
        out.args.reserve(t.args.size());
        for (const Term& a : t.args) out.args.push_back(CompileTerm(a));
        break;
    }
    return out;
  }

  GenericNode Compile(const Formula& f) {
    GenericNode n;
    n.kind = f.kind();
    n.src = &f;
    n.id = next_id_++;
    switch (f.kind()) {
      case Formula::Kind::kAtom:
        n.rel_slot = static_cast<int>(rels_->GetOrAdd(f.rel()));
        n.terms.reserve(f.terms().size());
        for (const Term& t : f.terms()) n.terms.push_back(CompileTerm(t));
        break;
      case Formula::Kind::kEquals:
        n.terms.push_back(CompileTerm(f.terms()[0]));
        n.terms.push_back(CompileTerm(f.terms()[1]));
        break;
      case Formula::Kind::kExists:
      case Formula::Kind::kForall:
        n.bound_slots.reserve(f.bound().size());
        for (const std::string& v : f.bound()) {
          n.bound_slots.push_back(GetOrAdd(v));
        }
        [[fallthrough]];
      default:
        n.children.reserve(f.children().size());
        for (const FormulaPtr& c : f.children()) {
          n.children.push_back(Compile(*c));
        }
        break;
    }
    return n;
  }

  GenericPlan Finish(GenericNode root, std::vector<int> out_slots) {
    GenericPlan plan;
    plan.root = std::move(root);
    plan.num_slots = slots_.size();
    plan.num_nodes = next_id_;
    plan.out_slots = std::move(out_slots);
    plan.slots = std::move(slots_);
    return plan;
  }

 private:
  RelInterner* rels_;
  std::unordered_map<std::string, int> slots_;
  uint32_t next_id_ = 0;
};

GenericPlan CompileGeneric(const FormulaPtr& f,
                           const std::vector<std::string>& order,
                           RelInterner* rels) {
  GenericCompiler compiler(rels);
  // Output variables get slots first (they may not even occur in f, in
  // which case they simply range over the domain).
  std::vector<int> out_slots;
  out_slots.reserve(order.size());
  for (const std::string& v : order) {
    out_slots.push_back(compiler.GetOrAdd(v));
  }
  GenericNode root = compiler.Compile(*f);
  return compiler.Finish(std::move(root), std::move(out_slots));
}

/// The existential dual of a boolean-mode universal sentence:
/// `forall x-bar. phi -> psi` (a chain of leading foralls, then one
/// implication) becomes `exists x-bar. phi & !psi`, whose negation is the
/// sentence. A consequent that is itself a negation `!chi` contributes
/// `chi` directly. nullptr when `f` has another shape.
FormulaPtr NegatedUniversal(const FormulaPtr& f) {
  std::vector<std::string> vars;
  const FormulaPtr* body = &f;
  while ((*body)->kind() == Formula::Kind::kForall) {
    vars.insert(vars.end(), (*body)->bound().begin(), (*body)->bound().end());
    body = &(*body)->children()[0];
  }
  if (vars.empty() || (*body)->kind() != Formula::Kind::kImplies) {
    return nullptr;
  }
  const FormulaPtr& phi = (*body)->children()[0];
  const FormulaPtr& psi = (*body)->children()[1];
  FormulaPtr not_psi = psi->kind() == Formula::Kind::kNot
                           ? psi->children()[0]
                           : Formula::Not(psi);
  return Formula::Exists(std::move(vars), Formula::And(phi, not_psi));
}

/// Recognizes and compiles `f` as a relational plan; false when the
/// shape is unsupported or not plannable. `deep_guard` (may be null) as
/// RecognizeCq.
bool TryCompileRelational(const FormulaPtr& f,
                          const std::vector<std::string>& order,
                          const std::set<std::string>& prebound,
                          ColumnStats* stats, const Instance& inst,
                          RelInterner* rels, RelationalPlan* plan,
                          bool* deep_guard) {
  QueryShape shape;
  return RecognizeCq(f, order, prebound, inst, &shape, deep_guard) &&
         CompileRelational(shape, order, prebound, stats, rels, plan);
}

}  // namespace

uint64_t SchemaFingerprint(const Instance& inst) {
  // FNV-1a over the deterministic (sorted-by-name) relation map.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (const auto& [name, rel] : inst.relations()) {
    for (char c : name) mix(static_cast<unsigned char>(c));
    mix(0xFF);  // Name terminator: ("ab", arity) != ("a", "b"-ish runs).
    mix(rel.arity());
  }
  return h | 1;  // Never 0: 0 is the schema-independent generic key.
}

bool GuardDepthExceeded(const FormulaPtr& f) {
  std::set<std::string> bound;
  if (!CollectBound(*f, &bound)) return false;
  QueryShape shape;
  bool deep = false;
  Flatten(*f, &shape, &deep);
  return deep;
}

CompiledQueryPtr CompileQuery(const CompileRequest& req, const Instance& inst,
                              JoinEngineMode engine, uint64_t schema_key) {
  auto out = std::make_shared<CompiledQuery>();
  out->source = req.formula;
  out->engine = engine;
  out->boolean_mode = req.boolean_mode;
  out->order = req.order;
  if (req.boolean_mode) {
    out->prebound.assign(req.prebound.begin(), req.prebound.end());
  }
  out->schema_key = schema_key;
  RelInterner rels(&out->relations);

  static const std::vector<std::string> kNoOrder;
  const std::vector<std::string>& order =
      req.boolean_mode ? kNoOrder : req.order;
  if (engine == JoinEngineMode::kIndexed) {
    // Table entries from an abandoned relational compile stay (bind
    // resolves a few unused names; harmless).
    ColumnStats stats(inst);
    RelationalPlan plan;
    bool deep = false;
    if (TryCompileRelational(req.formula, order, req.prebound, &stats, inst,
                             &rels, &plan, &deep)) {
      out->kind = PlanKind::kRelational;
      out->relational = std::move(plan);
      return out;
    }
    // The one-level guard limit is reported for the formula as written;
    // the dual below is an implementation detail of boolean mode.
    out->guard_depth_fallback = deep;
    if (req.boolean_mode) {
      if (FormulaPtr dual = NegatedUniversal(req.formula)) {
        RelationalPlan negated;
        if (TryCompileRelational(dual, order, req.prebound, &stats, inst,
                                 &rels, &negated, /*deep_guard=*/nullptr)) {
          negated.negate = true;
          out->kind = PlanKind::kRelational;
          out->relational = std::move(negated);
          return out;
        }
      }
    }
  }

  out->kind = PlanKind::kGeneric;
  out->generic = CompileGeneric(req.formula, order, &rels);
  return out;
}

}  // namespace plan
}  // namespace ocdx
