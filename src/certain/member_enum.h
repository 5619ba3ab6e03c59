// Bounded enumeration of the members of RepA(T).
//
// Every certain-answer and composition procedure in the paper ultimately
// quantifies over RepA(CSolA(S)) — an infinite set. This enumerator is the
// one loop over it: the certain-answer searches and every composition
// path (compose/compose.h) visit their members here, the NP paths'
// valuation searches included. It makes that quantification finite and
// (within stated bounds) exact:
//
//   * valuations of the nulls are enumerated up to isomorphism fixing a
//     caller-supplied constant set (genericity; see iso_enum.h), and, for
//     an all-closed T, up to T's twin symmetries: T's rows split into
//     components linked by shared nulls and shared constants outside that
//     set, and components that a bijection maps onto each other (fixing
//     the set, keeping relations, positions and annotations) are twins.
//     Interchanging twins is an automorphism of T, and a check that names
//     only the fixed constants cannot tell a member from its image, so
//     one valuation per orbit of the group they generate is visited (the
//     five rows (name_i, @i) of enumerate_12.dx: 174 members, not
//     10,427). T with open positions or all-open markers keeps the
//     unreduced enumeration: its extra-tuple universe is cut at
//     max_universe in an order the twins do not respect;
//   * "extra" tuples licensed by open positions and all-open markers are
//     drawn from a finite pool: the fixed constants, the valuated
//     instance's own constants, and a budget of fresh constants;
//   * subsets of the extra-tuple universe are visited in increasing size.
//
// Members are edits of one image, not fresh instances: each shard keeps
// one Instance with every relation of T resolved once, refills it with
// v(rel(T)) per valuation from flat cells (each source value is a
// constant or an index into the valuation's images; Relation::Clear keeps
// the capacity and empties live indexes in place), and pushes and pops
// the chosen extras as the subset recursion descends and returns
// (Relation::Truncate unwinds dedup and index state with the rows). The
// Instance a visitor receives is that image — the same object for every
// member of a shard, edited between calls — so a visitor that keeps a
// member must copy it, and a visitor may bind its queries to it once
// (plan::ResolveQuery) and refresh them per member. A universe holding
// exactly max_universe distinct extras is complete; only a further
// distinct candidate marks the run truncated.
//
// Exactness guarantees, following the paper:
//   - all-closed T: no extras exist; enumeration is exact (Lemma 1 +
//     genericity), matching the coNP procedure of [Lib06] (Theorem 3.1).
//   - forall*-exists* queries: a counterexample, if any, exists with at
//     most l * arity extra domain values (proof of Proposition 5); a pool
//     that large makes the search a decision procedure.
//   - #op(T) <= 1 and FO queries: Lemma 2 bounds a counterexample by
//     (qr + |y-bar| + arity(Q)) fresh constants per "connection type"
//     X subseteq K; a sufficient pool again gives a decision procedure
//     (the coNEXPTIME bound of Theorem 3.2 is the size of this search).
//   - #op >= 2: provably no bound exists (Theorem 3.3, undecidable); the
//     enumeration is then a sound but incomplete counterexample search
//     and reports a non-exhausted outcome.
//
// Intra-job fan-out (EngineContext::shards > 1): the shards of a scoped
// worker pool draw valuation prefixes (a partition of the nulls and its
// first block's image; iso_enum.h) from one shared ticket counter, so
// uneven prefixes balance themselves and no shard steps through the
// valuations of another. Shard 0 first runs the first prefix on the
// calling thread; when that ends the run (a first witness, a trip, a
// one-prefix space), no worker starts, and otherwise the workers draw
// the prefixes after the ones shard 0 has taken. The caller's Universe
// is read-shared (Universe::ScopedReadShare) for the fan-out's duration
// and each shard
// mints through its own copy-on-write overlay (Universe::NewOverlay —
// nothing is cloned; overlay ids continue the base's id spaces, honoring
// the one-Universe-per-job contract per overlay), every shard probes the
// caller's thread-safe plan::PlanTable (plan/plan_table.h; compile-once
// per job, whatever the shard count), and the shard contexts'
// Budget::cancel points at a per-fan-out stop flag, so the first shard
// that stops the run (counterexample found, intersection emptied, budget
// trip) cooperatively cancels the NP searches still running in the
// others. Shard results merge in shard order, and every merged observable
// (outcome, the surfaced governed trip, the early-stop decision) is
// chosen so canonical `ocdx` output is byte-identical for every shard
// count; only members_visited() may vary under early stop, and the driver
// never prints it.

#ifndef OCDX_CERTAIN_MEMBER_ENUM_H_
#define OCDX_CERTAIN_MEMBER_ENUM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/instance.h"
#include "semantics/iso_enum.h"
#include "semantics/valuation.h"
#include "util/status.h"

namespace ocdx {

struct EngineContext;

struct MemberEnumOptions {
  /// Number of fresh constants available for extra (open-position) tuples.
  size_t fresh_pool = 2;
  /// Cap on the number of extra tuples added per member (SIZE_MAX = no cap
  /// beyond the universe size).
  size_t max_extra_tuples = SIZE_MAX;
  /// Cap on the size of the extra-tuple universe per valuation; a larger
  /// universe is truncated (and the run marked non-exhaustive).
  size_t max_universe = 24;
  /// Global budget on visited members.
  uint64_t max_members = 5'000'000;
  /// The paper's Section 6 "1-to-m" extension: each open tuple may be
  /// replicated at most this many times (SIZE_MAX = the paper's default
  /// one-to-*many* semantics). With a finite m the member space becomes
  /// polynomially bounded per valuation and "all the complexity results
  /// about CWA mappings apply" — enumeration is then a decision
  /// procedure for every query class.
  size_t open_replication_limit = SIZE_MAX;
};

/// How a ForEachMember run ended.
enum class EnumOutcome {
  /// The complete bounded space was visited: no truncation, no budget
  /// exhaustion, no early stop. Whether the bounded space suffices for a
  /// proof is the caller's concern (see the per-class guarantees above).
  kExhausted,
  /// The space was cut short by a bound (universe truncation, the soft
  /// member cap) or a governed trip — some members were never visited.
  kTruncated,
  /// The visitor stopped the run (returned false / Ok(false)). The
  /// remaining space was deliberately skipped, so the run must not be
  /// read as having visited it — callers that early-stop on a witness
  /// already have their answer and must not consult exhausted().
  kEarlyStopped,
};

/// One shard of a fanned-out ForEachMember run, handed to the visitor
/// factory. `universe` and `ctx` are what the shard's visitor must
/// evaluate against: at shard count 1 they are the enumerator's own
/// universe/context; under fan-out they are a private copy-on-write
/// overlay of the read-shared caller universe and a per-shard context
/// (sharing the caller's plan table) whose Budget::cancel is the
/// fan-out's shared stop flag.
struct MemberShard {
  size_t index = 0;
  size_t count = 1;
  Universe* universe = nullptr;
  const EngineContext* ctx = nullptr;
};

/// Enumerates ground members of RepA(T) and reports exhaustiveness.
class RepAMemberEnumerator {
 public:
  /// Sequential visitor: receives each member (the shard's image, valid
  /// for the call only; see the header comment); returning false stops.
  using MemberFn = std::function<bool(const Instance&)>;
  /// Sharded visitor: returning Ok(false) stops the whole fan-out (first
  /// success); a non-OK status aborts it and surfaces from ForEachMember.
  using ShardMemberFn = std::function<Result<bool>(const Instance&)>;
  /// Builds the visitor for one shard. Called serially on the calling
  /// thread, in shard order, before any shard starts running; the
  /// returned visitor then runs on that shard's thread only.
  using ShardFnFactory = std::function<ShardMemberFn(const MemberShard&)>;

  /// `fixed` holds every constant the caller's check can name (query
  /// constants, candidate answer constants, the constants of the target
  /// a composition checks against, ...). Valuations are enumerated up to
  /// isomorphisms fixing `fixed` and the constants of T, and up to the
  /// automorphisms of T that fix `fixed` and interchange twins (see
  /// above): a constant of T outside `fixed` moves only under those. A
  /// caller whose check tells apart constants it does not pass here gets
  /// an unsound enumeration.
  ///
  /// `ctx`, when non-null, attaches resource governance (logic/budget.h):
  /// the context budget's hard max_members cap, its deadline/cancellation
  /// gauge, and the "enum" fault-injection probe all apply to every
  /// ForEachMember run. The hard cap is distinct from the soft
  /// MemberEnumOptions::max_members bound: tripping it is an error
  /// (kResourceExhausted), not a quiet kTruncated outcome. `ctx->shards`
  /// selects the fan-out width of the factory-based ForEachMember.
  RepAMemberEnumerator(const AnnotatedInstance& t,
                       const std::vector<Value>& fixed, Universe* universe,
                       MemberEnumOptions options = {},
                       const EngineContext* ctx = nullptr);

  /// Visits members until `fn` returns false (early stop) or enumeration
  /// finishes/budgets out. Returns OK unless a hard error occurred.
  /// Always sequential, whatever ctx->shards says.
  Status ForEachMember(const MemberFn& fn);

  /// The sharded entry point: ctx->shards workers draw valuation
  /// prefixes from a shared counter (sequential when that is 1). Visitor
  /// errors are returned from here; the first shard to stop the run
  /// cancels the rest through the shard budgets' cooperative flag. See
  /// the header comment for the determinism contract.
  Status ForEachMember(const ShardFnFactory& factory);

  /// How the last ForEachMember run ended.
  EnumOutcome outcome() const { return outcome_; }

  /// True iff the last run visited the *complete* bounded space — false
  /// for truncated and for early-stopped runs (an early stop deliberately
  /// skips the rest of the space, so it proves nothing about it).
  bool exhausted() const { return outcome_ == EnumOutcome::kExhausted; }

  /// Number of members visited by the last run (summed over shards).
  uint64_t members_visited() const { return members_; }

 private:
  // Per-shard result record, merged in shard order by RunSharded.
  struct ShardOutcome {
    // Terminal event: at most one per shard, stamped with the ordinal of
    // the valuation it occurred in (its place in the unsharded order) so
    // the merge can pick the earliest.
    enum class Event { kNone, kEarlyStop, kSoftCap, kTrip };
    Event event = Event::kNone;
    ValuationOrdinal event_index;
    Status trip;             // Set when event == kTrip.
    bool truncated = false;  // Universe/extra-tuple truncation seen.
  };

  class ShardLoop;

  Status RunSharded(size_t shards, const ShardFnFactory& factory);

  const AnnotatedInstance& t_;
  std::vector<Value> fixed_;
  Universe* universe_;
  MemberEnumOptions options_;
  const EngineContext* ctx_;
  /// T's twins under the caller's fixed constants (iso_enum.h); empty
  /// when T has open positions or all-open markers.
  std::vector<TwinClass> twins_;
  /// Names for the fresh extra-value pool, computed once: "#e<i>" skipping
  /// any name already taken by a fixed/instance constant, so a scenario
  /// constant literally named "#e0" can never alias into the pool.
  std::vector<std::string> fresh_names_;
  EnumOutcome outcome_ = EnumOutcome::kExhausted;
  uint64_t members_ = 0;
};

}  // namespace ocdx

#endif  // OCDX_CERTAIN_MEMBER_ENUM_H_
