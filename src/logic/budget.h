// Resource governance: the per-job Budget and the polling gauge.
//
// The paper's chase only terminates under syntactic restrictions, and the
// certain-answer / composition procedures quantify over spaces that are
// exponential at best. A Budget puts a uniform admission-control surface
// on every one of those loops (ROADMAP item 3): hard caps on chase
// triggers/nulls and enumerated members, the existing NP-search step caps,
// a coarse wall-clock deadline, and a cooperative cancellation flag that
// another thread (or a signal handler) can raise. Every evaluation path
// consults the budget of its EngineContext and surfaces a trip as a
// structured Status — kResourceExhausted, kDeadlineExceeded or kCancelled
// — never as a hang or a crash.
//
// Budgets are plain values copied with their context. Trip messages must
// mention only caps and engine-independent counts (witness counts, member
// counts), never search progress, so that budget errors render
// byte-identically under every join engine — the golden corpus pins that.

#ifndef OCDX_LOGIC_BUDGET_H_
#define OCDX_LOGIC_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "util/status.h"

namespace ocdx {

struct EngineStats;

/// Resource limits for one job. Defaults are the paper-default NP-search
/// caps and "unlimited" everywhere else (the pre-governance behavior).
struct Budget {
  static constexpr uint64_t kUnlimited = ~uint64_t{0};
  /// The paper-default NP-search budget (matches the historical
  /// HomOptions / RepAOptions defaults).
  static constexpr uint64_t kDefaultSearchSteps = 50'000'000;

  /// Caps on the per-call HomOptions / RepAOptions budgets: an engine
  /// call runs with min(call budget, context budget), so a job-level
  /// context can bound every search it transitively spawns.
  uint64_t hom_max_steps = kDefaultSearchSteps;
  uint64_t repa_max_steps = kDefaultSearchSteps;
  /// Hard cap on STD firings per Chase call.
  uint64_t chase_max_triggers = kUnlimited;
  /// Hard cap on fresh nulls minted per Chase call.
  uint64_t chase_max_nulls = kUnlimited;
  /// Hard cap on members visited per RepA member enumeration (on top of
  /// the soft MemberEnumOptions::max_members, which merely marks the run
  /// non-exhaustive): the certain-answer searches and every InComposition
  /// path, the NP valuation searches included. The Skolem interpretation
  /// searches are bounded by SkolemMembershipOptions::max_interpretations
  /// instead.
  uint64_t max_members = kUnlimited;
  /// Wall-clock deadline in milliseconds; 0 = none. ArmDeadline converts
  /// it into an absolute steady_clock point when the command starts.
  uint64_t deadline_ms = 0;
  /// Armed absolute deadline (valid iff deadline_armed).
  std::chrono::steady_clock::time_point deadline{};
  bool deadline_armed = false;
  /// Cooperative cancellation: polled (relaxed) at the same coarse
  /// intervals as the deadline. The pointee must outlive the job; nullptr
  /// means "not cancellable".
  const std::atomic<bool>* cancel = nullptr;

  /// Takes the element-wise minimum of caps, the earliest deadline, and
  /// adopts `o`'s cancellation flag if this budget has none. Used to fold
  /// a scenario-declared budget into the caller's (CLI/server) budget.
  void Tighten(const Budget& o);

  /// Arms the wall-clock deadline from deadline_ms (no-op when already
  /// armed or deadline_ms == 0). Called once per command/job start.
  void ArmDeadline();

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
  bool deadline_expired() const {
    return deadline_armed && std::chrono::steady_clock::now() >= deadline;
  }
};

/// True for the three governed trip codes (kResourceExhausted,
/// kDeadlineExceeded, kCancelled): failures the driver renders as
/// positioned inline diagnostics instead of hard errors.
bool IsBudgetStatusCode(StatusCode code);

/// Assigns `value` to the budget field named `key` (the `.dx` `budget`
/// block spelling: chase_max_triggers, chase_max_nulls, max_members,
/// hom_max_steps, repa_max_steps, deadline_ms). Returns false for an
/// unknown key.
bool SetBudgetField(Budget* budget, std::string_view key, uint64_t value);

/// Amortized deadline/cancellation polling for hot loops. Tick() is a
/// counter increment on the fast path; every kInterval-th call polls the
/// cancellation flag and the clock. Loops that are already coarse (one
/// iteration per STD, per valuation) call Poll() directly.
class BudgetGauge {
 public:
  /// `stats` may be null; when set, deadline trips are counted into it.
  /// Both pointees must outlive the gauge.
  BudgetGauge(const Budget& budget, EngineStats* stats)
      : budget_(budget), stats_(stats) {}

  Status Tick() {
    if ((++ticks_ & (kInterval - 1)) != 0) return Status::OK();
    return Poll();
  }

  /// Checks cancellation, then the deadline. OK when neither tripped.
  Status Poll();

 private:
  static constexpr uint32_t kInterval = 1024;  // Must be a power of two.
  const Budget& budget_;
  EngineStats* stats_;
  uint32_t ticks_ = 0;
};

}  // namespace ocdx

#endif  // OCDX_LOGIC_BUDGET_H_
