// FrozenScenario: one parsed `.dx` file, sealed for concurrent readers —
// the unit a snapshot serves from.
//
// BuildFrozenScenario is the one way to make one: parse the text into its
// own Universe, chase every chaseable pair, then freeze the Universe
// (Universe::Freeze) and every relation of every declared instance and of
// every prechased solution (Relation::Freeze). From then on any number of
// threads run driver commands on it at once, each through
// RunFrozenCommand: mint a private copy-on-write overlay of the frozen
// universe, then RunDxCommand over the shared scenario, borrowing the
// prechased solutions in place. Its users are `ocdx snapshot run` and
// `ocdxd --preload`: loading a snapshot is this build over the text the
// snapshot holds (snap::SnapshotBundle is this type). `ocdx batch` does
// not use it: a batch file is one job in a universe of its own
// (exec/batch_runner.h).
//
// Byte-identity: overlay ids continue the frozen base's id spaces, so a
// command run on an overlay mints exactly the values it would mint right
// after a fresh parse of the same text. Every run therefore renders the
// bytes a cold `ocdx <command> file.dx` renders, however many runs share
// the scenario and in whatever order they run.
//
// Plan table: the scenario owns the plan::PlanTable its runs share.
// RunFrozenCommand attaches it to every run, replacing any table on the
// caller's context, so the requests served from one preloaded snapshot
// compile each query once between them.

#ifndef OCDX_EXEC_FROZEN_SCENARIO_H_
#define OCDX_EXEC_FROZEN_SCENARIO_H_

#include <memory>
#include <string>

#include "base/value.h"
#include "logic/engine_context.h"
#include "plan/plan_table.h"
#include "text/dx_driver.h"
#include "text/dx_scenario.h"
#include "util/status.h"

namespace ocdx {

/// A parsed scenario over its own Universe, plus what its runs share.
/// Movable; the scenario's Values stay valid because the Universe lives
/// behind a stable pointer.
struct FrozenScenario {
  std::string source_path;  ///< `.dx` path the text came from.
  std::string dx_text;      ///< The scenario text.
  std::unique_ptr<Universe> universe;
  DxScenario scenario;  ///< Parsed from dx_text over *universe.
  /// Pre-chased canonical solutions, one per ungoverned DxChasePairOk
  /// pair. Runs borrow them in place when they fit the run's budget.
  PrechasedStore prechased;
  /// The plan table every run on this scenario shares.
  std::shared_ptr<plan::PlanTable> plans =
      std::make_shared<plan::PlanTable>();

  /// Seals the universe, the instances and the prechased solutions.
  /// O(relations): no per-row work. Must happen-before concurrent runs.
  void Freeze();
};

/// Parses `dx_text` into a fresh Universe, chases every DxChasePairOk pair
/// into `prechased` under DxRunContext(scenario, engine), as a cold run
/// would, then freezes the result. Governed pairs are left out; any other
/// error, a parse error included, is returned unchanged. Snapshot writes
/// and loads both build this way.
Result<FrozenScenario> BuildFrozenScenario(std::string source_path,
                                           std::string dx_text,
                                           const EngineContext& engine);

/// The one serving function: mints a copy-on-write overlay over the
/// frozen universe, attaches the scenario's plan table and prechased
/// store, and runs RunDxCommand. Output is byte-identical to a cold run
/// of `command` on the same text, for every engine and shard width.
/// Thread-safe: any number of calls may run on one scenario at once.
Result<std::string> RunFrozenCommand(const FrozenScenario& frozen,
                                     const std::string& command,
                                     const DxDriverOptions& options = {},
                                     Status* governed = nullptr);

}  // namespace ocdx

#endif  // OCDX_EXEC_FROZEN_SCENARIO_H_
