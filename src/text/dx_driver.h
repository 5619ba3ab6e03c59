// Subcommand driver over parsed `.dx` scenarios: the engine behind the
// `ocdx` CLI (tools/ocdx_cli.cc) and the golden-file corpus runner
// (tests/dx_golden_test.cc).
//
// Each command renders *canonical, diff-stable* text:
//   - relations print sorted by name, tuples in the byte order of their
//     rendered lines (text/canonical_render.h);
//   - chase nulls are renamed canonically by their justification
//     (std index, witness, existential variable) — names are `@1, @2, ...`
//     in justification order, independent of minting order, so kIndexed
//     and kGeneric engine runs produce byte-identical output;
//   - engine-dependent counters (members visited, probe counts) are
//     never printed.
//
// Commands:
//   classify    annotation/body/query classification and the paper's
//               complexity cells (always applicable);
//   chase       CSolA(S) for every (plain mapping, plain instance over its
//               source schema) pair;
//   certain     certain answers / boolean verdicts for every applicable
//               (mapping, instance, query) triple;
//   membership  solution-space checks T in [[S]]_{Sigma_alpha} for every
//               (mapping, source, ground target) triple, plus RepA checks
//               G in RepA(A) for annotated instances A against ground
//               instances G over the same schema;
//   compose     semantic composition membership for the first (or selected)
//               sigma/delta pair, plus the Lemma 5 syntactic composition;
//   all         every applicable command, concatenated under `== cmd ==`
//               headers (the golden-file format).

#ifndef OCDX_TEXT_DX_DRIVER_H_
#define OCDX_TEXT_DX_DRIVER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chase/canonical.h"
#include "logic/engine_context.h"
#include "text/dx_scenario.h"
#include "util/status.h"

namespace ocdx {

/// Pre-chased canonical solutions, keyed by (mapping name, instance name)
/// — a frozen scenario's (exec/frozen_scenario.h), that is a snapshot's.
/// A run borrows a stored solution in place and never copies it, so one
/// frozen store serves any number of concurrent runs, each minting
/// through its own overlay of the scenario's universe.
class PrechasedStore {
 public:
  void Put(std::string mapping, std::string instance, CanonicalSolution csol) {
    store_[{std::move(mapping), std::move(instance)}] = std::move(csol);
  }

  /// The stored solution for the pair, or nullptr. Pairs whose chase was
  /// governed (budget/deadline trip) at build time are simply absent — the
  /// driver falls back to a live chase and reports the trip as usual.
  const CanonicalSolution* Find(const std::string& mapping,
                                const std::string& instance) const {
    auto it = store_.find({mapping, instance});
    return it == store_.end() ? nullptr : &it->second;
  }

  size_t size() const { return store_.size(); }

  /// Freezes every stored solution's relations for concurrent readers.
  void Freeze() {
    for (auto& [key, csol] : store_) csol.annotated.Freeze();
  }

  const std::map<std::pair<std::string, std::string>, CanonicalSolution>&
  entries() const {
    return store_;
  }

 private:
  std::map<std::pair<std::string, std::string>, CanonicalSolution> store_;
};

/// True iff the driver's chase/certain/membership commands would chase
/// this (mapping, instance) pair: a plain (non-Skolemized) mapping and a
/// plain instance over its source schema. BuildFrozenScenario
/// (exec/frozen_scenario.h) pre-chases exactly these pairs.
bool DxChasePairOk(const DxMappingDecl& m, const DxInstanceDecl& i);

/// Optional by-name input selection; empty strings mean "use every
/// applicable combination" (chase/certain/membership) or "pick the first
/// structural match" (compose).
struct DxDriverOptions {
  std::string mapping;  ///< chase/certain/membership: restrict to this mapping.
  std::string sigma;    ///< compose: the first mapping.
  std::string delta;    ///< compose: the second mapping.
  std::string source;   ///< compose: source instance name.
  std::string target;   ///< compose: candidate target instance name.
  /// Engine configuration for every evaluation the command performs. The
  /// driver never reads the deprecated process-global mode: callers that
  /// want a non-default engine set it here (the CLI maps --engine to this
  /// field).
  EngineContext engine;
  /// Optional store of pre-chased canonical solutions (a frozen
  /// scenario's). Not owned; must outlive the command. A run borrows a
  /// stored pair's solution and chases, once per run, only the pairs the
  /// store lacks, so a partially populated store is fine.
  const PrechasedStore* prechased = nullptr;
};

/// Runs one command ("chase", "certain", "classify", "membership",
/// "compose" or "all") and returns its canonical text. Fails on unknown
/// commands, on selection names that do not resolve, and on commands with
/// no applicable inputs.
///
/// A run reads one canonical solution per (mapping, instance) pair in
/// every section (Corollary 2): the stored one, or one chased at first use.
///
/// Resource governance (logic/budget.h): the run's engine context is
/// DxRunContext's. A budget/deadline/cancellation trip inside one
/// evaluation is a *result*, not a failure: it renders as a positioned
/// `error ...` line in the returned text (deterministic for the
/// count-based caps, so batch byte-identity holds), the remaining inputs
/// still run, and the command returns OK. When `governed` is non-null the
/// first such trip is also stored there, so callers (CLI exit codes, the
/// batch summary) can distinguish a governed run without re-parsing the
/// text. Other errors abort the command (compose renders them inline).
Result<std::string> RunDxCommand(const DxScenario& scenario,
                                 const std::string& command,
                                 Universe* universe,
                                 const DxDriverOptions& options = {},
                                 Status* governed = nullptr);

/// The context a run of `scenario` evaluates under: `engine` with a plan
/// table attached (unless it has one), the scenario's `budget { ... }`
/// block folded in (it only tightens) and the deadline, if any, armed.
EngineContext DxRunContext(const DxScenario& scenario,
                           const EngineContext& engine);

/// The commands (other than "all") that have at least one applicable
/// input combination in this scenario, in canonical order.
std::vector<std::string> ApplicableDxCommands(const DxScenario& scenario);

}  // namespace ocdx

#endif  // OCDX_TEXT_DX_DRIVER_H_
