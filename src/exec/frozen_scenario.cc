#include "exec/frozen_scenario.h"

#include <utility>

#include "text/dx_parser.h"

namespace ocdx {

void FrozenScenario::Freeze() {
  universe->Freeze();
  for (DxInstanceDecl& inst : scenario.instances) {
    inst.plain.Freeze();
    inst.annotated_instance.Freeze();
  }
  prechased.Freeze();
}

Result<FrozenScenario> ParseFrozenScenario(std::string source_path,
                                           std::string dx_text) {
  FrozenScenario frozen;
  frozen.source_path = std::move(source_path);
  frozen.dx_text = std::move(dx_text);
  frozen.universe = std::make_unique<Universe>();
  OCDX_ASSIGN_OR_RETURN(frozen.scenario,
                        ParseDxScenario(frozen.dx_text, frozen.universe.get()));
  frozen.Freeze();
  return frozen;
}

Result<std::string> RunFrozenCommand(const FrozenScenario& frozen,
                                     const std::string& command,
                                     const DxDriverOptions& options,
                                     Status* governed) {
  // The warm chase fallback and the member-enumeration loops mint into
  // the universe they are given; the overlay keeps those mints private
  // to this run and the frozen scenario reusable. Nothing is copied.
  std::unique_ptr<Universe> overlay = frozen.universe->NewOverlay();
  DxDriverOptions run = options;
  run.prechased = &frozen.prechased;
  run.engine.plans = frozen.plans;
  if (run.engine.stats != nullptr) {
    ++run.engine.stats->frozen_base_reuses;
    ++run.engine.stats->overlay_mints;
  }
  return RunDxCommand(frozen.scenario, command, overlay.get(), run, governed);
}

}  // namespace ocdx
