#include "exec/frozen_scenario.h"

#include <utility>

#include "chase/canonical.h"
#include "logic/budget.h"
#include "obs/trace.h"
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

Result<FrozenScenario> BuildFrozenScenario(std::string source_path,
                                           std::string dx_text,
                                           const EngineContext& engine) {
  FrozenScenario frozen;
  frozen.source_path = std::move(source_path);
  frozen.dx_text = std::move(dx_text);
  frozen.universe = std::make_unique<Universe>();
  {
    obs::ScopedSpan span(engine, obs::kPhaseParse);
    OCDX_ASSIGN_OR_RETURN(
        frozen.scenario,
        ParseDxScenario(frozen.dx_text, frozen.universe.get()));
  }
  EngineContext ctx = engine;
  ctx.plans = frozen.plans;
  ctx = DxRunContext(frozen.scenario, ctx);
  for (const DxMappingDecl& m : frozen.scenario.mappings) {
    for (const DxInstanceDecl& inst : frozen.scenario.instances) {
      if (!DxChasePairOk(m, inst)) continue;
      Result<CanonicalSolution> chased =
          Chase(m.mapping, inst.plain, frozen.universe.get(), ctx);
      if (!chased.ok()) {
        if (IsBudgetStatusCode(chased.status().code())) continue;
        return chased.status();
      }
      frozen.prechased.Put(m.name, inst.name, std::move(chased).value());
    }
  }
  frozen.Freeze();
  return frozen;
}

Result<std::string> RunFrozenCommand(const FrozenScenario& frozen,
                                     const std::string& command,
                                     const DxDriverOptions& options,
                                     Status* governed) {
  // Chases of pairs the store lacks and member enumeration mint into the
  // universe they are given; the overlay keeps those mints private to
  // this run and the frozen scenario reusable. Nothing is copied.
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
