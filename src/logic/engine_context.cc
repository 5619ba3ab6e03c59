#include "logic/engine_context.h"

#include "plan/plan_table.h"

namespace ocdx {

EngineContext& EngineContext::EnsureCache() {
  if (plans == nullptr) plans = std::make_shared<plan::PlanTable>();
  return *this;
}

}  // namespace ocdx
