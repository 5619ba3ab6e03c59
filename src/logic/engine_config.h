// Selection of the query/homomorphism evaluation engine.
//
// The engine mode lives in an EngineContext (logic/engine_context.h)
// that is threaded explicitly through every evaluation path; jobs never
// consult process state, which is what makes the core reentrant (see
// README.md "Concurrency model"). This header holds the mode enum and
// the one parser of its `--engine=` spelling.

#ifndef OCDX_LOGIC_ENGINE_CONFIG_H_
#define OCDX_LOGIC_ENGINE_CONFIG_H_

#include <string_view>

namespace ocdx {

enum class JoinEngineMode {
  kIndexed,  ///< Slot-compiled plans over lazy hash indexes (default).
  kGeneric,  ///< No CQ fast path at all: active-domain enumeration, the
             ///< literal semantics kept as the differential oracle.
};

/// Maps an `--engine=` value ("indexed" or "generic", exact spelling) to
/// its mode. Returns false, leaving `*mode` untouched, for anything else.
inline bool ParseJoinEngineMode(std::string_view name, JoinEngineMode* mode) {
  if (name == "indexed") {
    *mode = JoinEngineMode::kIndexed;
  } else if (name == "generic") {
    *mode = JoinEngineMode::kGeneric;
  } else {
    return false;
  }
  return true;
}

}  // namespace ocdx

#endif  // OCDX_LOGIC_ENGINE_CONFIG_H_
