// Rendering EngineStats for humans and machines.
//
// The rendering table in report.cc is generated from the EngineStats field
// list (logic/engine_stats.def), so every counter and timer that exists is
// also visible in --stats output, --stats-json files, the bench records
// and the ocdxd `stats` aggregate, in field-list order.

#ifndef OCDX_OBS_REPORT_H_
#define OCDX_OBS_REPORT_H_

#include <string>

#include "logic/engine_context.h"

namespace ocdx {
namespace obs {

/// Human-readable table, one field per line, every field always printed
/// (stderr material — never mixed into canonical stdout).
std::string RenderStatsTable(const EngineStats& stats);

/// Compact JSON object {"cq_plans":N,...} with every field in field-list
/// order, raw u64 values. Used by --stats-json, the bench records and
/// the ocdxd `stats` aggregate.
std::string RenderStatsJson(const EngineStats& stats);

}  // namespace obs
}  // namespace ocdx

#endif  // OCDX_OBS_REPORT_H_
