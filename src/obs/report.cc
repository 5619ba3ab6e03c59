#include "obs/report.h"

#include <cinttypes>
#include <cstdio>

namespace ocdx {
namespace obs {

namespace {

// One StatsField per EngineStats field, generated from the same field
// list as the struct itself (logic/engine_stats.def).
struct StatsField {
  const char* name;
  uint64_t EngineStats::*field;
  bool is_ns;  // A nanosecond timer: the table adds a human ms column.
};

constexpr StatsField kFields[] = {
#define OCDX_ENGINE_STAT(name, is_ns) {#name, &EngineStats::name, is_ns},
#include "logic/engine_stats.def"
#undef OCDX_ENGINE_STAT
};

}  // namespace

std::string RenderStatsTable(const EngineStats& stats) {
  std::string out = "-- engine stats --\n";
  char line[160];
  for (const StatsField& f : kFields) {
    uint64_t value = stats.*(f.field);
    if (f.is_ns) {
      std::snprintf(line, sizeof(line), "%-22s %14" PRIu64 "  (%.3f ms)\n",
                    f.name, value, static_cast<double>(value) / 1e6);
    } else {
      std::snprintf(line, sizeof(line), "%-22s %14" PRIu64 "\n", f.name,
                    value);
    }
    out += line;
  }
  return out;
}

std::string RenderStatsJson(const EngineStats& stats) {
  std::string out = "{";
  char item[96];
  bool first = true;
  for (const StatsField& f : kFields) {
    std::snprintf(item, sizeof(item), "%s\"%s\":%" PRIu64, first ? "" : ",",
                  f.name, stats.*(f.field));
    out += item;
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace ocdx
