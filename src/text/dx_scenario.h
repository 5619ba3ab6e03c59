// The parsed form of a `.dx` scenario file.
//
// A scenario bundles everything a data-exchange experiment needs —
// schemas, annotated mappings, instances and queries — as *named*
// declarations over one shared Universe, so a single file can hold
// several mappings side by side (the same rules under different
// annotations, or a composable sigma/delta pair) and every driver
// subcommand (text/dx_driver.h) can select its inputs by name.

#ifndef OCDX_TEXT_DX_SCENARIO_H_
#define OCDX_TEXT_DX_SCENARIO_H_

#include <string>
#include <utility>
#include <vector>

#include "base/instance.h"
#include "base/schema.h"
#include "logic/formula.h"
#include "mapping/mapping.h"

namespace ocdx {

/// `schema NAME { R(a, b); ... }`
struct DxSchemaDecl {
  std::string name;
  Schema schema;
};

/// `mapping NAME from SRC to TGT [default op, skolem] { rules }`
struct DxMappingDecl {
  std::string name;
  std::string from;  ///< Source schema name.
  std::string to;    ///< Target schema name.
  Ann default_ann = Ann::kClosed;
  bool skolem = false;  ///< Function terms allowed (an SkSTD mapping).
  Mapping mapping;
  /// Source position of the declaration (1-based; 0 when synthesized).
  /// The driver uses it to position budget-exhaustion diagnostics.
  uint32_t line = 0;
  uint32_t col = 0;
};

/// `instance NAME over SCHEMA { R('a', _n1); ... }`
///
/// `plain` holds every fact's values: the whole instance, or rel(T) of
/// an annotated one. Facts whose arguments carry `^op` / `^cl`
/// annotations — or bare-annotation empty markers `R(^cl, ^op)` — make
/// the instance *annotated*; `annotated` below is then true and
/// `annotated_instance` holds the facts with their annotations (a
/// position without one is `cl`). An unannotated instance is held once,
/// in `plain`, and its `annotated_instance` is empty.
struct DxInstanceDecl {
  std::string name;
  std::string over;  ///< Schema name.
  bool annotated = false;
  Instance plain;
  AnnotatedInstance annotated_instance;
};

/// `query NAME(x, y) 'description' { formula }`
///
/// `vars` is the declared free-variable order (the certain-answer column
/// order); an empty list declares a boolean query.
struct DxQuery {
  std::string name;
  std::vector<std::string> vars;
  std::string description;
  FormulaPtr formula;
  /// Source position of the declaration (1-based; 0 when synthesized).
  /// The driver uses it to position diagnostics, e.g. the guard-depth
  /// fallback note.
  uint32_t line = 0;
  uint32_t col = 0;
};

/// One parsed `.dx` file. Values (constants and nulls) are interned in
/// the externally owned Universe passed to the parser.
struct DxScenario {
  std::string name;  ///< From `scenario 'name';`, or empty.
  /// From the optional `budget { key = INT; ... }` block: resource caps
  /// the scenario asks to run under, in declaration order. Keys are the
  /// Budget field names accepted by SetBudgetField (logic/budget.h); the
  /// driver folds them into the engine budget via Budget::Tighten, so a
  /// scenario can only lower caps the caller already imposed.
  std::vector<std::pair<std::string, uint64_t>> budget_settings;
  std::vector<DxSchemaDecl> schemas;
  std::vector<DxMappingDecl> mappings;
  std::vector<DxInstanceDecl> instances;
  std::vector<DxQuery> queries;

  const DxSchemaDecl* FindSchema(const std::string& name) const;
  const DxMappingDecl* FindMapping(const std::string& name) const;
  const DxInstanceDecl* FindInstance(const std::string& name) const;
  const DxQuery* FindQuery(const std::string& name) const;
};

}  // namespace ocdx

#endif  // OCDX_TEXT_DX_SCENARIO_H_
