// Snapshots: a `.dx` scenario saved for warm starts.
//
// A snapshot file is the scenario text and its source path behind a
// checksummed header (snap/format.h). `ocdx snapshot run` and `ocdxd
// --preload` load one into a FrozenScenario (exec/frozen_scenario.h), the
// same build a cold run makes: the text is parsed and every chaseable
// pair is chased under the loader's engine and budgets. Warm runs then
// take the overlay → RunDxCommand path and borrow the chased solutions,
// with output byte-identical to a cold run.
//
// Trust model: snapshot bytes are untrusted. The loader checks magic,
// version, lengths and checksum, and every failure there is a kDataLoss
// error with stable text; the text itself goes through the `.dx` parser,
// which reports a positioned error like for any other input. A corrupted
// snapshot never crashes the loader (tests/snap_fuzz_test.cc, under
// ASan).

#ifndef OCDX_SNAP_SNAPSHOT_H_
#define OCDX_SNAP_SNAPSHOT_H_

#include <memory>
#include <span>
#include <string>
#include <utility>

#include "exec/frozen_scenario.h"
#include "logic/engine_context.h"
#include "text/dx_driver.h"
#include "util/status.h"

namespace ocdx {
namespace snap {

/// A loaded snapshot: a FrozenScenario whose `source_path` is the `.dx`
/// path recorded at write time and whose `prechased` store holds one
/// canonical solution per DxChasePairOk pair whose chase completed within
/// budget at build time. Governed pairs are absent, so the warm driver
/// re-chases them and reproduces their diagnostics exactly.
///
/// BuildSnapshotBundle and ParseSnapshot both return the bundle frozen
/// (FrozenScenario::Freeze): universe, instances and prechased solutions
/// are a read-only base that any number of threads may serve at once,
/// every run minting through its own overlay and sharing the bundle's
/// plan table. ocdxd --preload keeps one bundle per snapshot for the
/// server's lifetime.
using SnapshotBundle = FrozenScenario;

/// BuildFrozenScenario: a stored solution is exactly what a cold run would
/// compute, and governed pairs are left out.
inline Result<SnapshotBundle> BuildSnapshotBundle(
    std::string source_path, std::string dx_text,
    const EngineContext& engine = EngineContext()) {
  return BuildFrozenScenario(std::move(source_path), std::move(dx_text),
                             engine);
}

/// Serializes the bundle's source path and text to snapshot bytes
/// (format v2, snap/format.h). Probes fault site "snap-write" once.
Result<std::string> SerializeSnapshot(const SnapshotBundle& bundle);

/// Checks the header, the lengths and the checksum (kDataLoss on any
/// mismatch), probes fault site "snap-read" once, then returns
/// BuildFrozenScenario(path, text, engine): a parse or chase error comes
/// back unchanged.
Result<SnapshotBundle> ParseSnapshot(
    std::span<const uint8_t> bytes,
    const EngineContext& engine = EngineContext());

/// Convenience file wrappers. WriteSnapshotFile reports write failures as
/// kNotFound ("cannot write '<path>'"); LoadSnapshotFile as kNotFound
/// ("cannot read '<path>'").
Status WriteSnapshotFile(const SnapshotBundle& bundle,
                         const std::string& path);
Result<SnapshotBundle> LoadSnapshotFile(
    const std::string& path, const EngineContext& engine = EngineContext());

/// Human-readable summary for `ocdx snapshot read`: scenario name,
/// universe totals, stored pairs with row/trigger counts. Deterministic.
std::string DescribeSnapshot(const SnapshotBundle& bundle);

/// Runs one driver command warm: RunFrozenCommand on the bundle — a
/// private overlay of the frozen universe, the prechased store and the
/// bundle's plan table, so repeated runs compile each query once per
/// bundle lifetime. Byte-identical to RunDxCommand over a fresh parse,
/// both engines, any shard width.
inline Result<std::string> RunSnapshotCommand(
    const SnapshotBundle& bundle, const std::string& command,
    const DxDriverOptions& options = {}, Status* governed = nullptr) {
  return RunFrozenCommand(bundle, command, options, governed);
}

}  // namespace snap
}  // namespace ocdx

#endif  // OCDX_SNAP_SNAPSHOT_H_
