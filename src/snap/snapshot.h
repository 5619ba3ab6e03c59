// Persistent binary snapshots of chased `.dx` scenarios.
//
// A snapshot captures, in one relocatable binary file, everything a warm
// start needs: the scenario text, the Universe it was parsed into
// (constant table, justification arena, null registry) and the canonical
// solutions of every chaseable (mapping, instance) pair — so `ocdx
// snapshot run` and `ocdxd --preload` answer driver commands without
// re-parsing or re-chasing, with output byte-identical to a cold run.
// A bundle is a FrozenScenario (exec/frozen_scenario.h), built like a
// batch `all` file: warm runs take the same overlay → RunDxCommand path
// as every `ocdx batch` job, borrowing the stored solutions in place.
//
// Relocatability: rows, witnesses and null justifications are stored as
// *logical arena offsets* (base/arena.h ArenaRef, base/value.h
// WitnessRef), which Relation::LoadRows and Universe::LoadWitnessValues
// reconstitute verbatim — loading is bounds validation plus bulk copies,
// with no pointer fixup and no per-row hashing (relations defer their
// dedup tables until first mutation).
//
// Trust model: snapshot bytes are DATA, never trusted. The container
// verifies magic/version/endianness and a per-section checksum
// (snap/format.h); the decoders bound-check every read, validate every
// Value bit pattern and every offset against the stored totals, and
// reconcile the re-parsed scenario against the stored universe. Any
// mismatch is a positioned kDataLoss error — a corrupted snapshot must
// never crash the loader (pinned by tests/snap_fuzz_test.cc under ASan).

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

/// Everything a snapshot holds, live: a FrozenScenario whose
/// `source_path` is the `.dx` path recorded at write time and whose
/// `prechased` store holds one canonical solution per DxChasePairOk pair
/// whose chase completed within budget at build time. Governed pairs are
/// absent, so the warm driver re-chases them and reproduces their
/// diagnostics exactly.
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

/// Serializes the bundle to snapshot bytes (format v1, snap/format.h).
/// Probes fault site "snap-write" once per section.
Result<std::string> SerializeSnapshot(const SnapshotBundle& bundle);

/// Reconstitutes a bundle from snapshot bytes: container + checksum
/// validation, re-parse of the embedded text, reconciliation against the
/// stored universe, bulk row loads. Every failure is a positioned error
/// (kDataLoss for corruption). Probes fault site "snap-read" once per
/// section.
Result<SnapshotBundle> ParseSnapshot(std::span<const uint8_t> bytes);

/// Convenience file wrappers. WriteSnapshotFile reports write failures as
/// kNotFound ("cannot write '<path>'"); LoadSnapshotFile as kNotFound
/// ("cannot read '<path>'").
Status WriteSnapshotFile(const SnapshotBundle& bundle,
                         const std::string& path);
Result<SnapshotBundle> LoadSnapshotFile(const std::string& path);

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
