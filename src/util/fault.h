// Deterministic fault injection for robustness testing.
//
// A probe is a named site on an evaluation path (the chase loop, plan
// binding, member enumeration) that normally does nothing. When a fault
// is installed — from the OCDX_FAULT=<site>:<n> environment variable or
// programmatically by a test — the probe at the matching site returns a
// governed ResourceExhausted from the n-th hit onward, exercising the
// exact error-propagation path a real budget trip takes, at a position
// the test controls.
//
// Installed faults return kResourceExhausted (not kInternal) by design:
// the budget-fuzz harness asserts that every corpus outcome is one of
// OK / ResourceExhausted / DeadlineExceeded / Cancelled, and an injected
// fault must stay inside that contract.
//
// Installation is process-global and must happen before worker threads
// start (both tool mains install from the environment first thing; tests
// install and Clear around single-threaded runs). The hit counter is
// atomic, so concurrent probing is safe — but which job observes the
// n-th hit under -j > 1 is scheduling-dependent, so deterministic tests
// run faults single-threaded.

#ifndef OCDX_UTIL_FAULT_H_
#define OCDX_UTIL_FAULT_H_

#include <string_view>

#include "util/status.h"

namespace ocdx {
namespace fault {

/// Known probe sites, for reference (probes accept any name):
///   "chase"      once per STD in Chase, before firing its witnesses;
///   "plan-bind"  once per Evaluator query dispatch, before the binding
///                is refreshed;
///   "enum"       once per valuation in RepAMemberEnumerator (certain
///                answers and every InComposition path);
///   "snap-write" once per file in snap::SerializeSnapshot;
///   "snap-read"  once per file in snap::ParseSnapshot / LoadSnapshotFile,
///                after the header checks and before the build.

/// Parses OCDX_FAULT="<site>:<n>" and installs the fault (fires from the
/// n-th probe hit onward; n >= 1). Malformed values are ignored. No-op
/// when the variable is unset.
void InstallFromEnv();

/// Installs a fault programmatically (tests).
void InstallForTest(std::string_view site, uint64_t nth_hit);

/// Removes any installed fault and resets the hit counter.
void Clear();

/// True iff a fault is installed (cheap; callers may skip probe wiring).
bool Armed();

/// Counts a hit at `site`; returns ResourceExhausted when the installed
/// fault targets this site and the hit count has reached its threshold.
/// OK (and near-free) when no fault is armed.
Status Probe(std::string_view site);

}  // namespace fault
}  // namespace ocdx

#endif  // OCDX_UTIL_FAULT_H_
