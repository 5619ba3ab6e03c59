// Zero-cost-when-detached phase tracing (ROADMAP item 3, metrics half).
//
// The engine's phase boundaries — parse, chase, plan compile/bind,
// member enumeration and its shard tasks, the NP searches, snapshot
// write/load, canonical rendering, whole job lifecycles — are bracketed
// by RAII ScopedSpan objects. A span reads the monotonic clock and
// records anything ONLY when the job's EngineContext has a stats sink or
// a trace sink attached; detached, construction and destruction are two
// null checks, so instrumented code paths cost nothing in production
// runs (pinned by the bench --check gate).
//
// When attached, a span does two independent things:
//
//   - accumulates its duration into the phase's `*_ns` field on
//     EngineStats (logic/engine_context.h), merged across jobs and
//     shards by operator+= like every counter;
//   - appends a TraceEvent to the job's TraceSink, from which
//     RenderChromeTrace emits Chrome trace-event JSON (openable in
//     about://tracing or Perfetto).
//
// Ownership contract (same as EngineStats): one sink per job, never
// shared across threads, no locks anywhere. Shard fan-out gives each
// worker shard its own TraceSink with a distinct `track` and absorbs
// them into the parent sink in shard order after the pool drains, so
// trace structure is deterministic for every worker count.

#ifndef OCDX_OBS_TRACE_H_
#define OCDX_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "logic/engine_context.h"

namespace ocdx {
namespace obs {

/// Monotonic clock, nanoseconds since an arbitrary epoch.
uint64_t NowNs();

/// A phase identity: the span name that appears in traces and reports,
/// tied to the EngineStats field its durations accumulate into. The
/// constants below are the whole taxonomy — instrumentation sites refer
/// to these, never to ad-hoc strings.
struct PhaseDef {
  const char* name;
  uint64_t EngineStats::*ns_field;
};

inline constexpr PhaseDef kPhaseParse{"dx-parse", &EngineStats::parse_ns};
inline constexpr PhaseDef kPhaseChase{"chase", &EngineStats::chase_ns};
inline constexpr PhaseDef kPhasePlanCompile{"plan-compile",
                                            &EngineStats::plan_compile_ns};
inline constexpr PhaseDef kPhasePlanBind{"plan-bind",
                                         &EngineStats::plan_bind_ns};
inline constexpr PhaseDef kPhasePlanExec{"plan-exec",
                                         &EngineStats::plan_exec_ns};
inline constexpr PhaseDef kPhaseMemberEnum{"member-enum",
                                           &EngineStats::member_enum_ns};
inline constexpr PhaseDef kPhaseEnumShard{"enum-shard",
                                          &EngineStats::enum_shard_ns};
inline constexpr PhaseDef kPhaseHomSearch{"hom-search",
                                          &EngineStats::hom_search_ns};
inline constexpr PhaseDef kPhaseRepASearch{"repa-search",
                                           &EngineStats::repa_search_ns};
inline constexpr PhaseDef kPhaseSnapWrite{"snap-write",
                                          &EngineStats::snap_write_ns};
inline constexpr PhaseDef kPhaseSnapLoad{"snap-load",
                                         &EngineStats::snap_load_ns};
inline constexpr PhaseDef kPhaseJob{"job", &EngineStats::job_ns};
inline constexpr PhaseDef kPhaseFanoutSetup{"fanout-setup",
                                            &EngineStats::fanout_setup_ns};
inline constexpr PhaseDef kPhaseRender{"render", &EngineStats::render_ns};

/// One completed span. `track` separates concurrent timelines inside a
/// job (0 = the job's own thread, s = shard s's worker); `depth` is the
/// nesting level at entry, so structure is recoverable without
/// timestamps.
struct TraceEvent {
  const char* name;    ///< Phase name (points at a PhaseDef literal).
  uint64_t start_ns;   ///< NowNs() at span entry.
  uint64_t dur_ns;     ///< Span duration.
  uint32_t track;      ///< Timeline within the job (0 = job thread).
  uint32_t depth;      ///< Nesting depth at entry on that track.
};

/// Per-job (or per-shard) span buffer. Plain unsynchronized state:
/// exactly one thread appends to a sink at a time. Events are recorded
/// at span *exit* (RAII destruction order), which is deterministic for
/// a deterministic engine run.
class TraceSink {
 public:
  /// Buffer cap: past this the sink counts drops instead of growing
  /// without bound. Never silently truncates — dropped() reports it and
  /// the Chrome render embeds the count.
  static constexpr size_t kMaxEvents = size_t{1} << 17;

  explicit TraceSink(uint32_t track = 0) : track_(track) {}

  /// Span entry: returns the depth this span nests at.
  uint32_t Enter() { return depth_++; }

  /// Span exit: records the completed event (or counts a drop).
  void Exit(const char* name, uint64_t start_ns, uint64_t end_ns,
            uint32_t depth);

  /// Appends another sink's events (a shard's, a batch job's) after its
  /// owning thread is done with it. Caller fixes ordering by absorbing
  /// in shard/job order.
  void Absorb(const TraceSink& other);

  const std::vector<TraceEvent>& events() const { return events_; }
  uint64_t dropped() const { return dropped_; }
  uint32_t track() const { return track_; }

  /// The span tree minus timestamps: one "track/depth name" line per
  /// event in recorded order. Two runs of the same deterministic job
  /// produce identical structure lines (pinned by tests/obs_test.cc).
  std::vector<std::string> StructureLines() const;

 private:
  std::vector<TraceEvent> events_;
  uint32_t track_ = 0;
  uint32_t depth_ = 0;
  uint64_t dropped_ = 0;
};

/// RAII phase span. Reads the clock only if `stats` or `sink` is
/// attached; completely inert otherwise. Not copyable or movable — it
/// brackets one lexical scope on one thread.
class ScopedSpan {
 public:
  /// The common form: attach to whatever the job's context carries.
  ScopedSpan(const EngineContext& ctx, const PhaseDef& phase)
      : ScopedSpan(ctx.stats, ctx.trace, phase) {}

  /// Explicit sinks, for sites without a context in scope (snapshot
  /// file I/O in the CLI).
  ScopedSpan(EngineStats* stats, TraceSink* sink, const PhaseDef& phase);

  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  EngineStats* stats_;
  TraceSink* sink_;
  PhaseDef phase_;
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
};

/// One job's contribution to a merged trace file.
struct TraceJob {
  std::string name;       ///< Thread label ("job-3 tests/corpus/x.dx").
  const TraceSink* sink;  ///< The job's events (shards already absorbed).
};

/// Chrome trace-event JSON ("X" complete events plus "M" thread_name
/// metadata) for a set of jobs. Each job gets a stable tid block —
/// job i, track t maps to tid i*kTrackStride + t — so a batch trace
/// opens with one named row per job (plus one per shard that traced).
/// Timestamps are microseconds relative to the earliest event.
std::string RenderChromeTrace(const std::vector<TraceJob>& jobs);

/// Tracks per job in the tid space: supports the full shard range
/// (--shards is capped at 64) plus the job's own track 0.
inline constexpr uint32_t kTrackStride = 65;

}  // namespace obs
}  // namespace ocdx

#endif  // OCDX_OBS_TRACE_H_
