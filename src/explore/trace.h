// udring/explore/trace.h
//
// ScheduleTrace: a serialized schedule. The simulator is deterministic given
// the initial configuration and the scheduler's pick sequence, so one small
// text artifact — the instance coordinates plus the list of choices —
// reproduces any execution byte-identically. Choices are recorded as the
// picked agent's index within the *sorted* enabled set; that encoding is
// what makes delta-debugging work: a trace with entries deleted is still a
// meaningful schedule (the replay scheduler reduces each entry modulo the
// current enabled count and pads an exhausted trace with index 0).
//
// The text format is line-oriented, versioned, and diff-friendly; failing
// fuzz schedules are shrunk to traces of this form and uploaded as CI
// artifacts, and tests/schedules/ keeps a regression corpus of them. The
// recorded event-log digest makes replay self-checking: a replay that does
// not reproduce the digest is flagged, not silently accepted.
//
// The `fault-*` keys are the text form of one sim::FaultPlan (the `faults`
// member). `fault-non-fifo` and `fault-min-phase` parse into
// FaultPlan::non_fifo / non_fifo_min_phase and are emitted first, in their
// historical position, so every corpus trace — the pre-fault ones included —
// parses and re-serializes byte-identically.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.h"
#include "sim/fault.h"

namespace udring::explore {

struct ScheduleTrace {
  static constexpr std::string_view kMagic = "udring-trace";
  static constexpr std::size_t kVersion = 1;

  core::Algorithm algorithm = core::Algorithm::KnownKFull;
  std::size_t node_count = 0;         ///< virtual ring size for embedded runs
  std::vector<std::size_t> homes;     ///< initial configuration, verbatim
  /// Provenance of the instance's topology ("ring", "euler-tree",
  /// "euler-graph", …). Informational: execution depends only on the
  /// virtual ring size, so every trace replays stand-alone on the plain
  /// ring of node_count regardless of where its instance came from.
  std::string topology = "ring";
  /// Which goal the execution was judged against (and, for gather, the
  /// group size g). Unlike `topology` this is *not* merely provenance:
  /// replay rebuilds the goal oracle from it, so a recorded gather/disperse
  /// failure replays against the same oracle. Auto (the default) is the
  /// algorithm's natural problem and is omitted from the text form — the
  /// pre-problem corpus parses and re-serializes byte-identically.
  core::ProblemSpec problem;
  std::string generator;              ///< scheduler that produced it (informational)
  std::uint64_t seed = 0;             ///< generator seed (informational)
  /// Fault schedule (sim/fault.h) the execution ran under — the test-only
  /// non-FIFO relaxation included — handed to SimOptions::faults on replay.
  /// Rewiring *stride* draws are not stored here — they interleave into
  /// `choices` via Scheduler::pick_index, which is what makes a faulty trace
  /// shrink and replay like any other.
  sim::FaultPlan faults;
  /// Per-run action cap the execution was recorded under; 0 = the
  /// simulator's auto limit. Serialized (when nonzero) so cap-sensitive
  /// outcomes — "action limit reached" above all — replay identically
  /// through `udring_fuzz --replay` without the caller re-supplying the cap.
  std::size_t max_actions = 0;
  std::vector<std::uint32_t> choices; ///< index into the sorted enabled set
  std::uint64_t expected_digest = 0;  ///< event-log digest the replay must match
  std::string note;                   ///< free text (e.g. the failure reason)

  /// Serializes to the versioned text format (ends with "end\n").
  [[nodiscard]] std::string to_text() const;

  /// Parses a trace produced by to_text(). Unknown keys are rejected, as is
  /// a missing header or agent/node inconsistency (homes must be distinct
  /// and in range). Throws std::invalid_argument with a line diagnostic.
  [[nodiscard]] static ScheduleTrace parse(std::string_view text);
};

/// Inverse of core::to_string(Algorithm). Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] core::Algorithm algorithm_from_name(std::string_view name);

/// Every core::Algorithm value (for sweeps and name lookup).
[[nodiscard]] const std::vector<core::Algorithm>& all_algorithms();

}  // namespace udring::explore
