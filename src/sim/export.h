// udring/sim/export.h
//
// Machine-readable export of simulation results: snapshots, metrics and run
// reports as JSON. Lets external tooling (plotting scripts, notebooks)
// consume udring experiments without parsing console tables. Hand-rolled
// writer — the schema is flat and the library stays dependency-free.

#pragma once

#include <iosfwd>
#include <string>

#include "sim/execution_state.h"
#include "sim/metrics.h"

namespace udring::sim {

/// Writes a snapshot as JSON:
/// {"node_count":N,"tokens":[...],"agents":[{"id":..,"status":"..",
///  "node":..,"moves":..,"phase":..,"mailbox":..,"state_hash":".."}],
///  "queues":[[...],...]}
void write_json(std::ostream& out, const Snapshot& snapshot);

/// Writes metrics as JSON:
/// {"total_moves":..,"total_actions":..,"makespan":..,"max_memory_bits":..,
///  "moves_by_phase":[...],"agents":[{"moves":..,"actions":..,
///  "causal_time":..,"peak_memory_bits":..}]}
void write_json(std::ostream& out, const Metrics& metrics);

/// One-call export of a finished simulator (snapshot + metrics + verdicts).
void write_json(std::ostream& out, const ExecutionState& simulator);

/// Convenience: JSON string forms.
[[nodiscard]] std::string to_json(const Snapshot& snapshot);
[[nodiscard]] std::string to_json(const Metrics& metrics);
[[nodiscard]] std::string to_json(const ExecutionState& simulator);

}  // namespace udring::sim
