// udring/sim/instance.h
//
// Instance — the *immutable* half of a run.
//
// A run is Instance × ExecutionState: the Instance holds everything that
// never changes while the execution advances (the topology, the initial
// home configuration, the program factory, and the resolved options), and
// an ExecutionState is the mutable arena that executes it. One Instance can
// be executed any number of times, concurrently, by different
// ExecutionStates — it is never written after construction — which is what
// makes pooled batch drivers (core::run_many, exp::run_campaign) safe and
// allocation-free in steady state.
//
// Lifetime contract: the caller owns the Instance. An ExecutionState holds
// a plain pointer to the Instance it was last constructed or reset() onto,
// so the Instance must stay alive until the state is reset onto another one
// (or destroyed). Nothing else owns an Instance.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/agent.h"
#include "sim/fault.h"
#include "sim/topology.h"
#include "sim/types.h"

namespace udring::sim {

struct SimOptions {
  /// Record an Event for every action (tests/examples; off for sweeps).
  bool record_events = false;
  /// Hard stop after this many atomic actions; 0 = auto (generous multiple
  /// of k·n). Hitting the limit marks the run ActionLimit — a livelock or a
  /// broken algorithm, never a legitimate outcome for this paper's
  /// algorithms.
  std::size_t max_actions = 0;
  /// Structured fault schedule (crash-stop faults, link faults including
  /// the test-only non-FIFO relaxation, dynamic-ring rewiring — see
  /// sim/fault.h). Empty (default) = the fault-free paper model. The
  /// Instance constructor normalizes the plan (sorting its event lists) and
  /// validates it against the instance's dimensions.
  FaultPlan faults;
};

/// Creates the program (algorithm instance) for agent `id`. Algorithms are
/// anonymous and must ignore `id`; it exists so tests can plant heterogeneous
/// programs.
using ProgramFactory = std::function<std::unique_ptr<AgentProgram>(AgentId)>;

class Instance {
 public:
  /// Validates and freezes one runnable configuration: `homes` must be
  /// distinct nodes of the topology; agent i starts in transit to homes[i]
  /// (the §2.1 incoming-buffer rule). `options.max_actions == 0` is
  /// resolved here to the generous 64·n·k + 4096 default, so every
  /// execution of this Instance sees the same limit.
  Instance(Topology topology, std::vector<NodeId> homes,
           ProgramFactory factory, SimOptions options = {});

  /// Ring convenience: Instance(Topology::ring(node_count), …).
  Instance(std::size_t node_count, std::vector<NodeId> homes,
           ProgramFactory factory, SimOptions options = {});

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return topology_.size(); }
  [[nodiscard]] const std::vector<NodeId>& homes() const noexcept { return homes_; }
  [[nodiscard]] std::size_t agent_count() const noexcept { return homes_.size(); }
  [[nodiscard]] const ProgramFactory& factory() const noexcept { return factory_; }
  [[nodiscard]] const SimOptions& options() const noexcept { return options_; }

 private:
  Topology topology_;
  std::vector<NodeId> homes_;
  ProgramFactory factory_;
  SimOptions options_;
};

}  // namespace udring::sim
