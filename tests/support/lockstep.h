// tests/support/lockstep.h
//
// Helpers for the Theorem-5 / Lemma-1 experiments: advance a simulator by
// whole synchronous rounds and compare "local configurations" of nodes
// between two executions.
//
// The paper's local configuration of node v is (state of v, states of all
// agents at v). At a synchronous round boundary, an agent that just moved
// sits in the link queue of its destination; we attribute it to that
// destination, which matches the paper's "agent at v" in the synchronous
// model (footnote 4: no in-transit agents in the synchronous execution).

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/execution_state.h"
#include "sim/scheduler.h"

namespace udring::test {

/// Executes one exact lockstep round via the public API: every agent enabled
/// at the round boundary acts once, in ascending id order (agents that
/// become enabled mid-round wait for the next round). Returns false when the
/// simulator was quiescent.
inline bool lockstep_round(sim::ExecutionState& simulator) {
  std::vector<sim::AgentId> enabled = simulator.enabled().list();
  if (enabled.empty()) return false;
  std::sort(enabled.begin(), enabled.end());
  for (const sim::AgentId id : enabled) {
    (void)simulator.step_agent(id);  // may have parked meanwhile; skip then
  }
  return true;
}

/// The observable local configuration of one node: token count plus the
/// sorted (status, phase, state-hash, moves) tuples of agents attributed to
/// it (staying there, or in transit to it).
struct LocalConfig {
  std::size_t tokens = 0;
  std::vector<std::tuple<sim::AgentStatus, std::size_t, std::uint64_t, std::size_t>>
      agents;

  friend bool operator==(const LocalConfig&, const LocalConfig&) = default;
};

inline std::vector<LocalConfig> local_configs(const sim::Snapshot& snapshot) {
  std::vector<LocalConfig> configs(snapshot.node_count);
  for (std::size_t v = 0; v < snapshot.node_count; ++v) {
    configs[v].tokens = snapshot.tokens[v];
  }
  for (const sim::AgentSnap& agent : snapshot.agents) {
    configs[agent.node].agents.emplace_back(agent.status, agent.phase,
                                            agent.state_hash, agent.moves);
  }
  for (auto& config : configs) {
    std::sort(config.agents.begin(), config.agents.end());
  }
  return configs;
}

}  // namespace udring::test
