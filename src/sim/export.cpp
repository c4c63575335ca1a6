#include "sim/export.h"

#include <ostream>
#include <sstream>

namespace udring::sim {

namespace {

template <typename T>
void write_array(std::ostream& out, const std::vector<T>& values) {
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ',';
    out << values[i];
  }
  out << ']';
}

}  // namespace

void write_json(std::ostream& out, const Snapshot& snapshot) {
  out << "{\"node_count\":" << snapshot.node_count << ",\"tokens\":";
  write_array(out, snapshot.tokens);
  out << ",\"agents\":[";
  for (std::size_t i = 0; i < snapshot.agents.size(); ++i) {
    const AgentSnap& agent = snapshot.agents[i];
    if (i > 0) out << ',';
    out << "{\"id\":" << agent.id << ",\"status\":\"" << to_string(agent.status)
        << "\",\"node\":" << agent.node << ",\"moves\":" << agent.moves
        << ",\"phase\":" << agent.phase << ",\"mailbox\":" << agent.mailbox_size
        << ",\"state_hash\":\"" << std::hex << agent.state_hash << std::dec
        << "\"}";
  }
  out << "],\"queues\":[";
  for (std::size_t v = 0; v < snapshot.queues.size(); ++v) {
    if (v > 0) out << ',';
    write_array(out, snapshot.queues[v]);
  }
  out << "]}";
}

void write_json(std::ostream& out, const Metrics& metrics) {
  out << "{\"total_moves\":" << metrics.total_moves()
      << ",\"total_actions\":" << metrics.total_actions()
      << ",\"makespan\":" << metrics.makespan()
      << ",\"max_memory_bits\":" << metrics.max_memory_bits()
      << ",\"moves_by_phase\":";
  write_array(out, metrics.moves_by_phase());
  out << ",\"agents\":[";
  for (std::size_t id = 0; id < metrics.agent_count(); ++id) {
    const AgentMetrics& agent = metrics.agent(id);
    if (id > 0) out << ',';
    out << "{\"moves\":" << agent.moves << ",\"actions\":" << agent.actions
        << ",\"causal_time\":" << agent.causal_time
        << ",\"peak_memory_bits\":" << agent.peak_memory_bits << '}';
  }
  out << "]}";
}

void write_json(std::ostream& out, const ExecutionState& simulator) {
  out << "{\"quiescent\":" << (simulator.quiescent() ? "true" : "false")
      << ",\"all_halted\":" << (simulator.all_halted() ? "true" : "false")
      << ",\"all_suspended\":" << (simulator.all_suspended() ? "true" : "false")
      << ",\"snapshot\":";
  write_json(out, simulator.snapshot());
  out << ",\"metrics\":";
  write_json(out, simulator.metrics());
  out << '}';
}

std::string to_json(const Snapshot& snapshot) {
  std::ostringstream out;
  write_json(out, snapshot);
  return out.str();
}

std::string to_json(const Metrics& metrics) {
  std::ostringstream out;
  write_json(out, metrics);
  return out.str();
}

std::string to_json(const ExecutionState& simulator) {
  std::ostringstream out;
  write_json(out, simulator);
  return out.str();
}

}  // namespace udring::sim
