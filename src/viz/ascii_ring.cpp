#include "viz/ascii_ring.h"

#include <algorithm>
#include <sstream>

#include "sim/checker.h"

namespace udring::viz {

namespace {

using sim::AgentStatus;

[[nodiscard]] char status_glyph(AgentStatus status) {
  switch (status) {
    case AgentStatus::InTransit: return '>';
    case AgentStatus::Staying: return 's';
    case AgentStatus::Waiting: return 'w';
    case AgentStatus::Suspended: return 'z';
    case AgentStatus::Halted: return 'h';
    case AgentStatus::Crashed: return 'x';
  }
  return '?';
}

}  // namespace

std::string render(const sim::Snapshot& snapshot, std::size_t columns) {
  columns = std::max<std::size_t>(columns, 1);
  std::ostringstream out;

  // Gather per-node agent labels.
  std::vector<std::string> labels(snapshot.node_count);
  for (const sim::AgentSnap& agent : snapshot.agents) {
    std::string& cell = labels[agent.node];
    if (!cell.empty()) cell += ',';
    cell += 'A' + std::to_string(agent.id);
    cell += status_glyph(agent.status);
  }

  for (std::size_t row_start = 0; row_start < snapshot.node_count;
       row_start += columns) {
    const std::size_t row_end =
        std::min(snapshot.node_count, row_start + columns);

    std::vector<std::size_t> width(row_end - row_start);
    for (std::size_t v = row_start; v < row_end; ++v) {
      width[v - row_start] =
          std::max<std::size_t>({std::to_string(v).size(),
                                 labels[v].empty() ? 1 : labels[v].size(), 1});
    }

    const auto pad = [](const std::string& s, std::size_t w) {
      return s + std::string(w > s.size() ? w - s.size() : 0, ' ');
    };

    out << "node  ";
    for (std::size_t v = row_start; v < row_end; ++v) {
      out << pad(std::to_string(v), width[v - row_start]) << ' ';
    }
    out << "\ntoken ";
    for (std::size_t v = row_start; v < row_end; ++v) {
      out << pad(snapshot.tokens[v] > 0 ? "*" : ".", width[v - row_start]) << ' ';
    }
    out << "\nagent ";
    for (std::size_t v = row_start; v < row_end; ++v) {
      out << pad(labels[v].empty() ? "." : labels[v], width[v - row_start]) << ' ';
    }
    out << "\n";
    if (row_end < snapshot.node_count) out << "\n";
  }
  return out.str();
}

std::string render(const sim::ExecutionState& simulator, std::size_t columns) {
  return render(simulator.snapshot(), columns);
}

std::string gap_summary(const sim::ExecutionState& simulator) {
  const std::vector<std::size_t> positions = simulator.staying_nodes();
  std::ostringstream out;
  if (positions.empty()) return "gaps: (no staying agents)";
  const auto gaps = sim::ring_gaps(positions, simulator.node_count());
  out << "gaps:";
  for (const std::size_t gap : gaps) out << ' ' << gap;
  const std::size_t n = simulator.node_count();
  const std::size_t k = positions.size();
  out << "  (floor=" << n / k << ", ceil=" << (n + k - 1) / k << ")";
  return out.str();
}

}  // namespace udring::viz
