// network_patrol — the paper's first motivating scenario (§1.1).
//
// Agents carry maintenance services (software updates, health checks) and
// patrol a ring network. If agents are bunched up, some nodes wait a long
// time between visits; deployed uniformly, every node is serviced every
// ~n/k steps. This example:
//
//   1. places k service agents on random nodes of an n-ring,
//   2. runs Algorithms 2+3 (O(log n) memory — realistic for tiny agents)
//      to spread them uniformly,
//   3. then simulates a patrol epoch and compares worst-case/average service
//      staleness before vs after deployment.
//
//   ./network_patrol --n=48 --k=6 --seed=3

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "config/generators.h"
#include "core/runner.h"
#include "sim/checker.h"
#include "util/cli.h"
#include "util/table.h"
#include "viz/ascii_ring.h"

namespace {

// In a unidirectional patrol, node v is next serviced by the nearest agent
// *behind* it; the worst node's wait is the largest inter-agent gap. Compute
// staleness stats from agent positions.
struct Staleness {
  std::size_t worst = 0;
  double average = 0;
};

Staleness staleness(const std::vector<std::size_t>& agents, std::size_t n) {
  const auto gaps = udring::sim::ring_gaps(agents, n);
  Staleness s;
  double weighted = 0;
  for (const std::size_t gap : gaps) {
    s.worst = std::max(s.worst, gap);
    // Nodes inside a gap of length g wait 1..g steps: average (g+1)/2 over g nodes.
    weighted += static_cast<double>(gap) * (static_cast<double>(gap) + 1) / 2.0;
  }
  s.average = weighted / static_cast<double>(n);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace udring;
  Cli cli(argc, argv);
  const std::size_t n = cli.get_size("n", 48, "ring size (network nodes)");
  const std::size_t k = cli.get_size("k", 6, "number of patrol agents");
  const std::uint64_t seed = cli.get_u64("seed", 3, "rng seed");
  cli.reject_unknown_flags();
  if (cli.wants_help()) {
    cli.print_help("patrol-service staleness before/after uniform deployment");
    return EXIT_SUCCESS;
  }

  Rng rng(seed);
  core::RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::random_homes(n, k, rng);
  spec.scheduler = sim::SchedulerKind::Random;
  spec.seed = seed;

  const Staleness before = staleness(spec.homes, n);

  std::cout << "network_patrol: " << k << " maintenance agents on a " << n
            << "-node ring\n\nBefore deployment (random drop points):\n";
  const auto report = core::run_algorithm(core::Algorithm::KnownKLogMem, spec);
  if (!report.success) {
    std::cerr << "deployment failed: " << report.failure << "\n";
    return EXIT_FAILURE;
  }
  const Staleness after = staleness(report.final_positions, n);

  Table table({"placement", "worst wait", "avg wait", "ideal n/k"});
  table.add_row({"initial (random)", Table::num(before.worst),
                 Table::num(before.average, 1), Table::num(n / k)});
  table.add_row({"after uniform deployment", Table::num(after.worst),
                 Table::num(after.average, 1), Table::num(n / k)});
  std::cout << table << "\n";

  std::cout << "Deployment cost: " << report.total_moves << " total moves ("
            << Table::num(static_cast<double>(report.total_moves) /
                              static_cast<double>(k * n),
                          2)
            << "·kn), " << report.makespan << " ideal time units, "
            << report.max_memory_bits << " bits/agent peak memory.\n\n";

  std::cout << "Every node is now serviced every ⌈n/k⌉ = " << (n + k - 1) / k
            << " steps — worst-case staleness dropped from " << before.worst
            << " to " << after.worst << ".\n";
  return EXIT_SUCCESS;
}
