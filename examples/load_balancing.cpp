// load_balancing — the paper's second motivating scenario (§1.1).
//
// Agents carry large database replicas. Not every node can store the
// database, but every node wants a nearby replica. Uniform deployment
// minimizes the worst forward distance from any node to its next replica —
// and, unlike a centrally computed placement, it needs no coordinator, no
// node identifiers, and no knowledge of the ring size (we use the relaxed
// algorithm: agents know neither k nor n).
//
//   ./load_balancing --n=60 --k=5 --seed=11

#include <cstdlib>
#include <iostream>
#include <vector>

#include "config/generators.h"
#include "core/runner.h"
#include "sim/checker.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

// Forward distance from each node to the nearest replica (queries travel the
// ring's direction). Returns (max, mean).
std::pair<std::size_t, double> access_cost(const std::vector<std::size_t>& replicas,
                                           std::size_t n) {
  std::size_t worst = 0;
  double total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t best = n;
    for (const std::size_t r : replicas) {
      best = std::min(best, (r + n - v) % n);
    }
    worst = std::max(worst, best);
    total += static_cast<double>(best);
  }
  return {worst, total / static_cast<double>(n)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace udring;
  Cli cli(argc, argv);
  const std::size_t n = cli.get_size("n", 60, "ring size");
  const std::size_t k = cli.get_size("k", 5, "number of replica agents");
  const std::uint64_t seed = cli.get_u64("seed", 11, "rng seed");
  cli.reject_unknown_flags();
  if (cli.wants_help()) {
    cli.print_help(
        "replica placement via uniform deployment (agents know neither k nor n)");
    return EXIT_SUCCESS;
  }

  Rng rng(seed);
  core::RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::random_homes(n, k, rng);
  spec.scheduler = sim::SchedulerKind::Random;
  spec.seed = seed;

  const auto [worst_before, mean_before] = access_cost(spec.homes, n);

  std::cout << "load_balancing: " << k << " database replicas on a " << n
            << "-node ring (agents know neither k nor n)\n\n";

  const auto report = core::run_algorithm(core::Algorithm::UnknownRelaxed, spec);
  if (!report.success) {
    std::cerr << "deployment failed: " << report.failure << "\n";
    return EXIT_FAILURE;
  }
  const auto [worst_after, mean_after] = access_cost(report.final_positions, n);

  Table table({"placement", "worst access", "mean access"});
  table.add_row({"initial (random)", Table::num(worst_before),
                 Table::num(mean_before, 2)});
  table.add_row({"after relaxed deployment", Table::num(worst_after),
                 Table::num(mean_after, 2)});
  std::cout << table << "\n";

  std::cout << "The agents suspended (Definition 2 — no termination detection is\n"
            << "possible without knowing k or n; Theorem 5) after "
            << report.total_moves << " total moves.\n"
            << "Worst-case access distance fell from " << worst_before << " to "
            << worst_after << " (optimal ⌈n/k⌉−1 = " << ((n + k - 1) / k) - 1
            << ").\n";
  return EXIT_SUCCESS;
}
