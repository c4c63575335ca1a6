// quickstart — the five-minute tour of udring.
//
// Builds an asynchronous unidirectional ring, drops k agents on random
// distinct home nodes, runs the paper's Algorithm 1 (agents know k) under a
// random fair scheduler, and checks the result against the Definition-1
// oracle: all agents halted, spaced ⌊n/k⌋ or ⌈n/k⌉ apart.
//
//   ./quickstart --n=16 --k=4 --seed=7 --scheduler=random

#include <cstdlib>
#include <iostream>

#include "config/generators.h"
#include "core/runner.h"
#include "sim/checker.h"
#include "util/cli.h"
#include "viz/ascii_ring.h"

namespace {

udring::sim::SchedulerKind parse_scheduler(const std::string& name) {
  for (const auto kind : udring::sim::all_scheduler_kinds()) {
    if (name == udring::sim::to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown scheduler: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace udring;
  Cli cli(argc, argv);
  const std::size_t n = cli.get_size("n", 16, "ring size");
  const std::size_t k = cli.get_size("k", 4, "number of agents");
  const std::uint64_t seed = cli.get_u64("seed", 7, "rng seed (homes + schedule)");
  const std::string scheduler_name =
      cli.get("scheduler", "fair scheduler: round-robin|random|synchronous|priority|burst",
              "random")
          .value();
  cli.reject_unknown_flags();
  if (cli.wants_help()) {
    cli.print_help("uniform deployment quickstart (Algorithm 1, known k)");
    return EXIT_SUCCESS;
  }

  Rng rng(seed);
  core::RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::random_homes(n, k, rng);
  spec.scheduler = parse_scheduler(scheduler_name);
  spec.seed = seed;

  std::cout << "udring quickstart: n=" << n << ", k=" << k << ", scheduler="
            << scheduler_name << ", seed=" << seed << "\n\nInitial homes:";
  for (const auto home : spec.homes) std::cout << ' ' << home;
  std::cout << "\n(symmetry degree l = "
            << core::config_symmetry_degree(spec.homes, n) << ")\n\n";

  // Run Algorithm 1 and keep the simulator around for rendering.
  const sim::Instance instance =
      core::make_instance(core::Algorithm::KnownKFull, spec);
  sim::ExecutionState simulator(instance);
  auto scheduler = sim::make_scheduler(spec.scheduler, seed, k);
  const auto result = simulator.run(*scheduler);

  std::cout << "Final configuration ('h' = halted):\n"
            << viz::render(simulator) << "\n"
            << viz::gap_summary(simulator) << "\n\n";

  const auto check = sim::UniformDeploymentOracle(true).check_goal(simulator);
  std::cout << "atomic actions: " << result.actions
            << "\ntotal moves:    " << simulator.metrics().total_moves()
            << "\nideal time:     " << simulator.metrics().makespan()
            << "\npeak memory:    " << simulator.metrics().max_memory_bits()
            << " bits/agent\nuniform:        " << (check.ok ? "YES" : "NO");
  if (!check.ok) std::cout << "  (" << check.reason << ")";
  std::cout << "\n";
  return check.ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
