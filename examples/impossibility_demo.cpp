// impossibility_demo — Theorem 5, live (§4.1, Fig 7).
//
// Shows why *termination detection* is impossible without knowledge of k or
// n. We run a strawman algorithm (estimate the ring from the first 4-fold
// repetition of the token distances, deploy, halt) on:
//
//   R : a small ring where every agent estimates exactly and the strawman
//       "solves" uniform deployment with termination, and
//   R': the paper's blow-up — 2qn + 2n nodes whose first (q+1)n nodes repeat
//       R's configuration. The repeated agents cannot distinguish R' from R
//       (Lemma 1), halt exactly as in R, and the deployment is wrong.
//
//   ./impossibility_demo --n=12

#include <cstdlib>
#include <iostream>
#include <memory>

#include "config/generators.h"
#include "core/premature_halt.h"
#include "sim/checker.h"
#include "sim/execution_state.h"
#include "sim/scheduler.h"
#include "util/cli.h"
#include "viz/ascii_ring.h"

int main(int argc, char** argv) {
  using namespace udring;
  Cli cli(argc, argv);
  cli.reject_unknown_flags();
  if (cli.wants_help()) {
    cli.print_help("Theorem 5 demonstration: no termination detection without k or n");
    return EXIT_SUCCESS;
  }

  const std::size_t n = 12;
  const std::vector<std::size_t> homes = {0, 1, 5};
  const auto factory = [](sim::AgentId) {
    return std::make_unique<core::PrematureHaltAgent>();
  };

  std::cout << "== Act 1: the strawman looks correct on R (n=" << n << ", k="
            << homes.size() << ") ==\n\n";
  const sim::Instance small_instance(n, homes, factory);
  sim::ExecutionState small(small_instance);
  sim::SynchronousScheduler small_scheduler;
  (void)small.run(small_scheduler);
  std::cout << viz::render(small) << "\n" << viz::gap_summary(small) << "\n";
  const auto small_check = sim::UniformDeploymentOracle(true).check_goal(small);
  std::cout << "uniform with termination: " << (small_check.ok ? "YES" : "NO")
            << "\n\n";

  const std::size_t rounds = static_cast<std::size_t>(small_scheduler.rounds());
  const std::size_t q = (rounds + n) / n;
  const auto instance = gen::impossibility_ring(homes, n, q);

  std::cout << "== Act 2: the adversary builds R' with 2qn+2n = "
            << instance.node_count << " nodes (q=" << q << "), repeating R's\n"
            << "configuration " << q + 1 << " times and leaving half the ring "
            << "empty ==\n\n";

  const sim::Instance large_instance(
      instance.node_count, instance.homes, factory);
  sim::ExecutionState large(large_instance);
  sim::SynchronousScheduler large_scheduler;
  (void)large.run(large_scheduler);

  std::cout << "All " << instance.homes.size() << " agents halted: "
            << (large.all_halted() ? "YES" : "NO")
            << " — each believes it detected termination.\n";
  const auto large_check = sim::UniformDeploymentOracle(true).check_goal(large);
  std::cout << "uniform with termination: " << (large_check.ok ? "YES" : "NO")
            << "\n  reason: " << large_check.reason << "\n\n";

  std::cout << "Agents of the repeated region copied R exactly (Lemma 1):\n";
  for (sim::AgentId id = 0; id < homes.size(); ++id) {
    std::cout << "  agent " << id << ": " << small.metrics().agent(id).moves
              << " moves in R vs " << large.metrics().agent(id).moves
              << " moves in R'\n";
  }
  std::cout << "\nThey halted at spacing n/k = " << n / homes.size()
            << " where R' needs " << instance.node_count / instance.homes.size()
            << " — premature termination, exactly as Theorem 5 predicts.\n"
            << "(Algorithm 6 handles R' by *suspending* instead of halting —\n"
            << "run ./symmetry_adaptive to see it.)\n";
  return large_check.ok ? EXIT_FAILURE : EXIT_SUCCESS;  // failure IS the demo
}
