// bench_fig8_estimation — reproduces Figures 8, 9 and 10: the behaviour of
// the estimating phase (Algorithm 4) and the message-driven correction
// machinery (Algorithms 5+6).
//
//   Fig 8: an agent stops estimating at the first 4-fold repetition — on
//          structured rings it underestimates (the (1,3)⁴ window → n' = 4).
//   Fig 9: scaled trap family (big gap + (1,3)^m tail): trapped agents are
//          corrected by patrollers; we count misestimates and corrections.
//   Fig 10 / Lemma 4: on aperiodic rings at least one agent estimates n
//          exactly; Lemma 3: every wrong estimate is ≤ n/2.

#include "core/unknown_relaxed.h"
#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

// The Fig 9 family, scaled: distance sequence (big, (1,3)^m) on
// n = big + 4m nodes, k = 2m + 1 agents. Agents whose window starts inside
// the (1,3) run first estimate 4.
std::vector<std::size_t> trap_homes(std::size_t m, std::size_t big) {
  core::DistanceSeq d;
  d.push_back(big);
  for (std::size_t i = 0; i < m; ++i) {
    d.push_back(1);
    d.push_back(3);
  }
  return gen::homes_from_distances(d, big + 4 * m);
}

void print_report() {
  std::cout << "Reproduction of Figs 8-10: estimator behaviour of Algorithm 4 and\n"
               "the correction machinery of Algorithms 5+6.\n";

  print_section(std::cout, "Fig 8/9 — the scaled (big,(1,3)^m) trap family");
  {
    Table table({"m", "n", "k", "#first-est=4", "#first-est=n", "corrections",
                 "all converge to n", "uniform"});
    for (const std::size_t m : {2u, 4u, 8u, 16u, 32u}) {
      const std::size_t big = 11;
      const std::size_t n = big + 4 * m;
      core::RunSpec spec;
      spec.node_count = n;
      spec.homes = trap_homes(m, big);
      const sim::Instance instance =
          core::make_instance(core::Algorithm::UnknownRelaxed, spec);
      sim::ExecutionState simulator(instance);
      sim::RoundRobinScheduler scheduler;
      (void)simulator.run(scheduler);

      std::size_t trapped = 0, exact = 0, corrections = 0;
      bool converged = true;
      for (sim::AgentId id = 0; id < simulator.agent_count(); ++id) {
        const auto& agent = dynamic_cast<const core::UnknownRelaxedAgent&>(
            simulator.program(id));
        if (agent.first_estimate_n() == 4) ++trapped;
        if (agent.first_estimate_n() == n) ++exact;
        corrections += agent.corrections();
        converged = converged && agent.estimated_n() == n;
      }
      const bool uniform =
          sim::UniformDeploymentOracle(false).check_goal(simulator).ok;
      table.add_row({Table::num(m), Table::num(n), Table::num(2 * m + 1),
                     Table::num(trapped), Table::num(exact),
                     Table::num(corrections), converged ? "yes" : "NO",
                     uniform ? "yes" : "NO"});
    }
    std::cout << table
              << "the deeper the periodic tail, the more agents start trapped at\n"
                 "n' = 4 — and every one of them is corrected by a patroller\n"
                 "(Lemma 5) before the system settles uniformly.\n";
  }

  print_section(std::cout, "Fig 10 / Lemmas 3-4 — random aperiodic rings");
  {
    Table table({"n", "k", "rings", "Lemma 3 holds", "Lemma 4 holds",
                 "avg exact estimators", "avg est. cost (moves)", "4n"});
    const std::vector<std::pair<std::size_t, std::size_t>> cases = {
        {48, 6}, {96, 12}, {192, 16}, {384, 24}};
    for (const auto& [n, k] : cases) {
      bool lemma3 = true, lemma4 = true;
      double exact_avg = 0, est_cost = 0;
      const int rings = 10;
      int used = 0;
      for (std::uint64_t seed = 1; used < rings && seed < 200; ++seed) {
        Rng rng(seed * 13 + n);
        auto homes = gen::random_homes(n, k, rng);
        if (core::config_symmetry_degree(homes, n) != 1) continue;
        ++used;
        core::RunSpec spec;
        spec.node_count = n;
        spec.homes = homes;
        const sim::Instance instance =
            core::make_instance(core::Algorithm::UnknownRelaxed, spec);
        sim::ExecutionState simulator(instance);
        sim::RoundRobinScheduler scheduler;
        (void)simulator.run(scheduler);
        std::size_t exact = 0;
        for (sim::AgentId id = 0; id < k; ++id) {
          const auto& agent = dynamic_cast<const core::UnknownRelaxedAgent&>(
              simulator.program(id));
          const std::size_t first = agent.first_estimate_n();
          lemma3 = lemma3 && (first == n || 2 * first <= n);
          if (first == n) ++exact;
          est_cost += 4.0 * static_cast<double>(first) /
                      static_cast<double>(rings * k);
        }
        lemma4 = lemma4 && exact >= 1;
        exact_avg += static_cast<double>(exact) / rings;
      }
      table.add_row({Table::num(n), Table::num(k), Table::num(std::size_t{10}),
                     lemma3 ? "yes" : "NO", lemma4 ? "yes" : "NO",
                     Table::num(exact_avg, 1), Table::num(est_cost, 0),
                     Table::num(4 * n)});
    }
    std::cout << table
              << "on typical aperiodic rings almost every agent estimates n\n"
                 "exactly (paying the full 4n estimation walk); wrong estimates\n"
                 "are all ≤ n/2, exactly as Lemma 3 bounds.\n";
  }
}

void register_timings() {
  benchmark::RegisterBenchmark("fig8/trap/m=32", [](benchmark::State& state) {
    for (auto _ : state) {
      core::RunSpec spec;
      spec.node_count = 11 + 4 * 32;
      spec.homes = trap_homes(32, 11);
      const auto report =
          core::run_algorithm(core::Algorithm::UnknownRelaxed, spec);
      benchmark::DoNotOptimize(report.total_moves);
    }
  })->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, print_report, register_timings);
}
