// bench_fig456_phases — reproduces the algorithm-anatomy figures:
//
//   Fig 4: Algorithm 1's base/target selection → selection vs deployment
//          move split (selection is exactly kn; deployment ≤ 2n per agent).
//   Fig 5: Algorithm 2's base-node conditions → number of elected leaders
//          and their segment geometry across configuration families.
//   Fig 6: the sub-phase IDs (d, fNum) → measured sub-phase count vs the
//          ⌈log k⌉ bound (the halving argument of Theorem 4).
//
// Plus the strict-vs-hardened deployment ablation on the stress instance
// (DESIGN.md §6 item 6).

#include "core/known_k_logmem.h"
#include "support/bench_common.h"
#include "util/bits.h"

namespace {

using namespace udring;
using namespace udring::bench;

void print_report() {
  // ---- Fig 4: phase split of Algorithm 1 ---------------------------------
  print_section(std::cout, "Fig 4 — Algorithm 1 phase split (random configs, 5 seeds)");
  {
    Table table({"n", "k", "selection moves", "kn", "deployment moves",
                 "deploy/(kn)", "deploy max/agent"});
    for (const std::size_t n : {64u, 256u, 1024u}) {
      const std::size_t k = n / 16;
      double selection = 0, deployment = 0;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed + n);
        core::RunSpec spec;
        spec.node_count = n;
        spec.homes = gen::random_homes(n, k, rng);
        const auto report = core::run_algorithm(core::Algorithm::KnownKFull, spec);
        selection += static_cast<double>(report.moves_by_phase[0]) / 5.0;
        deployment += static_cast<double>(report.moves_by_phase[1]) / 5.0;
      }
      table.add_row({Table::num(n), Table::num(k), Table::num(selection, 0),
                     Table::num(k * n), Table::num(deployment, 0),
                     Table::num(deployment / static_cast<double>(k * n), 2),
                     Table::num(2 * n)});
    }
    std::cout << table
              << "selection = kn exactly (every agent circles once); deployment\n"
                 "averages ~0.75·kn, bounded by 2n per agent — Theorem 3.\n";
  }

  // ---- Fig 5: leader counts / base-node conditions -----------------------
  print_section(std::cout, "Fig 5 — leaders elected by Algorithm 2 (base-node conditions)");
  {
    Table table({"config family", "n", "k", "avg leaders", "leader | k?",
                 "all runs uniform"});
    struct Row {
      const char* name;
      ConfigFamily family;
      std::size_t n, k, l;
    };
    for (const Row& row : {Row{"random", ConfigFamily::RandomAny, 96, 12, 1},
                           Row{"packed", ConfigFamily::Packed, 96, 12, 1},
                           Row{"periodic l=2", ConfigFamily::Periodic, 96, 12, 2},
                           Row{"periodic l=4", ConfigFamily::Periodic, 96, 12, 4},
                           Row{"uniform l=k", ConfigFamily::Uniform, 96, 12, 12}}) {
      double leaders = 0;
      bool divides = true, uniform = true;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed * 31 + row.l);
        core::RunSpec spec;
        spec.node_count = row.n;
        spec.homes = draw_homes(row.family, row.n, row.k, row.l, rng);
        const sim::Instance instance =
            core::make_instance(core::Algorithm::KnownKLogMem, spec);
        sim::ExecutionState simulator(instance);
        sim::RoundRobinScheduler scheduler;
        (void)simulator.run(scheduler);
        uniform = uniform &&
                  sim::UniformDeploymentOracle(true).check_goal(simulator).ok;
        std::size_t count = 0;
        for (sim::AgentId id = 0; id < row.k; ++id) {
          const auto& agent = dynamic_cast<const core::KnownKLogMemAgent&>(
              simulator.program(id));
          if (agent.role() == core::KnownKLogMemAgent::Role::Leader) ++count;
        }
        divides = divides && (row.k % count == 0);
        leaders += static_cast<double>(count) / 5.0;
      }
      table.add_row({row.name, Table::num(row.n), Table::num(row.k),
                     Table::num(leaders, 1), divides ? "yes" : "NO",
                     uniform ? "yes" : "NO"});
    }
    std::cout << table
              << "leader count always divides k; periodic configurations elect\n"
                 "one leader per period block (l leaders), uniform ones elect k.\n";
  }

  // ---- Fig 6: sub-phase counts vs ⌈log k⌉ ---------------------------------
  print_section(std::cout, "Fig 6 — selection sub-phases vs the ⌈log k⌉ bound");
  {
    Table table({"k", "n", "max sub-phases (20 seeds)", "ceil(log2 k)", "within"});
    for (const std::size_t k : {2u, 4u, 8u, 16u, 32u, 64u}) {
      const std::size_t n = k * 8;
      std::size_t worst = 0;
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed * 7 + k);
        core::RunSpec spec;
        spec.node_count = n;
        spec.homes = gen::random_homes(n, k, rng);
        const sim::Instance instance =
            core::make_instance(core::Algorithm::KnownKLogMem, spec);
        sim::ExecutionState simulator(instance);
        sim::RoundRobinScheduler scheduler;
        (void)simulator.run(scheduler);
        for (sim::AgentId id = 0; id < k; ++id) {
          const auto& agent = dynamic_cast<const core::KnownKLogMemAgent&>(
              simulator.program(id));
          worst = std::max(worst, agent.sub_phases());
        }
      }
      const std::size_t bound = ceil_log2(k) + 1;
      table.add_row({Table::num(k), Table::num(n), Table::num(worst),
                     Table::num(ceil_log2(k)), worst <= bound ? "yes" : "NO"});
    }
    std::cout << table
              << "the ID-halving argument holds: sub-phases never exceed\n"
                 "⌈log k⌉ (+1 for the final leader-detection circuit).\n";
  }

  // ---- ablation: strict-paper vs hardened deployment ----------------------
  print_section(std::cout,
                "Ablation — literal (strict-paper) vs hardened deployment");
  {
    Table table({"variant", "stress-instance moves", "random moves", "uniform"});
    for (const auto& [algorithm, label] :
         {std::make_pair(core::Algorithm::KnownKLogMemStrict, "strict (paper)"),
          std::make_pair(core::Algorithm::KnownKLogMem, "hardened (base-skip)")}) {
      core::RunSpec stress;
      stress.node_count = gen::kLogmemStressNodes;
      stress.homes = gen::logmem_stress_homes();
      const auto stress_report = core::run_algorithm(algorithm, stress);
      const Averages random_avg =
          measure(algorithm, ConfigFamily::RandomAny, 128, 16);
      table.add_row({label, Table::num(stress_report.total_moves),
                     Table::num(random_avg.moves, 0),
                     (stress_report.success && random_avg.success_rate == 1.0)
                         ? "yes"
                         : "NO"});
    }
    std::cout << table
              << "both variants are correct (the literal one leans on FIFO\n"
                 "pushing — DESIGN.md §6 item 6) and cost the same within noise.\n";
  }
}

void register_timings() {
  register_timing("fig456/algo2/n=256/k=16", core::Algorithm::KnownKLogMem,
                  ConfigFamily::RandomAny, 256, 16);
  register_timing("fig456/algo2strict/n=256/k=16",
                  core::Algorithm::KnownKLogMemStrict, ConfigFamily::RandomAny, 256,
                  16);
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, print_report, register_timings);
}
