// bench_problems — the cross-problem reproduction artifact.
//
// Three sections, one claim each of the ProblemSpec/GoalOracle redesign:
//  1. Table-1-style cross-problem campaign: one grid sweeps uniform
//     deployment, g-partial gathering, and dispersion over PAIRED instances
//     (the scenario substream excludes the algorithm and problem, so every
//     problem row of an (n, k) point runs on identical home draws) and
//     reports the paper's three measures — moves, time, memory — per
//     problem side by side.
//  2. Determinism: the cross-problem campaign digest is byte-identical at
//     worker counts {1, 4, hw} — the problem axis inherits the engine's
//     worker-invariance contract.
//  3. Exhaustive verification: mc::check walks every schedule of small
//     gathering and dispersion instances (solvable, unsolvable-periodic,
//     and a deployer judged under the dispersion oracle), and the serial
//     tree walk's verdict must match the parallel closure walk's.
//
// Set UDRING_PROBLEMS_SMOKE=1 for the CI-sized version. The
// google-benchmark timings land in BENCH_problems.json via the bench-smoke
// CI job and are diffed against the committed baseline by
// scripts/bench_compare.py.

#include <cstdlib>
#include <string>
#include <vector>

#include "mc/model_check.h"
#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

[[nodiscard]] bool smoke() {
  const char* env = std::getenv("UDRING_PROBLEMS_SMOKE");
  return env != nullptr && env[0] == '1';
}

/// The one grid every section reuses: the three problem families on shared
/// instance coordinates. Auto on the problem axis resolves per algorithm —
/// deploy for KnownKFull, gather(g=2) for GatherRing, disperse for
/// DisperseRing — which keeps the campaign digest on the historical
/// (pre-problem-axis) byte layout.
[[nodiscard]] exp::CampaignGrid cross_problem_grid() {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull, core::Algorithm::GatherRing,
                     core::Algorithm::DisperseRing};
  grid.schedulers = {sim::SchedulerKind::RoundRobin};
  grid.node_counts = smoke() ? std::vector<std::size_t>{12, 16}
                             : std::vector<std::size_t>{16, 32, 64};
  grid.agent_counts = smoke() ? std::vector<std::size_t>{2, 4}
                              : std::vector<std::size_t>{4, 8};
  grid.seeds = smoke() ? 3 : 8;
  return grid;
}

// ---- 1. Table-1-style cross-problem report ----------------------------------

void report_cross_problem_table() {
  print_section(std::cout, "Cross-problem campaign (paired instances)");
  const exp::CampaignGrid grid = cross_problem_grid();
  const exp::CampaignResult result = exp::run_campaign(grid, {.workers = 0});

  // Tail columns ride along with the means: the per-cell quantile sketches
  // make p50/p90/p99 mergeable (and therefore digest-stable) statistics, so
  // the cross-problem comparison shows distribution shape, not just averages.
  Table table({"problem", "algorithm", "n", "k", "runs", "ok", "moves",
               "moves p50/90/99", "time", "time p50/90/99", "mem bits"});
  const auto triple = [](double p50, double p90, double p99) {
    return Table::num(p50, 0) + "/" + Table::num(p90, 0) + "/" +
           Table::num(p99, 0);
  };
  for (const core::Algorithm algorithm : grid.algorithms) {
    const core::ProblemSpec resolved = core::resolve_problem(algorithm, {});
    for (const std::size_t n : grid.node_counts) {
      for (const std::size_t k : grid.agent_counts) {
        const exp::Averages avg = result.averages(
            exp::CellKey{algorithm, exp::ConfigFamily::RandomAny,
                         sim::SchedulerKind::RoundRobin, n, k, 1});
        if (avg.runs == 0) continue;
        table.add_row({core::to_string(resolved),
                       std::string(core::to_string(algorithm)), Table::num(n),
                       Table::num(k), Table::num(avg.runs),
                       Table::num(avg.success_rate * 100.0, 1) + "%",
                       Table::num(avg.moves, 1),
                       triple(avg.moves_p50, avg.moves_p90, avg.moves_p99),
                       Table::num(avg.makespan, 1),
                       triple(avg.makespan_p50, avg.makespan_p90,
                              avg.makespan_p99),
                       Table::num(avg.memory_bits, 1)});
      }
    }
  }
  std::cout << table;
  std::cout << "every problem row of an (n, k) point ran on the same home "
               "draws\n(the scenario substream excludes algorithm and "
               "problem), so the\ncolumns compare move/time/memory across "
               "problems, paired.\n\n";
  if (!result.all_ok()) {
    std::cout << "CAMPAIGN FAILURES:\n" << result.summary();
    std::exit(2);
  }
}

// ---- 2. worker-count determinism over the problem axis ----------------------

void report_determinism() {
  print_section(std::cout, "Cross-problem digest vs worker count");
  const exp::CampaignGrid grid = cross_problem_grid();
  const exp::CampaignResult reference = exp::run_campaign(grid, {.workers = 1});
  Table table({"workers", "scenarios", "digest match"});
  bool all_match = true;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {  // 0 = hardware
    const exp::CampaignResult run = exp::run_campaign(grid, {.workers = workers});
    const bool ok = run.digest() == reference.digest();
    all_match = all_match && ok;
    table.add_row({Table::num(run.workers_used), Table::num(run.scenario_count),
                   ok ? "yes" : "NO"});
  }
  std::cout << table;
  std::cout << (all_match ? "the problem axis preserves the engine's "
                            "worker-invariant digest contract.\n\n"
                          : "DIGEST MISMATCH across worker counts.\n\n");
  if (!all_match) std::exit(2);
}

// ---- 3. exhaustive verification of small instances --------------------------

struct McCase {
  const char* label;
  core::Algorithm algorithm;
  core::ProblemSpec problem;
  std::vector<std::size_t> homes;
};

void report_exhaustive() {
  print_section(std::cout, "Exhaustive verification (every schedule, n=6)");
  const std::vector<McCase> cases = {
      {"gather g=2 solvable", core::Algorithm::GatherRing, {}, {0, 2}},
      {"gather g=2 unsolvable-periodic", core::Algorithm::GatherRing, {}, {0, 3}},
      {"disperse", core::Algorithm::DisperseRing, {}, {0, 2}},
      {"deployer under dispersion oracle",
       core::Algorithm::KnownKFull,
       {core::Problem::Disperse, 0},
       {0, 2}},
  };
  Table table({"case", "schedules", "states", "verdict", "serial==closure"});
  bool all_ok = true;
  for (const McCase& c : cases) {
    mc::CheckRequest request;
    request.algorithm = c.algorithm;
    request.problem = c.problem;
    request.node_count = 6;
    request.homes = c.homes;
    const mc::ModelCheckReport serial = mc::check(request);
    mc::McOptions closure;
    closure.shared_visited = true;
    closure.workers = 4;
    const bool verified = serial.ok && serial.complete;
    const bool match = serial.verdict == mc::check(request, closure).verdict;
    all_ok = all_ok && verified && match;
    table.add_row({c.label, Table::num(serial.stats.schedules),
                   Table::num(serial.stats.states_expanded), serial.verdict,
                   match ? "yes" : "NO"});
  }
  std::cout << table;
  std::cout << (all_ok ? "gathering and dispersion are verified over ALL "
                         "schedules of these instances\nby both the serial "
                         "tree walk and the parallel closure walk.\n"
                       : "VERIFICATION FAILED on a cross-problem instance.\n");
  if (!all_ok) std::exit(2);
}

void print_report() {
  std::cout << "Cross-problem artifact: uniform deployment, g-partial "
               "gathering, and dispersion\nthrough one ProblemSpec/GoalOracle "
               "verification stack.\n\n";
  report_cross_problem_table();
  report_determinism();
  report_exhaustive();
}

// ---- google-benchmark timings (the BENCH_problems.json trajectory) ----------

void register_timings() {
  register_timing("deploy/known_k_full/n=64/k=8", core::Algorithm::KnownKFull,
                  ConfigFamily::RandomAny, 64, 8);
  register_timing("gather/gather_ring/n=64/k=8", core::Algorithm::GatherRing,
                  ConfigFamily::RandomAny, 64, 8);
  register_timing("disperse/disperse_ring/n=64/k=8",
                  core::Algorithm::DisperseRing, ConfigFamily::RandomAny, 64, 8);
  benchmark::RegisterBenchmark(
      "cross_problem_campaign/n=16..32/seeds=3",
      [](benchmark::State& state) {
        exp::CampaignGrid grid;
        grid.algorithms = {core::Algorithm::KnownKFull,
                           core::Algorithm::GatherRing,
                           core::Algorithm::DisperseRing};
        grid.schedulers = {sim::SchedulerKind::RoundRobin};
        grid.node_counts = {16, 32};
        grid.agent_counts = {4};
        grid.seeds = 3;
        for (auto _ : state) {
          const exp::CampaignResult result =
              exp::run_campaign_streaming(grid, {.workers = 1});
          benchmark::DoNotOptimize(result.scenario_hash);
          if (!result.all_ok()) state.SkipWithError("campaign failed");
        }
      })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "mc_exhaustive/gather_ring/n=6/k=2",
      [](benchmark::State& state) {
        mc::CheckRequest request;
        request.algorithm = core::Algorithm::GatherRing;
        request.node_count = 6;
        request.homes = {0, 2};
        for (auto _ : state) {
          const mc::ModelCheckReport report = mc::check(request);
          benchmark::DoNotOptimize(report.stats.total_actions);
          if (!report.ok || !report.complete) state.SkipWithError("not verified");
        }
      })
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, print_report, register_timings);
}
