// bench_campaign_engine — the campaign engine's own artifact: runs the
// acceptance grid (n ∈ {16..64}, k ∈ {2..8}, 16 seeds, 2 schedulers —
// 1568 scenarios) serially and sharded, verifies the worker-count
// determinism contract (identical digests), and reports throughput and
// parallel speedup. A per-cell table then shows the cost of one action
// under each scheduler at (n, k) = (256, 64), the largest-k cell of the
// benchmark sweep, where the scheduler draw is the biggest. Set
// UDRING_CAMPAIGN_SMOKE=1 for the tiny CI grid.

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

bool smoke() { return std::getenv("UDRING_CAMPAIGN_SMOKE") != nullptr; }

exp::CampaignGrid engine_grid() {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.schedulers = {sim::SchedulerKind::RoundRobin, sim::SchedulerKind::Random};
  if (smoke()) {
    grid.node_counts = {16, 24};
    grid.agent_counts = {2, 4};
    grid.seeds = 2;  // 16 scenarios: enough to exercise every engine path
  } else {
    grid.node_counts = {16, 24, 32, 40, 48, 56, 64};
    grid.agent_counts = {2, 3, 4, 5, 6, 7, 8};
    grid.seeds = 16;  // 7 × 7 × 2 × 16 = 1568 scenarios
  }
  return grid;
}

/// One (256, 64) cell of the benchmark sweep's grid.
exp::CampaignGrid cell_grid(core::Algorithm algorithm,
                            sim::SchedulerKind scheduler) {
  exp::CampaignGrid grid;
  grid.algorithms = {algorithm};
  grid.schedulers = {scheduler};
  grid.instances = {{256, 64}};
  grid.seeds = smoke() ? 2 : 24;
  return grid;
}

/// Serial wall time of `grid` divided by the actions it executed.
double ns_per_action(const exp::CampaignGrid& grid) {
  const auto start = std::chrono::steady_clock::now();
  const exp::CampaignResult result =
      exp::run_campaign_streaming(grid, {.workers = 1});
  const auto stop = std::chrono::steady_clock::now();
  std::uint64_t actions = 0;
  for (const auto& [key, stats] : result.cells) actions += stats.actions_sum;
  const double ns = std::chrono::duration<double, std::nano>(stop - start).count();
  return actions == 0 ? 0.0 : ns / static_cast<double>(actions);
}

constexpr sim::SchedulerKind kCellSchedulers[] = {
    sim::SchedulerKind::RoundRobin, sim::SchedulerKind::Random,
    sim::SchedulerKind::Burst};

double run_timed(const exp::CampaignGrid& grid, std::size_t workers,
                 exp::CampaignResult& out) {
  const auto start = std::chrono::steady_clock::now();
  out = exp::run_campaign(grid, {.workers = workers});
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void print_report() {
  const exp::CampaignGrid grid = engine_grid();
  const std::size_t scenario_count = exp::expand(grid).size();
  std::cout << "Campaign engine scaling: " << scenario_count
            << " scenarios (known-k-full, round-robin + random schedulers).\n";

  exp::CampaignResult serial;
  const double serial_ms = run_timed(grid, 1, serial);

  print_section(std::cout, "Worker scaling");
  Table table({"workers", "wall ms", "scenarios/s", "speedup", "digest match"});
  table.add_row({"1", Table::num(serial_ms, 0),
                 Table::num(1000.0 * static_cast<double>(scenario_count) / serial_ms, 0),
                 "1.0", "-"});
  for (const std::size_t workers : {2u, 4u, 8u}) {
    exp::CampaignResult sharded;
    const double ms = run_timed(grid, workers, sharded);
    table.add_row({Table::num(workers), Table::num(ms, 0),
                   Table::num(1000.0 * static_cast<double>(scenario_count) / ms, 0),
                   Table::num(serial_ms / ms, 2),
                   sharded.digest() == serial.digest() ? "yes" : "NO"});
  }
  std::cout << table;

  // The O(cells + workers)-memory aggregation path must be the same
  // computation, not a sibling: its digest has to reproduce the
  // materialized one byte-for-byte (bench_streaming_campaign is the full
  // artifact; this row keeps the engine's own report honest).
  print_section(std::cout, "Streaming aggregation");
  const exp::CampaignResult streamed =
      exp::run_campaign_streaming(grid, {.workers = 8});
  std::cout << "streaming digest "
            << (streamed.digest() == serial.digest() ? "matches" : "DOES NOT match")
            << " the materialized serial run ("
            << streamed.cells.size() << " cells, no per-scenario storage).\n";

  // Per-action cost per cell: set-up, draws, actions and the goal check,
  // divided by the actions. Best of three runs, 1 worker.
  print_section(std::cout, "Per-cell cost at (n, k) = (256, 64), workers = 1");
  Table cell_table({"algorithm", "scheduler", "ns/action"});
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem,
        core::Algorithm::UnknownRelaxed}) {
    for (const sim::SchedulerKind scheduler : kCellSchedulers) {
      const exp::CampaignGrid cell = cell_grid(algorithm, scheduler);
      double best = ns_per_action(cell);
      for (int rep = 1; rep < 3; ++rep) best = std::min(best, ns_per_action(cell));
      cell_table.add_row({std::string(core::to_string(algorithm)),
                          std::string(sim::to_string(scheduler)),
                          Table::num(best, 1)});
    }
  }
  std::cout << cell_table;

  std::cout << "\nfailures: " << serial.failures << " / " << scenario_count
            << "   digest: " << std::hex << serial.digest() << std::dec << '\n';
  if (!serial.all_ok()) {
    for (const std::string& sample : serial.failure_samples) {
      std::cout << "  FAIL " << sample << '\n';
    }
  }
  std::cout << "\nEvery row's digest matches the serial run: aggregation is\n"
               "byte-identical at any worker count (per-scenario substreams +\n"
               "index-order folding), so sharded campaigns are replayable\n"
               "evidence, not just fast sweeps.\n";
}

void register_timings() {
  for (const std::size_t workers : {1u, 8u}) {
    const std::string name =
        "campaign/n=32..48/k=4,8/workers=" + std::to_string(workers);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [workers](benchmark::State& state) {
          exp::CampaignGrid grid;
          grid.algorithms = {core::Algorithm::KnownKFull};
          grid.schedulers = {sim::SchedulerKind::RoundRobin,
                             sim::SchedulerKind::Random};
          grid.node_counts = {32, 48};
          grid.agent_counts = {4, 8};
          grid.seeds = 4;
          for (auto _ : state) {
            const exp::CampaignResult result =
                exp::run_campaign(grid, {.workers = workers});
            benchmark::DoNotOptimize(result.failures);
            if (!result.all_ok()) state.SkipWithError("campaign failed");
          }
          state.counters["workers"] = static_cast<double>(workers);
        })
        ->Unit(benchmark::kMillisecond);
  }
  // Per-cell rows: the (256, 64) known-k-full cell under each scheduler,
  // with the per-action cost as a counter.
  for (const sim::SchedulerKind scheduler : kCellSchedulers) {
    const std::string name =
        "cell/known-k-full/n=256/k=64/" + std::string(sim::to_string(scheduler));
    benchmark::RegisterBenchmark(
        name.c_str(),
        [scheduler](benchmark::State& state) {
          const exp::CampaignGrid grid =
              cell_grid(core::Algorithm::KnownKFull, scheduler);
          double ns = 0;
          for (auto _ : state) {
            ns = ns_per_action(grid);
            benchmark::DoNotOptimize(ns);
          }
          state.counters["ns_per_action"] = ns;
        })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, print_report, register_timings);
}
