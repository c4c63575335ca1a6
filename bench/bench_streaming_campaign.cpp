// bench_streaming_campaign — the huge-n / streaming-aggregation artifact.
//
// Four sections, each one claim of the streaming story:
//  1. Equivalence: streaming and materialized aggregation produce the SAME
//     digest on a shared grid at worker counts {1, 4, hw} — streaming is a
//     memory mode, not a different computation.
//  2. Huge-n cells: grids at n ∈ {10^5, 10^6} swept through the streaming
//     path (the per-worker ExecutionState arena is the only n-sized state).
//  3. Scenario scale: a 10^6-scenario grid streamed under a fixed memory
//     budget — accumulator bytes stay O(cells) while the materialized path
//     would hold ~10^8 result bytes.
//  4. Checked-fuzz oracle: fuzzer steps/s at n = 4096 under the full
//     per-action invariant checker vs the incremental one. Both are O(k)
//     per action on healthy states now, so the ratio is reported as
//     measured, as evidence of whether the incremental checker still pays.
//
// Set UDRING_STREAM_SMOKE=1 for the CI-sized version. The google-benchmark
// timings land in BENCH_streaming.json via the bench-smoke CI job and are
// diffed against the committed baseline by scripts/bench_compare.py.

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>

#include "explore/fuzz.h"
#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

[[nodiscard]] bool smoke() {
  const char* env = std::getenv("UDRING_STREAM_SMOKE");
  return env != nullptr && env[0] == '1';
}

[[nodiscard]] double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- 1. streaming vs materialized equivalence -------------------------------

void report_equivalence() {
  print_section(std::cout, "Streaming vs materialized equivalence");
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull,
                     core::Algorithm::UnknownRelaxed};
  grid.schedulers = {sim::SchedulerKind::RoundRobin, sim::SchedulerKind::Random};
  grid.node_counts = smoke() ? std::vector<std::size_t>{16, 24}
                             : std::vector<std::size_t>{16, 32, 64};
  grid.agent_counts = {2, 4};
  grid.seeds = smoke() ? 2 : 8;

  const exp::CampaignResult reference = exp::run_campaign(grid, {.workers = 1});
  Table table({"path", "workers", "scenarios", "digest match"});
  bool all_match = true;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4},
                                    std::size_t{0}}) {  // 0 = hardware
    const exp::CampaignResult materialized =
        exp::run_campaign(grid, {.workers = workers});
    const exp::CampaignResult streamed =
        exp::run_campaign_streaming(grid, {.workers = workers});
    const bool ok = materialized.digest() == reference.digest() &&
                    streamed.digest() == reference.digest();
    all_match = all_match && ok;
    table.add_row({"materialized", Table::num(materialized.workers_used),
                   Table::num(materialized.scenario_count),
                   materialized.digest() == reference.digest() ? "yes" : "NO"});
    table.add_row({"streaming", Table::num(streamed.workers_used),
                   Table::num(streamed.scenario_count), ok ? "yes" : "NO"});
  }
  std::cout << table;
  std::cout << (all_match
                    ? "every path/worker combination reproduces the serial "
                      "materialized digest byte-identically.\n\n"
                    : "DIGEST MISMATCH — the streaming fold diverged from the "
                      "materialized aggregation.\n\n");
  if (!all_match) std::exit(2);
}

// ---- 2. huge-n grids --------------------------------------------------------

void report_huge_n() {
  print_section(std::cout, "Huge-n streaming sweeps");
  const std::vector<std::size_t> sizes =
      smoke() ? std::vector<std::size_t>{10'000}
              : std::vector<std::size_t>{100'000, 1'000'000};
  Table table({"n", "k", "scenarios", "wall ms", "moves/agent", "ok",
               "peak RSS MiB"});
  for (const std::size_t n : sizes) {
    exp::CampaignGrid grid;
    grid.algorithms = {core::Algorithm::KnownKFull};
    grid.schedulers = {sim::SchedulerKind::RoundRobin};
    grid.node_counts = {n};
    grid.agent_counts = {8};
    grid.seeds = smoke() ? 1 : 2;
    const auto start = std::chrono::steady_clock::now();
    const exp::CampaignResult result =
        exp::run_campaign_streaming(grid, {.workers = 1});
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    const exp::Averages avg = result.averages(
        exp::CellKey{core::Algorithm::KnownKFull, exp::ConfigFamily::RandomAny,
                     sim::SchedulerKind::RoundRobin, n, 8, 1});
    table.add_row({Table::num(n), "8", Table::num(result.scenario_count),
                   Table::num(ms, 0), Table::num(avg.moves / 8.0, 0),
                   result.all_ok() ? "yes" : "NO",
                   Table::num(peak_rss_mib(), 0)});
  }
  std::cout << table;
  std::cout << "per-agent moves stay O(n log k)-shaped as n climbs; the only\n"
               "n-sized memory is the single pooled ExecutionState arena.\n\n";
}

// ---- 3. scenario scale under a budget ---------------------------------------

void report_scenario_scale() {
  print_section(std::cout, "10^6-scenario stream under a memory budget");
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.schedulers = {sim::SchedulerKind::RoundRobin};
  grid.node_counts = {16};
  grid.agent_counts = {2};
  grid.seeds = smoke() ? 10'000 : 1'000'000;

  exp::CampaignOptions options;
  options.memory_budget_bytes = 1 << 20;  // 1 MiB of accumulator — plenty
  const auto start = std::chrono::steady_clock::now();
  const exp::CampaignResult result = exp::run_campaign_streaming(grid, options);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  const std::size_t accumulator_bytes =
      result.cells.size() *
      exp::streaming_cell_footprint_bytes(options) *
      (result.workers_used + 1);
  const std::size_t materialized_bytes =
      result.scenario_count *
      (sizeof(exp::ScenarioResult) + sizeof(exp::Scenario));
  Table table({"scenarios", "wall ms", "scenarios/s", "cells",
               "accumulator bytes", "materialized would hold", "ok"});
  table.add_row({Table::num(result.scenario_count), Table::num(ms, 0),
                 Table::num(1000.0 * static_cast<double>(result.scenario_count) / ms, 0),
                 Table::num(result.cells.size()),
                 Table::num(accumulator_bytes),
                 Table::num(materialized_bytes),
                 result.all_ok() && result.cells_skipped == 0 ? "yes" : "NO"});
  std::cout << table;
  std::cout << "the stream held O(cells + workers) aggregation state — "
            << accumulator_bytes << " bytes vs the "
            << materialized_bytes
            << " a materialized result vector would pin.\n\n";
}

// ---- 4. checked-fuzz oracle at n = 4096 -------------------------------------

[[nodiscard]] explore::FuzzOptions oracle_options(explore::OracleMode oracle,
                                                 std::size_t n) {
  explore::FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKFull;
  options.min_nodes = options.max_nodes = n;
  options.min_agents = options.max_agents = 8;
  options.iterations = smoke() ? 1 : 3;
  options.workers = 1;
  options.oracle = oracle;
  return options;
}

void report_oracle() {
  print_section(std::cout, "Checked-fuzz oracle: full vs incremental");
  const std::size_t n = smoke() ? 512 : 4096;
  Table table({"oracle", "n", "actions", "wall ms", "steps/s"});
  double full_ms = 0, incremental_ms = 0;
  std::uint64_t full_digest = 0, incremental_digest = 0;
  // One untimed pass of each mode first: otherwise whichever runs first
  // pays the process's cold start (first-touch allocation) alone.
  for (const explore::OracleMode oracle :
       {explore::OracleMode::Full, explore::OracleMode::Incremental}) {
    (void)explore::run_fuzz(oracle_options(oracle, n));
  }
  for (const explore::OracleMode oracle :
       {explore::OracleMode::Full, explore::OracleMode::Incremental}) {
    const auto start = std::chrono::steady_clock::now();
    const explore::FuzzReport report =
        explore::run_fuzz(oracle_options(oracle, n));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    (oracle == explore::OracleMode::Full ? full_ms : incremental_ms) = ms;
    (oracle == explore::OracleMode::Full ? full_digest : incremental_digest) =
        report.digest;
    table.add_row({std::string(explore::to_string(oracle)), Table::num(n),
                   Table::num(report.total_actions), Table::num(ms, 1),
                   Table::num(1000.0 * static_cast<double>(report.total_actions) / ms, 0)});
  }
  std::cout << table;
  const double speedup = full_ms / incremental_ms;
  std::cout << "incremental oracle speedup at n=" << n << ": "
            << Table::num(speedup, 2) << "x, report digests "
            << (full_digest == incremental_digest ? "match" : "DIFFER") << ".\n";
  if (full_digest != incremental_digest) std::exit(2);
}

void print_report() {
  std::cout << "Streaming campaign engine: bounded-memory aggregation + "
               "checked-fuzz oracle cost.\n\n";
  report_equivalence();
  report_huge_n();
  report_scenario_scale();
  report_oracle();
}

// ---- google-benchmark timings (the BENCH_streaming.json trajectory) ---------

void register_timings() {
  benchmark::RegisterBenchmark(
      "streaming_campaign/n=32..64/seeds=8",
      [](benchmark::State& state) {
        exp::CampaignGrid grid;
        grid.algorithms = {core::Algorithm::KnownKFull};
        grid.schedulers = {sim::SchedulerKind::RoundRobin};
        grid.node_counts = {32, 64};
        grid.agent_counts = {4, 8};
        grid.seeds = 8;
        for (auto _ : state) {
          const exp::CampaignResult result =
              exp::run_campaign_streaming(grid, {.workers = 1});
          benchmark::DoNotOptimize(result.scenario_hash);
          if (!result.all_ok()) state.SkipWithError("campaign failed");
        }
      })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "materialized_campaign/n=32..64/seeds=8",
      [](benchmark::State& state) {
        exp::CampaignGrid grid;
        grid.algorithms = {core::Algorithm::KnownKFull};
        grid.schedulers = {sim::SchedulerKind::RoundRobin};
        grid.node_counts = {32, 64};
        grid.agent_counts = {4, 8};
        grid.seeds = 8;
        for (auto _ : state) {
          const exp::CampaignResult result =
              exp::run_campaign(grid, {.workers = 1});
          benchmark::DoNotOptimize(result.scenario_hash);
          if (!result.all_ok()) state.SkipWithError("campaign failed");
        }
      })
      ->Unit(benchmark::kMillisecond);
  for (const explore::OracleMode oracle :
       {explore::OracleMode::Full, explore::OracleMode::Incremental}) {
    const std::string name = std::string("checked_fuzz_oracle/") +
                             std::string(explore::to_string(oracle)) +
                             "/n=512";
    benchmark::RegisterBenchmark(
        name.c_str(),
        [oracle](benchmark::State& state) {
          explore::FuzzOptions options = oracle_options(oracle, 512);
          options.iterations = 1;
          std::uint64_t iteration = 0;
          std::size_t actions = 0;
          for (auto _ : state) {
            const explore::FuzzIteration outcome =
                explore::fuzz_iteration(options, iteration++);
            if (outcome.failure) state.SkipWithError("unexpected fuzz failure");
            actions += outcome.actions;
          }
          state.SetItemsProcessed(static_cast<std::int64_t>(actions));
          state.counters["steps/s"] = benchmark::Counter(
              static_cast<double>(actions), benchmark::Counter::kIsRate);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, print_report, register_timings);
}
