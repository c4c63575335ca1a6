// bench/support/bench_common.h
//
// Shared plumbing for the per-table/per-figure bench binaries, now a thin
// veneer over the exp/campaign engine: configuration families, seed-averaged
// cell measurements and grid sweeps all come from exp::, so every binary's
// report is a campaign and parallelizes/reproduces like one. Every binary
// prints its paper-style report first (that output is the reproduction
// artifact) and then runs its registered google-benchmark timings.

#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "config/generators.h"
#include "core/runner.h"
#include "exp/campaign.h"
#include "util/rng.h"
#include "util/table.h"

namespace udring::bench {

using exp::Averages;
using exp::ConfigFamily;
using exp::draw_homes;

/// Seed-averaged measurement of one (algorithm, configuration family) cell,
/// delegated to the campaign engine (substream-seeded, reproducible).
/// measure_cell rides the streaming aggregation path, so every bench
/// binary's sweep — table1, fig2, the ablations — runs in O(cells +
/// workers) memory at any n; huge-n grids are just more cells.
inline Averages measure(core::Algorithm algorithm, ConfigFamily family,
                        std::size_t n, std::size_t k, std::size_t l = 1,
                        std::size_t seeds = 5,
                        sim::SchedulerKind scheduler = sim::SchedulerKind::Synchronous) {
  return exp::measure_cell(algorithm, family, n, k, l, seeds, scheduler);
}

/// Registers a wall-clock google-benchmark for one algorithm/instance.
/// Iterations share one pooled core::RunContext, so the loop measures the
/// steady-state cost of a run (arena reuse, cached scheduler) rather than
/// repeated construction — the same shape production campaigns have.
inline void register_timing(const std::string& name, core::Algorithm algorithm,
                            ConfigFamily family, std::size_t n, std::size_t k,
                            std::size_t l = 1) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [=](benchmark::State& state) {
        core::RunContext ctx;
        std::uint64_t seed = 1;
        for (auto _ : state) {
          Rng rng(seed++);
          core::RunSpec spec;
          spec.node_count = n;
          spec.homes = draw_homes(family, n, k, l, rng);
          spec.scheduler = sim::SchedulerKind::RoundRobin;
          const core::RunReport report = ctx.run(algorithm, spec);
          benchmark::DoNotOptimize(report.total_moves);
          if (!report.success) state.SkipWithError("run failed");
        }
        state.counters["n"] = static_cast<double>(n);
        state.counters["k"] = static_cast<double>(k);
      })
      ->Unit(benchmark::kMillisecond);
}

/// The CPU model from /proc/cpuinfo ("" where it is absent), so a
/// committed BENCH_*.json names the machine its rows were measured on.
[[nodiscard]] inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) {
      continue;
    }
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

/// Standard main body: print the report, then run registered timings.
inline int run_bench_main(int argc, char** argv, void (*print_report)(),
                          void (*register_timings)()) {
  print_report();
  register_timings();
  benchmark::Initialize(&argc, argv);
  // The build type of THIS binary (and the udring library it links), not of
  // the google-benchmark package: distro libbenchmark reports its own
  // "library_build_type": "debug" in the JSON context even under a Release
  // build of ours, which once let a debug-built baseline slip into the
  // committed BENCH_*.json files. scripts/bench_compare.py hard-fails on a
  // debug value of this key.
#ifdef NDEBUG
  benchmark::AddCustomContext("udring_build_type", "release");
#else
  benchmark::AddCustomContext("udring_build_type", "debug");
#endif
  if (const std::string model = cpu_model(); !model.empty()) {
    benchmark::AddCustomContext("cpu_model", model);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace udring::bench
