// bench_mc_throughput — the exhaustive model checker's own artifact.
//
// Reports, for a small verification grid, the walk throughput
// (schedules/s and actions/s), the pruning economics (dedup hit-rate,
// sleep-set and DPOR cut counts), and the serial tree walk vs the
// parallel closure walk: shards over one lock-free shared visited set,
// with claim-order nondeterminism in WHO expands a state (never in the
// counts — they are functions of the claimed closure). Dedup, sleep sets
// and DPOR are what push the exhaustive grid to n=24 (2x the pre-DPOR
// maximum of n=12). The google-benchmark timings land in the BENCH_mc.json
// CI artifact like bench_campaign_engine's.
//
// Set UDRING_MC_SMOKE=1 for the tiny CI grid.

#include <chrono>
#include <cstdlib>

#include "mc/model_check.h"
#include "support/bench_common.h"

namespace {

using namespace udring;
using namespace udring::bench;

struct BenchCell {
  core::Algorithm algorithm;
  std::size_t n, k;
};

std::vector<BenchCell> bench_cells() {
  if (std::getenv("UDRING_MC_SMOKE") != nullptr) {
    return {{core::Algorithm::KnownKFull, 8, 3},
            {core::Algorithm::KnownKLogMem, 8, 3}};
  }
  return {{core::Algorithm::KnownKFull, 10, 3},
          {core::Algorithm::KnownKFull, 12, 4},
          // 2x the pre-DPOR maximum n: exhaustive only because dedup,
          // sleep sets and DPOR cut the interleaving tree.
          {core::Algorithm::KnownKFull, 24, 4},
          {core::Algorithm::KnownKLogMem, 8, 3},
          {core::Algorithm::KnownKLogMem, 10, 4},
          {core::Algorithm::KnownKLogMem, 20, 4}};
}

mc::CheckRequest cell_request(const BenchCell& cell) {
  mc::CheckRequest request;
  request.algorithm = cell.algorithm;
  request.node_count = cell.n;
  request.homes = gen::uniform_homes(cell.n, cell.k);
  return request;
}

double run_timed(const mc::CheckRequest& request, const mc::McOptions& options,
                 mc::ModelCheckReport& out) {
  const auto start = std::chrono::steady_clock::now();
  out = mc::check(request, options);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

std::string rate(double count, double ms) {
  return Table::num(ms > 0 ? 1000.0 * count / ms : 0.0, 0);
}

void print_report() {
  std::cout << "Model-checker throughput: exhaustive verification cells,\n"
               "serial tree walk vs closure walk (all cores).\n";

  print_section(std::cout, "Serial walk (full cross-subtree dedup)");
  Table serial_table({"algorithm", "n", "k", "wall ms", "states/s", "actions/s",
                      "dedup hit-rate", "sleep cut", "dpor cut", "verdict"});
  std::vector<mc::ModelCheckReport> serial_reports;
  std::vector<double> serial_ms_by_cell;
  for (const BenchCell& cell : bench_cells()) {
    mc::ModelCheckReport report;
    const double ms = run_timed(cell_request(cell), {}, report);
    serial_ms_by_cell.push_back(ms);
    const mc::McStats& s = report.stats;
    const double seen = static_cast<double>(s.states_expanded + s.states_deduped);
    serial_table.add_row(
        {std::string(core::to_string(cell.algorithm)), Table::num(cell.n),
         Table::num(cell.k), Table::num(ms, 2),
         rate(static_cast<double>(s.states_expanded), ms),
         rate(static_cast<double>(s.total_actions), ms),
         Table::num(seen > 0 ? static_cast<double>(s.states_deduped) / seen : 0,
                    3),
         Table::num(static_cast<double>(s.sleep_pruned), 0),
         Table::num(static_cast<double>(s.dpor_pruned), 0), report.verdict});
    serial_reports.push_back(std::move(report));
  }
  std::cout << serial_table;

  print_section(std::cout, "Closure walk (lock-free shared visited set)");
  Table shared_table({"algorithm", "n", "k", "wall ms", "shards", "states/s",
                      "dedup hit-rate", "speedup", "verdict match"});
  std::size_t i = 0;
  for (const BenchCell& cell : bench_cells()) {
    mc::McOptions options;
    options.workers = 0;  // all cores
    options.shared_visited = true;
    mc::ModelCheckReport report;
    const double ms = run_timed(cell_request(cell), options, report);
    const mc::McStats& s = report.stats;
    const double seen = static_cast<double>(s.states_expanded + s.states_deduped);
    shared_table.add_row(
        {std::string(core::to_string(cell.algorithm)), Table::num(cell.n),
         Table::num(cell.k), Table::num(ms, 2), Table::num(s.shards),
         rate(static_cast<double>(s.states_expanded), ms),
         Table::num(seen > 0 ? static_cast<double>(s.states_deduped) / seen : 0,
                    3),
         Table::num(serial_ms_by_cell[i] / (ms > 0 ? ms : 1), 2),
         report.verdict == serial_reports[i].verdict ? "yes" : "NO"});
    ++i;
  }
  std::cout << shared_table;

  std::cout << "\nClaim-first insertion makes the closure walk's counts a\n"
               "function of the claimed closure, so they are identical at any\n"
               "worker count. Its 2^22-slot table is allocated and zeroed per\n"
               "check, which dominates the smallest cells.\n";
}

void register_timings() {
  struct TimingCase {
    const char* name;
    std::size_t n, k;
    bool dedup, sleep, dpor, shared;
    std::size_t workers;
  };
  // The n=8 serial and no-pruning names predate DPOR and must keep existing
  // (bench_compare matches rows by name); their timings shift because the
  // default walk now carries backtrack sets. no-pruning turns DPOR off along
  // with the rest.
  static constexpr TimingCase kCases[] = {
      {"mc/known-k-full/n=8/k=3/serial", 8, 3, true, true, true, false, 1},
      {"mc/known-k-full/n=8/k=3/no-pruning", 8, 3, false, false, false, false,
       1},
      {"mc/known-k-full/n=8/k=3/no-dpor", 8, 3, true, true, false, false, 1},
      {"mc/known-k-full/n=8/k=3/shared-visited-w8", 8, 3, true, true, true,
       true, 8},
      // Exhaustive at 2x the pre-DPOR maximum n.
      {"mc/known-k-full/n=24/k=4/serial", 24, 4, true, true, true, false, 1},
  };
  for (const TimingCase& c : kCases) {
    benchmark::RegisterBenchmark(
        c.name,
        [c](benchmark::State& state) {
          mc::CheckRequest request;
          request.algorithm = core::Algorithm::KnownKFull;
          request.node_count = c.n;
          request.homes = gen::uniform_homes(c.n, c.k);
          mc::McOptions options;
          options.dedup_states = c.dedup;
          options.sleep_sets = c.sleep;
          options.dpor = c.dpor;
          options.shared_visited = c.shared;
          options.workers = c.workers;
          // The unpruned tree at n=8,k=3 is large; bound it so the timing
          // measures walk throughput, not tree size.
          if (!c.dedup) options.budget_actions = 2000000;
          for (auto _ : state) {
            const mc::ModelCheckReport report = mc::check(request, options);
            benchmark::DoNotOptimize(report.stats.total_actions);
            if (!report.ok) state.SkipWithError("unexpected violation");
          }
          const mc::ModelCheckReport last = mc::check(request, options);
          state.counters["schedules"] =
              static_cast<double>(last.stats.schedules);
          state.counters["states"] =
              static_cast<double>(last.stats.states_expanded);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench_main(argc, argv, print_report, register_timings);
}
