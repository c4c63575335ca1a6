// udring/exp/campaign.h
//
// The parallel experiment campaign engine.
//
// Every reproduction artifact in this repo — the Table-1 sweep, the figure
// benches, the stress suites — is the same shape of computation: a grid of
// scenarios (algorithm × configuration family × scheduler × n × k × l ×
// seed), each run in an isolated ExecutionState, reduced to per-cell averages.
// The engine makes that shape declarative and parallel:
//
//   CampaignGrid grid;
//   grid.algorithms  = {core::Algorithm::KnownKFull};
//   grid.node_counts = {64, 128, 256};
//   grid.agent_counts = {8, 16};
//   grid.seeds = 5;
//   CampaignResult result = run_campaign(grid, {.workers = 8});
//
// Determinism contract: the expansion order of a grid is fixed, every
// scenario's randomness derives from Rng(base_seed).substream(key) where the
// key covers the instance coordinates (family, n, k, l, repetition) — but
// not the algorithm or scheduler, so every algorithm × scheduler cell sees
// the same drawn configurations (paired comparisons) — and aggregation is
// *order-independent by construction*: cell sums are exact integers
// (associative), the per-scenario digest component is a commutative
// hash-sum, and failure samples keep the lowest scenario indices. The same
// grid therefore produces *byte-identical* results — digest(), summary(),
// every cell — at any worker count, and identically through either
// aggregation path (test_campaign.cpp / test_streaming.cpp pin this).
// Failures never abort the campaign; they are counted, sampled, and visible
// in the summary so a 10^5-scenario sweep reports every bad cell at once.
//
// Two aggregation paths share all of the above:
//  - run_campaign: materialized — every ScenarioResult is kept,
//    index-aligned with the expansion (the inspectable form benches like
//    fig2 need).
//  - run_campaign_streaming: workers fold each ScenarioResult into a
//    per-worker cell accumulator the moment the scenario finishes and the
//    accumulators merge after the join, so a 10^6-scenario sweep runs in
//    O(cells + workers) memory — no per-scenario storage, no materialized
//    expansion (scenarios are recomputed from their index on the fly), and
//    an optional memory budget that drops whole cells (reported, never
//    silent) instead of exhausting the host.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "sim/execution_state.h"
#include "sim/fault.h"
#include "sim/scheduler.h"
#include "util/parallel.h"
#include "util/quantile_sketch.h"
#include "util/rng.h"
#include "util/table.h"

namespace udring::exp {

/// Initial-configuration families the paper's experiments draw from.
enum class ConfigFamily {
  RandomAny,        ///< uniform random homes, any symmetry
  RandomAperiodic,  ///< random homes re-drawn until symmetry degree 1
  Packed,           ///< Theorem-1 quarter-arc lower-bound witness
  Periodic,         ///< symmetry degree exactly l (requires l | n, l | k)
  Uniform,          ///< already uniformly deployed (fixed point)
};

[[nodiscard]] std::string_view to_string(ConfigFamily family) noexcept;

/// Draws a home configuration of the given family. Deterministic in `rng`.
[[nodiscard]] std::vector<std::size_t> draw_homes(ConfigFamily family,
                                                  std::size_t n, std::size_t k,
                                                  std::size_t l, Rng& rng);

/// One fully-instantiated point of a campaign grid.
struct Scenario {
  std::size_t index = 0;  ///< position in the grid's expansion (result slot)
  core::Algorithm algorithm = core::Algorithm::KnownKFull;
  ConfigFamily family = ConfigFamily::RandomAny;
  sim::SchedulerKind scheduler = sim::SchedulerKind::Synchronous;
  std::size_t node_count = 0;   ///< n
  std::size_t agent_count = 0;  ///< k
  std::size_t symmetry = 1;     ///< l (Periodic family; 1 elsewhere)
  std::uint64_t repetition = 0; ///< seed repetition within the cell
  /// Goal the run is judged against (core::make_goal_oracle); Auto = the
  /// algorithm's natural problem.
  core::ProblemSpec problem;
  /// Fault profile the run executes under (sim::FaultPlan; empty = the
  /// fault-free paper model). Like the problem axis it does NOT enter the
  /// scenario substream key, so every fault cell of an (n, k, l, rep) point
  /// replays the same drawn configuration — degradation columns are paired
  /// faulty-vs-clean comparisons.
  sim::FaultPlan fault;
};

/// Declarative scenario grid: the cross product of all vectors, repeated
/// `seeds` times. Combinations that cannot exist are skipped during
/// expansion rather than failing the campaign: k > n always; Packed with
/// k > ⌈n/4⌉; Periodic unless l | n, l | k and an aperiodic factor exists.
///
/// (n, k) points come either from node_counts × agent_counts, or — when the
/// sweep pairs k to n (k = n/8 and friends) — from explicit `instances`,
/// which takes precedence when non-empty.
struct CampaignGrid {
  std::vector<core::Algorithm> algorithms;
  /// Problem axis: each algorithm is judged against each listed goal
  /// (core::ProblemSpec; the default single Auto entry = every algorithm's
  /// natural problem, which reproduces the historical expansion exactly).
  /// Like the instance coordinates, the problem does NOT enter the scenario
  /// substream key, so all problem cells of an (n, k, l, rep) point see the
  /// same drawn configuration — cross-problem comparisons are paired.
  std::vector<core::ProblemSpec> problems = {{}};
  /// Fault axis: every scenario runs under each listed sim::FaultPlan (the
  /// default single empty entry = the fault-free paper model, which
  /// reproduces the historical expansion and digest bytes exactly). A
  /// non-empty plan replaces sim_options.faults for its cells; crucially the
  /// axis is excluded from the scenario substream key, so each fault profile
  /// is measured on identical drawn configurations and the per-profile
  /// success-rate / moves / p99-makespan deltas are paired comparisons.
  std::vector<sim::FaultPlan> fault_plans = {{}};
  std::vector<ConfigFamily> families = {ConfigFamily::RandomAny};
  std::vector<sim::SchedulerKind> schedulers = {sim::SchedulerKind::Synchronous};
  std::vector<std::size_t> node_counts;
  std::vector<std::size_t> agent_counts;
  std::vector<std::pair<std::size_t, std::size_t>> instances;  ///< (n, k) pairs
  std::vector<std::size_t> symmetries = {1};
  std::size_t seeds = 1;          ///< repetitions per cell
  std::uint64_t base_seed = 1;    ///< root of every scenario substream
  sim::SimOptions sim_options;    ///< forwarded to every Instance
};

/// The grid's deterministic expansion (loop order: algorithm, problem,
/// fault, family, scheduler, n, k, l, repetition), with infeasible
/// combinations skipped. Scenario i of the returned vector has index == i.
[[nodiscard]] std::vector<Scenario> expand(const CampaignGrid& grid);

/// Aggregation key: one cell of the reported table (seed repetitions of the
/// same cell fold together). Also the compact O(cells) unit of the
/// expansion: the expansion IS expand_cells(grid) × seeds, repetition
/// innermost.
struct CellKey {
  core::Algorithm algorithm;
  ConfigFamily family;
  sim::SchedulerKind scheduler;
  std::size_t node_count;
  std::size_t agent_count;
  std::size_t symmetry;
  /// The grid's problem axis. Kept LAST with a default initializer: CellKey
  /// predates the field and is positionally aggregate-initialized at many
  /// call sites — extend this struct only at the end.
  core::ProblemSpec problem = {};
  /// The grid's fault axis (same extend-only-at-the-end rule; empty plan =
  /// the fault-free historical cell, which keeps default-initialized keys
  /// and digests byte-identical to the pre-fault layout).
  sim::FaultPlan fault = {};

  auto operator<=>(const CellKey&) const = default;
};

/// The grid's feasible cells in expansion order — the O(cells) form of the
/// expansion a streaming campaign iterates without ever materializing the
/// scenario list. expand(grid) == flatten(expand_cells(grid) × grid.seeds).
[[nodiscard]] std::vector<CellKey> expand_cells(const CampaignGrid& grid);

/// Number of scenarios expand(grid) would produce, in O(cells) memory.
[[nodiscard]] std::size_t expansion_size(const CampaignGrid& grid);

/// Scenario `index` of the expansion `cells` × `seeds` (repetition
/// innermost) — the O(1) random-access form of expand()[index].
[[nodiscard]] Scenario scenario_at(const std::vector<CellKey>& cells,
                                   std::size_t seeds, std::size_t index);

/// Outcome of one scenario. Written exactly once, into the scenario's own
/// slot of CampaignResult::results — workers never share accumulators.
/// The hot struct carries only the five measures; failure text and final
/// positions live behind one cold pointer, so the all-success sweep stores
/// ~48 bytes per scenario with zero per-scenario heap traffic
/// (test_campaign.cpp pins both with a counting allocator).
struct ScenarioResult {
  bool success = false;
  std::size_t total_moves = 0;
  std::uint64_t makespan = 0;
  std::size_t max_memory_bits = 0;
  std::size_t actions = 0;

  /// Off-path data: allocated only on failure or when the options request
  /// final positions.
  struct Cold {
    std::string failure;
    std::vector<std::size_t> final_positions;
  };
  std::unique_ptr<Cold> cold;

  /// The failure text ("" on the success path).
  [[nodiscard]] std::string_view failure() const noexcept {
    return cold ? std::string_view(cold->failure) : std::string_view{};
  }
  /// Final staying positions (empty unless record_final_positions was set).
  [[nodiscard]] std::span<const std::size_t> final_positions() const noexcept {
    return cold ? std::span<const std::size_t>(cold->final_positions)
                : std::span<const std::size_t>{};
  }
  [[nodiscard]] Cold& ensure_cold() {
    if (!cold) cold = std::make_unique<Cold>();
    return *cold;
  }
};

/// Seed-averaged measurements of one cell (the paper's three measures plus
/// the success rate), with the tail statistics a deployment actually wants:
/// p50/p90/p99 of moves and makespan from the cell's mergeable quantile
/// sketches (exact below 256, ≤ 1/16 relative error above).
struct Averages {
  double moves = 0;
  double makespan = 0;
  double memory_bits = 0;
  double success_rate = 0;
  std::size_t runs = 0;
  double moves_p50 = 0;
  double moves_p90 = 0;
  double moves_p99 = 0;
  double makespan_p50 = 0;
  double makespan_p90 = 0;
  double makespan_p99 = 0;
};

/// Lowest-index-N failure samples: (scenario index, description), ascending
/// by index, maintained by bounded insertion (see CampaignOptions caps).
using FailureSamples = std::vector<std::pair<std::size_t, std::string>>;

/// The per-cell accumulator both aggregation paths fold ScenarioResults
/// into. Sums are exact integers deliberately: integer addition is
/// associative, so per-worker partial accumulators merge to the *same
/// bytes* as an index-order fold — that associativity is what lets the
/// streaming path keep the worker-count-invariant digest contract without
/// ever ordering scenarios. A single process cannot overflow them (the
/// expansion is size_t-bounded and each scenario's measures are bounded by
/// its resolved action limit), but a cross-machine merged sweep CAN: the
/// shard/accumulator merge paths (merge_accumulators, exp::merge_shards)
/// therefore use checked addition and fail loudly on saturation instead of
/// wrapping into silently-wrong tables.
struct CellStats {
  std::size_t runs = 0;
  std::size_t successes = 0;
  std::uint64_t moves_sum = 0;
  std::uint64_t makespan_sum = 0;
  std::uint64_t memory_bits_sum = 0;
  std::uint64_t actions_sum = 0;
  /// The cell's lowest-index failing scenarios, ≤ max_failures_per_cell of
  /// them, ascending (scenario index, description) — failure *sampling*, so
  /// a cell that fails 10^5 times costs M strings, not 10^5.
  FailureSamples failure_samples;
  /// Mergeable per-cell quantile sketches over each scenario's total moves
  /// and makespan. Element-wise commutative merges (util/quantile_sketch.h),
  /// so — like the integer sums — they are byte-identical at any worker,
  /// shard or checkpoint partition of the scenario set.
  QuantileSketch moves_sketch;
  QuantileSketch makespan_sketch;

  [[nodiscard]] Averages averages() const;
};

/// Merges `from` into `into` with CHECKED sums: any wrapping of runs/
/// successes or a measure sum throws std::overflow_error naming the field —
/// a merged cross-machine sweep that big must fail loudly, not report
/// garbage averages. `max_failures_per_cell` bounds the merged sample list.
void merge_cell_stats(CellStats& into, CellStats&& from,
                      std::size_t max_failures_per_cell);

struct CampaignOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  std::size_t workers = 0;
  /// Record each scenario's final staying positions (materialized path
  /// only; the streaming path never stores per-scenario data).
  bool record_final_positions = false;
  /// How many failing scenarios to describe verbatim in the summary.
  std::size_t max_recorded_failures = 16;
  /// Failure strings kept per cell (CellStats::failure_samples).
  std::size_t max_failures_per_cell = 4;
  /// Streaming path only: byte budget for ONE aggregation store (each
  /// worker holds one during the run, the merged result is one more).
  /// When cells × streaming_cell_footprint_bytes() exceeds it, trailing
  /// cells of the expansion are skipped — their scenarios never run — and
  /// reported in cells_skipped / skipped_cell_samples. 0 = unlimited.
  /// Deliberately independent of the worker count so the digest contract
  /// holds even when the budget binds.
  std::size_t memory_budget_bytes = 0;
  /// Streaming path only: checkpoint/resume. When non-empty, the run folds
  /// scenarios in watermark blocks and atomically replaces this file (a
  /// versioned exp::ShardFile, write-temp + rename) after each block, so a
  /// kill -9 at any point loses at most one checkpoint interval. If the file
  /// already exists when the run starts, it is validated against the grid
  /// fingerprint (mismatch throws — resuming someone else's sweep corrupts
  /// both) and the run continues from its watermark. The final digest is
  /// byte-identical to an uninterrupted run at any kill/resume point: the
  /// watermark blocks are just another partition of the scenario set, and
  /// every fold is commutative (tests/test_shard.cpp pins this).
  std::string checkpoint_path{};
  /// Scenarios per checkpoint block (watermark granularity). 0 with a
  /// checkpoint_path set = write only the final file (a complete shard).
  std::size_t checkpoint_every_scenarios = 0;
  /// TEST/OPS HOOK: abort (throw CampaignAborted) after this many checkpoint
  /// writes if scenarios remain — simulates a mid-sweep kill with the
  /// on-disk state a real crash would leave. 0 = off.
  std::size_t checkpoint_abort_after = 0;
};

/// Thrown by the checkpoint_abort_after test hook after the requested number
/// of checkpoint writes. The checkpoint file on disk is exactly what a
/// process killed at that watermark would leave behind.
struct CampaignAborted : std::runtime_error {
  explicit CampaignAborted(const std::string& what, std::size_t watermark_)
      : std::runtime_error(what), watermark(watermark_) {}
  std::size_t watermark = 0;  ///< scenarios folded into the file so far
};

/// Conservative per-cell byte estimate the streaming budget divides by:
/// map-node + CellStats + sampled-failure-string allowance.
[[nodiscard]] std::size_t streaming_cell_footprint_bytes(
    const CampaignOptions& options) noexcept;

struct CampaignResult {
  std::vector<Scenario> scenarios;       ///< materialized path only
  std::vector<ScenarioResult> results;   ///< materialized path only
  std::map<CellKey, CellStats> cells;    ///< deterministic iteration order
  std::size_t scenario_count = 0;        ///< scenarios run (both paths)
  std::size_t failures = 0;
  std::vector<std::string> failure_samples;  ///< lowest-index N failures
  std::size_t workers_used = 0;
  bool streamed = false;                 ///< which path produced this
  /// Streaming budget bookkeeping: cells dropped to respect
  /// memory_budget_bytes (their scenarios were never run), plus the first
  /// few dropped keys for the report.
  std::size_t cells_skipped = 0;
  std::size_t scenarios_skipped = 0;
  std::vector<CellKey> skipped_cell_samples;
  /// Commutative (wrapping) sum of per-scenario outcome hashes — the
  /// scenario half of digest(), cached by both aggregation paths so the
  /// streaming one never needs the results it discarded.
  std::uint64_t scenario_hash = 0;

  [[nodiscard]] bool all_ok() const noexcept { return failures == 0; }

  /// Cell lookup; null when the cell is not in the grid (or fully skipped).
  [[nodiscard]] const CellStats* cell(const CellKey& key) const;

  /// Convenience: the averages of a cell, zeroed when absent.
  [[nodiscard]] Averages averages(const CellKey& key) const;

  /// 64-bit digest of every scenario outcome (index-keyed commutative
  /// hash-sum) and every aggregated cell (key-order fold). Equal digests at
  /// different worker counts — and between run_campaign and
  /// run_campaign_streaming on the same grid (with record_final_positions
  /// off) — is the determinism contract.
  [[nodiscard]] std::uint64_t digest() const;

  /// Aggregated per-cell table (one row per cell, expansion order).
  [[nodiscard]] Table summary_table() const;

  /// Rendered summary: the table plus failure count and samples. Two runs of
  /// the same grid compare byte-identical via this string.
  [[nodiscard]] std::string summary() const;
};

// The engine's sharding primitive moved down a layer to util/parallel.h
// (core::run_many needs it below exp/); the campaign engine and the
// schedule explorer now share udring::parallel_for_index /
// parallel_for_workers. Re-exported here for existing exp:: callers.
using udring::parallel_for_index;
using udring::parallel_for_workers;
using udring::resolve_workers;

/// Runs every scenario of `grid` across a worker pool and aggregates.
/// A scenario's randomness is Rng(grid.base_seed).substream(key), where the
/// key hashes only the instance coordinates (family, n, k, l, repetition):
/// home configurations and scheduler seeds never depend on which worker
/// runs the scenario or in what order, and algorithm/scheduler cells share
/// instances. Use scenario_homes() to recompute a scenario's configuration
/// externally — it applies the exact same derivation. A scenario that
/// throws is recorded as a failure with the exception text; the campaign
/// always completes.
[[nodiscard]] CampaignResult run_campaign(const CampaignGrid& grid,
                                          const CampaignOptions& options = {});

/// Streaming mode of run_campaign: identical scenarios, identical
/// per-scenario execution, but each worker folds every ScenarioResult into
/// its own cell accumulator the moment the scenario finishes, and the
/// accumulators merge (exactly — integer sums, commutative hash-sum,
/// lowest-index samples) after the join. The campaign holds O(cells +
/// workers) state regardless of scenario count: no results vector, no
/// materialized expansion (scenario i is recomputed from i on the fly), so
/// a 10^6-scenario sweep's resident set is flat. cells/digest()/summary()
/// are byte-identical to the materialized path on the same grid;
/// scenarios/results stay empty and record_final_positions is ignored.
[[nodiscard]] CampaignResult run_campaign_streaming(
    const CampaignGrid& grid, const CampaignOptions& options = {});

/// The order-invariant aggregation state the streaming path folds into —
/// now a first-class value so partial folds can cross process boundaries:
/// per-worker accumulators, checkpoint files and shard files all carry one,
/// and any merge order reproduces the in-process fold byte for byte (the
/// global failure samples keep their scenario indices here precisely so a
/// cross-shard merge can still select the lowest-index N).
struct CampaignAccumulator {
  std::map<CellKey, CellStats> cells;
  std::uint64_t scenario_hash = 0;  ///< commutative (wrapping by design)
  std::size_t failures = 0;
  FailureSamples failure_samples;
};

/// Merges `from` into `into`. Cell sums are CHECKED (std::overflow_error on
/// saturation, see merge_cell_stats); the scenario hash wraps by design;
/// sample buffers merge by lowest index under the given caps. Commutative
/// across any partition of a scenario set into accumulators.
void merge_accumulators(CampaignAccumulator& into, CampaignAccumulator&& from,
                        std::size_t max_failures_per_cell,
                        std::size_t max_recorded_failures);

/// Runs scenarios [begin, end) of the grid's budget-admitted expansion
/// (exactly the set run_campaign_streaming would run — a binding
/// memory_budget_bytes truncates the cell list identically here) and folds
/// them into `into` through the same per-worker-accumulator machinery,
/// honoring workers. This is the primitive the checkpoint loop
/// and the multi-process shard driver (exp::run_campaign_shard) are built
/// on: run_campaign_streaming(grid, o) == fold of run_campaign_range over
/// any partition of [0, admitted scenario count). Throws
/// std::invalid_argument when end exceeds the admitted scenario count.
/// Returns the worker count used.
std::size_t run_campaign_range(const CampaignGrid& grid,
                               const CampaignOptions& options,
                               std::size_t begin, std::size_t end,
                               CampaignAccumulator& into);

/// The budget-admitted prefix of expand_cells(grid) plus the skip
/// bookkeeping for the dropped tail — the expansion the streaming engine,
/// the checkpoint loop and every shard of a multi-process sweep all iterate
/// (a function of (grid, options) only, never of workers — that is what
/// keeps the digest contract alive when the budget binds).
struct AdmittedExpansion {
  std::vector<CellKey> cells;  ///< admitted prefix, expansion order
  std::size_t cells_skipped = 0;
  std::size_t scenarios_skipped = 0;
  std::vector<CellKey> skipped_cell_samples;  ///< first ≤ 8 dropped keys
};

[[nodiscard]] AdmittedExpansion admit_cells(const CampaignGrid& grid,
                                            const CampaignOptions& options);

/// Number of scenarios the streaming path will actually run under these
/// options: expansion_size(grid) minus scenarios of cells skipped by a
/// binding memory_budget_bytes.
[[nodiscard]] std::size_t admitted_scenario_count(const CampaignGrid& grid,
                                                  const CampaignOptions& options);

/// Moves an accumulator's folds into a streamed CampaignResult (cells,
/// scenario hash, failure counts and sample texts). Shared by
/// run_campaign_streaming and exp::merge_shards so the two finishing paths
/// cannot drift.
void finalize_streaming_result(CampaignResult& result,
                               CampaignAccumulator&& merged);

/// The home configuration scenario `s` of `grid` runs on — the substream
/// contract makes it recomputable outside the engine, so reports can relate
/// initial configurations to outcomes without the engine storing them.
[[nodiscard]] std::vector<std::size_t> scenario_homes(const CampaignGrid& grid,
                                                      const Scenario& s);

/// Runs the single-cell campaign (n, k, l) × seeds and returns its averages
/// — the classic seed-averaged measurement the bench binaries report.
/// Throws std::invalid_argument when the cell is infeasible for the family
/// (l ∤ n, packed k > ⌈n/4⌉, …): a bench asking for an impossible cell is a
/// bug to surface, not a zero row to print.
[[nodiscard]] Averages measure_cell(core::Algorithm algorithm,
                                    ConfigFamily family, std::size_t n,
                                    std::size_t k, std::size_t l = 1,
                                    std::size_t seeds = 5,
                                    sim::SchedulerKind scheduler =
                                        sim::SchedulerKind::Synchronous,
                                    std::uint64_t base_seed = 1);

}  // namespace udring::exp
