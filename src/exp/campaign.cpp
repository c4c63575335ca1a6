#include "exp/campaign.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "config/generators.h"
#include "core/distance_sequence.h"
#include "exp/shard.h"
#include "util/bits.h"

namespace udring::exp {

std::string_view to_string(ConfigFamily family) noexcept {
  switch (family) {
    case ConfigFamily::RandomAny: return "random-any";
    case ConfigFamily::RandomAperiodic: return "random-aperiodic";
    case ConfigFamily::Packed: return "packed";
    case ConfigFamily::Periodic: return "periodic";
    case ConfigFamily::Uniform: return "uniform";
  }
  return "?";
}

std::vector<std::size_t> draw_homes(ConfigFamily family, std::size_t n,
                                    std::size_t k, std::size_t l, Rng& rng) {
  switch (family) {
    case ConfigFamily::RandomAny:
      return gen::random_homes(n, k, rng);
    case ConfigFamily::RandomAperiodic: {
      auto homes = gen::random_homes(n, k, rng);
      for (int i = 0; i < 64 && core::config_symmetry_degree(homes, n) != 1; ++i) {
        homes = gen::random_homes(n, k, rng);
      }
      return homes;
    }
    case ConfigFamily::Packed:
      return gen::packed_quarter_homes(n, k);
    case ConfigFamily::Periodic:
      return gen::periodic_homes(n, k, l, rng);
    case ConfigFamily::Uniform:
      return gen::uniform_homes(n, k);
  }
  return gen::random_homes(n, k, rng);
}

namespace {

/// Mirrors the generators' preconditions so expansion can skip infeasible
/// grid points instead of recording them as failures.
[[nodiscard]] bool feasible(ConfigFamily family, std::size_t n, std::size_t k,
                            std::size_t l) {
  if (k == 0 || n == 0 || k > n) return false;
  switch (family) {
    case ConfigFamily::Packed:
      return k <= ceil_div(n, 4);
    case ConfigFamily::Periodic:
      return l > 0 && n % l == 0 && k % l == 0 && k / l <= n / l &&
             (k / l > 1 || l == k);
    case ConfigFamily::RandomAny:
    case ConfigFamily::RandomAperiodic:
    case ConfigFamily::Uniform:
      return true;
  }
  return false;
}

/// Families that ignore `l` collapse every symmetry value to l = 1 so the
/// grid does not silently multiply identical scenarios.
[[nodiscard]] bool uses_symmetry(ConfigFamily family) noexcept {
  return family == ConfigFamily::Periodic;
}

/// The fault-axis analogue of feasible(): a plan that names a crash agent
/// ≥ k, or rewires a ring too small to have a coprime stride, is skipped at
/// that grid point instead of recorded as an exception failure.
[[nodiscard]] bool fault_feasible(const sim::FaultPlan& plan, std::size_t n,
                                  std::size_t k) {
  try {
    plan.validate(n, k);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Substream index for a scenario's randomness. Covers the *instance*
/// coordinates (family, n, k, l, repetition) but deliberately not the
/// algorithm or scheduler: every algorithm × scheduler cell of a grid is
/// measured on the same drawn configurations, so cross-algorithm and
/// cross-scheduler columns are paired comparisons, as in the paper's tables.
[[nodiscard]] std::uint64_t instance_key(const Scenario& s) noexcept {
  std::uint64_t key = 0;
  fold64(key, static_cast<std::uint64_t>(s.family));
  fold64(key, s.node_count);
  fold64(key, s.agent_count);
  fold64(key, s.symmetry);
  fold64(key, s.repetition);
  return key;
}

/// Builds the RunSpec scenario `s` executes — the substream derivation
/// run_one and scenario_homes share: homes drawn from the instance-keyed
/// substream, then one extra draw for the scheduler seed.
[[nodiscard]] core::RunSpec make_scenario_spec(const Scenario& scenario,
                                               const CampaignGrid& grid) {
  Rng rng = Rng(grid.base_seed).substream(instance_key(scenario));
  core::RunSpec spec;
  spec.node_count = scenario.node_count;
  spec.homes = draw_homes(scenario.family, scenario.node_count,
                          scenario.agent_count, scenario.symmetry, rng);
  spec.seed = rng();  // scheduler randomness, independent of the homes draw
  spec.scheduler = scenario.scheduler;
  spec.sim_options = grid.sim_options;
  // The fault axis replaces (not merges with) any grid-wide baseline plan:
  // each cell's label must describe exactly what its runs execute under.
  if (!scenario.fault.empty()) spec.sim_options.faults = scenario.fault;
  spec.problem = scenario.problem;
  return spec;
}

[[nodiscard]] std::string describe(const Scenario& s) {
  std::ostringstream text;
  text << core::to_string(s.algorithm) << ' ' << to_string(s.family) << ' '
       << sim::to_string(s.scheduler) << " n=" << s.node_count
       << " k=" << s.agent_count << " l=" << s.symmetry
       << " rep=" << s.repetition;
  // Appended only for an explicit problem so historical descriptions (and
  // the failure-sample strings built from them) stay byte-identical.
  if (s.problem.kind != core::Problem::Auto) {
    text << " problem=" << core::to_string(s.problem);
  }
  if (!s.fault.empty()) text << " fault=" << s.fault.label();
  return text.str();
}

/// Init state for the per-scenario outcome hash (see hash_scenario); its own
/// domain, distinct from the digest and substream salts.
constexpr std::uint64_t kScenarioHashSalt = 0x5ce7a210ba5eedULL;

/// One scenario's contribution to CampaignResult::scenario_hash: a
/// well-mixed 64-bit word over (index, outcome). Contributions combine by
/// wrapping addition — commutative and associative — so any partition of
/// the scenario set over any workers sums to the same value; the index
/// inside the hash is what keeps the sum sensitive to results landing on
/// the wrong scenario.
[[nodiscard]] std::uint64_t hash_scenario(std::size_t index,
                                          const ScenarioResult& r) {
  std::uint64_t h = kScenarioHashSalt;
  fold64(h, index);
  fold64(h, r.success ? 1 : 0);
  fold64(h, r.total_moves);
  fold64(h, r.makespan);
  fold64(h, r.max_memory_bits);
  fold64(h, r.actions);
  const std::span<const std::size_t> positions = r.final_positions();
  fold64(h, positions.size());
  for (const std::size_t position : positions) fold64(h, position);
  return h;
}

using SampleBuffer = FailureSamples;

/// Would insert_bounded keep an entry with this index? Checked before the
/// description string is built, so a failure-heavy sweep formats only the
/// ≤ cap samples it keeps, not every failing scenario.
[[nodiscard]] bool wants_index(const SampleBuffer& buffer, std::size_t cap,
                               std::size_t index) noexcept {
  return cap != 0 && (buffer.size() < cap || index < buffer.back().first);
}

/// Inserts (index, text) into a buffer that keeps the `cap` lowest-index
/// entries in ascending order. Workers see scenarios in work-stealing order,
/// so "first N failures" must mean "lowest N indices", maintained by
/// bounded insertion — that is what makes failure samples identical at any
/// worker count and across aggregation paths.
void insert_bounded(SampleBuffer& buffer, std::size_t cap, std::size_t index,
                    std::string text) {
  if (cap == 0) return;
  auto at = std::upper_bound(
      buffer.begin(), buffer.end(), index,
      [](std::size_t i, const auto& entry) { return i < entry.first; });
  // Duplicate-index guard: a scenario contributes at most one failure, so an
  // index already present means the same sample is being folded twice — a
  // merge of overlapping partial folds. merge_shards rejects overlapping
  // ranges outright; this guard keeps the accumulator merge itself from ever
  // double-counting a sample (defense in depth, pinned in test_campaign.cpp).
  if (at != buffer.begin() && std::prev(at)->first == index) return;
  if (at == buffer.end() && buffer.size() >= cap) return;
  buffer.insert(at, {index, std::move(text)});
  if (buffer.size() > cap) buffer.pop_back();
}

/// Folds one scenario's measures into its cell accumulator — THE
/// aggregation step, shared verbatim by the materialized fold and the
/// streaming per-worker fold so the two paths cannot drift.
void fold_into_cell(CellStats& stats, const ScenarioResult& r) {
  ++stats.runs;
  if (r.success) ++stats.successes;
  stats.moves_sum += r.total_moves;
  stats.makespan_sum += r.makespan;
  stats.memory_bits_sum += r.max_memory_bits;
  stats.actions_sum += r.actions;
  stats.moves_sketch.add(r.total_moves);
  stats.makespan_sketch.add(r.makespan);
}

/// Samples one failing scenario into the cell and global buffers, building
/// the description string at most once — and only when one of the bounded
/// buffers will actually keep it. Shared by both aggregation paths.
void sample_failure(CellStats& stats, SampleBuffer& global, const Scenario& s,
                    const ScenarioResult& r, const CampaignOptions& options) {
  const bool cell_wants =
      wants_index(stats.failure_samples, options.max_failures_per_cell, s.index);
  const bool global_wants =
      wants_index(global, options.max_recorded_failures, s.index);
  if (!cell_wants && !global_wants) return;
  std::string description = describe(s) + ": " + std::string(r.failure());
  if (cell_wants) {
    insert_bounded(stats.failure_samples, options.max_failures_per_cell,
                   s.index, description);
  }
  if (global_wants) {
    insert_bounded(global, options.max_recorded_failures, s.index,
                   std::move(description));
  }
}

// ---- scenario execution -----------------------------------------------------

/// Lean scenario epilogue: exactly the fields the aggregation folds
/// consume — core::finish_report's success/failure derivation (oracle on
/// quiescence, the action-limit text otherwise), the three complexity
/// measures, the action count, and the final positions only when
/// requested. None of the report-only extras (moves_by_phase, labels,
/// string copies) the RunReport allocates and the campaign discards.
[[nodiscard]] ScenarioResult finish_scenario(const sim::GoalOracle& oracle,
                                             const sim::ExecutionState& state,
                                             const sim::RunResult& result,
                                             bool record_final_positions) {
  ScenarioResult out;
  if (result.quiescent()) {
    const sim::CheckResult goal = oracle.check_goal(state);
    out.success = goal.ok;
    if (!goal.ok) out.ensure_cold().failure = goal.reason;
  } else {
    out.success = false;
    out.ensure_cold().failure =
        "action limit reached (livelock or broken algorithm)";
  }
  out.total_moves = state.metrics().total_moves();
  out.makespan = state.metrics().makespan();
  out.max_memory_bits = state.metrics().max_memory_bits();
  out.actions = result.actions;
  if (record_final_positions) {
    out.ensure_cold().final_positions = state.staying_nodes();
  }
  return out;
}

[[nodiscard]] ScenarioResult exception_result(const std::exception& error) {
  ScenarioResult out;
  out.success = false;
  out.ensure_cold().failure = std::string("exception: ") + error.what();
  return out;
}

/// One scenario through the lean epilogue — build the spec and instance,
/// reset the worker's pooled state, run, judge. `instance_slot` is
/// worker-owned storage keeping the Instance alive while ctx.state()
/// references it (RunContext::run would do this internally, but would also
/// assemble a full RunReport — moves_by_phase, sorted positions, label
/// mapping — that the campaign folds immediately discard).
ScenarioResult run_one(const Scenario& scenario, const CampaignGrid& grid,
                       bool record_final_positions, core::RunContext& ctx,
                       std::optional<sim::Instance>& instance_slot) {
  try {
    const core::RunSpec spec = make_scenario_spec(scenario, grid);
    const sim::Instance& instance =
        instance_slot.emplace(core::make_instance(scenario.algorithm, spec));
    ctx.state().reset(instance);
    sim::Scheduler& scheduler =
        ctx.scheduler(spec.scheduler, spec.seed, spec.homes.size());
    const sim::RunResult result = ctx.state().run(scheduler);
    return finish_scenario(ctx.oracle(scenario.algorithm, scenario.problem),
                           ctx.state(), result, record_final_positions);
  } catch (const std::exception& error) {
    return exception_result(error);
  }
}

/// The scenario loop shared by both aggregation paths: scenarios
/// [begin, end) of the expansion over `cells`, each worker with its own
/// pooled RunContext, claiming indices from the shared work-stealing
/// cursor. emit(worker, scenario, result) is called once per scenario, on
/// the claiming worker's thread, in claim order — safe because every fold
/// the callers apply is commutative and index-keyed. Scenarios keep their
/// GLOBAL expansion index everywhere (substream derivation, scenario hash,
/// failure samples), so a range run is literally a subset of the
/// whole-expansion run. Returns the worker count used.
std::size_t run_scenarios(
    const CampaignGrid& grid, const std::vector<CellKey>& cells,
    std::size_t begin, std::size_t end, std::size_t workers,
    bool record_final_positions,
    const std::function<void(std::size_t worker, const Scenario& s,
                             ScenarioResult&& r)>& emit) {
  std::vector<std::unique_ptr<core::RunContext>> contexts;
  std::vector<std::optional<sim::Instance>> instances(workers);
  contexts.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    contexts.push_back(std::make_unique<core::RunContext>());
  }
  return parallel_for_workers(
      end - begin, workers, [&](std::size_t worker, std::size_t local) {
        const Scenario s = scenario_at(cells, grid.seeds, begin + local);
        emit(worker, s,
             run_one(s, grid, record_final_positions, *contexts[worker],
                     instances[worker]));
      });
}

}  // namespace

std::vector<CellKey> expand_cells(const CampaignGrid& grid) {
  std::vector<std::pair<std::size_t, std::size_t>> points = grid.instances;
  if (points.empty()) {
    for (const std::size_t n : grid.node_counts) {
      for (const std::size_t k : grid.agent_counts) {
        points.emplace_back(n, k);
      }
    }
  }
  // The fault axis in canonical form: an empty axis means the single
  // fault-free plan, and every plan is normalized here so cell keys (and
  // hence digests and merge ordering) never depend on how the caller spelled
  // an equivalent plan.
  std::vector<sim::FaultPlan> fault_plans = grid.fault_plans;
  if (fault_plans.empty()) fault_plans.push_back({});
  for (sim::FaultPlan& plan : fault_plans) plan.normalize();
  std::vector<CellKey> cells;
  for (const core::Algorithm algorithm : grid.algorithms) {
    for (const core::ProblemSpec& problem : grid.problems) {
      for (const sim::FaultPlan& fault : fault_plans) {
        for (const ConfigFamily family : grid.families) {
          for (const sim::SchedulerKind scheduler : grid.schedulers) {
            for (const auto& [n, k] : points) {
              bool first_symmetry = true;
              for (const std::size_t l : grid.symmetries) {
                const std::size_t effective_l = uses_symmetry(family) ? l : 1;
                if (!uses_symmetry(family) && !first_symmetry) continue;
                first_symmetry = false;
                if (!feasible(family, n, k, effective_l)) continue;
                if (!fault_feasible(fault, n, k)) continue;
                cells.push_back(CellKey{algorithm, family, scheduler, n, k,
                                        effective_l, problem, fault});
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::size_t expansion_size(const CampaignGrid& grid) {
  return expand_cells(grid).size() * grid.seeds;
}

Scenario scenario_at(const std::vector<CellKey>& cells, std::size_t seeds,
                     std::size_t index) {
  const CellKey& cell = cells.at(index / seeds);
  Scenario s;
  s.index = index;
  s.algorithm = cell.algorithm;
  s.family = cell.family;
  s.scheduler = cell.scheduler;
  s.node_count = cell.node_count;
  s.agent_count = cell.agent_count;
  s.symmetry = cell.symmetry;
  s.repetition = index % seeds;
  s.problem = cell.problem;
  s.fault = cell.fault;
  return s;
}

std::vector<Scenario> expand(const CampaignGrid& grid) {
  // Built over the compact cell expansion so the materialized and streaming
  // paths agree on scenario order by construction.
  const std::vector<CellKey> cells = expand_cells(grid);
  std::vector<Scenario> scenarios;
  scenarios.reserve(cells.size() * grid.seeds);
  for (std::size_t i = 0; i < cells.size() * grid.seeds; ++i) {
    scenarios.push_back(scenario_at(cells, grid.seeds, i));
  }
  return scenarios;
}

Averages CellStats::averages() const {
  Averages avg;
  avg.runs = runs;
  const double denominator = runs > 0 ? static_cast<double>(runs) : 1.0;
  avg.moves = static_cast<double>(moves_sum) / denominator;
  avg.makespan = static_cast<double>(makespan_sum) / denominator;
  avg.memory_bits = static_cast<double>(memory_bits_sum) / denominator;
  avg.success_rate = static_cast<double>(successes) / denominator;
  avg.moves_p50 = moves_sketch.quantile(0.50);
  avg.moves_p90 = moves_sketch.quantile(0.90);
  avg.moves_p99 = moves_sketch.quantile(0.99);
  avg.makespan_p50 = makespan_sketch.quantile(0.50);
  avg.makespan_p90 = makespan_sketch.quantile(0.90);
  avg.makespan_p99 = makespan_sketch.quantile(0.99);
  return avg;
}

namespace {
/// Checked accumulate for the merge paths: cross-machine sweeps can push a
/// sum past 2^64, and a wrapped sum reports plausible-looking garbage —
/// fail loudly instead, naming the field.
void merge_sum(std::uint64_t& into, std::uint64_t from, const char* field) {
  const std::uint64_t sum = into + from;
  if (sum < into) {
    throw std::overflow_error(std::string("campaign merge: ") + field +
                              " overflows 64 bits (the merged sweep is too "
                              "large for exact sums; split the report)");
  }
  into = sum;
}
}  // namespace

void merge_cell_stats(CellStats& into, CellStats&& from,
                      std::size_t max_failures_per_cell) {
  std::uint64_t runs = into.runs;
  merge_sum(runs, from.runs, "runs");
  into.runs = static_cast<std::size_t>(runs);
  std::uint64_t successes = into.successes;
  merge_sum(successes, from.successes, "successes");
  into.successes = static_cast<std::size_t>(successes);
  merge_sum(into.moves_sum, from.moves_sum, "moves_sum");
  merge_sum(into.makespan_sum, from.makespan_sum, "makespan_sum");
  merge_sum(into.memory_bits_sum, from.memory_bits_sum, "memory_bits_sum");
  merge_sum(into.actions_sum, from.actions_sum, "actions_sum");
  into.moves_sketch.merge(from.moves_sketch);
  into.makespan_sketch.merge(from.makespan_sketch);
  for (auto& [index, text] : from.failure_samples) {
    insert_bounded(into.failure_samples, max_failures_per_cell, index,
                   std::move(text));
  }
}

void merge_accumulators(CampaignAccumulator& into, CampaignAccumulator&& from,
                        std::size_t max_failures_per_cell,
                        std::size_t max_recorded_failures) {
  into.scenario_hash += from.scenario_hash;  // wrapping by design
  std::uint64_t failures = into.failures;
  merge_sum(failures, from.failures, "failures");
  into.failures = static_cast<std::size_t>(failures);
  for (auto& [key, stats] : from.cells) {
    merge_cell_stats(into.cells[key], std::move(stats), max_failures_per_cell);
  }
  for (auto& [index, text] : from.failure_samples) {
    insert_bounded(into.failure_samples, max_recorded_failures, index,
                   std::move(text));
  }
}

const CellStats* CampaignResult::cell(const CellKey& key) const {
  const auto found = cells.find(key);
  return found == cells.end() ? nullptr : &found->second;
}

Averages CampaignResult::averages(const CellKey& key) const {
  const CellStats* stats = cell(key);
  return stats ? stats->averages() : Averages{};
}

namespace {
/// Init state for CampaignResult::digest — its own domain, deliberately
/// distinct from Rng::kSubstreamSalt so the result-hash and the
/// substream-derivation domains stay separated.
constexpr std::uint64_t kDigestSalt = 0xd16e57eeda7a600dULL;
}  // namespace

std::uint64_t CampaignResult::digest() const {
  std::uint64_t state = kDigestSalt;
  fold64(state, scenario_count);
  // The per-scenario component is the cached commutative hash-sum: the
  // streaming path has no results vector to walk, and the materialized path
  // computes the identical sum during aggregation.
  fold64(state, scenario_hash);
  for (const auto& [key, stats] : cells) {
    fold64(state, static_cast<std::uint64_t>(key.algorithm));
    fold64(state, static_cast<std::uint64_t>(key.family));
    fold64(state, static_cast<std::uint64_t>(key.scheduler));
    fold64(state, key.node_count);
    fold64(state, key.agent_count);
    fold64(state, key.symmetry);
    // Folded only for an explicit problem: the default Auto axis reproduces
    // the pre-problem digest bytes (BENCH_campaign.json et al. stay pinned).
    if (key.problem.kind != core::Problem::Auto) {
      fold64(state, static_cast<std::uint64_t>(key.problem.kind));
      fold64(state, key.problem.gather_g);
    }
    // Same contract for the fault axis: empty plans fold nothing, so
    // fault-free campaigns keep their pre-fault digest bytes.
    if (!key.fault.empty()) key.fault.fold_into(state);
    fold64(state, stats.runs);
    fold64(state, stats.successes);
    fold64(state, stats.moves_sum);
    fold64(state, stats.makespan_sum);
    fold64(state, stats.memory_bits_sum);
    fold64(state, stats.actions_sum);
  }
  fold64(state, failures);
  fold64(state, cells_skipped);
  fold64(state, scenarios_skipped);
  return state;
}

namespace {
/// "p50/p90/p99" tail-statistics cell, compact (one decimal only when the
/// interpolated estimate is fractional).
[[nodiscard]] std::string quantile_triple(double p50, double p90, double p99) {
  const auto one = [](double v) {
    return v == static_cast<double>(static_cast<std::uint64_t>(v))
               ? Table::num(static_cast<std::size_t>(v))
               : Table::num(v, 1);
  };
  return one(p50) + "/" + one(p90) + "/" + one(p99);
}
}  // namespace

Table CampaignResult::summary_table() const {
  // The "problem" and "fault" columns appear only when some cell carries an
  // explicit problem / a non-empty fault plan, so all-Auto fault-free
  // campaigns render their historical layout.
  bool show_problem = false;
  bool show_fault = false;
  for (const auto& [key, stats] : cells) {
    if (key.problem.kind != core::Problem::Auto) show_problem = true;
    if (!key.fault.empty()) show_fault = true;
  }
  std::vector<std::string> headers = {
      "algorithm", "family", "scheduler", "n", "k", "l", "runs", "ok",
      "moves", "moves p50/90/99", "time", "time p50/90/99", "mem bits"};
  if (show_fault) headers.insert(headers.begin() + 1, "fault");
  if (show_problem) headers.insert(headers.begin() + 1, "problem");
  Table table(std::move(headers));
  for (const auto& [key, stats] : cells) {
    const Averages avg = stats.averages();
    std::vector<std::string> row = {
        std::string(core::to_string(key.algorithm)),
        std::string(to_string(key.family)),
        std::string(sim::to_string(key.scheduler)), Table::num(key.node_count),
        Table::num(key.agent_count), Table::num(key.symmetry),
        Table::num(stats.runs), Table::num(avg.success_rate * 100.0, 1) + "%",
        Table::num(avg.moves, 1), quantile_triple(avg.moves_p50, avg.moves_p90,
                                                  avg.moves_p99),
        Table::num(avg.makespan, 1),
        quantile_triple(avg.makespan_p50, avg.makespan_p90, avg.makespan_p99),
        Table::num(avg.memory_bits, 1)};
    if (show_fault) {
      row.insert(row.begin() + 1,
                 key.fault.empty() ? "none" : key.fault.label());
    }
    if (show_problem) row.insert(row.begin() + 1, core::to_string(key.problem));
    table.add_row(std::move(row));
  }
  return table;
}

std::string CampaignResult::summary() const {
  std::ostringstream text;
  text << summary_table();
  text << "scenarios: " << scenario_count << "  failures: " << failures
       << "  workers: " << workers_used << "  digest: " << std::hex << digest()
       << std::dec << '\n';
  if (cells_skipped != 0) {
    text << "SKIPPED " << cells_skipped << " cell(s) / " << scenarios_skipped
         << " scenario(s) over the memory budget";
    for (const CellKey& key : skipped_cell_samples) {
      text << "\n  skipped " << core::to_string(key.algorithm) << ' '
           << to_string(key.family) << ' ' << sim::to_string(key.scheduler)
           << " n=" << key.node_count << " k=" << key.agent_count
           << " l=" << key.symmetry;
      if (key.problem.kind != core::Problem::Auto) {
        text << " problem=" << core::to_string(key.problem);
      }
      if (!key.fault.empty()) text << " fault=" << key.fault.label();
    }
    text << '\n';
  }
  for (const std::string& sample : failure_samples) {
    text << "  FAIL " << sample << '\n';
  }
  return text.str();
}

CampaignResult run_campaign(const CampaignGrid& grid,
                            const CampaignOptions& options) {
  CampaignResult result;
  result.scenarios = expand(grid);
  result.results.resize(result.scenarios.size());
  result.scenario_count = result.scenarios.size();

  // One pooled RunContext per worker: every scenario a worker executes
  // reuses the same ExecutionState arena and scheduler cache, so a
  // 1000-instance campaign performs O(workers), not O(instances),
  // steady-state heap allocations. Scenario *outputs* still go to
  // index-owned slots — pooling changes where the arena lives, not the
  // determinism story.
  result.workers_used = run_scenarios(
      grid, expand_cells(grid), 0, result.scenarios.size(),
      resolve_workers(result.scenarios.size(), options.workers),
      options.record_final_positions,
      [&](std::size_t /*worker*/, const Scenario& s, ScenarioResult&& r) {
        result.results[s.index] = std::move(r);
      });

  // Aggregation in scenario-index order. Every fold below is
  // order-independent anyway (integer sums, commutative hash-sum,
  // lowest-index sampling) — the same folds the streaming path applies
  // per worker — so this loop and a streaming merge produce identical
  // bytes; walking in index order here is just the natural iteration.
  SampleBuffer samples;
  for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
    const Scenario& s = result.scenarios[i];
    const ScenarioResult& r = result.results[i];
    result.scenario_hash += hash_scenario(i, r);
    CellStats& stats = result.cells[CellKey{s.algorithm, s.family, s.scheduler,
                                            s.node_count, s.agent_count,
                                            s.symmetry, s.problem, s.fault}];
    fold_into_cell(stats, r);
    if (!r.success) {
      ++result.failures;
      sample_failure(stats, samples, s, r, options);
    }
  }
  result.failure_samples.reserve(samples.size());
  for (auto& entry : samples) {
    result.failure_samples.push_back(std::move(entry.second));
  }
  return result;
}

std::size_t streaming_cell_footprint_bytes(
    const CampaignOptions& options) noexcept {
  // A map node (key + stats + tree overhead) plus an allowance per sampled
  // failure string (description + heap block). Deliberately generous: the
  // budget exists to keep a sweep from exhausting the host, not to
  // byte-count the allocator.
  constexpr std::size_t kNodeBytes =
      sizeof(CellKey) + sizeof(CellStats) + 64;  // red-black node overhead
  constexpr std::size_t kSampleBytes = 160;
  // The two quantile sketches store sparse (bucket, count) entries on the
  // heap. A cell's sketches hold at most one entry per distinct measured
  // value, and the sub-bucketed log universe collapses large values, so a
  // flat allowance sized for a few hundred distinct buckets per cell covers
  // realistic sweeps with the same generosity as the rest of the estimate.
  constexpr std::size_t kSketchBytes = 2048;
  return kNodeBytes + kSketchBytes +
         options.max_failures_per_cell * kSampleBytes;
}

AdmittedExpansion admit_cells(const CampaignGrid& grid,
                              const CampaignOptions& options) {
  // Budget enforcement happens before any scenario runs, on the compact
  // expansion: cells are admitted in expansion order until one aggregation
  // store would exceed the budget, the rest are skipped and reported. The
  // admitted set depends only on (grid, options) — never on the worker
  // count, nor on shard or checkpoint boundaries — so the digest contract
  // survives a binding budget under any partition of the work.
  AdmittedExpansion out;
  out.cells = expand_cells(grid);
  std::size_t admitted = out.cells.size();
  if (options.memory_budget_bytes != 0) {
    admitted = std::min(
        admitted,
        options.memory_budget_bytes / streaming_cell_footprint_bytes(options));
  }
  out.cells_skipped = out.cells.size() - admitted;
  out.scenarios_skipped = out.cells_skipped * grid.seeds;
  for (std::size_t c = admitted;
       c < out.cells.size() && out.skipped_cell_samples.size() < 8; ++c) {
    out.skipped_cell_samples.push_back(out.cells[c]);
  }
  out.cells.resize(admitted);
  return out;
}

std::size_t admitted_scenario_count(const CampaignGrid& grid,
                                    const CampaignOptions& options) {
  return admit_cells(grid, options).cells.size() * grid.seeds;
}

std::size_t run_campaign_range(const CampaignGrid& grid,
                               const CampaignOptions& options,
                               std::size_t begin, std::size_t end,
                               CampaignAccumulator& into) {
  const AdmittedExpansion admitted = admit_cells(grid, options);
  const std::vector<CellKey>& cells = admitted.cells;
  const std::size_t total = cells.size() * grid.seeds;
  if (begin > end || end > total) {
    std::ostringstream what;
    what << "run_campaign_range: range [" << begin << ", " << end
         << ") outside the admitted expansion of " << total << " scenarios";
    throw std::invalid_argument(what.str());
  }
  if (begin == end) return 0;
  const std::size_t count = end - begin;
  const std::size_t workers = resolve_workers(count, options.workers);

  // Per-worker state: the pooled RunContext (as in the materialized path)
  // plus the streaming path's whole point — a private CampaignAccumulator
  // the worker folds each ScenarioResult into the moment the scenario
  // finishes. The result is discarded right after; nothing per-scenario
  // survives the fold.
  std::vector<CampaignAccumulator> accumulators(workers);

  // The worker-local fold: commutative and index-keyed, so any claim order
  // lands on the same accumulator bytes. Scenario indices are GLOBAL
  // expansion indices throughout, which is what lets a range run merge
  // byte-identically into the whole.
  const auto fold = [&](std::size_t worker, const Scenario& s,
                        const ScenarioResult& r) {
    CampaignAccumulator& acc = accumulators[worker];
    acc.scenario_hash += hash_scenario(s.index, r);
    CellStats& stats = acc.cells[cells[s.index / grid.seeds]];
    fold_into_cell(stats, r);
    if (!r.success) {
      ++acc.failures;
      sample_failure(stats, acc.failure_samples, s, r, options);
    }
  };

  const std::size_t used = run_scenarios(
      grid, cells, begin, end, workers, /*record_final_positions=*/false,
      [&](std::size_t worker, const Scenario& s, ScenarioResult&& r) {
        fold(worker, s, r);
      });

  // Merge. Work stealing hands workers arbitrary scenario subsets, so every
  // fold inside merge_accumulators is commutative-exact: integer sums,
  // wrapping hash-sum, lowest-index bounded sample merges. Any worker count
  // — and the materialized index-order fold — lands on the same bytes.
  for (CampaignAccumulator& acc : accumulators) {
    merge_accumulators(into, std::move(acc), options.max_failures_per_cell,
                       options.max_recorded_failures);
  }
  return used;
}

void finalize_streaming_result(CampaignResult& result,
                               CampaignAccumulator&& merged) {
  result.cells = std::move(merged.cells);
  result.scenario_hash = merged.scenario_hash;
  result.failures = merged.failures;
  result.failure_samples.clear();
  result.failure_samples.reserve(merged.failure_samples.size());
  for (auto& [index, text] : merged.failure_samples) {
    static_cast<void>(index);
    result.failure_samples.push_back(std::move(text));
  }
}

CampaignResult run_campaign_streaming(const CampaignGrid& grid,
                                      const CampaignOptions& options) {
  // The whole-expansion streaming run is shard 0 of 1: the range engine and
  // the checkpoint loop live behind run_campaign_shard (exp/shard.cpp), so
  // in-process, resumed and multi-process sweeps share one code path — that
  // sharing IS the byte-identity argument.
  std::vector<ShardFile> shards;
  shards.push_back(run_campaign_shard(grid, options, 0, 1));
  CampaignResult result = merge_shards(std::move(shards));
  result.workers_used = resolve_workers(result.scenario_count, options.workers);
  return result;
}

std::vector<std::size_t> scenario_homes(const CampaignGrid& grid,
                                        const Scenario& s) {
  // Must mirror run_one's draw exactly: the substream then the homes.
  Rng rng = Rng(grid.base_seed).substream(instance_key(s));
  return draw_homes(s.family, s.node_count, s.agent_count, s.symmetry, rng);
}

Averages measure_cell(core::Algorithm algorithm, ConfigFamily family,
                      std::size_t n, std::size_t k, std::size_t l,
                      std::size_t seeds, sim::SchedulerKind scheduler,
                      std::uint64_t base_seed) {
  CampaignGrid grid;
  grid.algorithms = {algorithm};
  grid.families = {family};
  grid.schedulers = {scheduler};
  grid.node_counts = {n};
  grid.agent_counts = {k};
  grid.symmetries = {l};
  grid.seeds = seeds;
  grid.base_seed = base_seed;
  // Cells are all a measurement needs, so take the streaming path: the
  // bench binaries' grid sweeps then run in O(cells) memory at any n
  // (identical averages — the two paths share the aggregation fold).
  const Averages avg = run_campaign_streaming(grid).averages(
      CellKey{algorithm, family, scheduler, n, k,
              family == ConfigFamily::Periodic ? l : 1});
  if (avg.runs == 0) {
    std::ostringstream what;
    what << "measure_cell: infeasible cell " << to_string(family) << " n=" << n
         << " k=" << k << " l=" << l;
    throw std::invalid_argument(what.str());
  }
  return avg;
}

}  // namespace udring::exp
