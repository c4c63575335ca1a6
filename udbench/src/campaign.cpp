// The two campaign workloads.
//
// campaign-sweep: exp::run_campaign_streaming with 1 worker, no checkpoint.
// campaign-checkpointed: the same grid with min(4, nproc) workers and a
// checkpoint every fixed block of scenarios, then the final shard file is
// reloaded and merged.
//
// The traced run re-drives every scenario through the public functions the
// engine itself composes — exp::draw_homes, core::make_instance,
// ExecutionState::reset, RunContext::scheduler, Scheduler::draw_batch,
// ExecutionState::step_agent, GoalOracle::check_goal, QuantileSketch::add —
// and rebuilds the campaign digest from the re-driven outcomes, so a
// matching digest proves the re-drive executed the same program.

#include <filesystem>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "core/runner.h"
#include "exp/campaign.h"
#include "exp/shard.h"
#include "util/io.h"
#include "util/rng.h"

namespace udbench {
namespace {

using udring::Rng;
using udring::fold64;
namespace core = udring::core;
namespace exp = udring::exp;
namespace sim = udring::sim;

exp::CampaignGrid sweep_grid(Size size, std::uint64_t seed) {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem,
                     core::Algorithm::UnknownRelaxed};
  grid.schedulers = {sim::SchedulerKind::RoundRobin, sim::SchedulerKind::Random,
                     sim::SchedulerKind::Burst};
  if (size == Size::Tiny) {
    grid.instances = {{16, 2}, {32, 4}, {64, 8}};
    grid.seeds = 2;
  } else {
    // Small rings, where scenario set-up dominates, up to n = 4096 and
    // k = 64, where execute_action does; each (n, k) point costs about the
    // same k·n order except the small ones.
    grid.instances = {{16, 2},    {16, 4},   {32, 4},   {64, 8},
                      {128, 16},  {256, 64}, {1024, 8}, {4096, 2}};
    grid.seeds = 24;
  }
  grid.base_seed = seed;
  return grid;
}

/// The campaign engine's substream key for a scenario: the instance
/// coordinates only (exp/campaign.cpp, instance_key).
std::uint64_t instance_key(const exp::Scenario& s) {
  std::uint64_t key = 0;
  fold64(key, static_cast<std::uint64_t>(s.family));
  fold64(key, s.node_count);
  fold64(key, s.agent_count);
  fold64(key, s.symmetry);
  fold64(key, s.repetition);
  return key;
}

/// The five measures a scenario contributes to the campaign folds.
struct Outcome {
  bool success = false;
  std::uint64_t moves = 0;
  std::uint64_t makespan = 0;
  std::uint64_t memory_bits = 0;
  std::uint64_t actions = 0;
};

/// A scenario's term of the campaign's commutative scenario hash
/// (exp/campaign.cpp, hash_scenario; final positions are not recorded).
std::uint64_t outcome_hash(std::size_t index, const Outcome& r) {
  std::uint64_t h = 0x5ce7a210ba5eedULL;
  fold64(h, index);
  fold64(h, r.success ? 1 : 0);
  fold64(h, r.moves);
  fold64(h, r.makespan);
  fold64(h, r.memory_bits);
  fold64(h, r.actions);
  fold64(h, 0);  // no final positions
  return h;
}

Outcome outcome_of(const exp::ScenarioResult& r) {
  return {r.success, r.total_moves, r.makespan, r.max_memory_bits, r.actions};
}

/// The RunSpec the engine builds for scenario `s` (exp/campaign.cpp,
/// make_scenario_spec): homes from the instance-keyed substream, then one
/// more draw for the scheduler seed.
core::RunSpec scenario_spec(const exp::CampaignGrid& grid, const exp::Scenario& s) {
  Rng rng = Rng(grid.base_seed).substream(instance_key(s));
  core::RunSpec spec;
  spec.node_count = s.node_count;
  spec.homes =
      exp::draw_homes(s.family, s.node_count, s.agent_count, s.symmetry, rng);
  spec.seed = rng();
  spec.scheduler = s.scheduler;
  spec.sim_options = grid.sim_options;
  if (!s.fault.empty()) spec.sim_options.faults = s.fault;
  spec.problem = s.problem;
  return spec;
}

/// Serial outside-in re-drive of campaign scenarios with per-layer spans.
class TracedRunner {
 public:
  explicit TracedRunner(Trace& trace)
      : draw_homes_(trace.layer("config.draw_homes")),
        setup_(trace.layer("core.setup")),
        draw_(trace.layer("sim.draw")),
        execute_(trace.layer("sim.execute")),
        goal_(trace.layer("sim.goal")),
        sketch_(trace.layer("exp.sketch_add")) {}

  Outcome run(const exp::CampaignGrid& grid, const exp::Scenario& s) {
    try {
      return run_unchecked(grid, s);
    } catch (const std::exception&) {
      return {};  // the engine records a throwing scenario as a failure
    }
  }

  /// Folds `r` into the accumulator exactly as the engine's fold does.
  void fold(exp::CampaignAccumulator& acc, const exp::CellKey& cell,
            std::size_t index, const Outcome& r) {
    acc.scenario_hash += outcome_hash(index, r);
    exp::CellStats& stats = acc.cells[cell];
    ++stats.runs;
    if (r.success) ++stats.successes;
    stats.moves_sum += r.moves;
    stats.makespan_sum += r.makespan;
    stats.memory_bits_sum += r.memory_bits;
    stats.actions_sum += r.actions;
    const std::uint64_t t0 = ticks();
    stats.moves_sketch.add(r.moves);
    const std::uint64_t t1 = ticks();
    stats.makespan_sketch.add(r.makespan);
    const std::uint64_t t2 = ticks();
    sketch_.add(t1 - t0);
    sketch_.add(t2 - t1);
    if (!r.success) ++acc.failures;
  }

 private:
  Outcome run_unchecked(const exp::CampaignGrid& grid, const exp::Scenario& s) {
    const std::uint64_t t0 = ticks();
    const core::RunSpec spec = scenario_spec(grid, s);
    const std::uint64_t t1 = ticks();
    draw_homes_.add(t1 - t0);

    const sim::Instance& instance =
        instance_.emplace(core::make_instance(s.algorithm, spec));
    sim::ExecutionState& state = context_.state();
    state.reset(instance);
    sim::Scheduler& scheduler =
        context_.scheduler(spec.scheduler, spec.seed, spec.homes.size());
    scheduler.attach(state);
    scheduler.reset(state.agent_count());
    const sim::GoalOracle& oracle = context_.oracle(s.algorithm, s.problem);
    std::uint64_t before = ticks();
    setup_.add(before - t1);

    bool quiescent = true;
    for (;;) {
      if (state.enabled().empty()) break;
      if (state.actions_executed() >= state.max_actions()) {
        quiescent = false;
        break;
      }
      const sim::AgentId id =
          sim::Scheduler::draw_batch(scheduler, spec.scheduler, state.enabled());
      const std::uint64_t drawn = ticks();
      state.step_agent(id);
      const std::uint64_t stepped = ticks();
      draw_.add(drawn - before);
      execute_.add(stepped - drawn);
      before = stepped;
    }

    Outcome out;
    if (quiescent) {
      const std::uint64_t g0 = ticks();
      out.success = oracle.check_goal(state).ok;
      goal_.add(ticks() - g0);
    }
    out.moves = state.metrics().total_moves();
    out.makespan = state.metrics().makespan();
    out.memory_bits = state.metrics().max_memory_bits();
    out.actions = state.actions_executed();
    return out;
  }

  Layer& draw_homes_;
  Layer& setup_;
  Layer& draw_;
  Layer& execute_;
  Layer& goal_;
  Layer& sketch_;
  core::RunContext context_;
  std::optional<sim::Instance> instance_;
};

/// Busy seconds of the serial re-drive's leaf layers, which together cover
/// a sweep batch.
double sweep_busy_s(const Trace& trace) {
  return trace.busy_s({"exp.admit", "config.draw_homes", "core.setup",
                       "sim.draw", "sim.execute", "sim.goal", "exp.sketch_add"});
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(steady_ns() - start_ns) * 1e-9;
}

Batch batch_of(const exp::CampaignResult& result) {
  Batch batch;
  batch.units = result.scenario_count;
  batch.failed_units = result.failures;
  for (const auto& [key, stats] : result.cells) batch.steps += stats.actions_sum;
  batch.digest = result.digest();
  return batch;
}

/// Shared by both campaign workloads: the grid, the set-up, the serial
/// re-drive and the unit-by-unit check.
class CampaignBase : public Workload {
 public:
  /// Admits the grid once for the benchmark's own bookkeeping (scenario
  /// count, traced re-drive); not part of the timed set-up.
  CampaignBase(const Args& args, std::size_t workers)
      : args_(args), grid_(sweep_grid(args.size, args.seed)) {
    options_.workers = workers;
    admitted_ = exp::admit_cells(grid_, options_);
    total_ = admitted_.cells.size() * grid_.seeds;
    if (total_ == 0) throw std::runtime_error("campaign grid admits nothing");
  }

  /// The engine's own entry point over the first scenario: admission, the
  /// run context and one scenario. A one-scenario range runs on one worker;
  /// the parallel workload pays its pool start once per block, in wall_s.
  std::uint64_t set_up() override {
    exp::CampaignAccumulator first;
    exp::run_campaign_range(grid_, options_, 0, 1, first);
    std::uint64_t digest = first.scenario_hash;
    fold64(digest, first.failures);
    return digest;
  }

  void layer_metrics(const Trace& trace, std::vector<Metric>& out) override {
    out.push_back({"exp.admit_ms", trace.per_call_ns("exp.admit") * 1e-6, "ms"});
    out.push_back({"config.draw_homes_ns", trace.per_call_ns("config.draw_homes"), "ns"});
    out.push_back({"core.setup_ns", trace.per_call_ns("core.setup"), "ns"});
    out.push_back({"sim.draw_ns", trace.per_call_ns("sim.draw"), "ns"});
    out.push_back({"sim.execute_ns", trace.per_call_ns("sim.execute"), "ns"});
    out.push_back({"sim.goal_ns", trace.per_call_ns("sim.goal"), "ns"});
    out.push_back({"exp.sketch_add_ns", trace.per_call_ns("exp.sketch_add"), "ns"});
  }

 protected:
  /// Times exp::admit_cells, whose admission must not change between calls.
  void timed_admit(Trace& trace, Gates& gates) {
    Layer& admit = trace.layer("exp.admit");
    const std::uint64_t t0 = ticks();
    const exp::AdmittedExpansion admitted = exp::admit_cells(grid_, options_);
    admit.add(ticks() - t0);
    gates.expect(admitted.cells == admitted_.cells, "admitted cells changed");
  }

  /// Re-drives scenarios [begin, end) serially into `acc`, one span each;
  /// returns the summed scenario busy time in seconds.
  double redrive(Trace& trace, TracedRunner& runner, std::uint32_t parent,
                 std::size_t begin, std::size_t end,
                 exp::CampaignAccumulator& acc) {
    double busy = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t span = trace.open_span("scenario", parent, i);
      const std::uint64_t t0 = steady_ns();
      const exp::Scenario s = exp::scenario_at(admitted_.cells, grid_.seeds, i);
      const Outcome r = runner.run(grid_, s);
      runner.fold(acc, admitted_.cells[i / grid_.seeds], i, r);
      hashes_[i] = outcome_hash(i, r);
      busy += seconds_since(t0);
      trace.close_span(span);
    }
    return busy;
  }

  /// The re-drive's digest must be the untraced batch's, and — once per
  /// run — every scenario's outcome must equal the materialized engine's
  /// result for that scenario.
  void check_redrive(exp::CampaignAccumulator&& acc, std::uint64_t expected,
                     Gates& gates) {
    exp::CampaignResult rebuilt;
    rebuilt.scenario_count = total_;
    exp::finalize_streaming_result(rebuilt, std::move(acc));
    gates.expect(rebuilt.digest() == expected,
                 "traced re-drive digest " + hex(rebuilt.digest()) +
                     " differs from the untraced " + hex(expected));
    if (units_checked_) return;
    units_checked_ = true;
    exp::CampaignOptions options;
    options.workers = args_.workers;
    const exp::CampaignResult reference = exp::run_campaign(grid_, options);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < total_; ++i) {
      if (outcome_hash(i, outcome_of(reference.results[i])) != hashes_[i]) {
        ++mismatches;
      }
    }
    gates.expect(reference.results.size() == total_ && mismatches == 0,
                 std::to_string(mismatches) +
                     " scenario outcome(s) of the traced re-drive differ from "
                     "exp::run_campaign");
  }

  Args args_;
  exp::CampaignGrid grid_;
  exp::CampaignOptions options_;
  exp::AdmittedExpansion admitted_;
  std::size_t total_ = 0;
  std::vector<std::uint64_t> hashes_;
  bool units_checked_ = false;
  std::uint64_t last_digest_ = 0;  ///< of the latest untraced batch
};

class CampaignSweep final : public CampaignBase {
 public:
  explicit CampaignSweep(const Args& args) : CampaignBase(args, 1) {}

  Batch run_batch() override {
    const Batch batch = batch_of(exp::run_campaign_streaming(grid_, options_));
    last_digest_ = batch.digest;
    return batch;
  }

  TracedBatch traced_batch(Trace& trace, std::uint32_t batch_span,
                           Gates& gates) override {
    const double busy_before = sweep_busy_s(trace);
    const std::uint64_t t0 = steady_ns();
    timed_admit(trace, gates);
    hashes_.assign(total_, 0);
    TracedRunner runner(trace);
    exp::CampaignAccumulator acc;
    redrive(trace, runner, batch_span, 0, total_, acc);
    TracedBatch out;
    out.redrive_s = seconds_since(t0);
    out.accounted_s = sweep_busy_s(trace) - busy_before;
    check_redrive(std::move(acc), last_digest_, gates);
    return out;
  }

  void final_checks(const Batch& batch, Gates& gates) override {
    gates.expect(batch.failed_units == 0, "a fault-free scenario failed");
    gates.pinned["campaign_digest"] = hex(batch.digest);
  }
};

class CampaignCheckpointed final : public CampaignBase {
 public:
  explicit CampaignCheckpointed(const Args& args)
      : CampaignBase(args, args.workers),
        checkpoint_((std::filesystem::path(args.scratch_dir) /
                     ("udbench-" + args.workload + ".uds"))
                        .string()),
        block_((total_ + kBlocks - 1) / kBlocks) {
    options_.checkpoint_path = checkpoint_;
    options_.checkpoint_every_scenarios = block_;
  }

  Batch run_batch() override {
    std::filesystem::remove(checkpoint_);
    const exp::CampaignResult run = exp::run_campaign_streaming(grid_, options_);
    std::vector<exp::ShardFile> shards;
    shards.push_back(exp::load_shard_file(checkpoint_));
    const exp::CampaignResult merged = exp::merge_shards(std::move(shards));
    std::filesystem::remove(checkpoint_);
    Batch batch = batch_of(merged);
    if (run.digest() != batch.digest) ++batch.failed_units;
    last_digest_ = batch.digest;
    return batch;
  }

  TracedBatch traced_batch(Trace& trace, std::uint32_t batch_span,
                           Gates& gates) override {
    Layer& block = trace.layer("exp.block");
    Layer& encode = trace.layer("exp.encode");
    Layer& write = trace.layer("exp.write");
    Layer& decode = trace.layer("exp.decode");
    Layer& merge = trace.layer("exp.merge");
    const auto timed = [&](Layer& layer, auto&& call) {
      const std::uint64_t t0 = ticks();
      call();
      const std::uint64_t elapsed = ticks() - t0;
      layer.add(elapsed);
      return static_cast<double>(elapsed) * trace.ns_per_tick();
    };
    std::filesystem::remove(checkpoint_);
    const std::uint64_t start = steady_ns();
    // Work the untraced batch does not do: the separate encode probe and
    // the serial re-drive of each block. Excluded from the re-drive time.
    double probes_ns = 0;
    const double admit_before = trace.busy_ns("exp.admit");
    timed_admit(trace, gates);
    double accounted_ns = trace.busy_ns("exp.admit") - admit_before;

    exp::ShardFile shard;
    shard.fingerprint = exp::grid_fingerprint(grid_, options_);
    shard.scenario_total = total_;
    shard.max_failures_per_cell = options_.max_failures_per_cell;
    shard.max_recorded_failures = options_.max_recorded_failures;

    hashes_.assign(total_, 0);
    TracedRunner runner(trace);
    exp::CampaignAccumulator serial;
    for (std::size_t begin = 0; begin < total_; begin += block_) {
      const std::size_t end = std::min(total_, begin + block_);
      const std::uint32_t span = trace.open_span("block", batch_span, begin / block_);
      const double wall_ns = timed(block, [&] {
        exp::run_campaign_range(grid_, options_, begin, end, shard.aggregate);
      });
      trace.sample("exp.block", wall_ns);
      shard.range_end = end;
      accounted_ns += wall_ns;
      std::string bytes;
      probes_ns += timed(encode, [&] { bytes = exp::encode_shard(shard); });
      shard_bytes_ = static_cast<double>(bytes.size());
      accounted_ns += timed(write, [&] { exp::write_shard_file(checkpoint_, shard); });
      trace.close_span(span);
      // The block's serial busy time, from the single-threaded traced
      // re-drive of the same scenarios (so it carries trace.overhead_pct).
      const std::uint64_t serial_start = steady_ns();
      const double busy = redrive(trace, runner, span, begin, end, serial);
      probes_ns += static_cast<double>(steady_ns() - serial_start);
      efficiency_.push_back(busy * 1e9 /
                            (static_cast<double>(options_.workers) * wall_ns));
    }
    exp::ShardFile loaded;
    exp::CampaignResult merged;
    accounted_ns += timed(decode, [&] {
      const std::string bytes =
          udring::read_binary_file(checkpoint_).value_or(std::string());
      loaded = exp::decode_shard(bytes, checkpoint_);
    });
    accounted_ns += timed(merge, [&] {
      std::vector<exp::ShardFile> shards;
      shards.push_back(std::move(loaded));
      merged = exp::merge_shards(std::move(shards));
    });
    const double redrive_ns = static_cast<double>(steady_ns() - start) - probes_ns;
    std::filesystem::remove(checkpoint_);
    gates.expect(merged.digest() == last_digest_,
                 "traced checkpoint/merge digest " + hex(merged.digest()) +
                     " differs from the untraced batch");
    check_redrive(std::move(serial), last_digest_, gates);
    return {redrive_ns * 1e-9, accounted_ns * 1e-9};
  }

  void layer_metrics(const Trace& trace, std::vector<Metric>& out) override {
    CampaignBase::layer_metrics(trace, out);
    out.push_back({"exp.block_ms.p50", trace.quantile_ns("exp.block", 0.50) * 1e-6, "ms"});
    out.push_back({"exp.block_ms.p99", trace.quantile_ns("exp.block", 0.99) * 1e-6, "ms"});
    out.push_back({"util.parallel_efficiency", median(efficiency_), "ratio"});
    out.push_back({"exp.encode_us", trace.per_call_ns("exp.encode") * 1e-3, "us"});
    out.push_back({"exp.decode_us", trace.per_call_ns("exp.decode") * 1e-3, "us"});
    out.push_back({"exp.write_ms", trace.per_call_ns("exp.write") * 1e-6, "ms"});
    out.push_back({"exp.shard_bytes", shard_bytes_, "bytes"});
    out.push_back({"exp.merge_ms", trace.per_call_ns("exp.merge") * 1e-6, "ms"});
  }

  void final_checks(const Batch& batch, Gates& gates) override {
    gates.expect(batch.failed_units == 0,
                 "a fault-free scenario failed, or the merged shard's digest "
                 "differs from the run's");
    // At every seed the parallel checkpointed digest is the serial sweep's.
    exp::CampaignOptions serial;
    serial.workers = 1;
    const std::uint64_t sweep =
        exp::run_campaign_streaming(grid_, serial).digest();
    gates.expect(batch.digest == sweep,
                 "checkpointed digest " + hex(batch.digest) +
                     " differs from campaign-sweep's " + hex(sweep));
    gates.pinned["campaign_digest"] = hex(batch.digest);
  }

 private:
  // A checkpoint that replaces the previous one (rename over it) can stall
  // for tens of milliseconds on the disk, and how long varies with the
  // host's I/O. Two blocks keep one such write per batch, a few percent of
  // its wall time.
  static constexpr std::size_t kBlocks = 2;

  std::string checkpoint_;
  std::size_t block_;
  double shard_bytes_ = 0;
  std::vector<double> efficiency_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_sweep(const Args& args) {
  return std::make_unique<CampaignSweep>(args);
}

std::unique_ptr<Workload> make_campaign_checkpointed(const Args& args) {
  return std::make_unique<CampaignCheckpointed>(args);
}

std::uint64_t engine_grid_digest() {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.schedulers = {sim::SchedulerKind::RoundRobin, sim::SchedulerKind::Random};
  grid.node_counts = {16, 24, 32, 40, 48, 56, 64};
  grid.agent_counts = {2, 3, 4, 5, 6, 7, 8};
  grid.seeds = 16;
  exp::CampaignOptions options;
  options.workers = 1;
  return exp::run_campaign_streaming(grid, options).digest();
}

}  // namespace udbench
