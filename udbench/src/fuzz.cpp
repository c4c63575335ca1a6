// fuzz-checked: explore::run_fuzz with 1 worker and the full per-action
// oracle, fault-free, over known-k-full and known-k-logmem on rings of
// 64–256 nodes with 4–16 agents, every explore scheduler kind in the pool.
//
// The batch is stratified: one run_fuzz per (algorithm, n, k) with a fixed
// iteration count, so the work per batch depends little on the seed. The
// traced run re-drives each iteration through explore::draw_instance,
// core::make_instance, ExecutionState::reset, the explore scheduler's pick,
// ExecutionState::step_agent and GoalOracle::check_action / check_goal, and
// compares each iteration's event-log digest and action count with
// explore::fuzz_iteration's, and the folded digest with run_fuzz's.

#include <optional>

#include "bench.h"
#include "core/problem.h"
#include "explore/adversary.h"
#include "explore/fuzz.h"
#include "util/rng.h"

namespace udbench {
namespace {

using udring::Rng;
using udring::fold64;
namespace core = udring::core;
namespace explore = udring::explore;
namespace sim = udring::sim;

std::vector<explore::FuzzOptions> fuzz_options(Size size, std::uint64_t seed) {
  const bool tiny = size == Size::Tiny;
  const std::vector<std::size_t> nodes =
      tiny ? std::vector<std::size_t>{16, 24} : std::vector<std::size_t>{64, 128, 256};
  const std::vector<std::size_t> agents =
      tiny ? std::vector<std::size_t>{3, 4} : std::vector<std::size_t>{4, 8, 16};
  std::vector<explore::FuzzOptions> out;
  Rng seeds(seed);
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem}) {
    for (const std::size_t n : nodes) {
      for (const std::size_t k : agents) {
        explore::FuzzOptions o;
        o.algorithm = algorithm;
        o.min_nodes = o.max_nodes = n;
        o.min_agents = o.max_agents = k;
        o.oracle = explore::OracleMode::Full;
        o.iterations = tiny ? 2 : 16;
        o.base_seed = seeds();
        o.workers = 1;
        out.push_back(o);
      }
    }
  }
  return out;
}

/// One re-driven iteration's outcome.
struct Iteration {
  bool failed = false;
  std::size_t actions = 0;
  std::uint64_t digest = 0;
};

class FuzzChecked final : public Workload {
 public:
  explicit FuzzChecked(const Args& args)
      : options_(fuzz_options(args.size, args.seed)) {}

  /// run_fuzz over the first stratum, cut at its first iteration.
  std::uint64_t set_up() override {
    explore::FuzzOptions first = options_.front();
    first.iterations = 1;
    const explore::FuzzReport report = explore::run_fuzz(first);
    std::uint64_t digest = report.digest;
    fold64(digest, report.failures);
    return digest;
  }

  Batch run_batch() override {
    Batch batch;
    std::uint64_t digest = 0;
    digests_.clear();
    for (const explore::FuzzOptions& o : options_) {
      const explore::FuzzReport report = explore::run_fuzz(o);
      batch.units += report.iterations;
      batch.failed_units += report.failures;
      batch.steps += report.total_actions;
      digests_.push_back(report.digest);
      fold64(digest, report.digest);
    }
    batch.digest = digest;
    return batch;
  }

  TracedBatch traced_batch(Trace& trace, std::uint32_t batch_span,
                           Gates& gates) override {
    Layer& iteration = trace.layer("explore.iteration");
    TracedBatch out;
    std::size_t unit = 0;
    std::size_t mismatches = 0;
    for (std::size_t o = 0; o < options_.size(); ++o) {
      const explore::FuzzOptions& options = options_[o];
      std::uint64_t digest = 0xf0220feed5eedULL;  // run_fuzz's fold
      fold64(digest, options.iterations);
      for (std::size_t i = 0; i < options.iterations; ++i, ++unit) {
        const std::uint32_t span = trace.open_span("iteration", batch_span, unit);
        // The public per-unit call, timed from outside: the reference the
        // re-drive must reproduce.
        const std::uint64_t r0 = ticks();
        const explore::FuzzIteration reference =
            explore::fuzz_iteration(options, i, &state_);
        const std::uint64_t elapsed = ticks() - r0;
        iteration.add(elapsed);
        trace.sample("explore.iteration",
                     static_cast<double>(elapsed) * trace.ns_per_tick());

        const double busy_before = fuzz_busy_s(trace);
        const std::uint64_t t0 = steady_ns();
        const Iteration mine = redrive(trace, options, i);
        out.redrive_s += static_cast<double>(steady_ns() - t0) * 1e-9;
        out.accounted_s += fuzz_busy_s(trace) - busy_before;
        trace.close_span(span);

        if (mine.failed != reference.failure.has_value() ||
            mine.actions != reference.actions || mine.digest != reference.digest) {
          ++mismatches;
        }
        fold64(digest, mine.failed ? 1 : 0);
        fold64(digest, mine.actions);
        fold64(digest, mine.digest);
        if (mine.failed) fold64(digest, mine.actions);
      }
      gates.expect(o < digests_.size() && digest == digests_[o],
                   "traced re-drive of fuzz options " + std::to_string(o) +
                       " folds to " + hex(digest) + ", run_fuzz to " +
                       (o < digests_.size() ? hex(digests_[o]) : "nothing"));
    }
    gates.expect(mismatches == 0,
                 std::to_string(mismatches) +
                     " fuzz iteration(s) of the traced re-drive differ from "
                     "explore::fuzz_iteration");
    return out;
  }

  void layer_metrics(const Trace& trace, std::vector<Metric>& out) override {
    out.push_back({"config.draw_homes_ns", trace.per_call_ns("config.draw_homes"), "ns"});
    out.push_back({"core.setup_ns", trace.per_call_ns("core.setup"), "ns"});
    out.push_back({"explore.pick_ns", trace.per_call_ns("explore.pick"), "ns"});
    out.push_back({"sim.execute_ns", trace.per_call_ns("sim.execute"), "ns"});
    out.push_back({"sim.check_action_ns", trace.per_call_ns("sim.check_action"), "ns"});
    out.push_back({"sim.goal_ns", trace.per_call_ns("sim.goal"), "ns"});
    out.push_back({"explore.iteration_ms.p50",
                   trace.quantile_ns("explore.iteration", 0.50) * 1e-6, "ms"});
    out.push_back({"explore.iteration_ms.p99",
                   trace.quantile_ns("explore.iteration", 0.99) * 1e-6, "ms"});
  }

  void final_checks(const Batch& batch, Gates& gates) override {
    gates.expect(batch.failed_units == 0, "a fault-free fuzz iteration failed");
    gates.pinned["fuzz_digest"] = hex(batch.digest);
  }

 private:
  /// An iteration's instance and scheduler, drawn exactly as
  /// explore::fuzz_iteration draws them for a fault-free ring run.
  struct Draw {
    std::size_t node_count = 0;
    std::vector<std::size_t> homes;
    explore::ExploreSchedulerKind kind{};
    std::uint64_t seed = 0;
  };

  static Draw draw(const explore::FuzzOptions& o, std::uint64_t iteration) {
    Rng rng = Rng(o.base_seed).substream(iteration);
    const std::size_t n = static_cast<std::size_t>(
        rng.between(o.min_nodes, std::max(o.min_nodes, o.max_nodes)));
    const std::size_t k_hi = std::min(std::max(o.min_agents, o.max_agents), n);
    const std::size_t k =
        static_cast<std::size_t>(rng.between(std::min(o.min_agents, k_hi), k_hi));
    explore::DrawnInstance drawn =
        explore::draw_instance(explore::FuzzTopology::Ring, n, k, rng);
    const auto& pool = explore::all_explore_scheduler_kinds();
    Draw out;
    out.node_count = drawn.node_count;
    out.homes = std::move(drawn.homes);
    out.kind = pool[rng.index(pool.size())];
    out.seed = rng();
    return out;
  }

  /// The RunSpec fuzz_iteration records the iteration under.
  static core::RunSpec spec_of(const explore::FuzzOptions& o, const Draw& d) {
    core::RunSpec spec;
    spec.node_count = d.node_count;
    spec.homes = d.homes;
    spec.problem = o.problem;
    spec.sim_options.record_events = true;
    spec.sim_options.max_actions = o.max_actions;
    return spec;
  }

  static double fuzz_busy_s(const Trace& trace) {
    return trace.busy_s({"config.draw_homes", "core.setup", "explore.pick",
                         "sim.execute", "sim.check_action", "sim.goal"});
  }

  /// Re-drives iteration `i` with per-layer spans.
  Iteration redrive(Trace& trace, const explore::FuzzOptions& o, std::uint64_t i) {
    Layer& draw_homes = trace.layer("config.draw_homes");
    Layer& setup = trace.layer("core.setup");
    Layer& pick = trace.layer("explore.pick");
    Layer& execute = trace.layer("sim.execute");
    Layer& check = trace.layer("sim.check_action");
    Layer& goal = trace.layer("sim.goal");

    const std::uint64_t t0 = ticks();
    const Draw d = draw(o, i);
    const std::uint64_t t1 = ticks();
    draw_homes.add(t1 - t0);

    // Kept in a member: state_ refers to its instance until the next reset.
    state_.reset(instance_.emplace(core::make_instance(o.algorithm, spec_of(o, d))));
    const std::unique_ptr<sim::Scheduler> scheduler =
        explore::make_explore_scheduler(d.kind, d.seed, d.homes.size());
    scheduler->attach(state_);
    scheduler->reset(state_.agent_count());
    const std::unique_ptr<sim::GoalOracle> oracle =
        core::make_goal_oracle(o.algorithm, o.problem);
    std::uint64_t before = ticks();
    setup.add(before - t1);

    Iteration out;
    std::size_t min_tokens = state_.total_tokens();
    while (!state_.enabled().empty()) {
      const sim::AgentId id = scheduler->pick(state_.enabled());
      const std::uint64_t picked = ticks();
      state_.step_agent(id);
      const std::uint64_t stepped = ticks();
      const bool ok = oracle->check_action(state_, min_tokens).ok;
      const std::uint64_t checked = ticks();
      pick.add(picked - before);
      execute.add(stepped - picked);
      check.add(checked - stepped);
      before = checked;
      min_tokens = state_.total_tokens();
      if (!ok || (state_.actions_executed() >= state_.max_actions() &&
                  !state_.quiescent())) {
        out.failed = true;
        break;
      }
    }
    if (!out.failed) {
      const std::uint64_t g0 = ticks();
      out.failed = !oracle->check_goal(state_).ok;
      goal.add(ticks() - g0);
    }
    out.actions = state_.actions_executed();
    out.digest = state_.log().digest();
    return out;
  }

  std::vector<explore::FuzzOptions> options_;
  std::vector<std::uint64_t> digests_;  ///< per options, latest untraced batch
  std::optional<sim::Instance> instance_;
  sim::ExecutionState state_;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_checked(const Args& args) {
  return std::make_unique<FuzzChecked>(args);
}

}  // namespace udbench
