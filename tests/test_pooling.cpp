// Pooled-reuse regression suite for the Instance × ExecutionState split.
//
// The contract under test: running an instance through *pooled* machinery —
// a reused ExecutionState arena, a cached/reseeded scheduler, a RunContext,
// run_many — is byte-identical (event-log digest, metrics, final
// positions) to running it through freshly constructed objects. The caller
// owns every Instance; an ExecutionState only points at one, so the type
// refuses a temporary Instance at compile time. A
// scheduler or RNG that carries state across ExecutionState::reset() makes
// reruns correlated; BurstScheduler had exactly that bug (its RNG survived
// reset()), pinned here so it cannot return.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <type_traits>

#include "core/runner.h"
#include "exp/campaign.h"
#include "explore/adversary.h"
#include "explore/fuzz.h"
#include "mc/model_check.h"
#include "sim/execution_state.h"
#include "util/rng.h"

namespace udring {
namespace {

core::RunSpec make_spec(std::size_t n, std::size_t k, sim::SchedulerKind kind,
                        std::uint64_t seed) {
  Rng rng(seed);
  core::RunSpec spec;
  spec.node_count = n;
  spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny, n, k, 1, rng);
  spec.scheduler = kind;
  spec.seed = seed;
  spec.sim_options.record_events = true;
  return spec;
}

void expect_reports_equal(const core::RunReport& a, const core::RunReport& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.result.actions, b.result.actions);
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.max_memory_bits, b.max_memory_bits);
  EXPECT_EQ(a.scheduler_rounds, b.scheduler_rounds);
  EXPECT_EQ(a.moves_by_phase, b.moves_by_phase);
  EXPECT_EQ(a.final_positions, b.final_positions);
  EXPECT_EQ(a.final_labels, b.final_labels);
  EXPECT_EQ(a.failure, b.failure);
}

// ---- pooled RunContext == fresh objects, for every scheduler kind ----------

class PooledRunSweep : public ::testing::TestWithParam<sim::SchedulerKind> {};

TEST_P(PooledRunSweep, BackToBackPooledRunsMatchFreshRuns) {
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::UnknownRelaxed,
        core::Algorithm::GatherRing, core::Algorithm::DisperseRing}) {
    const core::RunSpec first = make_spec(18, 5, GetParam(), 11);
    const core::RunSpec second = make_spec(24, 4, GetParam(), 12);

    // Fresh-object reference executions.
    const core::RunReport fresh_first = core::run_algorithm(algorithm, first);
    const core::RunReport fresh_second = core::run_algorithm(algorithm, second);
    const sim::Instance fresh_sim_instance =
        core::make_instance(algorithm, second);
    sim::ExecutionState fresh_sim(fresh_sim_instance);
    auto fresh_sched = sim::make_scheduler(GetParam(), second.seed,
                                           second.homes.size());
    (void)fresh_sim.run(*fresh_sched);
    const std::uint64_t fresh_digest = fresh_sim.log().digest();

    // Pooled: one context, two runs — the second must not see the first.
    core::RunContext ctx;
    const core::RunReport pooled_first = ctx.run(algorithm, first);
    const core::RunReport pooled_second = ctx.run(algorithm, second);
    expect_reports_equal(pooled_first, fresh_first);
    expect_reports_equal(pooled_second, fresh_second);
    EXPECT_EQ(ctx.state().log().digest(), fresh_digest)
        << core::to_string(algorithm) << " under "
        << sim::to_string(GetParam())
        << ": pooled rerun diverged from a fresh run";
  }
}

TEST_P(PooledRunSweep, ReusedSchedulerObjectMatchesFreshScheduler) {
  // The same scheduler object drives two executions of the same spec; the
  // second must equal a fresh scheduler's execution. Catches any mutable
  // scheduler state that survives reset() — the BurstScheduler RNG bug.
  const core::RunSpec spec = make_spec(20, 5, GetParam(), 7);
  const auto run_with = [&](sim::Scheduler& sched) {
    const sim::Instance instance =
        core::make_instance(core::Algorithm::KnownKFull, spec);
    sim::ExecutionState sim(instance);
    (void)sim.run(sched);
    return sim.log().digest();
  };
  auto reused = sim::make_scheduler(GetParam(), spec.seed, spec.homes.size());
  const std::uint64_t first = run_with(*reused);
  const std::uint64_t rerun = run_with(*reused);
  auto fresh = sim::make_scheduler(GetParam(), spec.seed, spec.homes.size());
  const std::uint64_t reference = run_with(*fresh);
  EXPECT_EQ(first, reference);
  EXPECT_EQ(rerun, reference)
      << sim::to_string(GetParam())
      << " carries state across reset(): pooled reruns are correlated";
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PooledRunSweep,
                         ::testing::ValuesIn(sim::all_scheduler_kinds()),
                         [](const auto& info) {
                           std::string name(sim::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SchedulerPooling, BurstSchedulerReseedsItsRngOnReset) {
  // Direct regression for the audit finding: pick sequences after a second
  // reset() must replay the first run's sequence exactly.
  sim::BurstScheduler scheduler(42);
  const sim::EnabledSet enabled = sim::EnabledSet::of(5, {0, 1, 2, 3, 4});
  scheduler.reset(5);
  std::vector<sim::AgentId> first;
  for (int i = 0; i < 4; ++i) {
    first.push_back(scheduler.pick(enabled));
    scheduler.reset(5);  // force a re-draw every pick
  }
  scheduler.reset(5);
  std::vector<sim::AgentId> second;
  for (int i = 0; i < 4; ++i) {
    second.push_back(scheduler.pick(enabled));
    scheduler.reset(5);
  }
  EXPECT_EQ(first, second);
}

TEST(SchedulerPooling, DefaultPriorityMatchesExplicitDescendingOrder) {
  const core::RunSpec spec = make_spec(16, 4, sim::SchedulerKind::Priority, 3);
  const auto digest_with = [&](sim::Scheduler& sched) {
    const sim::Instance instance =
        core::make_instance(core::Algorithm::KnownKFull, spec);
    sim::ExecutionState sim(instance);
    (void)sim.run(sched);
    return sim.log().digest();
  };
  sim::PriorityScheduler pooled_form;  // order derived at reset()
  sim::PriorityScheduler explicit_form({3, 2, 1, 0});
  EXPECT_EQ(digest_with(pooled_form), digest_with(explicit_form));
}

// ---- ExecutionState::reset across sizes -------------------------------------

// A state never owns its Instance, so it cannot be built from a temporary.
static_assert(!std::is_constructible_v<sim::ExecutionState, sim::Instance&&>);

TEST(ExecutionStatePooling, ResetAcrossSizesMatchesFreshConstruction) {
  const auto factory = core::make_program_factory(core::Algorithm::KnownKFull, 3);
  const auto factory_big =
      core::make_program_factory(core::Algorithm::KnownKFull, 6);
  sim::SimOptions options;
  options.record_events = true;
  const sim::Instance big(40, {0, 7, 14, 21, 28, 35}, factory_big, options);
  const sim::Instance small(9, {0, 3, 6}, factory, options);

  sim::ExecutionState pooled;
  sim::RoundRobinScheduler scheduler;
  // big → small → big: shrinking and regrowing must not leak state.
  // The fresh side is the one-shot constructor, so this also pins
  // ExecutionState(instance) == default construction + reset(instance).
  for (const sim::Instance* instance : {&big, &small, &big}) {
    pooled.reset(*instance);
    (void)pooled.run(scheduler);
    sim::ExecutionState fresh(*instance);
    sim::RoundRobinScheduler fresh_scheduler;
    (void)fresh.run(fresh_scheduler);
    EXPECT_EQ(pooled.log().digest(), fresh.log().digest());
    EXPECT_EQ(pooled.staying_nodes(), fresh.staying_nodes());
    EXPECT_EQ(pooled.metrics().total_moves(), fresh.metrics().total_moves());
    EXPECT_EQ(pooled.metrics().makespan(), fresh.metrics().makespan());
    EXPECT_EQ(pooled.metrics().moves_by_phase(),
              fresh.metrics().moves_by_phase());
    EXPECT_EQ(pooled.total_tokens(), fresh.total_tokens());
  }
}

TEST(ExecutionStatePooling, DefaultConstructedStateIsUnboundUntilReset) {
  sim::ExecutionState state;
  EXPECT_FALSE(state.bound());
  EXPECT_EQ(state.agent_count(), 0u);
  EXPECT_TRUE(state.quiescent());
  const sim::Instance instance(
      8, {0, 4}, core::make_program_factory(core::Algorithm::KnownKFull, 2));
  state.reset(instance);
  EXPECT_TRUE(state.bound());
  EXPECT_EQ(state.agent_count(), 2u);
  EXPECT_EQ(state.enabled().size(), 2u);
}

// ---- batch drivers ----------------------------------------------------------

TEST(RunMany, MatchesRunAlgorithmPerSpec) {
  std::vector<core::RunSpec> specs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    specs.push_back(make_spec(10 + 2 * static_cast<std::size_t>(seed), 3,
                              sim::SchedulerKind::RoundRobin, seed));
  }
  const std::vector<core::RunReport> pooled =
      core::run_many(core::Algorithm::KnownKFull, specs, 2);
  ASSERT_EQ(pooled.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const core::RunReport fresh =
        core::run_algorithm(core::Algorithm::KnownKFull, specs[i]);
    expect_reports_equal(pooled[i], fresh);
  }
}

// ---- pooled mc explorer walks -----------------------------------------------

TEST(McPooling, InterleavedChecksAreByteIdenticalToIsolatedOnes) {
  // mc::check's closure walk reuses one pooled ExecutionState per worker
  // across ALL of that worker's shards (thousands of reset()+replay cycles
  // on the same arena). Any state that survives reset() — a stale mailbox,
  // token count, queue arrival stamp — would skew digests and change dedup
  // behaviour. Pin, at workers {1, 2, 4}: checking A, then a
  // differently-shaped B, then A again yields byte-identical reports for
  // both A runs, equal to a first-call report.
  const auto request = [](std::size_t n, std::vector<std::size_t> homes) {
    mc::CheckRequest r;
    r.algorithm = core::Algorithm::KnownKFull;
    r.node_count = n;
    r.homes = std::move(homes);
    return r;
  };
  for (const std::size_t workers : {1u, 2u, 4u}) {
    mc::McOptions options;
    options.shared_visited = true;  // the sharded path: real shard reuse
    options.workers = workers;
    const mc::ModelCheckReport first =
        mc::check(request(10, {0, 3, 6}), options);
    const mc::ModelCheckReport other = mc::check(request(8, {0, 4}), options);
    const mc::ModelCheckReport again =
        mc::check(request(10, {0, 3, 6}), options);
    EXPECT_TRUE(first.ok);
    EXPECT_TRUE(other.ok);
    EXPECT_GT(first.stats.shards, 1u);
    EXPECT_EQ(first.digest(), again.digest()) << "workers=" << workers;
    EXPECT_EQ(first.stats.states_expanded, again.stats.states_expanded);
    EXPECT_EQ(first.stats.states_deduped, again.stats.states_deduped);
    EXPECT_EQ(first.stats.sleep_pruned, again.stats.sleep_pruned);
    EXPECT_EQ(first.stats.dpor_pruned, again.stats.dpor_pruned);
    EXPECT_EQ(first.stats.total_actions, again.stats.total_actions);
  }
}

// ---- draw_batch reseed audit: pooled explore schedulers ---------------------

/// The five sim/ kinds take the devirtualized draw_batch overload; the
/// explore adversaries fall back to the kind-less virtual one.
std::optional<sim::SchedulerKind> devirtualized_kind(
    explore::ExploreSchedulerKind kind) {
  switch (kind) {
    case explore::ExploreSchedulerKind::RoundRobin:
      return sim::SchedulerKind::RoundRobin;
    case explore::ExploreSchedulerKind::Random:
      return sim::SchedulerKind::Random;
    case explore::ExploreSchedulerKind::Synchronous:
      return sim::SchedulerKind::Synchronous;
    case explore::ExploreSchedulerKind::Priority:
      return sim::SchedulerKind::Priority;
    case explore::ExploreSchedulerKind::Burst:
      return sim::SchedulerKind::Burst;
    default:
      return std::nullopt;
  }
}

/// Drives `state` to quiescence drawing every action through
/// Scheduler::draw_batch, the way a driver that steps a state by hand does
/// (attach, reset, then one draw per step_chosen).
std::uint64_t drive_via_draw_batch(sim::ExecutionState& state,
                                   sim::Scheduler& scheduler,
                                   std::optional<sim::SchedulerKind> kind,
                                   std::size_t agent_count) {
  scheduler.attach(state);
  scheduler.reset(agent_count);
  std::size_t actions = 0;
  while (!state.enabled().empty()) {
    const sim::AgentId id =
        kind ? sim::Scheduler::draw_batch(scheduler, *kind, state.enabled())
             : sim::Scheduler::draw_batch(scheduler, state.enabled());
    state.step_chosen(id);
    if (++actions > 200000u) {
      ADD_FAILURE() << "run did not quiesce";
      break;
    }
  }
  return state.log().digest();
}

class DrawBatchReseedSweep
    : public ::testing::TestWithParam<explore::ExploreSchedulerKind> {};

TEST_P(DrawBatchReseedSweep, PooledSchedulerMatchesFreshPerScenario) {
  // The pooling contract: ONE scheduler object reused across scenarios —
  // reseed(seed) + attach + reset per scenario, every draw through
  // draw_batch — is byte-identical to constructing a fresh
  // make_explore_scheduler for each scenario and letting
  // ExecutionState::run drive it. Both the reseed contract and the
  // draw_batch ≡ pick equivalence are under test, for every kind.
  const core::RunSpec specs[] = {make_spec(18, 5, sim::SchedulerKind::RoundRobin, 21),
                                 make_spec(24, 4, sim::SchedulerKind::RoundRobin, 22),
                                 make_spec(16, 3, sim::SchedulerKind::RoundRobin, 23)};
  const std::optional<sim::SchedulerKind> kind = devirtualized_kind(GetParam());

  // Pooled: one scheduler, one state, reused across all scenarios.
  std::unique_ptr<sim::Scheduler> pooled = explore::make_explore_scheduler(
      GetParam(), specs[0].seed, specs[0].homes.size());
  sim::ExecutionState pooled_state;

  for (const core::RunSpec& spec : specs) {
    const sim::Instance pooled_instance =
        core::make_instance(core::Algorithm::KnownKFull, spec);
    pooled_state.reset(pooled_instance);
    pooled->reseed(spec.seed);
    const std::uint64_t pooled_digest = drive_via_draw_batch(
        pooled_state, *pooled, kind, spec.homes.size());

    // Fresh per-scenario reference: new scheduler, new state, plain run().
    auto fresh = explore::make_explore_scheduler(GetParam(), spec.seed,
                                                 spec.homes.size());
    const sim::Instance fresh_instance =
        core::make_instance(core::Algorithm::KnownKFull, spec);
    sim::ExecutionState fresh_state;
    fresh_state.reset(fresh_instance);
    const sim::RunResult fresh_result = fresh_state.run(*fresh);

    EXPECT_TRUE(fresh_result.quiescent());
    EXPECT_EQ(pooled_digest, fresh_state.log().digest())
        << explore::to_string(GetParam()) << " n=" << spec.node_count
        << ": pooled reseed diverged from a fresh scheduler";
    EXPECT_EQ(pooled_state.staying_nodes(), fresh_state.staying_nodes());
    EXPECT_EQ(pooled_state.metrics().total_moves(),
              fresh_state.metrics().total_moves());
  }
}

INSTANTIATE_TEST_SUITE_P(AllExploreKinds, DrawBatchReseedSweep,
                         ::testing::ValuesIn(explore::all_explore_scheduler_kinds()),
                         [](const auto& info) {
                           std::string name(explore::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---- pooled fuzz iterations -------------------------------------------------

TEST(FuzzPooling, PooledIterationMatchesOneShot) {
  explore::FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKFull;
  options.iterations = 6;
  options.base_seed = 5;
  sim::ExecutionState reuse;
  for (std::uint64_t i = 0; i < options.iterations; ++i) {
    const explore::FuzzIteration one_shot = explore::fuzz_iteration(options, i);
    const explore::FuzzIteration pooled =
        explore::fuzz_iteration(options, i, &reuse);
    EXPECT_EQ(pooled.digest, one_shot.digest) << "iteration " << i;
    EXPECT_EQ(pooled.actions, one_shot.actions);
    EXPECT_EQ(pooled.failure.has_value(), one_shot.failure.has_value());
  }
}

}  // namespace
}  // namespace udring
