// Tests for Algorithm 1 (core/known_k_full.h): uniform deployment with
// termination detection for agents that know k — Theorem 3's correctness and
// complexity claims, on worked examples and parameterized sweeps across
// configurations and schedulers.

#include "core/known_k_full.h"

#include <gtest/gtest.h>

#include <tuple>

#include "config/generators.h"
#include "core/runner.h"
#include "core/targets.h"
#include "sim/checker.h"
#include "support/test_agents.h"
#include "util/bits.h"
#include "util/rng.h"

namespace udring::core {
namespace {

RunReport run_full(std::size_t n, std::vector<std::size_t> homes,
                   sim::SchedulerKind kind = sim::SchedulerKind::RoundRobin,
                   std::uint64_t seed = 1) {
  RunSpec spec;
  spec.node_count = n;
  spec.homes = std::move(homes);
  spec.scheduler = kind;
  spec.seed = seed;
  return run_algorithm(Algorithm::KnownKFull, spec);
}

TEST(AlgoFull, Fig2Example) {
  // n = 16, k = 4: final gaps must all be 4.
  const RunReport report = run_full(16, {0, 1, 2, 3});
  ASSERT_TRUE(report.success) << report.failure;
  EXPECT_EQ(report.final_positions.size(), 4u);
}

TEST(AlgoFull, SingleAgentHaltsAfterOneCircuit) {
  const RunReport report = run_full(9, {4});
  ASSERT_TRUE(report.success) << report.failure;
  EXPECT_EQ(report.final_positions, (std::vector<std::size_t>{4}))
      << "rank 0, disBase 0: the agent halts back at its home";
  EXPECT_EQ(report.total_moves, 9u) << "exactly one circuit";
}

TEST(AlgoFull, TwoAgentsOppositeEachOther) {
  const RunReport report = run_full(8, {0, 1});
  ASSERT_TRUE(report.success) << report.failure;
  const auto gaps = sim::ring_gaps(report.final_positions, 8);
  EXPECT_EQ(gaps, (std::vector<std::size_t>{4, 4}));
}

TEST(AlgoFull, AlreadyUniformStaysUniform) {
  // From a uniform configuration every agent is rank 0 relative to its own
  // base node (l = k): nobody moves in the deployment phase.
  const RunReport report = run_full(12, {0, 3, 6, 9});
  ASSERT_TRUE(report.success) << report.failure;
  EXPECT_EQ(report.final_positions, (std::vector<std::size_t>{0, 3, 6, 9}));
  EXPECT_EQ(report.total_moves, 4u * 12u) << "selection circuits only";
}

TEST(AlgoFull, Fig1bPeriodicConfiguration) {
  // l = 2: two base nodes; deployment must still be collision-free.
  const RunReport report = run_full(gen::kFig1bNodes, gen::fig1b_homes());
  ASSERT_TRUE(report.success) << report.failure;
}

TEST(AlgoFull, MeasuresRingExactly) {
  RunSpec spec;
  spec.node_count = 13;
  spec.homes = {0, 1, 5, 11};
  const sim::Instance instance = make_instance(Algorithm::KnownKFull, spec);
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  for (sim::AgentId id = 0; id < 4; ++id) {
    const auto& agent = dynamic_cast<const KnownKFullAgent&>(simulator.program(id));
    EXPECT_EQ(agent.measured_n(), 13u);
    EXPECT_EQ(sum(agent.distance_sequence()), 13u);
    EXPECT_EQ(agent.distance_sequence().size(), 4u);
  }
}

TEST(AlgoFull, RanksArePerBaseAndDistinct) {
  // Homes {0,1,3,6,7,9} on 12 nodes (Fig 1(b) shape): l = 2, so ranks run
  // 0..2 within each half.
  RunSpec spec;
  spec.node_count = 12;
  spec.homes = {0, 1, 3, 6, 7, 9};
  const sim::Instance instance = make_instance(Algorithm::KnownKFull, spec);
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  std::vector<std::size_t> ranks;
  for (sim::AgentId id = 0; id < 6; ++id) {
    ranks.push_back(
        dynamic_cast<const KnownKFullAgent&>(simulator.program(id)).rank());
  }
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<std::size_t>{0, 0, 1, 1, 2, 2}));
}

TEST(AlgoFull, MemoryIsThetaKLogN) {
  // The distance sequence dominates: k·bit_width(n) bits, within constants.
  const std::size_t n = 64, k = 8;
  RunSpec spec;
  spec.node_count = n;
  Rng rng(7);
  spec.homes = gen::random_homes(n, k, rng);
  const RunReport report = run_algorithm(Algorithm::KnownKFull, spec);
  ASSERT_TRUE(report.success) << report.failure;
  const std::size_t k_log_n = k * bit_width(n);
  EXPECT_GE(report.max_memory_bits, k_log_n / 2);
  EXPECT_LE(report.max_memory_bits, 4 * k_log_n);
}

TEST(AlgoFull, MovesRespectTheoremThreeBound) {
  // Each agent: n (selection) + < 2n (deployment) ⇒ total < 3kn.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const std::size_t n = 48, k = 12;
    Rng rng(seed);
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::random_homes(n, k, rng);
    const RunReport report = run_algorithm(Algorithm::KnownKFull, spec);
    ASSERT_TRUE(report.success) << report.failure;
    EXPECT_LT(report.total_moves, 3 * k * n);
    EXPECT_GE(report.total_moves, k * n) << "every agent does a full circuit";
  }
}

TEST(AlgoFull, IdealTimeIsLinearInN) {
  // Theorem 3: O(n) time. Each agent moves ≤ 3n with no waiting, so the
  // causal makespan is ≤ 3n + 1.
  const std::size_t n = 60, k = 6;
  Rng rng(11);
  RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::random_homes(n, k, rng);
  spec.scheduler = sim::SchedulerKind::Synchronous;
  const RunReport report = run_algorithm(Algorithm::KnownKFull, spec);
  ASSERT_TRUE(report.success) << report.failure;
  EXPECT_LE(report.makespan, 3 * n + 1);
}

TEST(AlgoFull, PhaseSplitIsSelectionThenDeployment) {
  RunSpec spec;
  spec.node_count = 20;
  spec.homes = {0, 1, 2, 3, 4};
  const RunReport report = run_algorithm(Algorithm::KnownKFull, spec);
  ASSERT_TRUE(report.success) << report.failure;
  ASSERT_EQ(report.moves_by_phase.size(), 2u);
  EXPECT_EQ(report.moves_by_phase[KnownKFullAgent::kSelection], 5u * 20u)
      << "every agent travels one full circuit in selection";
  EXPECT_GT(report.moves_by_phase[KnownKFullAgent::kDeployment], 0u);
}

TEST(AlgoFull, FinalPositionsMatchAnalyticTargets) {
  // White-box exactness: the agents must land on precisely the target set
  // all_targets(plan, base) where base is the home of the lexmin-rotation
  // agent — not merely on *some* uniform set.
  Rng rng(17);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 10 + static_cast<std::size_t>(rng.below(30));
    const std::size_t k =
        2 + static_cast<std::size_t>(rng.below(std::min<std::uint64_t>(n - 1, 8)));
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::random_homes(n, k, rng);
    const RunReport report = run_algorithm(Algorithm::KnownKFull, spec);
    ASSERT_TRUE(report.success) << report.failure;

    // Analytic expectation from the configuration alone.
    std::vector<std::size_t> homes = spec.homes;
    std::sort(homes.begin(), homes.end());
    const DistanceSeq d = distances_from_positions(homes, n);
    const std::size_t base_index = min_rotation(d);
    const std::size_t base_node = homes[base_index];
    const TargetPlan plan = make_target_plan(n, k, symmetry_degree(d));
    EXPECT_EQ(report.final_positions, all_targets(plan, base_node))
        << "n=" << n << " k=" << k << " trial=" << trial;
  }
}

// ---- footnote-2 variant: knowledge of n instead of k -------------------------

TEST(AlgoFullKnownN, MeasuresKAndDeploysUniformly) {
  RunSpec spec;
  spec.node_count = 13;
  spec.homes = {0, 1, 5, 11};
  const sim::Instance instance = make_instance(Algorithm::KnownNFull, spec);
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  ASSERT_TRUE(sim::UniformDeploymentOracle(true).check_goal(simulator).ok);
  for (sim::AgentId id = 0; id < 4; ++id) {
    const auto& agent =
        dynamic_cast<const KnownNFullAgent&>(simulator.program(id));
    EXPECT_EQ(agent.measured_k(), 4u);
    EXPECT_EQ(sum(agent.distance_sequence()), 13u);
  }
}

TEST(AlgoFullKnownN, LandsOnExactlyTheSameTargetsAsKnownK) {
  // The paper's footnote 2: knowledge of n or of k is interchangeable. Both
  // variants must compute identical distance sequences, ranks and targets.
  Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.below(40));
    const std::size_t k =
        2 + static_cast<std::size_t>(rng.below(std::min<std::uint64_t>(n - 1, 9)));
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::random_homes(n, k, rng);
    const RunReport with_k = run_algorithm(Algorithm::KnownKFull, spec);
    const RunReport with_n = run_algorithm(Algorithm::KnownNFull, spec);
    ASSERT_TRUE(with_k.success) << with_k.failure;
    ASSERT_TRUE(with_n.success) << with_n.failure;
    EXPECT_EQ(with_k.final_positions, with_n.final_positions)
        << "n=" << n << " k=" << k;
    EXPECT_EQ(with_k.total_moves, with_n.total_moves);
  }
}

TEST(AlgoFullKnownN, SurvivesAllSchedulers) {
  for (const sim::SchedulerKind kind : sim::all_scheduler_kinds()) {
    RunSpec spec;
    spec.node_count = 21;
    spec.homes = {0, 2, 3, 9, 15};
    spec.scheduler = kind;
    spec.seed = 5;
    const RunReport report = run_algorithm(Algorithm::KnownNFull, spec);
    EXPECT_TRUE(report.success) << sim::to_string(kind) << ": " << report.failure;
  }
}

// ---- parameterized sweep: (n, k) × scheduler × seed -------------------------

using SweepParam = std::tuple<std::tuple<std::size_t, std::size_t>,
                              sim::SchedulerKind, std::uint64_t>;

class AlgoFullSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AlgoFullSweep, AchievesUniformDeploymentWithTermination) {
  const auto [nk, scheduler, seed] = GetParam();
  const auto [n, k] = nk;
  Rng rng(seed * 7919 + n * 31 + k);
  RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::random_homes(n, k, rng);
  spec.scheduler = scheduler;
  spec.seed = seed;
  const RunReport report = run_algorithm(Algorithm::KnownKFull, spec);
  ASSERT_TRUE(report.success)
      << "n=" << n << " k=" << k << " sched=" << sim::to_string(scheduler)
      << " seed=" << seed << ": " << report.failure;
  EXPECT_LT(report.total_moves, 3 * k * n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgoFullSweep,
    ::testing::Combine(
        ::testing::Values(std::make_tuple(4, 2), std::make_tuple(7, 3),
                          std::make_tuple(12, 4), std::make_tuple(16, 16),
                          std::make_tuple(17, 5), std::make_tuple(24, 6),
                          std::make_tuple(31, 7), std::make_tuple(40, 10)),
        ::testing::ValuesIn(sim::all_scheduler_kinds()),
        ::testing::Values(1, 2, 3)));

// Periodic configurations deserve their own sweep: base-node multiplicity
// must not cause collisions for any l | k.
class AlgoFullPeriodic
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {
};

TEST_P(AlgoFullPeriodic, PeriodicConfigurationsDeployCleanly) {
  const auto [n, k, l] = GetParam();
  Rng rng(n * 1000 + k * 10 + l);
  RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::periodic_homes(n, k, l, rng);
  const RunReport report = run_algorithm(Algorithm::KnownKFull, spec);
  ASSERT_TRUE(report.success) << "n=" << n << " k=" << k << " l=" << l << ": "
                              << report.failure;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AlgoFullPeriodic,
                         ::testing::Values(std::make_tuple(12, 6, 2),
                                           std::make_tuple(12, 6, 3),
                                           std::make_tuple(24, 8, 4),
                                           std::make_tuple(24, 12, 2),
                                           std::make_tuple(36, 12, 6),
                                           std::make_tuple(40, 20, 5),
                                           std::make_tuple(48, 16, 8)));

}  // namespace
}  // namespace udring::core
