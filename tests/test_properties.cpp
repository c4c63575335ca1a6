// Cross-algorithm property tests: invariants that must hold for *every*
// uniform-deployment algorithm in the library, run against each other on the
// same instances — plus the lower-bound sanity checks of Theorems 1 and 2 at
// test scale.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "config/generators.h"
#include "core/runner.h"
#include "sim/checker.h"
#include "support/test_agents.h"
#include "util/rng.h"

namespace udring::core {
namespace {

const Algorithm kDeploymentAlgorithms[] = {
    Algorithm::KnownKFull,
    Algorithm::KnownKLogMem,
    Algorithm::KnownKLogMemStrict,
    Algorithm::UnknownRelaxed,
};

class CrossAlgorithm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossAlgorithm, AllAlgorithmsAgreeOnUniformity) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::size_t n = 10 + static_cast<std::size_t>(rng.below(40));
  const std::size_t k =
      2 + static_cast<std::size_t>(rng.below(std::min<std::uint64_t>(n - 1, 10)));
  RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::random_homes(n, k, rng);
  spec.seed = seed;

  for (const Algorithm algorithm : kDeploymentAlgorithms) {
    const RunReport report = run_algorithm(algorithm, spec);
    ASSERT_TRUE(report.success)
        << to_string(algorithm) << " n=" << n << " k=" << k << " seed=" << seed
        << ": " << report.failure;
    // Cross-check with the position oracle directly.
    const auto check = sim::check_positions_uniform(report.final_positions, n);
    ASSERT_TRUE(check.ok) << to_string(algorithm) << ": " << check.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossAlgorithm, ::testing::Range<std::uint64_t>(1, 26));

TEST(ScheduleIndependence, GeometryDeterminedAlgorithmsLandIdentically) {
  // Algorithm 1 and the relaxed algorithm pick targets from geometry alone;
  // their final positions must not depend on the schedule. (Algorithm 2+3's
  // followers race for vacant targets, so only the gap multiset is fixed.)
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 12 + static_cast<std::size_t>(rng.below(30));
    const std::size_t k =
        2 + static_cast<std::size_t>(rng.below(std::min<std::uint64_t>(n - 1, 8)));
    const auto homes = gen::random_homes(n, k, rng);
    for (const Algorithm algorithm :
         {Algorithm::KnownKFull, Algorithm::UnknownRelaxed}) {
      std::set<std::vector<std::size_t>> outcomes;
      for (const sim::SchedulerKind kind : sim::all_scheduler_kinds()) {
        RunSpec spec;
        spec.node_count = n;
        spec.homes = homes;
        spec.scheduler = kind;
        spec.seed = 7;
        const RunReport report = run_algorithm(algorithm, spec);
        ASSERT_TRUE(report.success) << to_string(algorithm) << ": " << report.failure;
        outcomes.insert(report.final_positions);
      }
      EXPECT_EQ(outcomes.size(), 1u)
          << to_string(algorithm) << " final positions depend on the schedule "
          << "(n=" << n << " k=" << k << ")";
    }
  }
}

TEST(Tokens, EveryHomeKeepsExactlyOneToken) {
  Rng rng(5);
  for (const Algorithm algorithm : kDeploymentAlgorithms) {
    const std::size_t n = 20, k = 5;
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::random_homes(n, k, rng);
    const sim::Instance instance = make_instance(algorithm, spec);
    sim::ExecutionState simulator(instance);
    test::run_round_robin(simulator);
    EXPECT_EQ(simulator.total_tokens(), k) << to_string(algorithm);
    for (const std::size_t home : spec.homes) {
      EXPECT_EQ(simulator.tokens(home), 1u)
          << to_string(algorithm) << " home " << home;
    }
  }
}

TEST(Metrics, PhaseMovesSumToTotalMoves) {
  Rng rng(8);
  for (const Algorithm algorithm : kDeploymentAlgorithms) {
    RunSpec spec;
    spec.node_count = 30;
    spec.homes = gen::random_homes(30, 6, rng);
    const RunReport report = run_algorithm(algorithm, spec);
    ASSERT_TRUE(report.success) << to_string(algorithm);
    std::size_t phase_total = 0;
    for (const std::size_t moves : report.moves_by_phase) phase_total += moves;
    EXPECT_EQ(phase_total, report.total_moves) << to_string(algorithm);
  }
}

TEST(ModelInvariants, HoldThroughoutEveryAlgorithmsExecution) {
  Rng rng(13);
  for (const Algorithm algorithm : kDeploymentAlgorithms) {
    RunSpec spec;
    spec.node_count = 18;
    spec.homes = gen::random_homes(18, 5, rng);
    const sim::Instance instance = make_instance(algorithm, spec);
    sim::ExecutionState simulator(instance);
    sim::RandomScheduler scheduler(17);
    scheduler.reset(simulator.agent_count());
    std::size_t peak_tokens = 0;
    while (simulator.step(scheduler)) {
      peak_tokens = std::max(peak_tokens, simulator.total_tokens());
      const auto check = sim::check_model_invariants(simulator, peak_tokens);
      ASSERT_TRUE(check.ok) << to_string(algorithm) << ": " << check.reason;
    }
  }
}

TEST(TheoremOne, PackedConfigurationForcesOmegaKnMoves) {
  // The Fig 3 witness at test scale: all agents in the first quarter arc.
  // Any correct algorithm needs ≥ kn/16 total moves (the proof's constant).
  for (const Algorithm algorithm : kDeploymentAlgorithms) {
    const std::size_t n = 32, k = 8;
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::packed_quarter_homes(n, k);
    const RunReport report = run_algorithm(algorithm, spec);
    ASSERT_TRUE(report.success) << to_string(algorithm) << ": " << report.failure;
    EXPECT_GE(report.total_moves, k * n / 16) << to_string(algorithm);
  }
}

TEST(TheoremTwo, TimeIsAtLeastLinearInN) {
  // Ω(n) ideal time: from the packed configuration some agent must travel
  // ≥ n/4, and every algorithm here starts with a full circuit anyway.
  for (const Algorithm algorithm : kDeploymentAlgorithms) {
    const std::size_t n = 40, k = 4;
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::packed_quarter_homes(n, k);
    spec.scheduler = sim::SchedulerKind::Synchronous;
    const RunReport report = run_algorithm(algorithm, spec);
    ASSERT_TRUE(report.success) << to_string(algorithm);
    EXPECT_GE(report.makespan, n / 4) << to_string(algorithm);
  }
}

TEST(KEqualsN, FullRingDeploysEverywhere) {
  // Degenerate but legal: one agent per node. Uniform means staying spread.
  for (const Algorithm algorithm : kDeploymentAlgorithms) {
    RunSpec spec;
    spec.node_count = 6;
    spec.homes = {0, 1, 2, 3, 4, 5};
    const RunReport report = run_algorithm(algorithm, spec);
    ASSERT_TRUE(report.success) << to_string(algorithm) << ": " << report.failure;
    EXPECT_EQ(report.final_positions.size(), 6u);
  }
}

TEST(TwoAgents, SmallestInterestingInstanceAcrossSchedulers) {
  for (const Algorithm algorithm : kDeploymentAlgorithms) {
    for (const sim::SchedulerKind kind : sim::all_scheduler_kinds()) {
      RunSpec spec;
      spec.node_count = 5;
      spec.homes = {0, 1};
      spec.scheduler = kind;
      spec.seed = 3;
      const RunReport report = run_algorithm(algorithm, spec);
      ASSERT_TRUE(report.success)
          << to_string(algorithm) << " / " << sim::to_string(kind) << ": "
          << report.failure;
      const auto gaps = sim::ring_gaps(report.final_positions, 5);
      EXPECT_EQ(std::set<std::size_t>(gaps.begin(), gaps.end()),
                (std::set<std::size_t>{2, 3}));
    }
  }
}

}  // namespace
}  // namespace udring::core
