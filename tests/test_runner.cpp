// Tests for core/runner.h: the experiment driver that benches and examples
// rely on — factories, goal evaluation per algorithm, and report fields.

#include "core/runner.h"

#include <gtest/gtest.h>

#include "config/generators.h"
#include "support/test_agents.h"

namespace udring::core {
namespace {

TEST(Runner, FactoryNamesMatchAlgorithms) {
  for (const Algorithm algorithm :
       {Algorithm::KnownKFull, Algorithm::KnownNFull, Algorithm::KnownKLogMem,
        Algorithm::KnownKLogMemStrict, Algorithm::UnknownRelaxed,
        Algorithm::Rendezvous}) {
    const auto factory = make_program_factory(algorithm, 4, 16);
    const auto program = factory(0);
    ASSERT_NE(program, nullptr);
    EXPECT_FALSE(program->name().empty());
  }
}

TEST(Runner, ReportCarriesAllMetrics) {
  RunSpec spec;
  spec.node_count = 16;
  spec.homes = {0, 1, 2, 3};
  spec.scheduler = sim::SchedulerKind::Synchronous;
  const RunReport report = run_algorithm(Algorithm::KnownKFull, spec);
  EXPECT_TRUE(report.success) << report.failure;
  EXPECT_TRUE(report.result.quiescent());
  EXPECT_GT(report.total_moves, 0u);
  EXPECT_GT(report.makespan, 0u);
  EXPECT_GT(report.scheduler_rounds, 0u);
  EXPECT_GT(report.max_memory_bits, 0u);
  EXPECT_EQ(report.final_positions.size(), 4u);
  EXPECT_FALSE(report.moves_by_phase.empty());
}

TEST(Runner, MakespanTracksSynchronousRounds) {
  // The causal ideal-time clock and the lockstep round count measure the
  // same thing, up to the +1 arrival offset.
  RunSpec spec;
  spec.node_count = 24;
  spec.homes = gen::uniform_homes(24, 4);
  spec.scheduler = sim::SchedulerKind::Synchronous;
  const RunReport report = run_algorithm(Algorithm::KnownKFull, spec);
  ASSERT_TRUE(report.success);
  EXPECT_NEAR(static_cast<double>(report.makespan),
              static_cast<double>(report.scheduler_rounds), 2.0);
}

TEST(Runner, GoalDistinguishesDefinitionOneFromTwo) {
  RunSpec spec;
  spec.node_count = 12;
  spec.homes = {0, 5, 7};
  // The relaxed algorithm suspends — it must FAIL Definition 1's oracle and
  // pass Definition 2's.
  const sim::Instance instance = make_instance(Algorithm::UnknownRelaxed, spec);
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  EXPECT_FALSE(sim::UniformDeploymentOracle(true).check_goal(simulator).ok);
  EXPECT_TRUE(make_goal_oracle(Algorithm::UnknownRelaxed, {})
                  ->check_goal(simulator)
                  .ok);
}

TEST(Runner, ActionLimitIsReportedAsFailure) {
  RunSpec spec;
  spec.node_count = 16;
  spec.homes = {0, 1, 2, 3};
  spec.sim_options.max_actions = 10;  // far too few
  const RunReport report = run_algorithm(Algorithm::KnownKFull, spec);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.failure.find("action limit"), std::string::npos);
}

TEST(Runner, ToStringCoversAllAlgorithms) {
  EXPECT_EQ(to_string(Algorithm::KnownKFull), "known-k-full");
  EXPECT_EQ(to_string(Algorithm::KnownNFull), "known-n-full");
  EXPECT_EQ(to_string(Algorithm::KnownKLogMem), "known-k-logmem");
  EXPECT_EQ(to_string(Algorithm::KnownKLogMemStrict), "known-k-logmem-strict");
  EXPECT_EQ(to_string(Algorithm::UnknownRelaxed), "unknown-relaxed");
  EXPECT_EQ(to_string(Algorithm::Rendezvous), "rendezvous");
}

}  // namespace
}  // namespace udring::core
