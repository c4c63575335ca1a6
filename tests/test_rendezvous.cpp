// Tests for the rendezvous baseline (core/rendezvous.h): it gathers all
// agents on aperiodic configurations and correctly reports periodic ones as
// unsolvable — the executable form of the paper's §1.3 contrast with uniform
// deployment (which succeeds on *every* configuration).

#include "core/rendezvous.h"

#include <gtest/gtest.h>

#include <tuple>

#include "config/generators.h"
#include "core/distance_sequence.h"
#include "core/runner.h"
#include "sim/checker.h"
#include "support/test_agents.h"
#include "util/rng.h"

namespace udring::core {
namespace {

TEST(Rendezvous, GathersOnAperiodicConfiguration) {
  RunSpec spec;
  spec.node_count = 12;
  spec.homes = gen::fig1a_homes();  // l = 1
  const sim::Instance instance = make_instance(Algorithm::Rendezvous, spec);
  sim::ExecutionState simulator(instance);
  const auto result = test::run_round_robin(simulator);
  ASSERT_TRUE(result.quiescent());
  EXPECT_TRUE(sim::check_gathered(simulator).ok);
  for (sim::AgentId id = 0; id < simulator.agent_count(); ++id) {
    const auto& agent = dynamic_cast<const RendezvousAgent&>(simulator.program(id));
    EXPECT_FALSE(agent.detected_unsolvable());
  }
}

TEST(Rendezvous, GathersAtTheLexminBaseNode) {
  // Homes {0,1,5,7} on 12 nodes: distance sequence from 0 is (1,4,2,5);
  // rotations: x=0 minimal → base is agent 0's home, node 0.
  RunSpec spec;
  spec.node_count = 12;
  spec.homes = {0, 1, 5, 7};
  const sim::Instance instance = make_instance(Algorithm::Rendezvous, spec);
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  ASSERT_TRUE(sim::check_gathered(simulator).ok);
  EXPECT_EQ(simulator.staying_nodes().front(), 0u);
}

TEST(Rendezvous, DetectsPeriodicAsUnsolvable) {
  RunSpec spec;
  spec.node_count = gen::kFig1bNodes;
  spec.homes = gen::fig1b_homes();  // l = 2
  const sim::Instance instance = make_instance(Algorithm::Rendezvous, spec);
  sim::ExecutionState simulator(instance);
  const auto result = test::run_round_robin(simulator);
  ASSERT_TRUE(result.quiescent());
  for (sim::AgentId id = 0; id < simulator.agent_count(); ++id) {
    const auto& agent = dynamic_cast<const RendezvousAgent&>(simulator.program(id));
    EXPECT_TRUE(agent.detected_unsolvable());
  }
  EXPECT_FALSE(sim::check_gathered(simulator).ok);
  EXPECT_TRUE(make_goal_oracle(Algorithm::Rendezvous, {})
                  ->check_goal(simulator)
                  .ok)
      << "correctly detected unsolvability counts as success";
}

TEST(Rendezvous, ContrastUniformDeploymentSolvesWhatRendezvousCannot) {
  // The paper's headline: the same periodic instance that defeats
  // rendezvous is routine for every uniform deployment algorithm.
  RunSpec spec;
  spec.node_count = gen::kFig1bNodes;
  spec.homes = gen::fig1b_homes();
  EXPECT_FALSE(run_algorithm(Algorithm::Rendezvous, spec).final_positions.size() == 1);
  for (const Algorithm algorithm :
       {Algorithm::KnownKFull, Algorithm::KnownKLogMem, Algorithm::UnknownRelaxed}) {
    const RunReport report = run_algorithm(algorithm, spec);
    EXPECT_TRUE(report.success) << to_string(algorithm) << ": " << report.failure;
  }
}

class RendezvousSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(RendezvousSweep, OutcomeMatchesConfigurationPeriodicity) {
  const auto [n, k, seed] = GetParam();
  Rng rng(seed);
  RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::random_homes(n, k, rng);
  const bool periodic = config_symmetry_degree(spec.homes, n) > 1;
  const sim::Instance instance = make_instance(Algorithm::Rendezvous, spec);
  sim::ExecutionState simulator(instance);
  const auto result = test::run_round_robin(simulator);
  ASSERT_TRUE(result.quiescent());
  if (periodic) {
    EXPECT_FALSE(sim::check_gathered(simulator).ok);
  } else {
    EXPECT_TRUE(sim::check_gathered(simulator).ok)
        << "n=" << n << " k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RendezvousSweep,
                         ::testing::Combine(::testing::Values(8, 12, 17, 24, 30),
                                            ::testing::Values(2, 3, 4, 6),
                                            ::testing::Values(1, 2, 3, 4)));

}  // namespace
}  // namespace udring::core
