// Tests for Algorithms 4+5+6 (core/unknown_relaxed.h): relaxed uniform
// deployment without knowledge of k or n — the estimator (Fig 8), the
// misestimation bound (Lemma 3), the correct-estimator guarantee (Lemma 4),
// message-driven correction (Fig 9), periodic-ring convergence to the
// fundamental ring (Lemmas 7–9, Fig 11), and Theorem 6's complexity claims.

#include "core/unknown_relaxed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "config/generators.h"
#include "core/runner.h"
#include "sim/checker.h"
#include "support/test_agents.h"
#include "util/bits.h"
#include "util/rng.h"

namespace udring::core {
namespace {

std::vector<const UnknownRelaxedAgent*> agents_of(
    const sim::ExecutionState& sim) {
  std::vector<const UnknownRelaxedAgent*> agents;
  for (sim::AgentId id = 0; id < sim.agent_count(); ++id) {
    agents.push_back(dynamic_cast<const UnknownRelaxedAgent*>(&sim.program(id)));
  }
  return agents;
}

RunReport run_relaxed(std::size_t n, std::vector<std::size_t> homes,
                      sim::SchedulerKind kind = sim::SchedulerKind::RoundRobin,
                      std::uint64_t seed = 1) {
  RunSpec spec;
  spec.node_count = n;
  spec.homes = std::move(homes);
  spec.scheduler = kind;
  spec.seed = seed;
  return run_algorithm(Algorithm::UnknownRelaxed, spec);
}

TEST(AlgoRelaxed, SingleAgentEstimatesExactlyAndSuspends) {
  RunSpec spec;
  spec.node_count = 9;
  spec.homes = {2};
  const sim::Instance instance = make_instance(Algorithm::UnknownRelaxed, spec);
  sim::ExecutionState simulator(instance);
  const auto result = test::run_round_robin(simulator);
  ASSERT_TRUE(result.quiescent());
  EXPECT_TRUE(simulator.all_suspended());
  const auto agents = agents_of(simulator);
  EXPECT_EQ(agents[0]->estimated_n(), 9u);
  EXPECT_EQ(agents[0]->estimated_k(), 1u);
  EXPECT_EQ(agents[0]->nodes_visited(), 9u * 12u)
      << "4 estimating circuits + 8 patrolling circuits";
}

TEST(AlgoRelaxed, Fig9TrappedAgentFirstEstimatesFour) {
  // Fig 8/9: the ring (11,(1,3)⁴), n = 27. The agent whose walk begins with
  // the (1,3)-repetition sees (1,3)⁴ after 8 tokens and estimates n' = 4.
  RunSpec spec;
  spec.node_count = gen::kFig9Nodes;
  spec.homes = gen::fig9_homes();  // {0, 11, 12, 15, 16, 19, 20, 23, 24}
  const sim::Instance instance = make_instance(Algorithm::UnknownRelaxed, spec);
  sim::ExecutionState simulator(instance);
  const auto result = test::run_round_robin(simulator);
  ASSERT_TRUE(result.quiescent());

  const auto agents = agents_of(simulator);
  std::size_t trapped = 0;
  std::size_t exact = 0;
  for (sim::AgentId id = 0; id < simulator.agent_count(); ++id) {
    const std::size_t first = agents[id]->first_estimate_n();
    if (first == 4) ++trapped;
    if (first == 27) ++exact;
    EXPECT_TRUE(first == 27 || first <= 27 / 2)
        << "Lemma 3 violated: first estimate " << first;
    EXPECT_EQ(agents[id]->estimated_n(), 27u)
        << "agent " << id << " must converge to the true ring size";
  }
  EXPECT_GE(trapped, 1u) << "the (1,3)⁴ window must trap at least one agent";
  EXPECT_GE(exact, 1u) << "Lemma 4: someone estimates n exactly";

  const auto check = sim::UniformDeploymentOracle(false).check_goal(simulator);
  EXPECT_TRUE(check.ok) << check.reason;
}

TEST(AlgoRelaxed, TrappedAgentsAreCorrectedByMessages) {
  RunSpec spec;
  spec.node_count = gen::kFig9Nodes;
  spec.homes = gen::fig9_homes();
  const sim::Instance instance = make_instance(Algorithm::UnknownRelaxed, spec);
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  std::size_t total_corrections = 0;
  for (const auto* agent : agents_of(simulator)) {
    total_corrections += agent->corrections();
  }
  EXPECT_GE(total_corrections, 1u)
      << "at least one suspended agent must adopt a larger estimate";
}

TEST(AlgoRelaxed, Lemma3And4OnRandomAperiodicRings) {
  Rng rng(42);
  int aperiodic_rings = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 12 + static_cast<std::size_t>(rng.below(52));
    const std::size_t k =
        2 + static_cast<std::size_t>(rng.below(std::min<std::uint64_t>(n / 2, 10)));
    auto homes = gen::random_homes(n, k, rng);
    if (config_symmetry_degree(homes, n) != 1) continue;  // aperiodic only here
    ++aperiodic_rings;

    RunSpec spec;
    spec.node_count = n;
    spec.homes = homes;
    const sim::Instance instance =
        make_instance(Algorithm::UnknownRelaxed, spec);
    sim::ExecutionState simulator(instance);
    const auto result = test::run_round_robin(simulator);
    ASSERT_TRUE(result.quiescent()) << "n=" << n << " k=" << k;

    bool someone_exact = false;
    for (const auto* agent : agents_of(simulator)) {
      const std::size_t first = agent->first_estimate_n();
      EXPECT_TRUE(first == n || 2 * first <= n)
          << "Lemma 3: wrong estimates are at most n/2 (n=" << n << ", got "
          << first << ")";
      someone_exact = someone_exact || (first == n);
      EXPECT_EQ(agent->estimated_n(), n) << "Lemma 5: everyone converges";
    }
    EXPECT_TRUE(someone_exact) << "Lemma 4 violated at n=" << n << " k=" << k;
  }
  EXPECT_GE(aperiodic_rings, 15) << "sweep should mostly draw aperiodic rings";
}

TEST(AlgoRelaxed, Fig11PeriodicRingConvergesToFundamentalRing) {
  // The (6,2)-ring: n = 12, D = (1,2,3)². Every agent estimates N = 6 and
  // the final configuration is uniform although nobody ever learns n.
  const RunReport report = run_relaxed(gen::kFig11Nodes, gen::fig11_homes());
  ASSERT_TRUE(report.success) << report.failure;

  RunSpec spec;
  spec.node_count = gen::kFig11Nodes;
  spec.homes = gen::fig11_homes();
  const sim::Instance instance = make_instance(Algorithm::UnknownRelaxed, spec);
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  for (const auto* agent : agents_of(simulator)) {
    EXPECT_EQ(agent->estimated_n(), 6u) << "Lemma 7: estimates equal N = n/l";
    EXPECT_EQ(agent->estimated_k(), 3u);
  }
}

TEST(AlgoRelaxed, AlreadyUniformConfigIsCheapest) {
  // l = k: every agent sees (g)⁴ with g = n/k after 4 small circuits, then
  // patrols to 12·g and deploys with rank 0 (zero extra moves): exactly 12·g
  // per agent — Theorem 6 with l = k gives O(n) *total* moves.
  const std::size_t n = 24, k = 6;
  const RunReport report = run_relaxed(n, gen::uniform_homes(n, k));
  ASSERT_TRUE(report.success) << report.failure;
  EXPECT_EQ(report.total_moves, k * 12 * (n / k)) << "12·(n/k) per agent";
}

TEST(AlgoRelaxed, MovesScaleInverselyWithSymmetryDegree) {
  // Theorem 6: O(kn/l) moves. Same n, k; growing l must shrink cost.
  const std::size_t n = 48, k = 8;
  Rng rng(7);
  std::vector<std::size_t> moves;
  for (const std::size_t l : {1u, 2u, 4u, 8u}) {
    auto homes = l == 1 ? gen::random_homes(n, k, rng)
                        : gen::periodic_homes(n, k, l, rng);
    while (l == 1 && config_symmetry_degree(homes, n) != 1) {
      homes = gen::random_homes(n, k, rng);
    }
    const RunReport report = run_relaxed(n, homes);
    ASSERT_TRUE(report.success) << "l=" << l << ": " << report.failure;
    moves.push_back(report.total_moves);
    EXPECT_LE(report.total_moves, 14 * k * n / l + k)
        << "Theorem 6 move bound at l=" << l;
  }
  EXPECT_LT(moves.back(), moves.front() / 4)
      << "l = 8 must be far cheaper than l = 1";
}

TEST(AlgoRelaxed, MemoryScalesWithKOverL) {
  const std::size_t n = 48, k = 8;
  Rng rng(9);
  auto aperiodic = gen::random_homes(n, k, rng);
  while (config_symmetry_degree(aperiodic, n) != 1) {
    aperiodic = gen::random_homes(n, k, rng);
  }
  const RunReport asym = run_relaxed(n, aperiodic);
  const RunReport sym = run_relaxed(n, gen::periodic_homes(n, k, 4, rng));
  ASSERT_TRUE(asym.success && sym.success);
  // Aperiodic: D has 4k entries of ~log n bits. l = 4: 4(k/l) entries of
  // ~log(n/l) bits — at least 4x smaller.
  EXPECT_LT(sym.max_memory_bits, asym.max_memory_bits / 2);
}

TEST(AlgoRelaxed, IdealTimeWithinFourteenNOverL) {
  // Theorem 6: O(n/l) time; the proof gives ≤ 14·(n/l) plus O(1).
  for (const std::size_t l : {1u, 2u, 3u}) {
    const std::size_t n = 36, k = 6;
    Rng rng(l);
    auto homes = l == 1 ? gen::random_homes(n, k, rng)
                        : gen::periodic_homes(n, k, l, rng);
    while (l == 1 && config_symmetry_degree(homes, n) != 1) {
      homes = gen::random_homes(n, k, rng);
    }
    RunSpec spec;
    spec.node_count = n;
    spec.homes = homes;
    spec.scheduler = sim::SchedulerKind::Synchronous;
    const RunReport report = run_algorithm(Algorithm::UnknownRelaxed, spec);
    ASSERT_TRUE(report.success) << report.failure;
    EXPECT_LE(report.makespan, 14 * (n / l) + 2 * k + 2) << "l=" << l;
  }
}

TEST(AlgoRelaxed, EstimateMessagesCarryTheSendersWholeState) {
  // White-box: inspect a patroller→suspended handoff on the Fig 9 ring via
  // the event log's Broadcast events.
  RunSpec spec;
  spec.node_count = gen::kFig9Nodes;
  spec.homes = gen::fig9_homes();
  spec.sim_options.record_events = true;
  const sim::Instance instance = make_instance(Algorithm::UnknownRelaxed, spec);
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  const auto broadcasts = simulator.log().of_kind(sim::EventKind::Broadcast);
  std::size_t delivered = 0;
  for (const auto& event : broadcasts) delivered += event.detail;
  EXPECT_GE(delivered, 1u) << "patrollers must reach suspended agents";
}

TEST(AlgoRelaxed, PackedConfigurationRegression) {
  // Reproduction finding (DESIGN.md §6 item 7): on the packed Theorem-1
  // witness the head-of-arc agent estimates n' = 1 from the run of gap-1
  // distances and suspends after just 12 moves — long before any correct
  // estimator finishes its 4n-move estimating phase. With the resume offset
  // t bounded by |Dℓ| (the pseudocode's literal reading) it could never be
  // corrected; with the periodic-extension alignment it must be.
  for (const std::size_t n : {64u, 128u, 256u}) {
    const std::size_t k = n / 8;
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::packed_quarter_homes(n, k);
    const sim::Instance instance =
        make_instance(Algorithm::UnknownRelaxed, spec);
    sim::ExecutionState simulator(instance);
    const auto result = test::run_round_robin(simulator);
    ASSERT_TRUE(result.quiescent()) << "n=" << n;
    const auto check =
        sim::UniformDeploymentOracle(false).check_goal(simulator);
    ASSERT_TRUE(check.ok) << "n=" << n << ": " << check.reason;
    const auto agents = agents_of(simulator);
    EXPECT_EQ(agents[0]->first_estimate_n(), 1u)
        << "the head agent must start with the degenerate estimate";
    for (const auto* agent : agents) {
      EXPECT_EQ(agent->estimated_n(), n) << "everyone must converge";
    }
  }
}

// ---- parameterized sweeps ----------------------------------------------------

using SweepParam = std::tuple<std::tuple<std::size_t, std::size_t>,
                              sim::SchedulerKind, std::uint64_t>;

class AlgoRelaxedSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AlgoRelaxedSweep, AchievesRelaxedUniformDeployment) {
  const auto [nk, scheduler, seed] = GetParam();
  const auto [n, k] = nk;
  Rng rng(seed * 6949 + n * 17 + k);
  RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::random_homes(n, k, rng);
  spec.scheduler = scheduler;
  spec.seed = seed;
  const RunReport report = run_algorithm(Algorithm::UnknownRelaxed, spec);
  ASSERT_TRUE(report.success)
      << "n=" << n << " k=" << k << " sched=" << sim::to_string(scheduler)
      << " seed=" << seed << ": " << report.failure;
  EXPECT_LE(report.total_moves, 14 * k * n + k) << "Theorem 6 with l = 1";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgoRelaxedSweep,
    ::testing::Combine(
        ::testing::Values(std::make_tuple(4, 2), std::make_tuple(9, 3),
                          std::make_tuple(13, 4), std::make_tuple(16, 16),
                          std::make_tuple(20, 7), std::make_tuple(27, 9),
                          std::make_tuple(33, 6), std::make_tuple(40, 5)),
        ::testing::ValuesIn(sim::all_scheduler_kinds()),
        ::testing::Values(1, 2, 3)));

class AlgoRelaxedPeriodic
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {
};

TEST_P(AlgoRelaxedPeriodic, PeriodicRingsDeployWithoutLearningN) {
  const auto [n, k, l] = GetParam();
  Rng rng(n * 37 + k * 5 + l);
  RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::periodic_homes(n, k, l, rng);
  const sim::Instance instance = make_instance(Algorithm::UnknownRelaxed, spec);
  sim::ExecutionState simulator(instance);
  const auto result = test::run_round_robin(simulator);
  ASSERT_TRUE(result.quiescent()) << "n=" << n << " k=" << k << " l=" << l;
  const auto check = sim::UniformDeploymentOracle(false).check_goal(simulator);
  ASSERT_TRUE(check.ok) << "n=" << n << " k=" << k << " l=" << l << ": "
                        << check.reason;
  for (const auto* agent : agents_of(simulator)) {
    EXPECT_EQ(agent->estimated_n(), n / l) << "Lemmas 7–8: estimates = N";
    EXPECT_EQ(agent->estimated_k(), k / l);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AlgoRelaxedPeriodic,
                         ::testing::Values(std::make_tuple(12, 6, 2),
                                           std::make_tuple(12, 6, 3),
                                           std::make_tuple(24, 8, 2),
                                           std::make_tuple(24, 8, 4),
                                           std::make_tuple(36, 12, 6),
                                           std::make_tuple(40, 10, 5),
                                           std::make_tuple(48, 16, 8)));

}  // namespace
}  // namespace udring::core
