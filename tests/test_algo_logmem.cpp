// Tests for Algorithms 2+3 (core/known_k_logmem.h): the O(log n)-memory
// uniform deployment with termination detection — Theorem 4's claims, the
// base-node conditions, sub-phase bounds, and the strict-paper deployment
// race this reproduction uncovered (a follower claiming a base node before
// its leader arrives).

#include "core/known_k_logmem.h"

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

std::vector<const KnownKLogMemAgent*> agents_of(
    const sim::ExecutionState& sim) {
  std::vector<const KnownKLogMemAgent*> agents;
  for (sim::AgentId id = 0; id < sim.agent_count(); ++id) {
    agents.push_back(dynamic_cast<const KnownKLogMemAgent*>(&sim.program(id)));
  }
  return agents;
}

TEST(AlgoLogMem, SingleAgentBecomesSoleLeader) {
  RunSpec spec;
  spec.node_count = 9;
  spec.homes = {4};
  const sim::Instance instance = make_instance(Algorithm::KnownKLogMem, spec);
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  EXPECT_TRUE(sim::UniformDeploymentOracle(true).check_goal(simulator).ok);
  const auto agents = agents_of(simulator);
  EXPECT_EQ(agents[0]->role(), KnownKLogMemAgent::Role::Leader);
  EXPECT_EQ(agents[0]->measured_n(), 9u);
}

TEST(AlgoLogMem, Fig5ElectsThreeLeaders) {
  // Fig 5's base-node conditions: three leaders, 6 apart, 2 followers each.
  RunSpec spec;
  spec.node_count = gen::kFig5Nodes;
  spec.homes = gen::fig5_homes();
  const sim::Instance instance = make_instance(Algorithm::KnownKLogMem, spec);
  sim::ExecutionState simulator(instance);
  test::run_round_robin(simulator);
  ASSERT_TRUE(sim::UniformDeploymentOracle(true).check_goal(simulator).ok);

  std::size_t leaders = 0;
  for (const auto* agent : agents_of(simulator)) {
    if (agent->role() == KnownKLogMemAgent::Role::Leader) {
      ++leaders;
      EXPECT_EQ(agent->id_distance(), 6u) << "leader segments span 6 nodes";
      EXPECT_EQ(agent->id_follower_count(), 2u);
    }
  }
  EXPECT_EQ(leaders, 3u);
}

TEST(AlgoLogMem, BaseNodeConditionsHold) {
  // On arbitrary configurations: ≥1 leader, leader count divides k, leader
  // homes equidistant with equal follower counts between them.
  Rng rng(314);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.below(40));
    const std::size_t k =
        2 + static_cast<std::size_t>(rng.below(std::min<std::uint64_t>(n - 1, 12)));
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::random_homes(n, k, rng);
    const sim::Instance instance = make_instance(Algorithm::KnownKLogMem, spec);
    sim::ExecutionState simulator(instance);
    test::run_round_robin(simulator);
    ASSERT_TRUE(sim::UniformDeploymentOracle(true).check_goal(simulator).ok);

    std::vector<std::size_t> leader_homes;
    const auto agents = agents_of(simulator);
    for (sim::AgentId id = 0; id < k; ++id) {
      if (agents[id]->role() == KnownKLogMemAgent::Role::Leader) {
        leader_homes.push_back(simulator.homes()[id]);
      }
    }
    ASSERT_GE(leader_homes.size(), 1u) << "n=" << n << " k=" << k;
    ASSERT_EQ(k % leader_homes.size(), 0u)
        << "leader count must divide k (n=" << n << " k=" << k << ")";

    std::sort(leader_homes.begin(), leader_homes.end());
    const std::size_t b = leader_homes.size();
    std::set<std::size_t> gaps;
    std::set<std::size_t> counts;
    std::vector<std::size_t> homes = simulator.homes();
    std::sort(homes.begin(), homes.end());
    for (std::size_t i = 0; i < b; ++i) {
      const std::size_t from = leader_homes[i];
      const std::size_t to = leader_homes[(i + 1) % b];
      gaps.insert((to + n - from) % n == 0 ? n : (to + n - from) % n);
      std::size_t between = 0;
      for (const std::size_t home : homes) {
        const std::size_t rel = (home + n - from) % n;
        const std::size_t seg = (to + n - from) % n == 0 ? n : (to + n - from) % n;
        if (rel > 0 && rel < seg) ++between;
      }
      counts.insert(between);
    }
    EXPECT_EQ(gaps.size(), 1u) << "base nodes must be equidistant";
    EXPECT_EQ(counts.size(), 1u) << "equal home counts between adjacent bases";
  }
}

TEST(AlgoLogMem, SubPhaseCountWithinCeilLogK) {
  Rng rng(2025);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 10 + static_cast<std::size_t>(rng.below(54));
    const std::size_t k =
        2 + static_cast<std::size_t>(rng.below(std::min<std::uint64_t>(n - 1, 16)));
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::random_homes(n, k, rng);
    const sim::Instance instance = make_instance(Algorithm::KnownKLogMem, spec);
    sim::ExecutionState simulator(instance);
    test::run_round_robin(simulator);
    for (const auto* agent : agents_of(simulator)) {
      EXPECT_LE(agent->sub_phases(), udring::ceil_log2(k) + 1)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(AlgoLogMem, MemoryIsLogNIndependentOfK) {
  // The whole point of Algorithm 2: no distance array. Peak memory must be
  // O(log n) and essentially flat in k.
  const std::size_t n = 128;
  std::vector<std::size_t> peaks;
  for (const std::size_t k : {4u, 8u, 16u, 32u}) {
    Rng rng(k);
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::random_homes(n, k, rng);
    const RunReport report = run_algorithm(Algorithm::KnownKLogMem, spec);
    ASSERT_TRUE(report.success) << report.failure;
    peaks.push_back(report.max_memory_bits);
    EXPECT_LE(report.max_memory_bits, 20 * bit_width(n))
        << "memory must stay O(log n), k=" << k;
  }
  // Counters that hold agent counts (fNum, tokens_seen, walk counts) grow by
  // bit_width(k) — logarithmic. What must NOT happen is Θ(k·log n) growth
  // like Algorithm 1's distance array (k=32 would add ≥ 28·7 bits).
  const std::size_t log_growth = 8 * (bit_width(32) - bit_width(4));
  EXPECT_LE(peaks.back(), peaks.front() + log_growth)
      << "memory must grow at most logarithmically with k";
}

TEST(AlgoLogMem, MovesWithinTheoremFourBound) {
  // Selection ≤ 2kn (halving argument) + deployment ≤ 2n per agent.
  Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 12 + static_cast<std::size_t>(rng.below(48));
    const std::size_t k =
        2 + static_cast<std::size_t>(rng.below(std::min<std::uint64_t>(n - 1, 14)));
    RunSpec spec;
    spec.node_count = n;
    spec.homes = gen::random_homes(n, k, rng);
    const RunReport report = run_algorithm(Algorithm::KnownKLogMem, spec);
    ASSERT_TRUE(report.success) << report.failure;
    EXPECT_LE(report.total_moves, 2 * k * n + 2 * k * n)
        << "n=" << n << " k=" << k;
  }
}

// ---- the strict-paper deployment near-race -----------------------------------
//
// A reproduction finding (see DESIGN.md §6 and EXPERIMENTS.md): read naively,
// Algorithm 3's literal deployment looks racy — a probing follower might
// claim a base node before the leader destined for it arrives. The stress
// instance n = 12, homes {0,1,3,6,7,10} maximizes the danger: two base
// nodes {0,6} with asymmetric interiors, a follower home (10) sitting on a
// target, and an adversary starving the home-6 leader. What actually saves
// the pseudocode is the FIFO link discipline: any agent walking toward the
// base node must queue *behind* the lagging leader and pushes it into its
// halt position before probing. These tests pin that mechanism down with a
// systematic adversarial search (all 720 priority permutations plus random
// schedules): on a substrate without FIFO links the guarantee would vanish.

RunSpec stress_spec() {
  RunSpec spec;
  spec.node_count = gen::kLogmemStressNodes;
  spec.homes = gen::logmem_stress_homes();
  return spec;
}

TEST(AlgoLogMemStrict, SurvivesEveryPriorityPermutation) {
  const RunSpec spec = stress_spec();
  std::vector<sim::AgentId> perm = {0, 1, 2, 3, 4, 5};
  std::size_t schedules = 0;
  do {
    const sim::Instance instance =
        make_instance(Algorithm::KnownKLogMemStrict, spec);
    sim::ExecutionState simulator(instance);
    sim::PriorityScheduler scheduler(perm);
    const sim::RunResult result = simulator.run(scheduler);
    ASSERT_TRUE(result.quiescent());
    const auto check = sim::UniformDeploymentOracle(true).check_goal(simulator);
    ASSERT_TRUE(check.ok) << "perm " << ::testing::PrintToString(perm) << ": "
                          << check.reason;
    ++schedules;
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(schedules, 720u);
}

TEST(AlgoLogMemStrict, SurvivesRandomAdversaries) {
  const RunSpec spec = stress_spec();
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const sim::Instance instance =
        make_instance(Algorithm::KnownKLogMemStrict, spec);
    sim::ExecutionState simulator(instance);
    sim::RandomScheduler scheduler(seed);
    const sim::RunResult result = simulator.run(scheduler);
    ASSERT_TRUE(result.quiescent());
    const auto check = sim::UniformDeploymentOracle(true).check_goal(simulator);
    ASSERT_TRUE(check.ok) << "seed " << seed << ": " << check.reason;
  }
}

TEST(AlgoLogMemStrict, LaggingLeaderIsPushedHomeJustInTime) {
  // The mechanism itself: starve the home-6 leader (agent 3). The follower
  // probing node 0 queues behind it in node 0's link queue, so the leader's
  // halt lands first and the follower finds the base occupied.
  const RunSpec spec = stress_spec();
  const sim::Instance instance =
      make_instance(Algorithm::KnownKLogMemStrict, spec);
  sim::ExecutionState simulator(instance);
  sim::PriorityScheduler scheduler({0, 1, 2, 4, 5, 3});
  const sim::RunResult result = simulator.run(scheduler);
  ASSERT_TRUE(result.quiescent());
  const auto check = sim::UniformDeploymentOracle(true).check_goal(simulator);
  ASSERT_TRUE(check.ok) << check.reason;
  // The starved leader still ends on a base node (0 or 6).
  const auto agents = agents_of(simulator);
  ASSERT_EQ(agents[3]->role(), KnownKLogMemAgent::Role::Leader);
  const std::size_t leader_node = simulator.agent_node(3);
  EXPECT_TRUE(leader_node == 0 || leader_node == 6) << "at " << leader_node;
}

TEST(AlgoLogMemFixed, HardenedVariantSurvivesTheSameAdversaries) {
  const RunSpec spec = stress_spec();
  std::vector<sim::AgentId> perm = {0, 1, 2, 3, 4, 5};
  do {
    const sim::Instance instance = make_instance(Algorithm::KnownKLogMem, spec);
    sim::ExecutionState simulator(instance);
    sim::PriorityScheduler scheduler(perm);
    const sim::RunResult result = simulator.run(scheduler);
    ASSERT_TRUE(result.quiescent());
    const auto check = sim::UniformDeploymentOracle(true).check_goal(simulator);
    ASSERT_TRUE(check.ok) << "perm " << ::testing::PrintToString(perm) << ": "
                          << check.reason;
  } while (std::next_permutation(perm.begin(), perm.end()));
}

// ---- parameterized sweep -----------------------------------------------------

using SweepParam = std::tuple<std::tuple<std::size_t, std::size_t>,
                              sim::SchedulerKind, std::uint64_t>;

class AlgoLogMemSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AlgoLogMemSweep, AchievesUniformDeploymentWithTermination) {
  const auto [nk, scheduler, seed] = GetParam();
  const auto [n, k] = nk;
  Rng rng(seed * 104729 + n * 131 + k);
  RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::random_homes(n, k, rng);
  spec.scheduler = scheduler;
  spec.seed = seed;
  const RunReport report = run_algorithm(Algorithm::KnownKLogMem, spec);
  ASSERT_TRUE(report.success)
      << "n=" << n << " k=" << k << " sched=" << sim::to_string(scheduler)
      << " seed=" << seed << ": " << report.failure;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgoLogMemSweep,
    ::testing::Combine(
        ::testing::Values(std::make_tuple(4, 2), std::make_tuple(9, 3),
                          std::make_tuple(12, 6), std::make_tuple(16, 16),
                          std::make_tuple(18, 9), std::make_tuple(21, 5),
                          std::make_tuple(30, 10), std::make_tuple(41, 8)),
        ::testing::ValuesIn(sim::all_scheduler_kinds()),
        ::testing::Values(1, 2, 3)));

class AlgoLogMemPeriodic
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {
};

TEST_P(AlgoLogMemPeriodic, PeriodicConfigurationsDeployCleanly) {
  const auto [n, k, l] = GetParam();
  Rng rng(n * 7 + k * 3 + l);
  RunSpec spec;
  spec.node_count = n;
  spec.homes = gen::periodic_homes(n, k, l, rng);
  const RunReport report = run_algorithm(Algorithm::KnownKLogMem, spec);
  ASSERT_TRUE(report.success) << "n=" << n << " k=" << k << " l=" << l << ": "
                              << report.failure;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AlgoLogMemPeriodic,
                         ::testing::Values(std::make_tuple(12, 6, 2),
                                           std::make_tuple(12, 6, 3),
                                           std::make_tuple(24, 8, 4),
                                           std::make_tuple(36, 12, 6),
                                           std::make_tuple(40, 20, 5),
                                           std::make_tuple(48, 16, 8)));

}  // namespace
}  // namespace udring::core
