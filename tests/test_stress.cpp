// Stress tests: larger instances, many seeds, model invariants checked after
// every atomic action, and cross-algorithm agreement — the heavyweight
// randomized sweeps the quick unit suites don't cover. The sweeps are
// campaigns (exp/campaign.h): declarative grids, sharded across workers,
// with every failing scenario reported at once in the campaign summary.
// Bounded to stay in CI budget (a few seconds total).

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "config/generators.h"
#include "core/runner.h"
#include "exp/campaign.h"
#include "sim/checker.h"
#include "util/rng.h"

namespace udring::core {
namespace {

TEST(Stress, LargeInstancesAllAlgorithms) {
  // n up to 1500, k up to 75 — far beyond the unit sweeps.
  exp::CampaignGrid grid;
  grid.algorithms = {Algorithm::KnownKFull, Algorithm::KnownKLogMem,
                     Algorithm::UnknownRelaxed};
  grid.instances = {{600, 30}, {1000, 50}, {1500, 75}};
  grid.seeds = 1;
  const exp::CampaignResult result = exp::run_campaign(grid);
  ASSERT_EQ(result.scenarios.size(), 9u);
  EXPECT_TRUE(result.all_ok()) << result.summary();
}

TEST(Stress, InvariantsEveryStepUnderEveryScheduler) {
  // Deliberately not a campaign: this sweep drives the simulator one atomic
  // action at a time to check model invariants mid-execution, which the
  // run-to-quiescence engine cannot observe.
  for (const sim::SchedulerKind kind : sim::all_scheduler_kinds()) {
    Rng rng(99);
    RunSpec spec;
    spec.node_count = 60;
    spec.homes = gen::random_homes(60, 10, rng);
    const sim::Instance instance =
        make_instance(Algorithm::UnknownRelaxed, spec);
    sim::ExecutionState simulator(instance);
    auto scheduler = sim::make_scheduler(kind, 7, 10);
    scheduler->reset(10);
    std::size_t peak_tokens = 0;
    std::size_t steps = 0;
    while (simulator.step(*scheduler)) {
      peak_tokens = std::max(peak_tokens, simulator.total_tokens());
      // Full invariant check every 64 steps (every step would be O(actions²)).
      if (++steps % 64 == 0) {
        const auto check = sim::check_model_invariants(simulator, peak_tokens);
        ASSERT_TRUE(check.ok) << sim::to_string(kind) << " step " << steps << ": "
                              << check.reason;
      }
    }
    ASSERT_TRUE(
        sim::UniformDeploymentOracle(false).check_goal(simulator).ok)
        << sim::to_string(kind);
  }
}

TEST(Stress, ManySeedsSmallRings) {
  // Small rings are where edge cases live (k ≈ n, tiny gaps). 100 random
  // (n, k) draws deduped to their unique instances, × 4 seed repetitions
  // × 2 adversarial scheduler families × 5 algorithms — ≥ 1000 scenarios
  // in one campaign.
  exp::CampaignGrid grid;
  grid.algorithms = {Algorithm::KnownKFull, Algorithm::KnownNFull,
                     Algorithm::KnownKLogMem, Algorithm::KnownKLogMemStrict,
                     Algorithm::UnknownRelaxed};
  grid.schedulers = {sim::SchedulerKind::Random, sim::SchedulerKind::Burst};
  Rng rng(12345);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(rng.below(12));
    const std::size_t k =
        1 + static_cast<std::size_t>(rng.below(std::min<std::uint64_t>(n, 8)));
    grid.instances.emplace_back(n, k);
  }
  // Duplicate (n, k) draws would repeat the same substream; dedupe and let
  // seed repetitions provide the per-instance diversity instead.
  std::sort(grid.instances.begin(), grid.instances.end());
  grid.instances.erase(
      std::unique(grid.instances.begin(), grid.instances.end()),
      grid.instances.end());
  grid.seeds = 4;
  grid.base_seed = 12345;
  const exp::CampaignResult result = exp::run_campaign(grid);
  EXPECT_GE(result.scenarios.size(), 1000u);
  EXPECT_TRUE(result.all_ok()) << result.summary();
}

TEST(Stress, DeepSymmetrySweep) {
  // Every divisor pair (l | k, l | n) at n = 240: the full adaptivity lattice,
  // one campaign over the symmetry axis.
  const std::size_t n = 240, k = 24;
  exp::CampaignGrid grid;
  grid.algorithms = {Algorithm::UnknownRelaxed};
  grid.families = {exp::ConfigFamily::Periodic};
  grid.instances = {{n, k}};
  grid.symmetries = {2, 3, 4, 6, 8, 12, 24};
  grid.base_seed = 777;
  const exp::CampaignResult result = exp::run_campaign(grid);
  ASSERT_EQ(result.scenarios.size(), grid.symmetries.size());
  EXPECT_TRUE(result.all_ok()) << result.summary();
  for (const std::size_t l : grid.symmetries) {
    const exp::Averages avg = result.averages(
        {Algorithm::UnknownRelaxed, exp::ConfigFamily::Periodic,
         sim::SchedulerKind::Synchronous, n, k, l});
    ASSERT_EQ(avg.runs, 1u) << "l=" << l;
    EXPECT_LE(avg.moves, static_cast<double>(14 * k * n / l + k)) << "l=" << l;
  }
}

TEST(Stress, WorstCasePackedAtScale) {
  const std::size_t n = 800, k = 100;
  exp::CampaignGrid grid;
  grid.algorithms = {Algorithm::KnownKFull, Algorithm::KnownKLogMem,
                     Algorithm::UnknownRelaxed};
  grid.families = {exp::ConfigFamily::Packed};
  grid.instances = {{n, k}};
  const exp::CampaignResult result = exp::run_campaign(grid);
  EXPECT_TRUE(result.all_ok()) << result.summary();
  for (const Algorithm algorithm : grid.algorithms) {
    const exp::Averages avg = result.averages(
        {algorithm, exp::ConfigFamily::Packed, sim::SchedulerKind::Synchronous,
         n, k, 1});
    ASSERT_EQ(avg.runs, 1u) << to_string(algorithm);
    EXPECT_GE(avg.moves, static_cast<double>(k * n / 16))
        << to_string(algorithm) << ": Theorem 1 floor";
  }
}

}  // namespace
}  // namespace udring::core
