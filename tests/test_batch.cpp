// A/B of the campaign engine's lean scenario epilogue (finish_scenario in
// exp/campaign.cpp) against core::RunContext::run, which judges the same run
// through core's full RunReport epilogue. The campaign keeps only the fields
// its folds consume; those fields — success, the failure text, the three
// complexity measures, the action count and the final positions — must be
// the ones the full report derives, on successful and on action-limited
// runs alike.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/runner.h"
#include "exp/campaign.h"

namespace udring {
namespace {

exp::CampaignGrid ab_grid() {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull,
                     core::Algorithm::UnknownRelaxed};
  // Deterministic kinds only: their runs do not depend on the scheduler
  // seed the engine derives, so a RunSpec built from scenario_homes
  // reproduces each scenario exactly.
  grid.schedulers = {sim::SchedulerKind::RoundRobin,
                     sim::SchedulerKind::Synchronous};
  grid.node_counts = {16, 24};
  grid.agent_counts = {2, 4};
  grid.seeds = 3;
  grid.base_seed = 7;
  return grid;
}

void expect_epilogues_agree(const exp::CampaignGrid& grid) {
  exp::CampaignOptions options;
  options.workers = 1;
  options.record_final_positions = true;
  const exp::CampaignResult campaign = run_campaign(grid, options);
  ASSERT_EQ(campaign.results.size(), campaign.scenarios.size());

  core::RunContext context;
  for (std::size_t i = 0; i < campaign.scenarios.size(); ++i) {
    const exp::Scenario& s = campaign.scenarios[i];
    core::RunSpec spec;
    spec.node_count = s.node_count;
    spec.homes = exp::scenario_homes(grid, s);
    spec.scheduler = s.scheduler;
    spec.sim_options = grid.sim_options;
    const core::RunReport report = context.run(s.algorithm, spec);

    const exp::ScenarioResult& r = campaign.results[i];
    EXPECT_EQ(r.success, report.success) << "scenario " << i;
    EXPECT_EQ(r.failure(), report.failure) << "scenario " << i;
    EXPECT_EQ(r.total_moves, report.total_moves) << "scenario " << i;
    EXPECT_EQ(r.makespan, report.makespan) << "scenario " << i;
    EXPECT_EQ(r.max_memory_bits, report.max_memory_bits) << "scenario " << i;
    EXPECT_EQ(r.actions, report.result.actions) << "scenario " << i;
    EXPECT_EQ(std::vector<std::size_t>(r.final_positions().begin(),
                                       r.final_positions().end()),
              report.final_positions)
        << "scenario " << i;
  }
}

TEST(CampaignEpilogue, MatchesRunContextReportsOnSuccessfulRuns) {
  const exp::CampaignGrid grid = ab_grid();
  ASSERT_NO_FATAL_FAILURE(expect_epilogues_agree(grid));
  EXPECT_TRUE(run_campaign(grid, {.workers = 1}).all_ok());
}

TEST(CampaignEpilogue, MatchesRunContextReportsAtTheActionLimit) {
  // 40 actions fail every scenario through the action-limit branch.
  exp::CampaignGrid grid = ab_grid();
  grid.sim_options.max_actions = 40;
  ASSERT_NO_FATAL_FAILURE(expect_epilogues_agree(grid));
  EXPECT_EQ(run_campaign(grid, {.workers = 1}).failures,
            expand(grid).size());
}

}  // namespace
}  // namespace udring
