// The ProblemSpec / GoalOracle redesign and the companion problem families.
//
//  - ProblemSpec naming, parsing, and resolve_problem() semantics (Auto →
//    the algorithm's natural problem; parameter normalization).
//  - The goal predicates accept correct final configurations and reject
//    near misses with pinned reason strings (gtest messages and the
//    shrinker's prefix classes both depend on the exact wording).
//  - The new core families: g-partial gathering gathers into groups of >= g
//    (or proves the instance unsolvable and halts at home), dispersion
//    settles one agent per node, across schedulers and instance draws.
//  - Cross-problem verification: mc::check judges any algorithm against any
//    problem, byte-identically at any worker count, and a mismatch (a
//    gatherer judged as a deployer) yields a replayable counterexample.
//  - ScheduleTrace carries the problem: round-trips through text, and the
//    pre-problem corpus in tests/schedules/ still parses, re-serializes,
//    and replays byte-identically — including the planted non-FIFO
//    double-booked-base-node regression.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/problem.h"
#include "core/runner.h"
#include "exp/campaign.h"
#include "explore/fuzz.h"
#include "explore/shrink.h"
#include "explore/trace.h"
#include "mc/model_check.h"
#include "sim/checker.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace udring {
namespace {

// ---- naming and resolution --------------------------------------------------

TEST(ProblemSpec, NamesRoundTrip) {
  for (const core::Problem kind :
       {core::Problem::Auto, core::Problem::Deploy, core::Problem::Gather,
        core::Problem::Disperse}) {
    EXPECT_EQ(core::problem_from_name(core::to_string(kind)), kind);
  }
  EXPECT_THROW((void)core::problem_from_name("rendezvous"),
               std::invalid_argument);
  EXPECT_THROW((void)core::problem_from_name(""), std::invalid_argument);
}

TEST(ProblemSpec, ToStringShowsGatherParameter) {
  EXPECT_EQ(core::to_string(core::ProblemSpec{core::Problem::Gather, 2}),
            "gather(g=2)");
  EXPECT_EQ(core::to_string(core::ProblemSpec{core::Problem::Gather, 0}),
            "gather");
  EXPECT_EQ(core::to_string(core::ProblemSpec{core::Problem::Deploy, 0}),
            "deploy");
  EXPECT_EQ(core::to_string(core::ProblemSpec{}), "auto");
}

TEST(ProblemSpec, ResolveAutoPicksTheNaturalProblem) {
  for (const core::Algorithm deployer :
       {core::Algorithm::KnownKFull, core::Algorithm::KnownNFull,
        core::Algorithm::KnownKLogMem, core::Algorithm::KnownKLogMemStrict,
        core::Algorithm::UnknownRelaxed}) {
    const core::ProblemSpec resolved = core::resolve_problem(deployer, {});
    EXPECT_EQ(resolved.kind, core::Problem::Deploy);
    EXPECT_EQ(resolved.gather_g, 0u);
  }
  // Rendezvous gathers totally; GatherRing keeps the requested group size.
  const auto rendezvous = core::resolve_problem(core::Algorithm::Rendezvous, {});
  EXPECT_EQ(rendezvous.kind, core::Problem::Gather);
  EXPECT_EQ(rendezvous.gather_g, 0u);
  const auto gather = core::resolve_problem(core::Algorithm::GatherRing, {});
  EXPECT_EQ(gather.kind, core::Problem::Gather);
  EXPECT_EQ(gather.gather_g, 2u);
  const auto gather5 = core::resolve_problem(
      core::Algorithm::GatherRing, {core::Problem::Gather, 5});
  EXPECT_EQ(gather5.gather_g, 5u);
  const auto disperse = core::resolve_problem(core::Algorithm::DisperseRing, {});
  EXPECT_EQ(disperse.kind, core::Problem::Disperse);
}

TEST(ProblemSpec, ResolveNormalizesForeignParameters) {
  // gather_g belongs to Gather only; explicit non-gather kinds zero it so
  // specs (and CellKeys built from them) compare cleanly.
  const auto deploy = core::resolve_problem(core::Algorithm::GatherRing,
                                            {core::Problem::Deploy, 7});
  EXPECT_EQ(deploy.kind, core::Problem::Deploy);
  EXPECT_EQ(deploy.gather_g, 0u);
  const auto disperse = core::resolve_problem(core::Algorithm::KnownKFull,
                                              {core::Problem::Disperse, 3});
  EXPECT_EQ(disperse.gather_g, 0u);
}

TEST(ProblemSpec, OracleNamesMatchTheResolvedProblem) {
  EXPECT_EQ(core::make_goal_oracle(core::Algorithm::KnownKFull)->name(),
            "uniform-deployment");
  EXPECT_EQ(core::make_goal_oracle(core::Algorithm::UnknownRelaxed)->name(),
            "uniform-deployment-relaxed");
  EXPECT_EQ(core::make_goal_oracle(core::Algorithm::Rendezvous)->name(),
            "rendezvous");
  EXPECT_EQ(core::make_goal_oracle(core::Algorithm::GatherRing)->name(),
            "g-partial-gathering");
  EXPECT_EQ(core::make_goal_oracle(core::Algorithm::DisperseRing)->name(),
            "dispersion");
  // The problem overrides the algorithm's natural goal.
  EXPECT_EQ(core::make_goal_oracle(core::Algorithm::KnownKFull,
                                   {core::Problem::Disperse, 0})
                ->name(),
            "dispersion");
}

// ---- goal oracles -----------------------------------------------------------

/// Runs `algorithm` on (n, homes) in `context` and returns the quiesced
/// state for direct oracle inspection.
const sim::ExecutionState& run_to_quiescence(core::RunContext& context,
                                             core::Algorithm algorithm,
                                             std::size_t n,
                                             std::vector<std::size_t> homes) {
  core::RunSpec spec;
  spec.node_count = n;
  spec.homes = std::move(homes);
  spec.seed = 7;
  (void)context.run(algorithm, spec);
  return context.state();
}

TEST(GoalOracle, CheckActionDefaultsToTheModelInvariants) {
  core::RunContext context;
  const sim::ExecutionState& sim =
      run_to_quiescence(context, core::Algorithm::KnownKFull, 8, {0, 3});
  const sim::UniformDeploymentOracle oracle(true);
  const sim::CheckResult via_oracle = oracle.check_action(sim, 0);
  const sim::CheckResult direct = sim::check_model_invariants(sim, 0);
  EXPECT_EQ(via_oracle.ok, direct.ok);
  EXPECT_EQ(via_oracle.reason, direct.reason);
}

// ---- goal predicates: accepting and near-miss configurations ---------------

TEST(GoalPredicates, PartialGatheringAcceptsAndPinsNearMissReason) {
  // n=6, homes {0, 2}: d-sequences (2,4)/(4,2), period 2 >= g=2 — both
  // agents gather at node 0.
  core::RunContext context;
  const sim::ExecutionState& sim =
      run_to_quiescence(context, core::Algorithm::GatherRing, 6, {0, 2});
  EXPECT_TRUE(sim::check_partial_gathering(sim, 2).ok);
  // The same final configuration is a near miss for g=3: the reason string
  // is pinned (shrinker prefix classes + gtest messages rely on it).
  const sim::CheckResult miss = sim::check_partial_gathering(sim, 3);
  EXPECT_FALSE(miss.ok);
  EXPECT_EQ(miss.reason,
            "node 0 hosts 2 agent(s); g-partial gathering requires at least 3");
  EXPECT_FALSE(sim::PartialGatheringOracle(3).check_goal(sim).ok);
}

TEST(GoalPredicates, DispersionAcceptsAndPinsNearMissReason) {
  core::RunContext dispersed_run;
  const sim::ExecutionState& dispersed = run_to_quiescence(
      dispersed_run, core::Algorithm::DisperseRing, 6, {0, 2});
  EXPECT_TRUE(sim::check_dispersed(dispersed).ok);
  // A gathered configuration is the canonical dispersion near miss.
  core::RunContext gathered_run;
  const sim::ExecutionState& gathered =
      run_to_quiescence(gathered_run, core::Algorithm::GatherRing, 6, {0, 2});
  const sim::CheckResult miss = sim::check_dispersed(gathered);
  EXPECT_FALSE(miss.ok);
  EXPECT_EQ(miss.reason,
            "node 0 hosts 2 settled agents; dispersion requires exactly one");
  EXPECT_FALSE(sim::DispersionOracle().check_goal(gathered).ok);
}

// ---- the new algorithm families ---------------------------------------------

TEST(GatherRing, GathersIntoGroupsAcrossSchedulersAndDraws) {
  for (const sim::SchedulerKind scheduler :
       {sim::SchedulerKind::Synchronous, sim::SchedulerKind::RoundRobin,
        sim::SchedulerKind::Random}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed);
      core::RunSpec spec;
      spec.node_count = 12 + 2 * static_cast<std::size_t>(seed);
      spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny,
                                   spec.node_count, 4, 1, rng);
      spec.scheduler = scheduler;
      spec.seed = seed;
      const core::RunReport report =
          core::run_algorithm(core::Algorithm::GatherRing, spec);
      EXPECT_TRUE(report.success)
          << sim::to_string(scheduler) << " seed " << seed << ": "
          << report.failure;
      EXPECT_EQ(report.problem.kind, core::Problem::Gather);
      EXPECT_EQ(report.problem.gather_g, 2u);
    }
  }
}

TEST(GatherRing, PeriodicInstanceIsDetectedUnsolvableAndAgentsStayHome) {
  // n=8, homes {0, 4}: d = (4, 4), period 1 < g = 2 — genuinely unsolvable
  // under a symmetric schedule; success means every agent proved it and
  // halted at its home.
  core::RunSpec spec;
  spec.node_count = 8;
  spec.homes = {0, 4};
  spec.seed = 3;
  const core::RunReport report =
      core::run_algorithm(core::Algorithm::GatherRing, spec);
  EXPECT_TRUE(report.success) << report.failure;
  EXPECT_EQ(report.final_positions, (std::vector<std::size_t>{0, 4}));
}

TEST(GatherRing, GroupSizeThreadsThroughRunSpecProblem) {
  // n=9, homes {0, 1, 3}: period 3 >= g=3, one group — total gathering.
  core::RunSpec spec;
  spec.node_count = 9;
  spec.homes = {0, 1, 3};
  spec.seed = 5;
  spec.problem = {core::Problem::Gather, 3};
  const core::RunReport report =
      core::run_algorithm(core::Algorithm::GatherRing, spec);
  EXPECT_TRUE(report.success) << report.failure;
  EXPECT_EQ(report.problem.gather_g, 3u);
  ASSERT_EQ(report.final_positions.size(), 3u);
  EXPECT_EQ(report.final_positions[0], report.final_positions[1]);
  EXPECT_EQ(report.final_positions[1], report.final_positions[2]);
}

TEST(DisperseRing, SettlesOneAgentPerNodeAcrossSchedulersAndDraws) {
  for (const sim::SchedulerKind scheduler :
       {sim::SchedulerKind::Synchronous, sim::SchedulerKind::RoundRobin,
        sim::SchedulerKind::Random}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 31);
      core::RunSpec spec;
      spec.node_count = 10 + 3 * static_cast<std::size_t>(seed);
      spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny,
                                   spec.node_count, 5, 1, rng);
      spec.scheduler = scheduler;
      spec.seed = seed;
      const core::RunReport report =
          core::run_algorithm(core::Algorithm::DisperseRing, spec);
      EXPECT_TRUE(report.success)
          << sim::to_string(scheduler) << " seed " << seed << ": "
          << report.failure;
      EXPECT_EQ(report.problem.kind, core::Problem::Disperse);
    }
  }
}

TEST(DisperseRing, FullySymmetricInstanceStaysDispersedInPlace) {
  // Period 1: every agent has rank 0 and settles where it started — already
  // a dispersion.
  core::RunSpec spec;
  spec.node_count = 8;
  spec.homes = {0, 4};
  spec.seed = 2;
  const core::RunReport report =
      core::run_algorithm(core::Algorithm::DisperseRing, spec);
  EXPECT_TRUE(report.success) << report.failure;
  EXPECT_EQ(report.final_positions, (std::vector<std::size_t>{0, 4}));
}

// ---- cross-problem model checking -------------------------------------------

TEST(CrossProblemMc, GatherAndDisperseInstancesVerifyExhaustively) {
  for (const auto& [algorithm, homes] :
       std::vector<std::pair<core::Algorithm, std::vector<std::size_t>>>{
           {core::Algorithm::GatherRing, {0, 2}},   // solvable: period 2
           {core::Algorithm::GatherRing, {0, 3}},   // unsolvable: period 1
           {core::Algorithm::DisperseRing, {0, 2}},
       }) {
    mc::CheckRequest request;
    request.algorithm = algorithm;
    request.node_count = 6;
    request.homes = homes;
    const mc::ModelCheckReport report = mc::check(request);
    EXPECT_TRUE(report.ok) << core::to_string(algorithm) << ": "
                           << report.failure_reason;
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.verdict, "verified");
  }
}

TEST(CrossProblemMc, VerdictAndDigestAreWorkerCountInvariant) {
  for (const core::Algorithm algorithm :
       {core::Algorithm::GatherRing, core::Algorithm::DisperseRing}) {
    mc::CheckRequest request;
    request.algorithm = algorithm;
    // n = 10, k = 3: wide enough that the closure walk really shards.
    request.node_count = 10;
    request.homes = {0, 2, 5};
    // The closure walk's shards are fixed by the instance, so the report
    // digest must be byte-identical at any worker count.
    mc::McOptions options;
    options.shared_visited = true;
    options.workers = 1;
    const mc::ModelCheckReport a = mc::check(request, options);
    EXPECT_TRUE(a.ok && a.complete) << a.failure_reason;
    EXPECT_GT(a.stats.shards, 1u);
    for (const std::size_t workers : {2u, 4u}) {
      options.workers = workers;
      EXPECT_EQ(a.digest(), mc::check(request, options).digest())
          << core::to_string(algorithm) << " workers=" << workers;
    }
  }
}

TEST(CrossProblemMc, DeployerVerifiesUnderTheDispersionOracle) {
  // Uniform deployment puts agents on distinct nodes, so a correct deployer
  // is also a disperser — over every schedule.
  mc::CheckRequest request;
  request.algorithm = core::Algorithm::KnownKFull;
  request.problem = {core::Problem::Disperse, 0};
  request.node_count = 6;
  request.homes = {0, 2};
  const mc::ModelCheckReport report = mc::check(request);
  EXPECT_TRUE(report.ok) << report.failure_reason;
  EXPECT_TRUE(report.complete);
}

TEST(CrossProblemMc, GathererUnderDeployOracleYieldsReplayableCounterexample) {
  // GatherRing piles both agents onto one node — a uniform-deployment
  // violation the checker must find and materialize as an ordinary trace.
  mc::CheckRequest request;
  request.algorithm = core::Algorithm::GatherRing;
  request.problem = {core::Problem::Deploy, 0};
  request.node_count = 6;
  request.homes = {0, 2};
  const mc::ModelCheckReport report = mc::check(request);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.verdict, "violation");
  EXPECT_TRUE(report.failure_reason.rfind("goal: ", 0) == 0)
      << report.failure_reason;
  ASSERT_TRUE(report.counterexample.has_value());
  EXPECT_EQ(report.counterexample->problem.kind, core::Problem::Deploy);
  // The counterexample replays stand-alone to the same failure.
  const explore::ReplayOutcome replay =
      explore::replay_trace(*report.counterexample);
  EXPECT_TRUE(replay.failed);
  EXPECT_EQ(replay.digest, report.counterexample->expected_digest);
  // And it survives a text round trip (the corpus path).
  const explore::ScheduleTrace reparsed =
      explore::ScheduleTrace::parse(report.counterexample->to_text());
  EXPECT_EQ(reparsed.problem.kind, core::Problem::Deploy);
  EXPECT_EQ(reparsed.expected_digest, report.counterexample->expected_digest);
}

// ---- campaign grid: the problem axis ----------------------------------------

TEST(CampaignProblemAxis, DefaultAutoAxisReproducesTheHistoricalExpansion) {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.node_counts = {8, 12};
  grid.agent_counts = {2};
  grid.seeds = 2;
  const exp::CampaignResult implicit = exp::run_campaign(grid);
  exp::CampaignGrid explicit_auto = grid;
  explicit_auto.problems = {core::ProblemSpec{}};
  const exp::CampaignResult explicit_result = exp::run_campaign(explicit_auto);
  EXPECT_EQ(implicit.digest(), explicit_result.digest());
  EXPECT_EQ(implicit.summary(), explicit_result.summary());
  // All-Auto campaigns render the historical table layout (no problem
  // column).
  EXPECT_EQ(implicit.summary().find("problem"), std::string::npos);
}

TEST(CampaignProblemAxis, ProblemCellsArePairedOnTheSameInstances) {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.problems = {{core::Problem::Deploy, 0}, {core::Problem::Disperse, 0}};
  grid.node_counts = {10};
  grid.agent_counts = {2};
  grid.seeds = 2;
  const std::vector<exp::Scenario> scenarios = exp::expand(grid);
  ASSERT_EQ(scenarios.size(), 4u);
  // The problem never enters the instance substream: scenario (problem=P,
  // rep=r) draws the same homes for every P.
  for (std::size_t rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(exp::scenario_homes(grid, scenarios[rep]),
              exp::scenario_homes(grid, scenarios[2 + rep]));
  }
  const exp::CampaignResult result = exp::run_campaign(grid);
  // A correct deployer satisfies both goals on these instances.
  EXPECT_EQ(result.failures, 0u) << result.summary();
  // An explicit problem axis makes the column appear.
  EXPECT_NE(result.summary().find("problem"), std::string::npos);
  EXPECT_NE(result.summary().find("disperse"), std::string::npos);
}

TEST(CampaignProblemAxis, MismatchedProblemIsReportedNotFatal) {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::GatherRing};
  grid.problems = {{core::Problem::Deploy, 0}};
  grid.node_counts = {6};
  grid.agent_counts = {2};
  grid.seeds = 3;
  const exp::CampaignResult result = exp::run_campaign(grid);
  EXPECT_EQ(result.scenario_count, 3u);
  EXPECT_GT(result.failures, 0u);
  ASSERT_FALSE(result.failure_samples.empty());
  EXPECT_NE(result.failure_samples.front().find("problem=deploy"),
            std::string::npos)
      << result.failure_samples.front();
}

// ---- trace provenance and the recorded corpus -------------------------------

TEST(TraceProblem, ProblemKeyRoundTripsThroughText) {
  explore::ScheduleTrace trace;
  trace.algorithm = core::Algorithm::GatherRing;
  trace.node_count = 9;
  trace.homes = {0, 1, 3};
  trace.problem = {core::Problem::Gather, 3};
  trace.seed = 11;
  trace.choices = {0, 1, 2};
  trace.expected_digest = 42;
  const explore::ScheduleTrace reparsed =
      explore::ScheduleTrace::parse(trace.to_text());
  EXPECT_EQ(reparsed.problem.kind, core::Problem::Gather);
  EXPECT_EQ(reparsed.problem.gather_g, 3u);
  EXPECT_EQ(reparsed.to_text(), trace.to_text());

  // Non-gather problems serialize without the parameter and parse back
  // normalized, so text round trips are exact.
  trace.problem = {core::Problem::Disperse, 0};
  const explore::ScheduleTrace disperse =
      explore::ScheduleTrace::parse(trace.to_text());
  EXPECT_EQ(disperse.problem.kind, core::Problem::Disperse);
  EXPECT_EQ(disperse.problem.gather_g, 0u);
  EXPECT_EQ(disperse.to_text(), trace.to_text());
}

TEST(TraceProblem, AutoProblemIsOmittedFromTheTextForm) {
  explore::ScheduleTrace trace;
  trace.algorithm = core::Algorithm::KnownKFull;
  trace.node_count = 8;
  trace.homes = {0, 3};
  trace.seed = 1;
  trace.choices = {0};
  trace.expected_digest = 7;
  EXPECT_EQ(trace.to_text().find("problem"), std::string::npos);
}

TEST(TraceProblem, RecordedTraceCarriesTheRequestProblem) {
  explore::RecordRequest request;
  request.algorithm = core::Algorithm::GatherRing;
  request.problem = {core::Problem::Gather, 2};
  request.node_count = 6;
  request.homes = {0, 2};
  request.seed = 9;
  const explore::ScheduleTrace trace = explore::record_trace(request);
  EXPECT_EQ(trace.problem.kind, core::Problem::Gather);
  EXPECT_EQ(trace.note, "ok");
  const explore::ReplayOutcome replay = explore::replay_trace(trace);
  EXPECT_FALSE(replay.failed) << replay.reason;
  EXPECT_EQ(replay.digest, trace.expected_digest);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(TraceProblem, PreProblemCorpusIsByteIdentical) {
  // Every pre-redesign trace must parse with problem=Auto, re-serialize to
  // the exact bytes on disk, and replay to its recorded digest — the
  // "old corpus unchanged" acceptance criterion.
  const std::filesystem::path dir = UDRING_SCHEDULES_DIR;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".trace") continue;
    ++seen;
    const std::string text = read_file(entry.path());
    const explore::ScheduleTrace trace = explore::ScheduleTrace::parse(text);
    EXPECT_EQ(trace.problem.kind, core::Problem::Auto) << entry.path();
    EXPECT_EQ(trace.to_text(), text) << entry.path();
    const explore::ReplayOutcome replay = explore::replay_trace(trace);
    EXPECT_EQ(replay.digest, trace.expected_digest) << entry.path();
    const bool expected_failure = !trace.note.empty() && trace.note != "ok";
    EXPECT_EQ(replay.failed, expected_failure) << entry.path();
  }
  EXPECT_GE(seen, 7u);
}

TEST(TraceProblem, PlantedNonFifoRegressionStillReproduces) {
  // The planted non-FIFO double-booked-base-node repro, end to end: parse,
  // replay, shrink — verdict, reason class, and digest all pinned.
  const std::filesystem::path path =
      std::filesystem::path(UDRING_SCHEDULES_DIR) /
      "fault-strict-basenode-doublebook.trace";
  const explore::ScheduleTrace trace =
      explore::ScheduleTrace::parse(read_file(path));
  const explore::ReplayOutcome replay = explore::replay_trace(trace);
  EXPECT_TRUE(replay.failed);
  EXPECT_EQ(replay.reason, trace.note);
  EXPECT_TRUE(replay.reason.rfind("goal: ", 0) == 0) << replay.reason;
  EXPECT_EQ(replay.digest, trace.expected_digest);
  const explore::ShrinkResult shrunk = explore::shrink_trace(trace);
  EXPECT_TRUE(shrunk.reason.rfind("goal: ", 0) == 0) << shrunk.reason;
  EXPECT_EQ(shrunk.trace.expected_digest, trace.expected_digest);
  EXPECT_EQ(shrunk.trace.note, trace.note);
}

}  // namespace
}  // namespace udring
