// Tests for the schedule explorer: adversarial schedulers, the fuzzer, and
// the trace shrinker.
//
// The centerpiece is the seeded-bug experiment the PR's acceptance criterion
// asks for: KnownKLogMemStrict follows Algorithm 3 literally and its
// correctness leans on the FIFO non-overtaking property (known_k_logmem.h).
// With the test-only non-FIFO fault injected (sim::FaultPlan::non_fifo),
// the fuzzer must find a violating schedule within a smoke-sized
// budget and the shrinker must reduce it to a small replayable trace — while
// the hardened default variant survives the identical adversary, which is
// exactly the FIFO-dependence ablation the algorithm's documentation claims.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "config/generators.h"
#include "core/known_k_logmem.h"
#include "core/runner.h"
#include "exp/campaign.h"
#include "explore/adversary.h"
#include "explore/fuzz.h"
#include "explore/shrink.h"
#include "explore/trace.h"
#include "util/rng.h"

namespace udring::explore {
namespace {

// The seeded-bug harness: point the fuzzer at the Algorithm-3 deployment
// stress instance (two base nodes, asymmetric segments — see
// gen::logmem_stress_homes) with the non-FIFO fault windowed to the
// deployment phase, so Algorithm 2's selection geometry (which legitimately
// assumes non-overtaking in every variant) stays sound and the schedule
// search targets exactly the base-node race the strict pseudocode leans on
// FIFO to win.
FuzzOptions strict_fifo_bug_options() {
  FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKLogMemStrict;
  options.faults.non_fifo = true;
  options.faults.non_fifo_min_phase = core::KnownKLogMemAgent::kDeployment;
  options.fixed_nodes = gen::kLogmemStressNodes;
  options.fixed_homes = gen::logmem_stress_homes();
  options.schedulers = {ExploreSchedulerKind::LinkDelay,
                        ExploreSchedulerKind::Burst,
                        ExploreSchedulerKind::Random};
  options.iterations = 30;  // CI smoke budget; the bug surfaces well before
  options.base_seed = 2024;
  return options;
}

// ---- adversarial schedulers -------------------------------------------------

TEST(Adversaries, AlwaysPickFromEnabledSet) {
  for (const ExploreSchedulerKind kind : adversary_scheduler_kinds()) {
    Rng rng(99);
    const auto homes = exp::draw_homes(exp::ConfigFamily::RandomAny, 20, 5, 1, rng);
    core::RunSpec spec;
    spec.node_count = 20;
    spec.homes = homes;
    const sim::Instance instance =
        core::make_instance(core::Algorithm::KnownKFull, spec);
    sim::ExecutionState sim(instance);
    auto scheduler = make_explore_scheduler(kind, 7, homes.size());
    scheduler->attach(sim);
    scheduler->reset(homes.size());
    std::size_t steps = 0;
    while (!sim.quiescent() && steps < 4000) {
      const auto enabled = sim.enabled();  // copy: step mutates it
      const sim::AgentId pick = scheduler->pick(enabled);
      ASSERT_NE(std::find(enabled.begin(), enabled.end(), pick), enabled.end())
          << to_string(kind) << " picked a disabled agent";
      ASSERT_TRUE(sim.step_agent(pick));
      ++steps;
    }
    EXPECT_TRUE(sim.quiescent())
        << to_string(kind) << " failed to drive the run to quiescence";
  }
}

TEST(Adversaries, EveryKindSolvesThePaperAlgorithms) {
  // Adversaries are still fair on terminating workloads: every algorithm
  // must reach its goal under all of them.
  for (const ExploreSchedulerKind kind : adversary_scheduler_kinds()) {
    for (const core::Algorithm algorithm :
         {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem,
          core::Algorithm::KnownKLogMemStrict, core::Algorithm::UnknownRelaxed}) {
      const ScheduleTrace trace = record_trace(
          algorithm, 20,
          [] {
            Rng rng(5);
            return exp::draw_homes(exp::ConfigFamily::RandomAny, 20, 5, 1, rng);
          }(),
          kind, /*seed=*/13);
      EXPECT_EQ(trace.note, "ok") << core::to_string(algorithm) << " under "
                                  << to_string(kind) << ": " << trace.note;
    }
  }
}

TEST(Adversaries, LinkDelayStarvesTransitAgents) {
  // Under the link-delay adversary, a staying agent always acts before any
  // in-transit agent: replay the recorded choices and spot-check the policy
  // by re-running with an attached scheduler.
  Rng rng(17);
  const auto homes = exp::draw_homes(exp::ConfigFamily::RandomAny, 16, 4, 1, rng);
  core::RunSpec spec;
  spec.node_count = 16;
  spec.homes = homes;
  const sim::Instance instance =
      core::make_instance(core::Algorithm::KnownKFull, spec);
  sim::ExecutionState sim(instance);
  LinkDelayScheduler scheduler;
  scheduler.attach(sim);
  scheduler.reset(homes.size());
  std::size_t checked = 0;
  while (!sim.quiescent() && checked < 2000) {
    const auto enabled = sim.enabled();
    const sim::AgentId pick = scheduler.pick(enabled);
    const bool any_staying =
        std::any_of(enabled.begin(), enabled.end(), [&](sim::AgentId id) {
          return sim.status(id) != sim::AgentStatus::InTransit;
        });
    if (any_staying) {
      EXPECT_NE(sim.status(pick), sim::AgentStatus::InTransit);
    }
    ASSERT_TRUE(sim.step_agent(pick));
    ++checked;
  }
  EXPECT_TRUE(sim.quiescent());
}

TEST(Adversaries, NameRoundTrip) {
  for (const ExploreSchedulerKind kind : all_explore_scheduler_kinds()) {
    EXPECT_EQ(explore_scheduler_from_name(to_string(kind)), kind);
  }
  EXPECT_THROW((void)explore_scheduler_from_name("no-such-scheduler"),
               std::invalid_argument);
}

// ---- fault injection --------------------------------------------------------

TEST(NonFifoFault, HardenedLogMemSurvivesWhereStrictBreaks) {
  // The ablation: identical fuzz options, only the algorithm differs. The
  // strict variant must produce the documented base-node double-booking
  // within the budget; the hardened default must not fail at all — its
  // deployment phase does not rest on FIFO links (known_k_logmem.h).
  FuzzOptions options = strict_fifo_bug_options();
  const FuzzReport strict = run_fuzz(options);
  EXPECT_GT(strict.failures, 0u)
      << "fuzzer failed to find the seeded FIFO-order bug in the strict "
         "variant within the smoke budget";
  ASSERT_FALSE(strict.failure_samples.empty());
  EXPECT_TRUE(strict.failure_samples.front().reason.rfind("goal: ", 0) == 0)
      << strict.failure_samples.front().reason;
  EXPECT_NE(strict.failure_samples.front().reason.find("share node"),
            std::string::npos)
      << "expected the double-booked base node: "
      << strict.failure_samples.front().reason;

  options.algorithm = core::Algorithm::KnownKLogMem;
  const FuzzReport hardened = run_fuzz(options);
  EXPECT_EQ(hardened.failures, 0u)
      << "hardened variant should tolerate non-FIFO deployment: "
      << (hardened.failure_samples.empty()
              ? ""
              : hardened.failure_samples.front().reason);
}

TEST(NonFifoFault, UnwindowedFaultBreaksSelectionForEveryVariant) {
  // Why the fault window exists: with overtaking live from action 0, the
  // selection phase's geometry measurements (token/staying observations
  // during circuits) are corrupted for strict AND hardened alike — the
  // whole of Algorithm 2 assumes non-overtaking. Pin that both variants
  // misbehave, which is what forces the phase-windowed injection when
  // seeding a *deployment* bug.
  FuzzOptions options = strict_fifo_bug_options();
  options.faults.non_fifo_min_phase = 0;  // unwindowed
  options.fixed_homes.clear();  // random instances; the effect is generic
  options.fixed_nodes = 0;
  options.min_nodes = 8;
  options.max_nodes = 16;
  options.min_agents = 3;
  options.max_agents = 5;
  options.schedulers = {ExploreSchedulerKind::LinkDelay,
                        ExploreSchedulerKind::FifoStress};
  options.iterations = 10;
  const FuzzReport strict = run_fuzz(options);
  EXPECT_GT(strict.failures, 0u);
  options.algorithm = core::Algorithm::KnownKLogMem;
  const FuzzReport hardened = run_fuzz(options);
  EXPECT_GT(hardened.failures, 0u);
}

TEST(NonFifoFault, FaultDisabledMeansNoOvertaking) {
  // Without the fault flag the same fuzz pool finds nothing: the strict
  // variant is correct on a FIFO substrate (the paper's model).
  FuzzOptions options = strict_fifo_bug_options();
  options.faults = {};  // a phase window without the fault is invalid
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.failures, 0u)
      << (report.failure_samples.empty()
              ? ""
              : report.failure_samples.front().reason);
}

// ---- fuzzer -----------------------------------------------------------------

TEST(Fuzzer, DigestIsWorkerCountInvariant) {
  FuzzOptions options;
  options.algorithm = core::Algorithm::KnownKFull;
  options.iterations = 24;
  options.base_seed = 5;
  options.workers = 1;
  const FuzzReport serial = run_fuzz(options);
  options.workers = 4;
  const FuzzReport parallel = run_fuzz(options);
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.failures, parallel.failures);
  EXPECT_EQ(serial.total_actions, parallel.total_actions);
  EXPECT_EQ(serial.failures, 0u);
  EXPECT_GT(serial.total_actions, 0u);
}

TEST(Fuzzer, FailureCarriesReplayableTrace) {
  const FuzzReport report = run_fuzz(strict_fifo_bug_options());
  ASSERT_GT(report.failures, 0u);
  ASSERT_FALSE(report.failure_samples.empty());
  const FuzzFailure& failure = report.failure_samples.front();
  const ReplayOutcome replayed = replay_trace(failure.trace);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.reason, failure.reason);
  EXPECT_EQ(replayed.digest, failure.trace.expected_digest);
}

// ---- shrinker ---------------------------------------------------------------

TEST(Shrinker, ConvergesToSmallReplayableTraceForSeededBug) {
  const FuzzReport report = run_fuzz(strict_fifo_bug_options());
  ASSERT_GT(report.failures, 0u);
  const FuzzFailure& failure = report.failure_samples.front();

  const ShrinkResult shrunk = shrink_trace(failure.trace);
  EXPECT_EQ(shrunk.original_size, failure.trace.choices.size());
  EXPECT_LE(shrunk.trace.choices.size(), shrunk.original_size);
  // Fixed size bound: the race needs only a handful of decisive choices; a
  // minimized trace dominated by default picks must come out far below the
  // original run length.
  EXPECT_LE(shrunk.trace.choices.size(), 64u)
      << "shrinker failed to converge under the size bound";

  // The minimal trace still fails, in the same failure class, and is
  // self-checking: replay reproduces its refreshed digest and note.
  const ReplayOutcome replayed = replay_trace(shrunk.trace);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.reason, shrunk.reason);
  EXPECT_EQ(replayed.digest, shrunk.trace.expected_digest);
  EXPECT_EQ(shrunk.trace.note, shrunk.reason);
  EXPECT_EQ(failure.reason.substr(0, failure.reason.find(':')),
            shrunk.reason.substr(0, shrunk.reason.find(':')));

  // And it survives the text round trip — the CI artifact path.
  const ScheduleTrace reparsed = ScheduleTrace::parse(shrunk.trace.to_text());
  const ReplayOutcome from_text = replay_trace(reparsed);
  EXPECT_TRUE(from_text.failed);
  EXPECT_EQ(from_text.digest, shrunk.trace.expected_digest);
}

TEST(Shrinker, RejectsPassingTrace) {
  Rng rng(3);
  const auto homes = exp::draw_homes(exp::ConfigFamily::RandomAny, 12, 3, 1, rng);
  const ScheduleTrace ok = record_trace(core::Algorithm::KnownKFull, 12, homes,
                                        ExploreSchedulerKind::RoundRobin, 1);
  ASSERT_EQ(ok.note, "ok");
  EXPECT_THROW((void)shrink_trace(ok), std::invalid_argument);
}

TEST(Shrinker, IsDeterministic) {
  const FuzzReport report = run_fuzz(strict_fifo_bug_options());
  ASSERT_GT(report.failures, 0u);
  const ShrinkResult a = shrink_trace(report.failure_samples.front().trace);
  const ShrinkResult b = shrink_trace(report.failure_samples.front().trace);
  EXPECT_EQ(a.trace.choices, b.trace.choices);
  EXPECT_EQ(a.trace.expected_digest, b.trace.expected_digest);
  EXPECT_EQ(a.replays, b.replays);
}

}  // namespace
}  // namespace udring::explore
