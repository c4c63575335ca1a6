// Tests for sim/checker.h — the independent oracle itself must be right, or
// every other test is worthless. Validates the gap arithmetic and the
// Definition 1/2 predicates against hand-computed cases and live simulators,
// and pins the per-action model-invariant check to its O(n + k) reference
// walk (sim/model_invariants.h): same verdict and reason at every state of
// real executions — all six ring algorithms, non-FIFO queue jumping, crash
// corpses, rewired rings, the tests/schedules/ corpus — and on hand-built
// corrupt configurations no legal execution reaches.

#include "sim/checker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.h"
#include "exp/campaign.h"
#include "explore/replay.h"
#include "explore/trace.h"
#include "sim/model_invariants.h"
#include "sim/scheduler.h"
#include "support/test_agents.h"
#include "util/rng.h"

namespace udring::sim {
namespace {

using test::CollectorAgent;
using test::SitterAgent;
using test::SuspenderAgent;
using test::WalkerAgent;

TEST(RingGaps, HandComputedCases) {
  EXPECT_EQ(ring_gaps({0, 4, 8, 12}, 16), (std::vector<std::size_t>{4, 4, 4, 4}));
  EXPECT_EQ(ring_gaps({3}, 9), (std::vector<std::size_t>{9}));
  EXPECT_EQ(ring_gaps({5, 1}, 8), (std::vector<std::size_t>{4, 4}));
  EXPECT_EQ(ring_gaps({0, 1, 7}, 10), (std::vector<std::size_t>{1, 6, 3}));
}

TEST(RingGaps, GapsAlwaysSumToN) {
  for (std::size_t n = 3; n <= 20; ++n) {
    std::vector<std::size_t> positions = {0, n / 3, n - 1};
    std::size_t total = 0;
    for (const std::size_t gap : ring_gaps(positions, n)) total += gap;
    EXPECT_EQ(total, n);
  }
}

TEST(PositionsUniform, AcceptsExactDeployments) {
  EXPECT_TRUE(check_positions_uniform({0, 4, 8, 12}, 16).ok);
  EXPECT_TRUE(check_positions_uniform({2, 6, 10, 14}, 16).ok) << "any rotation";
  EXPECT_TRUE(check_positions_uniform({7}, 11).ok) << "k = 1 is trivially uniform";
  EXPECT_TRUE(check_positions_uniform({0, 1, 2}, 3).ok) << "k = n";
}

TEST(PositionsUniform, AcceptsFloorCeilMixExactly) {
  // n = 14, k = 4: gaps must be two 4s and two 3s.
  EXPECT_TRUE(check_positions_uniform({0, 4, 8, 11}, 14).ok);
  EXPECT_FALSE(check_positions_uniform({0, 4, 9, 12}, 14).ok)
      << "a gap of 5 violates ⌈n/k⌉ = 4";
  // Right gap values but wrong multiplicity: three 4s and one 2.
  EXPECT_FALSE(check_positions_uniform({0, 4, 8, 12}, 14).ok);
}

TEST(PositionsUniform, RejectsDuplicatesAndEmpties) {
  EXPECT_FALSE(check_positions_uniform({3, 3}, 8).ok);
  EXPECT_FALSE(check_positions_uniform({}, 8).ok);
}

TEST(PositionsUniform, FailureMessagesAreActionable) {
  const auto bad_gap = check_positions_uniform({0, 1, 8}, 12);
  EXPECT_FALSE(bad_gap.ok);
  EXPECT_NE(bad_gap.reason.find("gap"), std::string::npos);
  const auto duplicate = check_positions_uniform({5, 5, 9}, 12);
  EXPECT_FALSE(duplicate.ok);
  EXPECT_NE(duplicate.reason.find("share"), std::string::npos);
}

TEST(DefinitionOne, RequiresHaltAndEmptyQueuesAndUniformity) {
  // Walkers that halt uniformly: 2 agents on an 8-ring moving to distance 4.
  const Instance instance(8, {0, 4}, test::every<WalkerAgent>(8));
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  EXPECT_TRUE(UniformDeploymentOracle(true).check_goal(sim).ok);
}

TEST(DefinitionOne, RejectsWaitingAgents) {
  const Instance instance(
      8, {0, 4}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<WalkerAgent>(0);
        return std::make_unique<CollectorAgent>(1);  // waits forever
      });
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  const auto check = UniformDeploymentOracle(true).check_goal(sim);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("waiting"), std::string::npos);
}

TEST(DefinitionOne, RejectsNonUniformHalts) {
  const Instance instance(8, {0, 1}, test::every<WalkerAgent>(0));
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  EXPECT_FALSE(UniformDeploymentOracle(true).check_goal(sim).ok)
      << "gaps 1 and 7 are not a uniform deployment";
}

TEST(DefinitionTwo, RequiresSuspendedAndUniform) {
  const Instance instance(8, {0, 4}, test::every<SuspenderAgent>());
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  EXPECT_TRUE(UniformDeploymentOracle(false).check_goal(sim).ok);
}

TEST(DefinitionTwo, RejectsHaltedAgents) {
  const Instance instance(
      8, {0, 4}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<SuspenderAgent>();
        return std::make_unique<SitterAgent>(0);  // halts
      });
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  EXPECT_FALSE(UniformDeploymentOracle(false).check_goal(sim).ok);
}

TEST(Gathered, DetectsGatheringAndSpread) {
  const Instance gathered_instance(
      6, {0, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        // Both halt at node 3.
        return std::make_unique<WalkerAgent>(id == 0 ? 3 : 0);
      });
  ExecutionState gathered(gathered_instance);
  test::run_round_robin(gathered);
  EXPECT_TRUE(check_gathered(gathered).ok);

  const Instance spread_instance(6, {0, 3}, test::every<WalkerAgent>(0));
  ExecutionState spread(spread_instance);
  test::run_round_robin(spread);
  EXPECT_FALSE(check_gathered(spread).ok);
}

TEST(PositionsUniform, ExhaustiveSmallInstances) {
  // For every n ≤ 12, k ≤ n and every rotation r: the analytic target set
  // (first n%k gaps ⌈n/k⌉, rest ⌊n/k⌋, shifted by r) must pass, and any
  // single-agent displacement by one node must fail unless it lands back on
  // an equivalent uniform set.
  for (std::size_t n = 2; n <= 12; ++n) {
    for (std::size_t k = 2; k <= n; ++k) {
      // Build the canonical uniform positions.
      std::vector<std::size_t> canonical;
      std::size_t position = 0;
      for (std::size_t j = 0; j < k; ++j) {
        canonical.push_back(position);
        position += n / k + (j < n % k ? 1 : 0);
      }
      for (std::size_t r = 0; r < n; ++r) {
        std::vector<std::size_t> rotated;
        for (const std::size_t p : canonical) rotated.push_back((p + r) % n);
        ASSERT_TRUE(check_positions_uniform(rotated, n).ok)
            << "n=" << n << " k=" << k << " r=" << r;
      }
      // Perturb: move one agent forward by one node. If the slot is free,
      // verify the verdict against a brute-force gap check.
      if (k < n) {
        std::vector<std::size_t> perturbed = canonical;
        perturbed[0] = (perturbed[0] + 1) % n;
        std::sort(perturbed.begin(), perturbed.end());
        const bool distinct =
            std::adjacent_find(perturbed.begin(), perturbed.end()) ==
            perturbed.end();
        if (distinct) {
          // Brute force: gaps must all be in {⌊n/k⌋, ⌈n/k⌉} with the right
          // multiplicity.
          const auto gaps = ring_gaps(perturbed, n);
          std::size_t ceil_count = 0;
          bool ok = true;
          for (const std::size_t gap : gaps) {
            if (gap == n / k + 1 && n % k != 0) {
              ++ceil_count;
            } else if (gap != n / k) {
              ok = false;
            }
          }
          ok = ok && (n % k == 0 || ceil_count == n % k);
          EXPECT_EQ(check_positions_uniform(perturbed, n).ok, ok)
              << "n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(ModelInvariants, DetectsNothingWrongOnHealthyRuns) {
  const Instance instance(9, {0, 3, 6}, test::every<WalkerAgent>(10, true));
  ExecutionState sim(instance);
  RoundRobinScheduler scheduler;
  scheduler.reset(3);
  while (sim.step(scheduler)) {
    ASSERT_TRUE(check_model_invariants(sim, 0).ok);
  }
  EXPECT_TRUE(check_model_invariants(sim, 3).ok);
  EXPECT_FALSE(check_model_invariants(sim, 4).ok)
      << "demanding more tokens than exist must fail";
}

// ---- the fast invariant check against its reference walk -------------------

/// The check must return exactly the walk's verdict and reason, the queued-
/// agent counter must be Σ|q_v|, and on a healthy state the O(k) fast path
/// must be what proved it (a legal state that falls through to the walk
/// would silently cost O(n) again).
::testing::AssertionResult matches_walk(const ExecutionState& sim,
                                        std::size_t min_tokens) {
  std::size_t queued = 0;
  for (NodeId node = 0; node < sim.node_count(); ++node) {
    queued += sim.queue_length(node);
  }
  if (sim.queued_agents() != queued) {
    return ::testing::AssertionFailure()
           << "queued_agents() = " << sim.queued_agents() << ", queues hold "
           << queued << " at action " << sim.actions_executed();
  }
  const CheckResult walked = invariants::walk(sim, min_tokens);
  const CheckResult checked = check_model_invariants(sim, min_tokens);
  if (checked.ok != walked.ok || checked.reason != walked.reason) {
    return ::testing::AssertionFailure()
           << "at action " << sim.actions_executed() << ": check='"
           << checked.reason << "' walk='" << walked.reason << "'";
  }
  if (walked.ok && !invariants::proves_queues_consistent(sim)) {
    return ::testing::AssertionFailure()
           << "fast path declined a healthy state at action "
           << sim.actions_executed();
  }
  return ::testing::AssertionSuccess();
}

/// Steps `sim` under `scheduler` the way the checked drivers do (stop at
/// quiescence, the first invariant failure, or the action limit), asserting
/// matches_walk at the start and after every action, with the real token
/// floor and with one the state cannot meet. `after_each` observes every
/// state after an action.
void step_matching_walk(
    ExecutionState& sim, Scheduler& scheduler,
    const std::function<void(const ExecutionState&)>& after_each = {}) {
  scheduler.attach(sim);
  scheduler.reset(sim.agent_count());
  std::size_t min_tokens = sim.total_tokens();
  ASSERT_TRUE(matches_walk(sim, min_tokens));
  while (sim.step(scheduler)) {
    ASSERT_TRUE(matches_walk(sim, min_tokens));
    ASSERT_TRUE(matches_walk(sim, sim.total_tokens() + 1));
    if (after_each) after_each(sim);
    if (!invariants::walk(sim, min_tokens)) return;
    min_tokens = sim.total_tokens();
    if (sim.actions_executed() >= sim.max_actions()) return;
  }
}

sim::Instance random_instance(core::Algorithm algorithm, Rng& rng,
                              SimOptions options = {}) {
  const std::size_t k = 2 + rng.index(4);
  const std::size_t n = 2 * k + rng.index(30);
  core::RunSpec spec;
  spec.node_count = n;
  spec.homes = exp::draw_homes(exp::ConfigFamily::RandomAny, n, k, 1, rng);
  spec.sim_options = options;
  return core::make_instance(algorithm, spec);
}

constexpr core::Algorithm kRingAlgorithms[] = {
    core::Algorithm::KnownKFull,         core::Algorithm::KnownKLogMem,
    core::Algorithm::KnownKLogMemStrict, core::Algorithm::UnknownRelaxed,
    core::Algorithm::GatherRing,         core::Algorithm::DisperseRing};

TEST(InvariantFastPath, MatchesWalkAlongRandomSchedulesOfAllAlgorithms) {
  Rng rng(4101);
  for (const core::Algorithm algorithm : kRingAlgorithms) {
    for (int trial = 0; trial < 6; ++trial) {
      const sim::Instance instance = random_instance(algorithm, rng);
      ExecutionState sim(instance);
      RandomScheduler scheduler(rng());
      ASSERT_NO_FATAL_FAILURE(step_matching_walk(sim, scheduler))
          << core::to_string(algorithm) << " trial " << trial;
      EXPECT_TRUE(sim.quiescent()) << core::to_string(algorithm);
    }
  }
}

TEST(InvariantFastPath, MatchesWalkUnderNonFifoQueueJumping) {
  Rng rng(4102);
  std::size_t behind_head = 0;  // states where a non-head agent may arrive
  for (int trial = 0; trial < 10; ++trial) {
    SimOptions options;
    options.faults.non_fifo = true;
    const sim::Instance instance =
        random_instance(core::Algorithm::KnownKLogMemStrict, rng, options);
    ExecutionState sim(instance);
    RandomScheduler scheduler(rng());
    ASSERT_NO_FATAL_FAILURE(
        step_matching_walk(sim, scheduler, [&](const ExecutionState& state) {
          for (const AgentId id : state.enabled()) {
            if (state.status(id) == AgentStatus::InTransit &&
                state.link_queue(state.agent_node(id)).front() != id) {
              ++behind_head;
            }
          }
        }));
  }
  EXPECT_GT(behind_head, 0u) << "no agent was ever enabled behind a queue head";
}

TEST(InvariantFastPath, MatchesWalkWithCrashCorpsesInQueuesAndStayingSets) {
  Rng rng(4103);
  std::size_t corpses_in_queue = 0;
  std::size_t corpses_staying = 0;
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::UnknownRelaxed,
        core::Algorithm::GatherRing}) {
    for (int trial = 0; trial < 12; ++trial) {
      SimOptions options;
      options.faults.crashes = {{0, rng.index(40)}};
      if (trial % 2 == 0) options.faults.crashes.push_back({1, rng.index(40)});
      std::sort(options.faults.crashes.begin(), options.faults.crashes.end(),
                [](const CrashFault& a, const CrashFault& b) {
                  return a.at_action < b.at_action;
                });
      const sim::Instance instance = random_instance(algorithm, rng, options);
      ExecutionState sim(instance);
      RandomScheduler scheduler(rng());
      ASSERT_NO_FATAL_FAILURE(step_matching_walk(sim, scheduler));
      for (AgentId id = 0; id < sim.agent_count(); ++id) {
        if (sim.status(id) != AgentStatus::Crashed) continue;
        const auto& queue = sim.link_queue(sim.agent_node(id));
        const bool queued =
            std::find(queue.begin(), queue.end(), id) != queue.end();
        ++(queued ? corpses_in_queue : corpses_staying);
      }
    }
  }
  EXPECT_GT(corpses_in_queue, 0u);
  EXPECT_GT(corpses_staying, 0u);
}

TEST(InvariantFastPath, MatchesWalkOnRewiredRings) {
  Rng rng(4104);
  std::size_t rewired = 0;
  for (const core::Algorithm algorithm :
       {core::Algorithm::KnownKFull, core::Algorithm::KnownKLogMem,
        core::Algorithm::DisperseRing}) {
    for (int trial = 0; trial < 6; ++trial) {
      SimOptions options;
      options.faults.rewire_at = {1 + rng.index(10), 20 + rng.index(20)};
      const sim::Instance instance = random_instance(algorithm, rng, options);
      ExecutionState sim(instance);
      RandomScheduler scheduler(rng());
      ASSERT_NO_FATAL_FAILURE(step_matching_walk(sim, scheduler));
      rewired += sim.rewires_applied();
    }
  }
  EXPECT_GT(rewired, 0u);
}

TEST(InvariantFastPath, MatchesWalkAlongEveryCorpusTrace) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(UDRING_SCHEDULES_DIR)) {
    if (entry.path().extension() == ".trace") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 7u);
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    const explore::ScheduleTrace trace =
        explore::ScheduleTrace::parse(text.str());
    // The replay instance explore::replay_trace builds: the plain ring of
    // the trace's node_count under its fault plan, events recorded.
    core::RunSpec spec;
    spec.node_count = trace.node_count;
    spec.homes = trace.homes;
    spec.problem = trace.problem;
    spec.sim_options.record_events = true;
    spec.sim_options.max_actions = trace.max_actions;
    spec.sim_options.faults = trace.faults;
    const sim::Instance instance = core::make_instance(trace.algorithm, spec);
    sim::ExecutionState sim(instance);
    explore::ReplayScheduler replayer(trace.choices);
    ASSERT_NO_FATAL_FAILURE(step_matching_walk(sim, replayer)) << file;
    EXPECT_EQ(sim.log().digest(), trace.expected_digest)
        << file << ": the stepped replay left the recorded execution";
  }
}

// ---- hand-built corrupt configurations --------------------------------------

/// A configuration as plain data: the minimal read view the invariant
/// checks are written over. `queued` is the counter under test.
struct FakeConfig {
  std::vector<AgentStatus> statuses;
  std::vector<NodeId> nodes;  // staying node, or destination in transit
  std::vector<std::vector<AgentId>> queues;
  std::size_t tokens = 0;
  std::size_t queued = 0;

  [[nodiscard]] std::size_t node_count() const { return queues.size(); }
  [[nodiscard]] std::size_t agent_count() const { return statuses.size(); }
  [[nodiscard]] std::size_t total_tokens() const { return tokens; }
  [[nodiscard]] std::size_t queued_agents() const { return queued; }
  [[nodiscard]] AgentStatus status(AgentId id) const { return statuses[id]; }
  [[nodiscard]] NodeId agent_node(AgentId id) const { return nodes[id]; }
  [[nodiscard]] const std::vector<AgentId>& link_queue(NodeId node) const {
    return queues[node];
  }

  /// Sets the counter to the true Σ|q_v|.
  FakeConfig& recount() {
    queued = 0;
    for (const auto& queue : queues) queued += queue.size();
    return *this;
  }
};

/// A legal configuration on a 16-ring: agents 0 and 1 in transit to node 3
/// (FIFO order 0, 1), agent 2 halted at node 7, agent 3 a corpse frozen in
/// the queue into node 10, agent 4 a corpse staying at node 3 itself.
FakeConfig healthy_config() {
  FakeConfig config;
  config.statuses = {AgentStatus::InTransit, AgentStatus::InTransit,
                     AgentStatus::Halted, AgentStatus::Crashed,
                     AgentStatus::Crashed};
  config.nodes = {3, 3, 7, 10, 3};
  config.queues.resize(16);
  config.queues[3] = {0, 1};
  config.queues[10] = {3};
  config.tokens = 2;
  return config.recount();
}

/// The corruption must be rejected, with the walk's reason, and not by the
/// fast path claiming a pass.
void expect_rejected_as_walk(const FakeConfig& config,
                             const std::string& reason) {
  EXPECT_FALSE(invariants::proves_queues_consistent(config));
  const CheckResult walked = invariants::walk(config, 0);
  const CheckResult checked = invariants::check(config, 0);
  EXPECT_FALSE(walked.ok);
  EXPECT_EQ(walked.reason, reason);
  EXPECT_FALSE(checked.ok);
  EXPECT_EQ(checked.reason, walked.reason);
}

TEST(InvariantFastPath, ProvesTheHealthyHandBuiltConfiguration) {
  const FakeConfig config = healthy_config();
  EXPECT_TRUE(invariants::proves_queues_consistent(config));
  EXPECT_TRUE(invariants::walk(config, 2).ok);
  EXPECT_TRUE(invariants::check(config, 2).ok);
  const CheckResult fewer_tokens = invariants::check(config, 3);
  EXPECT_FALSE(fewer_tokens.ok);
  EXPECT_EQ(fewer_tokens.reason, "token count decreased: 2 < 3");
  EXPECT_EQ(fewer_tokens.reason, invariants::walk(config, 3).reason);
}

TEST(InvariantFastPath, RejectsStrayMemberInQueueNoAgentPointsAt) {
  FakeConfig config = healthy_config();
  config.queues[14] = {1};  // also still in the queue into node 3
  expect_rejected_as_walk(config.recount(),
                          "agent 1 queue/destination mismatch");
  config = healthy_config();
  config.queues[14] = {2};  // the halted agent
  expect_rejected_as_walk(config.recount(),
                          "agent 2 is in queue to node 14 but has status halted");
}

TEST(InvariantFastPath, RejectsStayingAgentInQueue) {
  FakeConfig config = healthy_config();
  config.queues[3] = {0, 2, 1};  // a visited queue
  expect_rejected_as_walk(config.recount(),
                          "agent 2 is in queue to node 3 but has status halted");
  // The corpse staying at node 3, in the queue into another node.
  config = healthy_config();
  config.queues[10] = {3, 4};
  expect_rejected_as_walk(config.recount(),
                          "agent 4 queue/destination mismatch");
}

TEST(InvariantFastPath, RejectsInTransitAgentInWrongQueue) {
  FakeConfig config = healthy_config();
  config.queues[3] = {0};
  config.queues[5] = {1};  // destination is still node 3; queue 5 unvisited
  expect_rejected_as_walk(config.recount(),
                          "agent 1 queue/destination mismatch");
  config = healthy_config();
  config.queues[3] = {0};
  config.queues[10] = {3, 1};  // the corpse's queue, which is visited
  expect_rejected_as_walk(config.recount(),
                          "agent 1 queue/destination mismatch");
  config = healthy_config();
  config.queues[3] = {0};  // agent 1 in no queue at all
  expect_rejected_as_walk(config.recount(),
                          "in-transit agent 1 appears in 0 queues");
}

TEST(InvariantFastPath, RejectsDuplicateQueueEntry) {
  FakeConfig config = healthy_config();
  config.queues[3] = {0, 1, 1};
  expect_rejected_as_walk(config.recount(),
                          "in-transit agent 1 appears in 2 queues");
  config = healthy_config();
  config.queues[10] = {3, 3};
  expect_rejected_as_walk(config.recount(),
                          "crashed agent 3 appears in 2 queues");
}

TEST(InvariantFastPath, CounterThatDisagreesWithQueuesDefersToWalk) {
  // A counter that is off in either direction proves nothing; the verdict is
  // the walk's, which does not read the counter.
  for (const std::size_t queued : {std::size_t{2}, std::size_t{4}}) {
    FakeConfig config = healthy_config();
    config.queued = queued;  // the queues hold 3
    EXPECT_FALSE(invariants::proves_queues_consistent(config)) << queued;
    EXPECT_TRUE(invariants::check(config, 0).ok) << queued;
  }
  // Off in either direction while hiding a stray: the walk's reason.
  for (const std::size_t queued : {std::size_t{3}, std::size_t{5}}) {
    FakeConfig config = healthy_config();
    config.queues[3] = {0, 2, 1};
    config.queued = queued;  // the queues hold 4
    EXPECT_FALSE(invariants::proves_queues_consistent(config)) << queued;
    EXPECT_EQ(invariants::check(config, 0).reason,
              "agent 2 is in queue to node 3 but has status halted");
  }
}

TEST(InvariantFastPath, OutOfRangeQueueMemberThrowsLikeWalk) {
  FakeConfig config = healthy_config();
  config.queues[3] = {0, 1, 9};
  config.recount();
  EXPECT_FALSE(invariants::proves_queues_consistent(config));
  EXPECT_THROW((void)invariants::walk(config, 0), std::out_of_range);
  EXPECT_THROW((void)invariants::check(config, 0), std::out_of_range);
}

TEST(GoalOracles, DrainedLinksCheckNamesTheOccupiedQueue) {
  // A corpse frozen in the queue into its home while every live agent
  // halts: the goal checks reach the drained-links test, whose O(1) pass
  // must fall back to naming the node.
  SimOptions options;
  options.faults.crashes = {{1, 0}};
  const Instance instance(12, {0, 6}, test::every<SitterAgent>(0), options);
  ExecutionState sim(instance);
  RoundRobinScheduler scheduler;
  (void)sim.run(scheduler);
  EXPECT_EQ(sim.queued_agents(), 1u);
  const std::string reason = "link queue into node 6 still holds 1 agent(s)";
  EXPECT_EQ(UniformDeploymentOracle(true).check_goal(sim).reason, reason);
  EXPECT_EQ(PartialGatheringOracle(2).check_goal(sim).reason, reason);
  EXPECT_EQ(DispersionOracle().check_goal(sim).reason, reason);

  const Instance drained_instance(12, {0, 6}, test::every<SitterAgent>(0));
  ExecutionState drained(drained_instance);
  (void)drained.run(scheduler);
  EXPECT_EQ(drained.queued_agents(), 0u);
  EXPECT_TRUE(DispersionOracle().check_goal(drained).ok);
}

}  // namespace
}  // namespace udring::sim
