// Negative-case property tests for the checker (the uniform-deployment
// oracles of Definitions 1 and 2 and the model invariants).
//
// The fuzzer trusts the checker as its bug-detection oracle, so the checker
// itself needs adversarial coverage: every *near miss* — a configuration one
// perturbation away from legal — must be rejected, and rejected for the
// right reason (asserted by reason prefix, so a reshuffled error path cannot
// silently pass the suite). Positive cases live in test_checker.cpp; this
// file fuzzes the negative space around them.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "config/generators.h"
#include "embed/topology.h"
#include "sim/checker.h"
#include "sim/execution_state.h"
#include "sim/instance.h"
#include "support/test_agents.h"
#include "util/rng.h"

namespace udring::sim {
namespace {

[[nodiscard]] bool has_prefix(const std::string& text, std::string_view prefix) {
  return text.rfind(prefix, 0) == 0;
}

#define EXPECT_FAILS_WITH(result, prefix)                       \
  do {                                                          \
    const CheckResult r_ = (result);                            \
    EXPECT_FALSE(r_.ok);                                        \
    EXPECT_TRUE(has_prefix(r_.reason, prefix))                  \
        << "reason '" << r_.reason << "' lacks prefix '" << prefix << "'"; \
  } while (0)

// ---- check_positions_uniform near misses ------------------------------------

TEST(PositionsUniformFuzz, OffByOneGapFailsWithGapReason) {
  // Start from an exactly uniform deployment and nudge one agent one node
  // forward: the two adjacent gaps become g-1 and g+1, at least one of which
  // leaves {⌊n/k⌋, ⌈n/k⌉} whenever g ≥ 2.
  Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t k = 2 + rng.index(6);              // 2..7
    const std::size_t gap = 3 + rng.index(5);            // 3..7 (g-1 ≥ 2)
    const std::size_t n = k * gap;                       // k | n: all gaps = g
    std::vector<std::size_t> positions = gen::uniform_homes(n, k);
    ASSERT_TRUE(check_positions_uniform(positions, n).ok);

    const std::size_t victim = rng.index(k);
    positions[victim] = (positions[victim] + 1) % n;
    EXPECT_FAILS_WITH(check_positions_uniform(positions, n), "gap ");
  }
}

TEST(PositionsUniformFuzz, DuplicatePositionFailsWithSharedNodeReason) {
  Rng rng(405);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t k = 3 + rng.index(6);
    const std::size_t n = k * (2 + rng.index(6));
    std::vector<std::size_t> positions = gen::uniform_homes(n, k);
    // Collapse one agent onto another.
    const std::size_t src = rng.index(k);
    std::size_t dst = rng.index(k);
    if (dst == src) dst = (dst + 1) % k;
    positions[src] = positions[dst];
    EXPECT_FAILS_WITH(check_positions_uniform(positions, n),
                      "two agents share node ");
  }
}

TEST(PositionsUniformFuzz, RandomNonUniformConfigurationsNeverPass) {
  // Draw random distinct positions and cross-check the verdict against a
  // first-principles gap scan; on disagreement-free runs, every rejection
  // must carry one of the two reachable reason prefixes.
  Rng rng(406);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t k = 2 + rng.index(7);
    const std::size_t n = k + rng.index(40);
    std::vector<std::size_t> positions = gen::random_homes(n, k, rng);
    const CheckResult verdict = check_positions_uniform(positions, n);

    const std::vector<std::size_t> gaps = ring_gaps(positions, n);
    const std::size_t floor_gap = n / k;
    const std::size_t ceil_gap = floor_gap + (n % k == 0 ? 0 : 1);
    bool uniform = true;
    for (const std::size_t gap : gaps) {
      uniform = uniform && (gap == floor_gap || gap == ceil_gap);
    }
    EXPECT_EQ(verdict.ok, uniform);
    if (!verdict.ok) {
      EXPECT_TRUE(has_prefix(verdict.reason, "gap ") ||
                  has_prefix(verdict.reason, "two agents share node "))
          << verdict.reason;
    }
  }
}

TEST(PositionsUniformFuzz, EmptyPositionsFail) {
  EXPECT_FAILS_WITH(check_positions_uniform({}, 8), "no agent positions");
}

// ---- Definition 1/2 oracle near misses --------------------------------------

/// Halts immediately at its home node.
class HaltAgent final : public AgentProgram {
 public:
  Behavior run(AgentContext& /*ctx*/) override { co_return; }
  [[nodiscard]] std::string_view name() const override { return "test-halt"; }
};

/// Parks forever (never reaches the halt state).
class ParkAgent final : public AgentProgram {
 public:
  Behavior run(AgentContext& ctx) override {
    for (;;) co_await ctx.wait_message();
  }
  [[nodiscard]] std::string_view name() const override { return "test-park"; }
};

/// Suspends forever; optionally broadcasts first (to fill a mailbox).
class SuspendAgent final : public AgentProgram {
 public:
  explicit SuspendAgent(bool broadcast_first) : broadcast_first_(broadcast_first) {}
  Behavior run(AgentContext& ctx) override {
    if (broadcast_first_) ctx.broadcast(TextMessage{"late"});
    for (;;) co_await ctx.suspend();
  }
  [[nodiscard]] std::string_view name() const override { return "test-suspend"; }

 private:
  bool broadcast_first_;
};

TEST(Definition1Fuzz, NonHaltedAgentFailsWithStatusReason) {
  // Uniform positions, but one agent parks instead of halting: the status
  // scan must fire before the geometry is even considered.
  Rng rng(407);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t k = 2 + rng.index(4);
    const std::size_t n = k * (2 + rng.index(4));
    const std::size_t parked = rng.index(k);
    const Instance instance(n, gen::uniform_homes(n, k), [&](AgentId id) {
      return id == parked
                 ? std::unique_ptr<AgentProgram>(std::make_unique<ParkAgent>())
                 : std::unique_ptr<AgentProgram>(std::make_unique<HaltAgent>());
    });
    ExecutionState sim(instance);
    ASSERT_TRUE(test::run_round_robin(sim).quiescent());
    EXPECT_FAILS_WITH(UniformDeploymentOracle(true).check_goal(sim), "agent ");
  }
}

TEST(Definition1Fuzz, AgentStillOnALinkFailsWithStatusReason) {
  // One walker never stops: interrupt the run mid-flight so a link queue is
  // non-empty. The in-transit agent trips the halt-status scan (an agent on
  // a link is by definition not halted — the queue-emptiness clause of
  // Definition 1 is unreachable through observable executions, which is
  // itself worth pinning).
  const Instance instance(8, {0, 4}, [](AgentId id) {
    return id == 0 ? std::unique_ptr<AgentProgram>(
                         std::make_unique<test::EndlessWalkerAgent>())
                   : std::unique_ptr<AgentProgram>(std::make_unique<HaltAgent>());
  });
  ExecutionState sim(instance);
  RoundRobinScheduler scheduler;
  for (int step = 0; step < 9; ++step) {
    ASSERT_TRUE(sim.step(scheduler));
  }
  std::size_t queued = 0;
  for (NodeId node = 0; node < 8; ++node) queued += sim.queue_length(node);
  ASSERT_GT(queued, 0u) << "walker should be mid-link";
  EXPECT_FAILS_WITH(UniformDeploymentOracle(true).check_goal(sim), "agent ");
}

TEST(Definition2Fuzz, AllSuspendedOnDistinctNodesIsLegal) {
  // Control case: both agents suspend at uniform positions with nobody
  // co-located, so the broadcast reaches no mailbox and the oracle passes.
  const Instance instance(8, {0, 4}, [](AgentId id) {
    return std::make_unique<SuspendAgent>(/*broadcast_first=*/id == 0);
  });
  ExecutionState sim(instance);
  ASSERT_TRUE(test::run_round_robin(sim).quiescent());
  ASSERT_TRUE(UniformDeploymentOracle(false).check_goal(sim).ok);
}

TEST(Definition2Fuzz, UndeliveredMailFailsWithMessageReason) {
  // Near miss: every agent is suspended, but one of them holds an
  // undelivered message — Definition 2's m_i = ∅ clause. Reachable state:
  // the receiver suspends first, the sender walks over, broadcasts into its
  // mailbox and suspends; we stop before the receiver's wake-up action.
  const Instance meet_instance(8, {0, 7}, [](AgentId id) {
    if (id == 0) return std::unique_ptr<AgentProgram>(std::make_unique<SuspendAgent>(false));
    // Agent 1 walks one hop (7 -> 0), broadcasts into agent 0's mailbox,
    // then suspends alongside it.
    class WalkBroadcastSuspend final : public AgentProgram {
     public:
      Behavior run(AgentContext& ctx) override {
        co_await ctx.move();
        ctx.broadcast(TextMessage{"late"});
        for (;;) co_await ctx.suspend();
      }
      [[nodiscard]] std::string_view name() const override { return "test-wbs"; }
    };
    return std::unique_ptr<AgentProgram>(std::make_unique<WalkBroadcastSuspend>());
  });
  ExecutionState meet(meet_instance);
  RoundRobinScheduler scheduler;
  scheduler.reset(2);
  // agent 0: arrive home, suspend. agent 1: arrive home, move, arrive at 0,
  // broadcast + suspend. Now agent 0 is suspended *with mail pending*.
  while (!meet.quiescent()) {
    // Stop the drain the moment every agent is suspended even though one
    // still has mail (it is enabled — that is the near miss).
    if (meet.all_suspended()) break;
    ASSERT_TRUE(meet.step(scheduler));
  }
  ASSERT_TRUE(meet.all_suspended());
  EXPECT_FAILS_WITH(UniformDeploymentOracle(false).check_goal(meet),
                    "agent ");
}

// ---- near misses on embedded (non-ring) topologies --------------------------
//
// The checker consumes observable simulator state, and since PR 3 that state
// can live on an Euler-tree or Eulerian-graph virtual ring. The negative
// space must reject for the same reasons there: a wrong verdict on an
// embedded instance would poison both the fuzzer and the mc:: exhaustive
// checker, which trust these oracles on every topology family.

TEST(EmbeddedTopologyFuzz, NonHaltedAgentFailsWithStatusReasonOnEulerTrees) {
  Rng rng(409);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 3 + rng.index(6);  // underlying tree nodes
    sim::Topology topology = embed::random_network_topology(
        embed::RandomNetworkKind::Tree, n, rng);
    const std::size_t k = 2 + rng.index(std::min<std::size_t>(n - 1, 3));
    const std::size_t parked = rng.index(k);
    std::vector<std::size_t> homes =
        embed::draw_virtual_homes(topology, k, rng);
    const Instance instance(
        std::move(topology), std::move(homes), [&](AgentId id) {
          return id == parked
                     ? std::unique_ptr<AgentProgram>(std::make_unique<ParkAgent>())
                     : std::unique_ptr<AgentProgram>(std::make_unique<HaltAgent>());
        });
    ExecutionState sim(instance);
    ASSERT_TRUE(test::run_round_robin(sim).quiescent());
    EXPECT_FAILS_WITH(UniformDeploymentOracle(true).check_goal(sim), "agent ");
  }
}

TEST(EmbeddedTopologyFuzz, SharedNodeFailsWithSharedNodeReasonOnEulerianGraphs) {
  // A bow-tie multigraph (all degrees even) yields a 6-step Eulerian
  // circuit; walk one agent onto another's halt node so the occupancy scan
  // fires — and pin that it fires with the geometry reason, not a status one.
  const sim::Topology topology = embed::eulerian_circuit_topology(
      5, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}});
  ASSERT_EQ(topology.size(), 6u);
  Rng rng(410);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t gap = 1 + rng.index(topology.size() - 1);
    const std::size_t start = rng.index(topology.size());
    const std::size_t chaser = (start + topology.size() - gap) % topology.size();
    if (chaser == start) continue;
    const Instance instance(
        topology, std::vector<std::size_t>{start, chaser}, [&](AgentId id) {
          // Agent 1 walks exactly onto agent 0's halt node (the virtual
          // ring's successor order is the circuit, so `gap` moves close it).
          return std::make_unique<test::WalkerAgent>(id == 0 ? 0 : gap);
        });
    ExecutionState sim(instance);
    ASSERT_TRUE(test::run_round_robin(sim).quiescent());
    EXPECT_FAILS_WITH(UniformDeploymentOracle(true).check_goal(sim),
                      "two agents share node ");
  }
}

TEST(EmbeddedTopologyFuzz, ModelInvariantsHoldAtEveryStepOfEmbeddedRuns) {
  // The fuzzer's and model checker's per-action oracle must hold along every
  // legal execution of embedded instances too — tree and graph families.
  Rng rng(411);
  for (const embed::RandomNetworkKind kind :
       {embed::RandomNetworkKind::Tree, embed::RandomNetworkKind::Graph}) {
    for (int trial = 0; trial < 10; ++trial) {
      const std::size_t n = 3 + rng.index(6);
      sim::Topology topology = embed::random_network_topology(kind, n, rng);
      const std::size_t k = 1 + rng.index(std::min<std::size_t>(n, 3));
      std::vector<std::size_t> homes =
          embed::draw_virtual_homes(topology, k, rng);
      const Instance instance(
          std::move(topology), std::move(homes), [k](AgentId) {
            return std::make_unique<test::WalkerAgent>(/*steps=*/k + 4,
                                                       /*drop_token=*/true);
          });
      ExecutionState sim(instance);
      RandomScheduler scheduler(rng());
      scheduler.reset(k);
      std::size_t min_tokens = 0;
      while (sim.step(scheduler)) {
        const CheckResult invariants = check_model_invariants(sim, min_tokens);
        ASSERT_TRUE(invariants.ok) << invariants.reason;
        min_tokens = sim.total_tokens();
      }
      EXPECT_TRUE(sim.all_halted());
    }
  }
}

// ---- model invariants -------------------------------------------------------

TEST(ModelInvariantsFuzz, TokenDecreaseFailsWithTokenReason) {
  const Instance instance(6, {0, 3}, [](AgentId) {
    return std::make_unique<HaltAgent>();
  });
  ExecutionState sim(instance);
  // No tokens were ever dropped; claiming we saw 3 must trip monotonicity.
  EXPECT_FAILS_WITH(check_model_invariants(sim, 3), "token count decreased");
  EXPECT_TRUE(check_model_invariants(sim, 0).ok);
}

// ---- crash-fault near misses (sim/fault.h) ----------------------------------
//
// Goal checks must tolerate dead agents: a crash-stop corpse is exempt from
// the status scan and invisible to the position geometry, but everything a
// corpse *blocks* — an occupied link queue, survivors left at skewed gaps —
// must still be rejected, with the reason naming the blocked thing rather
// than the corpse.

TEST(CrashFaultFuzz, CrashedAfterHaltCorpseIsInvisibleToTheGoal) {
  // Control case: k = 2 at uniform homes, both halt in place (round-robin:
  // agent 0 at action 1, agent 1 at action 2), then agent 1's crash fires at
  // action 2 — a corpse frozen in its staying set, not in a queue. The
  // single survivor's one gap is n = ⌊n/1⌋, so the oracle judges the live
  // deployment uniform despite the corpse at node 4.
  SimOptions options;
  options.faults.crashes = {{1, 2}};
  const Instance instance(8, {0, 4}, test::every<HaltAgent>(), options);
  ExecutionState sim(instance);
  ASSERT_TRUE(test::run_round_robin(sim).quiescent());
  ASSERT_EQ(sim.status(1), AgentStatus::Crashed);
  const CheckResult goal = UniformDeploymentOracle(true).check_goal(sim);
  EXPECT_TRUE(goal.ok) << goal.reason;
}

TEST(CrashFaultFuzz, SurvivorsAtSkewedGapsFailWithGapReason) {
  // Dead-agent goal reason: three agents halt at the uniform 9/3 spacing,
  // then one is crashed out (after its halt, so no queue is occupied). The
  // two survivors sit at gaps {3, 6} — neither ⌊9/2⌋ nor ⌈9/2⌉ — so the
  // geometry over *live* agents must fail with the gap reason (never by
  // blaming the corpse's status).
  SimOptions options;
  options.faults.crashes = {{2, 3}};
  const Instance instance(9, {0, 3, 6}, test::every<HaltAgent>(), options);
  ExecutionState sim(instance);
  ASSERT_TRUE(test::run_round_robin(sim).quiescent());
  ASSERT_EQ(sim.status(2), AgentStatus::Crashed);
  EXPECT_FAILS_WITH(UniformDeploymentOracle(true).check_goal(sim), "gap ");
}

TEST(CrashFaultFuzz, CorpseFrozenOnALinkIsReportedThroughWhatItBlocks) {
  // A walker crashed mid-transit freezes inside its link queue forever. The
  // status scan skips the corpse, so the violation surfaces as the frozen
  // queue itself (or, under FIFO, as a live agent starved behind it) — sweep
  // the crash time to catch the walker in transit at least once.
  bool caught_in_queue = false;
  for (std::size_t at_action = 1; at_action < 8; ++at_action) {
    SimOptions options;
    options.faults.crashes = {{0, at_action}};
    const Instance instance(
        8, {0, 4},
        [](AgentId id) {
          return id == 0 ? std::unique_ptr<AgentProgram>(
                               std::make_unique<test::EndlessWalkerAgent>())
                         : std::unique_ptr<AgentProgram>(
                               std::make_unique<HaltAgent>());
        },
        options);
    ExecutionState sim(instance);
    ASSERT_TRUE(test::run_round_robin(sim).quiescent());
    ASSERT_EQ(sim.status(0), AgentStatus::Crashed);
    std::size_t queued = 0;
    for (NodeId node = 0; node < 8; ++node) queued += sim.queue_length(node);
    if (queued == 0) continue;  // crashed while staying, not in transit
    caught_in_queue = true;
    EXPECT_FAILS_WITH(UniformDeploymentOracle(true).check_goal(sim),
                      "link queue");
  }
  EXPECT_TRUE(caught_in_queue) << "no crash time froze the walker on a link";
}

// ---- dynamic-ring rewiring near misses (sim/fault.h) ------------------------

namespace {

/// Lowest-id agent picks with a scripted rewiring choice: candidate
/// `stride_index` at every rewiring point. Lets a test aim the dynamic-ring
/// adversary at one exact replacement cycle.
class StrideScriptScheduler final : public Scheduler {
 public:
  explicit StrideScriptScheduler(std::size_t stride_index)
      : stride_index_(stride_index) {}
  void reset(std::size_t /*agent_count*/) override {}
  AgentId pick(const EnabledSet& enabled) override {
    return *std::min_element(enabled.begin(), enabled.end());
  }
  std::size_t pick_index(std::size_t bound) override {
    return stride_index_ % bound;
  }
  [[nodiscard]] std::string_view name() const override {
    return "stride-script";
  }

 private:
  std::size_t stride_index_;
};

}  // namespace

TEST(RewireFaultFuzz, IdentityRewiringKeepsTheDeploymentLegal) {
  // Control case: the rewiring fires but the script picks candidate 0 —
  // stride 1, the original ring — so the walker's 3 hops from node 1 still
  // land on node 4 and the oracle passes. Pins that a rewiring *point* alone
  // changes nothing; only the chosen cycle can.
  SimOptions options;
  options.faults.rewire_at = {1};
  const Instance instance(
      8, {0, 1},
      [](AgentId id) {
        return id == 0 ? std::unique_ptr<AgentProgram>(
                             std::make_unique<HaltAgent>())
                       : std::unique_ptr<AgentProgram>(
                             std::make_unique<test::WalkerAgent>(3));
      },
      options);
  ExecutionState sim(instance);
  StrideScriptScheduler scheduler(0);
  ASSERT_TRUE(sim.run(scheduler).quiescent());
  ASSERT_EQ(sim.rewires_applied(), 1u);
  const CheckResult goal = UniformDeploymentOracle(true).check_goal(sim);
  EXPECT_TRUE(goal.ok) << goal.reason;
}

TEST(RewireFaultFuzz, AdversarialRewiringSkewsTheDeploymentWithGapReason) {
  // Rewired-ring near miss: same instance, but the script picks candidate 3
  // — stride 7 on n = 8, the reversed ring — so the walker's 3 hops from
  // node 1 land on (1 + 3·7) mod 8 = 6 instead of 4. Positions {0, 6} have
  // gaps {6, 2}; the geometry must fail with the gap reason, and only the
  // rewiring choice separates this from the passing control above.
  SimOptions options;
  options.faults.rewire_at = {1};
  const Instance instance(
      8, {0, 1},
      [](AgentId id) {
        return id == 0 ? std::unique_ptr<AgentProgram>(
                             std::make_unique<HaltAgent>())
                       : std::unique_ptr<AgentProgram>(
                             std::make_unique<test::WalkerAgent>(3));
      },
      options);
  ExecutionState sim(instance);
  StrideScriptScheduler scheduler(3);
  ASSERT_TRUE(sim.run(scheduler).quiescent());
  ASSERT_EQ(sim.rewires_applied(), 1u);
  ASSERT_EQ(sim.live_stride(), 7u);
  EXPECT_FAILS_WITH(UniformDeploymentOracle(true).check_goal(sim), "gap ");
}

TEST(RewireFaultFuzz, ModelInvariantsHoldAtEveryStepUnderCrashAndRewire) {
  // The fuzzer's per-action oracle must keep holding along faulty
  // executions: crashes freeze agents and rewirings swap the live successor
  // map, but neither may break queue/status/token consistency at any step.
  Rng rng(411);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t k = 2 + rng.index(4);
    const std::size_t n = 8 + rng.index(9);
    SimOptions options;
    options.faults.crashes = {
        {static_cast<AgentId>(rng.index(k)), 1 + rng.index(2 * n)}};
    options.faults.rewire_at = {1 + rng.index(n), 2 * n + rng.index(n)};
    options.faults.normalize();
    const Instance instance(
        n, gen::random_homes(n, k, rng),
        [k](AgentId) {
          return std::make_unique<test::WalkerAgent>(/*steps=*/k + 3,
                                                     /*drop_token=*/true);
        },
        options);
    ExecutionState sim(instance);
    RandomScheduler scheduler(rng());
    scheduler.reset(k);
    std::size_t min_tokens = 0;
    while (sim.step(scheduler)) {
      const CheckResult invariants = check_model_invariants(sim, min_tokens);
      ASSERT_TRUE(invariants.ok) << invariants.reason;
      min_tokens = sim.total_tokens();
    }
  }
}

TEST(ModelInvariantsFuzz, HoldsAtEveryStepOfRandomRuns) {
  // The fuzzer's per-action oracle must hold along *every* legal execution;
  // sweep random schedules as a sanity floor for the negative cases above.
  Rng rng(408);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t k = 2 + rng.index(4);
    const std::size_t n = 8 + rng.index(9);
    const Instance instance(n, gen::random_homes(n, k, rng), [k](AgentId) {
      return std::make_unique<test::WalkerAgent>(/*steps=*/k + 3,
                                                 /*drop_token=*/true);
    });
    ExecutionState sim(instance);
    RandomScheduler scheduler(rng());
    scheduler.reset(k);
    std::size_t min_tokens = 0;
    while (sim.step(scheduler)) {
      const CheckResult invariants = check_model_invariants(sim, min_tokens);
      ASSERT_TRUE(invariants.ok) << invariants.reason;
      min_tokens = sim.total_tokens();
    }
  }
}

}  // namespace
}  // namespace udring::sim
