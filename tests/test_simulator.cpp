// Tests for sim/execution_state.h — the execution model itself. They pin the
// §2.1 semantics the algorithms' correctness proofs lean on: atomic actions,
// FIFO links (no overtaking), the initial-buffer/home-first rule, message
// delivery to staying agents only, Definition-1/2 terminal states, causal
// ideal-time stamps, and deterministic replay.

#include "sim/execution_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/checker.h"
#include "sim/scheduler.h"
#include "support/test_agents.h"
#include "util/rng.h"

namespace udring::sim {
namespace {

using test::CollectorAgent;
using test::EndlessWalkerAgent;
using test::MessengerAgent;
using test::ProberAgent;
using test::SitterAgent;
using test::SuspenderAgent;
using test::ThrowerAgent;
using test::WalkerAgent;

TEST(SimulatorConstruction, ValidatesConfiguration) {
  const auto factory = [](AgentId) { return std::make_unique<SitterAgent>(0); };
  EXPECT_THROW(Instance(5, {}, factory), std::invalid_argument);
  EXPECT_THROW(Instance(5, {0, 0}, factory), std::invalid_argument);
  EXPECT_THROW(Instance(5, {0, 5}, factory), std::invalid_argument);
  EXPECT_THROW(Instance(2, {0, 1, 0}, factory), std::invalid_argument);
  EXPECT_NO_THROW(Instance(5, {0, 2, 4}, factory));
}

TEST(SimulatorConstruction, AgentsStartInTransitToTheirHomes) {
  const Instance instance(6, {1, 4}, test::every<SitterAgent>(1));
  ExecutionState sim(instance);
  EXPECT_EQ(sim.status(0), AgentStatus::InTransit);
  EXPECT_EQ(sim.status(1), AgentStatus::InTransit);
  EXPECT_EQ(sim.agent_node(0), 1u);
  EXPECT_EQ(sim.agent_node(1), 4u);
  EXPECT_EQ(sim.queue_length(1), 1u);
  EXPECT_EQ(sim.queue_length(4), 1u);
  EXPECT_EQ(sim.enabled().size(), 2u) << "every initial agent is a queue head";
}

TEST(SimulatorRun, WalkerMovesExactlyItsSteps) {
  const Instance instance(8, {3}, test::every<WalkerAgent>(5));
  ExecutionState sim(instance);
  const RunResult result = test::run_round_robin(sim);
  EXPECT_TRUE(result.quiescent());
  EXPECT_TRUE(sim.all_halted());
  EXPECT_EQ(sim.metrics().agent(0).moves, 5u);
  EXPECT_EQ(sim.agent_node(0), 0u) << "3 + 5 mod 8";
  EXPECT_EQ(sim.staying_nodes(), (std::vector<NodeId>{0}));
}

TEST(SimulatorRun, CausalTimeEqualsMovesPlusArrival) {
  // One continuously moving agent: ideal time = initial arrival + one per
  // move (§2.2: "the ideal time complexity is equivalent to the number of
  // moves for the agent").
  const Instance instance(10, {0}, test::every<WalkerAgent>(7));
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  EXPECT_EQ(sim.metrics().makespan(), 8u);
}

TEST(SimulatorRun, ParallelWalkersShareTheClock) {
  // k walkers moving in lockstep: makespan must not grow with k.
  const Instance instance(12, {0, 4, 8}, test::every<WalkerAgent>(6));
  ExecutionState sim(instance);
  SynchronousScheduler scheduler;
  (void)sim.run(scheduler);
  EXPECT_EQ(sim.metrics().makespan(), 7u);
  EXPECT_EQ(sim.metrics().total_moves(), 18u);
}

TEST(SimulatorRun, ActionLimitStopsLivelocks) {
  SimOptions options;
  options.max_actions = 50;
  const Instance instance(4, {0}, test::every<EndlessWalkerAgent>(), options);
  ExecutionState sim(instance);
  const RunResult result = test::run_round_robin(sim);
  EXPECT_EQ(result.outcome, RunResult::Outcome::ActionLimit);
  EXPECT_EQ(result.actions, 50u);
}

TEST(HomeFirstRule, VisitorQueuesBehindTheHomeAgent) {
  // Agent 1 walks through agent 0's home. Even if the scheduler refuses to
  // run agent 0 (priority: agent 1 first), the FIFO initial buffer forces
  // agent 0's first action (at its home) before agent 1 can arrive there.
  SimOptions options;
  options.record_events = true;
  const Instance instance(
      6, {3, 1},
      [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<WalkerAgent>(0, /*drop_token=*/true);
        return std::make_unique<WalkerAgent>(4);
      },
      options);
  ExecutionState sim(instance);
  PriorityScheduler scheduler({1, 0});  // starve agent 0
  (void)sim.run(scheduler);

  const auto arrivals = sim.log().of_kind(EventKind::Arrive);
  const auto at_node3 = [&] {
    std::vector<Event> out;
    for (const Event& e : arrivals) {
      if (e.node == 3) out.push_back(e);
    }
    return out;
  }();
  ASSERT_EQ(at_node3.size(), 2u);
  EXPECT_EQ(at_node3[0].agent, 0u) << "home agent must act at its home first";
  EXPECT_EQ(at_node3[1].agent, 1u);
}

TEST(HomeFirstRule, TokenIsVisibleToTheFirstVisitor) {
  // Because of the home-first rule, a visitor can never see a home node
  // without its token: agent 1 probes every node it passes.
  const Instance instance(
      6, {3, 1}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) {
          return std::make_unique<WalkerAgent>(0, /*drop_token=*/true);
        }
        return std::make_unique<ProberAgent>(5);
      });
  ExecutionState sim(instance);
  PriorityScheduler scheduler({1, 0});
  (void)sim.run(scheduler);

  const auto& prober = dynamic_cast<const ProberAgent&>(sim.program(1));
  // Prober starts at node 1, then visits 2,3,4,5,0. Node 3 is observation
  // index 2 and must carry the token.
  ASSERT_EQ(prober.observations().size(), 6u);
  EXPECT_EQ(prober.observations()[2].tokens, 1u);
}

TEST(Fifo, ArrivalOrderMatchesDepartureOrderOnEveryLink) {
  // Two walkers on overlapping routes; under a randomized scheduler the
  // per-link arrival order must still match departure order.
  SimOptions options;
  options.record_events = true;
  const Instance instance(5, {0, 2}, test::every<WalkerAgent>(13), options);
  ExecutionState sim(instance);
  RandomScheduler scheduler(99);
  (void)sim.run(scheduler);

  // Reconstruct per-link order: Depart at node v = enqueue on link v→v+1;
  // Arrive at node v+1 = dequeue. Sequences must match exactly.
  const std::size_t n = sim.node_count();
  std::vector<std::vector<AgentId>> departs(n), arrives(n);
  for (const Event& e : sim.log().events()) {
    if (e.kind == EventKind::Depart) departs[(e.node + 1) % n].push_back(e.agent);
    if (e.kind == EventKind::Arrive) arrives[e.node].push_back(e.agent);
  }
  for (std::size_t v = 0; v < n; ++v) {
    // The initial buffer contributes one arrival without a departure.
    std::vector<AgentId> expected;
    for (AgentId id = 0; id < sim.agent_count(); ++id) {
      if (sim.homes()[id] == v) expected.push_back(id);
    }
    expected.insert(expected.end(), departs[v].begin(), departs[v].end());
    EXPECT_EQ(arrives[v], expected) << "FIFO violated on link into node " << v;
  }
}

TEST(Messaging, BroadcastReachesOnlyStayingAgents) {
  // Collector sits at node 2 (in the messenger's path); a second walker is
  // in transit somewhere. Only the collector may receive.
  const Instance instance(
      6, {0, 2, 4}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<MessengerAgent>(2, "hello");
        if (id == 1) return std::make_unique<CollectorAgent>(1);
        return std::make_unique<WalkerAgent>(6);
      });
  ExecutionState sim(instance);
  const RunResult result = test::run_round_robin(sim);
  EXPECT_TRUE(result.quiescent());
  const auto& collector = dynamic_cast<const CollectorAgent&>(sim.program(1));
  ASSERT_EQ(collector.received().size(), 1u);
  EXPECT_EQ(collector.received()[0], "hello");
}

TEST(Messaging, AllPendingMessagesDeliverInOneAction) {
  // Two messengers drop a message at node 3 before the suspended agent is
  // scheduled; the model delivers both in a single action.
  const Instance instance(
      8, {1, 2, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<MessengerAgent>(2, "a");
        if (id == 1) return std::make_unique<MessengerAgent>(1, "b");
        return std::make_unique<SuspenderAgent>();
      });
  ExecutionState sim(instance);
  // Priority: run both messengers to completion before the suspender acts.
  PriorityScheduler scheduler({0, 1, 2});
  (void)sim.run(scheduler);
  const auto& suspender = dynamic_cast<const SuspenderAgent&>(sim.program(2));
  ASSERT_EQ(suspender.wakeups().size(), 1u)
      << "both messages must arrive in one atomic action";
  EXPECT_EQ(suspender.wakeups()[0], 2u);
}

TEST(Messaging, HaltedAgentsIgnoreMessages) {
  // Definition 1: a halted agent neither changes state nor wakes.
  const Instance instance(
      6, {0, 2}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<SitterAgent>(0);  // halts at once
        return std::make_unique<MessengerAgent>(4, "ping");  // 2 + 4 = node 0
      });
  ExecutionState sim(instance);
  const RunResult result = test::run_round_robin(sim);
  EXPECT_TRUE(result.quiescent());
  EXPECT_EQ(sim.status(0), AgentStatus::Halted);
  EXPECT_EQ(sim.snapshot().agents[0].mailbox_size, 0u)
      << "messages to halted agents are dropped";
}

TEST(Messaging, SuspendedAgentWakesOnMessage) {
  const Instance instance(
      6, {0, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<SuspenderAgent>();
        return std::make_unique<MessengerAgent>(3, "wake");  // 3 + 3 = node 0
      });
  ExecutionState sim(instance);
  const RunResult result = test::run_round_robin(sim);
  EXPECT_TRUE(result.quiescent());
  const auto& suspender = dynamic_cast<const SuspenderAgent&>(sim.program(0));
  EXPECT_EQ(suspender.wakeups().size(), 1u);
  EXPECT_EQ(sim.status(0), AgentStatus::Suspended);
}

TEST(Messaging, WakeTimestampFollowsSender) {
  // The woken agent's next action must be causally after the sender's
  // broadcast action.
  const Instance instance(
      6, {0, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<SuspenderAgent>();
        return std::make_unique<MessengerAgent>(3, "wake");
      });
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  // Messenger: arrival(home)=1 + 3 moves → broadcast at ts 4. Suspender's
  // wakeup action: max(own prev=1, 4) + 1 = 5.
  EXPECT_EQ(sim.metrics().agent(1).causal_time, 4u);
  EXPECT_EQ(sim.metrics().agent(0).causal_time, 5u);
}

TEST(Observation, InTransitAgentsAreInvisible) {
  // A prober passes a node whose queue holds a never-scheduled agent: it
  // must see no one (agents in q_i are not in p_i).
  const Instance instance(
      6, {0, 3}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<ProberAgent>(5);
        return std::make_unique<SitterAgent>(2);
      });
  ExecutionState sim(instance);
  // Never run agent 1: it stays in transit inside node 3's queue... except
  // the prober queues behind it at node 3 and forces it through. Its first
  // action makes it Staying, so the prober *does* see it at node 3. Probe
  // nodes 1, 2, 4, 5 instead: nobody there.
  PriorityScheduler scheduler({0, 1});
  (void)sim.run(scheduler);
  const auto& prober = dynamic_cast<const ProberAgent&>(sim.program(0));
  ASSERT_EQ(prober.observations().size(), 6u);
  EXPECT_EQ(prober.observations()[1].others, 0u);  // node 1
  EXPECT_EQ(prober.observations()[2].others, 0u);  // node 2
  EXPECT_EQ(prober.observations()[3].others, 1u);  // node 3: sitter (forced through)
  EXPECT_EQ(prober.observations()[4].others, 0u);  // node 4
}

TEST(Quiescence, WaitingWithoutMessagesIsQuiescentButNotSuspended) {
  const Instance instance(4, {0}, test::every<CollectorAgent>(1));
  ExecutionState sim(instance);
  const RunResult result = test::run_round_robin(sim);
  EXPECT_TRUE(result.quiescent()) << "communication deadlock still quiesces";
  EXPECT_FALSE(sim.all_halted());
  EXPECT_FALSE(sim.all_suspended());
  EXPECT_EQ(sim.status(0), AgentStatus::Waiting);
}

TEST(Quiescence, StepAgentRejectsDisabledAgents) {
  const Instance instance(4, {0, 2}, test::every<SitterAgent>(1));
  ExecutionState sim(instance);
  EXPECT_TRUE(sim.step_agent(0));
  // Agent 0 now stayed once; agent 1 still in transit (enabled).
  EXPECT_TRUE(sim.step_agent(1));
  test::run_round_robin(sim);
  EXPECT_TRUE(sim.all_halted());
  EXPECT_FALSE(sim.step_agent(0)) << "halted agents are never enabled";
  EXPECT_FALSE(sim.step_agent(7)) << "unknown ids are rejected";
}

TEST(Determinism, SameSeedSameExecution) {
  const auto run_once = [](std::uint64_t seed) {
    const Instance instance(16, {0, 3, 7, 12}, test::every<WalkerAgent>(20));
    ExecutionState sim(instance);
    RandomScheduler scheduler(seed);
    (void)sim.run(scheduler);
    return std::make_tuple(sim.metrics().total_moves(), sim.metrics().makespan(),
                           sim.staying_nodes());
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_EQ(run_once(123), run_once(123));
}

TEST(Errors, AgentExceptionPropagates) {
  const Instance instance(4, {1}, test::every<ThrowerAgent>());
  ExecutionState sim(instance);
  EXPECT_THROW((void)test::run_round_robin(sim), std::runtime_error);
}

TEST(Invariants, HoldAfterEveryStepOfARandomRun) {
  const Instance instance(10, {0, 2, 5, 8}, test::every<WalkerAgent>(15, true));
  ExecutionState sim(instance);
  RandomScheduler scheduler(2718);
  scheduler.reset(sim.agent_count());
  std::size_t tokens_so_far = 0;
  while (sim.step(scheduler)) {
    tokens_so_far = std::max(tokens_so_far, sim.total_tokens());
    const CheckResult invariants = check_model_invariants(sim, tokens_so_far);
    ASSERT_TRUE(invariants.ok) << invariants.reason;
  }
  EXPECT_EQ(sim.total_tokens(), 4u);
}

TEST(Snapshot, ReflectsConfiguration) {
  const Instance instance(
      5, {0, 2}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
        if (id == 0) return std::make_unique<WalkerAgent>(1, true);
        return std::make_unique<SitterAgent>(0);
      });
  ExecutionState sim(instance);
  test::run_round_robin(sim);
  const Snapshot snap = sim.snapshot();
  EXPECT_EQ(snap.node_count, 5u);
  EXPECT_EQ(snap.tokens, (std::vector<std::size_t>{1, 0, 0, 0, 0}));
  ASSERT_EQ(snap.agents.size(), 2u);
  EXPECT_EQ(snap.agents[0].node, 1u);
  EXPECT_EQ(snap.agents[0].status, AgentStatus::Halted);
  EXPECT_EQ(snap.agents[1].node, 2u);
  for (const auto& queue : snap.queues) EXPECT_TRUE(queue.empty());
}

// ---- the enabled set's bitset view against its list --------------------------

/// The reference the bitset view replaces: copy the list, sort, search.
void expect_rank_select_match_sorted_copy(const ExecutionState& sim) {
  const EnabledSet& enabled = sim.enabled();
  std::vector<AgentId> sorted = enabled.list();
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(enabled.agent_count(), sim.agent_count());
  for (AgentId id = 0; id < sim.agent_count(); ++id) {
    const auto at = std::lower_bound(sorted.begin(), sorted.end(), id);
    ASSERT_EQ(enabled.rank(id), static_cast<std::size_t>(at - sorted.begin()))
        << "k=" << sim.agent_count() << " id=" << id;
    ASSERT_EQ(enabled.contains(id), at != sorted.end() && *at == id)
        << "k=" << sim.agent_count() << " id=" << id;
    if (!sorted.empty()) {
      ASSERT_EQ(enabled.next_at_or_after(id),
                at != sorted.end() ? *at : sorted.front())
          << "k=" << sim.agent_count() << " id=" << id;
    }
  }
  for (std::size_t r = 0; r < sorted.size(); ++r) {
    ASSERT_EQ(enabled.select(r), sorted[r])
        << "k=" << sim.agent_count() << " rank=" << r;
  }
  EXPECT_THROW((void)enabled.select(sorted.size()), std::out_of_range);
}

TEST(EnabledRank, RankAndSelectMatchSortedCopyOnRandomEnabledSets) {
  // Agent i is homed at node i of a k-ring and walks 0-2 steps: a walker
  // queues behind its not-yet-started neighbour (leaves the set) and
  // rejoins when that neighbour departs, halting agents leave for good, and
  // enabled() is reordered by every removal. k runs past 64 and 128 so the
  // multi-word bitset paths are covered.
  Rng rng(64);
  for (std::size_t k = 1; k <= 200; ++k) {
    std::vector<NodeId> homes(k);
    for (std::size_t i = 0; i < k; ++i) homes[i] = i;
    std::vector<std::size_t> steps(k);
    for (std::size_t& s : steps) s = static_cast<std::size_t>(rng.below(3));
    const Instance instance(k, homes, [&steps](AgentId id) {
      return std::make_unique<WalkerAgent>(steps[id]);
    });
    ExecutionState sim(instance);
    const std::size_t check_every = std::max<std::size_t>(1, k / 8);
    ASSERT_NO_FATAL_FAILURE(expect_rank_select_match_sorted_copy(sim));
    for (std::size_t action = 1; !sim.quiescent(); ++action) {
      const EnabledSet& enabled = sim.enabled();
      ASSERT_TRUE(sim.step_agent(enabled[rng.below(enabled.size())]));
      if (action % check_every == 0) {
        ASSERT_NO_FATAL_FAILURE(expect_rank_select_match_sorted_copy(sim));
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_rank_select_match_sorted_copy(sim));
  }
}

}  // namespace
}  // namespace udring::sim
