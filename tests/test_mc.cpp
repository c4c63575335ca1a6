// The exhaustive stateless model checker (src/mc): the subsystem that turns
// "for every asynchronous schedule" from a sampled claim into a machine-
// checked one on small instances.
//
// Pins, per the PR's acceptance criteria:
//  1. Exhaustive verification of KnownKFull and KnownKLogMem at small (n, k)
//     on ring, Euler-tree and Eulerian-graph topologies, with the closure
//     walk's schedule/state counts byte-identical at any worker count (its
//     shard decomposition is a function of the instance, never of the
//     parallelism), plus a literal full-enumeration count on the
//     smallest instance — a number derived from nothing but the simulator's
//     branching structure, so any semantic drift moves it.
//  2. Deterministic (randomness-free) rediscovery of the non-FIFO
//     double-booked-base-node violation, with the emitted counterexample
//     replaying through the existing explore::replay_trace path to the same
//     failure and digest.
//  3. Pruned == unpruned verdict equality on grids where full enumeration
//     is feasible, for every pruning combination (dedup × sleep sets ×
//     DPOR) and for the closure walk, whose verdicts and counts are
//     byte-identical at any worker count.
//  4. Walk pins: ModelCheckReport::digest() — which folds every McStats
//     count, replays and total actions included — pinned for one small
//     instance of each benchmarked family and for fault-plan walks, so any
//     change to the walk's order, prunings or replay count fails here.
//
// Plus the foundation the dedup pruning rests on: ExecutionState::
// config_digest() must hash the configuration and not the history
// (commuting independent actions converge; the event log does not), and
// must separate configurations that differ in any single component.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "config/generators.h"
#include "core/runner.h"
#include "core/unknown_relaxed.h"
#include "embed/topology.h"
#include "explore/fuzz.h"
#include "mc/model_check.h"
#include "support/test_agents.h"
#include "util/rng.h"

namespace udring::core {

struct UnknownRelaxedTestPeer {
  static std::size_t& first_n_est(UnknownRelaxedAgent& agent) {
    return agent.first_n_est_;
  }
  static std::size_t& corrections(UnknownRelaxedAgent& agent) {
    return agent.corrections_;
  }
};

}  // namespace udring::core

namespace udring::mc {
namespace {

[[nodiscard]] CheckRequest ring_request(core::Algorithm algorithm,
                                        std::size_t n,
                                        std::vector<std::size_t> homes) {
  CheckRequest request;
  request.algorithm = algorithm;
  request.node_count = n;
  request.homes = std::move(homes);
  return request;
}

void expect_same_report(const ModelCheckReport& a, const ModelCheckReport& b,
                        const char* what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.verdict, b.verdict) << what;
  EXPECT_EQ(a.stats.schedules, b.stats.schedules) << what;
  EXPECT_EQ(a.stats.states_expanded, b.stats.states_expanded) << what;
  EXPECT_EQ(a.stats.states_deduped, b.stats.states_deduped) << what;
  EXPECT_EQ(a.stats.sleep_pruned, b.stats.sleep_pruned) << what;
  EXPECT_EQ(a.stats.dpor_pruned, b.stats.dpor_pruned) << what;
  EXPECT_EQ(a.stats.replays, b.stats.replays) << what;
  EXPECT_EQ(a.stats.total_actions, b.stats.total_actions) << what;
  EXPECT_EQ(a.stats.max_depth, b.stats.max_depth) << what;
  EXPECT_EQ(a.stats.shards, b.stats.shards) << what;
  EXPECT_EQ(a.digest(), b.digest()) << what;
}

// ---- config_digest: state, not history --------------------------------------

TEST(ConfigDigest, CommutingIndependentActionsConverge) {
  // Two agents with disjoint footprints (homes 0 and 4 on an 8-ring): their
  // first actions commute. Both interleavings must reach the SAME
  // configuration digest while the event-log digests (history) differ.
  core::RunSpec spec;
  spec.node_count = 8;
  spec.homes = {0, 4};
  spec.sim_options.record_events = true;
  const sim::Instance ab_instance =
      core::make_instance(core::Algorithm::KnownKFull, spec);
  sim::ExecutionState ab(ab_instance);
  const sim::Instance ba_instance =
      core::make_instance(core::Algorithm::KnownKFull, spec);
  sim::ExecutionState ba(ba_instance);
  ASSERT_TRUE(ab.step_agent(0));
  ASSERT_TRUE(ab.step_agent(1));
  ASSERT_TRUE(ba.step_agent(1));
  ASSERT_TRUE(ba.step_agent(0));
  EXPECT_EQ(ab.config_digest(), ba.config_digest());
  EXPECT_NE(ab.log().digest(), ba.log().digest())
      << "event logs record history and must distinguish the orders";
}

TEST(ConfigDigest, RelabellingAgentsChangesTheDigest) {
  // The same ring configuration spelled with permuted agent ids: homes
  // {0, 4} vs {4, 0}. Agent ids are part of the key (the checker keeps no
  // symmetry quotient), so the spellings are distinct states — before and
  // after the permuted first action.
  core::RunSpec ab, ba;
  ab.node_count = 8;
  ab.homes = {0, 4};
  ba.node_count = 8;
  ba.homes = {4, 0};
  const sim::Instance sim_ab_instance =
      core::make_instance(core::Algorithm::KnownKFull, ab);
  sim::ExecutionState sim_ab(sim_ab_instance);
  const sim::Instance sim_ba_instance =
      core::make_instance(core::Algorithm::KnownKFull, ba);
  sim::ExecutionState sim_ba(sim_ba_instance);
  EXPECT_NE(sim_ab.config_digest(), sim_ba.config_digest());
  ASSERT_TRUE(sim_ab.step_agent(0));
  ASSERT_TRUE(sim_ba.step_agent(1));
  EXPECT_NE(sim_ab.config_digest(), sim_ba.config_digest());
}

/// Runs `instance` through `schedule` (agent ids, in order) on a fresh
/// state and returns the reached configuration's digest.
[[nodiscard]] std::uint64_t digest_after(
    const sim::Instance& instance, const std::vector<sim::AgentId>& schedule) {
  sim::ExecutionState state;
  state.reset(instance);
  for (const sim::AgentId id : schedule) {
    EXPECT_TRUE(state.step_agent(id)) << "agent " << id << " not enabled";
  }
  return state.config_digest();
}

TEST(ConfigDigest, ChangesWithOneTokenCount) {
  // One walker step each; the runs differ only in whether the walker left a
  // token at its home (the walker's program state is identical).
  const auto walker = [](bool drop) {
    return sim::Instance(6, {0}, [drop](sim::AgentId) {
      return std::make_unique<test::WalkerAgent>(2, drop);
    });
  };
  EXPECT_NE(digest_after(walker(true), {0}), digest_after(walker(false), {0}));
  EXPECT_EQ(digest_after(walker(true), {0}), digest_after(walker(true), {0}));
}

/// Moves `hops` nodes, stays once, then moves once more.
class HopStayMove final : public sim::AgentProgram {
 public:
  explicit HopStayMove(std::size_t hops) : hops_(hops) {}
  sim::Behavior run(sim::AgentContext& ctx) override {
    for (std::size_t i = 0; i < hops_; ++i) co_await ctx.move();
    co_await ctx.stay();
    co_await ctx.move();
  }
  [[nodiscard]] std::string_view name() const override {
    return "hop-stay-move";
  }

 private:
  std::size_t hops_;
};

TEST(ConfigDigest, ChangesWithTheOrderOfOneLinkQueue) {
  // Agent 0 (home 0) hops to node 1 and stays beside agent 1 (home 1); the
  // two then leave for node 2 in either order. Every per-agent field is
  // equal across the orders; only q_2 reads [1, 0] or [0, 1].
  const sim::Instance instance(6, {0, 1}, [](sim::AgentId id) {
    return std::make_unique<HopStayMove>(id == 0 ? 1 : 0);
  });
  const std::vector<sim::AgentId> meet = {0, 1, 0};
  std::vector<sim::AgentId> one_first = meet;
  one_first.insert(one_first.end(), {1, 0});
  std::vector<sim::AgentId> zero_first = meet;
  zero_first.insert(zero_first.end(), {0, 1});
  EXPECT_NE(digest_after(instance, one_first),
            digest_after(instance, zero_first));
}

TEST(ConfigDigest, ChangesWithOnePendingMessage) {
  // A collector waits at node 1; a messenger arrives there and broadcasts.
  // The runs differ only in the undelivered message's text.
  const auto pair = [](std::string text) {
    return sim::Instance(
        6, {0, 1},
        [text](sim::AgentId id) -> std::unique_ptr<sim::AgentProgram> {
          if (id == 0) return std::make_unique<test::MessengerAgent>(1, text);
          return std::make_unique<test::CollectorAgent>(1);
        });
  };
  const std::vector<sim::AgentId> deliver = {1, 0, 0};
  EXPECT_NE(digest_after(pair("a"), deliver), digest_after(pair("b"), deliver));
}

TEST(ConfigDigest, ChangesWithTheLiveFaultState) {
  const auto with_plan = [](sim::FaultPlan plan) {
    core::RunSpec spec;
    spec.node_count = 6;
    spec.homes = {0, 3};
    spec.sim_options.faults = std::move(plan);
    return core::make_instance(core::Algorithm::KnownKFull, spec);
  };
  // Pending rewiring: after one action the first plan's rewiring is pending
  // and the second's is not yet due; the configurations are equal.
  sim::FaultPlan due_now;
  due_now.rewire_at = {1};
  sim::FaultPlan due_later;
  due_later.rewire_at = {2};
  EXPECT_NE(digest_after(with_plan(due_now), {0}),
            digest_after(with_plan(due_later), {0}));
  // Crash cursor: agent 1 crashes after the first action in one plan and
  // after the second in the other. The cursor cannot differ alone — every
  // fired crash also marks its agent Crashed — so this pins that a fired
  // crash is never merged with a pending one.
  sim::FaultPlan crash_now;
  crash_now.crashes = {{1, 1}};
  sim::FaultPlan crash_later;
  crash_later.crashes = {{1, 2}};
  EXPECT_NE(digest_after(with_plan(crash_now), {0}),
            digest_after(with_plan(crash_later), {0}));
}

TEST(ConfigDigest, ChangesWithUnknownRelaxedInstrumentation) {
  // corrections_ decides whether a patroller broadcasts, so two states that
  // differ only in it (or in first_n_est_) must never dedup together.
  using Peer = core::UnknownRelaxedTestPeer;
  core::RunSpec spec;
  spec.node_count = 8;
  spec.homes = {0, 3};
  const auto digest_with = [&](void (*mutate)(core::UnknownRelaxedAgent&)) {
    const sim::Instance instance =
        core::make_instance(core::Algorithm::UnknownRelaxed, spec);
    sim::ExecutionState sim(instance);
    // The state owns its programs; this is a write to a non-const object.
    mutate(const_cast<core::UnknownRelaxedAgent&>(
        dynamic_cast<const core::UnknownRelaxedAgent&>(sim.program(0))));
    return sim.config_digest();
  };
  const std::uint64_t base = digest_with([](core::UnknownRelaxedAgent&) {});
  EXPECT_EQ(digest_with([](core::UnknownRelaxedAgent&) {}), base);
  EXPECT_NE(digest_with([](core::UnknownRelaxedAgent& agent) {
              ++Peer::corrections(agent);
            }),
            base);
  EXPECT_NE(digest_with([](core::UnknownRelaxedAgent& agent) {
              ++Peer::first_n_est(agent);
            }),
            base);
}

TEST(ConfigDigest, DistinguishesSuccessiveConfigurations) {
  core::RunSpec spec;
  spec.node_count = 8;
  spec.homes = {0, 4};
  const sim::Instance instance =
      core::make_instance(core::Algorithm::KnownKFull, spec);
  sim::ExecutionState sim(instance);
  const std::uint64_t initial = sim.config_digest();
  ASSERT_TRUE(sim.step_agent(0));
  const std::uint64_t after = sim.config_digest();
  EXPECT_NE(initial, after);
  // A fresh state on the same instance digests identically to the first.
  const sim::Instance again_instance =
      core::make_instance(core::Algorithm::KnownKFull, spec);
  sim::ExecutionState again(again_instance);
  EXPECT_EQ(again.config_digest(), initial);
}

// ---- 1. exhaustive verification, counts stable across workers ---------------

TEST(Exhaustive, KnownKFullSmallestInstanceFullEnumerationCount) {
  // n = 6, k = 2, every pruning off: the walk IS the full schedule tree.
  // 2704 complete schedules (6989 tree nodes) is a structural constant of
  // the simulator's atomic-action semantics for homes {0, 3} — a number
  // independent of any hash function, so any drift in the action semantics,
  // the enabled-set rule, or the choice encoding moves it.
  McOptions options;
  options.dedup_states = false;
  options.sleep_sets = false;
  options.dpor = false;
  const ModelCheckReport report =
      check(ring_request(core::Algorithm::KnownKFull, 6, {0, 3}), options);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.verdict, "verified");
  EXPECT_EQ(report.stats.schedules, 2704u);
  EXPECT_EQ(report.stats.states_expanded, 6989u);
  EXPECT_EQ(report.stats.states_deduped, 0u);
  EXPECT_EQ(report.stats.sleep_pruned, 0u);
  EXPECT_EQ(report.stats.dpor_pruned, 0u);
}

class ExhaustiveAlgorithms
    : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(ExhaustiveAlgorithms, VerifiedOnSmallRingAtAnyWorkerCount) {
  // n = 10, not 8: at n = 8, k = 3 the closure walk's BFS phase closes the
  // whole walk before any shard runs, and here the shards must race.
  Rng rng(7);
  CheckRequest request = ring_request(
      GetParam(), 10,
      exp::draw_homes(exp::ConfigFamily::RandomAny, 10, 3, 1, rng));
  McOptions options;
  options.shared_visited = true;  // the closure walk: shards fixed by instance
  options.workers = 1;
  const ModelCheckReport one = check(request, options);
  EXPECT_TRUE(one.ok) << one.failure_reason;
  EXPECT_TRUE(one.complete);
  EXPECT_GT(one.stats.schedules, 0u);
  EXPECT_GT(one.stats.states_expanded, 0u);
  EXPECT_GT(one.stats.shards, 1u);
  for (const std::size_t workers : {2u, 4u}) {
    McOptions racing = options;
    racing.workers = workers;
    expect_same_report(one, check(request, racing),
                       "worker count changed the report");
  }
  EXPECT_EQ(one.verdict, check(request).verdict);
}

TEST_P(ExhaustiveAlgorithms, VerifiedNativelyOnEulerTreeAndEulerianGraph) {
  // The §5 embeddings, checked exhaustively on their native virtual rings.
  Rng rng(19);
  for (const embed::RandomNetworkKind kind :
       {embed::RandomNetworkKind::Tree, embed::RandomNetworkKind::Graph}) {
    CheckRequest request;
    request.algorithm = GetParam();
    request.topology = embed::random_network_topology(kind, 5, rng);
    request.node_count = request.topology.size();
    request.homes = embed::draw_virtual_homes(request.topology, 2, rng);
    const ModelCheckReport report = check(request);
    EXPECT_TRUE(report.ok) << report.failure_reason;
    EXPECT_TRUE(report.complete);
    EXPECT_GT(report.stats.states_expanded, 0u);
  }
}

TEST_P(ExhaustiveAlgorithms, VerifiedAtIssueScaleWithPruning) {
  // The tentpole's stated grid corner: n = 12 (full) / 10 (logmem), k = 4 —
  // feasible only because dedup + sleep sets cut the tree to its state DAG.
  const bool logmem = GetParam() == core::Algorithm::KnownKLogMem;
  const std::size_t n = logmem ? 10 : 12;
  const ModelCheckReport report =
      check(ring_request(GetParam(), n, gen::uniform_homes(n, 4)));
  EXPECT_TRUE(report.ok) << report.failure_reason;
  EXPECT_TRUE(report.complete);
  EXPECT_GT(report.stats.states_deduped, 0u);
  EXPECT_GT(report.stats.sleep_pruned, 0u);
  EXPECT_GT(report.stats.dpor_pruned, 0u);

  // DPOR must actually shrink the walk relative to sleep sets + dedup alone
  // (the tentpole's point), not merely keep the verdict.
  McOptions no_dpor;
  no_dpor.dpor = false;
  const ModelCheckReport baseline =
      check(ring_request(GetParam(), n, gen::uniform_homes(n, 4)), no_dpor);
  EXPECT_TRUE(baseline.ok);
  EXPECT_LT(report.stats.states_expanded, baseline.stats.states_expanded);
}

INSTANTIATE_TEST_SUITE_P(SmallGrids, ExhaustiveAlgorithms,
                         ::testing::Values(core::Algorithm::KnownKFull,
                                           core::Algorithm::KnownKLogMem),
                         [](const auto& info) {
                           std::string name(core::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---- 2. deterministic rediscovery of the non-FIFO violation -----------------

[[nodiscard]] CheckRequest stress_fault_request(core::Algorithm algorithm) {
  CheckRequest request = ring_request(algorithm, gen::kLogmemStressNodes,
                                      gen::logmem_stress_homes());
  request.faults.non_fifo = true;
  request.faults.non_fifo_min_phase = 1;  // deployment-phase window
  return request;
}

TEST(FaultRediscovery, FindsDoubleBookedBaseNodeWithoutRandomness) {
  // PR 2's fuzzer needed randomized adversarial search to surface this; the
  // checker's plain DFS order finds it with zero random bits.
  const ModelCheckReport report =
      check(stress_fault_request(core::Algorithm::KnownKLogMemStrict));
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.verdict, "violation");
  EXPECT_EQ(report.failure_reason, "goal: two agents share node 0");
  ASSERT_TRUE(report.counterexample.has_value());

  // The counterexample is a first-class trace: the existing replay path
  // reproduces the exact failure and digest (udring_fuzz --replay accepts it).
  const explore::ScheduleTrace& trace = *report.counterexample;
  EXPECT_EQ(trace.note, report.failure_reason);
  const explore::ReplayOutcome replayed = explore::replay_trace(trace);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.reason, report.failure_reason);
  EXPECT_EQ(replayed.digest, trace.expected_digest);

  // Determinism: a second check is byte-identical, counterexample included.
  const ModelCheckReport again =
      check(stress_fault_request(core::Algorithm::KnownKLogMemStrict));
  expect_same_report(report, again, "rediscovery must be deterministic");
  ASSERT_TRUE(again.counterexample.has_value());
  EXPECT_EQ(again.counterexample->choices, trace.choices);
}

TEST(FaultRediscovery, HardenedVariantSurvivesTheSameSearchBudget) {
  // Same instance, same fault, hardened deployment: the checker must NOT
  // find a violation within a budget far larger than the strict variant
  // needed (the strict counterexample is ~150 actions deep).
  CheckRequest request = stress_fault_request(core::Algorithm::KnownKLogMem);
  McOptions options;
  options.budget_actions = 200000;
  const ModelCheckReport report = check(request, options);
  EXPECT_TRUE(report.ok) << report.failure_reason;
}

/// Every pruning combination (dedup × sleep sets × DPOR) of the tree walk,
/// then the closure walk on 4 workers as the last entry.
[[nodiscard]] std::vector<McOptions> every_walk() {
  std::vector<McOptions> walks;
  for (const bool dedup : {false, true}) {
    for (const bool sleep : {false, true}) {
      for (const bool dpor : {false, true}) {
        McOptions options;
        options.dedup_states = dedup;
        options.sleep_sets = sleep;
        options.dpor = dpor;
        walks.push_back(options);
      }
    }
  }
  McOptions closure;
  closure.shared_visited = true;
  closure.workers = 4;
  walks.push_back(closure);
  return walks;
}

[[nodiscard]] std::string describe(const McOptions& options) {
  return "dedup=" + std::to_string(options.dedup_states) +
         " sleep=" + std::to_string(options.sleep_sets) +
         " dpor=" + std::to_string(options.dpor) +
         " closure=" + std::to_string(options.shared_visited);
}

TEST(FaultRediscovery, VerdictIdenticalUnderEveryPruningCombination) {
  for (const McOptions& options : every_walk()) {
    const ModelCheckReport report =
        check(stress_fault_request(core::Algorithm::KnownKLogMemStrict),
              options);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.failure_reason, "goal: two agents share node 0")
        << describe(options);
  }
}

// ---- 3. pruned == unpruned verdicts on fully enumerable grids ---------------

TEST(PruningSoundness, VerdictEqualOnFullyEnumerableGrid) {
  struct Cell {
    core::Algorithm algorithm;
    std::size_t n;
  };
  const std::vector<Cell> grid = {
      {core::Algorithm::KnownKFull, 5},
      {core::Algorithm::KnownKFull, 6},
      {core::Algorithm::KnownKFull, 7},
      {core::Algorithm::KnownKLogMem, 5},
      {core::Algorithm::KnownKLogMem, 6},
  };
  Rng rng(31);
  for (const Cell& cell : grid) {
    const CheckRequest request = ring_request(
        cell.algorithm, cell.n,
        exp::draw_homes(exp::ConfigFamily::RandomAny, cell.n, 2, 1, rng));
    ModelCheckReport reference;  // fully unpruned = ground truth
    bool have_reference = false;
    for (const McOptions& options : every_walk()) {
      const ModelCheckReport report = check(request, options);
      EXPECT_TRUE(report.complete)
          << core::to_string(cell.algorithm) << " n=" << cell.n;
      if (!have_reference) {
        reference = report;
        have_reference = true;
        EXPECT_GT(report.stats.schedules, 0u);
      }
      EXPECT_EQ(report.ok, reference.ok)
          << core::to_string(cell.algorithm) << " n=" << cell.n << " "
          << describe(options);
      EXPECT_EQ(report.verdict, reference.verdict);
      // Pruning may only shrink the walk, never grow it.
      EXPECT_LE(report.stats.schedules, reference.stats.schedules);
      EXPECT_LE(report.stats.states_expanded,
                reference.stats.states_expanded);
    }
  }
}

// ---- 4. walk pins -----------------------------------------------------------

TEST(WalkPins, DefaultWalkOfEachBenchmarkedFamily) {
  // One n = 8 instance per mc-verify family, uniform homes, default options.
  // The digest folds the verdict and every McStats count, so a change to
  // the walk order, a pruning, or the number of replayed actions moves it.
  struct Pin {
    core::Algorithm algorithm;
    std::size_t k;
    std::uint64_t digest;
  };
  const std::vector<Pin> pins = {
      {core::Algorithm::KnownKFull, 3, 0xc58661e28e701cd6ULL},
      {core::Algorithm::KnownKLogMem, 3, 0xd17ace579966baf9ULL},
      {core::Algorithm::UnknownRelaxed, 2, 0xdfe5c2e80da3c0f4ULL},
      {core::Algorithm::GatherRing, 3, 0xf649b3ed13e02561ULL},
      {core::Algorithm::DisperseRing, 3, 0xdf690a007fe81f94ULL},
  };
  for (const Pin& pin : pins) {
    const ModelCheckReport report =
        check(ring_request(pin.algorithm, 8, gen::uniform_homes(8, pin.k)));
    EXPECT_EQ(report.verdict, "verified") << core::to_string(pin.algorithm);
    EXPECT_GT(report.stats.replays, 0u) << core::to_string(pin.algorithm);
    EXPECT_EQ(report.digest(), pin.digest) << core::to_string(pin.algorithm);
  }
}

TEST(WalkPins, FaultPlanWalks) {
  // Crash and rewiring budgets enumerated over a 5-ring: clean plan,
  // rewiring-only plans (rewire choice levels in the walk), then crash
  // plans until the first violation.
  CheckRequest request = ring_request(core::Algorithm::KnownKFull, 5, {0, 2});
  FaultBudget budget;
  budget.crashes = 1;
  budget.rewires = 1;
  budget.max_fault_action = 3;
  const ModelCheckReport enumerated = check_with_faults(request, budget);
  EXPECT_EQ(enumerated.verdict, "violation");
  EXPECT_EQ(enumerated.digest(), 0x6c5424d6140ec7dbULL);

  // One explicit plan with a crash and a rewiring point.
  request = ring_request(core::Algorithm::KnownKFull, 6, {0, 3});
  request.faults.crashes = {{1, 20}};
  request.faults.rewire_at = {2};
  const ModelCheckReport planned = check_with_faults(request, {});
  EXPECT_EQ(planned.verdict, "violation");
  EXPECT_GT(planned.stats.replays, 0u);
  EXPECT_EQ(planned.digest(), 0x55083fd9e07c0814ULL);
}

// ---- shared visited set -----------------------------------------------------

TEST(SharedVisited, VerdictAndCountsIdenticalAtAnyWorkerCount) {
  // The closure-walk contract (model_check.h): with the lock-free shared
  // visited set, every count is a function of the claimed closure, so the
  // full report — not just the verdict — is byte-identical whether shards
  // race on 1, 2 or 4 threads.
  const CheckRequest request =
      ring_request(core::Algorithm::KnownKFull, 10, {0, 3, 6});
  McOptions options;
  options.shared_visited = true;
  options.workers = 1;
  const ModelCheckReport serial = check(request, options);
  EXPECT_TRUE(serial.ok) << serial.failure_reason;
  EXPECT_TRUE(serial.complete);
  EXPECT_GT(serial.stats.states_deduped, 0u);
  EXPECT_GT(serial.stats.shards, 1u);
  for (const std::size_t workers : {2u, 4u}) {
    McOptions racing = options;
    racing.workers = workers;
    expect_same_report(serial, check(request, racing),
                       "worker count changed the shared-visited report");
  }
  // And the verdict agrees with the deterministic tree walk (counts differ:
  // the closure visits each state once, the tree walk re-proves per sleep
  // mask).
  const ModelCheckReport tree = check(request);
  EXPECT_EQ(serial.ok, tree.ok);
  EXPECT_EQ(serial.verdict, tree.verdict);
}

TEST(SharedVisited, ViolationFallsBackToTheDeterministicWalk) {
  // Which racing shard trips a violation first is nondeterministic, so
  // check() re-runs with the serial tree walk: the report — counterexample
  // included — must be byte-identical to a plain serial check's.
  McOptions options;
  options.shared_visited = true;
  options.workers = 4;
  const ModelCheckReport shared =
      check(stress_fault_request(core::Algorithm::KnownKLogMemStrict), options);
  const ModelCheckReport plain =
      check(stress_fault_request(core::Algorithm::KnownKLogMemStrict));
  ASSERT_FALSE(shared.ok);
  expect_same_report(plain, shared, "violation fallback must be exact");
  ASSERT_TRUE(shared.counterexample.has_value());
  EXPECT_EQ(shared.counterexample->choices, plain.counterexample->choices);
}

TEST(SharedVisited, UndersizedTableDegradesToBudgetExhaustion) {
  // A full table may not silently drop states: the run must downgrade to
  // "budget-exhausted" (incomplete, not wrong).
  McOptions options;
  options.shared_visited = true;
  options.shared_visited_capacity = 64;  // far below this instance's closure
  const ModelCheckReport report =
      check(ring_request(core::Algorithm::KnownKFull, 8, {0, 3, 6}), options);
  EXPECT_TRUE(report.ok);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.verdict, "budget-exhausted");
}

TEST(FaultRediscovery, CapSensitiveCounterexampleReplaysStandAlone) {
  // A violation found under a custom per-schedule action cap must stay
  // replayable through the default replay path: the trace carries its
  // max-actions, so `udring_fuzz --replay` needs no extra flags.
  CheckRequest request =
      ring_request(core::Algorithm::KnownKFull, 8, {0, 2, 5});
  request.max_actions = 20;  // far below this instance's ~50-action runs
  const ModelCheckReport report = check(request);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure_reason,
            "action limit reached (livelock or broken algorithm)");
  ASSERT_TRUE(report.counterexample.has_value());
  EXPECT_EQ(report.counterexample->max_actions, 20u);

  // Round-trip through the text format, then replay with NO explicit cap.
  const explore::ScheduleTrace reparsed =
      explore::ScheduleTrace::parse(report.counterexample->to_text());
  EXPECT_EQ(reparsed.max_actions, 20u);
  const explore::ReplayOutcome replayed = explore::replay_trace(reparsed);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.reason, report.failure_reason);
  EXPECT_EQ(replayed.digest, report.counterexample->expected_digest);
}

// ---- budget + report plumbing -----------------------------------------------

TEST(Budget, ExhaustionIsReportedNotMistakenForAVerdict) {
  McOptions options;
  options.budget_actions = 50;  // far below the tree size
  const ModelCheckReport report =
      check(ring_request(core::Algorithm::KnownKFull, 8, {0, 2, 5}), options);
  EXPECT_TRUE(report.ok);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.verdict, "budget-exhausted");
  EXPECT_FALSE(report.counterexample.has_value());
}

TEST(Report, RejectsEmptyInstance) {
  EXPECT_THROW((void)check(ring_request(core::Algorithm::KnownKFull, 6, {})),
               std::invalid_argument);
}

// ---- campaign integration ---------------------------------------------------

TEST(GridIntegration, ChecksTheSameInstancesTheCampaignSamples) {
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKFull};
  grid.node_counts = {6, 8};
  grid.agent_counts = {2};
  grid.seeds = 2;
  const GridReport report = check_grid(grid);
  ASSERT_EQ(report.cells.size(), 4u);
  EXPECT_TRUE(report.all_verified());
  EXPECT_EQ(report.violations, 0u);

  // Each cell checked exactly the configuration the campaign's substream
  // contract derives — "verified over all schedules" sits beside sampled
  // cells as evidence about the SAME instances.
  const std::vector<exp::Scenario> scenarios = exp::expand(grid);
  ASSERT_EQ(scenarios.size(), report.cells.size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(report.cells[i].homes,
              exp::scenario_homes(grid, scenarios[i]));
    EXPECT_TRUE(report.cells[i].report.complete);
  }

  EXPECT_EQ(report.summary_table().rows(), report.cells.size());
  EXPECT_NE(report.summary().find("verified over all schedules"),
            std::string::npos);
  // Grid checking is deterministic end to end.
  EXPECT_EQ(report.digest(), check_grid(grid).digest());
}

TEST(GridIntegration, CellVerdictMatchesDirectCheck) {
  // A grid cell is exactly mc::check on the scenario's drawn instance with
  // the grid's sim options — fault knobs and action caps included. Pin the
  // equivalence on a faulted strict-logmem grid (whatever each drawn
  // instance yields, the cell must match the direct call byte for byte).
  exp::CampaignGrid grid;
  grid.algorithms = {core::Algorithm::KnownKLogMemStrict};
  grid.instances = {{gen::kLogmemStressNodes, 6}};
  grid.seeds = 2;
  grid.sim_options.faults.non_fifo = true;
  grid.sim_options.faults.non_fifo_min_phase = 1;
  McOptions options;
  options.budget_actions = 100000;
  const GridReport report = check_grid(grid, options);
  ASSERT_EQ(report.cells.size(), 2u);
  for (const GridCell& cell : report.cells) {
    CheckRequest request;
    request.algorithm = cell.algorithm;
    request.node_count = cell.node_count;
    request.homes = cell.homes;
    request.faults = grid.sim_options.faults;
    const ModelCheckReport direct = check(request, options);
    EXPECT_EQ(direct.verdict, cell.report.verdict);
    EXPECT_EQ(direct.failure_reason, cell.report.failure_reason);
    EXPECT_EQ(direct.digest(), cell.report.digest());
  }
  EXPECT_EQ(report.violations == 0 && report.budget_exhausted == 0,
            report.all_verified());
}

}  // namespace
}  // namespace udring::mc
