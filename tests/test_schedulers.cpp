// Tests for sim/scheduler.h: each scheduler family must be deterministic
// given its seed, respect the enabled set, and drive workloads to
// completion (fairness on terminating runs). Round-robin and burst read the
// enabled set's bitset; a differential sweep holds them to the list scans
// they replaced.

#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "sim/execution_state.h"
#include "support/test_agents.h"
#include "util/rng.h"

namespace udring::sim {
namespace {

using test::SitterAgent;
using test::WalkerAgent;

TEST(RoundRobin, CyclesThroughAllAgents) {
  RoundRobinScheduler scheduler;
  scheduler.reset(4);
  const EnabledSet all = EnabledSet::of(4, {0, 1, 2, 3});
  std::vector<AgentId> picks;
  for (int i = 0; i < 8; ++i) picks.push_back(scheduler.pick(all));
  EXPECT_EQ(picks, (std::vector<AgentId>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(RoundRobin, SkipsDisabledAgents) {
  RoundRobinScheduler scheduler;
  scheduler.reset(4);
  const EnabledSet some = EnabledSet::of(4, {3, 1});
  EXPECT_EQ(scheduler.pick(some), 1u);
  EXPECT_EQ(scheduler.pick(some), 3u);
  EXPECT_EQ(scheduler.pick(some), 1u);
}

TEST(Random, DeterministicPerSeedAndCoversAgents) {
  RandomScheduler a(7), b(7);
  a.reset(5);
  b.reset(5);
  const EnabledSet all = EnabledSet::of(5, {0, 1, 2, 3, 4});
  std::set<AgentId> seen;
  for (int i = 0; i < 200; ++i) {
    const AgentId pick = a.pick(all);
    EXPECT_EQ(pick, b.pick(all));
    seen.insert(pick);
  }
  EXPECT_EQ(seen.size(), 5u) << "every agent should be picked in 200 draws";
}

TEST(Synchronous, EveryEnabledAgentActsOncePerRound) {
  SynchronousScheduler scheduler;
  scheduler.reset(3);
  const EnabledSet all = EnabledSet::of(3, {0, 1, 2});
  std::map<AgentId, int> counts;
  for (int i = 0; i < 9; ++i) ++counts[scheduler.pick(all)];
  for (const auto& [agent, count] : counts) {
    EXPECT_EQ(count, 3) << "agent " << agent;
  }
  EXPECT_EQ(scheduler.rounds(), 2u) << "two completed rounds after 9 picks";
}

TEST(Priority, AlwaysPicksHighestPriorityEnabled) {
  PriorityScheduler scheduler({2, 0, 1});
  scheduler.reset(3);
  EXPECT_EQ(scheduler.pick(EnabledSet::of(3, {0, 1, 2})), 2u);
  EXPECT_EQ(scheduler.pick(EnabledSet::of(3, {0, 1})), 0u);
  EXPECT_EQ(scheduler.pick(EnabledSet::of(3, {1})), 1u);
}

TEST(Priority, UnlistedAgentsComeLastInIdOrder) {
  PriorityScheduler scheduler({3});
  scheduler.reset(4);
  EXPECT_EQ(scheduler.pick(EnabledSet::of(4, {0, 1, 2, 3})), 3u);
  EXPECT_EQ(scheduler.pick(EnabledSet::of(4, {0, 1, 2})), 0u);
}

TEST(Burst, SticksWithTheCurrentAgentWhileEnabled) {
  BurstScheduler scheduler(3);
  scheduler.reset(3);
  const EnabledSet all = EnabledSet::of(3, {0, 1, 2});
  const AgentId first = scheduler.pick(all);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(scheduler.pick(all), first);
  }
  // Remove `first` from the enabled set: it must switch.
  std::vector<AgentId> rest;
  for (AgentId id = 0; id < 3; ++id) {
    if (id != first) rest.push_back(id);
  }
  const AgentId second = scheduler.pick(EnabledSet::of(3, rest));
  EXPECT_NE(second, first);
}

// ---- differential: bitset picks against the list scans they replaced --------

/// RoundRobinScheduler::pick as a scan of the list: the enabled agent at the
/// least cyclic distance from the cursor, then the cursor moves past it.
AgentId reference_round_robin(const std::vector<AgentId>& enabled,
                              std::size_t agent_count, std::size_t& cursor) {
  AgentId best = enabled.front();
  std::size_t best_key = agent_count;
  for (const AgentId id : enabled) {
    const std::size_t key =
        id >= cursor ? id - cursor : agent_count - cursor + id;
    if (key < best_key) {
      best_key = key;
      best = id;
    }
  }
  cursor = best + 1;
  if (cursor >= agent_count) cursor = 0;
  return best;
}

/// BurstScheduler::pick with the membership test as a std::find over the
/// list.
struct ReferenceBurst {
  explicit ReferenceBurst(std::uint64_t seed) : rng(seed) {}
  AgentId pick(const std::vector<AgentId>& enabled) {
    if (current != kNone &&
        std::find(enabled.begin(), enabled.end(), current) != enabled.end()) {
      return current;
    }
    current = enabled[rng.index(enabled.size())];
    return current;
  }
  static constexpr AgentId kNone = static_cast<AgentId>(-1);
  Rng rng;
  AgentId current = kNone;
};

/// A seeded walk over non-empty enabled lists of ids below k, kept in
/// ExecutionState's order (append on insert, swap-remove on erase). Most
/// steps toggle one or two ids, so burst runs last; every 16th step redraws
/// the set at a random density, down to a single id, so the round-robin
/// cursor often has to cross words or wrap to find the next member.
class EnabledWalk {
 public:
  EnabledWalk(std::size_t k, std::uint64_t seed) : k_(k), rng_(seed) {
    redraw();
  }
  const std::vector<AgentId>& list() const { return list_; }
  void step() {
    if (++steps_ % 16 == 0) {
      redraw();
      return;
    }
    for (std::uint64_t t = rng_.below(2); t < 2; ++t) toggle(rng_.below(k_));
    if (list_.empty()) toggle(rng_.below(k_));
  }

 private:
  void toggle(std::size_t id) {
    const auto at = std::find(list_.begin(), list_.end(), id);
    if (at == list_.end()) {
      list_.push_back(id);
    } else {
      *at = list_.back();
      list_.pop_back();
    }
  }
  void redraw() {
    list_.clear();
    const std::uint64_t per_mille = rng_.below(1001);
    for (AgentId id = 0; id < k_; ++id) {
      if (rng_.below(1000) < per_mille) list_.push_back(id);
    }
    if (list_.empty()) list_.push_back(rng_.below(k_));
    for (std::size_t i = list_.size(); i > 1; --i) {
      std::swap(list_[i - 1], list_[rng_.below(i)]);
    }
  }

  std::size_t k_;
  Rng rng_;
  std::vector<AgentId> list_;
  std::size_t steps_ = 0;
};

TEST(SchedulerDifferential, RoundRobinAndBurstMatchTheListScans) {
  for (const std::size_t k : {1u, 3u, 63u, 64u, 65u, 130u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      RoundRobinScheduler round_robin;
      round_robin.reset(k);
      std::size_t cursor = 0;
      BurstScheduler burst(seed);
      burst.reset(k);
      ReferenceBurst reference_burst(seed);
      EnabledWalk walk(k, seed * 1000 + k);
      for (int step = 0; step < 3000; ++step, walk.step()) {
        const EnabledSet enabled = EnabledSet::of(k, walk.list());
        ASSERT_EQ(round_robin.pick(enabled),
                  reference_round_robin(walk.list(), k, cursor))
            << "k=" << k << " seed=" << seed << " step=" << step;
        ASSERT_EQ(burst.pick(enabled), reference_burst.pick(walk.list()))
            << "k=" << k << " seed=" << seed << " step=" << step;
      }
    }
  }
}

TEST(SchedulerDifferential, RoundRobinWrapsAcrossWordBoundaries) {
  // k = 130 spans three words. From cursor 0, visit 129 (the last id), then
  // wrap to 0; with only 63 and 64 enabled, alternate across the boundary.
  RoundRobinScheduler scheduler;
  scheduler.reset(130);
  EXPECT_EQ(scheduler.pick(EnabledSet::of(130, {129})), 129u);
  EXPECT_EQ(scheduler.pick(EnabledSet::of(130, {129, 0})), 0u);
  const EnabledSet boundary = EnabledSet::of(130, {64, 63});
  EXPECT_EQ(scheduler.pick(boundary), 63u);
  EXPECT_EQ(scheduler.pick(boundary), 64u);
  EXPECT_EQ(scheduler.pick(boundary), 63u);
  // Cursor now 64: the next member at or after it in word 2, else wrap.
  EXPECT_EQ(scheduler.pick(EnabledSet::of(130, {128, 5})), 128u);
  EXPECT_EQ(scheduler.pick(EnabledSet::of(130, {128, 5})), 5u);
}

TEST(EnabledSet, OfRejectsOutOfRangeAndRepeatedIds) {
  EXPECT_THROW((void)EnabledSet::of(3, {3}), std::invalid_argument);
  EXPECT_THROW((void)EnabledSet::of(3, {1, 1}), std::invalid_argument);
  const EnabledSet set = EnabledSet::of(3, {2, 0});
  EXPECT_EQ(set.list(), (std::vector<AgentId>{2, 0}));
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(3));
  EXPECT_TRUE(set.contains(2));
}

TEST(Factory, ProducesEveryKind) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto scheduler = make_scheduler(kind, 1, 4);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_EQ(scheduler->name(), to_string(kind));
  }
}

TEST(AllSchedulers, DriveAMultiAgentWorkloadToQuiescence) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const Instance instance(12, {0, 3, 7, 9}, test::every<WalkerAgent>(25));
    ExecutionState sim(instance);
    const auto scheduler = make_scheduler(kind, 11, sim.agent_count());
    const RunResult result = sim.run(*scheduler);
    EXPECT_TRUE(result.quiescent()) << to_string(kind);
    EXPECT_TRUE(sim.all_halted()) << to_string(kind);
    EXPECT_EQ(sim.metrics().total_moves(), 100u) << to_string(kind);
  }
}

TEST(AllSchedulers, NeverPickADisabledAgent) {
  // Run a mixed workload and assert (via step()) that execution only ever
  // touches enabled agents — the simulator throws on a non-head pick.
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const Instance instance(
        10, {0, 2, 4, 8}, [](AgentId id) -> std::unique_ptr<AgentProgram> {
          if (id % 2 == 0) return std::make_unique<WalkerAgent>(17);
          return std::make_unique<SitterAgent>(5);
        });
    ExecutionState sim(instance);
    const auto scheduler = make_scheduler(kind, 23, sim.agent_count());
    scheduler->reset(sim.agent_count());
    EXPECT_NO_THROW({
      while (sim.step(*scheduler)) {
      }
    }) << to_string(kind);
  }
}

}  // namespace
}  // namespace udring::sim
