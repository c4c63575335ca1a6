// udring/sim/scheduler.h
//
// Fair schedulers. The paper quantifies over *all* fair schedules (§2.1); an
// execution is produced by repeatedly letting a scheduler choose among the
// currently enabled agents (queue heads, schedulable stayers, and parked
// agents with pending messages). The families here sample that quantifier
// from several directions:
//
//  - RoundRobinScheduler:  the canonical fair schedule.
//  - RandomScheduler:      seeded uniform choice (fair with probability 1).
//  - SynchronousScheduler: lockstep rounds — every enabled agent acts once
//                          per round. Realizes the ideal-time measure and
//                          the synchronous executions used in Theorem 5.
//  - PriorityScheduler:    always runs the highest-priority enabled agent;
//                          maximally starves the lowest. This is the
//                          adversary that exposes asynchrony bugs (it found
//                          the Algorithm-3 base-node race; see DESIGN.md).
//  - BurstScheduler:       runs one agent as long as it stays enabled before
//                          switching — extreme asynchrony bursts.
//
// All schedulers are fair on terminating workloads: an enabled agent is
// never ignored forever because the others eventually park or halt.
//
// Pooled reuse contract: a scheduler object may drive many runs back to
// back. reset(agent_count) must restore *every* piece of mutable state —
// including RNGs, which re-seed from the stored seed — so a reused
// scheduler is byte-identical to a freshly constructed one (pinned by
// tests/test_pooling.cpp). reseed() swaps the stored seed between runs,
// which is how core::RunContext caches one scheduler per kind across a
// whole campaign.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/enabled_set.h"
#include "sim/types.h"
#include "util/rng.h"

namespace udring::sim {

class ExecutionState;
enum class SchedulerKind;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Lets a scheduler observe the execution it is about to drive. Called by
  /// ExecutionState::run (and the explore harnesses) before reset(). The
  /// default schedulers ignore it; the adversarial schedulers in src/explore
  /// use the observable state (statuses, queue lengths, metrics) to steer
  /// their choices. The reference is valid for the duration of the run.
  virtual void attach(const ExecutionState& sim) { (void)sim; }

  /// Called by ExecutionState::run before the first action. Restores the
  /// scheduler to its just-constructed behaviour (see the pooled reuse
  /// contract above).
  virtual void reset(std::size_t agent_count) { (void)agent_count; }

  /// Replaces the stored seed ahead of the next reset(); no-op for
  /// deterministic kinds. Lets pooled drivers reuse one scheduler object
  /// across runs with per-run seeds.
  virtual void reseed(std::uint64_t seed) { (void)seed; }

  /// Chooses the next agent to act from `enabled` (never empty).
  [[nodiscard]] virtual AgentId pick(const EnabledSet& enabled) = 0;

  /// Chooses an index in [0, bound) at a *non-agent* choice point — today,
  /// which replacement cycle a pending dynamic-ring rewiring installs
  /// (sim/fault.h). Part of the same choice stream as pick(): the recording
  /// and replaying schedulers in src/explore intercept it, so rewiring
  /// choices land in ScheduleTrace::choices and replay byte-identically.
  /// `bound` is ≥ 1. A deliberately separate virtual (NOT routed through
  /// pick()): pick()'s implementations index agent-count-sized tables by
  /// the returned id, which candidate indices would overflow.
  ///
  /// Default: the last candidate — for rewiring, the largest coprime
  /// stride, the most disruptive deterministic choice. Randomized kinds
  /// draw from their stream instead.
  [[nodiscard]] virtual std::size_t pick_index(std::size_t bound) {
    return bound - 1;
  }

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Completed lockstep rounds; 0 for schedulers without round structure.
  [[nodiscard]] virtual std::uint64_t rounds() const { return 0; }

  /// The devirtualized draw for drivers that step a state by hand.
  /// Semantically identical to scheduler.pick(): `kind` devirtualizes the
  /// five built-in kinds (they are final, so the cast + call inlines into
  /// the caller's loop), and MUST name `scheduler`'s dynamic type when it is
  /// one of them. Defined after the derived classes.
  [[nodiscard]] static AgentId draw_batch(Scheduler& scheduler,
                                          SchedulerKind kind,
                                          const EnabledSet& enabled);

  /// Kind-less overload for schedulers outside SchedulerKind (the explore
  /// adversaries): the plain virtual draw, so drivers have one spelling for
  /// both worlds.
  [[nodiscard]] static AgentId draw_batch(Scheduler& scheduler,
                                          const EnabledSet& enabled) {
    return scheduler.pick(enabled);
  }
};

// The pick() bodies of the five built-in kinds live here, in-class, so both
// virtual dispatch (ExecutionState::run) and the devirtualized draw
// (Scheduler::draw_batch below) inline them — a per-action call, worth
// ~20% of the campaign hot loop. Cold members (reset, constructors) stay in
// scheduler.cpp.

/// Cycles through agent ids, running the first enabled agent at or after the
/// cursor (wrapping to the lowest enabled id): a few word operations on the
/// enabled bitset, not a scan of the enabled list.
class RoundRobinScheduler final : public Scheduler {
 public:
  void reset(std::size_t agent_count) override;
  AgentId pick(const EnabledSet& enabled) override {
    const AgentId best = enabled.next_at_or_after(cursor_);
    cursor_ = best + 1 < enabled.agent_count() ? best + 1 : 0;
    return best;
  }
  [[nodiscard]] std::string_view name() const override { return "round-robin"; }

 private:
  AgentId cursor_ = 0;
};

/// Uniformly random choice among enabled agents (seeded, reproducible).
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  void reset(std::size_t agent_count) override;
  void reseed(std::uint64_t seed) override { seed_ = seed; }
  AgentId pick(const EnabledSet& enabled) override {
    // Depends on enabled's (insertion-with-swap-remove) list order: part of
    // the frozen schedule derivation, like the Rng stream itself.
    return enabled[rng_.index(enabled.size())];
  }
  std::size_t pick_index(std::size_t bound) override {
    return rng_.index(bound);
  }
  [[nodiscard]] std::string_view name() const override { return "random"; }

 private:
  std::uint64_t seed_;
  Rng rng_;
};

/// Lockstep rounds: within a round every enabled agent acts exactly once
/// (agents enabled mid-round join the next round). rounds() then equals the
/// execution's synchronous length, which matches the ideal-time makespan.
///
/// Membership is tracked with per-agent round stamps (acted in round r ⇔
/// stamp == r), so advancing a round is O(1) instead of clearing a flag
/// array — this scheduler sits in every campaign's hot path.
class SynchronousScheduler final : public Scheduler {
 public:
  void reset(std::size_t agent_count) override;
  AgentId pick(const EnabledSet& enabled) override {
    const std::uint64_t current = rounds_ + 1;
    for (const AgentId id : enabled) {
      if (acted_round_[id] < current) {
        acted_round_[id] = current;
        return id;
      }
    }
    // Every enabled agent has acted: the round is complete. Bumping rounds_
    // implicitly un-stamps every agent — no array clear.
    ++rounds_;
    const AgentId id = enabled.front();
    acted_round_[id] = rounds_ + 1;
    return id;
  }
  [[nodiscard]] std::string_view name() const override { return "synchronous"; }
  [[nodiscard]] std::uint64_t rounds() const override { return rounds_; }

 private:
  std::vector<std::uint64_t> acted_round_;  // 1-based stamp; 0 = never acted
  std::uint64_t rounds_ = 0;
};

/// Always runs the enabled agent that appears earliest in `order`; agents
/// absent from `order` come last in id order. Deterministic adversary.
///
/// The default-constructed form derives the canonical adversarial order —
/// descending ids, so agent 0 is starved hardest — from reset()'s
/// agent_count, which makes one object reusable across runs of different
/// sizes (the pooled factory form). The explicit-order form pins a fixed
/// permutation for tests.
class PriorityScheduler final : public Scheduler {
 public:
  PriorityScheduler() = default;  ///< descending ids, sized at reset()
  explicit PriorityScheduler(std::vector<AgentId> order);
  void reset(std::size_t agent_count) override;
  AgentId pick(const EnabledSet& enabled) override {
    AgentId best = enabled.front();
    for (const AgentId id : enabled) {
      if (rank_[id] < rank_[best]) best = id;
    }
    return best;
  }
  [[nodiscard]] std::string_view name() const override { return "priority"; }

 private:
  bool descending_default_ = true;  ///< false once an explicit order is given
  std::vector<AgentId> order_;
  std::vector<std::size_t> rank_;  // agent id -> priority rank
};

/// Keeps scheduling the same agent while it remains enabled; switches (in
/// seeded random order) only when it parks, halts, or enters a link queue
/// behind another agent.
class BurstScheduler final : public Scheduler {
 public:
  explicit BurstScheduler(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  void reset(std::size_t agent_count) override;
  void reseed(std::uint64_t seed) override { seed_ = seed; }
  AgentId pick(const EnabledSet& enabled) override {
    if (enabled.contains(current_)) return current_;
    current_ = enabled[rng_.index(enabled.size())];
    return current_;
  }
  std::size_t pick_index(std::size_t bound) override {
    return rng_.index(bound);
  }
  [[nodiscard]] std::string_view name() const override { return "burst"; }

 private:
  std::uint64_t seed_;
  Rng rng_;
  AgentId current_ = kNoAgent;

  static constexpr AgentId kNoAgent = static_cast<AgentId>(-1);
};

/// Scheduler families used by parameterized sweeps.
enum class SchedulerKind {
  RoundRobin,
  Random,
  Synchronous,
  Priority,  ///< victim = last agent (lowest priority = highest id)
  Burst,
};

/// Number of SchedulerKind values (sizes pooled per-kind caches).
inline constexpr std::size_t kSchedulerKindCount =
    static_cast<std::size_t>(SchedulerKind::Burst) + 1;

inline AgentId Scheduler::draw_batch(Scheduler& scheduler, SchedulerKind kind,
                                     const EnabledSet& enabled) {
  // One predictable switch on the run's kind replaces the indirect
  // virtual call; each case is a direct (inlineable) call on a final class.
  switch (kind) {
    case SchedulerKind::RoundRobin:
      return static_cast<RoundRobinScheduler&>(scheduler).pick(enabled);
    case SchedulerKind::Random:
      return static_cast<RandomScheduler&>(scheduler).pick(enabled);
    case SchedulerKind::Synchronous:
      return static_cast<SynchronousScheduler&>(scheduler).pick(enabled);
    case SchedulerKind::Priority:
      return static_cast<PriorityScheduler&>(scheduler).pick(enabled);
    case SchedulerKind::Burst:
      return static_cast<BurstScheduler&>(scheduler).pick(enabled);
  }
  return scheduler.pick(enabled);  // future kinds: fair virtual fallback
}

[[nodiscard]] std::string_view to_string(SchedulerKind kind) noexcept;

/// All kinds, for INSTANTIATE_TEST_SUITE_P sweeps.
[[nodiscard]] const std::vector<SchedulerKind>& all_scheduler_kinds();

/// Factory. `seed` feeds the randomized kinds; every kind sizes itself from
/// reset(agent_count), so the returned object is reusable across runs
/// (reseed() + reset()). `agent_count` is retained for source compatibility.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                                        std::uint64_t seed,
                                                        std::size_t agent_count);

}  // namespace udring::sim
