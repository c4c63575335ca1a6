// udring/explore/adversary.h
//
// Adversarial schedulers. The five sim/ families sample the fair-schedule
// quantifier generically; these three *search* for trouble by reading the
// observable simulator state (via Scheduler::attach) and steering toward the
// executions where asynchrony bugs live:
//
//  - LinkDelayScheduler:      maximizes link delay. Agents already on a link
//                             stay there as long as anything else can act;
//                             when only in-transit agents remain, it drains
//                             the most crowded link first. Queues grow to
//                             their worst case, so every queue-order
//                             assumption is exercised.
//  - BurstPartitionScheduler: freezes half the agents while the other half
//                             runs a long exclusive burst, then swaps —
//                             a repeatedly partitioned ring, the pattern
//                             that exposes stale-observation bugs.
//  - FifoStressScheduler:     a greedy frontrunner: always advances the
//                             most-advanced agent (highest phase, then most
//                             moves), maximally starving laggards. In
//                             Algorithm 3 this rushes deployed followers
//                             around the ring while their leader crawls —
//                             exactly the delivery order whose safety rests
//                             on the FIFO non-overtaking property (see
//                             known_k_logmem.h). Under the non-FIFO fault
//                             injection it is the scheduler that breaks
//                             KnownKLogMemStrict fastest.
//  - RewiringAdversary:       adversarial *rewiring*, not scheduling: agent
//                             picks stay uniform, but dynamic-ring stride
//                             draws (sim/fault.h) maximize agent
//                             displacement on the rewired ring.
//
// All are deterministic given their seed and remain fair on
// terminating workloads (a starved agent acts once its competitors park or
// halt). ExploreSchedulerKind unifies them with the sim/ families so record/
// replay tests, fuzz pools and sweeps can treat all schedulers uniformly.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/scheduler.h"
#include "util/rng.h"

namespace udring::explore {

class LinkDelayScheduler final : public sim::Scheduler {
 public:
  void attach(const sim::ExecutionState& sim) override { sim_ = &sim; }
  void reset(std::size_t agent_count) override;
  sim::AgentId pick(const sim::EnabledSet& enabled) override;
  [[nodiscard]] std::string_view name() const override { return "link-delay"; }

 private:
  const sim::ExecutionState* sim_ = nullptr;
};

class BurstPartitionScheduler final : public sim::Scheduler {
 public:
  /// Partition membership is drawn from `seed`; each side runs up to `burst`
  /// consecutive actions before the partition flips.
  explicit BurstPartitionScheduler(std::uint64_t seed, std::size_t burst = 24)
      : seed_(seed), burst_(burst) {}

  void reset(std::size_t agent_count) override;
  // Without this override a pooled object would redraw the FIRST run's
  // partition forever — the reseed-audit sweep in tests/test_pooling.cpp
  // caught exactly that.
  void reseed(std::uint64_t seed) override { seed_ = seed; }
  sim::AgentId pick(const sim::EnabledSet& enabled) override;
  [[nodiscard]] std::string_view name() const override { return "burst-partition"; }

 private:
  std::uint64_t seed_;
  std::size_t burst_;
  std::vector<bool> side_;       // agent id -> partition side
  bool active_side_ = false;
  std::size_t remaining_ = 0;    // actions left in the current burst
};

class FifoStressScheduler final : public sim::Scheduler {
 public:
  void attach(const sim::ExecutionState& sim) override { sim_ = &sim; }
  void reset(std::size_t agent_count) override;
  sim::AgentId pick(const sim::EnabledSet& enabled) override;
  [[nodiscard]] std::string_view name() const override { return "fifo-stress"; }

 private:
  const sim::ExecutionState* sim_ = nullptr;
};

/// The dynamic-ring adversary (sim/fault.h). Agent picks delegate to the
/// seeded uniform scheduler — rewiring trouble should come from the *ring*,
/// not from a biased schedule — but every rewiring stride draw
/// (Scheduler::pick_index, consumed at FaultPlan rewire points) is answered
/// by scanning the candidate strides and choosing the one that maximizes
/// total agent displacement: the sum, over agents, of the live-ring distance
/// to the nearest other agent under the rewired successor map. Deployed
/// configurations score near-uniform spacing; the adversary's rewiring
/// stretches exactly those distances, forcing the longest recovery walks the
/// 1-interval-connectivity model permits.
class RewiringAdversary final : public sim::Scheduler {
 public:
  explicit RewiringAdversary(std::uint64_t seed) : inner_(seed) {}

  void attach(const sim::ExecutionState& sim) override { sim_ = &sim; }
  void reset(std::size_t agent_count) override { inner_.reset(agent_count); }
  void reseed(std::uint64_t seed) override { inner_.reseed(seed); }
  sim::AgentId pick(const sim::EnabledSet& enabled) override {
    return inner_.pick(enabled);
  }
  [[nodiscard]] std::size_t pick_index(std::size_t bound) override;
  [[nodiscard]] std::string_view name() const override {
    return "rewire-adversary";
  }

 private:
  const sim::ExecutionState* sim_ = nullptr;
  sim::RandomScheduler inner_;
  std::vector<sim::NodeId> nodes_;  // scratch: agent positions per draw
};

/// The sim/ scheduler families plus the adversaries: one namespace of
/// scheduler kinds for the explorer (record/replay sweeps, fuzz pools).
enum class ExploreSchedulerKind {
  RoundRobin,
  Random,
  Synchronous,
  Priority,
  Burst,
  LinkDelay,
  BurstPartition,
  FifoStress,
  RewireAdversary,
};

[[nodiscard]] std::string_view to_string(ExploreSchedulerKind kind) noexcept;

/// Inverse of to_string. Throws std::invalid_argument on an unknown name.
[[nodiscard]] ExploreSchedulerKind explore_scheduler_from_name(
    std::string_view name);

/// All kinds, for INSTANTIATE_TEST_SUITE_P sweeps and fuzz pools.
[[nodiscard]] const std::vector<ExploreSchedulerKind>& all_explore_scheduler_kinds();

/// Only the adversaries.
[[nodiscard]] const std::vector<ExploreSchedulerKind>& adversary_scheduler_kinds();

/// Factory covering every ExploreSchedulerKind (delegates the sim/ kinds to
/// sim::make_scheduler). Adversaries self-attach when the run starts.
[[nodiscard]] std::unique_ptr<sim::Scheduler> make_explore_scheduler(
    ExploreSchedulerKind kind, std::uint64_t seed, std::size_t agent_count);

}  // namespace udring::explore
