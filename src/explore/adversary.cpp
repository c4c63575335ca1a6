#include "explore/adversary.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/execution_state.h"
#include "sim/fault.h"

namespace udring::explore {

// The first five ExploreSchedulerKind values mirror sim::SchedulerKind so the
// factory and to_string can delegate by cast; pin that correspondence.
static_assert(static_cast<int>(ExploreSchedulerKind::RoundRobin) ==
              static_cast<int>(sim::SchedulerKind::RoundRobin));
static_assert(static_cast<int>(ExploreSchedulerKind::Burst) ==
              static_cast<int>(sim::SchedulerKind::Burst));

// ---- LinkDelayScheduler -----------------------------------------------------

void LinkDelayScheduler::reset(std::size_t /*agent_count*/) {}

sim::AgentId LinkDelayScheduler::pick(const sim::EnabledSet& enabled) {
  if (sim_ == nullptr) return *std::min_element(enabled.begin(), enabled.end());

  // Anything not on a link acts first (lowest id for determinism); agents in
  // transit languish in their queues until nothing else can move.
  sim::AgentId best_staying = static_cast<sim::AgentId>(-1);
  sim::AgentId best_transit = static_cast<sim::AgentId>(-1);
  std::size_t best_queue = 0;
  for (const sim::AgentId id : enabled) {
    if (sim_->status(id) != sim::AgentStatus::InTransit) {
      if (best_staying == static_cast<sim::AgentId>(-1) || id < best_staying) {
        best_staying = id;
      }
      continue;
    }
    // Forced to deliver: drain the most crowded link first, so the release
    // happens at maximum queue depth.
    const std::size_t depth = sim_->queue_length(sim_->agent_node(id));
    if (best_transit == static_cast<sim::AgentId>(-1) || depth > best_queue ||
        (depth == best_queue && id < best_transit)) {
      best_transit = id;
      best_queue = depth;
    }
  }
  return best_staying != static_cast<sim::AgentId>(-1) ? best_staying
                                                       : best_transit;
}

// ---- BurstPartitionScheduler ------------------------------------------------

void BurstPartitionScheduler::reset(std::size_t agent_count) {
  Rng rng(seed_);
  side_.assign(agent_count, false);
  for (std::size_t id = 0; id < agent_count; ++id) {
    side_[id] = rng.chance(0.5);
  }
  active_side_ = rng.chance(0.5);
  remaining_ = burst_;
}

sim::AgentId BurstPartitionScheduler::pick(const sim::EnabledSet& enabled) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (remaining_ == 0) {
      active_side_ = !active_side_;
      remaining_ = burst_;
    }
    sim::AgentId best = static_cast<sim::AgentId>(-1);
    for (const sim::AgentId id : enabled) {
      const bool member = id < side_.size() ? side_[id] : false;
      if (member != active_side_) continue;
      if (best == static_cast<sim::AgentId>(-1) || id < best) best = id;
    }
    if (best != static_cast<sim::AgentId>(-1)) {
      --remaining_;
      return best;
    }
    // The active side has nothing enabled: the "partition" heals early.
    remaining_ = 0;
  }
  // Neither side matched (all agents beyond side_, cannot happen after
  // reset) — fall back to the lowest id to stay total.
  return *std::min_element(enabled.begin(), enabled.end());
}

// ---- FifoStressScheduler ----------------------------------------------------

void FifoStressScheduler::reset(std::size_t /*agent_count*/) {}

sim::AgentId FifoStressScheduler::pick(const sim::EnabledSet& enabled) {
  if (sim_ == nullptr) return *std::min_element(enabled.begin(), enabled.end());
  sim::AgentId best = enabled.front();
  std::size_t best_phase = 0, best_moves = 0;
  bool first = true;
  for (const sim::AgentId id : enabled) {
    const auto& m = sim_->metrics().agent(id);
    if (first || m.phase > best_phase ||
        (m.phase == best_phase &&
         (m.moves > best_moves || (m.moves == best_moves && id < best)))) {
      best = id;
      best_phase = m.phase;
      best_moves = m.moves;
      first = false;
    }
  }
  return best;
}

// ---- RewiringAdversary ------------------------------------------------------

namespace {

/// d^{-1} mod n by extended Euclid; callers guarantee gcd(d, n) == 1 (rewire
/// candidate strides are coprime by construction).
[[nodiscard]] std::size_t mod_inverse(std::size_t d, std::size_t n) {
  long long t = 0, new_t = 1;
  long long r = static_cast<long long>(n), new_r = static_cast<long long>(d);
  while (new_r != 0) {
    const long long q = r / new_r;
    t -= q * new_t;
    std::swap(t, new_t);
    r -= q * new_r;
    std::swap(r, new_r);
  }
  if (t < 0) t += static_cast<long long>(n);
  return static_cast<std::size_t>(t);
}

}  // namespace

std::size_t RewiringAdversary::pick_index(std::size_t bound) {
  // Fallback (also the base-class default): the largest stride. Used when
  // unattached or when displacement cannot distinguish candidates.
  if (sim_ == nullptr || bound <= 1) return bound - 1;
  const std::size_t n = sim_->node_count();
  nodes_.clear();
  for (sim::AgentId id = 0; id < sim_->agent_count(); ++id) {
    nodes_.push_back(sim_->agent_node(id));
  }
  if (nodes_.size() < 2) return bound - 1;

  // Distance from v to u under stride d is ((u − v) mod n) · d^{-1} mod n —
  // the analytic form keeps the scan O(candidates · k²) instead of walking
  // the ring. Candidates are subsampled (ends always included) so a huge
  // φ(n) cannot make one rewire draw quadratic in n.
  const std::size_t samples = std::min<std::size_t>(bound, 33);
  std::size_t best_index = bound - 1;
  std::uint64_t best_score = 0;
  bool first = true;
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t index =
        samples == bound ? s : s * (bound - 1) / (samples - 1);
    const std::size_t stride = sim::rewire_candidate_stride(n, index);
    const std::size_t inv = mod_inverse(stride, n);
    std::uint64_t score = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      std::size_t nearest = n;
      for (std::size_t j = 0; j < nodes_.size(); ++j) {
        if (j == i) continue;
        const std::size_t gap = (nodes_[j] + n - nodes_[i]) % n;
        nearest = std::min(nearest, gap * inv % n);
      }
      score += nearest;
    }
    if (first || score > best_score ||
        (score == best_score && index > best_index)) {
      best_index = index;
      best_score = score;
      first = false;
    }
  }
  return best_index;
}

// ---- kinds ------------------------------------------------------------------

std::string_view to_string(ExploreSchedulerKind kind) noexcept {
  switch (kind) {
    case ExploreSchedulerKind::RoundRobin:
    case ExploreSchedulerKind::Random:
    case ExploreSchedulerKind::Synchronous:
    case ExploreSchedulerKind::Priority:
    case ExploreSchedulerKind::Burst:
      return sim::to_string(static_cast<sim::SchedulerKind>(kind));
    case ExploreSchedulerKind::LinkDelay: return "link-delay";
    case ExploreSchedulerKind::BurstPartition: return "burst-partition";
    case ExploreSchedulerKind::FifoStress: return "fifo-stress";
    case ExploreSchedulerKind::RewireAdversary: return "rewire-adversary";
  }
  return "?";
}

ExploreSchedulerKind explore_scheduler_from_name(std::string_view name) {
  for (const ExploreSchedulerKind kind : all_explore_scheduler_kinds()) {
    if (to_string(kind) == name) return kind;
  }
  throw std::invalid_argument("explore_scheduler_from_name: unknown scheduler '" +
                              std::string(name) + "'");
}

const std::vector<ExploreSchedulerKind>& all_explore_scheduler_kinds() {
  static const std::vector<ExploreSchedulerKind> kinds = {
      ExploreSchedulerKind::RoundRobin,     ExploreSchedulerKind::Random,
      ExploreSchedulerKind::Synchronous,    ExploreSchedulerKind::Priority,
      ExploreSchedulerKind::Burst,          ExploreSchedulerKind::LinkDelay,
      ExploreSchedulerKind::BurstPartition, ExploreSchedulerKind::FifoStress,
      ExploreSchedulerKind::RewireAdversary,
  };
  return kinds;
}

const std::vector<ExploreSchedulerKind>& adversary_scheduler_kinds() {
  static const std::vector<ExploreSchedulerKind> kinds = {
      ExploreSchedulerKind::LinkDelay,
      ExploreSchedulerKind::BurstPartition,
      ExploreSchedulerKind::FifoStress,
      ExploreSchedulerKind::RewireAdversary,
  };
  return kinds;
}

std::unique_ptr<sim::Scheduler> make_explore_scheduler(ExploreSchedulerKind kind,
                                                       std::uint64_t seed,
                                                       std::size_t agent_count) {
  switch (kind) {
    case ExploreSchedulerKind::RoundRobin:
    case ExploreSchedulerKind::Random:
    case ExploreSchedulerKind::Synchronous:
    case ExploreSchedulerKind::Priority:
    case ExploreSchedulerKind::Burst:
      return sim::make_scheduler(static_cast<sim::SchedulerKind>(kind), seed,
                                 agent_count);
    case ExploreSchedulerKind::LinkDelay:
      return std::make_unique<LinkDelayScheduler>();
    case ExploreSchedulerKind::BurstPartition:
      return std::make_unique<BurstPartitionScheduler>(seed);
    case ExploreSchedulerKind::FifoStress:
      return std::make_unique<FifoStressScheduler>();
    case ExploreSchedulerKind::RewireAdversary:
      return std::make_unique<RewiringAdversary>(seed);
  }
  throw std::invalid_argument("make_explore_scheduler: unknown kind");
}

}  // namespace udring::explore
