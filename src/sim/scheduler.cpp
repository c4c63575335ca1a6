#include "sim/scheduler.h"

#include <algorithm>
#include <stdexcept>

namespace udring::sim {

// ---- RoundRobinScheduler ----------------------------------------------------

// pick() bodies live inline in scheduler.h (draw_batch must inline them);
// only the cold per-run machinery stays here.

void RoundRobinScheduler::reset(std::size_t /*agent_count*/) { cursor_ = 0; }

// ---- RandomScheduler --------------------------------------------------------

void RandomScheduler::reset(std::size_t /*agent_count*/) { rng_ = Rng(seed_); }

// ---- SynchronousScheduler ---------------------------------------------------

void SynchronousScheduler::reset(std::size_t agent_count) {
  acted_round_.assign(agent_count, 0);
  rounds_ = 0;
}

// ---- PriorityScheduler ------------------------------------------------------

PriorityScheduler::PriorityScheduler(std::vector<AgentId> order)
    : descending_default_(false), order_(std::move(order)) {}

void PriorityScheduler::reset(std::size_t agent_count) {
  if (descending_default_) {
    // Canonical adversary: the highest id runs first, agent 0 is starved.
    // Derived from agent_count here so one object is reusable across runs
    // of different sizes; matches the explicit order {k-1, …, 0}.
    rank_.assign(agent_count, 0);
    for (AgentId id = 0; id < agent_count; ++id) {
      rank_[id] = agent_count - 1 - id;
    }
    return;
  }
  rank_.assign(agent_count, agent_count + order_.size());
  std::size_t next_rank = 0;
  for (const AgentId id : order_) {
    if (id < agent_count) rank_[id] = next_rank++;
  }
  // Agents not listed keep a stable id-ordered tail.
  for (AgentId id = 0; id < agent_count; ++id) {
    if (rank_[id] == agent_count + order_.size()) rank_[id] = order_.size() + id;
  }
}

// ---- BurstScheduler ---------------------------------------------------------

void BurstScheduler::reset(std::size_t /*agent_count*/) {
  // Re-seed the RNG too: a reused scheduler whose RNG carried state across
  // runs would make pooled reruns diverge from fresh-object runs (the
  // correlated-rerun bug test_pooling.cpp pins).
  rng_ = Rng(seed_);
  current_ = kNoAgent;
}

// ---- factory ----------------------------------------------------------------

std::string_view to_string(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::RoundRobin: return "round-robin";
    case SchedulerKind::Random: return "random";
    case SchedulerKind::Synchronous: return "synchronous";
    case SchedulerKind::Priority: return "priority";
    case SchedulerKind::Burst: return "burst";
  }
  return "?";
}

const std::vector<SchedulerKind>& all_scheduler_kinds() {
  static const std::vector<SchedulerKind> kinds = {
      SchedulerKind::RoundRobin, SchedulerKind::Random,
      SchedulerKind::Synchronous, SchedulerKind::Priority,
      SchedulerKind::Burst,
  };
  return kinds;
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, std::uint64_t seed,
                                          std::size_t agent_count) {
  // Every kind now sizes itself from reset(agent_count); the parameter is
  // kept so existing call sites (and future kinds that need it at
  // construction) stay source-compatible.
  (void)agent_count;
  switch (kind) {
    case SchedulerKind::RoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case SchedulerKind::Random:
      return std::make_unique<RandomScheduler>(seed);
    case SchedulerKind::Synchronous:
      return std::make_unique<SynchronousScheduler>();
    case SchedulerKind::Priority:
      // Default mode: descending ids, derived from reset()'s agent count —
      // the pooled form works for any run size.
      return std::make_unique<PriorityScheduler>();
    case SchedulerKind::Burst:
      return std::make_unique<BurstScheduler>(seed);
  }
  throw std::invalid_argument("make_scheduler: unknown kind");
}

}  // namespace udring::sim
