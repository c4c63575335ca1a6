// udring/sim/model_invariants.h
//
// The reachable-configuration model invariants of §2.1 — token counts never
// decrease, an agent in transit sits in exactly one FIFO link queue (the
// one into its destination), a staying agent in none — written once over a
// minimal read view of a configuration. sim::check_model_invariants
// (sim/checker.h) instantiates them on ExecutionState; tests instantiate
// them on hand-built configurations, which is how corruptions no legal
// execution can produce are shown to be caught.
//
// A view is any type with
//
//   std::size_t node_count(), agent_count(), total_tokens(), queued_agents()
//   AgentStatus status(AgentId)        NodeId agent_node(AgentId)
//   link_queue(NodeId)                 (iterable over AgentId, FIFO order)
//
// where queued_agents() is Σ|link_queue(v)|. status/agent_node are only
// called with ids < agent_count(), link_queue with nodes < node_count().

#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <vector>

#include "sim/checker.h"
#include "sim/types.h"

namespace udring::sim::invariants {

/// May an agent with `status` and destination/staying node `destination`
/// sit in the link queue into `node`? Live members must be InTransit; a
/// crash-stop corpse legitimately freezes inside the queue it was
/// transiting. Either way the destination must match the queue.
[[nodiscard]] inline bool queue_member_ok(AgentStatus status,
                                          NodeId destination,
                                          NodeId node) noexcept {
  return (status == AgentStatus::InTransit || status == AgentStatus::Crashed) &&
         destination == node;
}

/// Is `occurrences` (how many link queues hold the agent) consistent with
/// its status? In transit: exactly one. A corpse froze either in its link
/// queue (one) or in a staying set (none). Staying: none.
[[nodiscard]] inline bool occurrences_ok(AgentStatus status,
                                         std::size_t occurrences) noexcept {
  switch (status) {
    case AgentStatus::InTransit: return occurrences == 1;
    case AgentStatus::Crashed: return occurrences <= 1;
    default: return occurrences == 0;
  }
}

/// queue_member_ok with the failure reason every checker mode reports.
template <class View>
[[nodiscard]] CheckResult check_queue_member(const View& view, AgentId id,
                                             NodeId node) {
  const AgentStatus status = view.status(id);
  if (queue_member_ok(status, view.agent_node(id), node)) {
    return CheckResult::pass();
  }
  std::ostringstream why;
  if (status != AgentStatus::InTransit && status != AgentStatus::Crashed) {
    why << "agent " << id << " is in queue to node " << node
        << " but has status " << to_string(status);
  } else {
    why << "agent " << id << " queue/destination mismatch";
  }
  return CheckResult::fail(why.str());
}

/// occurrences_ok with the failure reason every checker mode reports.
template <class View>
[[nodiscard]] CheckResult check_occurrences(const View& view, AgentId id,
                                            std::size_t occurrences) {
  const AgentStatus status = view.status(id);
  if (occurrences_ok(status, occurrences)) return CheckResult::pass();
  std::ostringstream why;
  if (status == AgentStatus::Crashed) {
    why << "crashed agent " << id << " appears in " << occurrences
        << " queues";
  } else if (status == AgentStatus::InTransit) {
    why << "in-transit agent " << id << " appears in " << occurrences
        << " queues";
  } else {
    why << "staying agent " << id << " also appears in a link queue";
  }
  return CheckResult::fail(why.str());
}

/// Tokens are indelible, so the total may only grow. O(1): total_tokens()
/// is a maintained counter.
template <class View>
[[nodiscard]] CheckResult check_token_monotonicity(
    const View& view, std::size_t min_expected_tokens) {
  const std::size_t total_tokens = view.total_tokens();
  if (total_tokens >= min_expected_tokens) return CheckResult::pass();
  std::ostringstream why;
  why << "token count decreased: " << total_tokens << " < "
      << min_expected_tokens;
  return CheckResult::fail(why.str());
}

/// The reference walk: every node's queue, then every agent — O(n + k).
/// Its verdict and first-failure reason define the invariants' wording;
/// check() below returns exactly what this returns on every view. An agent
/// id out of range in a queue throws std::out_of_range.
template <class View>
[[nodiscard]] CheckResult walk(const View& view,
                               std::size_t min_expected_tokens) {
  if (auto r = check_token_monotonicity(view, min_expected_tokens); !r) {
    return r;
  }
  std::vector<std::size_t> seen_in_queue(view.agent_count(), 0);
  for (NodeId node = 0; node < view.node_count(); ++node) {
    for (const AgentId id : view.link_queue(node)) {
      ++seen_in_queue.at(id);
      if (auto r = check_queue_member(view, id, node); !r) return r;
    }
  }
  for (AgentId id = 0; id < view.agent_count(); ++id) {
    if (auto r = check_occurrences(view, id, seen_in_queue[id]); !r) return r;
  }
  return CheckResult::pass();
}

/// Per-thread occurrence counts for proves_queues_consistent. Thread-local
/// because the oracles that call it are shared const across mc shards.
[[nodiscard]] inline std::vector<std::uint32_t>& occurrence_scratch() {
  thread_local std::vector<std::uint32_t> occurrences;
  return occurrences;
}

/// The pass-only fast path, O(k + queued agents): true only if walk() would
/// pass its queue and occurrence checks. It visits just the queues into the
/// destinations of InTransit and Crashed agents, validates their members as
/// check_queue_member does and counts each agent's occurrences. The visited
/// members must number queued_agents() — Σ over *all* queues — so every
/// queue it skipped is empty and the counts are exact; then each agent's
/// count must satisfy occurrences_ok. Any discrepancy returns false and
/// leaves the verdict (and its reason) to walk(). The counter is trusted:
/// one that under-counts by exactly the members of the skipped queues would
/// hide them, which is why ExecutionState gives it a single owner.
template <class View>
[[nodiscard]] bool proves_queues_consistent(const View& view) {
  const std::size_t k = view.agent_count();
  std::vector<std::uint32_t>& occurrences = occurrence_scratch();
  occurrences.assign(k, 0);
  std::size_t visited = 0;
  for (AgentId id = 0; id < k; ++id) {
    const AgentStatus status = view.status(id);
    if (status != AgentStatus::InTransit && status != AgentStatus::Crashed) {
      continue;
    }
    const NodeId node = view.agent_node(id);
    if (node >= view.node_count()) return false;
    const auto& queue = view.link_queue(node);
    auto member = queue.begin();
    if (member == queue.end()) continue;
    // A visited queue's members are all counted, its head included; a head
    // counted through another queue sits in two of them, and skipping this
    // queue leaves `visited` short of the total.
    if (*member >= k) return false;
    if (occurrences[*member] != 0) continue;
    for (; member != queue.end(); ++member) {
      const AgentId other = *member;
      if (other >= k ||
          !queue_member_ok(view.status(other), view.agent_node(other), node)) {
        return false;
      }
      ++occurrences[other];
      ++visited;
    }
  }
  if (visited != view.queued_agents()) return false;
  for (AgentId id = 0; id < k; ++id) {
    if (!occurrences_ok(view.status(id), occurrences[id])) return false;
  }
  return true;
}

/// The invariants: the fast path when it proves them, else the walk.
/// Same verdict and reason as walk() on every view whose queued_agents()
/// is the true Σ|q_v|.
template <class View>
[[nodiscard]] CheckResult check(const View& view,
                                std::size_t min_expected_tokens) {
  if (auto r = check_token_monotonicity(view, min_expected_tokens); !r) {
    return r;
  }
  if (proves_queues_consistent(view)) return CheckResult::pass();
  return walk(view, min_expected_tokens);
}

}  // namespace udring::sim::invariants
