// udring/sim/fault.h
//
// FaultPlan — the structured, per-action fault schedule of a run.
//
// The paper's model is fault-free; this layer is the adversary the ROADMAP's
// robustness line asks for: how do the algorithms *fail and degrade* when the
// substrate misbehaves? A FaultPlan is part of SimOptions — immutable per
// Instance, like everything else in the spec half of a run — and describes
// three fault classes, all keyed to the global atomic-action counter so the
// exact same faults fire at the exact same points of any replayed schedule:
//
//  - Crash-stop faults: agent `a` dies when the action counter reaches
//    `at_action` (0 = dead on arrival, before its first action). Its state
//    freezes where it stands — a crashed in-transit agent stays in its link
//    queue (and, under FIFO, blocks everyone behind it forever), a crashed
//    staying agent remains a visible corpse in p_i. Crashed agents are never
//    enabled, never receive broadcasts, and never act again.
//
//  - Link faults: a test-only non-FIFO overtaking window (phase-gated,
//    plus an optional action-count upper bound), bounded broadcast *drops*
//    (the next `drop_count` deliverable broadcasts at/after
//    `drop_from_action` vanish) and bounded broadcast *duplications*
//    (delivered twice — the classic at-least-once substrate).
//
//  - Dynamic-ring rewiring (1-interval connectivity): at each action index
//    in `rewire_at` the successor map is scheduled to change; the *choice*
//    of replacement cycle is drawn from the same choice stream as agent
//    scheduling (Scheduler::pick_index), so it is recorded into
//    ScheduleTrace::choices and replays byte-identically. Replacement
//    cycles are stride rings: successor(v) = (v + d) mod n with
//    gcd(d, n) = 1, which is a single Hamiltonian cycle *by construction* —
//    the revalidation Topology::closed_walk performs for explicit walks is
//    an arithmetic identity here, so rewiring never strands an agent. The
//    candidate set at any rewire point is the ascending list of coprime
//    strides; candidate index i ↦ rewire_candidate_stride(n, i).
//
// Soundness note for the model checker: every piece of live fault state
// (crash cursor, current stride, pending/consumed rewires, remaining
// drop/dup budgets) is folded into ExecutionState::config_digest() whenever
// the plan carries fault events, so two configurations that agree on
// (S, T, M, P, Q) but differ in what the adversary may still do can never
// dedup together. Empty plans fold nothing.
//
// This header is included by sim/instance.h; it must not include it back.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace udring::sim {

/// One crash-stop fault: `agent` dies when the global action counter reaches
/// `at_action` (before the (at_action+1)-th action; 0 = at reset).
struct CrashFault {
  AgentId agent = 0;
  std::size_t at_action = 0;

  // Ordering (and ==) so plans can sit inside ordered aggregation keys
  // (exp::CellKey's defaulted <=>); lexicographic member order.
  friend auto operator<=>(const CrashFault&, const CrashFault&) = default;
};

struct FaultPlan {
  /// Crash-stop faults; normalize() sorts them by (at_action, agent).
  /// At most one per agent (validate() rejects duplicates).
  std::vector<CrashFault> crashes;

  /// TEST-ONLY non-FIFO overtaking fault: weakens the FIFO link guarantee
  /// of §2.1. When set, an in-transit agent may arrive from *any* queue
  /// position — overtaking agents ahead of it — as long as it does not pass
  /// an agent still in its initial transit (that restriction preserves the
  /// §2.1 home-node-first rule, which every algorithm legitimately relies
  /// on; the FIFO non-overtaking property is the only guarantee removed).
  /// The scheduler decides who jumps: all such agents join the enabled set.
  /// This models a substrate without FIFO links and exists so the schedule
  /// explorer can demonstrate that KnownKLogMemStrict's correctness —
  /// unlike the hardened default — leans on FIFO order (see
  /// known_k_logmem.h). Never set it in experiments that reproduce the
  /// paper's model.
  bool non_fifo = false;
  /// Narrows the overtaking window: overtaking is permitted only when the
  /// jumper and every agent it passes have reached this phase tag (metrics
  /// phase, see AgentContext::set_phase). Phases are how multi-phase
  /// algorithms announce their progress, so this seeds a non-FIFO bug into
  /// one phase without corrupting the phases before it — e.g. phase 1
  /// targets Algorithm 3's deployment race while Algorithm 2's
  /// selection-phase geometry measurements (which also assume
  /// non-overtaking, for every variant) stay sound. 0 = live from the first
  /// action. Non-zero requires non_fifo (validate()).
  std::size_t non_fifo_min_phase = 0;
  /// Upper bound of the overtaking window: overtaking is permitted only
  /// while the action counter is < this value. 0 = unbounded. Non-zero
  /// requires non_fifo (validate()).
  std::size_t non_fifo_until_action = 0;

  /// Broadcast drops: the next `drop_count` broadcasts with at least one
  /// deliverable receiver, executed at action counter ≥ `drop_from_action`,
  /// are silently discarded (no receiver sees them).
  std::size_t drop_count = 0;
  std::size_t drop_from_action = 0;

  /// Broadcast duplications: the next `dup_count` deliverable broadcasts at
  /// action counter ≥ `dup_from_action` are delivered twice to every
  /// receiver (at-least-once delivery).
  std::size_t dup_count = 0;
  std::size_t dup_from_action = 0;

  /// Dynamic-ring rewiring points: when the action counter reaches each
  /// listed value a rewiring becomes *pending*, and the scheduler resolves
  /// it at the next choice point by picking a candidate stride
  /// (Scheduler::pick_index over rewire_candidate_count(n)). Strictly
  /// increasing after normalize(); a pending rewiring that the run never
  /// reaches a choice point for (quiescence first) simply does not fire.
  std::vector<std::size_t> rewire_at;

  /// True when the plan injects nothing at all (the default — the fault-free
  /// paper model).
  [[nodiscard]] bool empty() const noexcept {
    return !non_fifo && non_fifo_min_phase == 0 && non_fifo_until_action == 0 &&
           !has_events();
  }

  /// True when the plan carries *event* faults — anything the execution
  /// loop's fault cursor must watch (crashes, rewirings, drops, dups).
  /// The non-FIFO window is not an event: it is a standing relaxation of
  /// the enabling rule, handled by the engine's Fault template path.
  [[nodiscard]] bool has_events() const noexcept {
    return !crashes.empty() || !rewire_at.empty() || drop_count > 0 ||
           dup_count > 0;
  }

  [[nodiscard]] bool has_crashes() const noexcept { return !crashes.empty(); }
  [[nodiscard]] bool has_rewires() const noexcept { return !rewire_at.empty(); }

  /// Sorts crashes by (at_action, agent) and rewire points ascending —
  /// the canonical form every consumer (trace emission, digests, the
  /// execution cursor) assumes. Idempotent.
  void normalize();

  /// Validates the normalized plan against an instance's dimensions; throws
  /// std::invalid_argument on a non-FIFO window (non_fifo_min_phase or
  /// non_fifo_until_action) without non_fifo, out-of-range crash agents,
  /// duplicate crash agents, duplicate rewire points, or rewiring on a
  /// sub-2-node topology (no coprime stride exists to rewire to).
  void validate(std::size_t node_count, std::size_t agent_count) const;

  /// Canonical compact label for campaign axes and report tables:
  /// "" for an empty plan, else e.g. "crash:1@4+rewire:2+drop:1@0".
  [[nodiscard]] std::string label() const;

  /// Folds the plan itself (not live execution state) into a digest —
  /// campaign/report digests use this so distinct plans never collide.
  void fold_into(std::uint64_t& state) const;

  friend auto operator<=>(const FaultPlan&, const FaultPlan&) = default;
};

// ---- rewiring candidate geometry --------------------------------------------
//
// A rewiring replaces the live successor map with the stride ring
// successor(v) = (v + d) mod n for a stride d coprime to n: coprimality is
// exactly the single-Hamiltonian-cycle condition, so 1-interval connectivity
// holds by construction. The candidate list is the ascending sequence of
// coprime strides in [1, n); its index is what flows through the choice
// stream. (For the implicit ring, candidate 0 — stride 1 — is the original
// ring; for explicit closed walks every candidate is a genuine rewiring.)

/// Number of rewiring candidates on an n-node walk: φ(n) for n ≥ 2, 0 for
/// n ≤ 1 (a 0/1-node walk cannot be rewired).
[[nodiscard]] std::size_t rewire_candidate_count(std::size_t node_count) noexcept;

/// The `index`-th smallest stride coprime to node_count (index <
/// rewire_candidate_count(node_count); throws std::out_of_range otherwise).
[[nodiscard]] std::size_t rewire_candidate_stride(std::size_t node_count,
                                                  std::size_t index);

/// The single-cycle revalidation predicate: true iff successor
/// v ↦ (v + stride) mod n is one Hamiltonian cycle (gcd(stride, n) == 1,
/// 1 ≤ stride < n).
[[nodiscard]] bool is_single_cycle_stride(std::size_t node_count,
                                          std::size_t stride) noexcept;

}  // namespace udring::sim
