// udring/sim/checker.h
//
// Machine-checked oracles for agent-coordination goals on the simulator:
// uniform deployment (Definitions 1 and 2 of the paper), g-partial
// gathering, dispersion, and total gathering (rendezvous), plus the
// reachable-configuration model invariants.
//
// The checkers are deliberately *independent* of the core algorithm
// library: they recompute gaps and target arithmetic from first principles
// so that a bug shared between an algorithm and its checker cannot hide.
// They consume only observable simulator state (positions, statuses,
// queues, mailboxes).
//
// Drivers (runner, fuzzer, model checker, campaigns) do not call the goal
// predicates directly; they go through the GoalOracle interface below so
// one verification stack serves every problem.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/execution_state.h"

namespace udring::sim {

/// Result of a predicate evaluation: `ok` plus a human-readable reason when
/// the predicate fails (used directly in gtest messages).
struct CheckResult {
  bool ok = true;
  std::string reason;

  explicit operator bool() const noexcept { return ok; }

  static CheckResult pass() { return {}; }
  static CheckResult fail(std::string why) { return {false, std::move(why)}; }
};

/// The distance between consecutive positions around an n-ring; positions
/// need not be sorted; the result is sorted by position. Requires at least
/// one position.
[[nodiscard]] std::vector<std::size_t> ring_gaps(std::vector<std::size_t> positions,
                                                 std::size_t node_count);

/// Are `positions` (distinct nodes) a uniform deployment of k agents on an
/// n-ring? True iff every gap between adjacent agents is ⌊n/k⌋ or ⌈n/k⌉ —
/// equivalently, exactly (n mod k) gaps equal ⌈n/k⌉ and the rest ⌊n/k⌋.
/// k = 1 is trivially uniform.
[[nodiscard]] CheckResult check_positions_uniform(std::vector<std::size_t> positions,
                                                  std::size_t node_count);

/// Model invariants that must hold in *any* reachable configuration: the
/// total token count is at least `min_expected_tokens` (tokens are
/// indelible; callers pass the previous count), every queue member is in
/// transit (or a crash-stop corpse) towards that queue's node, every
/// in-transit agent sits in exactly one queue, a corpse in at most one and
/// a staying agent in none. Used by drivers after every atomic action.
///
/// Cost O(k + queued agents) when the invariants hold: only the queues into
/// the destinations of in-transit and crashed agents are visited, and their
/// members must number ExecutionState::queued_agents() — the maintained
/// Σ|q_v| over all n queues — which proves every unvisited queue empty.
/// Any discrepancy falls through to the O(n + k) reference walk
/// (invariants::walk in sim/model_invariants.h), so failure verdicts and
/// reasons are the walk's, exactly. Allocation-free on the pass path
/// (thread-local scratch).
[[nodiscard]] CheckResult check_model_invariants(const ExecutionState& sim,
                                                 std::size_t min_expected_tokens);

/// Incremental form of check_model_invariants: instead of visiting the
/// queue of every in-transit agent after every atomic action, it
/// revalidates only the action's conservative node footprint
/// (ExecutionState::last_action_nodes() — {node, next(node)}, the same
/// bound the mc:: sleep sets use) against shadow queue-membership counts it
/// maintains, in O(dirty) per action. Token monotonicity stays a full check
/// — total_tokens() is O(1). check_model_invariants is O(k) on healthy
/// states too, so the two cost about the same (bench_streaming_campaign
/// reports the ratio).
///
/// Soundness: a *legal* atomic action can only change state at its
/// footprint, so any invariant violation a single action introduces is
/// visible there and the incremental verdict equals the full one
/// (tests/test_checker_incremental.cpp fuzzes this equivalence). A sim bug
/// that corrupts state *outside* the last action's footprint is the one
/// class the per-action scan could miss; `full_check_every` schedules a
/// periodic O(n + k) walk (invariants::walk, which trusts no counter) as
/// the safety net for exactly that.
///
/// Contract: reset() on the state you will step, then call
/// check_after_action() after *every* atomic action (the shadow counts
/// track one action at a time; skipped actions surface at the next periodic
/// full check). Failure reasons use the same wording/prefixes as the full
/// checker. The object is pooled like ExecutionState: reset() reuses all
/// arena capacity.
class IncrementalInvariantChecker {
 public:
  struct Options {
    /// Run the O(n + k) reference walk every this many actions (safety
    /// net); 0 = never (pure incremental).
    std::size_t full_check_every = 1024;
  };

  IncrementalInvariantChecker() noexcept = default;
  explicit IncrementalInvariantChecker(Options options) noexcept
      : options_(options) {}

  /// Reconfigures a pooled checker before (re)binding it to a run; takes
  /// effect at the next reset().
  void set_options(Options options) noexcept { options_ = options; }

  /// Binds the checker to `sim`'s *current* configuration: full-validates
  /// it and snapshots the shadow queue-membership counts. Returns the full
  /// check's verdict (a failing starting configuration is reported, not
  /// silently adopted).
  [[nodiscard]] CheckResult reset(const ExecutionState& sim,
                                  std::size_t min_expected_tokens = 0);

  /// Validates the configuration after the one atomic action executed since
  /// the previous call (or reset()).
  [[nodiscard]] CheckResult check_after_action(const ExecutionState& sim,
                                               std::size_t min_expected_tokens);

  /// Full checks executed so far via the safety net (reset() excluded).
  [[nodiscard]] std::size_t full_checks() const noexcept {
    return full_checks_;
  }

 private:
  void rebuild_shadow(const ExecutionState& sim);
  void touch(AgentId id);

  Options options_{};
  std::vector<std::uint32_t> in_queue_count_;      // per agent: #queues holding it
  std::vector<std::vector<AgentId>> queue_shadow_; // per node: last-seen contents
  std::vector<AgentId> touched_;                   // scratch: agents to revalidate
  std::vector<std::uint8_t> touched_mark_;         // scratch: dedup for touched_
  std::size_t actions_since_full_ = 0;
  std::size_t full_checks_ = 0;
};

/// Rendezvous oracle for the baseline contrast: all staying agents at one
/// node.
[[nodiscard]] CheckResult check_gathered(const ExecutionState& sim);

/// g-partial gathering: every agent halted, every link queue empty, and
/// every occupied node hosts at least g co-located agents. g <= 1 reduces
/// to plain termination. This is the pure configuration predicate; it knows
/// nothing about algorithm-detected unsolvability (core::make_goal_oracle
/// layers that on top for unsolvability-aware algorithms).
[[nodiscard]] CheckResult check_partial_gathering(const ExecutionState& sim,
                                                  std::size_t g);

/// Dispersion: every agent halted, every link queue empty, and every
/// occupied node hosts exactly one settled agent (all final positions
/// distinct).
[[nodiscard]] CheckResult check_dispersed(const ExecutionState& sim);

/// The problem-agnostic verification interface every driver (core runner,
/// fuzzer, model checker, campaign engine) routes through.
///
/// An oracle bundles the two judgements a schedule-space search needs:
///
///   * check_goal   — is this quiescent configuration a correct outcome?
///   * check_action — did the last atomic action preserve the reachable-
///                    configuration model invariants? The default forwards
///                    to check_model_invariants, O(k + queued agents) (or,
///                    when the caller passes its pooled
///                    IncrementalInvariantChecker, to its O(dirty)
///                    per-action form); problem-specific oracles may
///                    override it to add per-action safety conditions.
///
/// Oracles are immutable after construction and safe to share across the
/// model checker's worker shards. Concrete oracles for the three problem
/// kinds live below (deployment, partial gathering, dispersion);
/// unsolvability-aware wrappers that must inspect agent programs live in
/// core::make_goal_oracle, which is how drivers obtain the right oracle for
/// an (algorithm, ProblemSpec) pair.
class GoalOracle {
 public:
  virtual ~GoalOracle() = default;

  /// Stable identifier for reports and failure messages.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Judges a quiescent configuration against the problem's goal.
  [[nodiscard]] virtual CheckResult check_goal(
      const ExecutionState& sim) const = 0;

  /// Per-action invariant hook; called by drivers after every atomic
  /// action. `incremental` is the caller's pooled checker (nullptr = run
  /// check_model_invariants).
  [[nodiscard]] virtual CheckResult check_action(
      const ExecutionState& sim, std::size_t min_expected_tokens,
      IncrementalInvariantChecker* incremental = nullptr) const;
};

/// Uniform deployment (the paper's problem). `require_termination` selects
/// Definition 1 (halted) over Definition 2 (suspended, empty mailboxes).
class UniformDeploymentOracle final : public GoalOracle {
 public:
  explicit UniformDeploymentOracle(bool require_termination = true) noexcept
      : require_termination_(require_termination) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return require_termination_ ? "uniform-deployment"
                                : "uniform-deployment-relaxed";
  }
  [[nodiscard]] CheckResult check_goal(
      const ExecutionState& sim) const override;

 private:
  bool require_termination_;
};

/// g-partial gathering as a pure configuration predicate (no
/// unsolvability escape hatch — see check_partial_gathering).
class PartialGatheringOracle final : public GoalOracle {
 public:
  explicit PartialGatheringOracle(std::size_t g) noexcept : g_(g) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "g-partial-gathering";
  }
  [[nodiscard]] CheckResult check_goal(
      const ExecutionState& sim) const override {
    return check_partial_gathering(sim, g_);
  }
  [[nodiscard]] std::size_t g() const noexcept { return g_; }

 private:
  std::size_t g_;
};

/// Dispersion: exactly one settled agent per occupied node.
class DispersionOracle final : public GoalOracle {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "dispersion";
  }
  [[nodiscard]] CheckResult check_goal(
      const ExecutionState& sim) const override {
    return check_dispersed(sim);
  }
};

}  // namespace udring::sim
