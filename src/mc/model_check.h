// udring/mc/model_check.h
//
// Exhaustive stateless model checking over the replay choice tree.
//
// The paper's correctness claims are quantified over *every* asynchronous
// schedule; the fuzzer (src/explore) samples that quantifier, this subsystem
// discharges it for small instances. The object being walked is the exact
// choice tree the sorted-enabled-index trace encoding defines: a node is a
// reachable configuration C = (S, T, M, P, Q), its out-edges are the indices
// 0..|enabled|-1 into the sorted enabled set, and every root-to-leaf path IS
// a ScheduleTrace — so a violating path is immediately a replayable artifact
// for `udring_fuzz --replay` and shrink_trace, and "verified" means every
// schedule of the instance was executed (modulo the sound prunings below)
// with check_model_invariants after each action and the algorithm's goal
// oracle at quiescence, exactly the fuzzer's per-run verdict.
//
// The walk is an iterative DFS with an explicit prefix stack over a pooled
// sim::ExecutionState: descending one level is one atomic action; advancing
// to a sibling re-executes the prefix from C_0 (the stateless discipline:
// agents are coroutines, whose frames cannot be copied, so there is no
// snapshot to restore). The replay drives the engine directly, with no
// scheduler in between: each prefix entry is the rank of the agent to step
// in the sorted enabled set, read off the state's enabled bitset
// (EnabledSet::select), or a rewiring candidate index at a
// pending rewiring. An out-of-range entry, early quiescence or a changed
// enabled set at the backtrack target is a determinism bug
// (std::logic_error), so the checker cannot silently wander off the
// recorded branch.
//
// Three prunings, all verdict-preserving (pinned by test_mc.cpp's
// pruned == unpruned grids over every combination of the option flags):
//  - Visited-state dedup on ExecutionState::config_digest(): a configuration
//    reached again (necessarily at the same depth — the digest folds
//    per-agent action counts) is not re-expanded. Combined with sleep sets
//    via the standard subset rule: a state is skipped only when it was
//    previously expanded with a sleep set that is a SUBSET of the current
//    one (the stored exploration covered a superset of the transitions the
//    current visit would explore).
//  - Sleep sets (last-agent independence): after branch `a` of a node is
//    fully explored, `a` sleeps for the node's later branches; a child
//    inherits the sleeping agents that are independent of the edge taken.
//    Independence is conservative footprint disjointness — an enabled
//    agent's next action can only touch its node (arrival, tokens,
//    broadcast, staying set, queue head) and its successor node's link
//    queue (departure), so two agents with disjoint {node, next(node)}
//    footprints commute and cannot enable/disable each other, including
//    under the non-FIFO fault (overtaking eligibility is a queue-membership
//    property of those same nodes).
//  - Dynamic partial-order reduction (Flanagan–Godefroid backtrack sets)
//    over the same dependency relation: each DFS node starts with a single
//    scheduled branch, and when a deeper transition is found to race with
//    the edge out of an ancestor (same agent, or intersecting
//    {node, next(node)} footprints), the racing agent is added to that
//    ancestor's backtrack set — so only representatives of distinct
//    Mazurkiewicz traces are explored, which preserves every reachable
//    quiescent / action-limit configuration and hence the verdict. Because
//    dedup can skip a subtree whose transitions would have seeded backtrack
//    points, each visited entry carries a summary of the agents and nodes
//    its explored subtree touched (the Yang et al. stateful-DPOR repair);
//    a dedup hit replays that summary against every edge on the current
//    stack — the cut edge itself included, whose pre-state is the top frame
//    — and fully re-expands each pre-state whose edge races with it.
//    Auto-disabled beyond 64 agents or 64 nodes (the summaries are
//    bitmasks).
//
// mc::check runs one of two walks:
//  - The tree walk (default): the serial DFS above with every reduction —
//    dedup, sleep sets and DPOR. Deterministic by construction;
//    McStats::shards reads 1.
//  - The closure walk (`shared_visited`): a serial BFS phase expands the
//    tree until a level holds at least a fixed, in-code number of open
//    nodes (16; 1 under event fault plans, whose rewiring levels exist
//    only in the DFS), each of which becomes one DFS shard; shards run
//    across util::parallel_for_workers with one pooled core::RunContext
//    per worker, over one lock-free LockFreeVisitedSet
//    (util/visited_set.h) shared by the BFS phase and every shard. The
//    first arrival at a configuration claims it and expands it, every
//    later arrival from any shard skips it, so the walk is a closure over
//    the state DAG.
//    Path-dependent prunings (sleep sets, DPOR) are force-disabled — a
//    state claimed under one path's sleep set must still be expanded with
//    every branch.
//
// The closure walk's determinism survives the racing claims because every
// reported number is a function of the closure itself, not of who claimed
// what: each reachable state is expanded exactly once by whichever shard
// wins it, each edge out of a claimed state is explored exactly once, all
// paths to a state have equal length (depth is a function of the state),
// the shard count is a function of the instance, and the report folds only
// sums and maxima of those quantities. Verdicts and all counts therefore
// stay byte-identical at any worker count for walks that complete; a
// budget-stopped walk keeps a deterministic verdict but its partial
// counters depend on where the global budget landed. One caveat bounds the
// contract: when the closure's size approaches the shared table's fill
// limit (~7/8 of capacity), whether some insert observes Full — via the
// racy fill gate or a clustered probe run — depends on the racing claim
// order, so the same instance may report "verified" in one run and
// "budget-exhausted" in another at that boundary. The verdict is never
// wrong, only unstably incomplete; size the table (shared_visited_capacity)
// so the closure fits comfortably under the limit and the complete /
// incomplete boundary is deterministic too. A violating instance is
// re-checked with the serial tree walk so the counterexample trace is
// byte-identical too — the shared set accelerates the common "verified"
// case. Its known cost: the default 2^22-slot (32 MiB) table is allocated
// and zeroed per check, which dominates small instances (known-k-full
// n=8/k=3 closes in ~26 ms against ~1.5 ms for the serial tree walk on a
// 4-core Xeon, bench_mc_throughput).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/runner.h"
#include "exp/campaign.h"
#include "explore/trace.h"
#include "sim/topology.h"
#include "util/table.h"

namespace udring::mc {

/// Index into a node's sorted enabled set — the element type of
/// explore::ScheduleTrace::choices. One typedef shared by the DFS stack,
/// the BFS expansion and the shard prefixes so branch arithmetic cannot
/// silently narrow (they formerly mixed std::uint32_t and size_t);
/// mc::check guards the agent count against its range up front, which
/// bounds every enabled-set size.
using branch_index_t = std::uint32_t;
static_assert(
    std::is_same_v<branch_index_t,
                   decltype(explore::ScheduleTrace::choices)::value_type>,
    "branch indices are trace choices; the types must not drift apart");

/// One instance to verify over all schedules: the same coordinates a
/// ScheduleTrace carries, minus the choices (the checker supplies all of
/// them). `topology` empty = the plain ring of node_count.
struct CheckRequest {
  core::Algorithm algorithm = core::Algorithm::KnownKFull;
  /// Goal the instance is verified against (core::make_goal_oracle);
  /// Auto = the algorithm's natural problem. Carried into counterexample
  /// traces so they replay against the same oracle.
  core::ProblemSpec problem;
  std::size_t node_count = 0;
  std::vector<std::size_t> homes;
  sim::Topology topology;
  /// Fault schedule (sim/fault.h) every checked schedule runs under: the
  /// test-only non-FIFO relaxation, crash-stop faults, message
  /// drop/duplication, dynamic-ring rewiring points. Rewiring points add
  /// *choice-tree levels*: at a pending rewiring the node's branches are the
  /// candidate strides instead of agents, so counterexample traces carry the
  /// adversary's rewiring choices in `choices` and replay through the
  /// ordinary pick_index path. Plans with events force the path-dependent
  /// prunings off (sleep sets, DPOR — a crash is a global asymmetric event
  /// their independence relation does not model); dedup stays sound because
  /// config_digest folds the live fault state.
  sim::FaultPlan faults;
  /// Per-schedule action cap; 0 = the simulator's auto limit. Hitting it on
  /// any branch is a violation (livelock or broken algorithm), like the
  /// fuzzer's verdict.
  std::size_t max_actions = 0;
};

/// The reductions and the walk of one mc::check. Every combination of the
/// three prunings, and the closure walk, gives the same verdict
/// (test_mc.cpp); none changes the dedup key, which is always
/// ExecutionState::config_digest().
struct McOptions {
  /// (a) visited-state deduplication on ExecutionState::config_digest().
  bool dedup_states = true;
  /// (b) sleep-set / last-agent independence pruning. Auto-disabled when
  /// the instance has more than 64 agents (the sleep mask is a bitmask —
  /// exhaustive checking far beyond that is hopeless anyway).
  bool sleep_sets = true;
  /// (c) dynamic partial-order reduction (Flanagan–Godefroid backtrack
  /// sets) over the same footprint dependency the sleep sets use, with
  /// per-visited-state subtree summaries repairing the dedup interaction
  /// (header comment). Auto-disabled beyond 64 agents or 64 nodes, and in
  /// the closure walk (the reduction is path-dependent).
  bool dpor = true;
  /// Run the parallel closure walk instead of the serial tree walk: one
  /// lock-free open-addressing hash set (util/visited_set.h) shared by the
  /// BFS phase and every shard. Forces sleep_sets and dpor off; ignored when
  /// dedup_states is off. See the header comment for the determinism
  /// contract and the table's fixed cost.
  bool shared_visited = false;
  /// Slot count of the shared set (0 = auto, currently 2^22 ≈ 32 MiB).
  /// Overflow degrades the verdict to "budget-exhausted", never corrupts
  /// it — but near the fill limit WHICH runs overflow is claim-order
  /// dependent (header comment), so size generously for a deterministic
  /// complete/incomplete boundary.
  std::size_t shared_visited_capacity = 0;
  /// Global budget on executed simulator actions, replays included
  /// (0 = unlimited). The closure walk's shards all meter one shared
  /// counter. Exceeding it yields `complete = false`.
  std::size_t budget_actions = 0;
  /// Worker threads executing the closure walk's shards (resolve_workers
  /// semantics; 0 = all cores). The tree walk is serial. Never affects any
  /// reported number.
  std::size_t workers = 1;
};

struct McStats {
  std::size_t schedules = 0;        ///< complete schedules (quiescent or limit leaves)
  std::size_t states_expanded = 0;  ///< choice-tree nodes expanded
  std::size_t states_deduped = 0;   ///< subtrees cut by the visited-state hash
  std::size_t sleep_pruned = 0;     ///< branches cut by sleep sets
  std::size_t dpor_pruned = 0;      ///< branches cut by DPOR backtrack sets
  std::size_t replays = 0;          ///< prefix re-executions (backtracks)
  std::size_t total_actions = 0;    ///< simulator actions executed, replays included
  std::size_t max_depth = 0;        ///< deepest schedule prefix reached
  /// DFS shards executed: 1 for the tree walk; the closure walk's frontier
  /// size (0 = its BFS phase resolved the whole walk).
  std::size_t shards = 0;
};

struct ModelCheckReport {
  /// True when the (pruned) choice tree was walked to exhaustion within the
  /// budget. `ok && complete` is the "verified over all schedules" verdict.
  bool complete = false;
  /// False as soon as any branch violated an invariant, failed its goal
  /// oracle at quiescence, or hit the action limit.
  bool ok = true;
  /// "verified" | "violation" | "budget-exhausted".
  std::string verdict;
  /// The violating branch's reason, in the fuzzer's exact phrasing
  /// ("invariant: …", "goal: …", or the action-limit text).
  std::string failure_reason;
  /// First counterexample in deterministic walk order, as a replayable
  /// trace: digest and note refreshed from its own replay, so
  /// `udring_fuzz --replay` accepts it like any corpus file.
  std::optional<explore::ScheduleTrace> counterexample;
  McStats stats;

  /// Order-sensitive digest of the verdict and every stat; equality across
  /// worker counts is the determinism contract (test_mc.cpp pins it).
  [[nodiscard]] std::uint64_t digest() const;
};

/// Exhaustively verifies one instance. Deterministic in (request, options):
/// worker count affects wall-clock only.
[[nodiscard]] ModelCheckReport check(const CheckRequest& request,
                                     const McOptions& options = {});

/// Bounded fault-budget enumeration for check_with_faults: how many fault
/// events the adversary may inject per plan, and the latest action index a
/// fault event may be scheduled at (the enumeration is over discrete
/// schedule times, so this bounds the plan space).
struct FaultBudget {
  std::size_t crashes = 0;  ///< max crash-stop faults per plan (0 or 1 typical)
  std::size_t rewires = 0;  ///< max dynamic-ring rewiring points per plan
  std::size_t max_fault_action = 8;  ///< latest at_action considered

  [[nodiscard]] bool empty() const noexcept {
    return crashes == 0 && rewires == 0;
  }
};

/// Exhaustively verifies `request` under EVERY fault plan within `budget`
/// (on top of request.faults): the clean plan first, then every crash
/// assignment (agent × time), every rewiring-point set, and their products,
/// in deterministic lexicographic order. Stops at the first violating plan —
/// the returned report's counterexample trace carries that plan, so the
/// artifact replays stand-alone — otherwise aggregates stats across all
/// plans ("verified" only when every plan's walk completed).
[[nodiscard]] ModelCheckReport check_with_faults(const CheckRequest& request,
                                                 const FaultBudget& budget,
                                                 const McOptions& options = {});

// ---- campaign integration ---------------------------------------------------

/// One exhaustively-checked cell of a campaign grid.
struct GridCell {
  core::Algorithm algorithm = core::Algorithm::KnownKFull;
  exp::ConfigFamily family = exp::ConfigFamily::RandomAny;
  std::size_t node_count = 0;
  std::size_t agent_count = 0;
  std::size_t symmetry = 1;
  std::uint64_t repetition = 0;
  std::vector<std::size_t> homes;  ///< the instance actually checked
  ModelCheckReport report;
  /// Goal the cell was verified against (the grid's problem axis). Kept
  /// last: GridCell predates the field and may be aggregate-initialized.
  core::ProblemSpec problem;
};

struct GridReport {
  std::vector<GridCell> cells;  ///< grid expansion order
  std::size_t violations = 0;
  std::size_t budget_exhausted = 0;

  /// Every cell verified over all schedules (complete && ok).
  [[nodiscard]] bool all_verified() const noexcept {
    return violations == 0 && budget_exhausted == 0;
  }
  [[nodiscard]] std::uint64_t digest() const;

  /// One row per cell: coordinates, schedule/state counts, prune counters,
  /// and a "verified over all schedules" / "VIOLATION" / "budget" verdict —
  /// the exhaustive sibling of exp::CampaignResult::summary_table().
  [[nodiscard]] Table summary_table() const;
  [[nodiscard]] std::string summary() const;
};

/// Exhaustively model-checks every instance of `grid` — the same expansion
/// order and substream-derived home configurations exp::run_campaign
/// samples (exp::scenario_homes), so "verified over all schedules" becomes
/// a grid cell alongside fuzzed/measured cells. The scheduler axis is
/// collapsed (the checker quantifies over every scheduler by construction);
/// grid.sim_options supplies the fault knobs and action cap. Cells run in
/// expansion order; `options` applies per cell.
[[nodiscard]] GridReport check_grid(const exp::CampaignGrid& grid,
                                    const McOptions& options = {});

}  // namespace udring::mc
