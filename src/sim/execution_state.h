// udring/sim/execution_state.h
//
// ExecutionState — the *mutable* half of a run. It points at the immutable
// half, a caller-owned sim::Instance (sim/instance.h), and never owns it.
//
// An ExecutionState owns a global configuration C = (S, T, M, P, Q) exactly
// as Table 2 of the paper defines it:
//
//   S  agent program states            (AgentProgram objects + coroutines)
//   T  node states = token counts      (tokens_)
//   M  undelivered message sequences   (per-agent mailboxes)
//   P  staying sets p_i                (staying_[i])
//   Q  FIFO link queues q_i            (queues_[i]: agents in transit to v_i)
//
// and advances it one *atomic action* at a time under a pluggable fair
// Scheduler. An atomic action (§2.1) is: arrive (if in transit) → receive
// all pending messages → run local computation → optionally broadcast and/or
// release a token → move, stay, wait, suspend, or halt.
//
// Model guarantees enforced structurally:
//  - FIFO links: only the head of each link queue may arrive; arrivals
//    preserve departure order.
//  - Initial buffers: every agent starts *in transit to its home node* and
//    is the sole initial occupant of that queue, so its first action happens
//    at its home before any visitor's action there (§2.1). This rule is
//    load-bearing: without it a fast agent could pass a slow agent's home
//    before its token is dropped and miscount the ring.
//  - No overtaking: an agent is observable only while staying at a node;
//    agents in transit are invisible and cannot be passed except by queueing
//    behind them.
//
// Pooling: reset(const Instance&) rebinds the state to a (possibly
// different) instance while *reusing every arena allocation* — link-queue
// buffers, staying sets, mailboxes, metrics arrays, the enabled set, the
// event log. A campaign that runs thousands of instances through one
// per-worker ExecutionState performs O(k) allocations per run (the agent
// programs and their coroutine frames, which are inherently per-run) instead
// of O(n): the steady-state action loop allocates nothing.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/agent.h"
#include "sim/enabled_set.h"
#include "sim/event_log.h"
#include "sim/instance.h"
#include "sim/link_queue.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"
#include "sim/topology.h"
#include "sim/types.h"

namespace udring::sim {

struct RunResult {
  enum class Outcome { Quiescent, ActionLimit };
  Outcome outcome = Outcome::Quiescent;
  std::size_t actions = 0;

  [[nodiscard]] bool quiescent() const noexcept {
    return outcome == Outcome::Quiescent;
  }
};

/// Observable state of one agent for snapshots (instrumentation only).
struct AgentSnap {
  AgentId id = 0;
  AgentStatus status = AgentStatus::InTransit;
  NodeId node = 0;  ///< staying node, or destination while in transit
  std::size_t moves = 0;
  std::size_t phase = 0;
  std::size_t mailbox_size = 0;
  std::uint64_t state_hash = 0;
};

/// Deep-copyable observable configuration; used by the checker, the ASCII
/// renderer, and the Theorem-5 local-configuration comparison.
struct Snapshot {
  std::size_t node_count = 0;
  std::vector<std::size_t> tokens;            // index = node
  std::vector<AgentSnap> agents;              // index = agent id
  std::vector<std::vector<AgentId>> queues;   // index = destination node
};

class ExecutionState {
 public:
  /// Sentinel for "no agent" (see last_acting_agent()).
  static constexpr AgentId kNoAgentActing = static_cast<AgentId>(-1);

  /// An empty state: reset() it onto an Instance before use. This is the
  /// pooled form — construct once per worker, reset per run.
  ExecutionState() = default;

  /// The one-shot form: default construction plus reset(instance). The
  /// state points at `instance`, which the caller owns and must keep alive
  /// (see reset()); a temporary Instance is rejected at compile time.
  explicit ExecutionState(const Instance& instance) { reset(instance); }
  ExecutionState(Instance&&) = delete;

  ExecutionState(const ExecutionState&) = delete;
  ExecutionState& operator=(const ExecutionState&) = delete;

  /// Rebinds this state to `instance` as configuration C_0, reusing all
  /// existing arena capacity. `instance` must outlive this state's use of it
  /// (until the next reset or destruction); it is NOT owned. Any number of
  /// states may share one Instance concurrently.
  void reset(const Instance& instance);

  /// True once reset onto an instance (default-constructed states are not
  /// runnable until then).
  [[nodiscard]] bool bound() const noexcept { return instance_ != nullptr; }
  [[nodiscard]] const Instance& instance() const { return *instance_; }

  // ---- execution ----------------------------------------------------------

  /// Runs atomic actions under `scheduler` until quiescence (no enabled
  /// agents — Definitions 1/2's terminal shapes) or the action limit.
  RunResult run(Scheduler& scheduler);

  /// Executes one atomic action; returns false when quiescent.
  bool step(Scheduler& scheduler);

  /// Force-steps a specific agent (tests); returns false if not enabled.
  bool step_agent(AgentId id);

  // ---- dynamic-ring rewiring (sim/fault.h) --------------------------------

  /// True while a scheduled rewiring (FaultPlan::rewire_at) awaits its
  /// replacement-cycle choice. run()/step() resolve it at the next choice
  /// point via Scheduler::pick_index; drivers that step agents directly
  /// (the model checker) must resolve it themselves with apply_rewire()
  /// before the next action.
  [[nodiscard]] bool pending_rewire() const noexcept { return pending_rewire_; }

  /// Number of replacement cycles a pending rewiring can choose among
  /// (φ(node_count); see sim/fault.h).
  [[nodiscard]] std::size_t rewire_candidate_count() const noexcept {
    return rewire_candidates_;
  }

  /// Resolves the pending rewiring by installing candidate
  /// `candidate_index` (index into the ascending coprime-stride list).
  /// Throws std::logic_error when no rewiring is pending and
  /// std::out_of_range on a bad index. Changes no agent's enabledness —
  /// only where future moves lead.
  void apply_rewire(std::size_t candidate_index);

  /// The stride of the live successor map; 0 = the instance topology's own
  /// successor (no rewiring applied yet).
  [[nodiscard]] std::size_t live_stride() const noexcept { return live_stride_; }

  /// Rewirings applied so far.
  [[nodiscard]] std::size_t rewires_applied() const noexcept {
    return rewires_applied_;
  }

  /// The *live* forward neighbour of `v`: the instance topology's successor
  /// until a rewiring fires, then the stride ring (v + d) mod n. Every move
  /// the execution makes goes through this — consumers of the
  /// {node, next(node)} footprint bound (sim/footprint.h) must use it, not
  /// Topology::next, or a rewired run would unsound their node sets.
  [[nodiscard]] NodeId live_next(NodeId v) const noexcept {
    if (live_stride_ == 0) return topo_->next(v);
    const NodeId moved = v + live_stride_;
    return moved >= tokens_.size() ? moved - tokens_.size() : moved;
  }

  /// Executes one atomic action for `id`, which MUST currently be enabled —
  /// a Scheduler::draw_batch choice or an enabled().select result (mc's
  /// prefix replay) — so the membership re-check step_agent performs is
  /// skipped. Behaviour is byte-identical to the action run() would execute
  /// for the same choice.
  void step_chosen(AgentId id) { execute_action(id); }

  // ---- inspection ---------------------------------------------------------

  [[nodiscard]] const Topology& topology() const noexcept {
    return instance_->topology();
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return tokens_.size(); }
  [[nodiscard]] std::size_t agent_count() const noexcept { return agents_.size(); }
  [[nodiscard]] const std::vector<NodeId>& homes() const noexcept {
    return instance_->homes();
  }

  /// Number of tokens at `node` (T in the configuration). In this paper's
  /// algorithms it is 0 or 1, but the substrate supports arbitrary counts.
  [[nodiscard]] std::size_t tokens(NodeId node) const { return tokens_.at(node); }
  /// Maintained incrementally (tokens are indelible, so a counter suffices):
  /// O(1), which is what lets per-action oracles check token monotonicity at
  /// n = 10^6 without re-summing the ring.
  [[nodiscard]] std::size_t total_tokens() const noexcept {
    return total_tokens_;
  }
  [[nodiscard]] const std::vector<std::size_t>& token_counts() const noexcept {
    return tokens_;
  }

  [[nodiscard]] AgentStatus status(AgentId id) const { return cell(id).status; }

  /// The node an agent is staying at, or its destination while in transit.
  [[nodiscard]] NodeId agent_node(AgentId id) const { return cell(id).node; }

  /// Agents currently allowed to act (queue heads; schedulable stayers;
  /// parked agents with pending mail), as both the insertion-ordered list
  /// and the id bitset (sim/enabled_set.h). This state is its one writer.
  [[nodiscard]] const EnabledSet& enabled() const noexcept { return enabled_; }

  [[nodiscard]] bool quiescent() const noexcept { return enabled_.empty(); }
  [[nodiscard]] bool all_halted() const noexcept;
  [[nodiscard]] bool all_suspended() const noexcept;

  /// Nodes of all staying agents (one entry per staying agent, sorted).
  [[nodiscard]] std::vector<NodeId> staying_nodes() const;

  [[nodiscard]] std::size_t queue_length(NodeId node) const {
    return queues_.at(node).size();
  }

  /// Σ|q_i|: agents currently held by link queues (in transit, or crashed
  /// in transit). Maintained like total_tokens() — every queue mutation goes
  /// through one private enqueue/dequeue pair that owns this counter — so
  /// it is O(1), which is what lets per-action oracles prove every queue
  /// they did not visit empty without walking the ring.
  [[nodiscard]] std::size_t queued_agents() const noexcept {
    return queued_agents_;
  }

  /// Direct read access to q_node (FIFO order). Checkers iterate this
  /// instead of materializing a Snapshot — per-action oracles must not pay
  /// an O(n + k) allocation to look at two queues.
  [[nodiscard]] const LinkQueue& link_queue(NodeId node) const {
    return queues_.at(node);
  }

  /// The conservative node footprint of the most recently executed atomic
  /// action: the node the agent acted at, plus — when it moved — the
  /// successor it departed to. Every component of the configuration an
  /// action can change (queue membership, staying sets, tokens, the acting
  /// agent's status, co-located mailboxes) lives at one of these nodes; this
  /// is the same {node, next(node)} bound the mc:: sleep sets rely on, and
  /// it is what makes O(dirty) incremental invariant checking sound.
  /// Empty until the first action after a reset.
  [[nodiscard]] std::span<const NodeId> last_action_nodes() const noexcept {
    return {last_action_nodes_.data(), last_action_node_count_};
  }

  /// The agent that executed the most recent action (the only agent whose
  /// status/queue membership that action can have changed).
  /// kNoAgentActing until the first action after a reset.
  [[nodiscard]] AgentId last_acting_agent() const noexcept {
    return last_acting_agent_;
  }

  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] EventLog& log() noexcept { return log_; }
  [[nodiscard]] const EventLog& log() const noexcept { return log_; }

  [[nodiscard]] const AgentProgram& program(AgentId id) const {
    return *cell(id).program;
  }

  [[nodiscard]] Snapshot snapshot() const;

  /// Canonical 64-bit digest of the configuration C = (S, T, M, P, Q): agent
  /// program states (status, node, phase, action count, AgentProgram::
  /// state_hash), token counts, undelivered message sequences, staying
  /// membership (derived from status + node), link-queue contents in FIFO
  /// order, and — only when the instance's FaultPlan carries fault events —
  /// the live fault state (crash cursor, rewire cursor, pending rewiring,
  /// live stride, rewires applied, remaining drop/dup budgets), so what the
  /// adversary may still do is part of the key. Deliberately EXCLUDES causal
  /// timestamps and the event log — they record *history*, not state — so
  /// two schedules that reach the same configuration by commuting
  /// independent actions digest equally. This is the visited-state key of
  /// the mc:: stateless model checker; its fidelity caveat is the
  /// AgentProgram contract that all algorithm state lives in named members
  /// reported by state_hash() (coroutine-frame locals are invisible), which
  /// src/mc's pruned-vs-unpruned equality tests exercise.
  ///
  /// Each agent, each non-zero token count and each non-empty link queue is
  /// hashed on its own short fold64 chain salted with its index, and the
  /// chains are summed: independent chains keep the multiply latency off
  /// one serial dependency. Only equality of digests is meaningful; no
  /// value is pinned.
  [[nodiscard]] std::uint64_t config_digest() const;

  [[nodiscard]] std::size_t actions_executed() const noexcept {
    return action_counter_;
  }
  [[nodiscard]] std::size_t max_actions() const noexcept {
    return options_.max_actions;
  }

 private:
  friend class AgentContext;

  struct AgentCell {
    std::unique_ptr<AgentProgram> program;
    std::unique_ptr<AgentContext> ctx;  ///< stable address; reused across resets
    Behavior behavior;
    AgentStatus status = AgentStatus::InTransit;
    NodeId node = 0;  ///< staying node, or destination while in transit
    bool in_staying_set = false;
    std::vector<Message> mailbox;
    std::uint64_t wake_ts = 0;  ///< max sender stamp among undelivered mail
    std::uint64_t last_ts = 0;
  };

  // Unchecked: agent ids come from the enabled set / queues and are always
  // in range; this sits on the per-action hot path.
  [[nodiscard]] AgentCell& cell(AgentId id) { return agents_[id]; }
  [[nodiscard]] const AgentCell& cell(AgentId id) const { return agents_[id]; }

  // The action engine is one templated body specialized on the two run-mode
  // flags (event logging on? non-FIFO fault injection on?): the campaign hot
  // path runs the <false, false> instantiation with both mode branches
  // compiled out, while the dispatchers below keep the single-definition
  // semantics — all four modes execute the same code, selected per action
  // by two perfectly-predicted branches.
  void execute_action(AgentId id);
  template <bool Logging, bool Fault>
  void execute_action_impl(AgentId id);
  template <bool Logging, bool Fault>
  RunResult run_impl(Scheduler& scheduler);
  void refresh_enabled(AgentId id);
  template <bool Fault>
  void refresh_enabled_impl(AgentId id);
  void add_to_staying(AgentId id);
  void remove_from_staying(AgentId id);
  // The only writers of queues_ after reset() clears them, and so the only
  // owners of queued_agents_. dequeue takes `id` off the head of q_node
  // (or, under the non-FIFO fault, from anywhere in it) and returns false
  // when it is not there.
  void enqueue(NodeId node, AgentId id);
  template <bool Fault>
  [[nodiscard]] bool dequeue(NodeId node, AgentId id);
  /// Fires every fault event due at the current action counter (crash-stop
  /// faults take effect; rewire points become pending). Called at reset and
  /// after every action — guarded by has_fault_events_, so the fault-free
  /// hot path pays one predicted branch.
  void apply_due_faults();
  void apply_crash(AgentId id);
  [[nodiscard]] bool should_be_enabled(AgentId id) const;
  template <bool Fault>
  [[nodiscard]] bool should_be_enabled_impl(AgentId id) const;

  // AgentContext hooks (the acting agent's perceptions and actions).
  [[nodiscard]] std::size_t tokens_at_agent(AgentId id) const;
  [[nodiscard]] std::size_t others_staying_at_agent(AgentId id) const;
  void agent_release_token(AgentId id);
  void agent_broadcast(AgentId id, Message message);
  void agent_set_phase(AgentId id, std::size_t phase);

  const Instance* instance_ = nullptr;
  const Topology* topo_ = nullptr;                 // == &instance_->topology()
  SimOptions options_;                             // copy for hot-path access
  std::vector<std::size_t> tokens_;                // T: token count per node
  std::vector<AgentCell> agents_;
  std::vector<LinkQueue> queues_;                  // q_i: in transit to node i
  std::vector<std::vector<AgentId>> staying_;      // p_i: staying at node i
  std::vector<std::uint64_t> queue_arrival_ts_;    // FIFO causal stamps
  EnabledSet enabled_;
  Metrics metrics_;
  EventLog log_;
  std::size_t action_counter_ = 0;
  std::size_t total_tokens_ = 0;                   // invariant: sum of tokens_
  std::size_t queued_agents_ = 0;                  // invariant: Σ queue sizes
  AgentId acting_agent_ = kNoAgentActing;
  std::array<NodeId, 2> last_action_nodes_{};      // footprint of last action
  std::size_t last_action_node_count_ = 0;
  AgentId last_acting_agent_ = kNoAgentActing;

  // Live fault state (reset() derives it all from options_.faults).
  bool has_fault_events_ = false;   // plan has crashes/rewires/drops/dups
  std::size_t crash_cursor_ = 0;    // next unfired entry of faults.crashes
  std::size_t rewire_cursor_ = 0;   // next unreached entry of faults.rewire_at
  bool pending_rewire_ = false;
  std::size_t live_stride_ = 0;     // 0 = topology successor
  std::size_t rewires_applied_ = 0;
  std::size_t rewire_candidates_ = 0;  // φ(n), cached at reset
  std::size_t drops_remaining_ = 0;
  std::size_t dups_remaining_ = 0;
};

}  // namespace udring::sim
