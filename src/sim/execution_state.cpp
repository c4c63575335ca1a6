#include "sim/execution_state.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "util/rng.h"

namespace udring::sim {

void ExecutionState::reset(const Instance& instance) {
  instance_ = &instance;
  topo_ = &instance.topology();
  options_ = instance.options();

  const std::size_t n = instance.node_count();
  const std::size_t k = instance.agent_count();

  log_.set_enabled(options_.record_events);
  log_.clear();
  metrics_.reset(k);
  action_counter_ = 0;
  total_tokens_ = 0;
  acting_agent_ = kNoAgentActing;
  last_action_node_count_ = 0;
  last_acting_agent_ = kNoAgentActing;

  // Live fault state, derived once from the (already normalized and
  // validated) plan. The hot path then only ever tests has_fault_events_.
  const FaultPlan& plan = options_.faults;
  has_fault_events_ = plan.has_events();
  crash_cursor_ = 0;
  rewire_cursor_ = 0;
  pending_rewire_ = false;
  live_stride_ = 0;
  rewires_applied_ = 0;
  rewire_candidates_ =
      plan.has_rewires() ? sim::rewire_candidate_count(n) : 0;
  drops_remaining_ = plan.drop_count;
  dups_remaining_ = plan.dup_count;

  tokens_.assign(n, 0);
  queue_arrival_ts_.assign(n, 0);
  // Shrinking keeps the front queues' buffers; growing default-constructs
  // the new tail. Either way existing capacity survives.
  queues_.resize(n);
  staying_.resize(n);
  for (auto& queue : queues_) queue.clear();
  queued_agents_ = 0;
  for (auto& set : staying_) set.clear();
  // Hot-path allocation hygiene: queues and staying sets can never exceed k
  // entries; a small up-front reservation makes steady-state actions
  // allocation-free on typical (k ≪ n) instances. Reserving is a no-op once
  // the pooled buffers have grown to it.
  const std::size_t reserve_per_node = std::min<std::size_t>(k, 8);
  for (auto& queue : queues_) queue.reserve(reserve_per_node);
  for (auto& set : staying_) set.reserve(reserve_per_node);

  enabled_.reset(k);

  agents_.resize(k);
  for (AgentId id = 0; id < k; ++id) {
    AgentCell& c = agents_[id];
    // Destroy the previous run's coroutine before its program (the frame
    // references the program object), then build this run's pair.
    c.behavior = Behavior();
    c.program = instance.factory()(id);
    if (!c.program) {
      throw std::invalid_argument("ExecutionState: factory returned null program");
    }
    if (c.ctx) {
      c.ctx->sim_ = this;
      c.ctx->self_ = id;
      c.ctx->inbox_.clear();
    } else {
      c.ctx = std::make_unique<AgentContext>(*this, id);
    }
    c.behavior = c.program->run(*c.ctx);
    c.status = AgentStatus::InTransit;
    c.node = instance.homes()[id];  // destination: the home node's buffer
    c.in_staying_set = false;
    c.mailbox.clear();
    c.wake_ts = 0;
    c.last_ts = 0;
    enqueue(c.node, id);
  }
  for (AgentId id = 0; id < k; ++id) {
    refresh_enabled(id);
  }
  // Faults due at action counter 0: dead-on-arrival crashes, a rewiring
  // scheduled before the first action.
  if (has_fault_events_) apply_due_faults();
}

template <bool Logging, bool Fault>
RunResult ExecutionState::run_impl(Scheduler& scheduler) {
  RunResult result;
  while (!enabled_.empty()) {
    if (action_counter_ >= options_.max_actions) {
      result.outcome = RunResult::Outcome::ActionLimit;
      result.actions = action_counter_;
      return result;
    }
    if (has_fault_events_ && pending_rewire_) {
      // A scheduled rewiring resolves at the choice point, through the same
      // choice stream agent picks use — the recording/replaying schedulers
      // intercept pick_index, so the rewiring choice is part of the trace.
      apply_rewire(scheduler.pick_index(rewire_candidates_));
      continue;
    }
    execute_action_impl<Logging, Fault>(scheduler.pick(enabled_));
  }
  result.outcome = RunResult::Outcome::Quiescent;
  result.actions = action_counter_;
  return result;
}

RunResult ExecutionState::run(Scheduler& scheduler) {
  scheduler.attach(*this);
  scheduler.reset(agents_.size());
  // Mode dispatch once per run; the loop then executes with both mode
  // branches resolved at compile time.
  if (log_.enabled()) {
    return options_.faults.non_fifo ? run_impl<true, true>(scheduler)
                                    : run_impl<true, false>(scheduler);
  }
  return options_.faults.non_fifo ? run_impl<false, true>(scheduler)
                                  : run_impl<false, false>(scheduler);
}

bool ExecutionState::step(Scheduler& scheduler) {
  if (enabled_.empty()) return false;
  if (has_fault_events_ && pending_rewire_) {
    apply_rewire(scheduler.pick_index(rewire_candidates_));
  }
  execute_action(scheduler.pick(enabled_));
  return true;
}

bool ExecutionState::step_agent(AgentId id) {
  if (!enabled_.contains(id)) return false;
  execute_action(id);
  return true;
}

bool ExecutionState::all_halted() const noexcept {
  return std::all_of(agents_.begin(), agents_.end(), [](const AgentCell& c) {
    return c.status == AgentStatus::Halted;
  });
}

bool ExecutionState::all_suspended() const noexcept {
  return std::all_of(agents_.begin(), agents_.end(), [](const AgentCell& c) {
    return c.status == AgentStatus::Suspended;
  });
}

std::vector<NodeId> ExecutionState::staying_nodes() const {
  std::vector<NodeId> nodes;
  for (const AgentCell& c : agents_) {
    if (c.in_staying_set) nodes.push_back(c.node);
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

Snapshot ExecutionState::snapshot() const {
  Snapshot snap;
  snap.node_count = tokens_.size();
  snap.tokens = tokens_;
  snap.agents.reserve(agents_.size());
  for (AgentId id = 0; id < agents_.size(); ++id) {
    const AgentCell& c = agents_[id];
    AgentSnap a;
    a.id = id;
    a.status = c.status;
    a.node = c.node;
    a.moves = metrics_.agent(id).moves;
    a.phase = metrics_.agent(id).phase;
    a.mailbox_size = c.mailbox.size();
    a.state_hash = c.program->state_hash();
    snap.agents.push_back(a);
  }
  snap.queues.reserve(queues_.size());
  for (const auto& queue : queues_) {
    snap.queues.emplace_back(queue.begin(), queue.end());
  }
  return snap;
}

namespace {

template <class>
inline constexpr bool kUnhandledMessageAlternative = false;

/// Folds one undelivered message into a configuration digest. Every payload
/// field participates: M is part of the configuration, and two states that
/// differ only in a pending message must never dedup together. The visitor
/// is deliberately exhaustive — adding a Message alternative without
/// folding its payload would silently punch a soundness hole in the model
/// checker's visited-state key, so it is a compile error instead.
void fold_message(std::uint64_t& state, const Message& message) {
  fold64(state, message.index());
  std::visit(
      [&state](const auto& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, BaseInfoMessage>) {
          fold64(state, payload.t_base);
          fold64(state, payload.seg_agents);
          fold64(state, payload.ceil_gaps);
          fold64(state, payload.floor_gap);
        } else if constexpr (std::is_same_v<T, EstimateMessage>) {
          fold64(state, payload.n_est);
          fold64(state, payload.k_est);
          fold64(state, payload.nodes_visited);
          fold64(state, payload.distance_seq.size());
          for (const std::size_t d : payload.distance_seq) fold64(state, d);
        } else if constexpr (std::is_same_v<T, TextMessage>) {
          fold64(state, payload.text.size());
          for (const char c : payload.text) {
            fold64(state,
                   static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
          }
        } else {
          static_assert(kUnhandledMessageAlternative<T>,
                        "config_digest: fold every Message payload");
        }
      },
      message);
}

}  // namespace

std::uint64_t ExecutionState::config_digest() const {
  // One chain per component, salted with its kind and index, summed: the
  // sum is order-free, so the chains carry no dependency on one another.
  // The index enters as a golden-ratio multiple, not by xor: a small first
  // field (a status, a count) could cancel an xor-ed index and make two
  // components' chains coincide.
  const auto salt = [](std::uint64_t kind, std::uint64_t index) {
    return kind + index * 0x9e3779b97f4a7c15ULL;
  };
  std::uint64_t components = 0;
  for (AgentId id = 0; id < agents_.size(); ++id) {  // S, M
    const AgentCell& c = agents_[id];
    std::uint64_t chain = salt(0xa6e27c4a17000000ULL, id);  // "agent chain"
    fold64(chain, static_cast<std::uint64_t>(c.status));
    fold64(chain, c.node);
    // Phase and action count are behavioural under the non-FIFO fault
    // (should_be_enabled reads both); including them unconditionally keeps
    // one digest definition for every mode, and commuting schedules agree
    // on per-agent counts, so dedup effectiveness is unaffected.
    fold64(chain, metrics_.agent(id).phase);
    fold64(chain, metrics_.agent(id).actions);
    fold64(chain, c.program->state_hash());
    fold64(chain, c.mailbox.size());
    for (const Message& message : c.mailbox) fold_message(chain, message);
    components += chain;
  }
  // T and Q: a node with no tokens and an empty queue contributes nothing,
  // which the node count folded below makes unambiguous.
  for (NodeId node = 0; node < tokens_.size(); ++node) {
    if (tokens_[node] != 0) {
      std::uint64_t chain = salt(0x70cec4a170000000ULL, node);  // "token chain"
      fold64(chain, tokens_[node]);
      components += chain;
    }
    const LinkQueue& queue = queues_[node];
    if (!queue.empty()) {  // FIFO order is state
      std::uint64_t chain = salt(0x0e0ec4a170000000ULL, node);  // "queue chain"
      fold64(chain, queue.size());
      for (const AgentId member : queue) fold64(chain, member);
      components += chain;
    }
  }
  // P (staying membership) is fully determined by status + node above.
  std::uint64_t state = 0xc0f1Dd16e5700000ULL;  // "config-digest" domain
  fold64(state, components);
  fold64(state, tokens_.size());
  fold64(state, agents_.size());
  // Live fault state, only for plans with fault events: what the adversary
  // may still do is part of the configuration, or mc dedup would merge
  // states with different futures.
  if (has_fault_events_) {
    state ^= 0xfa17d16e57a7e000ULL;  // "fault-state" domain
    fold64(state, crash_cursor_);
    fold64(state, rewire_cursor_);
    fold64(state, pending_rewire_ ? 1 : 0);
    fold64(state, live_stride_);
    fold64(state, rewires_applied_);
    fold64(state, drops_remaining_);
    fold64(state, dups_remaining_);
  }
  return state;
}

// ---- fault events (sim/fault.h) ---------------------------------------------

void ExecutionState::apply_due_faults() {
  const FaultPlan& plan = options_.faults;
  // Crashes before rewire scheduling at the same action index (a rewiring
  // pending at index t resolves at the next choice point, so an agent
  // crashing at t is dead before the new cycle installs).
  while (crash_cursor_ < plan.crashes.size() &&
         plan.crashes[crash_cursor_].at_action <= action_counter_) {
    apply_crash(plan.crashes[crash_cursor_].agent);
    ++crash_cursor_;
  }
  while (rewire_cursor_ < plan.rewire_at.size() &&
         plan.rewire_at[rewire_cursor_] <= action_counter_) {
    pending_rewire_ = true;
    ++rewire_cursor_;
  }
}

void ExecutionState::apply_crash(AgentId id) {
  AgentCell& c = agents_[id];
  if (c.status == AgentStatus::Crashed) return;
  // Crash-stop: freeze in place. An in-transit corpse stays in its link
  // queue (under FIFO it blocks every follower forever — a legitimate
  // degradation the oracles report); a staying/parked corpse remains in
  // p_i. No other agent's enabledness changes: crashing only *removes*
  // this agent from the enabled set.
  c.status = AgentStatus::Crashed;
  refresh_enabled(id);
  if (log_.enabled()) {
    log_.record({action_counter_, EventKind::Halt, id, c.node, c.last_ts, 0});
  }
}

void ExecutionState::apply_rewire(std::size_t candidate_index) {
  if (!pending_rewire_) {
    throw std::logic_error("ExecutionState: no rewiring is pending");
  }
  const std::size_t stride =
      rewire_candidate_stride(tokens_.size(), candidate_index);
  // is_single_cycle_stride holds by construction (coprime stride); the
  // 1-interval-connectivity revalidation is the candidate enumeration
  // itself. Installing the new cycle changes where future moves lead and
  // nothing else — no queue, staying set, mailbox or status is touched, so
  // no agent's enabledness changes.
  live_stride_ = stride;
  pending_rewire_ = false;
  ++rewires_applied_;
}

// ---- action engine ----------------------------------------------------------

void ExecutionState::execute_action(AgentId id) {
  // Per-action mode dispatch for callers outside a mode-specialized loop
  // (step/step_agent/step_chosen): two predictable branches, then the same
  // single action body run_impl executes.
  if (log_.enabled()) {
    options_.faults.non_fifo ? execute_action_impl<true, true>(id)
                             : execute_action_impl<true, false>(id);
  } else {
    options_.faults.non_fifo ? execute_action_impl<false, true>(id)
                             : execute_action_impl<false, false>(id);
  }
}

void ExecutionState::enqueue(NodeId node, AgentId id) {
  queues_[node].push_back(id);
  ++queued_agents_;
}

template <bool Fault>
bool ExecutionState::dequeue(NodeId node, AgentId id) {
  LinkQueue& queue = queues_[node];
  if (!queue.empty() && queue.front() == id) {
    queue.pop_front();
  } else if (!Fault || !queue.remove(id)) {
    // Only fault injection lets an agent jump the queue (see SimOptions).
    return false;
  }
  --queued_agents_;
  return true;
}

template <bool Logging, bool Fault>
void ExecutionState::execute_action_impl(AgentId id) {
  AgentCell& c = agents_[id];
  ++action_counter_;
  // Footprint bookkeeping for incremental oracles: this action can only
  // touch the node it executes at (c.node — the arrival node when in
  // transit, the staying node otherwise) and, if it moves, the successor —
  // the conservative bound sim/footprint.h defines, narrowed post hoc to
  // the nodes actually touched.
  last_acting_agent_ = id;
  last_action_nodes_[0] = c.node;
  last_action_node_count_ = 1;
  // Compile-time: the (default-off) logging mode is a template parameter,
  // so the hot instantiation carries no record sites at all.
  constexpr bool logging = Logging;

  const bool arrival = (c.status == AgentStatus::InTransit);
  std::uint64_t ts = c.last_ts;
  if (arrival) {
    if (!dequeue<Fault>(c.node, id)) {
      throw std::logic_error(
          "ExecutionState: scheduled a non-head in-transit agent");
    }
    const LinkQueue& queue = queues_[c.node];
    ts = std::max(ts, queue_arrival_ts_[c.node]);
    if (!queue.empty()) refresh_enabled_impl<Fault>(queue.front());
  } else if (!c.mailbox.empty()) {
    ts = std::max(ts, c.wake_ts);
  }
  ts += 1;
  c.last_ts = ts;
  if (arrival) {
    queue_arrival_ts_[c.node] = ts;
    if constexpr (logging) {
      log_.record({action_counter_, EventKind::Arrive, id, c.node, ts, 0});
    }
  }

  // Receive all pending messages (step 2 of the atomic action). Swapping
  // (not move-assigning) ping-pongs the two buffers, so their capacities are
  // recycled and steady-state delivery never heap-allocates.
  std::swap(c.ctx->inbox_, c.mailbox);
  c.mailbox.clear();
  c.wake_ts = 0;

  // Local computation + broadcasts + token drops (steps 3–5).
  acting_agent_ = id;
  const Request request = c.behavior.resume();
  acting_agent_ = kNoAgentActing;
  c.ctx->inbox_.clear();

  AgentMetrics& m = metrics_.agent(id);
  ++m.actions;
  m.causal_time = ts;
  m.peak_memory_bits = std::max(m.peak_memory_bits, c.program->memory_bits());

  switch (request) {
    case Request::Move: {
      if (c.in_staying_set) remove_from_staying(id);
      if constexpr (logging) {
        log_.record({action_counter_, EventKind::Depart, id, c.node, ts, 0});
      }
      const NodeId dest = live_next(c.node);
      c.status = AgentStatus::InTransit;
      c.node = dest;
      enqueue(dest, id);
      if (dest != last_action_nodes_[0]) {
        last_action_nodes_[1] = dest;
        last_action_node_count_ = 2;
      }
      m.count_move();
      break;
    }
    case Request::Stay:
      c.status = AgentStatus::Staying;
      if (!c.in_staying_set) add_to_staying(id);
      if constexpr (logging) {
        log_.record({action_counter_, EventKind::StayPut, id, c.node, ts, 0});
      }
      break;
    case Request::WaitMessage:
      c.status = AgentStatus::Waiting;
      if (!c.in_staying_set) add_to_staying(id);
      if constexpr (logging) {
        log_.record({action_counter_, EventKind::EnterWait, id, c.node, ts, 0});
      }
      break;
    case Request::Suspend:
      c.status = AgentStatus::Suspended;
      if (!c.in_staying_set) add_to_staying(id);
      if constexpr (logging) {
        log_.record(
            {action_counter_, EventKind::EnterSuspend, id, c.node, ts, 0});
      }
      break;
    case Request::Done:
      c.status = AgentStatus::Halted;
      if (!c.in_staying_set) add_to_staying(id);
      if constexpr (logging) {
        log_.record({action_counter_, EventKind::Halt, id, c.node, ts, 0});
      }
      break;
    case Request::None:
      throw std::logic_error("ExecutionState: agent yielded no request");
  }

  refresh_enabled_impl<Fault>(id);
  if constexpr (Fault) {
    // Overtaking eligibility depends on whether queue *predecessors* have
    // acted, which any action can change; the cheap full sweep is fine on
    // this test-only path.
    for (AgentId other = 0; other < agents_.size(); ++other) {
      refresh_enabled_impl<Fault>(other);
    }
  }
  // Event faults keyed to the new action count fire now — after the
  // action's own bookkeeping, before the next choice point.
  if (has_fault_events_) apply_due_faults();
}

bool ExecutionState::should_be_enabled(AgentId id) const {
  return options_.faults.non_fifo ? should_be_enabled_impl<true>(id)
                                  : should_be_enabled_impl<false>(id);
}

template <bool Fault>
bool ExecutionState::should_be_enabled_impl(AgentId id) const {
  const AgentCell& c = cell(id);
  switch (c.status) {
    case AgentStatus::InTransit: {
      const auto& queue = queues_[c.node];
      if (queue.empty()) return false;
      if (queue.front() == id) return true;
      if constexpr (!Fault) return false;
      // Fault injection: enabled from any position, but never overtaking an
      // agent that has not yet had its first action (the initial occupant of
      // its home buffer) — that would break the home-node-first rule, which
      // is not the guarantee under test — and only within the configured
      // phase window.
      if (metrics_.agent(id).phase < options_.faults.non_fifo_min_phase) {
        return false;
      }
      // Overtaking closes again once the action counter leaves
      // [0, until). 0 = open-ended.
      if (options_.faults.non_fifo_until_action != 0 &&
          action_counter_ >= options_.faults.non_fifo_until_action) {
        return false;
      }
      for (const AgentId member : queue) {
        if (member == id) return true;
        if (metrics_.agent(member).actions == 0 ||
            metrics_.agent(member).phase < options_.faults.non_fifo_min_phase) {
          return false;
        }
      }
      return false;
    }
    case AgentStatus::Staying:
      return true;
    case AgentStatus::Waiting:
    case AgentStatus::Suspended:
      return !c.mailbox.empty();
    case AgentStatus::Halted:
    case AgentStatus::Crashed:
      return false;
  }
  return false;
}

void ExecutionState::refresh_enabled(AgentId id) {
  options_.faults.non_fifo ? refresh_enabled_impl<true>(id)
                           : refresh_enabled_impl<false>(id);
}

template <bool Fault>
void ExecutionState::refresh_enabled_impl(AgentId id) {
  const bool want = should_be_enabled_impl<Fault>(id);
  if (want == enabled_.contains(id)) return;
  if (want) {
    enabled_.insert(id);
  } else {
    enabled_.erase(id);
  }
}

void ExecutionState::add_to_staying(AgentId id) {
  AgentCell& c = cell(id);
  staying_[c.node].push_back(id);
  c.in_staying_set = true;
}

void ExecutionState::remove_from_staying(AgentId id) {
  AgentCell& c = cell(id);
  auto& set = staying_[c.node];
  set.erase(std::remove(set.begin(), set.end(), id), set.end());
  c.in_staying_set = false;
}

// ---- AgentContext hooks ------------------------------------------------------

std::size_t ExecutionState::tokens_at_agent(AgentId id) const {
  return tokens_[cell(id).node];
}

std::size_t ExecutionState::others_staying_at_agent(AgentId id) const {
  const AgentCell& c = cell(id);
  const std::size_t here = staying_[c.node].size();
  return c.in_staying_set ? here - 1 : here;
}

void ExecutionState::agent_release_token(AgentId id) {
  const AgentCell& c = cell(id);
  ++tokens_[c.node];
  ++total_tokens_;
  if (log_.enabled()) {
    log_.record({action_counter_, EventKind::TokenDrop, id, c.node, c.last_ts, 0});
  }
}

void ExecutionState::agent_broadcast(AgentId id, Message message) {
  const AgentCell& sender = cell(id);
  const bool logging = log_.enabled();
  // Link faults (sim/fault.h): bounded broadcast drops and duplications.
  // Both budgets tick only on broadcasts with at least one deliverable
  // receiver — an unobservable drop must not burn the budget, or commuting
  // schedules would disagree on the remaining count for no semantic reason.
  std::size_t copies = 1;
  if (has_fault_events_ && (drops_remaining_ > 0 || dups_remaining_ > 0)) {
    bool deliverable = false;
    for (const AgentId other : staying_[sender.node]) {
      if (other == id) continue;
      const AgentStatus s = cell(other).status;
      if (s != AgentStatus::Halted && s != AgentStatus::Crashed) {
        deliverable = true;
        break;
      }
    }
    if (deliverable) {
      if (drops_remaining_ > 0 &&
          action_counter_ >= options_.faults.drop_from_action) {
        --drops_remaining_;
        if (logging) {
          log_.record({action_counter_, EventKind::Broadcast, id, sender.node,
                       sender.last_ts, 0});
        }
        return;  // the whole broadcast vanishes
      }
      if (dups_remaining_ > 0 &&
          action_counter_ >= options_.faults.dup_from_action) {
        --dups_remaining_;
        copies = 2;  // at-least-once delivery: every receiver sees it twice
      }
    }
  }
  std::size_t receivers = 0;
  for (const AgentId other : staying_[sender.node]) {
    if (other == id) continue;
    AgentCell& rc = cell(other);
    if (rc.status == AgentStatus::Halted ||
        rc.status == AgentStatus::Crashed) {
      continue;  // Definition 1 halts; crash-stop corpses receive nothing
    }
    for (std::size_t copy = 0; copy < copies; ++copy) {
      rc.mailbox.push_back(message);
    }
    rc.wake_ts = std::max(rc.wake_ts, sender.last_ts);
    const bool was_enabled = enabled_.contains(other);
    refresh_enabled(other);
    if (logging && !was_enabled && enabled_.contains(other)) {
      log_.record({action_counter_, EventKind::Wake, other, rc.node, sender.last_ts, id});
    }
    ++receivers;
  }
  if (logging) {
    log_.record({action_counter_, EventKind::Broadcast, id, sender.node,
                 sender.last_ts, receivers});
  }
}

void ExecutionState::agent_set_phase(AgentId id, std::size_t phase) {
  metrics_.agent(id).phase = phase;
}

}  // namespace udring::sim
