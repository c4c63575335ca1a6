#include "mc/model_check.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "explore/fuzz.h"
#include "sim/checker.h"
#include "sim/footprint.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace udring::mc {

namespace {

constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();
/// Bitmask width shared by sleep sets, DPOR backtrack sets and summaries.
constexpr std::size_t kMaskAgents = 64;

using AgentMask = std::uint64_t;

/// Open nodes the closure walk's serial BFS phase collects before each one
/// becomes a DFS shard. A constant, so the shard decomposition (and
/// McStats::shards) is a function of the instance alone. Measured on
/// bench_mc_throughput's cells with 4 workers on a 4-core host: frontiers
/// of 8, 16, 32 and 64 ran within noise of one another, while 4 shards
/// balanced badly (known-k-full n=24/k=4: 380 ms against 141-183 ms).
constexpr std::size_t kClosureFrontier = 16;

/// A choice-tree node as the schedule prefix that reaches it.
using Prefix = std::vector<branch_index_t>;

/// What one Explorer (a tree walk or one closure-walk shard) found.
struct WalkOutcome {
  McStats stats;
  bool budget_stop = false;
  /// First violation in the walk's deterministic order: path and reason.
  std::optional<std::pair<Prefix, std::string>> violation;
};

/// Visited-state store for the serial tree walk. Sleep masks
/// feed the subset rule; the subtree summary (agents acted / nodes touched
/// below the state, complete once the state's frame pops) is what lets DPOR
/// stay sound across dedup cuts — see model_check.h.
struct VisitedEntry {
  std::vector<AgentMask> masks;
  AgentMask sub_agents = 0;
  std::uint64_t sub_nodes = 0;
  bool summary_recorded = false;
};
using VisitedMap = std::unordered_map<std::uint64_t, VisitedEntry>;

[[nodiscard]] sim::Instance build_instance(const CheckRequest& request) {
  core::RunSpec spec;
  spec.node_count = request.node_count;
  spec.homes = request.homes;
  spec.topology = request.topology;
  spec.problem = request.problem;
  spec.sim_options.record_events = false;  // history is not state; stay lean
  spec.sim_options.max_actions = request.max_actions;
  spec.sim_options.faults = request.faults;
  return core::make_instance(request.algorithm, spec);
}

/// One stateless DFS (or BFS-expansion) engine over one pooled
/// ExecutionState. Not thread-safe; closure-walk shards own independent
/// Explorers that share the claim set, the global action counter and the
/// stop flag — all the cross-thread state there is.
class Explorer {
 public:
  Explorer(const sim::Instance& instance, const sim::GoalOracle& oracle,
           const McOptions& options, sim::ExecutionState& state,
           std::size_t budget, LockFreeVisitedSet* shared_visited = nullptr,
           std::atomic<std::size_t>* shared_actions = nullptr,
           std::atomic<bool>* stop_flag = nullptr)
      : instance_(instance),
        oracle_(oracle),
        options_(options),
        cur_(state),
        budget_(budget),
        shared_(shared_visited),
        shared_actions_(shared_actions),
        stop_flag_(stop_flag) {}

  McStats stats;
  bool budget_stop = false;
  /// First violation in this explorer's deterministic walk order.
  std::optional<std::pair<Prefix, std::string>> violation;

  [[nodiscard]] WalkOutcome outcome() && {
    return {stats, budget_stop, std::move(violation)};
  }

  /// Walks the whole subtree rooted at `prefix` by iterative DFS. The prefix
  /// node must be an open interior node (the tree root, or a node the
  /// closure walk's BFS phase classified as open).
  void dfs(const Prefix& prefix) {
    path_ = prefix;
    reposition();
    std::vector<Frame> stack;
    stack.push_back(make_frame(0, 0, 0, 0, root_dedup_key()));
    if (options_.dpor) dpor_push_update(stack);

    while (!stack.empty() && !violation && !budget_stop && !should_stop()) {
      Frame& f = stack.back();
      const int b = pick_branch(f);
      if (b < 0) {
        pop_frame(stack);
        continue;
      }
      if (f.rewire) {
        // Rewire node: the branch is a candidate stride index, not an agent.
        // Applying it consumes no simulator action — the configuration
        // changes only in its live successor map — so the child classifies
        // like any configuration (dedup folds the fault state).
        if (!at_tip_) {
          reposition();
          if (!cur_.pending_rewire()) {
            throw std::logic_error(
                "mc: rewiring point vanished on backtrack replay "
                "(determinism bug)");
          }
        }
        path_.push_back(static_cast<branch_index_t>(b));
        cur_.apply_rewire(static_cast<std::size_t>(b));
        DedupHit hit;
        const NodeClass cls =
            classify(f.sleep, cur_.total_tokens(), &hit);
        if (cls == NodeClass::Open) {
          stack.push_back(make_frame(f.sleep, f.entered_agent, f.entered_n1,
                                     f.entered_n2, hit.key));
        } else {
          path_.pop_back();
          at_tip_ = false;
        }
        continue;
      }
      if (!at_tip_) {
        reposition();
        if (cur_.enabled().size() != f.branches ||
            current_enabled_mask() != f.enabled_mask) {
          throw std::logic_error(
              "mc: enabled set changed on backtrack replay (determinism bug)");
        }
      }
      const sim::AgentId agent =
          cur_.enabled().select(static_cast<std::size_t>(b));
      const AgentMask child_sleep =
          inherit_sleep(f.enabled_mask, f.sleep, agent);
      const std::size_t prev_tokens = cur_.total_tokens();
      // Footprint of the edge about to be taken, captured pre-step (the
      // shared {node, next(node)} bound from sim/footprint.h).
      const sim::ActionFootprint fp = sim::action_footprint(cur_, agent);
      const sim::NodeId n1 = fp.node;
      const sim::NodeId n2 = fp.next;
      path_.push_back(static_cast<branch_index_t>(b));
      step(agent);
      DedupHit hit;
      const NodeClass cls = classify(child_sleep, prev_tokens, &hit);
      if (cls == NodeClass::Open) {
        stack.push_back(make_frame(child_sleep, agent, n1, n2, hit.key));
        if (options_.dpor) dpor_push_update(stack);
      } else {
        path_.pop_back();
        at_tip_ = false;
        Frame& parent = stack.back();  // f may dangle after push; re-take
        if (options_.sleep_sets) parent.sleep |= bit(agent);
        if (options_.dpor) {
          // The edge (and, on a dedup hit, the whole skipped subtree) is
          // behaviour under this frame: fold it into the running summary
          // and re-arm any ancestor whose edge races with it.
          parent.sub_agents |= bit(agent) | hit.sub_agents;
          parent.sub_nodes |= node_bit(n1) | node_bit(n2) | hit.sub_nodes;
          if (cls == NodeClass::DedupLeaf) {
            dpor_dedup_update(stack, hit, agent, n1, n2);
          }
        }
      }
    }
  }

  /// Expands every node of `level` one step, appending the open children to
  /// `next` (the closure walk's BFS phase, where sleep sets and DPOR are
  /// off). Stops early on violation or budget exhaustion.
  void expand_level(const std::vector<Prefix>& level,
                    std::vector<Prefix>& next) {
    for (const Prefix& node : level) {
      if (violation || budget_stop || should_stop()) return;
      path_ = node;
      reposition();
      ++stats.states_expanded;
      const auto branch_count =
          static_cast<branch_index_t>(cur_.enabled().size());
      for (branch_index_t b = 0; b < branch_count; ++b) {
        if (violation || budget_stop || should_stop()) return;
        if (!at_tip_) {
          path_ = node;
          reposition();
        }
        const sim::AgentId agent = cur_.enabled().select(b);
        const std::size_t prev_tokens = cur_.total_tokens();
        path_.push_back(b);
        step(agent);
        DedupHit hit;
        if (classify(0, prev_tokens, &hit) == NodeClass::Open) {
          next.push_back(path_);
        }
        path_.pop_back();
        at_tip_ = false;
      }
    }
  }

 private:
  struct Frame {
    /// Enabled set at this node (0 beyond 64 agents, where the mask-driven
    /// prunings are off); branch b is its b-th smallest agent id.
    AgentMask enabled_mask = 0;
    AgentMask sleep = 0;
    AgentMask done = 0;       ///< branches explored (or sleep-handled)
    AgentMask backtrack = 0;  ///< DPOR: branches scheduled for exploration
    AgentMask sub_agents = 0;    ///< DPOR summary: agents acted below
    std::uint64_t sub_nodes = 0; ///< DPOR summary: nodes touched below
    std::uint64_t dedup_key = 0; ///< visited key (summary write-back)
    /// Enabled agents, or rewiring candidates at a rewire node.
    branch_index_t branches = 0;
    branch_index_t next_branch = 0;  ///< cursor: rewire node, > 64 agents
    bool rewire = false;             ///< branches = rewiring candidate strides
    sim::AgentId entered_agent = 0;  ///< edge into this node (parent's pick)
    sim::NodeId entered_n1 = 0;      ///< that edge's footprint
    sim::NodeId entered_n2 = 0;
  };

  enum class NodeClass { Open, Leaf, DedupLeaf };

  /// What classify() learned at a node, for the DFS to thread into frames:
  /// the visited key of an open node, or the stored subtree summary of a
  /// dedup hit.
  struct DedupHit {
    std::uint64_t key = 0;
    AgentMask sub_agents = 0;
    std::uint64_t sub_nodes = 0;
    bool summary_valid = false;
  };

  [[nodiscard]] static AgentMask bit(sim::AgentId agent) noexcept {
    return AgentMask{1} << agent;
  }
  [[nodiscard]] static std::uint64_t node_bit(sim::NodeId node) noexcept {
    return std::uint64_t{1} << node;
  }
  [[nodiscard]] bool masks_usable() const noexcept {
    return cur_.agent_count() <= kMaskAgents;
  }
  /// cur_'s enabled set as a frame mask (0 when masks are unusable).
  [[nodiscard]] AgentMask current_enabled_mask() const noexcept {
    return masks_usable() ? cur_.enabled().words().front() : 0;
  }
  [[nodiscard]] bool should_stop() const noexcept {
    return stop_flag_ != nullptr && stop_flag_->load(std::memory_order_relaxed);
  }

  [[nodiscard]] Frame make_frame(AgentMask sleep, sim::AgentId entered,
                                 sim::NodeId n1, sim::NodeId n2,
                                 std::uint64_t dedup_key) {
    if (cur_.pending_rewire()) {
      // A pending rewiring is its own choice-tree level: branches are the
      // candidate stride indices. The path-dependent prunings are forced
      // off under event plans (mc::check), so the frame only needs the
      // sequential branch cursor.
      ++stats.states_expanded;
      Frame f;
      f.rewire = true;
      f.branches = static_cast<branch_index_t>(cur_.rewire_candidate_count());
      f.sleep = sleep;
      f.entered_agent = entered;
      f.entered_n1 = n1;
      f.entered_n2 = n2;
      f.dedup_key = dedup_key;
      return f;
    }
    ++stats.states_expanded;
    Frame f;
    f.enabled_mask = current_enabled_mask();
    f.branches = static_cast<branch_index_t>(cur_.enabled().size());
    f.sleep = sleep;
    f.entered_agent = entered;
    f.entered_n1 = n1;
    f.entered_n2 = n2;
    f.dedup_key = dedup_key;
    if (options_.dpor) {
      // FG initialization: schedule one branch; every other branch runs
      // only if some deeper race re-arms it (dpor_push_update /
      // dpor_dedup_update).
      const AgentMask awake = f.enabled_mask & ~f.sleep;
      f.backtrack = awake == 0 ? 0 : awake & (~awake + 1);  // lowest bit
    } else {
      f.backtrack = ~AgentMask{0};
    }
    return f;
  }

  /// Next branch of `f` to explore, or -1 when the frame is exhausted.
  /// Bitmask-driven (lowest eligible agent id = sorted branch order, so the
  /// walk order matches the historical sequential scan when DPOR is off);
  /// falls back to a plain scan when the instance exceeds the mask width,
  /// where sleep sets and DPOR are auto-disabled anyway.
  [[nodiscard]] int pick_branch(Frame& f) {
    if (f.rewire || !masks_usable()) {
      if (f.next_branch >= f.branches) return -1;
      return static_cast<int>(f.next_branch++);
    }
    const AgentMask avail =
        f.backtrack & f.enabled_mask & ~f.done & ~f.sleep;
    if (avail == 0) return -1;
    const AgentMask lowest = avail & (~avail + 1);
    f.done |= lowest;
    // The branch index is the agent's rank among the enabled ids.
    return std::popcount(f.enabled_mask & (lowest - 1));
  }

  /// Pops the exhausted top frame: accounts the branches DPOR / sleep sets
  /// left unexplored, writes the subtree summary back to the visited entry,
  /// and propagates both the sleep-set edge rule and the summary to the
  /// parent.
  void pop_frame(std::vector<Frame>& stack) {
    Frame& f = stack.back();
    if (masks_usable()) {
      const AgentMask unexplored = f.enabled_mask & ~f.done;
      stats.sleep_pruned += std::popcount(unexplored & f.sleep);
      if (options_.dpor) {
        stats.dpor_pruned += std::popcount(unexplored & ~f.sleep);
      }
    }
    if (options_.dpor && options_.dedup_states) {
      const auto it = visited_.find(f.dedup_key);
      if (it != visited_.end()) {
        it->second.sub_agents |= f.sub_agents;
        it->second.sub_nodes |= f.sub_nodes;
        it->second.summary_recorded = true;
      }
    }
    const sim::AgentId entered = f.entered_agent;
    const AgentMask sub_agents = f.sub_agents | bit(entered);
    const std::uint64_t sub_nodes =
        f.sub_nodes | node_bit(f.entered_n1) | node_bit(f.entered_n2);
    stack.pop_back();
    if (!stack.empty()) {
      path_.pop_back();
      at_tip_ = false;
      Frame& parent = stack.back();
      if (options_.sleep_sets) parent.sleep |= bit(entered);
      if (options_.dpor) {
        parent.sub_agents |= sub_agents;
        parent.sub_nodes |= sub_nodes;
      }
    }
  }

  /// The FG race scan for the freshly pushed top frame: for every branch p
  /// enabled there, find the DEEPEST stack edge dependent with p's next
  /// action (same agent, or intersecting {node, next(node)} footprints) and
  /// re-arm p at that edge's pre-state — the heart of dynamic POR. cur_
  /// must be positioned at the new frame's state.
  void dpor_push_update(std::vector<Frame>& stack) {
    if (stack.size() < 2) return;
    const Frame& top = stack.back();
    for (AgentMask rest = top.enabled_mask; rest != 0; rest &= rest - 1) {
      const auto p = static_cast<sim::AgentId>(std::countr_zero(rest));
      const sim::ActionFootprint pfp = sim::action_footprint(cur_, p);
      for (std::size_t i = stack.size() - 1; i >= 1; --i) {
        const Frame& child = stack[i];  // edge stack[i-1] -> stack[i]
        const bool dependent =
            child.entered_agent == p ||
            sim::ActionFootprint{child.entered_n1, child.entered_n2}.overlaps(
                pfp);
        if (!dependent) continue;
        Frame& pre = stack[i - 1];
        if ((pre.enabled_mask & bit(p)) != 0) {
          pre.backtrack |= bit(p);
        } else {
          pre.backtrack = pre.enabled_mask;
        }
        break;
      }
    }
  }

  /// Stateful-DPOR repair on a dedup cut: the skipped subtree's transitions
  /// (aggregated as agent / node masks) may race with edges on the current
  /// stack — the cut edge included — and those races can no longer seed
  /// backtrack points from below, so fully re-arm every pre-state whose edge
  /// intersects the summary. The cut edge (cut_agent, cut_n1, cut_n2) is not
  /// a stack frame, but its pre-state IS stack.back(): a subtree transition
  /// racing with it would, in the unskipped walk, have re-armed exactly that
  /// frame (the Yang et al. repair), so stack.back() is checked against the
  /// RAW subtree summary while deeper frames see the summary plus the cut
  /// edge's own footprint. A hit without a recorded summary (should not
  /// occur; defensive) re-arms every frame, stack.back() included.
  void dpor_dedup_update(std::vector<Frame>& stack, const DedupHit& hit,
                         sim::AgentId cut_agent, sim::NodeId cut_n1,
                         sim::NodeId cut_n2) {
    Frame& top = stack.back();
    const bool cut_races =
        !hit.summary_valid || ((hit.sub_agents >> cut_agent) & 1) != 0 ||
        ((node_bit(cut_n1) | node_bit(cut_n2)) & hit.sub_nodes) != 0;
    if (cut_races) {
      // FG rule at the cut edge's pre-state: every subtree transition's
      // agent is in the summary mask, so when they are all enabled here,
      // re-arming exactly those suffices; a missing summary or a disabled
      // summary agent forces the full re-arm.
      if (hit.summary_valid && (hit.sub_agents & ~top.enabled_mask) == 0) {
        top.backtrack |= hit.sub_agents;
      } else {
        top.backtrack = top.enabled_mask;
      }
    }
    const AgentMask sub_agents = hit.sub_agents | bit(cut_agent);
    const std::uint64_t sub_nodes =
        hit.sub_nodes | node_bit(cut_n1) | node_bit(cut_n2);
    for (std::size_t i = stack.size(); i >= 2; --i) {
      const Frame& child = stack[i - 1];
      const bool races =
          !hit.summary_valid ||
          ((sub_agents >> child.entered_agent) & 1) != 0 ||
          ((node_bit(child.entered_n1) | node_bit(child.entered_n2)) &
           sub_nodes) != 0;
      if (races) {
        Frame& pre = stack[i - 2];
        pre.backtrack = pre.enabled_mask;
      }
    }
  }

  /// Re-executes the current prefix from C_0, driving the engine directly:
  /// an entry at a pending rewiring is a candidate stride index (no
  /// simulator action), every other entry the rank of the agent to step in
  /// the sorted enabled set — the interpretation the DFS recorded the path
  /// under. A prefix that no longer replays exactly means the simulator is
  /// not deterministic in the choice sequence, a checker-invalidating bug
  /// reported loudly.
  void reposition() {
    cur_.reset(instance_);
    if (!path_.empty()) {
      std::size_t actions = 0;
      for (const branch_index_t entry : path_) {
        if (cur_.pending_rewire()) {
          if (entry >= cur_.rewire_candidate_count()) {
            throw std::logic_error(
                "mc: rewiring index out of range on prefix replay "
                "(determinism bug)");
          }
          cur_.apply_rewire(entry);
          continue;
        }
        if (cur_.quiescent()) {
          throw std::logic_error("mc: prefix replay hit quiescence early");
        }
        if (entry >= cur_.enabled().size()) {
          throw std::logic_error(
              "mc: choice out of range on prefix replay (determinism bug)");
        }
        cur_.step_chosen(cur_.enabled().select(entry));
        ++actions;
      }
      ++stats.replays;
      stats.total_actions += actions;
      if (shared_actions_ != nullptr) {
        shared_actions_->fetch_add(actions, std::memory_order_relaxed);
      }
    }
    at_tip_ = true;
  }

  void step(sim::AgentId agent) {
    if (!cur_.step_agent(agent)) {
      throw std::logic_error("mc: picked agent not enabled");
    }
    ++stats.total_actions;
    if (shared_actions_ != nullptr) {
      shared_actions_->fetch_add(1, std::memory_order_relaxed);
    }
    stats.max_depth = std::max(stats.max_depth, path_.size());
  }

  /// Sleeping agents that stay asleep across the edge taken by `agent`:
  /// those whose pending action is independent of it (conservative
  /// footprint disjointness on {node, next(node)}). `enabled_mask` is the
  /// node's enabled set (sleep ⊆ enabled always holds — see model_check.h).
  [[nodiscard]] AgentMask inherit_sleep(AgentMask enabled_mask, AgentMask sleep,
                                        sim::AgentId agent) const {
    if (!options_.sleep_sets || sleep == 0) return 0;
    AgentMask child = 0;
    for (AgentMask rest = sleep & enabled_mask; rest != 0; rest &= rest - 1) {
      const auto z = static_cast<sim::AgentId>(std::countr_zero(rest));
      if (independent(z, agent)) child |= bit(z);
    }
    return child;
  }

  [[nodiscard]] bool independent(sim::AgentId a, sim::AgentId b) const {
    return sim::independent_actions(cur_, a, b);
  }

  /// Key for a shard/tree root frame — only needed for the DPOR summary
  /// write-back, so skip the digest work otherwise.
  [[nodiscard]] std::uint64_t root_dedup_key() const {
    if (options_.dpor && options_.dedup_states) {
      return cur_.config_digest();
    }
    return 0;
  }

  /// Classifies the configuration just stepped into. Open means interior:
  /// the caller pushes a frame / emits a BFS child. Everything else is a
  /// leaf — quiescent schedule, violation, action limit, budget stop, or a
  /// dedup hit (reported separately so DPOR can replay the skipped
  /// subtree's summary). Mirrors the fuzzer's drive_checked verdicts
  /// exactly, so a counterexample replays to the same failure.
  [[nodiscard]] NodeClass classify(AgentMask sleep, std::size_t prev_tokens,
                                   DedupHit* hit) {
    const sim::CheckResult invariants = oracle_.check_action(cur_, prev_tokens);
    if (!invariants) {
      violation = {path_, "invariant: " + invariants.reason};
      signal_stop();
      return NodeClass::Leaf;
    }
    if (cur_.quiescent()) {
      ++stats.schedules;
      const sim::CheckResult goal = oracle_.check_goal(cur_);
      if (!goal) {
        violation = {path_, "goal: " + goal.reason};
        signal_stop();
      }
      return NodeClass::Leaf;
    }
    if (cur_.actions_executed() >= cur_.max_actions()) {
      ++stats.schedules;
      violation = {path_, "action limit reached (livelock or broken algorithm)"};
      signal_stop();
      return NodeClass::Leaf;
    }
    if (budget_ != kUnlimited && actions_spent() >= budget_) {
      budget_stop = true;
      return NodeClass::Leaf;
    }
    if (!options_.dedup_states) return NodeClass::Open;

    const std::uint64_t key = cur_.config_digest();
    hit->key = key;
    if (shared_ != nullptr) {
      switch (shared_->insert(key)) {
        case LockFreeVisitedSet::Insert::Claimed:
          return NodeClass::Open;
        case LockFreeVisitedSet::Insert::Present:
          ++stats.states_deduped;
          return NodeClass::DedupLeaf;
        case LockFreeVisitedSet::Insert::Full:
          budget_stop = true;  // undersized table: degrade, never lie
          return NodeClass::Leaf;
      }
    }
    VisitedEntry& entry = visited_[key];
    for (const AgentMask mask : entry.masks) {
      if ((mask & sleep) == mask) {  // stored ⊆ current: covered
        ++stats.states_deduped;
        hit->sub_agents = entry.sub_agents;
        hit->sub_nodes = entry.sub_nodes;
        hit->summary_valid = entry.summary_recorded;
        return NodeClass::DedupLeaf;
      }
    }
    // The new mask dominates any stored superset (it will be explored
    // with more branches awake); drop the dominated entries.
    entry.masks.erase(
        std::remove_if(entry.masks.begin(), entry.masks.end(),
                       [sleep](AgentMask mask) {
                         return (sleep & mask) == sleep;
                       }),
        entry.masks.end());
    entry.masks.push_back(sleep);
    return NodeClass::Open;
  }

  [[nodiscard]] std::size_t actions_spent() const noexcept {
    return shared_actions_ != nullptr
               ? shared_actions_->load(std::memory_order_relaxed)
               : stats.total_actions;
  }

  void signal_stop() noexcept {
    if (stop_flag_ != nullptr) {
      stop_flag_->store(true, std::memory_order_relaxed);
    }
  }

  const sim::Instance& instance_;
  const sim::GoalOracle& oracle_;
  const McOptions& options_;
  sim::ExecutionState& cur_;
  std::size_t budget_ = kUnlimited;
  VisitedMap visited_;
  LockFreeVisitedSet* shared_ = nullptr;
  std::atomic<std::size_t>* shared_actions_ = nullptr;
  std::atomic<bool>* stop_flag_ = nullptr;
  std::vector<branch_index_t> path_;
  bool at_tip_ = false;
};

/// Builds the replayable counterexample trace for a violating path: digest
/// and note are refreshed from the trace's own replay (the same
/// drive-checked semantics), so the artifact is self-verifying like every
/// recorded/shrunk trace.
[[nodiscard]] explore::ScheduleTrace materialize_counterexample(
    const CheckRequest& request, const std::vector<branch_index_t>& choices,
    const std::string& reason) {
  explore::ScheduleTrace trace;
  trace.algorithm = request.algorithm;
  trace.node_count =
      request.topology.empty() ? request.node_count : request.topology.size();
  trace.homes = request.homes;
  trace.topology = request.topology.empty()
                       ? "ring"
                       : std::string(request.topology.name());
  trace.problem = request.problem;
  trace.generator = "model-check";
  trace.faults = request.faults;
  trace.faults.normalize();
  trace.max_actions = request.max_actions;  // cap-sensitive verdicts replay
  trace.choices = choices;
  const explore::ReplayOutcome outcome = explore::replay_trace(trace);
  trace.expected_digest = outcome.digest;
  trace.note = outcome.failed ? outcome.reason : reason;
  return trace;
}

void fold_stats(std::uint64_t& state, const McStats& stats) {
  fold64(state, stats.schedules);
  fold64(state, stats.states_expanded);
  fold64(state, stats.states_deduped);
  fold64(state, stats.sleep_pruned);
  fold64(state, stats.dpor_pruned);
  fold64(state, stats.replays);
  fold64(state, stats.total_actions);
  fold64(state, stats.max_depth);
  fold64(state, stats.shards);
}

void accumulate(McStats& into, const McStats& from) {
  into.schedules += from.schedules;
  into.states_expanded += from.states_expanded;
  into.states_deduped += from.states_deduped;
  into.sleep_pruned += from.sleep_pruned;
  into.dpor_pruned += from.dpor_pruned;
  into.replays += from.replays;
  into.total_actions += from.total_actions;
  into.max_depth = std::max(into.max_depth, from.max_depth);
}

/// The closure walk (McOptions::shared_visited): a serial BFS phase expands
/// the tree until a level holds `frontier` open nodes, then each of them is
/// one DFS shard over the shared claim set, run on options.workers threads
/// with one pooled RunContext per worker. Every explorer meters the one
/// global action budget. Shards fold in index order; stats.shards stays 0
/// when the BFS phase resolved or stopped the whole walk.
[[nodiscard]] WalkOutcome closure_walk(const sim::Instance& instance,
                                       const sim::GoalOracle& oracle,
                                       const McOptions& options,
                                       std::size_t frontier,
                                       std::size_t budget) {
  LockFreeVisitedSet shared(options.shared_visited_capacity != 0
                                ? options.shared_visited_capacity
                                : std::size_t{1} << 22);
  std::atomic<std::size_t> actions{0};
  std::atomic<bool> stop{false};

  std::vector<Prefix> level = {{}};
  WalkOutcome out;
  {
    core::RunContext context;
    Explorer bfs(instance, oracle, options, context.state(), budget, &shared,
                 &actions, &stop);
    std::vector<Prefix> next;
    while (level.size() < frontier && !bfs.violation && !bfs.budget_stop &&
           !level.empty()) {
      next.clear();
      bfs.expand_level(level, next);
      level.swap(next);
    }
    out = std::move(bfs).outcome();
  }
  // An empty level means the whole tree fit above the frontier.
  if (out.violation || out.budget_stop || level.empty()) return out;

  out.stats.shards = level.size();
  std::vector<WalkOutcome> shards(level.size());
  const std::size_t workers = resolve_workers(level.size(), options.workers);
  std::vector<std::unique_ptr<core::RunContext>> contexts;
  contexts.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    contexts.push_back(std::make_unique<core::RunContext>());
  }
  parallel_for_workers(
      level.size(), workers, [&](std::size_t worker, std::size_t i) {
        Explorer shard(instance, oracle, options, contexts[worker]->state(),
                       budget, &shared, &actions, &stop);
        shard.dfs(level[i]);
        shards[i] = std::move(shard).outcome();
      });
  for (WalkOutcome& shard : shards) {  // index order: determinism
    accumulate(out.stats, shard.stats);
    out.budget_stop = out.budget_stop || shard.budget_stop;
    if (!out.violation) out.violation = std::move(shard.violation);
  }
  return out;
}

}  // namespace

std::uint64_t ModelCheckReport::digest() const {
  std::uint64_t state = 0x3c0de1c4ec5e7ULL;  // "model-check" domain
  fold64(state, complete ? 1 : 0);
  fold64(state, ok ? 1 : 0);
  fold_stats(state, stats);
  fold64(state, counterexample ? counterexample->choices.size() + 1 : 0);
  if (counterexample) {
    for (const branch_index_t choice : counterexample->choices) {
      fold64(state, choice);
    }
  }
  return state;
}

ModelCheckReport check(const CheckRequest& request, const McOptions& options) {
  if (request.homes.empty()) {
    throw std::invalid_argument("mc::check: no agents (homes empty)");
  }
  // Max-enabled-set guard: every enabled set is a subset of the agents, so
  // bounding the agent count makes branch_index_t truncation structurally
  // impossible everywhere downstream.
  if (request.homes.size() >
      static_cast<std::size_t>(std::numeric_limits<branch_index_t>::max())) {
    throw std::invalid_argument(
        "mc::check: agent count exceeds branch_index_t range");
  }
  McOptions opts = options;
  if (request.homes.size() > kMaskAgents) {  // bitmask width
    opts.sleep_sets = false;
    opts.dpor = false;
  }
  if (request.faults.has_events()) {
    // Crash-stop faults and rewirings are global events the footprint
    // independence relation does not model (a crash at action t is not a
    // local transition two agents can commute around), so the path-dependent
    // prunings are unsound across fault boundaries and are forced off. The
    // closure walk skips its BFS phase too — rewiring choice levels exist
    // only in the DFS walk. Dedup stays sound because config_digest folds
    // the live fault state.
    opts.sleep_sets = false;
    opts.dpor = false;
  }
  const std::size_t node_count =
      request.topology.empty() ? request.node_count : request.topology.size();
  if (node_count > 64) opts.dpor = false;  // summary masks are node bitmasks
  // The shared claim set is the dedup; without dedup there is no closure.
  const bool closure = opts.shared_visited && opts.dedup_states;
  if (closure) {
    // The closure walk is a closure over the state DAG; path-dependent
    // prunings are unsound against racing claims.
    opts.sleep_sets = false;
    opts.dpor = false;
  }

  const sim::Instance instance = build_instance(request);
  // One immutable oracle for the whole walk, shared by every explorer
  // (check_goal/check_action are const and stateless).
  const std::unique_ptr<sim::GoalOracle> oracle =
      core::make_goal_oracle(request.algorithm, request.problem);
  const std::size_t budget =
      opts.budget_actions == 0 ? kUnlimited : opts.budget_actions;

  WalkOutcome walk;
  if (closure) {
    walk = closure_walk(instance, *oracle, opts,
                        request.faults.has_events() ? 1 : kClosureFrontier,
                        budget);
    if (walk.violation) {
      // Which shard reaches a violating state first is a race; the
      // existence of one is not. Re-check with the serial tree walk so the
      // counterexample (and every count) is byte-identical at any worker
      // count — the shared set accelerates the common "verified" case.
      McOptions serial = options;
      serial.shared_visited = false;
      return check(request, serial);
    }
  } else {
    core::RunContext context;
    Explorer tree(instance, *oracle, opts, context.state(), budget);
    tree.dfs({});
    walk = std::move(tree).outcome();
    walk.stats.shards = 1;
  }

  ModelCheckReport report;
  report.stats = walk.stats;
  if (walk.violation) {
    report.ok = false;
    report.complete = false;
    report.verdict = "violation";
    report.failure_reason = walk.violation->second;
    report.counterexample = materialize_counterexample(
        request, walk.violation->first, walk.violation->second);
  } else if (walk.budget_stop) {
    report.ok = true;
    report.complete = false;
    report.verdict = "budget-exhausted";
  } else {
    report.ok = true;
    report.complete = true;
    report.verdict = "verified";
  }
  return report;
}

ModelCheckReport check_with_faults(const CheckRequest& request,
                                   const FaultBudget& budget,
                                   const McOptions& options) {
  const std::size_t horizon = budget.max_fault_action;
  const std::size_t k = request.homes.size();
  const std::size_t node_count =
      request.topology.empty() ? request.node_count : request.topology.size();

  // Materialize the plan space up front (budgets are tiny by design — the
  // product of crash assignments and rewiring-point sets stays in the
  // hundreds). The empty extension comes first in both generators, so the
  // clean plan is always checked first.
  std::vector<std::vector<sim::CrashFault>> crash_sets;
  {
    std::vector<sim::CrashFault> cur;
    const auto gen = [&](auto&& self, std::size_t next_agent) -> void {
      crash_sets.push_back(cur);
      if (cur.size() >= budget.crashes) return;
      for (std::size_t a = next_agent; a < k; ++a) {
        for (std::size_t t = 0; t <= horizon; ++t) {
          cur.push_back(
              sim::CrashFault{static_cast<sim::AgentId>(a), t});
          self(self, a + 1);
          cur.pop_back();
        }
      }
    };
    gen(gen, 0);
  }
  std::vector<std::vector<std::size_t>> rewire_sets = {{}};
  if (sim::rewire_candidate_count(node_count) > 0) {
    std::vector<std::size_t> cur;
    rewire_sets.clear();
    const auto gen = [&](auto&& self, std::size_t next_t) -> void {
      rewire_sets.push_back(cur);
      if (cur.size() >= budget.rewires) return;
      for (std::size_t t = next_t; t <= horizon; ++t) {
        cur.push_back(t);
        self(self, t + 1);
        cur.pop_back();
      }
    };
    gen(gen, 0);
  }

  ModelCheckReport aggregate;
  aggregate.ok = true;
  aggregate.complete = true;
  for (const std::vector<sim::CrashFault>& crashes : crash_sets) {
    for (const std::vector<std::size_t>& rewires : rewire_sets) {
      // Skip extensions that collide with the request's own plan (duplicate
      // crash agents / rewiring points are invalid, not interesting).
      const bool conflict =
          std::any_of(crashes.begin(), crashes.end(),
                      [&](const sim::CrashFault& c) {
                        return std::any_of(
                            request.faults.crashes.begin(),
                            request.faults.crashes.end(),
                            [&](const sim::CrashFault& have) {
                              return have.agent == c.agent;
                            });
                      }) ||
          std::any_of(rewires.begin(), rewires.end(), [&](std::size_t t) {
            return std::find(request.faults.rewire_at.begin(),
                             request.faults.rewire_at.end(),
                             t) != request.faults.rewire_at.end();
          });
      if (conflict) continue;
      CheckRequest sub = request;
      sub.faults.crashes.insert(sub.faults.crashes.end(), crashes.begin(),
                                crashes.end());
      sub.faults.rewire_at.insert(sub.faults.rewire_at.end(), rewires.begin(),
                                  rewires.end());
      sub.faults.normalize();
      const ModelCheckReport sub_report = check(sub, options);
      accumulate(aggregate.stats, sub_report.stats);
      aggregate.stats.shards += sub_report.stats.shards;
      if (!sub_report.ok) {
        aggregate.ok = false;
        aggregate.complete = false;
        aggregate.verdict = sub_report.verdict;
        aggregate.failure_reason = sub_report.failure_reason;
        aggregate.counterexample = sub_report.counterexample;
        return aggregate;
      }
      if (!sub_report.complete) aggregate.complete = false;
    }
  }
  aggregate.verdict = aggregate.complete ? "verified" : "budget-exhausted";
  return aggregate;
}

// ---- campaign integration ---------------------------------------------------

GridReport check_grid(const exp::CampaignGrid& grid, const McOptions& options) {
  // The scheduler axis is what the checker replaces: collapse it so each
  // instance is checked once. Home configurations are scheduler-independent
  // by the campaign's substream contract, so these are byte-for-byte the
  // instances the sampled cells ran.
  exp::CampaignGrid collapsed = grid;
  collapsed.schedulers = {grid.schedulers.empty()
                              ? sim::SchedulerKind::Synchronous
                              : grid.schedulers.front()};
  const std::vector<exp::Scenario> scenarios = exp::expand(collapsed);

  GridReport report;
  report.cells.reserve(scenarios.size());
  for (const exp::Scenario& s : scenarios) {
    GridCell cell;
    cell.algorithm = s.algorithm;
    cell.family = s.family;
    cell.node_count = s.node_count;
    cell.agent_count = s.agent_count;
    cell.symmetry = s.symmetry;
    cell.repetition = s.repetition;
    cell.problem = s.problem;
    cell.homes = exp::scenario_homes(collapsed, s);

    CheckRequest request;
    request.algorithm = s.algorithm;
    request.problem = s.problem;
    request.node_count = s.node_count;
    request.homes = cell.homes;
    request.faults = grid.sim_options.faults;
    request.max_actions = grid.sim_options.max_actions;
    cell.report = check(request, options);

    if (!cell.report.ok) {
      ++report.violations;
    } else if (!cell.report.complete) {
      ++report.budget_exhausted;
    }
    report.cells.push_back(std::move(cell));
  }
  return report;
}

std::uint64_t GridReport::digest() const {
  std::uint64_t state = 0x36c1dc4ec5e7ULL;  // "mc-grid-check" domain
  fold64(state, cells.size());
  for (const GridCell& cell : cells) {
    fold64(state, static_cast<std::uint64_t>(cell.algorithm));
    fold64(state, static_cast<std::uint64_t>(cell.family));
    fold64(state, cell.node_count);
    fold64(state, cell.agent_count);
    fold64(state, cell.symmetry);
    fold64(state, cell.repetition);
    // Folded only for explicit problems: an all-Auto grid's digest is
    // byte-identical to the pre-ProblemSpec engine (pinned baselines).
    if (cell.problem.kind != core::Problem::Auto) {
      fold64(state, static_cast<std::uint64_t>(cell.problem.kind));
      fold64(state, cell.problem.gather_g);
    }
    fold64(state, cell.report.digest());
  }
  fold64(state, violations);
  fold64(state, budget_exhausted);
  return state;
}

Table GridReport::summary_table() const {
  // The "problem" column appears only when some cell names an explicit
  // problem, so all-Auto grids render their historical layout.
  const bool show_problem =
      std::any_of(cells.begin(), cells.end(), [](const GridCell& cell) {
        return cell.problem.kind != core::Problem::Auto;
      });
  std::vector<std::string> headers = {
      "algorithm", "family",       "n",           "k",       "l",
      "rep",       "schedules",    "states",      "deduped", "sleep-pruned",
      "dpor-pruned", "actions",    "verdict"};
  if (show_problem) headers.insert(headers.begin() + 1, "problem");
  Table table(std::move(headers));
  for (const GridCell& cell : cells) {
    const McStats& s = cell.report.stats;
    std::vector<std::string> row = {
        std::string(core::to_string(cell.algorithm)),
        std::string(exp::to_string(cell.family)), Table::num(cell.node_count),
        Table::num(cell.agent_count), Table::num(cell.symmetry),
        Table::num(static_cast<std::size_t>(cell.repetition)),
        Table::num(s.schedules), Table::num(s.states_expanded),
        Table::num(s.states_deduped), Table::num(s.sleep_pruned),
        Table::num(s.dpor_pruned), Table::num(s.total_actions),
        cell.report.complete && cell.report.ok
            ? "verified over all schedules"
            : (cell.report.ok ? "budget" : "VIOLATION")};
    if (show_problem) row.insert(row.begin() + 1, core::to_string(cell.problem));
    table.add_row(std::move(row));
  }
  return table;
}

std::string GridReport::summary() const {
  std::ostringstream out;
  out << summary_table();
  out << "cells: " << cells.size() << "   violations: " << violations
      << "   budget-exhausted: " << budget_exhausted << '\n';
  for (const GridCell& cell : cells) {
    if (cell.report.ok) continue;
    out << "  VIOLATION " << core::to_string(cell.algorithm) << " n="
        << cell.node_count << " k=" << cell.agent_count << ": "
        << cell.report.failure_reason << '\n';
  }
  return out.str();
}

}  // namespace udring::mc
