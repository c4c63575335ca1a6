// udring/sim/agent.h
//
// The agent programming model.
//
// The paper's pseudocode is sequential ("move to the next token node", "wait
// until a message arrives", …) while the execution model is one *atomic
// action* at a time chosen by an adversarial fair scheduler. We bridge the
// two with a C++20 coroutine per agent: the algorithm is written as straight
// sequential code (`Behavior run(AgentContext&)`), and every `co_await` of a
// control operation ends the current atomic action. The simulator resumes
// the coroutine exactly once per scheduled action, so atomicity and FIFO
// discipline live entirely in the simulator, and the algorithm code reads
// like the paper.
//
// Within one atomic action (one resume) an agent may, per §2.1:
//   1. arrive at a node (or start at its staying node),
//   2. observe its delivered messages (ctx.inbox()),
//   3. compute locally,
//   4. broadcast a message to staying co-located agents (ctx.broadcast()),
//   5. release its token (ctx.release_token()),
//   6. and finally either move, stay, wait, suspend (co_await …) or halt
//      (co_return).
//
// Anonymity: AgentContext exposes only what the model allows — token count
// here, how many *other* agents are staying here, and the inbox. Node and
// agent identities are not observable from algorithm code.

#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "sim/types.h"

namespace udring::sim {

class ExecutionState;
class AgentContext;

/// What an agent requested when it ended its atomic action.
enum class Request : std::uint8_t {
  None,         ///< coroutine not yet started / just created
  Move,         ///< leave for the forward neighbour (enqueue on the link)
  Stay,         ///< stay at the node, remain unconditionally schedulable
  WaitMessage,  ///< stay parked until at least one message is delivered
  Suspend,      ///< as WaitMessage, but the Definition-2 suspended state
  Done,         ///< coroutine returned: the Definition-1 halt state
};

/// Coroutine handle type for an agent's lifetime behaviour. Move-only RAII
/// owner; the simulator resumes it one atomic action at a time.
class Behavior {
 public:
  struct promise_type {
    Request pending = Request::None;
    std::exception_ptr exception;

    Behavior get_return_object() {
      return Behavior(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept { pending = Request::Done; }
    void unhandled_exception() noexcept { exception = std::current_exception(); }
  };

  Behavior() = default;
  explicit Behavior(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  Behavior(Behavior&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Behavior& operator=(Behavior&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Behavior(const Behavior&) = delete;
  Behavior& operator=(const Behavior&) = delete;
  ~Behavior() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(handle_); }

  /// Runs one atomic action: resumes the coroutine until its next co_await /
  /// co_return. Returns what the agent requested. Rethrows any exception the
  /// agent program raised (a bug in algorithm code, surfaced to the caller).
  /// Inline: one call per atomic action, on the campaign hot path.
  Request resume() {
    if (!handle_ || handle_.done()) [[unlikely]] {
      throw_not_resumable();
    }
    handle_.promise().pending = Request::None;
    handle_.resume();
    if (handle_.promise().exception) [[unlikely]] {
      std::rethrow_exception(handle_.promise().exception);
    }
    if (handle_.done()) {
      return Request::Done;
    }
    const Request request = handle_.promise().pending;
    if (request == Request::None) [[unlikely]] {
      throw_no_request();
    }
    return request;
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  // Cold throw sites out of line, keeping resume()'s inlined body small.
  [[noreturn]] static void throw_not_resumable();
  [[noreturn]] static void throw_no_request();

  std::coroutine_handle<promise_type> handle_;
};

/// Awaitable returned by the AgentContext control operations: records the
/// request in the promise and suspends, ending the atomic action.
struct ControlAwaiter {
  Request request;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<Behavior::promise_type> handle) const noexcept {
    handle.promise().pending = request;
  }
  void await_resume() const noexcept {}
};

/// The window through which an agent program perceives and acts on the ring.
/// One AgentContext belongs to one agent for its whole life; its observation
/// methods are valid only while the agent's coroutine is running (i.e.
/// during an atomic action).
class AgentContext {
 public:
  AgentContext(ExecutionState& state, AgentId self) : sim_(&state), self_(self) {}

  AgentContext(const AgentContext&) = delete;
  AgentContext& operator=(const AgentContext&) = delete;

  // ---- observations -------------------------------------------------------

  /// Tokens at the current node.
  [[nodiscard]] std::size_t tokens_here() const;

  /// Number of *other* agents staying at the current node (waiting,
  /// suspended and halted agents all count — they are all "staying" in the
  /// model's p_i sense). In-transit agents are never visible.
  [[nodiscard]] std::size_t others_staying_here() const;

  /// Messages delivered at the start of this atomic action. The model
  /// delivers *all* pending messages at once; they are consumed by this
  /// action regardless of whether the program inspects them.
  [[nodiscard]] const std::vector<Message>& inbox() const noexcept { return inbox_; }

  // ---- actions (take effect within the current atomic action) ------------

  /// Releases this agent's token at the current node. The model gives each
  /// agent one token; algorithms call this once, at the home node. The
  /// substrate does not enforce the once-only rule (tests exercise multiple
  /// tokens), but TokenPolicy in the checker can.
  void release_token();

  /// Broadcasts `message` to every agent staying at the current node
  /// (waiting and suspended agents receive and are woken; halted agents
  /// ignore messages per Definition 1; in-transit agents are unreachable).
  void broadcast(Message message);

  // ---- control flow (each ends the atomic action) -------------------------

  /// Move over the forward link; the next action is the arrival.
  [[nodiscard]] ControlAwaiter move() const noexcept { return {Request::Move}; }

  /// Stay at this node and remain schedulable (used by tests/extensions).
  [[nodiscard]] ControlAwaiter stay() const noexcept { return {Request::Stay}; }

  /// Park until at least one message is delivered (non-terminal wait).
  [[nodiscard]] ControlAwaiter wait_message() const noexcept {
    return {Request::WaitMessage};
  }

  /// Enter the Definition-2 suspended state: park until a message arrives.
  [[nodiscard]] ControlAwaiter suspend() const noexcept { return {Request::Suspend}; }

  // ---- instrumentation (invisible to the model) ---------------------------

  /// Tags subsequent actions with an algorithm-defined phase index for the
  /// metrics' per-phase move breakdown (e.g. selection vs deployment).
  void set_phase(std::size_t phase);

 private:
  friend class ExecutionState;

  ExecutionState* sim_;
  AgentId self_;
  std::vector<Message> inbox_;  // filled by the simulator before each resume
};

/// Base class for an agent's algorithm. One instance per agent. Keep all
/// algorithm variables as *named members* (not coroutine-frame locals) so
/// that memory_bits() and state_hash() can report them: memory_bits() backs
/// the paper's space complexity measurements, and state_hash() backs the
/// Theorem-5 indistinguishability experiment.
class AgentProgram {
 public:
  virtual ~AgentProgram() = default;

  /// The agent's lifetime behaviour; started lazily at its first action
  /// (which is the arrival at its home node, per the initial-buffer rule).
  virtual Behavior run(AgentContext& ctx) = 0;

  /// Algorithm name for logs and reports.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Current size of the agent's algorithm state in bits, using the paper's
  /// accounting: a counter bounded by m costs bit_width(m) bits, an array
  /// costs length × element-width. The simulator samples this after every
  /// action and records the peak, so it sits on the campaign hot path:
  /// the value is cached and recomputed only after the program declared a
  /// state change through memory_changed(). Debug builds verify the cache
  /// against a fresh compute_memory_bits() at every sample, so a mutation
  /// site that forgot to call memory_changed() fails the test suite rather
  /// than silently under-reporting the peak.
  [[nodiscard]] std::size_t memory_bits() const {
    if (memory_dirty_) {
      memory_bits_cache_ = compute_memory_bits();
      memory_dirty_ = false;
    }
    assert(memory_bits_cache_ == compute_memory_bits());
    return memory_bits_cache_;
  }

  /// Order-insensitive hash of the algorithm state, for comparing the local
  /// configurations of corresponding agents in two executions (Lemma 1).
  [[nodiscard]] virtual std::uint64_t state_hash() const { return 0; }

  /// Names for the phase indices passed to AgentContext::set_phase, used in
  /// reports. Index i names phase i; out-of-range phases print numerically.
  [[nodiscard]] virtual std::vector<std::string_view> phase_names() const {
    return {};
  }

 protected:
  /// The actual bit accounting, overridden by algorithms (the former
  /// memory_bits() body). Called only when the cache is stale — that is,
  /// after every action that called memory_changed(), which for walking
  /// agents is every move. It must therefore be O(1): never scan a state
  /// array, but keep what the count needs (such as the maximum of a
  /// sequence, core::TrackedDistanceSeq) up to date where the array is
  /// written.
  [[nodiscard]] virtual std::size_t compute_memory_bits() const { return 0; }

  /// Algorithms call this after mutating any counted member. Cheap enough to
  /// sprinkle after every assignment; only the next sample pays a recompute.
  void memory_changed() const noexcept { memory_dirty_ = true; }

 private:
  mutable std::size_t memory_bits_cache_ = 0;
  mutable bool memory_dirty_ = true;
};

}  // namespace udring::sim
