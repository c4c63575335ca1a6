// tests/support/test_agents.h
//
// Minimal agent programs used by the simulator, scheduler and checker tests.
// They exercise the model's primitives directly (move/stay/wait/suspend/
// broadcast/token) without any of the paper's algorithm logic on top. Also
// run_round_robin, the default schedule those tests run a state under.

#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/agent.h"
#include "sim/execution_state.h"
#include "sim/message.h"
#include "sim/scheduler.h"

namespace udring::test {

/// A program factory that gives every agent its own `Program(args...)`.
template <typename Program, typename... Args>
sim::ProgramFactory every(Args... args) {
  return [=](sim::AgentId) { return std::make_unique<Program>(args...); };
}

/// Runs `sim` under a fresh round-robin scheduler until it is quiescent or
/// reaches its action limit.
inline sim::RunResult run_round_robin(sim::ExecutionState& sim) {
  sim::RoundRobinScheduler scheduler;
  return sim.run(scheduler);
}

/// Optionally drops a token at its home, then makes `steps` moves and halts.
class WalkerAgent final : public sim::AgentProgram {
 public:
  explicit WalkerAgent(std::size_t steps, bool drop_token = false)
      : steps_(steps), drop_token_(drop_token) {}

  sim::Behavior run(sim::AgentContext& ctx) override {
    if (drop_token_) ctx.release_token();
    for (std::size_t i = 0; i < steps_; ++i) {
      co_await ctx.move();
      ++arrivals_;
    }
    co_return;
  }

  [[nodiscard]] std::string_view name() const override { return "test-walker"; }
  [[nodiscard]] std::size_t arrivals() const noexcept { return arrivals_; }

 private:
  std::size_t steps_;
  bool drop_token_;
  std::size_t arrivals_ = 0;
};

/// Walks forever (for action-limit and burst-scheduler tests).
class EndlessWalkerAgent final : public sim::AgentProgram {
 public:
  sim::Behavior run(sim::AgentContext& ctx) override {
    for (;;) {
      co_await ctx.move();
    }
  }
  [[nodiscard]] std::string_view name() const override { return "test-endless"; }
};

/// Stays `rounds` schedulable actions at home, then halts in place.
class SitterAgent final : public sim::AgentProgram {
 public:
  explicit SitterAgent(std::size_t rounds) : rounds_(rounds) {}

  sim::Behavior run(sim::AgentContext& ctx) override {
    for (std::size_t i = 0; i < rounds_; ++i) {
      co_await ctx.stay();
    }
    co_return;
  }
  [[nodiscard]] std::string_view name() const override { return "test-sitter"; }

 private:
  std::size_t rounds_;
};

/// Waits for messages, recording every received text until it has collected
/// `expected` of them, then halts.
class CollectorAgent final : public sim::AgentProgram {
 public:
  explicit CollectorAgent(std::size_t expected) : expected_(expected) {}

  sim::Behavior run(sim::AgentContext& ctx) override {
    while (received_.size() < expected_) {
      co_await ctx.wait_message();
      for (const sim::Message& message : ctx.inbox()) {
        if (const auto* text = std::get_if<sim::TextMessage>(&message)) {
          received_.push_back(text->text);
        }
      }
    }
    co_return;
  }

  [[nodiscard]] std::string_view name() const override { return "test-collector"; }
  [[nodiscard]] const std::vector<std::string>& received() const noexcept {
    return received_;
  }

 private:
  std::size_t expected_;
  std::vector<std::string> received_;
};

/// Moves `hops` nodes, then broadcasts `text` and halts there.
class MessengerAgent final : public sim::AgentProgram {
 public:
  MessengerAgent(std::size_t hops, std::string text)
      : hops_(hops), text_(std::move(text)) {}

  sim::Behavior run(sim::AgentContext& ctx) override {
    for (std::size_t i = 0; i < hops_; ++i) {
      co_await ctx.move();
    }
    ctx.broadcast(sim::TextMessage{text_});
    co_return;
  }
  [[nodiscard]] std::string_view name() const override { return "test-messenger"; }

 private:
  std::size_t hops_;
  std::string text_;
};

/// Suspends immediately; each wake-up appends its inbox size and suspends
/// again (never terminates — models Definition-2 parking).
class SuspenderAgent final : public sim::AgentProgram {
 public:
  sim::Behavior run(sim::AgentContext& ctx) override {
    for (;;) {
      co_await ctx.suspend();
      wakeups_.push_back(ctx.inbox().size());
    }
  }
  [[nodiscard]] std::string_view name() const override { return "test-suspender"; }
  [[nodiscard]] const std::vector<std::size_t>& wakeups() const noexcept {
    return wakeups_;
  }

 private:
  std::vector<std::size_t> wakeups_;
};

/// Throws from inside its first action (error-propagation tests).
class ThrowerAgent final : public sim::AgentProgram {
 public:
  sim::Behavior run(sim::AgentContext& ctx) override {
    (void)ctx;
    throw std::runtime_error("ThrowerAgent: intentional test failure");
    co_return;  // unreachable; makes this function a coroutine
  }
  [[nodiscard]] std::string_view name() const override { return "test-thrower"; }
};

/// Probes what the agent can observe at each node along a fixed walk:
/// records (tokens_here, others_staying_here) after every arrival.
class ProberAgent final : public sim::AgentProgram {
 public:
  explicit ProberAgent(std::size_t steps) : steps_(steps) {}

  struct Observation {
    std::size_t tokens;
    std::size_t others;
  };

  sim::Behavior run(sim::AgentContext& ctx) override {
    observations_.push_back({ctx.tokens_here(), ctx.others_staying_here()});
    for (std::size_t i = 0; i < steps_; ++i) {
      co_await ctx.move();
      observations_.push_back({ctx.tokens_here(), ctx.others_staying_here()});
    }
    co_return;
  }

  [[nodiscard]] std::string_view name() const override { return "test-prober"; }
  [[nodiscard]] const std::vector<Observation>& observations() const noexcept {
    return observations_;
  }

 private:
  std::size_t steps_;
  std::vector<Observation> observations_;
};

}  // namespace udring::test
