#include "explore/replay.h"

#include <stdexcept>
#include <string>

#include "sim/execution_state.h"

namespace udring::explore {

RecordingScheduler::RecordingScheduler(std::unique_ptr<sim::Scheduler> inner)
    : inner_(std::move(inner)) {
  if (!inner_) {
    throw std::invalid_argument("RecordingScheduler: null inner scheduler");
  }
  name_ = "recording(" + std::string(inner_->name()) + ")";
}

void RecordingScheduler::reset(std::size_t agent_count) {
  choices_.clear();
  inner_->reset(agent_count);
}

namespace {

/// The attached state, checked to be the one whose enabled set the engine
/// handed to pick(): the sorted view is read off that state's bitset.
const sim::ExecutionState& attached_state(
    const sim::ExecutionState* sim, const std::vector<sim::AgentId>& enabled,
    const char* who) {
  if (sim == nullptr || &sim->enabled() != &enabled) {
    throw std::logic_error(std::string(who) +
                           ": pick() on a state it is not attached to");
  }
  return *sim;
}

}  // namespace

sim::AgentId RecordingScheduler::pick(const std::vector<sim::AgentId>& enabled) {
  const sim::ExecutionState& state =
      attached_state(sim_, enabled, "RecordingScheduler");
  const sim::AgentId chosen = inner_->pick(enabled);
  if (chosen >= state.agent_count() ||
      ((state.enabled_bits()[chosen / 64] >> (chosen % 64)) & 1) == 0) {
    throw std::logic_error("RecordingScheduler: inner pick not in enabled set");
  }
  choices_.push_back(static_cast<std::uint32_t>(state.enabled_rank(chosen)));
  return chosen;
}

std::size_t RecordingScheduler::pick_index(std::size_t bound) {
  const std::size_t chosen = inner_->pick_index(bound);
  if (chosen >= bound) {
    throw std::logic_error("RecordingScheduler: inner pick_index out of range");
  }
  choices_.push_back(static_cast<std::uint32_t>(chosen));
  return chosen;
}

void ReplayScheduler::reset(std::size_t /*agent_count*/) { cursor_ = 0; }

sim::AgentId ReplayScheduler::pick(const std::vector<sim::AgentId>& enabled) {
  const sim::ExecutionState& state =
      attached_state(sim_, enabled, "ReplayScheduler");
  const std::uint32_t choice =
      cursor_ < choices_.size() ? choices_[cursor_] : 0;
  ++cursor_;
  return state.enabled_select(choice % enabled.size());
}

std::size_t ReplayScheduler::pick_index(std::size_t bound) {
  const std::uint32_t choice =
      cursor_ < choices_.size() ? choices_[cursor_] : 0;
  ++cursor_;
  return choice % bound;
}

}  // namespace udring::explore
