#include "explore/replay.h"

#include <stdexcept>
#include <string>

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

sim::AgentId RecordingScheduler::pick(const sim::EnabledSet& enabled) {
  const sim::AgentId chosen = inner_->pick(enabled);
  if (!enabled.contains(chosen)) {
    throw std::logic_error("RecordingScheduler: inner pick not in enabled set");
  }
  choices_.push_back(static_cast<std::uint32_t>(enabled.rank(chosen)));
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

sim::AgentId ReplayScheduler::pick(const sim::EnabledSet& enabled) {
  const std::uint32_t choice =
      cursor_ < choices_.size() ? choices_[cursor_] : 0;
  ++cursor_;
  return enabled.select(choice % enabled.size());
}

std::size_t ReplayScheduler::pick_index(std::size_t bound) {
  const std::uint32_t choice =
      cursor_ < choices_.size() ? choices_[cursor_] : 0;
  ++cursor_;
  return choice % bound;
}

}  // namespace udring::explore
