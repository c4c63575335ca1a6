#include "sim/agent.h"

#include <stdexcept>

#include "sim/execution_state.h"

namespace udring::sim {

void Behavior::throw_not_resumable() {
  throw std::logic_error("Behavior::resume: coroutine is not resumable");
}

void Behavior::throw_no_request() {
  throw std::logic_error(
      "Behavior::resume: agent program suspended without a control request");
}

std::size_t AgentContext::tokens_here() const { return sim_->tokens_at_agent(self_); }

std::size_t AgentContext::others_staying_here() const {
  return sim_->others_staying_at_agent(self_);
}

void AgentContext::release_token() { sim_->agent_release_token(self_); }

void AgentContext::broadcast(Message message) {
  sim_->agent_broadcast(self_, std::move(message));
}

void AgentContext::set_phase(std::size_t phase) { sim_->agent_set_phase(self_, phase); }

}  // namespace udring::sim
