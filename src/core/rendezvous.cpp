#include "core/rendezvous.h"

#include "core/memory_meter.h"

namespace udring::core {

sim::Behavior RendezvousAgent::run(sim::AgentContext& ctx) {
  ctx.set_phase(kExplore);
  ctx.release_token();

  for (std::size_t j = 0; j < k_; ++j) {
    std::size_t dis = 0;
    do {
      co_await ctx.move();
      ++dis;
    } while (ctx.tokens_here() == 0);
    d_.push_back(dis);
    memory_changed();
  }
  n_ = sum(d_);
  memory_changed();

  if (is_periodic(d_)) {
    // Symmetric views: gathering is impossible (classical rendezvous lower
    // bound). Report and stop at home.
    unsolvable_ = true;
    memory_changed();
    co_return;
  }

  // Aperiodic: the lexicographically minimal rotation starts at a unique
  // agent; everyone walks to that agent's home node.
  ctx.set_phase(kGather);
  const std::size_t rank = min_rotation(d_);
  const std::size_t dis_base = sum(d_, rank);
  for (std::size_t i = 0; i < dis_base; ++i) {
    co_await ctx.move();
  }
  co_return;
}

std::size_t RendezvousAgent::compute_memory_bits() const {
  return MemoryMeter{}
      .counter(k_)
      .distances(d_, n_)
      .counter(n_)
      .flag()
      .bits();
}

std::uint64_t RendezvousAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x52445aULL, d_);  // "RDZ"
  h = hash_sequence(h, {n_, static_cast<std::size_t>(unsolvable_)});
  return h;
}

}  // namespace udring::core
