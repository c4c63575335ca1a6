#include "core/disperse_ring.h"

#include "core/memory_meter.h"

namespace udring::core {

sim::Behavior DisperseAgent::run(sim::AgentContext& ctx) {
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

  // Settle r nodes past the nearest forward base (rank-0) home; distinct
  // ranks off period-spaced bases give pairwise-distinct targets (see the
  // header argument).
  ctx.set_phase(kSettle);
  const std::size_t rank = min_rotation(d_);
  const std::size_t dis_settle = rank + sum(d_, rank);
  for (std::size_t i = 0; i < dis_settle; ++i) {
    co_await ctx.move();
  }
  co_return;
}

std::size_t DisperseAgent::compute_memory_bits() const {
  return MemoryMeter{}
      .counter(k_)
      .distances(d_, n_)
      .counter(n_)
      .bits();
}

std::uint64_t DisperseAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x4d15bULL, d_);  // "DISP"-ish tag
  h = hash_sequence(h, {n_});
  return h;
}

}  // namespace udring::core
