#include "core/premature_halt.h"

#include <algorithm>

#include "core/memory_meter.h"

namespace udring::core {

sim::Behavior PrematureHaltAgent::run(sim::AgentContext& ctx) {
  // Estimating phase — Algorithm 4 verbatim.
  ctx.set_phase(kEstimating);
  ctx.release_token();
  std::size_t observed = 0;
  while (n_est_ == 0) {
    std::size_t dis = 0;
    do {
      co_await ctx.move();
      ++dis;
    } while (ctx.tokens_here() == 0);
    d_.push_back(dis);
    memory_changed();
    ++observed;
    if (observed % 4 == 0 && is_m_fold_repetition(d_, 4)) {
      k_est_ = observed / 4;
      n_est_ = sum(d_, k_est_);
      memory_changed();
    }
  }

  // Deploy by the estimate — and halt, claiming termination. This is the
  // step Theorem 5 forbids: the estimate may describe a smaller ring.
  ctx.set_phase(kDeploying);
  rank_ = min_rotation(d_);
  memory_changed();
  const std::size_t dis_base = sum(d_, rank_);
  const std::size_t offset =
      rank_ * (n_est_ / k_est_) + std::min(rank_, n_est_ % k_est_);
  for (std::size_t i = 0; i < dis_base + offset; ++i) {
    co_await ctx.move();
  }
  co_return;
}

std::size_t PrematureHaltAgent::compute_memory_bits() const {
  return MemoryMeter{}
      .distances(d_, n_est_)
      .counter(n_est_)
      .counter(k_est_)
      .counter(rank_)
      .bits();
}

std::uint64_t PrematureHaltAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x50726548616cULL, d_);  // "PreHal"
  h = hash_sequence(h, {n_est_, k_est_, rank_});
  return h;
}

}  // namespace udring::core
