#include "core/gather_ring.h"

#include <algorithm>

#include "core/memory_meter.h"

namespace udring::core {

sim::Behavior PartialGatherAgent::run(sim::AgentContext& ctx) {
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

  const std::size_t p = period(d_);
  if (p < g_) {
    // Fewer rank classes than the group size: no node can collect g agents
    // (see the header's impossibility argument). Report and stop at home.
    unsolvable_ = true;
    memory_changed();
    co_return;
  }

  // Rank classes [0, p) split into G contiguous blocks of g (the last block
  // absorbs the p mod g remainder ranks). Every agent walks forward to the
  // home of its block's lowest-rank agent: rank r sits r token-gaps behind
  // its region's base (rank 0), so the rank-(j*g) home lies r - j*g gaps
  // ahead — sum of that many leading entries of D.
  ctx.set_phase(kGather);
  const std::size_t rank = min_rotation(d_);
  const std::size_t groups = p / g_;
  const std::size_t group = std::min(rank / g_, groups - 1);
  const std::size_t gaps_ahead = rank - group * g_;
  const std::size_t dis_meet = sum(d_, gaps_ahead);
  for (std::size_t i = 0; i < dis_meet; ++i) {
    co_await ctx.move();
  }
  co_return;
}

std::size_t PartialGatherAgent::compute_memory_bits() const {
  return MemoryMeter{}
      .counter(k_)
      .counter(g_)
      .distances(d_, n_)
      .counter(n_)
      .flag()
      .bits();
}

std::uint64_t PartialGatherAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x6a7485ULL, d_);  // "GAT"-ish tag
  h = hash_sequence(h, {g_, n_, static_cast<std::size_t>(unsolvable_)});
  return h;
}

}  // namespace udring::core
