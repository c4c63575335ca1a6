#include "core/known_k_full.h"

#include "core/memory_meter.h"
#include "core/targets.h"

namespace udring::core {

KnownKFullAgent::KnownKFullAgent(std::size_t k) : k_(k) { d_.reserve(k); }

sim::Behavior KnownKFullAgent::run(sim::AgentContext& ctx) {
  // --- selection phase (Algorithm 1, lines 1–10) ---------------------------
  // The first action is the arrival at the home node (initial-buffer rule),
  // so the token lands before any other agent can act here.
  ctx.set_phase(kSelection);
  ctx.release_token();

  for (std::size_t j = 0; j < k_; ++j) {
    // Move to the nearest token node, measuring the distance. Every home
    // node keeps its token forever, so after k token sightings the agent has
    // completed exactly one circuit and is back home.
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

  // --- deployment phase (lines 12–18) --------------------------------------
  ctx.set_phase(kDeployment);
  rank_ = min_rotation(d_);
  dis_base_ = sum(d_, rank_);
  memory_changed();

  // b = symmetry degree: on periodic configurations each period block elects
  // its own base node and rank_ < k/b indexes within the block.
  const TargetPlan plan = make_target_plan(n_, k_, symmetry_degree(d_));
  const std::size_t total = dis_base_ + plan.offset(rank_);
  for (std::size_t i = 0; i < total; ++i) {
    co_await ctx.move();
  }
  // Arriving at the target node, terminate (halt state, Definition 1).
  co_return;
}

std::size_t KnownKFullAgent::compute_memory_bits() const {
  return MemoryMeter{}
      .counter(k_)
      .distances(d_, n_)
      .counter(n_)
      .counter(rank_)
      .counter(dis_base_)
      .bits();
}

std::uint64_t KnownKFullAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x416c676f31ULL, d_);  // "Algo1"
  h = hash_sequence(h, {n_, rank_, dis_base_});
  return h;
}

// ---- footnote-2 variant: knowledge of n instead of k ------------------------

KnownNFullAgent::KnownNFullAgent(std::size_t n) : n_(n) {}

sim::Behavior KnownNFullAgent::run(sim::AgentContext& ctx) {
  // Selection: identical walk, but the circuit ends when the accumulated
  // distance reaches n; k comes out as the number of token sightings.
  ctx.set_phase(kSelection);
  ctx.release_token();

  std::size_t dis = 0;
  while (traveled_ < n_) {
    co_await ctx.move();
    ++traveled_;
    ++dis;
    if (ctx.tokens_here() != 0) {
      d_.push_back(dis);
      dis = 0;
    }
    memory_changed();
  }
  // Back home: the last recorded distance closes the circuit, so ΣD = n and
  // |D| = k.

  ctx.set_phase(kDeployment);
  rank_ = min_rotation(d_);
  dis_base_ = sum(d_, rank_);
  memory_changed();

  const TargetPlan plan =
      make_target_plan(n_, d_.size(), symmetry_degree(d_));
  const std::size_t total = dis_base_ + plan.offset(rank_);
  for (std::size_t i = 0; i < total; ++i) {
    co_await ctx.move();
  }
  co_return;
}

std::size_t KnownNFullAgent::compute_memory_bits() const {
  return MemoryMeter{}
      .counter(n_)
      .distances(d_, n_)
      .counter(traveled_)
      .counter(rank_)
      .counter(dis_base_)
      .bits();
}

std::uint64_t KnownNFullAgent::state_hash() const {
  std::uint64_t h = hash_sequence(0x416c676f314eULL, d_);  // "Algo1N"
  h = hash_sequence(h, {n_, traveled_, rank_, dis_base_});
  return h;
}

}  // namespace udring::core
