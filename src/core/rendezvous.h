// udring/core/rendezvous.h
//
// Token-based rendezvous baseline (the paper's conceptual contrast, §1.3).
//
// Rendezvous requires all agents to *gather at one node* — it breaks
// symmetry, and is therefore unsolvable from periodic (symmetric) initial
// configurations: no deterministic algorithm can separate agents whose views
// are identical. Uniform deployment attains symmetry instead and is solvable
// from every initial configuration — the paper's headline contrast.
//
// This baseline makes the contrast executable: each agent (knowing k) drops
// its token, records the distance sequence over one circuit, and
//  - if the sequence is aperiodic, walks to the unique base node (the lexmin
//    rotation's start) — all agents gather there and halt;
//  - if the sequence is periodic, reports the instance unsolvable and halts
//    at home (a correct algorithm must not even exist for this case; the
//    detection mirrors the classical impossibility argument).
//
// bench_rendezvous_contrast measures the fraction of configurations each
// problem can solve side by side with the uniform-deployment algorithms.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/memory_meter.h"
#include "core/problem.h"
#include "sim/agent.h"

namespace udring::core {

class RendezvousAgent final : public sim::AgentProgram,
                              public UnsolvabilityAware {
 public:
  enum Phase : std::size_t { kExplore = 0, kGather = 1 };

  explicit RendezvousAgent(std::size_t k) : k_(k) {}

  sim::Behavior run(sim::AgentContext& ctx) override;
  [[nodiscard]] std::string_view name() const override { return "rendezvous"; }
  [[nodiscard]] std::size_t compute_memory_bits() const override;
  [[nodiscard]] std::uint64_t state_hash() const override;
  [[nodiscard]] std::vector<std::string_view> phase_names() const override {
    return {"explore", "gather"};
  }

  /// True if the agent proved the instance unsolvable (periodic view).
  [[nodiscard]] bool detected_unsolvable() const noexcept override {
    return unsolvable_;
  }

 private:
  std::size_t k_;
  TrackedDistanceSeq d_;
  std::size_t n_ = 0;
  bool unsolvable_ = false;
};

}  // namespace udring::core
