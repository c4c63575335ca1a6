// udring/core/premature_halt.h
//
// A deliberately *wrong* algorithm that makes Theorem 5 executable.
//
// Theorem 5 (§4.1): with no knowledge of k or n, no algorithm solves uniform
// deployment *with termination detection*. The proof takes any terminating
// algorithm, runs it on a ring R, then builds a larger ring R' (Fig 7) whose
// first qn + n nodes repeat R's initial configuration; by Lemma 1 the agents
// there cannot tell the difference within qn rounds, so they halt exactly as
// in R — at spacing n/k, which is wrong for R'.
//
// PrematureHaltAgent is the natural candidate such an adversary defeats: it
// runs the Algorithm-4 estimating phase (stop at the first 4-fold repetition
// of the observed distance sequence), deploys by its estimate, and — unlike
// Algorithm 6 — *halts* instead of suspending. On rings whose configuration
// admits no misleading repetition every agent estimates (n, k) exactly and
// the algorithm "solves" uniform deployment with termination; on the Fig 7
// construction it terminates prematurely and fails. The pair of runs is the
// paper's impossibility argument made concrete (tests/test_impossibility.cpp,
// bench_fig7_impossibility, examples/impossibility_demo).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/memory_meter.h"
#include "sim/agent.h"

namespace udring::core {

class PrematureHaltAgent final : public sim::AgentProgram {
 public:
  enum Phase : std::size_t { kEstimating = 0, kDeploying = 1 };

  PrematureHaltAgent() = default;

  sim::Behavior run(sim::AgentContext& ctx) override;
  [[nodiscard]] std::string_view name() const override { return "premature-halt"; }
  [[nodiscard]] std::size_t compute_memory_bits() const override;
  [[nodiscard]] std::uint64_t state_hash() const override;
  [[nodiscard]] std::vector<std::string_view> phase_names() const override {
    return {"estimating", "deploying"};
  }

  [[nodiscard]] std::size_t estimated_n() const noexcept { return n_est_; }
  [[nodiscard]] std::size_t estimated_k() const noexcept { return k_est_; }

 private:
  TrackedDistanceSeq d_;
  std::size_t n_est_ = 0;
  std::size_t k_est_ = 0;
  std::size_t rank_ = 0;
};

}  // namespace udring::core
