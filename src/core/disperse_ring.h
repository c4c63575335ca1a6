// udring/core/disperse_ring.h
//
// Asynchronous dispersion on the token ring (per Pattanayak et al.,
// "Optimal Dispersion Under Asynchrony"): the agents must end halted with
// *exactly one* settled agent per occupied node — the complement of
// gathering, and a relaxation of uniform deployment (distinct positions,
// but no spacing requirement).
//
// On a ring with distinct home nodes dispersion is solvable from *every*
// initial configuration — symmetric agents simply settle at symmetric
// (hence distinct) nodes — so unlike rendezvous and g-partial gathering
// there is no unsolvability escape hatch.
//
// Protocol (each agent knows k):
//   1. explore — drop the token, record the distance sequence D over one
//      full circuit (k token sightings); compute the Booth rank
//      r = min_rotation(D), which lies in [0, period(D)).
//   2. settle — walk forward sum(D[0 .. r)) nodes to the nearest rank-0
//      (base) agent's home, then r further nodes, and halt. Agents sharing
//      a base node carry distinct ranks (each rank occurs once per period
//      window), so their offsets differ; agents of different base nodes
//      settle in disjoint windows [base, base + p) — consecutive base
//      homes are n*p/k >= p nodes apart since k <= n. Hence all settled
//      positions are distinct.
//
// Moves are O(n + k) per agent; memory is O(k log n) bits (the distance
// sequence dominates), matching the other distance-sequence protocols.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/memory_meter.h"
#include "sim/agent.h"

namespace udring::core {

class DisperseAgent final : public sim::AgentProgram {
 public:
  enum Phase : std::size_t { kExplore = 0, kSettle = 1 };

  explicit DisperseAgent(std::size_t k) : k_(k) {}

  sim::Behavior run(sim::AgentContext& ctx) override;
  [[nodiscard]] std::string_view name() const override {
    return "disperse-ring";
  }
  [[nodiscard]] std::size_t compute_memory_bits() const override;
  [[nodiscard]] std::uint64_t state_hash() const override;
  [[nodiscard]] std::vector<std::string_view> phase_names() const override {
    return {"explore", "settle"};
  }

 private:
  std::size_t k_;
  TrackedDistanceSeq d_;
  std::size_t n_ = 0;
};

}  // namespace udring::core
