// udring/sim/enabled_set.h
//
// EnabledSet — the agents currently allowed to act, in the two views the
// schedulers read:
//
//  - the insertion-ordered list (begin/end, operator[]): an agent is
//    appended when it becomes enabled and swap-removed when it stops being
//    enabled, so the order depends on the execution's history. Random and
//    Burst index it with their RNG draw, and Synchronous scans it, so this
//    order is part of their frozen schedule derivation;
//  - the id bitset (bit id % 64 of word id / 64): contains, rank, select and
//    next_at_or_after read it in a few word operations, independent of the
//    list order. Round-robin, the record/replay choice encoding and mc's
//    prefix replay use this view.
//
// Both views hold the same ids at all times. ExecutionState is the one
// writer (refresh_enabled); everything else reads a const reference. Tests
// build a set directly with EnabledSet::of.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/types.h"

namespace udring::sim {

class EnabledSet {
 public:
  using const_iterator = std::vector<AgentId>::const_iterator;

  EnabledSet() = default;

  /// A set over ids [0, agent_count) holding `ids`, listed in the given
  /// order. Throws std::invalid_argument on an id out of range or listed
  /// twice.
  [[nodiscard]] static EnabledSet of(std::size_t agent_count,
                                     std::span<const AgentId> ids) {
    EnabledSet set;
    set.reset(agent_count);
    for (const AgentId id : ids) {
      if (set.contains(id) || id >= agent_count) {
        throw std::invalid_argument("EnabledSet::of: id out of range or repeated");
      }
      set.insert(id);
    }
    return set;
  }
  [[nodiscard]] static EnabledSet of(std::size_t agent_count,
                                     std::initializer_list<AgentId> ids) {
    return of(agent_count, std::span<const AgentId>(ids.begin(), ids.size()));
  }

  /// Size of the id universe; every member is below it.
  [[nodiscard]] std::size_t agent_count() const noexcept { return pos_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return list_.size(); }
  [[nodiscard]] bool empty() const noexcept { return list_.empty(); }

  // ---- the insertion-ordered list -----------------------------------------

  [[nodiscard]] const_iterator begin() const noexcept { return list_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return list_.end(); }
  [[nodiscard]] AgentId operator[](std::size_t i) const noexcept {
    return list_[i];
  }
  [[nodiscard]] AgentId front() const noexcept { return list_.front(); }
  [[nodiscard]] const std::vector<AgentId>& list() const noexcept {
    return list_;
  }

  // ---- the id bitset ------------------------------------------------------

  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// False for ids outside the universe.
  [[nodiscard]] bool contains(AgentId id) const noexcept {
    return id < pos_.size() && pos_[id] != kAbsent;
  }

  /// Number of members smaller than `id`: the index `id` has (or would
  /// have) in the sorted set. Requires id < agent_count().
  [[nodiscard]] std::size_t rank(AgentId id) const noexcept {
    const std::size_t word = id / 64;
    std::size_t below = 0;
    for (std::size_t w = 0; w < word; ++w) {
      below += static_cast<std::size_t>(std::popcount(words_[w]));
    }
    const std::uint64_t mask = (std::uint64_t{1} << (id % 64)) - 1;
    return below + static_cast<std::size_t>(std::popcount(words_[word] & mask));
  }

  /// The `rank`-th smallest member (0-based), the inverse of rank(). Throws
  /// std::out_of_range when rank >= size().
  [[nodiscard]] AgentId select(std::size_t rank) const {
    if (rank >= list_.size()) {
      throw std::out_of_range("EnabledSet: rank out of range");
    }
    for (std::size_t w = 0;; ++w) {
      const std::size_t count = static_cast<std::size_t>(std::popcount(words_[w]));
      if (rank >= count) {
        rank -= count;
        continue;
      }
      std::uint64_t bits = words_[w];
      for (; rank > 0; --rank) bits &= bits - 1;
      return w * 64 + static_cast<AgentId>(std::countr_zero(bits));
    }
  }

  /// The smallest member >= id, else (wrapping around) the smallest member:
  /// the member at the least cyclic distance from `id`. Requires a non-empty
  /// set and id < agent_count().
  [[nodiscard]] AgentId next_at_or_after(AgentId id) const noexcept {
    std::size_t w = id / 64;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (id % 64));
    while (bits == 0) {
      if (++w == words_.size()) w = 0;
      bits = words_[w];
    }
    return w * 64 + static_cast<AgentId>(std::countr_zero(bits));
  }

 private:
  friend class ExecutionState;

  /// Empties the set over a universe of `agent_count` ids, keeping capacity.
  void reset(std::size_t agent_count) {
    list_.clear();
    list_.reserve(agent_count);
    pos_.assign(agent_count, kAbsent);
    words_.assign((agent_count + 63) / 64, 0);
  }

  /// Requires !contains(id).
  void insert(AgentId id) {
    pos_[id] = list_.size();
    list_.push_back(id);
    words_[id / 64] |= std::uint64_t{1} << (id % 64);
  }

  /// Requires contains(id). Swap-removes: the last-listed member takes
  /// id's slot.
  void erase(AgentId id) noexcept {
    const std::size_t pos = pos_[id];
    const AgentId moved = list_.back();
    list_[pos] = moved;
    pos_[moved] = pos;
    list_.pop_back();
    pos_[id] = kAbsent;
    words_[id / 64] &= ~(std::uint64_t{1} << (id % 64));
  }

  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  std::vector<AgentId> list_;
  std::vector<std::size_t> pos_;       ///< id -> index in list_, or kAbsent
  std::vector<std::uint64_t> words_;   ///< list_ as an id bitset
};

}  // namespace udring::sim
