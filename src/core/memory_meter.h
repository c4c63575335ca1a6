// udring/core/memory_meter.h
//
// Bit accounting that makes the paper's space bounds measurable.
//
// Convention (matching how the paper counts): a scalar variable whose value
// is bounded by m occupies bit_width(m) bits; an array of length L with
// elements bounded by m occupies L · bit_width(m) bits; booleans occupy one
// bit. Algorithms report the *current* total through compute_memory_bits(),
// which the simulator re-runs after every state-changing action — every move,
// for walking agents — so a count must be O(1) and never scan state arrays.
// That is why an agent's distance sequence D lives in a TrackedDistanceSeq.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/distance_sequence.h"
#include "util/bits.h"

namespace udring::core {

/// An agent's D together with max D, and the only way to mutate it:
/// push_back raises the maximum; assigning a whole sequence rescans it, as a
/// correction may lower it. Readers see a plain const DistanceSeq&. The
/// maximum is derived data, so state hashes cover the sequence only.
class TrackedDistanceSeq {
 public:
  void reserve(std::size_t capacity) { seq_.reserve(capacity); }
  void push_back(Distance d) {
    seq_.push_back(d);
    max_ = std::max(max_, d);
  }
  TrackedDistanceSeq& operator=(DistanceSeq seq) {
    seq_ = std::move(seq);
    max_ = seq_.empty() ? 0 : *std::max_element(seq_.begin(), seq_.end());
    return *this;
  }

  /// Implicit, so every DistanceSeq reader takes D unchanged.
  operator const DistanceSeq&() const noexcept { return seq_; }
  [[nodiscard]] std::size_t size() const noexcept { return seq_.size(); }
  [[nodiscard]] Distance operator[](std::size_t i) const { return seq_[i]; }

  /// max D, or 1 when D is empty. Debug builds check it against a rescan.
  [[nodiscard]] Distance max_or_one() const {
    assert(seq_.empty() ||
           max_ == *std::max_element(seq_.begin(), seq_.end()));
    return seq_.empty() ? 1 : max_;
  }

 private:
  DistanceSeq seq_;
  Distance max_ = 0;  ///< max D; 0 while D is empty
};

class MemoryMeter {
 public:
  /// Adds one scalar holding `value`.
  MemoryMeter& counter(std::uint64_t value) {
    bits_ += udring::bit_width(value);
    return *this;
  }

  /// Adds one boolean flag.
  MemoryMeter& flag() {
    bits_ += 1;
    return *this;
  }

  /// Adds an array of `length` elements, each bounded by `max_element`.
  MemoryMeter& array(std::size_t length, std::uint64_t max_element) {
    bits_ += length * udring::bit_width(max_element);
    return *this;
  }

  /// Adds D as an array bounded by max(max D, bound); `bound` is n or n'.
  MemoryMeter& distances(const TrackedDistanceSeq& d, std::uint64_t bound) {
    return array(d.size(), std::max<std::uint64_t>(d.max_or_one(), bound));
  }

  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }

 private:
  std::size_t bits_ = 0;
};

}  // namespace udring::core
