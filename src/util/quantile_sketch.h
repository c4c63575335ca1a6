// udring/util/quantile_sketch.h
//
// A mergeable fixed-universe quantile sketch for the campaign engine's
// per-cell tail statistics (p50/p90/p99 moves and makespan).
//
// Why not a classic t-digest: centroid-based digests are ORDER-DEPENDENT —
// merging {A,B} then C yields different centroids than {A,C} then B — and
// the campaign engine's whole determinism contract rests on folds being
// commutative and associative, because work stealing hands workers (and
// shard processes hand machines) arbitrary scenario subsets. This sketch
// therefore compresses like a t-digest (fixed size, log-scaled resolution,
// coarser where values are large) but stores COUNTS in a fixed bucket
// universe, so merging is element-wise integer addition: commutative,
// associative, exact. Any partition of a value stream over any workers,
// shards or checkpoint intervals folds to the same bytes — the same
// argument (and the same guarantee) as CellStats' integer sums.
//
// Bucket universe (fixed, value-independent):
//   values 0..255          -> one bucket each (exact — small move counts,
//                             the common case, lose nothing)
//   values >= 256          -> log2 buckets with 16 sub-buckets per octave
//                             (relative error <= 1/16 within a bucket)
// for a total universe of kBucketCount = 1152 possible buckets. Storage is
// sparse (sorted (bucket, count) pairs): a cell's values cluster, so a
// typical sketch holds a handful of entries; the dense worst case is the
// fixed size the universe bounds.
//
// Exact min/max ride along so the extremes reported are never interpolated.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace udring {

class QuantileSketch {
 public:
  /// One sparse entry: `count` observations whose value maps to `bucket`.
  struct Entry {
    std::uint16_t bucket = 0;
    std::uint64_t count = 0;
    bool operator==(const Entry&) const = default;
  };

  /// Total number of representable buckets (the dense universe bound).
  static constexpr std::size_t kBucketCount = 1152;

  /// Folds one observation in. O(log entries) search + O(entries) insert for
  /// a new bucket; cells see few distinct buckets, so amortized this is the
  /// cost of a binary search.
  void add(std::uint64_t value, std::uint64_t count = 1);

  /// Element-wise merge: bucket counts add, min/max combine. Commutative and
  /// associative by construction. Throws std::overflow_error if any bucket
  /// count (or the total) would wrap — a merged cross-machine sweep that
  /// big must fail loudly, not report garbage tails.
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }

  /// Exact extremes (0 when empty).
  [[nodiscard]] std::uint64_t min() const noexcept {
    return total_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }

  /// The q-quantile estimate, q in [0, 1] (clamped). Exact for values below
  /// 256; within 1/16 relative error above. Deterministic: integer rank
  /// selection plus integer interpolation inside the landing bucket. Returns
  /// 0 on an empty sketch.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Sparse state, sorted ascending by bucket — the serialization surface.
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

  /// Rebuilds a sketch from serialized state. Validates: entries sorted
  /// strictly ascending, buckets < kBucketCount, non-zero counts, counts sum
  /// to `total` without wrapping, min/max consistent with emptiness. Throws
  /// std::invalid_argument on malformed input (a corrupt shard file must not
  /// become a quietly-wrong sketch).
  [[nodiscard]] static QuantileSketch from_entries(std::vector<Entry> entries,
                                                   std::uint64_t min_value,
                                                   std::uint64_t max_value);

  bool operator==(const QuantileSketch&) const = default;

  /// The bucket a value maps to (exposed for tests pinning the mapping).
  [[nodiscard]] static std::uint16_t bucket_of(std::uint64_t value) noexcept;
  /// Inclusive-exclusive value range [lo, hi) a bucket represents.
  [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> bucket_range(
      std::uint16_t bucket) noexcept;

 private:
  std::vector<Entry> entries_;  // sorted ascending by bucket, counts > 0
  std::uint64_t total_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace udring
