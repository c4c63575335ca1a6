#include "core/distance_sequence.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace udring::core {

DistanceSeq shift(const DistanceSeq& d, std::size_t x) {
  if (d.empty()) return {};
  x %= d.size();
  DistanceSeq out;
  out.reserve(d.size());
  out.insert(out.end(), d.begin() + static_cast<std::ptrdiff_t>(x), d.end());
  out.insert(out.end(), d.begin(), d.begin() + static_cast<std::ptrdiff_t>(x));
  return out;
}

std::size_t sum(const DistanceSeq& d, std::size_t count) {
  const auto end = d.begin() + static_cast<std::ptrdiff_t>(std::min(count, d.size()));
  return std::accumulate(d.begin(), end, std::size_t{0});
}

int compare_rotations(const DistanceSeq& d, std::size_t x, std::size_t y) {
  const std::size_t k = d.size();
  if (k == 0) return 0;
  x %= k;
  y %= k;
  for (std::size_t i = 0; i < k; ++i) {
    const Distance a = d[(x + i) % k];
    const Distance b = d[(y + i) % k];
    if (a < b) return -1;
    if (a > b) return 1;
  }
  return 0;
}

std::size_t min_rotation_naive(const DistanceSeq& d) {
  std::size_t best = 0;
  for (std::size_t x = 1; x < d.size(); ++x) {
    if (compare_rotations(d, x, best) < 0) best = x;
  }
  return best;
}

std::size_t min_rotation_booth(const DistanceSeq& d) {
  // Booth's least-rotation algorithm on the doubled sequence, O(k) time and
  // O(k) extra space. Returns the smallest index among minimal rotations.
  const std::size_t k = d.size();
  if (k <= 1) return 0;

  const auto at = [&](std::size_t i) -> Distance { return d[i % k]; };
  // failure function over the doubled string, f[i] in [-1, i)
  std::vector<std::ptrdiff_t> f(2 * k, -1);
  std::size_t least = 0;
  for (std::size_t j = 1; j < 2 * k; ++j) {
    const Distance sigma = at(j);
    std::ptrdiff_t i = f[j - least - 1];
    while (i != -1 && sigma != at(least + static_cast<std::size_t>(i) + 1)) {
      if (sigma < at(least + static_cast<std::size_t>(i) + 1)) {
        least = j - static_cast<std::size_t>(i) - 1;
      }
      i = f[static_cast<std::size_t>(i)];
    }
    if (i == -1 && sigma != at(least)) {
      if (sigma < at(least)) {
        least = j;
      }
      f[j - least] = -1;
    } else {
      f[j - least] = i + 1;
    }
  }
  return least % k;
}

std::size_t period(const DistanceSeq& d) {
  const std::size_t k = d.size();
  if (k == 0) return 0;
  for (std::size_t p = 1; p <= k / 2; ++p) {
    if (k % p != 0) continue;
    bool repeats = true;
    for (std::size_t i = p; i < k && repeats; ++i) {
      repeats = (d[i] == d[i - p]);
    }
    if (repeats) return p;
  }
  return k;
}

bool is_periodic(const DistanceSeq& d) { return !d.empty() && period(d) < d.size(); }

std::size_t symmetry_degree(const DistanceSeq& d) {
  if (d.empty()) return 0;
  return d.size() / period(d);
}

DistanceSeq aperiodic_factor(const DistanceSeq& d) {
  const std::size_t p = period(d);
  return DistanceSeq(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(p));
}

bool is_m_fold_repetition(const DistanceSeq& d, std::size_t m) {
  if (m == 0 || d.empty() || d.size() % m != 0) return false;
  const std::size_t p = d.size() / m;
  for (std::size_t i = p; i < d.size(); ++i) {
    if (d[i] != d[i - p]) return false;
  }
  return true;
}

bool cube_is_prefix_of_cube(const DistanceSeq& b, const DistanceSeq& a) {
  if (a.empty()) return b.empty();
  const std::size_t prefix_len = 3 * b.size();
  if (prefix_len > 3 * a.size()) return false;
  for (std::size_t i = 0; i < prefix_len; ++i) {
    if (b[i % b.size()] != a[i % a.size()]) return false;
  }
  return true;
}

DistanceSeq distances_from_positions(std::vector<std::size_t> positions,
                                     std::size_t node_count) {
  if (positions.empty()) {
    throw std::invalid_argument("distances_from_positions: no positions");
  }
  std::sort(positions.begin(), positions.end());
  if (std::adjacent_find(positions.begin(), positions.end()) != positions.end()) {
    throw std::invalid_argument("distances_from_positions: duplicate positions");
  }
  if (positions.back() >= node_count) {
    throw std::invalid_argument("distances_from_positions: position out of range");
  }
  DistanceSeq d;
  d.reserve(positions.size());
  for (std::size_t i = 0; i + 1 < positions.size(); ++i) {
    d.push_back(positions[i + 1] - positions[i]);
  }
  d.push_back(node_count - positions.back() + positions.front());
  return d;
}

DistanceSeq config_distance_sequence(std::vector<std::size_t> positions,
                                     std::size_t node_count) {
  const DistanceSeq d = distances_from_positions(std::move(positions), node_count);
  return shift(d, min_rotation(d));
}

std::size_t config_symmetry_degree(std::vector<std::size_t> positions,
                                   std::size_t node_count) {
  return symmetry_degree(distances_from_positions(std::move(positions), node_count));
}

std::uint64_t hash_sequence(std::uint64_t seed, const DistanceSeq& d) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  mix(d.size());
  for (const Distance v : d) mix(v);
  return h;
}

}  // namespace udring::core
