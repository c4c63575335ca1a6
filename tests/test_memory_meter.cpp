// Tests for core/memory_meter.h — the bit accounting the paper's memory
// claims are measured with, and the distance sequence whose maximum it
// reads in O(1).

#include "core/memory_meter.h"

#include <gtest/gtest.h>

namespace udring::core {
namespace {

TEST(MemoryMeter, EmptyIsZero) { EXPECT_EQ(MemoryMeter{}.bits(), 0u); }

TEST(MemoryMeter, CounterCostsItsBitWidth) {
  EXPECT_EQ(MemoryMeter{}.counter(0).bits(), 1u);
  EXPECT_EQ(MemoryMeter{}.counter(1).bits(), 1u);
  EXPECT_EQ(MemoryMeter{}.counter(255).bits(), 8u);
  EXPECT_EQ(MemoryMeter{}.counter(256).bits(), 9u);
}

TEST(MemoryMeter, FlagCostsOneBit) {
  EXPECT_EQ(MemoryMeter{}.flag().flag().flag().bits(), 3u);
}

TEST(MemoryMeter, ArrayCostsLengthTimesElementWidth) {
  EXPECT_EQ(MemoryMeter{}.array(10, 255).bits(), 80u);
  EXPECT_EQ(MemoryMeter{}.array(0, 1000).bits(), 0u);
  EXPECT_EQ(MemoryMeter{}.array(4, 0).bits(), 4u) << "zero still needs a bit";
}

TEST(MemoryMeter, ChainsAccumulate) {
  const std::size_t bits =
      MemoryMeter{}.counter(100).array(3, 7).flag().counter(1).bits();
  EXPECT_EQ(bits, 7u + 9u + 1u + 1u);
}

TEST(MemoryMeter, MatchesPaperAsymptotics) {
  // Algorithm 1's dominant term: a k-length array of log n-bit distances.
  const std::size_t n = 1024, k = 32;
  const std::size_t algo1 = MemoryMeter{}.array(k, n).counter(n).bits();
  EXPECT_GE(algo1, k * 10);
  // Algorithm 2: a constant number of log n counters.
  const std::size_t algo2 =
      MemoryMeter{}.counter(n).counter(n).counter(k).counter(k).bits();
  EXPECT_LT(algo2 * 8, algo1) << "Θ(log n) ≪ Θ(k log n) at these sizes";
}

TEST(TrackedDistanceSeq, EmptyCountsAsMaxOne) {
  const TrackedDistanceSeq d;
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.max_or_one(), 1u);
  EXPECT_EQ(MemoryMeter{}.distances(d, 0).bits(), 0u);
}

TEST(TrackedDistanceSeq, PushBackRaisesTheMax) {
  TrackedDistanceSeq d;
  d.push_back(3);
  EXPECT_EQ(d.max_or_one(), 3u);
  d.push_back(9);
  EXPECT_EQ(d.max_or_one(), 9u);
  d.push_back(4);
  EXPECT_EQ(d.max_or_one(), 9u);
  EXPECT_EQ(static_cast<const DistanceSeq&>(d), (DistanceSeq{3, 9, 4}));
}

TEST(TrackedDistanceSeq, ReassignmentToASmallerMaxLowersIt) {
  // Unknown-relaxed's correction replaces D by a shifted copy of another
  // agent's sequence, whose maximum may be smaller than the old one.
  TrackedDistanceSeq d;
  d.push_back(200);
  d.push_back(1);
  d = DistanceSeq{2, 5, 3};
  EXPECT_EQ(d.max_or_one(), 5u);
  EXPECT_EQ(MemoryMeter{}.distances(d, 1).bits(), 3u * 3u);
  d = DistanceSeq{};
  EXPECT_EQ(d.max_or_one(), 1u);
  d.push_back(6);
  EXPECT_EQ(d.max_or_one(), 6u);
}

TEST(TrackedDistanceSeq, DistancesTermMatchesTheArrayTerm) {
  // The term every agent charges for D: |D| elements bounded by
  // max(max D, bound), with an empty D counting as max 1.
  TrackedDistanceSeq d;
  for (const Distance x : {7u, 1u, 30u, 2u}) d.push_back(x);
  EXPECT_EQ(MemoryMeter{}.distances(d, 10).bits(),
            MemoryMeter{}.array(4, 30).bits());
  EXPECT_EQ(MemoryMeter{}.distances(d, 1000).bits(),
            MemoryMeter{}.array(4, 1000).bits());
}

}  // namespace
}  // namespace udring::core
