#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace groupsa {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(7);
  double total = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) total += rng.NextDouble();
  EXPECT_NEAR(total / kN, 0.5, 0.01);
}

TEST(RngTest, NextIntBounds) {
  Rng rng(3);
  for (int bound : {1, 2, 7, 100}) {
    for (int i = 0; i < 1000; ++i) {
      const int v = rng.NextInt(bound);
      EXPECT_GE(v, 0);
      EXPECT_LT(v, bound);
    }
  }
}

TEST(RngTest, NextIntCoversAllValues) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextInt(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextUniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextUniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  constexpr int kN = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(13);
  constexpr int kN = 50000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.NextGaussian(5.0, 2.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(19);
  const std::vector<double> weights = {0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 1000; ++i) {
    const int pick = rng.NextWeighted(weights);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(RngTest, WeightedProportions) {
  Rng rng(23);
  const std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ones += rng.NextWeighted(weights) == 1;
  EXPECT_NEAR(static_cast<double>(ones) / kN, 0.75, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(29);
  std::vector<int> values(100);
  for (int i = 0; i < 100; ++i) values[i] = i;
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  EXPECT_NE(shuffled, values);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const std::vector<int> sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(31);
  const std::vector<int> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementEmpty) {
  Rng rng(31);
  EXPECT_TRUE(rng.SampleWithoutReplacement(10, 0).empty());
}

TEST(RngTest, StreamSeedReproducible) {
  for (uint64_t stream = 0; stream < 16; ++stream) {
    EXPECT_EQ(Rng::StreamSeed(42, stream), Rng::StreamSeed(42, stream));
  }
}

TEST(RngTest, StreamSeedsDistinct) {
  // Streams of the same seed, and the same stream of nearby seeds, must all
  // produce distinct derived seeds — this is what keeps per-shard RNGs from
  // colliding in the sharded trainer.
  std::set<uint64_t> seeds;
  for (uint64_t seed : {0ull, 1ull, 42ull, ~0ull}) {
    for (uint64_t stream = 0; stream < 64; ++stream) {
      seeds.insert(Rng::StreamSeed(seed, stream));
    }
  }
  EXPECT_EQ(seeds.size(), 4u * 64u);
}

TEST(RngTest, SplitStreamsReproducible) {
  std::vector<Rng> a = Rng::Split(7, 4);
  std::vector<Rng> b = Rng::Split(7, 4);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a[s].NextU64(), b[s].NextU64());
  }
}

TEST(RngTest, SplitStreamsDoNotOverlap) {
  // Draw a long prefix from each stream; across streams the draws must be
  // (statistically) disjoint. With 64-bit outputs, any collision in a few
  // thousand draws would indicate correlated streams.
  std::vector<Rng> streams = Rng::Split(99, 8);
  std::set<uint64_t> seen;
  size_t expected = 0;
  for (Rng& rng : streams) {
    for (int i = 0; i < 2000; ++i) {
      seen.insert(rng.NextU64());
      ++expected;
    }
  }
  EXPECT_EQ(seen.size(), expected);
}

TEST(RngTest, SplitStreamsIndependentOfCount) {
  // Stream s is the same whether the seed is split 2 or 8 ways: shard RNGs
  // must not depend on how many shards run concurrently.
  std::vector<Rng> narrow = Rng::Split(55, 2);
  std::vector<Rng> wide = Rng::Split(55, 8);
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 50; ++i)
      EXPECT_EQ(narrow[s].NextU64(), wide[s].NextU64());
  }
}

}  // namespace
}  // namespace groupsa
