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

// The trainer seeds each shard's generator with Rng(StreamSeed(seed, s)),
// which relies on the three properties below.
std::vector<Rng> Streams(uint64_t seed, int n) {
  std::vector<Rng> streams;
  for (int s = 0; s < n; ++s)
    streams.emplace_back(Rng::StreamSeed(seed, static_cast<uint64_t>(s)));
  return streams;
}

TEST(RngTest, StreamsReproducible) {
  std::vector<Rng> a = Streams(7, 4);
  std::vector<Rng> b = Streams(7, 4);
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a[s].NextU64(), b[s].NextU64());
  }
}

TEST(RngTest, StreamsDoNotOverlap) {
  // Draw a long prefix from each stream; across streams the draws must be
  // (statistically) disjoint. With 64-bit outputs, any collision in a few
  // thousand draws would indicate correlated streams.
  std::vector<Rng> streams = Streams(99, 8);
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

TEST(RngTest, StreamsIndependentOfCount) {
  // Stream s is the same whether the seed feeds 2 or 8 streams: shard RNGs
  // must not depend on how many shards run concurrently.
  std::vector<Rng> narrow = Streams(55, 2);
  std::vector<Rng> wide = Streams(55, 8);
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 50; ++i)
      EXPECT_EQ(narrow[s].NextU64(), wide[s].NextU64());
  }
}

// WeightedTable must return the reference scan's index on every draw.
// Each pool family below gets 10^6 seeded draws against NextWeighted from a
// twin generator, and a sweep of every prefix-sum boundary +-4 ulps, where
// the table's prefix sums and the scan's running remainder round apart.

constexpr int kTableDraws = 1000000;

// Draws through the table and through NextWeighted from twin generators;
// returns the table's fallback count.
int64_t ExpectDrawsMatch(const std::vector<double>& weights, uint64_t seed) {
  WeightedTable table(weights);
  double total = 0.0;
  for (const double w : weights) total += w;
  EXPECT_EQ(table.total(), total);
  Rng a(seed);
  Rng b(seed);
  for (int i = 0; i < kTableDraws; ++i) {
    const int got = table.Draw(&a);
    const int want = b.NextWeighted(weights, total);
    if (got != want) {
      ADD_FAILURE() << "draw " << i << ": table " << got << ", scan " << want;
      break;
    }
  }
  EXPECT_EQ(a.NextU64(), b.NextU64()) << "a draw consumed a different count";
  return table.fallbacks();
}

// r at every prefix sum (and 0 and the total) +-4 ulps, clamped to
// [0, total]; returns the table's fallback count.
int64_t ExpectBoundariesMatch(const std::vector<double>& weights) {
  WeightedTable table(weights);
  std::vector<double> points = {0.0};
  double prefix = 0.0;
  for (const double w : weights) {
    prefix += w;
    points.push_back(prefix);
  }
  int mismatches = 0;
  for (const double point : points) {
    double lo = point;
    double hi = point;
    for (int k = 0; k < 4; ++k) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, table.total());
    }
    for (double r = lo;; r = std::nextafter(r, hi)) {
      const int got = table.Find(r);
      const int want = WeightedScan(weights, r);
      if (got != want && ++mismatches <= 5)
        ADD_FAILURE() << "r " << r << ": table " << got << ", scan " << want;
      if (r == hi) break;
    }
  }
  EXPECT_EQ(mismatches, 0);
  return table.fallbacks();
}

TEST(RngTest, WeightedTableMatchesScanOnZipfPools) {
  // The generator's topic pools: Zipf popularity 1 / (1 + rank)^0.8 with
  // ranks drawn at random, as synthetic.cc draws them.
  Rng rng(41);
  std::vector<double> weights(625);
  for (double& w : weights) w = 1.0 / std::pow(1.0 + rng.NextInt(5000), 0.8);
  // A random r lands within the guard of one of the 625 prefix sums with
  // probability ~4e-10, so these draws never need the scan.
  EXPECT_EQ(ExpectDrawsMatch(weights, 1), 0);
  EXPECT_GT(ExpectBoundariesMatch(weights), 0);
}

TEST(RngTest, WeightedTableMatchesScanWithZeros) {
  // Leading, trailing and interior runs of zero weights: zero-weight
  // indices share their neighbour's prefix sum and are never drawn.
  Rng rng(43);
  std::vector<double> weights(200, 0.0);
  for (int i = 3; i < 197; ++i) {
    if (i % 17 < 6) continue;  // runs of six zeros
    weights[i] = rng.NextUniform(0.0, 2.0);
  }
  ExpectDrawsMatch(weights, 2);
  EXPECT_GT(ExpectBoundariesMatch(weights), 0);
}

TEST(RngTest, WeightedTableMatchesScanOnSingleAndEqualWeights) {
  ExpectDrawsMatch({3.5}, 3);
  ExpectBoundariesMatch({3.5});
  // 0.1 is inexact in binary, so equal weights' prefix sums round.
  const std::vector<double> equal(1000, 0.1);
  ExpectDrawsMatch(equal, 4);
  EXPECT_GT(ExpectBoundariesMatch(equal), 0);
}

TEST(RngTest, WeightedTableMatchesScanOverWideRange) {
  // Weights from 1e-300 to 1e300: most prefix sums absorb their weight
  // entirely, and the sum of 300 stays finite.
  Rng rng(47);
  std::vector<double> weights(300);
  for (double& w : weights) w = std::pow(10.0, rng.NextUniform(-300.0, 300.0));
  ExpectDrawsMatch(weights, 5);
  EXPECT_GT(ExpectBoundariesMatch(weights), 0);
}

TEST(RngTest, WeightedTableFallsBackWhereRoundingDecides) {
  // The prefix sums round 1 + 2^-53 back to 1, so a plain prefix search at
  // r = 1 + 2^-52 lands on index 4. The scan keeps the 2^-53s: 2^-52 is
  // left after index 0, 2^-53 after index 1 and 0 after index 2.
  const std::vector<double> weights = {1.0, 0x1p-53, 0x1p-53, 0x1p-53, 1.0};
  const double r = 1.0 + 0x1p-52;
  ASSERT_EQ(WeightedScan(weights, r), 2);
  WeightedTable table(weights);
  EXPECT_EQ(table.Find(r), 2);
  EXPECT_EQ(table.fallbacks(), 1);
  EXPECT_GT(ExpectBoundariesMatch(weights), 0);
}

}  // namespace
}  // namespace groupsa
