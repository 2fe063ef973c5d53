#include "eval/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

namespace groupsa::eval {
namespace {

TEST(MetricsTest, HitRatioBoundary) {
  EXPECT_EQ(HitRatioAtK(0, 5), 1.0);
  EXPECT_EQ(HitRatioAtK(4, 5), 1.0);
  EXPECT_EQ(HitRatioAtK(5, 5), 0.0);
  EXPECT_EQ(HitRatioAtK(100, 5), 0.0);
}

TEST(MetricsTest, NdcgTopRankIsOne) { EXPECT_DOUBLE_EQ(NdcgAtK(0, 10), 1.0); }

TEST(MetricsTest, NdcgDecaysWithRank) {
  EXPECT_GT(NdcgAtK(0, 10), NdcgAtK(1, 10));
  EXPECT_GT(NdcgAtK(1, 10), NdcgAtK(5, 10));
  EXPECT_NEAR(NdcgAtK(1, 10), 1.0 / std::log2(3.0), 1e-12);
}

TEST(MetricsTest, NdcgZeroOutsideTopK) {
  EXPECT_EQ(NdcgAtK(5, 5), 0.0);
  EXPECT_EQ(NdcgAtK(10, 5), 0.0);
}

TEST(MetricsTest, NdcgNeverExceedsHitRatio) {
  for (int rank = 0; rank < 20; ++rank) {
    for (int k : {1, 5, 10}) {
      EXPECT_LE(NdcgAtK(rank, k), HitRatioAtK(rank, k));
      EXPECT_GE(NdcgAtK(rank, k), 0.0);
    }
  }
}

TEST(MetricsTest, RankOfPositiveCountsHigherScores) {
  EXPECT_EQ(RankOfPositive(5.0, {1.0, 2.0, 3.0}), 0);
  EXPECT_EQ(RankOfPositive(2.5, {1.0, 2.0, 3.0}), 1);
  EXPECT_EQ(RankOfPositive(0.5, {1.0, 2.0, 3.0}), 3);
}

TEST(MetricsTest, RankOfPositiveTiesArePessimistic) {
  // A constant scorer gives the positive the worst rank, not the best.
  EXPECT_EQ(RankOfPositive(1.0, {1.0, 1.0, 1.0}), 3);
}

TEST(MetricsTest, AggregateRanksAverages) {
  // Ranks 0 and 9: HR@5 = 0.5, HR@10 = 1.0.
  const EvalResult r = AggregateRanks({0, 9}, {5, 10});
  EXPECT_EQ(r.num_cases, 2);
  EXPECT_DOUBLE_EQ(r.HitRatio(5), 0.5);
  EXPECT_DOUBLE_EQ(r.HitRatio(10), 1.0);
  EXPECT_NEAR(r.Ndcg(10), (1.0 + 1.0 / std::log2(11.0)) / 2.0, 1e-12);
}

TEST(MetricsTest, AggregateEmptyRanks) {
  const EvalResult r = AggregateRanks({}, {5});
  EXPECT_EQ(r.num_cases, 0);
  EXPECT_EQ(r.HitRatio(5), 0.0);
}

TEST(MetricsTest, ToStringContainsMetrics) {
  const EvalResult r = AggregateRanks({0}, {5, 10});
  const std::string s = r.ToString();
  EXPECT_NE(s.find("HR@5"), std::string::npos);
  EXPECT_NE(s.find("NDCG@10"), std::string::npos);
}

}  // namespace
}  // namespace groupsa::eval
