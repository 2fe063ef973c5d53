#include "baselines/static_agg.h"

#include <gtest/gtest.h>

#include "core/inference_engine.h"
#include "core/test_fixtures.h"

namespace groupsa::baselines {
namespace {

using core::testing::TinyFixture;

TEST(StaticAggTest, AverageIsMean) {
  const std::vector<std::vector<double>> scores = {{1, 4}, {3, 2}};
  const auto out = AggregateMemberScores(scores, ScoreAggregation::kAverage);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
}

TEST(StaticAggTest, LeastMiseryIsMin) {
  const std::vector<std::vector<double>> scores = {{1, 4}, {3, 2}};
  const auto out =
      AggregateMemberScores(scores, ScoreAggregation::kLeastMisery);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
}

TEST(StaticAggTest, MaxSatisfactionIsMax) {
  const std::vector<std::vector<double>> scores = {{1, 4}, {3, 2}};
  const auto out =
      AggregateMemberScores(scores, ScoreAggregation::kMaxSatisfaction);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
}

TEST(StaticAggTest, SingleMemberIsIdentityForAllStrategies) {
  const std::vector<std::vector<double>> scores = {{5, -2, 0}};
  for (auto agg : {ScoreAggregation::kAverage, ScoreAggregation::kLeastMisery,
                   ScoreAggregation::kMaxSatisfaction}) {
    const auto out = AggregateMemberScores(scores, agg);
    EXPECT_EQ(out, scores[0]);
  }
}

TEST(StaticAggTest, NamesMatchPaper) {
  EXPECT_EQ(ToString(ScoreAggregation::kAverage), "Group+avg");
  EXPECT_EQ(ToString(ScoreAggregation::kLeastMisery), "Group+lm");
  EXPECT_EQ(ToString(ScoreAggregation::kMaxSatisfaction), "Group+ms");
}

TEST(StaticAggTest, OrderingInvariant) {
  // min <= avg <= max element-wise, always.
  const std::vector<std::vector<double>> scores = {
      {0.3, -1.0, 2.0}, {0.7, 0.0, -3.0}, {0.5, 0.5, 0.5}};
  const auto lo =
      AggregateMemberScores(scores, ScoreAggregation::kLeastMisery);
  const auto mid = AggregateMemberScores(scores, ScoreAggregation::kAverage);
  const auto hi =
      AggregateMemberScores(scores, ScoreAggregation::kMaxSatisfaction);
  for (size_t i = 0; i < lo.size(); ++i) {
    EXPECT_LE(lo[i], mid[i]);
    EXPECT_LE(mid[i], hi[i]);
  }
}

core::GroupSaConfig SmallConfig() {
  core::GroupSaConfig c = core::GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  return c;
}

// Group+avg is the Sec. II-F fast path: the mean of the members' blended
// user scores.
TEST(StaticAggRecommenderTest, AveragesMemberScores) {
  const core::GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const StaticAggRecommender average(model.get(), ScoreAggregation::kAverage);
  const std::vector<data::UserId> members = {0, 1, 2};
  const std::vector<data::ItemId> items = {3, 4};
  const auto scores = average.ScoreItemsForMembers(members, items);
  const auto per_member = model->inference().MemberItemScores(members, items);
  for (size_t i = 0; i < items.size(); ++i) {
    const double expected =
        (per_member[0][i] + per_member[1][i] + per_member[2][i]) / 3.0;
    EXPECT_NEAR(scores[i], expected, 1e-9);
  }
}

TEST(StaticAggRecommenderTest, SingleMemberEqualsUserScores) {
  const core::GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const StaticAggRecommender average(model.get(), ScoreAggregation::kAverage);
  const std::vector<data::ItemId> items = {0, 1, 2};
  const auto scores = average.ScoreItemsForMembers({5}, items);
  const auto user_scores = model->inference().ScoreItemsForUser(5, items);
  for (size_t i = 0; i < items.size(); ++i)
    EXPECT_NEAR(scores[i], user_scores[i], 1e-9);
}

}  // namespace
}  // namespace groupsa::baselines
