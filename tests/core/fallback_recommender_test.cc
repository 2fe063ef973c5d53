#include "core/fallback_recommender.h"

#include <gtest/gtest.h>

#include "core/inference_engine.h"
#include "core/test_fixtures.h"

namespace groupsa::core {
namespace {

using core::testing::TinyFixture;

GroupSaConfig SmallConfig() {
  GroupSaConfig c = GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  return c;
}

data::EdgeList PopularityEdges() {
  // Item 2 three times, item 0 twice, item 1 once; items 3/4 unseen.
  // Out-of-range rows/items must be ignored, not trusted.
  return {{0, 2}, {1, 2}, {2, 2}, {0, 0}, {1, 0}, {2, 1}, {0, 99}, {0, -3}};
}

TEST(FallbackRecommenderTest, PopularityRankingIsCountDescIdAsc) {
  FallbackRecommender fallback(nullptr, PopularityEdges(), /*num_items=*/5);
  const auto ranked =
      fallback.PopularityTopK(5, [](data::ItemId) { return false; });
  ASSERT_EQ(ranked.size(), 5u);
  EXPECT_EQ(ranked[0].first, 2);  // count 3
  EXPECT_EQ(ranked[1].first, 0);  // count 2
  EXPECT_EQ(ranked[2].first, 1);  // count 1
  EXPECT_EQ(ranked[3].first, 3);  // count 0, id ascending
  EXPECT_EQ(ranked[4].first, 4);
  EXPECT_DOUBLE_EQ(ranked[0].second, 3.0);
}

TEST(FallbackRecommenderTest, NullEngineDegradesEveryRequest) {
  FallbackRecommender fallback(nullptr, PopularityEdges(), 5);
  const auto response = fallback.RecommendForUser(0, 3, nullptr);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.error, "model unavailable");
  ASSERT_EQ(response.items.size(), 3u);
  EXPECT_EQ(response.items[0].first, 2);
  EXPECT_EQ(fallback.requests(), 1);
  EXPECT_EQ(fallback.degraded_responses(), 1);
}

TEST(FallbackRecommenderTest, HealthyEngineServesModelScores) {
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  InferenceEngine engine(model.get());
  FallbackRecommender fallback(&engine, f.ui.train,
                               f.world.dataset.num_items);

  const auto response = fallback.RecommendForGroup(3, 5, nullptr);
  EXPECT_FALSE(response.degraded);
  EXPECT_TRUE(response.error.empty());
  ASSERT_EQ(response.items.size(), 5u);
  // The model path answered: identical to the engine's own ranking.
  const auto direct = engine.RecommendForGroup(3, 5, nullptr);
  EXPECT_EQ(response.items, direct);
  EXPECT_EQ(fallback.requests(), 1);
  EXPECT_EQ(fallback.degraded_responses(), 0);
}

TEST(FallbackRecommenderTest, InvalidIdsDegradeInsteadOfCrashing) {
  const GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  InferenceEngine engine(model.get());
  FallbackRecommender fallback(&engine, f.ui.train,
                               f.world.dataset.num_items);

  const auto bad_user = fallback.RecommendForUser(-1, 3, nullptr);
  EXPECT_TRUE(bad_user.degraded);
  EXPECT_NE(bad_user.error.find("out of range"), std::string::npos);
  EXPECT_EQ(bad_user.items.size(), 3u);

  const auto bad_group = fallback.RecommendForGroup(10'000, 3, nullptr);
  EXPECT_TRUE(bad_group.degraded);

  const auto bad_members = fallback.RecommendForMembers({0, 5'000}, 3,
                                                        nullptr);
  EXPECT_TRUE(bad_members.degraded);

  const auto no_members = fallback.RecommendForMembers({}, 3, nullptr);
  EXPECT_TRUE(no_members.degraded);
  EXPECT_NE(no_members.error.find("empty member list"), std::string::npos);

  EXPECT_EQ(fallback.requests(), 4);
  EXPECT_EQ(fallback.degraded_responses(), 4);
}

TEST(FallbackRecommenderTest, ExcludeAppliedOnDegradedPathWithBadRows) {
  const TinyFixture f = TinyFixture::Make(SmallConfig());
  FallbackRecommender fallback(nullptr, PopularityEdges(), 5);
  // The exclude matrix is consulted with the very user id that broke the
  // model path; out-of-range rows must be skipped, in-range rows applied.
  data::InteractionMatrix exclude(/*num_rows=*/3, /*num_items=*/5,
                                  {{1, 2}});  // user 1 has seen item 2
  const auto response = fallback.RecommendForMembers({1, 400'000}, 2,
                                                     &exclude);
  EXPECT_TRUE(response.degraded);
  ASSERT_EQ(response.items.size(), 2u);
  EXPECT_EQ(response.items[0].first, 0);  // item 2 excluded via member 1
  EXPECT_EQ(response.items[1].first, 1);
}

TEST(FallbackRecommenderTest, NonPositiveKDegradesToEmptyRanking) {
  FallbackRecommender fallback(nullptr, PopularityEdges(), 5);
  const auto response = fallback.RecommendForUser(0, 0, nullptr);
  EXPECT_TRUE(response.degraded);
  EXPECT_TRUE(response.items.empty());
}

TEST(FallbackRecommenderTest, KPastTheCatalogReturnsWholeCatalog) {
  FallbackRecommender fallback(nullptr, PopularityEdges(), 5);
  const auto response = fallback.RecommendForUser(0, 50, nullptr);
  EXPECT_TRUE(response.degraded);
  ASSERT_EQ(response.items.size(), 5u);  // all of it, never more
  EXPECT_EQ(response.items[0].first, 2);
}

TEST(FallbackRecommenderTest, ExcludeCoveringWholeCatalogYieldsEmpty) {
  FallbackRecommender fallback(nullptr, PopularityEdges(), 3);
  // User 0 has seen every item: nothing is left to recommend, and the
  // answer is an empty ranking, not an error or a crash.
  data::InteractionMatrix exclude(/*num_rows=*/1, /*num_items=*/3,
                                  {{0, 0}, {0, 1}, {0, 2}});
  const auto response = fallback.RecommendForUser(0, 3, &exclude);
  EXPECT_TRUE(response.degraded);
  EXPECT_TRUE(response.items.empty());
}

TEST(FallbackRecommenderTest, EmptyInteractionsStillRankIdAscending) {
  // A cold-start world with zero interactions: every count is 0, so the
  // popularity order collapses to the id-ascending tie-break.
  FallbackRecommender fallback(nullptr, data::EdgeList{}, /*num_items=*/4);
  const auto response = fallback.RecommendForUser(0, 3, nullptr);
  EXPECT_TRUE(response.degraded);
  ASSERT_EQ(response.items.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(response.items[static_cast<size_t>(i)].first, i);
    EXPECT_DOUBLE_EQ(response.items[static_cast<size_t>(i)].second, 0.0);
  }
}

TEST(FallbackRecommenderTest, ServeDegradedCountsAndExcludesLikeTheModel) {
  FallbackRecommender fallback(nullptr, PopularityEdges(), 5);
  data::InteractionMatrix exclude(/*num_rows=*/2, /*num_items=*/5,
                                  {{0, 2}});  // row 0 has seen item 2
  const auto response =
      fallback.ServeDegraded("queue full", 2, &exclude, {0, 900});
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.error, "queue full");
  ASSERT_EQ(response.items.size(), 2u);
  EXPECT_EQ(response.items[0].first, 0);  // item 2 excluded via row 0
  EXPECT_EQ(fallback.requests(), 1);
  EXPECT_EQ(fallback.degraded_responses(), 1);
}

// ---------------- The validation boundary ----------------------------------

class ServingStatusTest : public ::testing::Test {
 protected:
  ServingStatusTest()
      : config_(SmallConfig()),
        f_(TinyFixture::Make(config_)),
        model_(f_.MakeModel(config_)),
        engine_(model_.get()) {}

  GroupSaConfig config_;
  TinyFixture f_;
  std::unique_ptr<GroupSaModel> model_;
  InferenceEngine engine_;
};

TEST_F(ServingStatusTest, InvalidIdsReturnDescriptiveErrors) {
  EXPECT_TRUE(engine_.ValidateRequest(QueryKind::kUser, {4}, 5).ok());
  EXPECT_TRUE(engine_.ValidateRequest(QueryKind::kGroup, {2}, 5).ok());
  EXPECT_TRUE(engine_.ValidateRequest(QueryKind::kMembers, {1, 2}, 5).ok());

  Status s = engine_.ValidateRequest(QueryKind::kUser, {-1}, 5);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("user id -1 out of range"), std::string::npos);

  s = engine_.ValidateRequest(QueryKind::kUser, {model_->num_users()}, 5);
  EXPECT_FALSE(s.ok());

  s = engine_.ValidateRequest(QueryKind::kGroup, {-7}, 5);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("group id -7 out of range"), std::string::npos);

  s = engine_.ValidateRequest(QueryKind::kMembers, {}, 5);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("empty member list"), std::string::npos);

  s = engine_.ValidateRequest(QueryKind::kMembers, {0, -2}, 5);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("member"), std::string::npos);

  s = engine_.ValidateRequest(QueryKind::kUser, {0}, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("k must be positive"), std::string::npos);
}

TEST_F(ServingStatusTest, FastRecommenderValidatesMembers) {
  // FastGroupRecommender's member-average queries share the engine's one
  // validation boundary.
  EXPECT_TRUE(
      engine_.ValidateRequest(QueryKind::kMemberAverage, {0, 1}, 4).ok());

  Status s = engine_.ValidateRequest(QueryKind::kMemberAverage, {0, -1}, 4);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out of range"), std::string::npos);

  EXPECT_FALSE(engine_.ValidateRequest(QueryKind::kMemberAverage, {}, 4).ok());
  EXPECT_FALSE(
      engine_.ValidateRequest(QueryKind::kMemberAverage, {0}, -2).ok());
}

}  // namespace
}  // namespace groupsa::core
