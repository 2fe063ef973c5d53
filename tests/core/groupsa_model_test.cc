#include "core/groupsa_model.h"

#include <gtest/gtest.h>

#include "core/test_fixtures.h"

namespace groupsa::core {
namespace {

using core::testing::TinyFixture;

GroupSaConfig FastConfig() {
  GroupSaConfig c = GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  return c;
}

TEST(GroupSaModelTest, ConstructsAllVariants) {
  for (auto config :
       {GroupSaConfig::Default(), GroupSaConfig::GroupA(),
        GroupSaConfig::GroupS(), GroupSaConfig::GroupI(),
        GroupSaConfig::GroupF(), GroupSaConfig::GroupG(),
        GroupSaConfig::NoSocialMask()}) {
    config.embedding_dim = 8;
    config.attention_hidden = 8;
    config.ffn_hidden = 8;
    config.predictor_hidden = {8};
    config.fusion_hidden = {8};
    const TinyFixture f = TinyFixture::Make(config);
    auto model = f.MakeModel(config);
    EXPECT_GT(model->NumParameterScalars(), 0) << config.variant;
  }
}

TEST(GroupSaModelTest, UserScoresDeterministicAtInference) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const std::vector<data::ItemId> items = {0, 1, 2, 3};
  const auto a = model->ScoreItemsForUser(3, items);
  const auto b = model->ScoreItemsForUser(3, items);
  EXPECT_EQ(a, b);
}

TEST(GroupSaModelTest, GroupScoresVaryAcrossItems) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const std::vector<data::ItemId> items = {0, 1, 2, 3, 4};
  const auto scores = model->ScoreItemsForGroup(0, items);
  bool any_diff = false;
  for (size_t i = 1; i < scores.size(); ++i)
    any_diff = any_diff || scores[i] != scores[0];
  EXPECT_TRUE(any_diff);
}

TEST(GroupSaModelTest, AdHocMemberListMatchesGroupTablePath) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const auto& members = f.world.dataset.groups.Members(2);
  const std::vector<data::ItemId> items = {1, 5, 9};
  const auto via_group = model->ScoreItemsForGroup(2, items);
  const auto via_members = model->ScoreItemsForMembers(members, items);
  ASSERT_EQ(via_group.size(), via_members.size());
  for (size_t i = 0; i < via_group.size(); ++i)
    EXPECT_NEAR(via_group[i], via_members[i], 1e-6);
}

TEST(GroupSaModelTest, MemberWeightsFormDistribution) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const auto detail = model->ScoreGroupItemDetailed(0, 3);
  const int l = f.world.dataset.groups.GroupSize(0);
  ASSERT_EQ(detail.member_weights.cols(), l);
  double total = 0.0;
  for (int c = 0; c < l; ++c) {
    EXPECT_GE(detail.member_weights.At(0, c), 0.0f);
    total += detail.member_weights.At(0, c);
  }
  EXPECT_NEAR(total, 1.0, 1e-5);
}

TEST(GroupSaModelTest, MemberItemScoresShape) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const auto scores = model->MemberItemScores({1, 2, 3}, {0, 1});
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_EQ(scores[0].size(), 2u);
}

TEST(GroupSaModelTest, RecommendForGroupExcludesObserved) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const data::InteractionMatrix all = f.world.dataset.GroupItemMatrix();
  // Find a group with at least one interaction.
  data::GroupId group = -1;
  for (data::GroupId g = 0; g < all.num_rows(); ++g) {
    if (all.RowDegree(g) > 0) {
      group = g;
      break;
    }
  }
  ASSERT_GE(group, 0);
  const auto top = model->RecommendForGroup(group, 20, &all);
  EXPECT_EQ(top.size(), 20u);
  for (const auto& [item, score] : top) EXPECT_FALSE(all.Has(group, item));
  // Sorted descending.
  for (size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].second, top[i].second);
}

TEST(GroupSaModelTest, RecommendForUserTopKOrdering) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  const auto top = model->RecommendForUser(0, 5, nullptr);
  EXPECT_EQ(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].second, top[i].second);
}

TEST(GroupSaModelTest, TrainingGraphProducesParameterGradients) {
  GroupSaConfig config = FastConfig();
  config.dropout_ratio = 0.0f;
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(3);
  ag::Tape tape;
  auto fwd = model->BuildGroupForward(&tape, 0, /*training=*/true, &rng);
  auto pos = model->ScoreGroupItem(&tape, fwd, 1, true, &rng);
  auto neg = model->ScoreGroupItem(&tape, fwd, 2, true, &rng);
  ag::TensorPtr loss = ag::BprLoss(&tape, pos.score, neg.score);
  tape.Backward(loss);
  // The shared user embedding rows of the group members must have received
  // gradient.
  const ag::RowGrad& user_grad = model->user_embedding().row_grad();
  float grad_mass = 0.0f;
  for (data::UserId member : f.world.dataset.groups.Members(0)) {
    const int slot = user_grad.Find(member);
    ASSERT_GE(slot, 0) << "member " << member;
    for (int c = 0; c < config.embedding_dim; ++c)
      grad_mass += std::abs(user_grad.slot(static_cast<size_t>(slot))[c]);
  }
  EXPECT_GT(grad_mass, 0.0f);
}

TEST(GroupSaModelTest, GroupGVariantSkipsLatentChannel) {
  GroupSaConfig config = FastConfig();
  config.use_item_aggregation = false;
  config.use_social_aggregation = false;
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  ag::Tape tape;
  Rng rng(4);
  auto fwd = model->BuildUserForward(&tape, 0, true, &rng);
  EXPECT_EQ(fwd.latent, nullptr);
}

}  // namespace
}  // namespace groupsa::core
