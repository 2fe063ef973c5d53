#include "core/trainer.h"

#include <gtest/gtest.h>

#include "core/inference_engine.h"
#include "core/test_fixtures.h"
#include "data/tfidf.h"

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
  c.user_epochs = 2;
  c.group_epochs = 2;
  return c;
}

TEST(TrainerTest, UserLossDecreasesOverEpochs) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(1);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  const double first = trainer.RunUserEpoch().avg_loss;
  double last = first;
  for (int e = 0; e < 4; ++e) last = trainer.RunUserEpoch().avg_loss;
  EXPECT_LT(last, first);
}

TEST(TrainerTest, GroupLossDecreasesOverEpochs) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(2);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  const double first = trainer.RunGroupEpoch().avg_loss;
  double last = first;
  for (int e = 0; e < 5; ++e) last = trainer.RunGroupEpoch().avg_loss;
  EXPECT_LT(last, first);
}

TEST(TrainerTest, SocialEpochRunsAndReportsLoss) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(3);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  const auto stats = trainer.RunSocialEpoch();
  EXPECT_GT(stats.num_samples, 0);
  EXPECT_GT(stats.avg_loss, 0.0);
  // BPR at init hovers near ln 2.
  EXPECT_NEAR(stats.avg_loss, 0.693, 0.2);
}

TEST(TrainerTest, FitRunsConfiguredSchedule) {
  const GroupSaConfig config = FastConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(4);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  const auto report = trainer.Fit();
  EXPECT_EQ(report.user_epochs.size(), 2u);
  EXPECT_EQ(report.group_epochs.size(), 2u);
  EXPECT_GT(report.total_seconds, 0.0);
}

TEST(TrainerTest, GroupGSkipsStageOne) {
  GroupSaConfig config = FastConfig();
  config.use_user_task = false;
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(5);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  const auto report = trainer.Fit();
  EXPECT_TRUE(report.user_epochs.empty());
  EXPECT_EQ(report.group_epochs.size(), 2u);
}

TEST(TrainerTest, TrainingImprovesGroupRankingOverInit) {
  GroupSaConfig config = FastConfig();
  config.user_epochs = 4;
  config.group_epochs = 4;
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);

  // Rank the observed training positives of each group against random items
  // before and after training; training must push positives up.
  auto avg_margin = [&]() {
    double margin = 0.0;
    int count = 0;
    for (const data::Edge& e : f.gi.train) {
      const auto scores = model->inference().ScoreItemsForGroup(
          e.row, {e.item, (e.item + 7) % 90, (e.item + 31) % 90});
      margin += scores[0] - (scores[1] + scores[2]) / 2.0;
      ++count;
      if (count >= 30) break;
    }
    return margin / count;
  };

  const double before = avg_margin();
  Rng rng(6);
  Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                  &f.gi_train, &rng);
  trainer.Fit();
  const double after = avg_margin();
  EXPECT_GT(after, before);
}

// Embedding gradients live in their modules' row gradients, never in a
// dense table-sized grad(): after a whole Fit, at either pool width, no
// embedding table has one, and the optimizer has consumed every touched
// row.
TEST(TrainerTest, FitLeavesNoDenseEmbeddingGradient) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    GroupSaConfig config = FastConfig();
    config.threads = threads;
    const TinyFixture f = TinyFixture::Make(config);
    auto model = f.MakeModel(config);
    Rng rng(8);
    Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                    &f.gi_train, &rng);
    trainer.Fit();
    int tables = 0;
    for (const nn::ParamEntry& p : model->Parameters()) {
      if (p.row_grad == nullptr) continue;
      ++tables;
      EXPECT_FALSE(p.tensor->has_grad()) << p.name;
      EXPECT_TRUE(p.row_grad->empty()) << p.name;
    }
    EXPECT_GE(tables, 2);  // the user and item tables at least
  }
}

// A 3-user star (edges 0-1 and 0-2): user 0 is a friend of every other
// user, so the social objective has no negative for the edges it anchors.
// The epoch fails at once, naming the user, instead of redrawing forever.
TEST(TrainerDeathTest, SocialEpochFailsWhenAUserBefriendsEveryone) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const GroupSaConfig config = FastConfig();
  const data::SocialGraph social(3, {{0, 1}, {0, 2}});
  const data::GroupTable groups({{0, 1}, {1, 2}});
  const data::EdgeList user_train = {{0, 0}, {1, 1}, {2, 2}, {0, 3}};
  const data::EdgeList group_train = {{0, 0}, {1, 2}};
  const data::InteractionMatrix ui(3, 4, user_train);
  const data::InteractionMatrix gi(2, 4, group_train);
  ModelData model_data;
  model_data.groups = &groups;
  model_data.social = &social;
  model_data.top_items = data::TopItemsPerUser(ui, config.top_h);
  model_data.top_friends = data::TopFriendsPerUser(social, config.top_h);
  Rng rng(9);
  GroupSaModel model(config, 3, 4, std::move(model_data), &rng);
  Trainer trainer(&model, user_train, group_train, &ui, &gi, &rng);
  EXPECT_DEATH(trainer.RunSocialEpoch(),
               "user 0 is a friend of every other user");
}

}  // namespace
}  // namespace groupsa::core
