// End-to-end integration tests: generate a world, train GroupSA, and verify
// the qualitative properties the paper claims, at smoke scale.

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/popularity.h"
#include "baselines/static_agg.h"
#include "core/inference_engine.h"
#include "nn/checkpoint.h"
#include "pipeline/experiment.h"

namespace groupsa {
namespace {

pipeline::RunOptions SmokeOptions() {
  pipeline::RunOptions options;
  options.user_epochs = 4;
  options.group_epochs = 4;
  options.baseline_epochs = 2;
  options.num_candidates = 50;
  options.seed = 3;
  return options;
}

data::SyntheticWorldConfig SmokeWorld() {
  data::SyntheticWorldConfig config = data::SyntheticWorldConfig::Tiny();
  config.num_users = 250;
  config.num_items = 150;
  config.num_groups = 180;
  return config;
}

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    options_ = new pipeline::RunOptions(SmokeOptions());
    data_ = new pipeline::ExperimentData(
        pipeline::PrepareData(SmokeWorld(), *options_));
    rng_ = new Rng(17);
    config_ = new core::GroupSaConfig(core::GroupSaConfig::Default());
    model_data_ = new core::ModelData(
        pipeline::BuildModelData(*data_, *config_));
    model_ = pipeline::TrainGroupSa(*config_, *data_, *options_, rng_,
                                    *model_data_)
                 .release();
  }
  static void TearDownTestSuite() {
    delete model_;
    delete model_data_;
    delete config_;
    delete rng_;
    delete data_;
    delete options_;
  }

  static pipeline::RunOptions* options_;
  static pipeline::ExperimentData* data_;
  static Rng* rng_;
  static core::GroupSaConfig* config_;
  static core::ModelData* model_data_;
  static core::GroupSaModel* model_;
};

pipeline::RunOptions* EndToEndTest::options_ = nullptr;
pipeline::ExperimentData* EndToEndTest::data_ = nullptr;
Rng* EndToEndTest::rng_ = nullptr;
core::GroupSaConfig* EndToEndTest::config_ = nullptr;
core::ModelData* EndToEndTest::model_data_ = nullptr;
core::GroupSaModel* EndToEndTest::model_ = nullptr;

TEST_F(EndToEndTest, UserTaskBeatsRandomByWideMargin) {
  const auto result = pipeline::ScoreGroupSa(model_, *data_, *options_, "m");
  // Random would give HR@10 ~ 10/51 ~ 0.196.
  EXPECT_GT(result.user.HitRatio(10), 0.35);
}

TEST_F(EndToEndTest, GroupTaskBeatsRandomByWideMargin) {
  const auto result = pipeline::ScoreGroupSa(model_, *data_, *options_, "m");
  EXPECT_GT(result.group.HitRatio(10), 0.30);
}

TEST_F(EndToEndTest, GroupTaskAtLeastMatchesPopularity) {
  const auto model_scores =
      pipeline::ScoreGroupSa(model_, *data_, *options_, "m");
  const auto pop = pipeline::RunPopularity(*data_, *options_);
  EXPECT_GE(model_scores.group.HitRatio(10) + 0.05,
            pop.group.HitRatio(10));
}

TEST_F(EndToEndTest, StaticAggregatorsProduceReasonableScores) {
  for (auto agg :
       {baselines::ScoreAggregation::kAverage,
        baselines::ScoreAggregation::kLeastMisery,
        baselines::ScoreAggregation::kMaxSatisfaction}) {
    const auto result =
        pipeline::RunStaticAgg(model_, *data_, *options_, agg);
    EXPECT_GT(result.group.HitRatio(10), 0.2)
        << baselines::ToString(agg);
  }
}

TEST_F(EndToEndTest, FastRecommenderCorrelatesWithFullPath) {
  const baselines::StaticAggRecommender fast(
      model_, baselines::ScoreAggregation::kAverage);
  const auto& members = data_->world.dataset.groups.Members(0);
  std::vector<data::ItemId> items;
  for (int v = 0; v < 60; ++v) items.push_back(v);
  const auto full = model_->inference().ScoreItemsForGroup(0, items);
  const auto quick = fast.ScoreItemsForMembers(members, items);
  // Rank correlation proxy: the top-scoring item of the fast path should be
  // in the upper half of the full ranking.
  int best_fast = 0;
  for (size_t i = 1; i < quick.size(); ++i)
    if (quick[i] > quick[best_fast]) best_fast = static_cast<int>(i);
  int better = 0;
  for (size_t i = 0; i < full.size(); ++i)
    better += full[i] > full[best_fast];
  EXPECT_LT(better, 30);
}

TEST_F(EndToEndTest, CheckpointRoundTripPreservesScores) {
  const std::string path =
      std::string(::testing::TempDir()) + "/e2e_model.ckpt";
  ASSERT_TRUE(nn::SaveParameters(model_->Parameters(), path).ok());
  Rng rng(99);
  core::GroupSaModel restored(*config_, data_->num_users(),
                              data_->num_items(), *model_data_, &rng);
  ASSERT_TRUE(nn::LoadParameters(restored.Parameters(), path).ok());
  const std::vector<data::ItemId> items = {0, 3, 7, 11};
  EXPECT_EQ(model_->inference().ScoreItemsForUser(5, items),
            restored.inference().ScoreItemsForUser(5, items));
  EXPECT_EQ(model_->inference().ScoreItemsForGroup(2, items),
            restored.inference().ScoreItemsForGroup(2, items));
}

TEST_F(EndToEndTest, ColdGroupScoringWorksForUnseenMemberCombos) {
  // The OGR promise: a brand-new ad-hoc group can be scored directly.
  const std::vector<data::UserId> ad_hoc = {3, 77, 141};
  const auto scores =
      model_->inference().ScoreItemsForMembers(ad_hoc, {0, 1, 2, 3});
  EXPECT_EQ(scores.size(), 4u);
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

}  // namespace
}  // namespace groupsa
