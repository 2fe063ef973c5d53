#include "pipeline/experiment.h"

#include <gtest/gtest.h>

namespace groupsa::pipeline {
namespace {

RunOptions SmallOptions() {
  RunOptions options;
  options.num_candidates = 30;
  options.user_epochs = 1;
  options.group_epochs = 1;
  options.baseline_epochs = 1;
  options.seed = 5;
  return options;
}

TEST(PipelineTest, PrepareDataShapesAreConsistent) {
  const RunOptions options = SmallOptions();
  const ExperimentData data =
      PrepareData(data::SyntheticWorldConfig::Tiny(), options);
  EXPECT_EQ(data.num_users(), data.world.dataset.num_users);
  EXPECT_EQ(data.ui_train.num_rows(), data.num_users());
  EXPECT_EQ(data.gi_train.num_rows(), data.num_groups());
  // Split partitions are exhaustive.
  EXPECT_EQ(data.ui.train.size() + data.ui.validation.size() +
                data.ui.test.size(),
            data.world.dataset.user_item.size());
  EXPECT_EQ(data.gi.train.size() + data.gi.validation.size() +
                data.gi.test.size(),
            data.world.dataset.group_item.size());
  // Every ranking case carries the requested candidate count.
  for (const auto& c : data.user_cases)
    EXPECT_EQ(c.candidates.size(), 30u);
}

TEST(PipelineTest, PrepareDataDeterministicPerSeed) {
  const RunOptions options = SmallOptions();
  const ExperimentData a =
      PrepareData(data::SyntheticWorldConfig::Tiny(), options);
  const ExperimentData b =
      PrepareData(data::SyntheticWorldConfig::Tiny(), options);
  ASSERT_EQ(a.user_cases.size(), b.user_cases.size());
  for (size_t i = 0; i < a.user_cases.size(); ++i) {
    EXPECT_EQ(a.user_cases[i].positive, b.user_cases[i].positive);
    EXPECT_EQ(a.user_cases[i].candidates, b.user_cases[i].candidates);
  }
}

TEST(PipelineTest, QuickShrinksEpochsOnly) {
  RunOptions options;
  options.num_candidates = 77;
  const RunOptions quick = options.Quick();
  EXPECT_EQ(quick.num_candidates, 77);
  EXPECT_LT(quick.user_epochs, options.user_epochs);
  EXPECT_LT(quick.baseline_epochs, options.baseline_epochs);
}

TEST(PipelineTest, ParseBenchArgsFlags) {
  const char* argv[] = {"bench", "--quick", "--seed=42",
                        "--candidates=55", "--epochs=3"};
  const RunOptions options =
      ParseBenchArgs(5, const_cast<char**>(argv), RunOptions{});
  EXPECT_EQ(options.seed, 42u);
  EXPECT_EQ(options.num_candidates, 55);
  EXPECT_EQ(options.user_epochs, 3);
  EXPECT_EQ(options.group_epochs, 3);
}

TEST(PipelineTest, ParseBenchArgsDefaultsUntouched) {
  const char* argv[] = {"bench"};
  RunOptions defaults;
  defaults.seed = 9;
  const RunOptions options =
      ParseBenchArgs(1, const_cast<char**>(argv), defaults);
  EXPECT_EQ(options.seed, 9u);
}

TEST(PipelineTest, ParseBenchArgsExitsTwoOnMalformedValues) {
  // A value read as a prefix would run silently wrong: --epochs=two as zero
  // epochs, --seed=x3 as seed 0.
  const char* epochs[] = {"bench", "--quick", "--epochs=two"};
  EXPECT_EXIT(ParseBenchArgs(3, const_cast<char**>(epochs), RunOptions{}),
              ::testing::ExitedWithCode(2),
              "--epochs must be an integer >= 1, got 'two'");
  const char* seed[] = {"bench", "--seed=x3"};
  EXPECT_EXIT(ParseBenchArgs(2, const_cast<char**>(seed), RunOptions{}),
              ::testing::ExitedWithCode(2),
              "--seed must be an integer >= 0, got 'x3'");
  const char* candidates[] = {"bench", "--candidates=0"};
  EXPECT_EXIT(ParseBenchArgs(2, const_cast<char**>(candidates), RunOptions{}),
              ::testing::ExitedWithCode(2), "--candidates must be");
}

TEST(PipelineTest, ParseBenchArgsExitsTwoOnUnknownFlags) {
  const char* argv[] = {"bench", "--epoch=1"};
  EXPECT_EXIT(ParseBenchArgs(2, const_cast<char**>(argv), RunOptions{}),
              ::testing::ExitedWithCode(2), "unknown flag --epoch=1");
}

TEST(PipelineTest, PopularityRunProducesBothTasks) {
  const RunOptions options = SmallOptions();
  const ExperimentData data =
      PrepareData(data::SyntheticWorldConfig::Tiny(), options);
  const ModelScores scores = RunPopularity(data, options);
  EXPECT_EQ(scores.name, "Pop");
  EXPECT_GT(scores.user.num_cases, 0);
  EXPECT_GT(scores.group.num_cases, 0);
  // Popularity on 30 candidates must beat uniform-random's ~5/31 HR@5.
  EXPECT_GT(scores.group.HitRatio(10), 0.2);
}

TEST(PipelineTest, StaticAggConsistentWithModelScores) {
  const RunOptions options = SmallOptions();
  const ExperimentData data =
      PrepareData(data::SyntheticWorldConfig::Tiny(), options);
  Rng rng(3);
  const core::GroupSaConfig config = core::GroupSaConfig::Default();
  const core::ModelData md = BuildModelData(data, config);
  auto model = TrainGroupSa(config, data, options, &rng, md);
  const ModelScores avg = RunStaticAgg(
      model.get(), data, options, baselines::ScoreAggregation::kAverage);
  EXPECT_EQ(avg.name, "Group+avg");
  EXPECT_EQ(avg.group.num_cases,
            static_cast<int>(data.group_cases.size()));
  EXPECT_EQ(avg.user.num_cases, 0);  // statics are group-only
}

}  // namespace
}  // namespace groupsa::pipeline
