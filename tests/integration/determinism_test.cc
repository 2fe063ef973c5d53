// Thread-count determinism of the full stack: training through the sharded
// minibatch path and ranking evaluation through the case fan-out must be
// bit-identical at any global pool width. These tests run the same seeded
// experiment at width 1 and width 4 and compare exact values — EXPECT_EQ on
// doubles, not EXPECT_NEAR — because the determinism contract in
// common/thread_pool.h promises identical bits, not merely close ones.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/inference_engine.h"
#include "core/test_fixtures.h"
#include "core/trainer.h"
#include "eval/evaluator.h"

namespace groupsa {
namespace {

using core::testing::TinyFixture;

core::GroupSaConfig SmallConfig() {
  core::GroupSaConfig c = core::GroupSaConfig::Default();
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.ffn_hidden = 8;
  c.predictor_hidden = {8};
  c.fusion_hidden = {8};
  c.user_epochs = 2;
  c.group_epochs = 2;
  return c;
}

// Everything one seeded training run produces that could diverge across
// thread counts: the per-epoch losses and the final group-task metrics.
struct RunOutcome {
  std::vector<double> user_losses;
  std::vector<double> group_losses;
  eval::EvalResult group_eval;
};

RunOutcome TrainAndEvaluate(int threads) {
  core::GroupSaConfig config = SmallConfig();
  config.threads = threads;
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng rng(17);
  core::Trainer trainer(model.get(), f.ui.train, f.gi.train, &f.ui_train,
                        &f.gi_train, &rng);
  const auto report = trainer.Fit();

  RunOutcome outcome;
  for (const auto& e : report.user_epochs)
    outcome.user_losses.push_back(e.avg_loss);
  for (const auto& e : report.group_epochs)
    outcome.group_losses.push_back(e.avg_loss);

  Rng eval_rng(23);
  const data::InteractionMatrix gi_all = f.world.dataset.GroupItemMatrix();
  const auto cases =
      eval::BuildRankingCases(f.gi.test, gi_all, /*num_candidates=*/20,
                              &eval_rng);
  outcome.group_eval = eval::EvaluateRanking(
      cases,
      [&](int32_t g, const std::vector<data::ItemId>& items) {
        return model->inference().ScoreItemsForGroup(g, items);
      },
      {5, 10});
  parallel::SetGlobalThreads(1);
  return outcome;
}

void ExpectIdentical(const RunOutcome& a, const RunOutcome& b) {
  ASSERT_EQ(a.user_losses.size(), b.user_losses.size());
  for (size_t i = 0; i < a.user_losses.size(); ++i)
    EXPECT_EQ(a.user_losses[i], b.user_losses[i]) << "user epoch " << i;
  ASSERT_EQ(a.group_losses.size(), b.group_losses.size());
  for (size_t i = 0; i < a.group_losses.size(); ++i)
    EXPECT_EQ(a.group_losses[i], b.group_losses[i]) << "group epoch " << i;
  EXPECT_EQ(a.group_eval.num_cases, b.group_eval.num_cases);
  ASSERT_EQ(a.group_eval.at_k.size(), b.group_eval.at_k.size());
  for (size_t i = 0; i < a.group_eval.at_k.size(); ++i) {
    const auto& ma = a.group_eval.at_k[i];
    const auto& mb = b.group_eval.at_k[i];
    EXPECT_EQ(ma.k, mb.k);
    EXPECT_EQ(ma.hit_ratio, mb.hit_ratio) << "HR@" << ma.k;
    EXPECT_EQ(ma.ndcg, mb.ndcg) << "NDCG@" << ma.k;
  }
}

TEST(DeterminismTest, TrainingIdenticalAtOneAndFourThreads) {
  const RunOutcome serial = TrainAndEvaluate(/*threads=*/1);
  const RunOutcome parallel = TrainAndEvaluate(/*threads=*/4);
  ExpectIdentical(serial, parallel);
  // Sanity: training actually ran and produced a finite, nonzero loss.
  ASSERT_FALSE(serial.user_losses.empty());
  EXPECT_GT(serial.user_losses.front(), 0.0);
}

TEST(DeterminismTest, SameSeedSameThreadsReproduces) {
  const RunOutcome first = TrainAndEvaluate(/*threads=*/2);
  const RunOutcome second = TrainAndEvaluate(/*threads=*/2);
  ExpectIdentical(first, second);
}

TEST(DeterminismTest, EvaluationIdenticalAcrossThreadCounts) {
  const core::GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);  // untrained weights are fine here
  Rng eval_rng(31);
  const data::InteractionMatrix gi_all = f.world.dataset.GroupItemMatrix();
  const auto cases = eval::BuildRankingCases(f.gi.test, gi_all,
                                             /*num_candidates=*/20, &eval_rng);
  ASSERT_FALSE(cases.empty());
  const eval::Scorer scorer = [&](int32_t g,
                                  const std::vector<data::ItemId>& items) {
    return model->inference().ScoreItemsForGroup(g, items);
  };

  parallel::SetGlobalThreads(1);
  const eval::EvalResult baseline =
      eval::EvaluateRanking(cases, scorer, {5, 10});
  for (int threads : {2, 4, 8}) {
    parallel::SetGlobalThreads(threads);
    const eval::EvalResult result =
        eval::EvaluateRanking(cases, scorer, {5, 10});
    EXPECT_EQ(result.num_cases, baseline.num_cases) << threads << " threads";
    ASSERT_EQ(result.at_k.size(), baseline.at_k.size());
    for (size_t i = 0; i < result.at_k.size(); ++i) {
      EXPECT_EQ(result.at_k[i].hit_ratio, baseline.at_k[i].hit_ratio)
          << threads << " threads, HR@" << result.at_k[i].k;
      EXPECT_EQ(result.at_k[i].ndcg, baseline.at_k[i].ndcg)
          << threads << " threads, NDCG@" << result.at_k[i].k;
    }
  }
  parallel::SetGlobalThreads(1);
}

TEST(DeterminismTest, FilteredEvaluationIdenticalAcrossThreadCounts) {
  const core::GroupSaConfig config = SmallConfig();
  const TinyFixture f = TinyFixture::Make(config);
  auto model = f.MakeModel(config);
  Rng eval_rng(37);
  const data::InteractionMatrix gi_all = f.world.dataset.GroupItemMatrix();
  const auto cases = eval::BuildRankingCases(f.gi.test, gi_all,
                                             /*num_candidates=*/20, &eval_rng);
  const eval::Scorer scorer = [&](int32_t g,
                                  const std::vector<data::ItemId>& items) {
    return model->inference().ScoreItemsForGroup(g, items);
  };
  const auto keep = [](int32_t g) { return g % 2 == 0; };

  parallel::SetGlobalThreads(1);
  const eval::EvalResult baseline =
      eval::EvaluateRankingFiltered(cases, scorer, {5}, keep);
  parallel::SetGlobalThreads(4);
  const eval::EvalResult result =
      eval::EvaluateRankingFiltered(cases, scorer, {5}, keep);
  parallel::SetGlobalThreads(1);
  EXPECT_EQ(result.num_cases, baseline.num_cases);
  EXPECT_EQ(result.HitRatio(5), baseline.HitRatio(5));
  EXPECT_EQ(result.Ndcg(5), baseline.Ndcg(5));
}

}  // namespace
}  // namespace groupsa
