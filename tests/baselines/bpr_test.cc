#include "baselines/bpr.h"

#include <gtest/gtest.h>

#include "nn/embedding.h"

namespace groupsa::baselines {
namespace {

// A trivially learnable world: row r prefers item r.
TEST(FitBprTest, LearnsDiagonalPreference) {
  Rng rng(1);
  const int n = 8;
  nn::Embedding rows("rows", n, 4, &rng);
  nn::Embedding items("items", n, 4, &rng);
  data::EdgeList train;
  for (int r = 0; r < n; ++r) train.push_back({r, r});
  data::InteractionMatrix observed(n, n, train);

  auto score = [&](ag::Tape* tape, int row, data::ItemId item) {
    return ag::MatMul(tape, rows.Lookup(tape, row), items.Lookup(tape, item),
                      false, /*transpose_b=*/true);
  };
  std::vector<nn::ParamEntry> params = rows.Parameters();
  for (const auto& p : items.Parameters()) params.push_back(p);

  BprFitOptions options;
  options.epochs = 60;
  options.learning_rate = 0.05f;
  options.num_negatives = 2;
  const double final_loss = FitBpr(
      [&](ag::Tape* tape, int row, data::ItemId pos,
          const std::vector<data::ItemId>& negs, Rng* rng) {
        (void)rng;
        std::vector<ag::TensorPtr> neg_scores;
        for (data::ItemId neg : negs)
          neg_scores.push_back(score(tape, row, neg));
        return ag::BprLoss(tape, score(tape, row, pos),
                           ag::ConcatRows(tape, neg_scores));
      },
      params, train, &observed, options, &rng);

  EXPECT_LT(final_loss, 0.3);
  // The diagonal item must outrank the others for every row.
  for (int r = 0; r < n; ++r) {
    const float own = score(nullptr, r, r)->scalar();
    for (int v = 0; v < n; ++v) {
      if (v == r) continue;
      EXPECT_GT(own, score(nullptr, r, v)->scalar())
          << "row " << r << " item " << v;
    }
  }
}

TEST(FitBprTest, EmptyTrainSetIsNoOp) {
  Rng rng(2);
  nn::Embedding rows("rows", 2, 2, &rng);
  data::EdgeList train;
  data::InteractionMatrix observed(2, 2, {});
  BprFitOptions options;
  const double loss = FitBpr(
      [&](ag::Tape*, int, data::ItemId, const std::vector<data::ItemId>&,
          Rng*) -> ag::TensorPtr {
        ADD_FAILURE() << "triple loss must not be called";
        return nullptr;
      },
      rows.Parameters(), train, &observed, options, &rng);
  EXPECT_EQ(loss, 0.0);
}

TEST(FitBprEpochTest, KeepsOptimizerStateAcrossCalls) {
  Rng rng(3);
  nn::Embedding rows("rows", 4, 2, &rng);
  nn::Embedding items("items", 4, 2, &rng);
  data::EdgeList train;
  for (int r = 0; r < 4; ++r) train.push_back({r, r});
  data::InteractionMatrix observed(4, 4, train);
  std::vector<nn::ParamEntry> params = rows.Parameters();
  for (const auto& p : items.Parameters()) params.push_back(p);
  nn::Adam optimizer(params, 0.05f);
  data::NegativeSampler sampler(&observed);
  BprFitOptions options;
  const TripleLossFn loss_fn =
      [&](ag::Tape* tape, int row, data::ItemId pos,
          const std::vector<data::ItemId>& negs, Rng*) {
        std::vector<ag::TensorPtr> neg_scores;
        for (data::ItemId neg : negs) {
          neg_scores.push_back(ag::MatMul(tape, rows.Lookup(tape, row),
                                          items.Lookup(tape, neg), false,
                                          true));
        }
        return ag::BprLoss(
            tape,
            ag::MatMul(tape, rows.Lookup(tape, row), items.Lookup(tape, pos),
                       false, true),
            ag::ConcatRows(tape, neg_scores));
      };
  double first = 0.0;
  double last = 0.0;
  for (int e = 0; e < 30; ++e) {
    const double loss =
        FitBprEpoch(loss_fn, &optimizer, train, sampler, options, &rng);
    if (e == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace groupsa::baselines
