#include "baselines/ncf.h"

#include <gtest/gtest.h>

namespace groupsa::baselines {
namespace {

Ncf::Options SmallOptions() {
  Ncf::Options o;
  o.embedding_dim = 8;
  o.mlp_hidden = {8};
  o.dropout_ratio = 0.0f;
  return o;
}

TEST(NcfTest, ScoreIsScalarAndDeterministic) {
  Rng rng(1);
  Ncf ncf(SmallOptions(), 5, 6, &rng);
  const auto scores = ncf.ScoreItems(2, {0, 1, 2});
  EXPECT_EQ(scores.size(), 3u);
  const auto again = ncf.ScoreItems(2, {0, 1, 2});
  EXPECT_EQ(scores, again);
}

TEST(NcfTest, DifferentRowsDifferentScores) {
  Rng rng(2);
  Ncf ncf(SmallOptions(), 5, 6, &rng);
  EXPECT_NE(ncf.ScoreItems(0, {3})[0], ncf.ScoreItems(1, {3})[0]);
}

TEST(NcfTest, OverfitsDiagonalPreference) {
  Rng rng(3);
  const int n = 8;
  Ncf ncf(SmallOptions(), n, n, &rng);
  data::EdgeList train;
  for (int r = 0; r < n; ++r) train.push_back({r, r});
  data::InteractionMatrix observed(n, n, train);
  BprFitOptions fit;
  fit.epochs = 80;
  fit.learning_rate = 0.02f;
  fit.num_negatives = 2;
  const double loss = ncf.Fit(train, &observed, fit, &rng);
  EXPECT_LT(loss, 0.35);
  int correct = 0;
  for (int r = 0; r < n; ++r) {
    std::vector<data::ItemId> all(n);
    for (int v = 0; v < n; ++v) all[v] = v;
    const auto scores = ncf.ScoreItems(r, all);
    int best = 0;
    for (int v = 1; v < n; ++v)
      if (scores[v] > scores[best]) best = v;
    correct += best == r;
  }
  EXPECT_GE(correct, n - 2);
}

TEST(NcfTest, ParameterTreeHasFourTablesAndTowers) {
  Rng rng(4);
  Ncf ncf(SmallOptions(), 5, 6, &rng);
  int tables = 0;
  for (const auto& p : ncf.Parameters())
    tables += p.row_grad != nullptr;
  EXPECT_EQ(tables, 4);  // gmf+mlp tables for rows and items
}

}  // namespace
}  // namespace groupsa::baselines
