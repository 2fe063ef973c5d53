#include "core/user_modeling.h"

#include <gtest/gtest.h>

#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"

namespace groupsa::core {
namespace {

using tensor::Matrix;
// Top-H rows; BuildUserLatent reads them as spans.
using Ids = std::vector<int32_t>;

GroupSaConfig SmallConfig() {
  GroupSaConfig c;
  c.embedding_dim = 8;
  c.attention_hidden = 8;
  c.fusion_hidden = {8};
  c.tie_latent_spaces = false;  // standalone component tests own tables
  return c;
}

TEST(UserModelingTest, LatentShape) {
  Rng rng(1);
  const GroupSaConfig c = SmallConfig();
  UserModeling um(c, 10, 20, &rng);
  ag::TensorPtr guide = ag::Constant(Matrix(1, 8, 0.1f));
  ag::TensorPtr h = um.BuildUserLatent(nullptr, guide, Ids{1, 2, 3},
                                       Ids{4, 5}, /*training=*/false, nullptr);
  EXPECT_EQ(h->rows(), 1);
  EXPECT_EQ(h->cols(), 8);
}

TEST(UserModelingTest, EmptyNeighbourhoodsStillProduceLatent) {
  Rng rng(2);
  const GroupSaConfig c = SmallConfig();
  UserModeling um(c, 10, 20, &rng);
  ag::TensorPtr guide = ag::Constant(Matrix(1, 8, 0.1f));
  ag::TensorPtr h =
      um.BuildUserLatent(nullptr, guide, {}, {}, false, nullptr);
  EXPECT_EQ(h->cols(), 8);
  // ReLU fusion output is non-negative.
  for (int i = 0; i < h->value().size(); ++i)
    EXPECT_GE(h->value().data()[i], 0.0f);
}

TEST(UserModelingTest, ItemOnlyVariantWorks) {
  Rng rng(3);
  GroupSaConfig c = SmallConfig();
  c.use_social_aggregation = false;
  UserModeling um(c, 10, 20, &rng);
  EXPECT_TRUE(um.has_item_space());
  ag::TensorPtr guide = ag::Constant(Matrix(1, 8, 0.1f));
  ag::TensorPtr h = um.BuildUserLatent(nullptr, guide, Ids{0, 1}, {}, false,
                                       nullptr);
  EXPECT_EQ(h->cols(), 8);
}

TEST(UserModelingTest, SocialOnlyVariantHasNoItemSpace) {
  Rng rng(4);
  GroupSaConfig c = SmallConfig();
  c.use_item_aggregation = false;
  UserModeling um(c, 10, 20, &rng);
  EXPECT_FALSE(um.has_item_space());
  ag::TensorPtr guide = ag::Constant(Matrix(1, 8, 0.1f));
  ag::TensorPtr h = um.BuildUserLatent(nullptr, guide, {}, Ids{2}, false,
                                       nullptr);
  EXPECT_EQ(h->cols(), 8);
}

TEST(UserModelingTest, ItemLatentLookup) {
  Rng rng(5);
  const GroupSaConfig c = SmallConfig();
  UserModeling um(c, 10, 20, &rng);
  ag::TensorPtr x = um.ItemLatent(nullptr, 7);
  EXPECT_EQ(x->rows(), 1);
  EXPECT_EQ(x->cols(), 8);
}

TEST(UserModelingTest, DifferentNeighbourhoodsDifferentLatents) {
  Rng rng(6);
  const GroupSaConfig c = SmallConfig();
  UserModeling um(c, 10, 20, &rng);
  ag::TensorPtr guide = ag::Constant(Matrix(1, 8, 0.1f));
  ag::TensorPtr h1 =
      um.BuildUserLatent(nullptr, guide, Ids{0, 1}, Ids{2}, false, nullptr);
  ag::TensorPtr h2 =
      um.BuildUserLatent(nullptr, guide, Ids{5, 6}, Ids{7}, false, nullptr);
  EXPECT_FALSE(AllClose(h1->value(), h2->value(), 1e-6f));
}

TEST(UserModelingTest, GradientsFlowToTables) {
  Rng rng(7);
  GroupSaConfig c = SmallConfig();
  c.dropout_ratio = 0.0f;
  UserModeling um(c, 6, 8, &rng);
  ag::TensorPtr guide = ag::Variable(Matrix(1, 8, 0.2f));
  std::vector<ag::TensorPtr> params = {guide};
  std::vector<ag::RowGrad*> row_grads = {nullptr};
  for (const auto& p : um.Parameters()) {
    // Push biases away from zero so no ReLU pre-activation sits within the
    // finite-difference step of its kink (where analytic and numeric
    // derivatives legitimately disagree).
    if (p.name.find("bias") != std::string::npos) {
      p.tensor->mutable_value().FillUniform(&rng, 0.05f, 0.15f);
    }
    params.push_back(p.tensor);
    row_grads.push_back(p.row_grad);  // the x^V / x^S tables are sparse
  }
  auto result = ag::CheckGradients(
      [&](ag::Tape* tape) {
        return ag::SumAll(tape, um.BuildUserLatent(tape, guide, Ids{0, 3},
                                                   Ids{1, 2}, false, nullptr));
      },
      params, /*step=*/5e-4f, /*abs_tolerance=*/8e-3f,
      /*rel_tolerance=*/6e-2f, row_grads);
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(UserModelingTest, TiedSpacesUseSharedTables) {
  Rng rng(8);
  GroupSaConfig c = SmallConfig();
  c.tie_latent_spaces = true;
  nn::Embedding user_table("u", 6, 8, &rng);
  nn::Embedding item_table("v", 8, 8, &rng);
  UserModeling um(c, 6, 8, &rng, &user_table, &item_table);
  // The item latent must be the shared item embedding row.
  ag::TensorPtr x = um.ItemLatent(nullptr, 3);
  EXPECT_TRUE(AllClose(x->value(), item_table.Row(3)));
  // No separate tables registered.
  for (const auto& p : um.Parameters()) {
    EXPECT_EQ(p.name.find("item_space"), std::string::npos);
    EXPECT_EQ(p.name.find("social_space"), std::string::npos);
  }
}

}  // namespace
}  // namespace groupsa::core
