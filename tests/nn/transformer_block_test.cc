#include "nn/transformer_block.h"

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"

namespace groupsa::nn {
namespace {

using tensor::Matrix;

TEST(TransformerBlockTest, PreservesShape) {
  Rng rng(1);
  TransformerBlock block("b", 4, 8, &rng);
  Matrix x(5, 4);
  x.FillUniform(&rng, -0.5f, 0.5f);
  auto out = block.Forward(nullptr, ag::Constant(x), nullptr);
  EXPECT_EQ(out.values->rows(), 5);
  EXPECT_EQ(out.values->cols(), 4);
  EXPECT_EQ(out.attention.rows(), 5);
  EXPECT_EQ(out.attention.cols(), 5);
}

TEST(TransformerBlockTest, NearIdentityAtInit) {
  // The value projection and second FFN layer start near zero, so the block
  // should barely perturb its input (the residual stream dominates).
  Rng rng(2);
  TransformerBlock block("b", 8, 8, &rng);
  Matrix x(4, 8);
  x.FillUniform(&rng, -0.1f, 0.1f);
  auto out = block.Forward(nullptr, ag::Constant(x), nullptr);
  Matrix diff = out.values->value();
  diff.AxpyInPlace(-1.0f, x);
  EXPECT_LT(diff.MaxAbs(), 0.05f);
}

TEST(TransformerBlockTest, SocialMaskReachesAttention) {
  Rng rng(3);
  TransformerBlock block("b", 4, 4, &rng);
  Matrix x(3, 4);
  x.FillUniform(&rng, -1.0f, 1.0f);
  Matrix bias = MakeSocialBias(3, [](int, int) { return false; });
  auto out = block.Forward(nullptr, ag::Constant(x), &bias);
  EXPECT_FLOAT_EQ(out.attention.At(0, 0), 1.0f);
  EXPECT_EQ(out.attention.At(0, 1), 0.0f);
}

TEST(TransformerBlockTest, GradientCheck) {
  Rng rng(4);
  TransformerBlock block("b", 3, 4, &rng);
  Matrix x_m(2, 3);
  x_m.FillUniform(&rng, -0.5f, 0.5f);
  ag::TensorPtr x = ag::Variable(std::move(x_m));
  std::vector<ag::TensorPtr> params = {x};
  for (const auto& p : block.Parameters()) params.push_back(p.tensor);
  auto result = ag::CheckGradients(
      [&](ag::Tape* tape) {
        return ag::SumAll(tape, block.Forward(tape, x, nullptr).values);
      },
      params, /*step=*/1e-2f, /*abs_tolerance=*/6e-3f,
      /*rel_tolerance=*/4e-2f);
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(TransformerBlockTest, ParameterTreeIncludesAllSubmodules) {
  Rng rng(5);
  TransformerBlock block("b", 4, 8, &rng);
  // attn (3) + 2 layer norms (2 each) + 2 FFN linears (2 each) = 11.
  EXPECT_EQ(block.Parameters().size(), 11u);
}

}  // namespace
}  // namespace groupsa::nn
