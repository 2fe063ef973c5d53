// Finite-difference gradient checks for every differentiable op. Each test
// builds a scalar loss through the op under test and compares the analytic
// gradients against central differences via CheckGradients.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"

namespace groupsa::ag {
namespace {

using tensor::Matrix;

TensorPtr RandomVariable(int rows, int cols, Rng* rng, float scale = 0.5f) {
  Matrix m(rows, cols);
  m.FillUniform(rng, -scale, scale);
  return Variable(std::move(m));
}

// A generic scalarizer that mixes all entries with distinct weights so the
// gradient check exercises every output coordinate independently.
TensorPtr Scalarize(Tape* tape, const TensorPtr& x) {
  Matrix weights(x->rows(), x->cols());
  for (int i = 0; i < weights.size(); ++i)
    weights.data()[i] = 0.1f * static_cast<float>(i + 1);
  return SumAll(tape, Mul(tape, x, Constant(std::move(weights))));
}

TEST(GradCheckTest, MatMulPlain) {
  Rng rng(1);
  TensorPtr a = RandomVariable(3, 4, &rng);
  TensorPtr b = RandomVariable(4, 2, &rng);
  auto result = CheckGradients(
      [&](Tape* tape) { return Scalarize(tape, MatMul(tape, a, b)); },
      {a, b});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

class MatMulTransposeGradTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(MatMulTransposeGradTest, AllTransposeCombos) {
  const auto [ta, tb] = GetParam();
  Rng rng(2);
  TensorPtr a = ta ? RandomVariable(4, 3, &rng) : RandomVariable(3, 4, &rng);
  TensorPtr b = tb ? RandomVariable(2, 4, &rng) : RandomVariable(4, 2, &rng);
  auto result = CheckGradients(
      [&](Tape* tape) {
        return Scalarize(tape, MatMul(tape, a, b, ta, tb));
      },
      {a, b});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, MatMulTransposeGradTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(GradCheckTest, AddSubMul) {
  Rng rng(3);
  TensorPtr a = RandomVariable(2, 3, &rng);
  TensorPtr b = RandomVariable(2, 3, &rng);
  auto result = CheckGradients(
      [&](Tape* tape) {
        TensorPtr s = Add(tape, a, b);
        TensorPtr d = Add(tape, s, Scale(tape, b, -1.0f));  // s - b
        return Scalarize(tape, Mul(tape, d, s));
      },
      {a, b});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, ScaleAndBias) {
  Rng rng(4);
  TensorPtr x = RandomVariable(3, 2, &rng);
  TensorPtr bias = RandomVariable(1, 2, &rng);
  auto result = CheckGradients(
      [&](Tape* tape) {
        return Scalarize(tape, AddBias(tape, Scale(tape, x, -1.7f), bias));
      },
      {x, bias});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, BroadcastRow) {
  Rng rng(5);
  TensorPtr row = RandomVariable(1, 3, &rng);
  auto result = CheckGradients(
      [&](Tape* tape) { return Scalarize(tape, BroadcastRow(tape, row, 4)); },
      {row});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, ConcatColsAndRows) {
  Rng rng(6);
  TensorPtr a = RandomVariable(2, 2, &rng);
  TensorPtr b = RandomVariable(2, 3, &rng);
  TensorPtr c = RandomVariable(1, 5, &rng);
  auto result = CheckGradients(
      [&](Tape* tape) {
        TensorPtr wide = ConcatCols(tape, {a, b});  // 2 x 5
        TensorPtr tall = ConcatRows(tape, {wide, c});  // 3 x 5
        return Scalarize(tape, tall);
      },
      {a, b, c});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, GatherRowsWithRepeats) {
  Rng rng(8);
  TensorPtr table = RandomVariable(6, 3, &rng);
  auto result = CheckGradients(
      [&](Tape* tape) {
        return Scalarize(tape, GatherRows(tape, table, {0, 2, 2, 5}));
      },
      {table});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, Transpose) {
  Rng rng(9);
  TensorPtr x = RandomVariable(3, 4, &rng);
  auto result = CheckGradients(
      [&](Tape* tape) { return Scalarize(tape, Transpose(tape, x)); }, {x});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, ReluAwayFromKink) {
  Rng rng(10);
  // Keep values away from 0 so the finite difference does not straddle the
  // kink.
  Matrix m(3, 3);
  m.FillUniform(&rng, 0.2f, 1.0f);
  for (int i = 0; i < m.size(); i += 2) m.data()[i] *= -1.0f;
  TensorPtr x = Variable(std::move(m));
  auto result = CheckGradients(
      [&](Tape* tape) { return Scalarize(tape, Relu(tape, x)); }, {x});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, SigmoidTanh) {
  Rng rng(11);
  TensorPtr x = RandomVariable(2, 4, &rng, 1.5f);
  auto result = CheckGradients(
      [&](Tape* tape) {
        return Scalarize(tape, Add(tape, Sigmoid(tape, x), Tanh(tape, x)));
      },
      {x});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, SoftmaxRowsUnmasked) {
  Rng rng(12);
  TensorPtr x = RandomVariable(3, 4, &rng, 1.0f);
  auto result = CheckGradients(
      [&](Tape* tape) { return Scalarize(tape, SoftmaxRows(tape, x)); }, {x});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, SoftmaxRowsMasked) {
  Rng rng(13);
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  TensorPtr x = RandomVariable(2, 4, &rng, 1.0f);
  Matrix mask(2, 4);
  mask.At(0, 2) = kNegInf;
  mask.At(1, 0) = kNegInf;
  mask.At(1, 3) = kNegInf;
  auto result = CheckGradients(
      [&](Tape* tape) {
        return Scalarize(tape, SoftmaxRows(tape, x, &mask));
      },
      {x});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, LayerNorm) {
  Rng rng(14);
  TensorPtr x = RandomVariable(3, 5, &rng, 1.0f);
  TensorPtr gain = RandomVariable(1, 5, &rng, 0.5f);
  TensorPtr bias = RandomVariable(1, 5, &rng, 0.5f);
  gain->mutable_value().AddInPlace(Matrix(1, 5, 1.0f));  // keep gain ~1
  auto result = CheckGradients(
      [&](Tape* tape) {
        return Scalarize(tape, LayerNorm(tape, x, gain, bias));
      },
      {x, gain, bias}, /*step=*/1e-2f, /*abs_tolerance=*/5e-3f,
      /*rel_tolerance=*/3e-2f);
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, SumAllMeanAll) {
  Rng rng(15);
  TensorPtr x = RandomVariable(2, 3, &rng);
  auto result = CheckGradients(
      [&](Tape* tape) {
        // The mean of x * x as SumAll scaled by 1 / 6.
        return Add(tape, SumAll(tape, x),
                   Scale(tape, SumAll(tape, Mul(tape, x, x)), 1.0f / 6.0f));
      },
      {x});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, BprLoss) {
  Rng rng(16);
  TensorPtr pos = RandomVariable(1, 1, &rng, 1.0f);
  TensorPtr negs = RandomVariable(4, 1, &rng, 1.0f);
  auto result = CheckGradients(
      [&](Tape* tape) { return BprLoss(tape, pos, negs); }, {pos, negs});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(GradCheckTest, DeepComposition) {
  // A miniature network: relu(x W1 + b1) W2 summed -- closest to real use.
  Rng rng(17);
  TensorPtr x = RandomVariable(2, 4, &rng);
  TensorPtr w1 = RandomVariable(4, 5, &rng);
  TensorPtr b1 = RandomVariable(1, 5, &rng);
  TensorPtr w2 = RandomVariable(5, 1, &rng);
  auto result = CheckGradients(
      [&](Tape* tape) {
        TensorPtr h = Relu(tape, AddBias(tape, MatMul(tape, x, w1), b1));
        return SumAll(tape, MatMul(tape, h, w2));
      },
      {x, w1, b1, w2});
  EXPECT_TRUE(result.ok) << result.worst_entry;
}

TEST(DropoutTest, IdentityWhenNotTraining) {
  Rng rng(18);
  TensorPtr x = RandomVariable(3, 3, &rng);
  TensorPtr out = Dropout(nullptr, x, 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(AllClose(out->value(), x->value()));
}

TEST(DropoutTest, ZeroRatioIsIdentity) {
  Rng rng(19);
  TensorPtr x = RandomVariable(3, 3, &rng);
  Tape tape;
  TensorPtr out = Dropout(&tape, x, 0.0f, /*training=*/true, &rng);
  EXPECT_TRUE(AllClose(out->value(), x->value()));
}

TEST(DropoutTest, InvertedScalingPreservesExpectation) {
  Rng rng(20);
  TensorPtr x = Variable(Matrix(200, 200, 1.0f));
  Tape tape;
  TensorPtr out = Dropout(&tape, x, 0.3f, /*training=*/true, &rng);
  // E[out] == 1; the mean over 40k entries should be close.
  EXPECT_NEAR(out->value().Mean(), 1.0f, 0.02f);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(21);
  TensorPtr x = Variable(Matrix(1, 100, 1.0f));
  Tape tape;
  TensorPtr out = Dropout(&tape, x, 0.5f, /*training=*/true, &rng);
  TensorPtr loss = SumAll(&tape, out);
  tape.Backward(loss);
  // Gradient must be exactly the mask (scale where kept, 0 where dropped).
  for (int c = 0; c < 100; ++c)
    EXPECT_FLOAT_EQ(x->grad().At(0, c), out->value().At(0, c));
}

}  // namespace
}  // namespace groupsa::ag
