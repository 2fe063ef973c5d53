#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "nn/embedding.h"

namespace groupsa::nn {
namespace {

using tensor::Matrix;

// Minimizes f(w) = sum((w - target)^2) and checks convergence.
float MinimizeQuadratic(Adam* optimizer, const ag::TensorPtr& w,
                        const Matrix& target, int steps) {
  Matrix neg_target = target;
  neg_target.ScaleInPlace(-1.0f);
  for (int i = 0; i < steps; ++i) {
    ag::Tape tape;
    ag::TensorPtr diff = ag::Add(&tape, w, ag::Constant(neg_target));
    ag::TensorPtr loss = ag::SumAll(&tape, ag::Mul(&tape, diff, diff));
    tape.Backward(loss);
    optimizer->Step();
  }
  Matrix diff = w->value();
  diff.AxpyInPlace(-1.0f, target);
  return diff.MaxAbs();
}

TEST(AdamTest, ConvergesOnQuadratic) {
  ag::TensorPtr w = ag::Variable(Matrix(1, 4, 0.0f));
  Matrix target = Matrix::FromRows({{1, -2, 3, 0.5}});
  Adam adam({ParamEntry{"w", w, nullptr}}, /*learning_rate=*/0.1f);
  EXPECT_LT(MinimizeQuadratic(&adam, w, target, 400), 1e-2f);
}

TEST(OptimizerTest, StepZeroesConsumedGradients) {
  ag::TensorPtr w = ag::Variable(Matrix(1, 2, 1.0f));
  w->grad().Fill(1.0f);
  Adam adam({ParamEntry{"w", w, nullptr}}, 0.1f);
  adam.Step();
  EXPECT_FLOAT_EQ(w->grad().At(0, 0), 0.0f);
}

TEST(OptimizerTest, WeightDecayShrinksParams) {
  // Coupled decay: grad += weight_decay * value. The raw gradient alone
  // would push w up; with decay the combined gradient -0.5 + 1.0 * 1.0 is
  // positive, and Adam's first step moves w down by the learning rate.
  ag::TensorPtr w = ag::Variable(Matrix(1, 1, 1.0f));
  w->grad().Fill(-0.5f);
  Adam adam({ParamEntry{"w", w, nullptr}}, 0.1f, /*weight_decay=*/1.0f);
  adam.Step();
  EXPECT_NEAR(w->value().At(0, 0), 0.9f, 1e-5f);
}

TEST(OptimizerTest, LazyDecaySkipsUntouchedDenseParams) {
  // Parameters with identically-zero gradients must not move even with
  // weight decay on (the stage-1/stage-2 protection; see optimizer.h).
  ag::TensorPtr w = ag::Variable(Matrix(1, 2, 1.0f));
  Adam adam({ParamEntry{"w", w, nullptr}}, 0.1f, /*weight_decay=*/0.1f);
  for (int i = 0; i < 50; ++i) adam.Step();
  EXPECT_FLOAT_EQ(w->value().At(0, 0), 1.0f);
}

TEST(OptimizerTest, SparseAdamUpdatesOnlyTouchedRows) {
  Rng rng(1);
  Embedding emb("e", 4, 2, &rng);
  const Matrix before = emb.table()->value();
  Adam adam(emb.Parameters(), 0.1f);
  {
    ag::Tape tape;
    ag::TensorPtr out = emb.Forward(&tape, {1});
    ag::TensorPtr loss = ag::SumAll(&tape, out);
    tape.Backward(loss);
  }
  adam.Step();
  // Row 1 moved, others untouched.
  EXPECT_FALSE(AllClose(emb.table()->value().Row(1), before.Row(1)));
  EXPECT_TRUE(AllClose(emb.table()->value().Row(0), before.Row(0)));
  EXPECT_TRUE(AllClose(emb.table()->value().Row(3), before.Row(3)));
}

TEST(OptimizerTest, SparseStepClearsTouchedSetAndRowGrads) {
  Rng rng(2);
  Embedding emb("e", 3, 2, &rng);
  Adam adam(emb.Parameters(), 0.1f);
  {
    ag::Tape tape;
    ag::TensorPtr loss = ag::SumAll(&tape, emb.Forward(&tape, {0, 2}));
    tape.Backward(loss);
  }
  EXPECT_EQ(emb.row_grad().num_rows(), 2u);
  adam.Step();
  EXPECT_TRUE(emb.row_grad().empty());
  EXPECT_EQ(emb.row_grad().Find(0), -1);
  EXPECT_EQ(emb.row_grad().Find(2), -1);
  EXPECT_FALSE(emb.table()->has_grad());
}

TEST(OptimizerTest, LazyAdamRowBiasCorrectionIsPerRow) {
  // A row touched for the first time late in training must take a
  // first-step-sized update (bias correction from its own counter), not a
  // tiny one.
  Rng rng(3);
  Embedding emb("e", 2, 1, &rng);
  emb.table()->mutable_value().Fill(0.0f);
  Adam adam(emb.Parameters(), 0.1f);
  // Touch row 0 for 20 steps.
  for (int i = 0; i < 20; ++i) {
    ag::Tape tape;
    ag::TensorPtr loss = ag::SumAll(&tape, emb.Forward(&tape, {0}));
    tape.Backward(loss);
    adam.Step();
  }
  // First touch of row 1: the update magnitude should be ~lr.
  {
    ag::Tape tape;
    ag::TensorPtr loss = ag::SumAll(&tape, emb.Forward(&tape, {1}));
    tape.Backward(loss);
    adam.Step();
  }
  EXPECT_NEAR(emb.table()->value().At(1, 0), -0.1f, 1e-3f);
}

}  // namespace
}  // namespace groupsa::nn
