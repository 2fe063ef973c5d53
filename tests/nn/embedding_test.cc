#include "nn/embedding.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"

namespace groupsa::nn {
namespace {

using tensor::Matrix;

TEST(EmbeddingTest, LookupReturnsTableRow) {
  Rng rng(1);
  Embedding emb("e", 5, 3, &rng);
  ag::TensorPtr row = emb.Lookup(nullptr, 2);
  EXPECT_TRUE(AllClose(row->value(), emb.Row(2)));
}

TEST(EmbeddingTest, ForwardGathersMultiple) {
  Rng rng(2);
  Embedding emb("e", 5, 3, &rng);
  ag::Tape tape;
  ag::TensorPtr out = emb.Forward(&tape, {4, 0, 4});
  EXPECT_EQ(out->rows(), 3);
  EXPECT_TRUE(AllClose(out->value().Row(0), emb.Row(4)));
  EXPECT_TRUE(AllClose(out->value().Row(1), emb.Row(0)));
}

TEST(EmbeddingTest, TracksTouchedRowsAsSparseParam) {
  Rng rng(3);
  Embedding emb("e", 10, 2, &rng);
  const auto params = emb.Parameters();
  ASSERT_EQ(params.size(), 1u);
  ASSERT_EQ(params[0].row_grad, &emb.row_grad());
  EXPECT_TRUE(params[0].row_grad->empty());
  ag::Tape tape;
  ag::TensorPtr a = emb.Forward(&tape, {1, 7});
  ag::TensorPtr b = emb.Forward(&tape, {7});
  // Touched rows are recorded during the backward pass (the forward pass is
  // pure so concurrent no-tape inference is thread-safe), so nothing is
  // tracked yet.
  EXPECT_TRUE(params[0].row_grad->empty());
  ag::TensorPtr loss =
      ag::Add(&tape, ag::SumAll(&tape, a), ag::SumAll(&tape, b));
  tape.Backward(loss);
  EXPECT_EQ(params[0].row_grad->num_rows(), 2u);
  EXPECT_GE(params[0].row_grad->Find(1), 0);
  EXPECT_GE(params[0].row_grad->Find(7), 0);
}

TEST(EmbeddingTest, GradientScattersIntoTouchedRows) {
  Rng rng(4);
  Embedding emb("e", 4, 2, &rng);
  ag::Tape tape;
  ag::TensorPtr out = emb.Forward(&tape, {1, 1, 3});
  ag::TensorPtr loss = ag::SumAll(&tape, out);
  tape.Backward(loss);
  const ag::RowGrad& grad = emb.row_grad();
  EXPECT_EQ(grad.Find(0), -1);  // untouched rows hold nothing
  ASSERT_GE(grad.Find(1), 0);
  ASSERT_GE(grad.Find(3), 0);
  EXPECT_FLOAT_EQ(grad.slot(static_cast<size_t>(grad.Find(1)))[0],
                  2.0f);  // row 1 gathered twice
  EXPECT_FLOAT_EQ(grad.slot(static_cast<size_t>(grad.Find(3)))[0], 1.0f);
  // The table itself never gets a dense gradient.
  EXPECT_FALSE(emb.table()->has_grad());
}

TEST(EmbeddingTest, SetTableOverwritesValues) {
  Rng rng(5);
  Embedding emb("e", 2, 2, &rng);
  Matrix values = Matrix::FromRows({{1, 2}, {3, 4}});
  emb.SetTable(values);
  EXPECT_TRUE(AllClose(emb.Row(1), Matrix::FromRows({{3, 4}})));
}

TEST(EmbeddingTest, GlorotInitialized) {
  Rng rng(6);
  Embedding emb("e", 50, 50, &rng);
  EXPECT_GT(emb.table()->value().MaxAbs(), 0.0f);
  EXPECT_LE(emb.table()->value().MaxAbs(), 0.25f);
}

}  // namespace
}  // namespace groupsa::nn
