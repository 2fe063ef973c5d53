#include "tensor/ops.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace groupsa::tensor {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// Reference O(n^3) matmul for checking Gemm against.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.cols(); ++j)
      for (int k = 0; k < a.cols(); ++k)
        out.At(i, j) += a.At(i, k) * b.At(k, j);
  return out;
}

class GemmTransposeTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmTransposeTest, MatchesNaive) {
  const auto [ta, tb] = GetParam();
  Rng rng(5);
  Matrix a_base(3, 4);
  Matrix b_base(4, 5);
  a_base.FillGaussian(&rng, 0.0f, 1.0f);
  b_base.FillGaussian(&rng, 0.0f, 1.0f);
  const Matrix a = ta ? Transpose(a_base) : a_base;
  const Matrix b = tb ? Transpose(b_base) : b_base;
  Matrix out;
  Gemm(a, ta, b, tb, 1.0f, &out);
  EXPECT_TRUE(AllClose(out, NaiveMatMul(a_base, b_base), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(AllTransposeCombos, GemmTransposeTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(GemmTest, AlphaScales) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{3}, {4}});
  Matrix out;
  Gemm(a, false, b, false, 2.0f, &out);
  EXPECT_FLOAT_EQ(out.At(0, 0), 22.0f);
}

TEST(GemmTest, AccumulateAddsIntoExisting) {
  Matrix a = Matrix::FromRows({{1, 0}, {0, 1}});
  Matrix b = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix out(2, 2, 10.0f);
  Gemm(a, false, b, false, 1.0f, &out, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(out.At(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(out.At(1, 1), 14.0f);
}

TEST(MatMulTest, IdentityPreserves) {
  Matrix eye = Matrix::FromRows({{1, 0}, {0, 1}});
  Matrix x = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix out;
  Gemm(eye, false, x, false, 1.0f, &out);
  EXPECT_TRUE(AllClose(out, x));
}

TEST(TransposeTest, TransposesAndRoundTrips) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = Transpose(m);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t.At(2, 1), 6.0f);
  EXPECT_TRUE(AllClose(Transpose(t), m));
}

TEST(HadamardTest, ElementwiseProduct) {
  Matrix a = Matrix::FromRows({{2, 3}});
  Matrix b = Matrix::FromRows({{4, -1}});
  Matrix out;
  HadamardInto(a, b, &out);
  EXPECT_TRUE(AllClose(out, Matrix::FromRows({{8, -3}})));
}

TEST(AddRowBroadcastTest, AddsToEveryRow) {
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}});
  Matrix bias = Matrix::FromRows({{10, 20}});
  AddRowBroadcastInPlace(&a, bias);
  EXPECT_TRUE(AllClose(a, Matrix::FromRows({{11, 21}, {12, 22}})));
}

TEST(SumRowsTest, SumsColumns) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix out;
  SumRowsInto(a, &out);
  EXPECT_TRUE(AllClose(out, Matrix::FromRows({{9, 12}})));
}

TEST(SoftmaxRowsTest, RowsSumToOne) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {-1, 0, 1}});
  SoftmaxRowsInPlace(&m);
  for (int r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (int c = 0; c < 3; ++c) {
      total += m.At(r, c);
      EXPECT_GT(m.At(r, c), 0.0f);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxRowsTest, MonotoneInLogits) {
  Matrix m = Matrix::FromRows({{1, 3, 2}});
  SoftmaxRowsInPlace(&m);
  EXPECT_GT(m.At(0, 1), m.At(0, 2));
  EXPECT_GT(m.At(0, 2), m.At(0, 0));
}

TEST(SoftmaxRowsTest, NumericallyStableForLargeLogits) {
  Matrix m = Matrix::FromRows({{1000.0f, 1000.0f}});
  SoftmaxRowsInPlace(&m);
  EXPECT_NEAR(m.At(0, 0), 0.5f, 1e-5f);
}

TEST(SoftmaxRowsTest, NegInfMaskedToExactZero) {
  Matrix m = Matrix::FromRows({{0.0f, -kInf, 0.0f}});
  SoftmaxRowsInPlace(&m);
  EXPECT_EQ(m.At(0, 1), 0.0f);
  EXPECT_NEAR(m.At(0, 0), 0.5f, 1e-5f);
}

TEST(SoftmaxRowsTest, SingleEntryRowIsOne) {
  Matrix m = Matrix::FromRows({{-3.7f}});
  SoftmaxRowsInPlace(&m);
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.0f);
}

TEST(ConcatColsTest, JoinsHorizontally) {
  Matrix a = Matrix::FromRows({{1}, {2}});
  Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  Matrix joined;
  ConcatColsInto({&a, &b}, &joined);
  EXPECT_TRUE(AllClose(joined, Matrix::FromRows({{1, 3, 4}, {2, 5, 6}})));
}

TEST(ConcatRowsTest, JoinsVertically) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  Matrix joined = ConcatRows({&a, &b});
  EXPECT_TRUE(AllClose(joined, Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}})));
}

TEST(GatherRowsTest, GathersWithRepeats) {
  Matrix table = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Matrix out;
  GatherRowsInto(table, std::vector<int>{2, 0, 2}, &out);
  EXPECT_TRUE(AllClose(out, Matrix::FromRows({{3, 3}, {1, 1}, {3, 3}})));
}

TEST(GatherRowsTest, EmptyIds) {
  Matrix table(3, 2, 1.0f);
  Matrix out;
  GatherRowsInto(table, {}, &out);
  EXPECT_EQ(out.rows(), 0);
  EXPECT_EQ(out.cols(), 2);
}

// The reuse contract of the destination kernels: a dirty,
// differently-shaped destination is reshaped and fully overwritten without
// reallocating when capacity suffices.
TEST(IntoKernelsTest, ReuseDirtyDestinationBitExactly) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix b = Matrix::FromRows({{2, 2, 2}, {3, 3, 3}});
  Matrix dirty(5, 5, 99.0f);
  const float* storage = dirty.data();

  TransposeInto(a, &dirty);
  EXPECT_TRUE(AllClose(dirty, Transpose(a)));
  EXPECT_EQ(dirty.data(), storage);

  HadamardInto(a, b, &dirty);
  EXPECT_TRUE(AllClose(dirty, Matrix::FromRows({{2, 4, 6}, {12, 15, 18}})));

  SumRowsInto(a, &dirty);
  EXPECT_TRUE(AllClose(dirty, Matrix::FromRows({{5, 7, 9}})));

  GatherRowsInto(a, std::vector<int>{1, 0, 1}, &dirty);
  EXPECT_TRUE(AllClose(dirty, Matrix::FromRows({{4, 5, 6}, {1, 2, 3},
                                                {4, 5, 6}})));

  ConcatColsInto({&a, &b}, &dirty);
  EXPECT_TRUE(AllClose(dirty, Matrix::FromRows({{1, 2, 3, 2, 2, 2},
                                                {4, 5, 6, 3, 3, 3}})));

  ConcatRowsInto({&a, &b}, &dirty);
  EXPECT_TRUE(AllClose(dirty, ConcatRows({&a, &b})));
  EXPECT_EQ(dirty.data(), storage);
}

TEST(IntoKernelsTest, SumRowsIntoZeroesItsAccumulator) {
  // SumRowsInto accumulates into its destination, so the zero-fill on
  // reshape (and on same-shape reuse) is load-bearing.
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix out(1, 2, 50.0f);  // same shape, dirty contents
  SumRowsInto(a, &out);
  EXPECT_TRUE(AllClose(out, Matrix::FromRows({{4, 6}})));
}

}  // namespace
}  // namespace groupsa::tensor
