#include "tensor/matrix.h"

#include <gtest/gtest.h>

namespace groupsa::tensor {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ConstructorZeroInitializes) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 4; ++c) EXPECT_EQ(m.At(r, c), 0.0f);
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 2, 3.5f);
  EXPECT_EQ(m.At(1, 1), 3.5f);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.At(0, 2), 3.0f);
  EXPECT_EQ(m.At(1, 0), 4.0f);
}

TEST(MatrixTest, AtReadWrite) {
  Matrix m(2, 2);
  m.At(0, 1) = 5.0f;
  EXPECT_EQ(m(0, 1), 5.0f);
  m(1, 0) = -2.0f;
  EXPECT_EQ(m.At(1, 0), -2.0f);
}

TEST(MatrixTest, RowMajorLayout) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  const float* data = m.data();
  EXPECT_EQ(data[0], 1.0f);
  EXPECT_EQ(data[1], 2.0f);
  EXPECT_EQ(data[2], 3.0f);
  EXPECT_EQ(data[3], 4.0f);
}

TEST(MatrixTest, ResizeZeroes) {
  Matrix m(1, 1, 9.0f);
  m.Resize(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.At(0, 0), 0.0f);
}

TEST(MatrixTest, AddSubInPlace) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{3, 5}});
  a.AddInPlace(b);
  EXPECT_TRUE(AllClose(a, Matrix::FromRows({{4, 7}})));
  a.AxpyInPlace(-1.0f, b);  // subtracts b again
  EXPECT_TRUE(AllClose(a, Matrix::FromRows({{1, 2}})));
}

TEST(MatrixTest, ScaleInPlace) {
  Matrix a = Matrix::FromRows({{1, -2}});
  a.ScaleInPlace(-3.0f);
  EXPECT_TRUE(AllClose(a, Matrix::FromRows({{-3, 6}})));
}

TEST(MatrixTest, AxpyInPlace) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{10, 20}});
  a.AxpyInPlace(0.5f, b);
  EXPECT_TRUE(AllClose(a, Matrix::FromRows({{6, 12}})));
}

TEST(MatrixTest, SetRowAndRow) {
  Matrix m(2, 3);
  const float vals[3] = {1, 2, 3};
  m.SetRow(1, vals);
  Matrix row = m.Row(1);
  EXPECT_TRUE(AllClose(row, Matrix::FromRows({{1, 2, 3}})));
  EXPECT_EQ(m.At(0, 0), 0.0f);
}

TEST(MatrixTest, FillUniformWithinBounds) {
  Rng rng(1);
  Matrix m(10, 10);
  m.FillUniform(&rng, -0.5f, 0.5f);
  for (int i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], -0.5f);
    EXPECT_LT(m.data()[i], 0.5f);
  }
}

TEST(MatrixTest, FillGaussianMoments) {
  Rng rng(2);
  Matrix m(100, 100);
  m.FillGaussian(&rng, 1.0f, 0.5f);
  EXPECT_NEAR(m.Mean(), 1.0f, 0.02f);
}

TEST(MatrixTest, SumMeanMaxAbs) {
  Matrix m = Matrix::FromRows({{1, -4}, {2, 1}});
  EXPECT_FLOAT_EQ(m.Sum(), 0.0f);
  EXPECT_FLOAT_EQ(m.Mean(), 0.0f);
  EXPECT_FLOAT_EQ(m.MaxAbs(), 4.0f);
  EXPECT_FLOAT_EQ(m.SquaredNorm(), 1 + 16 + 4 + 1);
}

TEST(MatrixTest, SameShape) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  Matrix c(3, 2);
  EXPECT_TRUE(a.SameShape(b));
  EXPECT_FALSE(a.SameShape(c));
}

TEST(MatrixTest, AllCloseTolerance) {
  Matrix a = Matrix::FromRows({{1.0f}});
  Matrix b = Matrix::FromRows({{1.0005f}});
  EXPECT_TRUE(AllClose(a, b, 1e-3f));
  EXPECT_FALSE(AllClose(a, b, 1e-5f));
}

TEST(MatrixTest, AllCloseShapeMismatch) {
  EXPECT_FALSE(AllClose(Matrix(1, 2), Matrix(2, 1)));
}

TEST(MatrixTest, DebugStringTruncates) {
  Matrix m(20, 20, 1.0f);
  const std::string s = m.DebugString(2, 2);
  EXPECT_NE(s.find("Matrix 20x20"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

TEST(MatrixTest, RowAtViewsWithoutCopying) {
  const Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  const RowView row = m.RowAt(1);
  EXPECT_EQ(row.cols, 3);
  EXPECT_EQ(row.data, m.RowPtr(1));  // borrowed, not copied
  EXPECT_EQ(row[0], 4.0f);
  EXPECT_EQ(row[2], 6.0f);
  float sum = 0.0f;
  for (float v : row) sum += v;
  EXPECT_EQ(sum, 15.0f);
}

TEST(MatrixTest, AllCloseAcceptsRowViews) {
  const Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix single = Matrix::FromRows({{3, 4}});
  EXPECT_TRUE(AllClose(m.RowAt(1), m.RowAt(1)));
  EXPECT_FALSE(AllClose(m.RowAt(0), m.RowAt(1)));
  EXPECT_TRUE(AllClose(single, m.RowAt(1)));
  EXPECT_TRUE(AllClose(m.RowAt(1), single));
}

TEST(MatrixTest, CopyFromReusesStorage) {
  Matrix src = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix dst(4, 4);
  const float* storage = dst.data();
  dst.CopyFrom(src);
  EXPECT_EQ(dst.rows(), 2);
  EXPECT_EQ(dst.cols(), 2);
  EXPECT_EQ(dst.At(1, 0), 3.0f);
  // Shrinking fits in the existing capacity: no reallocation.
  EXPECT_EQ(dst.data(), storage);
}

TEST(MatrixTest, EnsureShapeSkipsZeroFillWhenShapeMatches) {
  Matrix m(2, 3);
  m.Fill(7.0f);
  m.EnsureShape(2, 3);  // same shape: contents untouched
  EXPECT_EQ(m.At(1, 2), 7.0f);
  m.EnsureShape(3, 2);  // shape change: reshaped and zeroed
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.MaxAbs(), 0.0f);
}

}  // namespace
}  // namespace groupsa::tensor
