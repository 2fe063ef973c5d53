// Edge cases of the symmetric per-row int8 quantizer: all-zero rows,
// constant rows, saturation at the +/- extremes, single-column rows, the
// scale/2 round-trip error bound and the memory contract behind the
// bytes-per-user gate.

#include "core/quantized.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace groupsa::core {
namespace {

tensor::Matrix RowMatrix(const std::vector<float>& values) {
  tensor::Matrix m(1, static_cast<int>(values.size()));
  for (size_t j = 0; j < values.size(); ++j)
    m.At(0, static_cast<int>(j)) = values[j];
  return m;
}

TEST(QuantizedTest, AllZeroRowRoundTripsExactly) {
  const QuantizedRows q = QuantizeRows(RowMatrix({0.0f, 0.0f, 0.0f, 0.0f}));
  EXPECT_EQ(q.scale(0), 0.0f);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(q.RowPtr(0)[j], 0);
  const tensor::Matrix back = q.Dequantize();
  for (int j = 0; j < 4; ++j) EXPECT_EQ(back.At(0, j), 0.0f);
}

TEST(QuantizedTest, ConstantRowSaturatesEveryLane) {
  for (const float v : {0.75f, -3.0f, 1e-6f, 4096.0f}) {
    const QuantizedRows q = QuantizeRows(RowMatrix({v, v, v, v, v}));
    for (int j = 0; j < 5; ++j)
      EXPECT_EQ(q.RowPtr(0)[j], v > 0 ? 127 : -127) << "v=" << v;
    const tensor::Matrix back = q.Dequantize();
    for (int j = 0; j < 5; ++j)
      EXPECT_NEAR(back.At(0, j), v, std::abs(v) * 1e-5f) << "v=" << v;
  }
}

TEST(QuantizedTest, ExtremesClampTo127) {
  // maxabs sits on the negative element; +maxabs/-maxabs must land exactly
  // on +/-127 and nothing may escape the clamp.
  const QuantizedRows q = QuantizeRows(RowMatrix({-8.0f, 8.0f, 2.0f, -1.0f}));
  EXPECT_EQ(q.RowPtr(0)[0], -127);
  EXPECT_EQ(q.RowPtr(0)[1], 127);
  for (int j = 0; j < 4; ++j) {
    EXPECT_GE(q.RowPtr(0)[j], -127);
    EXPECT_LE(q.RowPtr(0)[j], 127);
  }
  // Interior elements land mid-range, not at the rails.
  EXPECT_EQ(q.RowPtr(0)[2], 32);   // 2/8 * 127 = 31.75 -> 32
  EXPECT_EQ(q.RowPtr(0)[3], -16);  // -1/8 * 127 = -15.875 -> -16
}

TEST(QuantizedTest, SingleColumnRows) {
  tensor::Matrix m(3, 1);
  m.At(0, 0) = 2.5f;
  m.At(1, 0) = -0.001f;
  m.At(2, 0) = 0.0f;
  const QuantizedRows q = QuantizeRows(m);
  EXPECT_EQ(q.RowPtr(0)[0], 127);
  EXPECT_EQ(q.RowPtr(1)[0], -127);
  EXPECT_EQ(q.RowPtr(2)[0], 0);
  EXPECT_EQ(q.scale(2), 0.0f);
  const tensor::Matrix back = q.Dequantize();
  EXPECT_NEAR(back.At(0, 0), 2.5f, 2.5f * 1e-5f);
  EXPECT_NEAR(back.At(1, 0), -0.001f, 0.001f * 1e-5f);
  EXPECT_EQ(back.At(2, 0), 0.0f);
}

TEST(QuantizedTest, RoundTripErrorBoundedByHalfScale) {
  tensor::Matrix m(16, 32);
  Rng rng(99);
  m.FillGaussian(&rng, 0.0f, 2.0f);
  const QuantizedRows q = QuantizeRows(m);
  const tensor::Matrix back = q.Dequantize();
  for (int r = 0; r < m.rows(); ++r) {
    const float bound = 0.5f * q.scale(r) * (1.0f + 1e-5f);
    for (int j = 0; j < m.cols(); ++j) {
      EXPECT_LE(std::abs(back.At(r, j) - m.At(r, j)), bound)
          << "row " << r << " col " << j;
    }
  }
}

TEST(QuantizedTest, QuantizeRowMatchesQuantizeRows) {
  tensor::Matrix m(4, 8);
  Rng rng(7);
  m.FillGaussian(&rng, 0.0f, 1.0f);
  const QuantizedRows q = QuantizeRows(m);
  for (int r = 0; r < m.rows(); ++r) {
    std::vector<int8_t> row(8);
    const float scale = QuantizeRow(m.RowPtr(r), 8, row.data());
    EXPECT_EQ(scale, q.scale(r));
    for (int j = 0; j < 8; ++j) EXPECT_EQ(row[static_cast<size_t>(j)], q.RowPtr(r)[j]);
  }
}

TEST(QuantizedTest, MemoryIsAtLeastThreeAndAHalfTimesSmallerThanFp32) {
  // d + 4 bytes per row vs 4d FP32: 3.55x at the model's d = 32.
  tensor::Matrix m(100, 32);
  Rng rng(3);
  m.FillGaussian(&rng, 0.0f, 1.0f);
  const QuantizedRows q = QuantizeRows(m);
  EXPECT_EQ(q.MemoryBytes(), 100u * (32u + 4u));
  const double fp32 = 100.0 * 32.0 * sizeof(float);
  EXPECT_GE(fp32 / static_cast<double>(q.MemoryBytes()), 3.5);
}

}  // namespace
}  // namespace groupsa::core
