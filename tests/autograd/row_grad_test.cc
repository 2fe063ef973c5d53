#include "autograd/row_grad.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace groupsa::ag {
namespace {

using tensor::Matrix;

// Scatters `grad` into a dense `rows` x cols matrix.
Matrix Densify(const RowGrad& grad, int rows) {
  Matrix dense(rows, grad.cols());
  for (size_t slot = 0; slot < grad.num_rows(); ++slot)
    dense.SetRow(grad.rows()[slot], grad.slot(slot));
  return dense;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

// Ids after `base` whose probes start where `base`'s does.
std::vector<int> CollidingWith(int base, int count, size_t capacity) {
  std::vector<int> ids;
  for (int id = base + 1; static_cast<int>(ids.size()) < count; ++id)
    if (RowGrad::Home(id, capacity) == RowGrad::Home(base, capacity))
      ids.push_back(id);
  return ids;
}

// Random rows with repeats, each add landing on a dense reference too: the
// two agree bit for bit, slots follow first touch, and every row is found.
TEST(RowGradTest, AddsLikeADenseGradientInFirstTouchOrder) {
  constexpr int kRows = 300;
  constexpr int kCols = 5;
  Rng rng(17);
  RowGrad grad(kCols);
  Matrix dense(kRows, kCols);
  std::vector<int> first_touch;
  std::vector<float> src(kCols);
  for (int i = 0; i < 2000; ++i) {
    const int row = rng.NextInt(kRows);
    for (float& v : src) v = static_cast<float>(rng.NextDouble()) - 0.5f;
    if (grad.Find(row) < 0) first_touch.push_back(row);
    grad.AddRow(row, src.data());
    float* dst = dense.RowPtr(row);
    for (int c = 0; c < kCols; ++c) dst[c] += src[c];
  }
  EXPECT_EQ(grad.rows(), first_touch);
  EXPECT_TRUE(BitEqual(Densify(grad, kRows), dense));
  for (size_t slot = 0; slot < grad.num_rows(); ++slot)
    EXPECT_EQ(grad.Find(grad.rows()[slot]), static_cast<int>(slot));
}

// Rows whose probes start at the same index entry each keep their own slot.
TEST(RowGradTest, CollidingRowsKeepTheirOwnSlots) {
  std::vector<int> rows = {7};
  for (int id : CollidingWith(7, 4, 16)) rows.push_back(id);
  RowGrad grad(2);
  for (size_t i = 0; i < rows.size(); ++i) {
    const float src[2] = {static_cast<float>(i + 1), -1.0f};
    grad.AddRow(rows[i], src);
  }
  ASSERT_EQ(grad.index_capacity(), 16u);  // 5 rows: no growth yet
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(grad.Find(rows[i]), static_cast<int>(i)) << rows[i];
    EXPECT_EQ(grad.slot(i)[0], static_cast<float>(i + 1));
  }
  EXPECT_EQ(grad.Find(8), -1);
}

// The index doubles to stay at most half full and finds every row after
// each doubling.
TEST(RowGradTest, GrowthKeepsEveryRow) {
  RowGrad grad(1);
  EXPECT_EQ(grad.index_capacity(), 0u);
  const float one = 1.0f;
  for (int i = 0; i < 1000; ++i) {
    grad.AddRow(i * 7919, &one);
    ASSERT_GE(grad.index_capacity(), 2 * grad.num_rows());
  }
  EXPECT_EQ(grad.index_capacity(), 2048u);
  for (int i = 0; i < 1000; ++i)
    ASSERT_EQ(grad.Find(i * 7919), i);
}

// Clear forgets every row, including colliding and grown ones, and keeps
// every buffer: the next batch allocates nothing and starts from zeroed
// slots.
TEST(RowGradTest, ClearForgetsRowsAndKeepsCapacity) {
  RowGrad grad(3);
  std::vector<int> rows = {2};
  for (int id : CollidingWith(2, 3, 16)) rows.push_back(id);
  for (int i = 0; i < 40; ++i) rows.push_back(1000 + 13 * i);
  const float src[3] = {0.5f, -0.25f, 2.0f};
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    for (int row : rows) grad.AddRow(row, src);
    for (int row : rows) grad.AddRow(row, src);
    ASSERT_EQ(grad.num_rows(), rows.size());
    for (size_t slot = 0; slot < grad.num_rows(); ++slot)
      EXPECT_EQ(grad.slot(slot)[2], 4.0f);  // two adds onto a zeroed slot
    const size_t bytes = grad.bytes();
    const size_t capacity = grad.index_capacity();
    grad.Clear();
    EXPECT_TRUE(grad.empty());
    EXPECT_TRUE(grad.values().empty());
    for (int row : rows) EXPECT_EQ(grad.Find(row), -1) << row;
    EXPECT_EQ(grad.bytes(), bytes);
    EXPECT_EQ(grad.index_capacity(), capacity);
  }
}

// AddFrom adds another gradient's slots in its first-touch order: the sum
// of two gradients matches the dense sum of both.
TEST(RowGradTest, AddFromMatchesTheDenseSum) {
  constexpr int kRows = 64;
  Rng rng(5);
  RowGrad a(2);
  RowGrad b(2);
  Matrix dense(kRows, 2);
  for (RowGrad* g : {&a, &b}) {
    for (int i = 0; i < 50; ++i) {
      const int row = rng.NextInt(kRows);
      const float src[2] = {static_cast<float>(rng.NextDouble()),
                            -static_cast<float>(rng.NextDouble())};
      g->AddRow(row, src);
    }
  }
  for (const RowGrad* g : {&a, &b}) {
    for (size_t slot = 0; slot < g->num_rows(); ++slot) {
      float* dst = dense.RowPtr(g->rows()[slot]);
      for (int c = 0; c < 2; ++c) dst[c] += g->slot(slot)[c];
    }
  }
  RowGrad sum(2);
  sum.AddFrom(a);
  sum.AddFrom(b);
  EXPECT_TRUE(BitEqual(Densify(sum, kRows), dense));
}

}  // namespace
}  // namespace groupsa::ag
