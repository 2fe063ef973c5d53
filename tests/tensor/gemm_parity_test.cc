// Bit-exact parity of the row-tiled parallel Gemm against the serial
// reference kernel. Every output row of the parallel path runs the same
// inner-loop instruction sequence as GemmSerial, so the comparison is exact
// (0 ULP), not approximate.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace groupsa::tensor {
namespace {

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillGaussian(&rng, 0.0f, 1.0f);
  return m;
}

// Bitwise comparison: float equality would accept -0.0f == 0.0f and reject
// matching NaNs; memcmp on the raw payload is the real 0-ULP check.
void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * a.rows() * a.cols()),
            0);
}

struct GemmCase {
  int m, k, n;
  bool transpose_a, transpose_b;
  float alpha;
  bool accumulate;
};

// Runs one Gemm configuration through the serial kernel and through the
// public Gemm at the given pool width, and checks bit parity.
void CheckParity(const GemmCase& c, int threads) {
  const Matrix a = c.transpose_a ? RandomMatrix(c.k, c.m, 101)
                                 : RandomMatrix(c.m, c.k, 101);
  const Matrix b = c.transpose_b ? RandomMatrix(c.n, c.k, 202)
                                 : RandomMatrix(c.k, c.n, 202);
  Matrix expected;
  Matrix actual;
  if (c.accumulate) {
    const Matrix init = RandomMatrix(c.m, c.n, 303);
    expected = init;
    actual = init;
  }
  GemmSerial(a, c.transpose_a, b, c.transpose_b, c.alpha, &expected,
             c.accumulate);

  parallel::SetGlobalThreads(threads);
  Gemm(a, c.transpose_a, b, c.transpose_b, c.alpha, &actual, c.accumulate);
  parallel::SetGlobalThreads(1);

  ExpectBitIdentical(expected, actual);
}

TEST(GemmParityTest, TransposeFlagCombinationsAtFourThreads) {
  // 96x80x112 is above the parallel cutoff (96*80*112 ≈ 860k > 2^18) with
  // deliberately unequal, non-power-of-two dimensions.
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      CheckParity({96, 80, 112, ta, tb, 1.0f, false}, /*threads=*/4);
    }
  }
}

TEST(GemmParityTest, OddShapes) {
  const std::vector<GemmCase> cases = {
      {1, 257, 131, false, false, 1.0f, false},   // single output row
      {131, 1, 257, false, false, 1.0f, false},   // inner dim 1
      {257, 131, 1, false, false, 1.0f, false},   // single output column
      {67, 129, 255, false, true, 1.0f, false},   // odd everything
      {255, 67, 129, true, false, 1.0f, false},
      {129, 255, 67, true, true, 1.0f, false},
  };
  for (const GemmCase& c : cases) CheckParity(c, /*threads=*/4);
}

TEST(GemmParityTest, AlphaAndAccumulate) {
  CheckParity({96, 96, 96, false, false, 0.37f, false}, /*threads=*/4);
  CheckParity({96, 96, 96, false, false, 1.0f, true}, /*threads=*/4);
  CheckParity({96, 96, 96, true, false, -2.5f, true}, /*threads=*/4);
}

TEST(GemmParityTest, ThreadCountInvariance) {
  // The tiled kernel must match serial at every pool width, including widths
  // far above the chunk count.
  for (int threads : {1, 2, 3, 4, 8}) {
    CheckParity({80, 90, 100, false, false, 1.0f, false}, threads);
    CheckParity({80, 90, 100, true, true, 0.5f, true}, threads);
  }
}

TEST(GemmParityTest, PreTransposedBMatchesTransposeBOnFiniteInputs) {
  // core::ItemIndex multiplies by centroids transposed once instead of
  // passing transpose_b, and its pinned digests rely on the two paths
  // agreeing bit for bit: the same k-ascending chains, with the exact +/-0
  // terms the transpose-b branch skips added as signed zeros. The widths
  // cover the n == 1 path, runtime-width and 8-wide tails and 32-wide tiles.
  Matrix a = RandomMatrix(300, 32, 404);
  for (int i = 0; i < a.size(); i += 3) a.data()[i] = (i % 2) ? 0.0f : -0.0f;
  for (int n : {1, 17, 40, 256, 282}) {
    const Matrix b = RandomMatrix(n, 32, 505);
    for (int threads : {1, 4}) {
      parallel::SetGlobalThreads(threads);
      Matrix strided;
      Matrix tiled;
      Gemm(a, false, b, /*transpose_b=*/true, 1.0f, &strided);
      Gemm(a, false, Transpose(b), false, 1.0f, &tiled);
      ExpectBitIdentical(strided, tiled);
    }
    parallel::SetGlobalThreads(1);
  }
}

TEST(GemmParityTest, BelowCutoffStillMatches) {
  // Small products take the serial fast path inside Gemm; parity is trivially
  // required there too.
  CheckParity({8, 8, 8, false, true, 1.0f, false}, /*threads=*/4);
  CheckParity({3, 5, 7, true, false, 2.0f, true}, /*threads=*/4);
}

}  // namespace
}  // namespace groupsa::tensor
