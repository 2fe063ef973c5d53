// Cross-backend bit-identity: every kernel backend compiled into this
// binary (scalar, and avx2/avx512 when the toolchain provided them) must
// return byte-identical results for every kernel in the dispatch table.
// This is the gate behind the contract in tensor/backend.h — a backend
// whose vectorization changed any accumulation order fails here long
// before it could corrupt a training run.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace groupsa::tensor {
namespace {

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillGaussian(&rng, 0.0f, 1.0f);
  return m;
}

// Bitwise comparison — the backend contract is 0 ULP, not approximate.
void ExpectBitIdentical(const Matrix& a, const Matrix& b,
                        const std::string& backend) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.rows()) *
                            static_cast<size_t>(a.cols())),
            0)
      << "backend " << backend << " diverged from scalar";
}

std::vector<const KernelBackend*> RunnableBackends() {
  std::vector<const KernelBackend*> runnable;
  for (const KernelBackend* b : CompiledBackends())
    if (b->runnable()) runnable.push_back(b);
  return runnable;
}

TEST(KernelBackendTest, ScalarIsAlwaysCompiledAndRunnable) {
  const std::vector<const KernelBackend*>& all = CompiledBackends();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all[0]->name, "scalar");
  EXPECT_TRUE(all[0]->runnable());
  EXPECT_NE(DetectedCpuFeatures().find("sse2"), std::string::npos);
}

TEST(KernelBackendTest, SelectByNameRoundTripsAndRejectsUnknown) {
  const std::string before = ActiveBackendName();
  for (const KernelBackend* b : RunnableBackends()) {
    ASSERT_TRUE(SelectBackendByName(b->name));
    EXPECT_STREQ(ActiveBackendName(), b->name);
  }
  EXPECT_FALSE(SelectBackendByName("sse9"));
  ASSERT_TRUE(SelectBackendByName(before));
  SetBackendForTest(nullptr);
}

struct GemmCase {
  int m, k, n;
  bool transpose_a, transpose_b;
  float alpha;
  bool accumulate;
};

// Runs one configuration through every compiled-and-runnable backend's
// gemm_rows and checks bit parity against the scalar backend.
void CheckGemmParity(const GemmCase& c) {
  const std::vector<const KernelBackend*> backends = RunnableBackends();
  const Matrix a = c.transpose_a ? RandomMatrix(c.k, c.m, 11)
                                 : RandomMatrix(c.m, c.k, 11);
  const Matrix b = c.transpose_b ? RandomMatrix(c.n, c.k, 22)
                                 : RandomMatrix(c.k, c.n, 22);
  const Matrix init = RandomMatrix(c.m, c.n, 33);
  Matrix reference;
  for (const KernelBackend* backend : backends) {
    Matrix out(c.m, c.n);
    if (c.accumulate) out = init;
    backend->gemm_rows(a, c.transpose_a, b, c.transpose_b, c.alpha, &out,
                       c.k, c.n, 0, c.m);
    if (backend == backends.front()) {
      reference = out;
      continue;
    }
    ExpectBitIdentical(reference, out, backend->name);
  }
}

TEST(KernelBackendTest, GemmParityAcrossBackends) {
  const std::vector<GemmCase> cases = {
      {96, 80, 112, false, false, 1.0f, false},
      {96, 80, 112, false, true, 1.0f, false},
      {96, 80, 112, true, false, 1.0f, false},
      {96, 80, 112, true, true, 1.0f, false},
      {67, 129, 255, false, false, 0.37f, true},  // odd dims + accumulate
      {129, 63, 1, false, false, 1.0f, false},    // n == 1 eight-chain path
      {5, 63, 1, false, false, 1.0f, false},      // n == 1 remainder rows
      {33, 17, 32, false, false, 1.0f, false},    // exact col tile
      {33, 17, 48, false, false, 1.0f, true},     // 32 + 16 tail
      {33, 17, 41, true, false, -2.5f, false},    // runtime-width tail
      {3, 5, 7, false, true, 2.0f, true},
  };
  for (const GemmCase& c : cases) CheckGemmParity(c);
}

TEST(KernelBackendTest, GemmSerialRoutesThroughForcedBackend) {
  // End-to-end through the ops.cc entry points: forcing each backend must
  // not change a single bit of GemmSerial or the parallel Gemm.
  const Matrix a = RandomMatrix(96, 80, 44);
  const Matrix b = RandomMatrix(80, 112, 55);
  Matrix reference;
  GemmSerial(a, false, b, false, 1.0f, &reference);
  for (const KernelBackend* backend : RunnableBackends()) {
    SetBackendForTest(backend);
    Matrix serial;
    GemmSerial(a, false, b, false, 1.0f, &serial);
    ExpectBitIdentical(reference, serial, backend->name);
    parallel::SetGlobalThreads(4);
    Matrix parallel_out;
    Gemm(a, false, b, false, 1.0f, &parallel_out);
    parallel::SetGlobalThreads(1);
    ExpectBitIdentical(reference, parallel_out, backend->name);
  }
  SetBackendForTest(nullptr);
}

// Attention-logit parity: random prefix/addend structure with a ragged
// nonzero list per member, exercised at the fixed widths (32, 64) and a
// runtime width.
void CheckAttentionParity(int c, int l, int h, bool has_hb, bool has_ob) {
  const std::vector<const KernelBackend*> backends = RunnableBackends();
  const int num_rows = c + 3;  // prefix rows indexed via ids
  const Matrix prefix = RandomMatrix(num_rows, h, 66);
  const Matrix addends = RandomMatrix(l + 2, h, 77);
  const Matrix hb_row = RandomMatrix(1, h, 88);
  const Matrix wout_row = RandomMatrix(1, h, 99);
  std::vector<int> ids(static_cast<size_t>(c));
  for (int t = 0; t < c; ++t) ids[static_cast<size_t>(t)] = (t * 7 + 3) % num_rows;
  // Member i adds rows {i, i+1, ...} of `addends`, a ragged prefix list.
  std::vector<int> nz;
  std::vector<int> nz_begin{0};
  for (int i = 0; i < l; ++i) {
    for (int j = 0; j <= i % 3; ++j) nz.push_back((i + j) % (l + 2));
    nz_begin.push_back(static_cast<int>(nz.size()));
  }
  Matrix reference;
  for (const KernelBackend* backend : backends) {
    Matrix out(c, l);
    backend->attention_logits(prefix, ids.data(), c, l, h, addends, nz,
                              nz_begin, has_hb ? hb_row.data() : nullptr,
                              wout_row.data(), has_ob, has_ob ? 0.125f : 0.0f,
                              &out);
    if (backend == backends.front()) {
      reference = out;
      continue;
    }
    ExpectBitIdentical(reference, out, backend->name);
  }
}

TEST(KernelBackendTest, AttentionLogitParityAcrossBackends) {
  CheckAttentionParity(/*c=*/23, /*l=*/9, /*h=*/32, true, true);   // tile + tail
  CheckAttentionParity(/*c=*/16, /*l=*/5, /*h=*/64, false, true);  // wide fixed
  CheckAttentionParity(/*c=*/7, /*l=*/4, /*h=*/17, true, false);   // runtime h
  CheckAttentionParity(/*c=*/3, /*l=*/1, /*h=*/32, false, false);  // below tile
}

TEST(KernelBackendTest, Int8DotParityAndExactness) {
  const int d = 32;
  const int rows = 41;
  Rng rng(123);
  std::vector<int8_t> q(static_cast<size_t>(d));
  std::vector<int8_t> table(static_cast<size_t>(rows * d));
  for (int8_t& v : q)
    v = static_cast<int8_t>(static_cast<int>(rng.NextU64() % 255) - 127);
  for (int8_t& v : table)
    v = static_cast<int8_t>(static_cast<int>(rng.NextU64() % 255) - 127);
  std::vector<int> ids{0, 5, 40, 7, 7, 13};
  // Naive reference: integer arithmetic, so exact equality is required of
  // every backend (not merely parity).
  const auto naive = [&](int row) {
    int32_t acc = 0;
    for (int j = 0; j < d; ++j)
      acc += static_cast<int32_t>(q[static_cast<size_t>(j)]) *
             static_cast<int32_t>(table[static_cast<size_t>(row * d + j)]);
    return acc;
  };
  for (const KernelBackend* backend : RunnableBackends()) {
    std::vector<int32_t> out(ids.size());
    backend->dot_i8_rows(q.data(), table.data(), ids.data(),
                         static_cast<int>(ids.size()), d, out.data());
    for (size_t r = 0; r < ids.size(); ++r)
      EXPECT_EQ(out[r], naive(ids[r])) << backend->name << " row " << r;
    // nullptr ids: identity row mapping.
    std::vector<int32_t> seq(static_cast<size_t>(rows));
    backend->dot_i8_rows(q.data(), table.data(), nullptr, rows, d,
                         seq.data());
    for (int r = 0; r < rows; ++r)
      EXPECT_EQ(seq[static_cast<size_t>(r)], naive(r)) << backend->name;
  }
}

// Nearest-centroid parity. The oracle is the scan the k-means build ran
// before the kernel existed: one float dot per (row, centroid) pair, a
// chain from +0.0f with k ascending, then a strict-> scan from j = 0.
std::vector<int> NaiveNearest(const Matrix& x, const Matrix& centroids_t,
                              const std::vector<double>& half) {
  std::vector<int> out(static_cast<size_t>(x.rows()));
  for (int i = 0; i < x.rows(); ++i) {
    int best = 0;
    double best_score = 0.0;
    for (int j = 0; j < centroids_t.cols(); ++j) {
      float dot = 0.0f;
      for (int k = 0; k < x.cols(); ++k)
        dot += x.At(i, k) * centroids_t.At(k, j);
      const double s = static_cast<double>(dot) - half[static_cast<size_t>(j)];
      if (j == 0 || s > best_score) {
        best = j;
        best_score = s;
      }
    }
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

// The kernel over every row, in small tiles fanned out over the global
// pool as the index build fans them.
std::vector<int> NearestOnPool(const KernelBackend& backend, const Matrix& x,
                               const Matrix& centroids_t,
                               const std::vector<double>& half) {
  std::vector<int> out(static_cast<size_t>(x.rows()), -1);
  parallel::ParallelFor(0, x.rows(), 4, [&](int64_t r0, int64_t r1) {
    backend.nearest_centroid_rows(x, centroids_t, half.data(),
                                  static_cast<int>(r0), static_cast<int>(r1),
                                  out.data());
  });
  return out;
}

// Entries in {-2, ..., 2}: every dot and score is exact and ties are common.
Matrix SmallIntMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(static_cast<int>(rng.NextU64() % 5) - 2);
  return m;
}

std::vector<double> HalfSquaredNorms(const Matrix& centroids_t) {
  std::vector<double> half(static_cast<size_t>(centroids_t.cols()));
  for (int j = 0; j < centroids_t.cols(); ++j) {
    double acc = 0.0;
    for (int k = 0; k < centroids_t.rows(); ++k) {
      const double c = static_cast<double>(centroids_t.At(k, j));
      acc += c * c;
    }
    half[static_cast<size_t>(j)] = 0.5 * acc;
  }
  return half;
}

struct NearestCase {
  std::string name;
  Matrix x;
  Matrix centroids_t;
  std::vector<double> half;
};

std::vector<NearestCase> NearestCases(int nlist) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  // 37 small-integer rows (a multiple of no tile height), then rows whose
  // dots are +0.0 built from -0.0 terms, +inf/-inf/NaN, and the NaN a
  // 0 * inf term makes.
  Matrix x = SmallIntMatrix(42, 3, 1000 + static_cast<uint64_t>(nlist));
  const float specials[5][3] = {{-0.0f, -0.0f, -0.0f},
                                {1.0f, kInf, 0.0f},
                                {-kInf, 1.0f, -1.0f},
                                {0.0f, 0.0f, kNaN},
                                {kInf, -kInf, 2.0f}};
  for (int r = 0; r < 5; ++r) x.SetRow(37 + r, specials[r]);
  const Matrix ct =
      SmallIntMatrix(3, nlist, 2000 + static_cast<uint64_t>(nlist));

  std::vector<NearestCase> cases;
  cases.push_back({"small-integer ties", x, ct, HalfSquaredNorms(ct)});

  // Scores equal to the dots, with +0.0 and -0.0 halves: equal dots tie.
  std::vector<double> signed_zeros(static_cast<size_t>(nlist));
  for (int j = 0; j < nlist; ++j)
    signed_zeros[static_cast<size_t>(j)] = (j % 2 == 0) ? 0.0 : -0.0;
  cases.push_back({"signed-zero halves", x, ct, signed_zeros});

  Matrix nan0 = ct;
  nan0.At(1, 0) = kNaN;
  cases.push_back({"NaN at j = 0", x, nan0, HalfSquaredNorms(nan0)});

  // NaN in a later column, and infinite columns whose half is +inf.
  Matrix nonfinite = ct;
  nonfinite.At(0, nlist / 2) = kNaN;
  nonfinite.At(2, nlist - 1) = kInf;
  nonfinite.At(1, (nlist * 2) / 3) = -kInf;
  if (nlist > 1) {
    cases.push_back({"NaN and inf at j > 0", x, nonfinite,
                     HalfSquaredNorms(nonfinite)});
  }

  // Row r is one-hot at r, so its scores are row r of the table: a first
  // maximum at position p_r, tied again at every third column after it,
  // which puts the tie in every lane. Positions cover the first 24 columns
  // (every lane of a 16-wide tile and more) and the last tile's tail.
  std::vector<int> positions;
  for (int p = 0; p < std::min(nlist, 24); ++p) positions.push_back(p);
  for (int back : {1, 2, 8, 9, 17}) {
    if (nlist - back >= 24) positions.push_back(nlist - back);
  }
  const int rows = static_cast<int>(positions.size());
  Matrix onehot(rows, rows);
  Matrix ties(rows, nlist);
  for (int r = 0; r < rows; ++r) {
    onehot.At(r, r) = 1.0f;
    const int p = positions[static_cast<size_t>(r)];
    for (int j = p; j < nlist; j += 3) ties.At(r, j) = 1.0f;
  }
  cases.push_back({"first maximum at every position", onehot, ties,
                   std::vector<double>(static_cast<size_t>(nlist), 0.0)});
  return cases;
}

TEST(KernelBackendTest, NearestCentroidParityAcrossBackends) {
  const std::vector<const KernelBackend*> backends = RunnableBackends();
  for (int nlist : {1, 7, 8, 15, 16, 17, 31, 32, 33, 256, 282, 1264}) {
    for (const NearestCase& c : NearestCases(nlist)) {
      SCOPED_TRACE(::testing::Message() << "nlist=" << nlist << " " << c.name);
      const std::vector<int> oracle = NaiveNearest(c.x, c.centroids_t, c.half);
      for (int threads : {1, 4}) {
        parallel::SetGlobalThreads(threads);
        const std::vector<int> scalar =
            NearestOnPool(*backends.front(), c.x, c.centroids_t, c.half);
        for (const KernelBackend* backend : backends) {
          const std::vector<int> got =
              NearestOnPool(*backend, c.x, c.centroids_t, c.half);
          EXPECT_EQ(got, oracle) << backend->name << " threads=" << threads;
          EXPECT_EQ(got, scalar) << backend->name << " threads=" << threads;
        }
      }
      parallel::SetGlobalThreads(1);
    }
  }
}

}  // namespace
}  // namespace groupsa::tensor
