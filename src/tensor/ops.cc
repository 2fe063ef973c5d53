#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"
#include "tensor/backend.h"

namespace groupsa::tensor {
namespace {

// Work (in multiply-adds / elements) below which kernels stay serial; at
// these sizes the ParallelFor dispatch costs more than the loop body.
constexpr int64_t kGemmParallelWork = 1 << 18;       // m * n * k
constexpr int64_t kElementwiseParallelWork = 1 << 20;

// The GEMM row kernel itself lives in tensor/backends/kernels.inc and is
// compiled once per ISA; ActiveBackend() picks the variant for this machine.
// All variants are bit-identical (see tensor/backend.h), so routing through
// the dispatch table preserves every reproducibility contract the direct
// call used to carry.

// Shape-checks and prepares the destination; returns {m, k, n}.
struct GemmShape {
  int m, k, n;
};
GemmShape PrepareGemm(const Matrix& a, bool transpose_a, const Matrix& b,
                      bool transpose_b, Matrix* out, bool accumulate) {
  const int m = transpose_a ? a.cols() : a.rows();
  const int k = transpose_a ? a.rows() : a.cols();
  const int kb = transpose_b ? b.cols() : b.rows();
  const int n = transpose_b ? b.rows() : b.cols();
  GROUPSA_CHECK(k == kb, "Gemm inner dimension mismatch");
  if (!accumulate || out->rows() != m || out->cols() != n) {
    GROUPSA_CHECK(!accumulate || (out->rows() == m && out->cols() == n),
                  "Gemm accumulate shape mismatch");
    out->Resize(m, n);
  }
  return {m, k, n};
}

}  // namespace

void GemmSerial(const Matrix& a, bool transpose_a, const Matrix& b,
                bool transpose_b, float alpha, Matrix* out, bool accumulate) {
  const GemmShape s = PrepareGemm(a, transpose_a, b, transpose_b, out,
                                  accumulate);
  ActiveBackend().gemm_rows(a, transpose_a, b, transpose_b, alpha, out, s.k,
                            s.n, 0, s.m);
}

void Gemm(const Matrix& a, bool transpose_a, const Matrix& b, bool transpose_b,
          float alpha, Matrix* out, bool accumulate) {
  const GemmShape s = PrepareGemm(a, transpose_a, b, transpose_b, out,
                                  accumulate);
  const KernelBackend& kb = ActiveBackend();
  const int64_t work = int64_t{s.m} * s.k * s.n;
  const int threads = parallel::GlobalThreads();
  if (threads <= 1 || work < kGemmParallelWork || s.m < 2 * threads) {
    kb.gemm_rows(a, transpose_a, b, transpose_b, alpha, out, s.k, s.n, 0,
                 s.m);
    return;
  }
  // Tile over output rows: chunks write disjoint rows and each row is
  // computed exactly as in the serial kernel, so the result is bit-identical
  // at any thread count.
  const int64_t grain = std::max<int64_t>(1, s.m / (4 * threads));
  parallel::ParallelFor(0, s.m, grain, [&](int64_t begin, int64_t end) {
    kb.gemm_rows(a, transpose_a, b, transpose_b, alpha, out, s.k, s.n,
                 static_cast<int>(begin), static_cast<int>(end));
  });
}

void TransposeInto(const Matrix& a, Matrix* out) {
  out->EnsureShape(a.cols(), a.rows());
  auto rows = [&](int64_t begin, int64_t end) {
    for (int r = static_cast<int>(begin); r < end; ++r)
      for (int c = 0; c < a.cols(); ++c) out->At(c, r) = a.At(r, c);
  };
  if (a.size() < kElementwiseParallelWork || parallel::GlobalThreads() <= 1) {
    rows(0, a.rows());
  } else {
    parallel::ParallelFor(
        0, a.rows(),
        std::max<int64_t>(1, a.rows() / (4 * parallel::GlobalThreads())),
        rows);
  }
}

Matrix Transpose(const Matrix& a) {
  Matrix out;
  TransposeInto(a, &out);
  return out;
}

void HadamardInto(const Matrix& a, const Matrix& b, Matrix* out) {
  GROUPSA_CHECK(a.SameShape(b), "Hadamard shape mismatch");
  out->EnsureShape(a.rows(), a.cols());
  auto span = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i)
      out->data()[i] = a.data()[i] * b.data()[i];
  };
  if (a.size() < kElementwiseParallelWork || parallel::GlobalThreads() <= 1) {
    span(0, a.size());
  } else {
    parallel::ParallelFor(
        0, a.size(),
        std::max<int64_t>(1, a.size() / (4 * parallel::GlobalThreads())),
        span);
  }
}

void AddRowBroadcastInPlace(Matrix* a, const Matrix& bias) {
  GROUPSA_CHECK(bias.rows() == 1 && bias.cols() == a->cols(),
                "AddRowBroadcast bias must be 1 x cols");
  auto rows = [&](int64_t begin, int64_t end) {
    for (int r = static_cast<int>(begin); r < end; ++r) {
      float* row = a->RowPtr(r);
      const float* b = bias.RowPtr(0);
      for (int c = 0; c < a->cols(); ++c) row[c] += b[c];
    }
  };
  if (a->size() < kElementwiseParallelWork || parallel::GlobalThreads() <= 1) {
    rows(0, a->rows());
  } else {
    parallel::ParallelFor(
        0, a->rows(),
        std::max<int64_t>(1, a->rows() / (4 * parallel::GlobalThreads())),
        rows);
  }
}

void SumRowsInto(const Matrix& a, Matrix* out) {
  out->Resize(1, a.cols());  // accumulates, so the zero-fill is load-bearing
  for (int r = 0; r < a.rows(); ++r) {
    const float* row = a.RowPtr(r);
    for (int c = 0; c < a.cols(); ++c) out->At(0, c) += row[c];
  }
}

void SoftmaxRowsInPlace(Matrix* a) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  for (int r = 0; r < a->rows(); ++r) {
    float* row = a->RowPtr(r);
    float max_v = kNegInf;
    for (int c = 0; c < a->cols(); ++c) max_v = std::max(max_v, row[c]);
    GROUPSA_CHECK(max_v != kNegInf,
                  "SoftmaxRows: a row is fully masked (-inf everywhere)");
    double total = 0.0;
    for (int c = 0; c < a->cols(); ++c) {
      const float e = row[c] == kNegInf ? 0.0f : std::exp(row[c] - max_v);
      row[c] = e;
      total += e;
    }
    const float inv = 1.0f / static_cast<float>(total);
    for (int c = 0; c < a->cols(); ++c) row[c] *= inv;
  }
}

void ConcatColsInto(const std::vector<const Matrix*>& parts, Matrix* out) {
  GROUPSA_CHECK(!parts.empty(), "ConcatCols requires input");
  const int rows = parts[0]->rows();
  int cols = 0;
  for (const Matrix* p : parts) {
    GROUPSA_CHECK(p->rows() == rows, "ConcatCols row mismatch");
    cols += p->cols();
  }
  out->EnsureShape(rows, cols);
  for (int r = 0; r < rows; ++r) {
    int offset = 0;
    for (const Matrix* p : parts) {
      for (int c = 0; c < p->cols(); ++c) out->At(r, offset + c) = p->At(r, c);
      offset += p->cols();
    }
  }
}

void ConcatRowsInto(const std::vector<const Matrix*>& parts, Matrix* out) {
  GROUPSA_CHECK(!parts.empty(), "ConcatRows requires input");
  const int cols = parts[0]->cols();
  int rows = 0;
  for (const Matrix* p : parts) {
    GROUPSA_CHECK(p->cols() == cols, "ConcatRows col mismatch");
    rows += p->rows();
  }
  out->EnsureShape(rows, cols);
  int offset = 0;
  for (const Matrix* p : parts) {
    for (int r = 0; r < p->rows(); ++r) out->SetRow(offset + r, p->RowPtr(r));
    offset += p->rows();
  }
}

Matrix ConcatRows(const std::vector<const Matrix*>& parts) {
  Matrix out;
  ConcatRowsInto(parts, &out);
  return out;
}

void GatherRowsInto(const Matrix& table, std::span<const int> row_ids,
                    Matrix* out) {
  out->EnsureShape(static_cast<int>(row_ids.size()), table.cols());
  for (size_t i = 0; i < row_ids.size(); ++i) {
    const int id = row_ids[i];
    GROUPSA_CHECK(id >= 0 && id < table.rows(), "GatherRows id out of range");
    out->SetRow(static_cast<int>(i), table.RowPtr(id));
  }
}

}  // namespace groupsa::tensor
