#ifndef GROUPSA_TENSOR_OPS_H_
#define GROUPSA_TENSOR_OPS_H_

#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace groupsa::tensor {

// BLAS-lite kernels over Matrix. All functions CHECK shape compatibility.
// Accumulating variants (`beta`-style) are expressed via the `accumulate`
// flag: when true, the destination is added into instead of overwritten.

// out = alpha * op(a) * op(b) (+ out if accumulate). op is transpose when the
// corresponding flag is set. Large products are tiled over output rows across
// the global thread pool; because each output row is produced by the same
// inner-loop order as the serial kernel, results are bit-identical to
// GemmSerial at any thread count.
void Gemm(const Matrix& a, bool transpose_a, const Matrix& b, bool transpose_b,
          float alpha, Matrix* out, bool accumulate = false);

// Single-threaded reference kernel with identical semantics to Gemm. Used as
// the parity baseline in tests and benchmarks; Gemm dispatches here below the
// parallel size cutoff.
void GemmSerial(const Matrix& a, bool transpose_a, const Matrix& b,
                bool transpose_b, float alpha, Matrix* out,
                bool accumulate = false);

// Returns the transpose of `a`.
Matrix Transpose(const Matrix& a);

// Concatenates matrices top-to-bottom (equal col counts).
Matrix ConcatRows(const std::vector<const Matrix*>& parts);

// Adds row vector `bias` (1 x cols) to every row of `a` in place.
void AddRowBroadcastInPlace(Matrix* a, const Matrix& bias);

// Destination kernels, for callers that recycle output storage (the
// tensor pool, autograd/pool.h, and the engine's workspaces); Transpose and
// ConcatRows above run on their Into forms, so both give the same bits.
// `out` is reshaped without reallocation when its capacity suffices and
// fully overwritten (SumRowsInto zeroes it first, as its accumulation
// requires). `out` must not alias an input.
void TransposeInto(const Matrix& a, Matrix* out);
// Element-wise product.
void HadamardInto(const Matrix& a, const Matrix& b, Matrix* out);
// Sums the rows of `a` into a 1 x cols vector.
void SumRowsInto(const Matrix& a, Matrix* out);
// Concatenates matrices left-to-right (equal row counts).
void ConcatColsInto(const std::vector<const Matrix*>& parts, Matrix* out);
void ConcatRowsInto(const std::vector<const Matrix*>& parts, Matrix* out);
// Gathers rows of `table`, one output row per id (CHECKed in range).
void GatherRowsInto(const Matrix& table, std::span<const int> row_ids,
                    Matrix* out);

// Numerically stable in-place softmax over each row. Entries equal to
// -infinity are treated as masked out (weight exactly 0). Rows that are fully
// masked except for at most self entries must contain at least one finite
// entry; this is CHECKed.
void SoftmaxRowsInPlace(Matrix* a);

}  // namespace groupsa::tensor

#endif  // GROUPSA_TENSOR_OPS_H_
