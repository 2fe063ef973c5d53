#ifndef GROUPSA_TENSOR_MATRIX_H_
#define GROUPSA_TENSOR_MATRIX_H_

#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"

namespace groupsa::tensor {

// Non-owning read-only view of one matrix row: a pointer plus the column
// count. Row() returns a fresh 1 x d Matrix — a heap allocation per call —
// which is fine in tests but not in loops that only read; those take a
// RowView (Matrix::RowAt) instead. The view borrows the matrix's storage,
// so it must not outlive the matrix or survive a Resize.
struct RowView {
  const float* data = nullptr;
  int cols = 0;

  float operator[](int c) const {
    GROUPSA_DCHECK(c >= 0 && c < cols, "RowView index out of range");
    return data[c];
  }
  const float* begin() const { return data; }
  const float* end() const { return data + cols; }
};

// Dense row-major float matrix. A row vector is a 1 x d matrix; a column
// vector is d x 1. This is the single storage type underlying the autodiff
// layer; all heavy math lives in tensor/ops.h.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) { Resize(rows, cols); }
  Matrix(int rows, int cols, float fill_value) {
    Resize(rows, cols);
    Fill(fill_value);
  }
  // Builds from nested initializer data; all rows must have equal length.
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  float& At(int r, int c) {
    GROUPSA_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                   "Matrix index out of range");
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float At(int r, int c) const {
    GROUPSA_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                   "Matrix index out of range");
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float& operator()(int r, int c) { return At(r, c); }
  float operator()(int r, int c) const { return At(r, c); }

  float* RowPtr(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* RowPtr(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Resize(int rows, int cols);
  // Like Resize but skips the zero-fill when the shape already matches, in
  // which case the existing contents are left as-is. For destinations that
  // are fully overwritten anyway (copies, gathers, concats); callers that
  // need zeroed storage use Resize.
  void EnsureShape(int rows, int cols) {
    if (rows != rows_ || cols != cols_) Resize(rows, cols);
  }
  // Becomes an element-for-element copy of `src`, reusing the existing
  // storage when its capacity suffices: copying into a recycled matrix of
  // the same shape performs no allocation.
  void CopyFrom(const Matrix& src);
  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  // Element-wise in-place helpers.
  void AddInPlace(const Matrix& other);
  void ScaleInPlace(float factor);
  // this += factor * other.
  void AxpyInPlace(float factor, const Matrix& other);

  // Copies `src` (1 x cols or cols-wide row of another matrix) into row r.
  void SetRow(int r, const float* src);
  // Extracts row r as a 1 x cols matrix (allocates; test/debug use).
  Matrix Row(int r) const;
  // Borrows row r without allocating; see RowView above.
  RowView RowAt(int r) const {
    GROUPSA_DCHECK(r >= 0 && r < rows_, "RowAt index out of range");
    return RowView{RowPtr(r), cols_};
  }

  // Random fills.
  void FillUniform(Rng* rng, float lo, float hi);
  void FillGaussian(Rng* rng, float mean, float stddev);

  // Reductions.
  float Sum() const;
  float Mean() const;
  float MaxAbs() const;
  // Frobenius norm squared.
  float SquaredNorm() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // Human-readable rendering for debugging and test failure messages.
  std::string DebugString(int max_rows = 8, int max_cols = 8) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

// True when matrices have equal shape and all entries are within `tolerance`.
bool AllClose(const Matrix& a, const Matrix& b, float tolerance = 1e-5f);

// RowView comparisons (a Matrix operand must be a single row of the same
// width). Mirrors AllClose(Matrix, Matrix) for call sites migrated to views.
bool AllClose(RowView a, RowView b, float tolerance = 1e-5f);
bool AllClose(const Matrix& a, RowView b, float tolerance = 1e-5f);
bool AllClose(RowView a, const Matrix& b, float tolerance = 1e-5f);

}  // namespace groupsa::tensor

#endif  // GROUPSA_TENSOR_MATRIX_H_
