#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/string_util.h"

namespace groupsa::tensor {

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  Matrix m;
  if (rows.empty()) return m;
  const int cols = static_cast<int>(rows[0].size());
  m.Resize(static_cast<int>(rows.size()), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    GROUPSA_CHECK(static_cast<int>(rows[r].size()) == cols,
                  "FromRows requires equal-length rows");
    m.SetRow(static_cast<int>(r), rows[r].data());
  }
  return m;
}

void Matrix::Resize(int rows, int cols) {
  GROUPSA_CHECK(rows >= 0 && cols >= 0, "Matrix dims must be non-negative");
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<size_t>(rows) * cols, 0.0f);
}

void Matrix::CopyFrom(const Matrix& src) {
  rows_ = src.rows_;
  cols_ = src.cols_;
  data_.assign(src.data_.begin(), src.data_.end());
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::AddInPlace(const Matrix& other) {
  GROUPSA_CHECK(SameShape(other), "AddInPlace shape mismatch");
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::ScaleInPlace(float factor) {
  for (float& v : data_) v *= factor;
}

void Matrix::AxpyInPlace(float factor, const Matrix& other) {
  GROUPSA_CHECK(SameShape(other), "AxpyInPlace shape mismatch");
  for (size_t i = 0; i < data_.size(); ++i)
    data_[i] += factor * other.data_[i];
}

void Matrix::SetRow(int r, const float* src) {
  GROUPSA_DCHECK(r >= 0 && r < rows_, "SetRow index out of range");
  std::memcpy(RowPtr(r), src, sizeof(float) * static_cast<size_t>(cols_));
}

Matrix Matrix::Row(int r) const {
  Matrix out(1, cols_);
  out.SetRow(0, RowPtr(r));
  return out;
}

void Matrix::FillUniform(Rng* rng, float lo, float hi) {
  for (float& v : data_)
    v = static_cast<float>(rng->NextUniform(lo, hi));
}

void Matrix::FillGaussian(Rng* rng, float mean, float stddev) {
  for (float& v : data_)
    v = static_cast<float>(rng->NextGaussian(mean, stddev));
}

float Matrix::Sum() const {
  double total = 0.0;
  for (float v : data_) total += v;
  return static_cast<float>(total);
}

float Matrix::Mean() const {
  GROUPSA_CHECK(!data_.empty(), "Mean of empty matrix");
  return Sum() / static_cast<float>(data_.size());
}

float Matrix::MaxAbs() const {
  float best = 0.0f;
  for (float v : data_) best = std::max(best, std::fabs(v));
  return best;
}

float Matrix::SquaredNorm() const {
  double total = 0.0;
  for (float v : data_) total += static_cast<double>(v) * v;
  return static_cast<float>(total);
}

std::string Matrix::DebugString(int max_rows, int max_cols) const {
  std::string out = StrFormat("Matrix %dx%d [\n", rows_, cols_);
  const int show_rows = std::min(rows_, max_rows);
  const int show_cols = std::min(cols_, max_cols);
  for (int r = 0; r < show_rows; ++r) {
    out += "  ";
    for (int c = 0; c < show_cols; ++c) out += StrFormat("%9.4f ", At(r, c));
    if (show_cols < cols_) out += "...";
    out += "\n";
  }
  if (show_rows < rows_) out += "  ...\n";
  out += "]";
  return out;
}

bool AllClose(const Matrix& a, const Matrix& b, float tolerance) {
  if (!a.SameShape(b)) return false;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      if (std::fabs(a.At(r, c) - b.At(r, c)) > tolerance) return false;
    }
  }
  return true;
}

bool AllClose(RowView a, RowView b, float tolerance) {
  if (a.cols != b.cols) return false;
  for (int c = 0; c < a.cols; ++c)
    if (std::fabs(a[c] - b[c]) > tolerance) return false;
  return true;
}

bool AllClose(const Matrix& a, RowView b, float tolerance) {
  if (a.rows() != 1) return false;
  return AllClose(a.RowAt(0), b, tolerance);
}

bool AllClose(RowView a, const Matrix& b, float tolerance) {
  if (b.rows() != 1) return false;
  return AllClose(a, b.RowAt(0), tolerance);
}

}  // namespace groupsa::tensor
