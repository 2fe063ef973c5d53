#include "core/quantized.h"

#include <algorithm>
#include <cmath>

namespace groupsa::core {

float QuantizeRow(const float* x, int cols, int8_t* out) {
  float maxabs = 0.0f;
  for (int j = 0; j < cols; ++j) maxabs = std::max(maxabs, std::fabs(x[j]));
  if (maxabs == 0.0f) {
    for (int j = 0; j < cols; ++j) out[j] = 0;
    return 0.0f;
  }
  const float scale = maxabs / 127.0f;
  // Divide in double so the forward rounding error stays well inside the
  // half-step bound the tests pin; the clamp only fires on the row max when
  // the division rounds up to just past 127.
  const double inv = 1.0 / static_cast<double>(scale);
  for (int j = 0; j < cols; ++j) {
    const long q = std::lround(static_cast<double>(x[j]) * inv);
    out[j] = static_cast<int8_t>(std::clamp<long>(q, -127, 127));
  }
  return scale;
}

QuantizedRows QuantizeRows(const tensor::Matrix& m) {
  QuantizedRows q;
  q.rows = m.rows();
  q.cols = m.cols();
  q.values.resize(static_cast<size_t>(q.rows) * static_cast<size_t>(q.cols));
  q.scales.resize(static_cast<size_t>(q.rows));
  for (int r = 0; r < q.rows; ++r) {
    q.scales[static_cast<size_t>(r)] = QuantizeRow(
        m.RowPtr(r), q.cols,
        q.values.data() + static_cast<size_t>(r) * static_cast<size_t>(q.cols));
  }
  return q;
}

tensor::Matrix QuantizedRows::Dequantize() const {
  tensor::Matrix out(rows, cols);
  for (int r = 0; r < rows; ++r) {
    const int8_t* src = RowPtr(r);
    const float s = scale(r);
    float* dst = out.RowPtr(r);
    for (int j = 0; j < cols; ++j) dst[j] = static_cast<float>(src[j]) * s;
  }
  return out;
}

}  // namespace groupsa::core
