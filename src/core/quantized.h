#ifndef GROUPSA_CORE_QUANTIZED_H_
#define GROUPSA_CORE_QUANTIZED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace groupsa::core {

// Candidate-scan precision for the Recommend* entry points. kExact scores
// every candidate through the FP32 towers; kInt8 scans candidates with the
// symmetric per-row int8 scheme below and re-ranks the top Int8Config::
// rerank_k survivors through the exact FP32 path, so the returned scores
// always carry exact-path bits (computed over the dequantized cached
// representation). Scorers (ScoreItemsFor*) are unaffected by the mode.
enum class ScoreMode {
  kExact,
  kInt8,
};

struct Int8Config {
  // Survivors of the int8 candidate scan that are re-scored through the
  // exact FP32 path; the final top-k comes out of this re-rank. Larger
  // values close the approximation gap at linear extra exact-scoring cost.
  int rerank_k = 256;
};

// Symmetric per-row int8 quantization: q = round(x / scale) clamped to
// [-127, 127] with scale = maxabs(row) / 127 and an implicit zero point of
// 0. Symmetric (scale-only) storage is what keeps a d-column row at d + 4
// bytes — 3.55x smaller than FP32 at d = 32; an asymmetric zero point would
// burn that budget for nothing, since post-tower representations are
// roughly centered. An all-zero row gets scale 0 and round-trips exactly.
// Round-trip error is bounded by scale / 2 per element (ties-away rounding
// on |x| <= maxabs).
struct QuantizedRows {
  int rows = 0;
  int cols = 0;
  std::vector<int8_t> values;  // rows x cols, row-major
  std::vector<float> scales;   // one per row

  bool empty() const { return rows == 0; }
  const int8_t* RowPtr(int r) const {
    return values.data() + static_cast<size_t>(r) * static_cast<size_t>(cols);
  }
  float scale(int r) const { return scales[static_cast<size_t>(r)]; }
  // Payload bytes (values + scales); the number behind the bytes/user
  // memory gate, so it deliberately excludes allocator slack.
  size_t MemoryBytes() const {
    return values.size() * sizeof(int8_t) + scales.size() * sizeof(float);
  }

  tensor::Matrix Dequantize() const;
};

// Quantizes one d-column row into `out` (size >= cols); returns the scale.
float QuantizeRow(const float* x, int cols, int8_t* out);

// Quantizes every row of `m` independently.
QuantizedRows QuantizeRows(const tensor::Matrix& m);

}  // namespace groupsa::core

#endif  // GROUPSA_CORE_QUANTIZED_H_
