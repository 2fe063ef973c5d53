// Scalar (baseline x86-64) variant of the shared kernel bodies. Always
// compiled; the fallback every machine can run and the reference the parity
// suite compares the SIMD variants against.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/backends/backends.h"
#include "tensor/matrix.h"

namespace groupsa::tensor::backends {
namespace scalar_impl {
#include "tensor/backends/kernels.inc"
}  // namespace scalar_impl

namespace {
bool ScalarRunnable() { return true; }
}  // namespace

const KernelBackend& ScalarBackend() {
  static const KernelBackend backend{
      "scalar",           &ScalarRunnable,
      &scalar_impl::GemmRows, &scalar_impl::AttentionLogits,
      &scalar_impl::DotInt8Rows, &scalar_impl::NearestCentroidRows};
  return backend;
}

}  // namespace groupsa::tensor::backends
