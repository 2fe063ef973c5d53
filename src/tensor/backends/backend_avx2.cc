// AVX2 variant of the shared kernel bodies: this TU compiles with -mavx2
// -mno-fma -ffp-contract=off (see src/CMakeLists.txt), so the identical
// scalar C++ auto-vectorizes to 8-wide float lanes without FMA contraction;
// the nearest-centroid kernel takes its AVX2 intrinsics body. Selected at
// runtime only when CPUID reports AVX2.

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/backends/backends.h"
#include "tensor/matrix.h"

namespace groupsa::tensor::backends {
namespace avx2_impl {
#include "tensor/backends/kernels.inc"
}  // namespace avx2_impl

namespace {
bool Avx2Runnable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}
}  // namespace

const KernelBackend& Avx2Backend() {
  static const KernelBackend backend{
      "avx2",           &Avx2Runnable,
      &avx2_impl::GemmRows, &avx2_impl::AttentionLogits,
      &avx2_impl::DotInt8Rows, &avx2_impl::NearestCentroidRows};
  return backend;
}

}  // namespace groupsa::tensor::backends
