// AVX-512 variant of the shared kernel bodies: this TU compiles with
// -mavx512f -mavx2 -mno-fma -mprefer-vector-width=512 -ffp-contract=off
// (see src/CMakeLists.txt), so the identical scalar C++ auto-vectorizes to
// 16-wide float lanes without FMA contraction; the nearest-centroid kernel
// takes its AVX-512 intrinsics body. Selected at runtime only when CPUID
// reports AVX-512F.

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/backends/backends.h"
#include "tensor/matrix.h"

namespace groupsa::tensor::backends {
namespace avx512_impl {
#include "tensor/backends/kernels.inc"
}  // namespace avx512_impl

namespace {
bool Avx512Runnable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0;
}
}  // namespace

const KernelBackend& Avx512Backend() {
  static const KernelBackend backend{
      "avx512",           &Avx512Runnable,
      &avx512_impl::GemmRows, &avx512_impl::AttentionLogits,
      &avx512_impl::DotInt8Rows, &avx512_impl::NearestCentroidRows};
  return backend;
}

}  // namespace groupsa::tensor::backends
