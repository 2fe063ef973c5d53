#ifndef GROUPSA_TENSOR_BACKEND_H_
#define GROUPSA_TENSOR_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/matrix.h"

namespace groupsa::tensor {

// Runtime kernel dispatch.
//
// The hot compute kernels — the GEMM row kernel, the fused attention-logit
// loop, the int8 row-dot and the k-means nearest-centroid step — are
// compiled once per ISA into separate translation units
// (tensor/backends/backend_{scalar,avx2,avx512}.cc, each including the same
// kernel bodies from tensor/backends/kernels.inc with that ISA's compile
// flags), and one variant is selected by CPUID at startup. This replaces
// the old scheme of compiling tensor/ops.cc itself with host SIMD flags,
// which produced binaries that crashed on narrower machines than the build
// host.
//
// Bit-exactness contract: every backend returns BIT-IDENTICAL results.
// Vector width only changes how many independent output columns are
// processed per instruction, never the order in which any single element
// accumulates its terms, and all backend TUs compile with -mno-fma
// -ffp-contract=off so no variant fuses a multiply-add into a single
// rounding. The int8 dot is integer arithmetic and exact everywhere.
// tests/tensor/backend_test.cc runs every compiled backend against the
// scalar reference and enforces the contract.
//
// Hidden widths up to kMaxFusedHidden use the fused attention-logit kernel
// (stack accumulator); the inference engine routes wider configs through
// its buffered Gemm fallback.
constexpr int kMaxFusedHidden = 128;

struct KernelBackend {
  const char* name;  // "scalar" | "avx2" | "avx512"
  // True when the host CPU can execute this backend's instructions.
  bool (*runnable)();
  // Output rows [row_begin, row_end) of out = alpha * op(a) * op(b), with
  // out pre-seeded (the accumulate path) or zeroed by the caller. See the
  // kernel commentary in tensor/backends/kernels.inc.
  void (*gemm_rows)(const Matrix& a, bool transpose_a, const Matrix& b,
                    bool transpose_b, float alpha, Matrix* out, int k, int n,
                    int row_begin, int row_end);
  // Fused attention logits for `c` items x `l` members at hidden width `h`
  // (h <= kMaxFusedHidden); dispatches internally to the fixed-width
  // instantiations for the model's layer widths. Semantics documented at
  // the kernel definition in tensor/backends/kernels.inc.
  void (*attention_logits)(const Matrix& prefix, const int* ids, int c, int l,
                           int h, const Matrix& addends,
                           const std::vector<int>& nz,
                           const std::vector<int>& nz_begin, const float* hb,
                           const float* wout, bool has_ob, float out_b,
                           Matrix* out);
  // int8 x int8 -> int32 row dots: out[r] = sum_j q[j] * row_r[j] where
  // row_r = table + (ids != nullptr ? ids[r] : r) * d. Accumulation is
  // exact in int32 for every d this model uses (|sum| <= 127*127*d).
  void (*dot_i8_rows)(const int8_t* q, const int8_t* table, const int* ids,
                      int rows, int d, int32_t* out);
  // The k-means nearest-centroid step over rows [row_begin, row_end) of x
  // (rows x d): out[r] = the first j maximising double(x_r·c_j) - half[j],
  // with c_j column j of centroids_t (d x nlist, nlist >= 1) and each dot
  // Gemm's float chain. Ties go to the lowest j, NaN included: the index is
  // the one a scalar strict-> scan from j = 0 returns. Semantics documented
  // at the kernel definition in tensor/backends/kernels.inc.
  void (*nearest_centroid_rows)(const Matrix& x, const Matrix& centroids_t,
                                const double* half, int row_begin,
                                int row_end, int* out);
};

// Every backend compiled into this binary, scalar first, then ascending
// vector width. Scalar is always present; avx2/avx512 are present when the
// toolchain supported their flags and GROUPSA_SIMD_KERNELS was ON.
const std::vector<const KernelBackend*>& CompiledBackends();

// The selected backend. The first call selects and logs: the
// GROUPSA_KERNEL_BACKEND env override when set (a CHECK failure names the
// runnable backends if the override is unknown or the host cannot run it),
// otherwise the widest runnable backend.
const KernelBackend& ActiveBackend();

// Name of the selected backend ("scalar" | "avx2" | "avx512").
const char* ActiveBackendName();

// Host ISA summary for the startup log ("sse2 avx2 avx512f" on a full
// AVX-512 machine).
std::string DetectedCpuFeatures();

// Selects a backend by name. Returns false (and changes nothing) when the
// name is unknown, the backend is not compiled in, or the host cannot run
// it. Setup-time call: must not race with in-flight kernels.
bool SelectBackendByName(const std::string& name);

// Test hook: forces `backend` (nullptr restores the automatic choice).
void SetBackendForTest(const KernelBackend* backend);

}  // namespace groupsa::tensor

#endif  // GROUPSA_TENSOR_BACKEND_H_
