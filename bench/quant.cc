// Kernel-backend benchmark: times every compiled-and-runnable dispatch
// backend (scalar, and avx2/avx512 when present) on the four kernels in
// the dispatch table — the GEMM row kernel at a serving-shaped problem, the
// fused attention-logit loop at the model's hidden widths, the int8 row
// dot over a catalog-sized table, and the k-means nearest-centroid step at
// the GEMM's shape (rows x d against nlist = n centroids). Every timed output is byte-compared
// against the scalar backend's first (the bit-identity contract from
// tensor/backend.h); the driver exits non-zero on any divergence, so a
// recorded speedup always describes bit-identical arithmetic.
//
// Flags: --quick        (shrink problem sizes and repetition counts)
//        --json=path    (machine-readable record, see tools/bench.sh)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "tensor/backend.h"
#include "tensor/matrix.h"

using namespace groupsa;
using tensor::KernelBackend;
using tensor::Matrix;

namespace {

struct Flags {
  bool quick = false;
  std::string json;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      f.quick = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      f.json = arg + 7;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
  }
  return f;
}

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillGaussian(&rng, 0.0f, 1.0f);
  return m;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.rows()) *
                         static_cast<size_t>(a.cols())) == 0;
}

struct BackendResult {
  const char* name;
  double gemm_ms = 0.0;       // one full GEMM pass, best-of-reps
  double attention_ms = 0.0;  // one attention-logit pass
  double dot_i8_ms = 0.0;     // one catalog-sized int8 dot pass
  double nearest_ms = 0.0;    // one nearest-centroid pass over the rows
  bool parity = true;         // byte-identical to scalar on every kernel
  bool nearest_parity = true; // the nearest-centroid kernel alone
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  // Serving-shaped problems: the catalog scan is (items x d) * (d x d)-ish
  // work, attention runs at the model's h = 32 over member lists, and the
  // int8 dot scans a full quantized catalog per query.
  const int gemm_m = flags.quick ? 256 : 2048;
  const int gemm_k = 32;
  const int gemm_n = flags.quick ? 64 : 256;
  const int att_c = flags.quick ? 64 : 512;  // candidates
  const int att_l = 8;                       // members
  const int att_h = 32;                      // model hidden width
  // The nearest-centroid step runs at the GEMM's shape: gemm_m rows of
  // width gemm_k against gemm_n centroids (the columns of gemm_b).
  const int dot_rows = flags.quick ? 10000 : 200000;
  const int dot_d = 32;
  const int reps = flags.quick ? 3 : 10;

  const Matrix gemm_a = RandomMatrix(gemm_m, gemm_k, 11);
  const Matrix gemm_b = RandomMatrix(gemm_k, gemm_n, 22);
  std::vector<double> half_sqnorms(static_cast<size_t>(gemm_n), 0.0);
  for (int j = 0; j < gemm_n; ++j) {
    for (int k = 0; k < gemm_k; ++k) {
      const double c = static_cast<double>(gemm_b.At(k, j));
      half_sqnorms[static_cast<size_t>(j)] += 0.5 * c * c;
    }
  }

  const int att_rows = att_c + 3;
  const Matrix att_prefix = RandomMatrix(att_rows, att_h, 33);
  const Matrix att_addends = RandomMatrix(att_l + 2, att_h, 44);
  const Matrix att_hb = RandomMatrix(1, att_h, 55);
  const Matrix att_wout = RandomMatrix(1, att_h, 66);
  std::vector<int> att_ids(static_cast<size_t>(att_c));
  for (int t = 0; t < att_c; ++t)
    att_ids[static_cast<size_t>(t)] = (t * 7 + 3) % att_rows;
  std::vector<int> nz;
  std::vector<int> nz_begin{0};
  for (int i = 0; i < att_l; ++i) {
    for (int j = 0; j <= i % 3; ++j) nz.push_back((i + j) % (att_l + 2));
    nz_begin.push_back(static_cast<int>(nz.size()));
  }

  Rng rng(77);
  std::vector<int8_t> dot_q(static_cast<size_t>(dot_d));
  std::vector<int8_t> dot_table(static_cast<size_t>(dot_rows) *
                                static_cast<size_t>(dot_d));
  for (int8_t& v : dot_q)
    v = static_cast<int8_t>(static_cast<int>(rng.NextU64() % 255) - 127);
  for (int8_t& v : dot_table)
    v = static_cast<int8_t>(static_cast<int>(rng.NextU64() % 255) - 127);

  std::printf("bench_quant: host features [%s], active backend %s\n",
              tensor::DetectedCpuFeatures().c_str(),
              tensor::ActiveBackendName());
  std::printf(
      "  gemm %dx%dx%d, attention c=%d l=%d h=%d, int8 dot %d rows x d=%d, "
      "nearest centroid %d rows x d=%d x nlist=%d, best of %d reps\n",
      gemm_m, gemm_k, gemm_n, att_c, att_l, att_h, dot_rows, dot_d, gemm_m,
      gemm_k, gemm_n, reps);

  std::vector<BackendResult> results;
  Matrix gemm_ref, att_ref;
  std::vector<int32_t> dot_ref;
  std::vector<int> nearest_ref;
  bool all_parity = true;
  bool nearest_parity = true;

  for (const KernelBackend* backend : tensor::CompiledBackends()) {
    if (!backend->runnable()) {
      std::printf("  %-7s compiled but not runnable on this host; skipped\n",
                  backend->name);
      continue;
    }
    BackendResult r;
    r.name = backend->name;

    Matrix gemm_out(gemm_m, gemm_n);
    Matrix att_out(att_c, att_l);
    std::vector<int32_t> dot_out(static_cast<size_t>(dot_rows));
    std::vector<int> nearest_out(static_cast<size_t>(gemm_m));
    Stopwatch sw;
    double best;

    best = 1e30;
    for (int i = 0; i < reps; ++i) {
      gemm_out.Fill(0.0f);
      sw.Reset();
      backend->gemm_rows(gemm_a, false, gemm_b, false, 1.0f, &gemm_out,
                         gemm_k, gemm_n, 0, gemm_m);
      best = std::min(best, sw.ElapsedSeconds());
    }
    r.gemm_ms = best * 1000.0;

    best = 1e30;
    for (int i = 0; i < reps; ++i) {
      sw.Reset();
      backend->attention_logits(att_prefix, att_ids.data(), att_c, att_l,
                                att_h, att_addends, nz, nz_begin,
                                att_hb.data(), att_wout.data(), true, 0.125f,
                                &att_out);
      best = std::min(best, sw.ElapsedSeconds());
    }
    r.attention_ms = best * 1000.0;

    best = 1e30;
    for (int i = 0; i < reps; ++i) {
      sw.Reset();
      backend->dot_i8_rows(dot_q.data(), dot_table.data(), nullptr, dot_rows,
                           dot_d, dot_out.data());
      best = std::min(best, sw.ElapsedSeconds());
    }
    r.dot_i8_ms = best * 1000.0;

    best = 1e30;
    for (int i = 0; i < reps; ++i) {
      sw.Reset();
      backend->nearest_centroid_rows(gemm_a, gemm_b, half_sqnorms.data(), 0,
                                     gemm_m, nearest_out.data());
      best = std::min(best, sw.ElapsedSeconds());
    }
    r.nearest_ms = best * 1000.0;

    if (results.empty()) {
      gemm_ref = gemm_out;
      att_ref = att_out;
      dot_ref = dot_out;
      nearest_ref = nearest_out;
    } else {
      r.nearest_parity = nearest_ref == nearest_out;
      r.parity = BitIdentical(gemm_ref, gemm_out) &&
                 BitIdentical(att_ref, att_out) &&
                 std::memcmp(dot_ref.data(), dot_out.data(),
                             dot_out.size() * sizeof(int32_t)) == 0 &&
                 r.nearest_parity;
      nearest_parity = nearest_parity && r.nearest_parity;
      all_parity = all_parity && r.parity;
    }

    std::printf(
        "  %-7s gemm %8.3f ms  attention %8.3f ms  int8 dot %8.3f ms  "
        "nearest %8.3f ms  parity %s\n",
        r.name, r.gemm_ms, r.attention_ms, r.dot_i8_ms, r.nearest_ms,
        r.parity ? "ok" : "DIVERGED");
    results.push_back(r);
  }

  if (!flags.json.empty()) {
    FILE* out = std::fopen(flags.json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
      return 2;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"quant\",\n"
                 "  \"schema\": 1,\n"
                 "  \"host_features\": \"%s\",\n"
                 "  \"active_backend\": \"%s\",\n"
                 "  \"gemm\": {\"m\": %d, \"k\": %d, \"n\": %d},\n"
                 "  \"attention\": {\"c\": %d, \"l\": %d, \"h\": %d},\n"
                 "  \"dot_i8\": {\"rows\": %d, \"d\": %d},\n"
                 "  \"nearest\": {\"rows\": %d, \"d\": %d, \"nlist\": %d},\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"nearest_bit_identical\": %s,\n"
                 "  \"backends\": [\n",
                 tensor::DetectedCpuFeatures().c_str(),
                 tensor::ActiveBackendName(), gemm_m, gemm_k, gemm_n, att_c,
                 att_l, att_h, dot_rows, dot_d, gemm_m, gemm_k, gemm_n,
                 all_parity ? "true" : "false",
                 nearest_parity ? "true" : "false");
    for (size_t i = 0; i < results.size(); ++i) {
      const BackendResult& r = results[i];
      const BackendResult& s = results[0];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"gemm_ms\": %.4f, "
                   "\"attention_ms\": %.4f, \"dot_i8_ms\": %.4f, "
                   "\"nearest_ms\": %.4f, "
                   "\"gemm_speedup_vs_scalar\": %.3f, "
                   "\"dot_i8_speedup_vs_scalar\": %.3f, "
                   "\"nearest_speedup_vs_scalar\": %.3f}%s\n",
                   r.name, r.gemm_ms, r.attention_ms, r.dot_i8_ms,
                   r.nearest_ms,
                   r.gemm_ms > 0.0 ? s.gemm_ms / r.gemm_ms : 0.0,
                   r.dot_i8_ms > 0.0 ? s.dot_i8_ms / r.dot_i8_ms : 0.0,
                   r.nearest_ms > 0.0 ? s.nearest_ms / r.nearest_ms : 0.0,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }

  if (!all_parity) {
    std::fprintf(stderr, "FATAL: a backend diverged from scalar\n");
    return 1;
  }
  return 0;
}
