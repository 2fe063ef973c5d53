#!/usr/bin/env bash
# Performance benchmark entry point: builds and runs the timing drivers and
# records their machine-readable results at the repo root.
#
#   bench_inference -> BENCH_inference.json  (full-catalog scoring: per-item
#                      reference path vs the batched InferenceEngine)
#   bench_training  -> BENCH_training.json   (two-stage Fit with the tensor
#                      pool on vs off, at one and four threads)
#   bench_quant     -> BENCH_quant.json      (per-kernel timings for every
#                      compiled dispatch backend, byte-compared against
#                      scalar before any number is recorded)
#
# Every driver re-verifies its bit-identity contract on every run and exits
# non-zero on any divergence, so a recorded number always describes
# bit-identical results. The serving daemon is measured by the repo
# benchmark, perfbench/run.py.
#
# Usage: tools/bench.sh [inference|training|quant|all] [extra flags...]
#        (extra flags are forwarded to the selected driver; the inference
#         defaults below match the acceptance setup: 2000-item catalog,
#         single thread)

set -euo pipefail
cd "$(dirname "$0")/.."

TARGET="${1:-all}"
if [ $# -gt 0 ]; then shift; fi

# Configure only when the build tree does not exist yet (standalone lanes
# reuse a developer's existing configuration).
if [ ! -f build/CMakeCache.txt ]; then
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build build -j "$(nproc)" \
  --target bench_inference bench_training bench_quant

if [ "${TARGET}" = "inference" ] || [ "${TARGET}" = "all" ]; then
  ./build/bench/bench_inference \
    --items=2000 --groups=20 --users=40 --threads=1 --sweep \
    --json=BENCH_inference.json "$@"
  echo "wrote BENCH_inference.json"
fi

if [ "${TARGET}" = "training" ] || [ "${TARGET}" = "all" ]; then
  ./build/bench/bench_training --json=BENCH_training.json "$@"
  echo "wrote BENCH_training.json"
fi

if [ "${TARGET}" = "quant" ] || [ "${TARGET}" = "all" ]; then
  ./build/bench/bench_quant --json=BENCH_quant.json "$@"
  echo "wrote BENCH_quant.json"
fi
