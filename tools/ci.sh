#!/usr/bin/env bash
# CI entry point, organised as standalone lanes. Each lane configures its own
# build tree if (and only if) it is missing, so any lane can run in isolation
# on a fresh checkout:
#
#   plain         Release build + the full tier-1 ctest suite
#   lint          determinism + lock-discipline linter over src/ (zero
#                 findings required)
#   locks         concurrency-contract gates: lock lint, the DebugMutex
#                 lockdep suite under TSan, clang -Wthread-safety when clang
#                 is installed (visible skip otherwise), and the release
#                 zero-overhead bench gate
#   tidy          clang-tidy over src/ (visible skip when not installed)
#   bench         inference + training bench smokes (bit-parity gates)
#   serving       serving bench smoke (pipeline-vs-engine 0-ULP parity gate)
#   crash         crash-resume determinism gate (SIGKILL mid-training, resume,
#                 byte-compare) at pool widths 1 and 4
#   serve-golden  serve-mode golden gate (train -> checkpoint -> scripted
#                 daemon run, byte-compared at 1x1 vs 4x4 workers/threads)
#                 plus the crash-during-reload gate (SIGKILL mid-swap, restart
#                 from the last good checkpoint), the bad-numeric-flag
#                 gate (exit 1 naming the flag, never an abort) and the
#                 bad-script-number gate (reported, never served)
#   index         IVF retrieval gates: nprobe=nlist exact-parity (0-ULP vs
#                 kExact), the pinned retrieval-plan top-10 digests,
#                 recall@10 on the seeded world, the pinned
#                 centroid/assignment digests of fixed builds, and the full
#                 ItemIndex suite under ASan
#   quant         kernel-dispatch + int8 gates: backend parity suite, the
#                 int8 ranking-quality/memory gates and retrieval-plan
#                 digests, cross-backend training
#                 checkpoints byte-identical at 1 and 4 threads (every
#                 runnable backend via GROUPSA_KERNEL_BACKEND), and the
#                 quantized suites under ASan
#   chaos         resilience gates: the seeded chaos soak (byte-identical
#                 transcripts at 1x1 vs 4x4 workers/threads, extended
#                 conservation, breaker trip + recovery) and the resilience
#                 suite, each under both TSan and ASan
#   asan          fault-labelled tests, tensor-pool, checkpoint, grad-shard,
#                 flat Top-H list, top-K selector and serving suites under
#                 ASan
#   tsan          race-labelled tests (thread pool, trainer shards, serving
#                 stress/soak) under TSan
#   ubsan         full suite under UBSan with recovery disabled
#   perfbench     the repo benchmark's own Release project (perfbench/, built
#                 in .bench_build/perfbench like run.py builds it): its
#                 measurement unit test and the quick smoke run of every
#                 workload, traced and untraced, with the parity, digest
#                 and conservation checks
#
# A lane or step that cannot run here (a missing tool) is recorded with
# skip_check, and the run ends with one "NOT VERIFIED: <lane/step>" line
# per skip before "CI OK", so a green run never hides a check that did not
# happen. Skips do not change the exit status.
#
# Usage: tools/ci.sh [jobs] [lane ...]     (default: nproc jobs, all lanes)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
if [ $# -gt 0 ] && [[ "$1" =~ ^[0-9]+$ ]]; then
  JOBS="$1"
  shift
fi
LANES=("$@")
if [ ${#LANES[@]} -eq 0 ]; then
  LANES=(plain lint locks tidy bench serving crash serve-golden index quant
         chaos asan tsan ubsan perfbench)
fi

# Configure a build tree only when its cache does not exist yet, so a lane
# reuses whatever an earlier lane (or the developer) already configured.
ensure_build() {
  local dir="$1"
  shift
  if [ ! -f "${dir}/CMakeCache.txt" ]; then
    cmake -B "${dir}" -S . "$@"
  fi
}

# Checks that did not run, for the closing summary.
NOT_VERIFIED=()
skip_check() {
  local check="$1" reason="$2"
  echo "SKIPPED: ${check} (${reason})"
  NOT_VERIFIED+=("${check}")
}

TMP_DIRS=()
cleanup() {
  # `[ -n ... ] && rm` would leave the trap (and so the script) with exit
  # status 1 when a lane created no temp dirs; an explicit if does not.
  for dir in "${TMP_DIRS[@]:-}"; do
    if [ -n "${dir}" ]; then rm -rf "${dir}"; fi
  done
}
trap cleanup EXIT

lane_plain() {
  echo "=== plain build ==="
  ensure_build build -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}"
  echo "=== plain ctest (full tier-1 suite) ==="
  ctest --test-dir build --output-on-failure -j "${JOBS}"
}

lane_lint() {
  echo "=== lint lane (determinism + lock-discipline linter over src/) ==="
  # Zero findings required; reviewed exceptions live in tools/lint_allow.txt
  # and stale allowlist entries are findings themselves (--prune-stale
  # rewrites the list instead of failing).
  ensure_build build -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}" --target groupsa_lint
  ./build/tools/groupsa_lint --allowlist tools/lint_allow.txt src/
}

lane_locks() {
  echo "=== locks lane (lock-discipline lint over src/) ==="
  # The lint lane already runs these rules too (groupsa_lint is one pass);
  # repeating them here keeps the locks lane self-contained when run alone.
  ensure_build build -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}" --target groupsa_lint
  ./build/tools/groupsa_lint --allowlist tools/lint_allow.txt src/

  echo "=== locks lane (DebugMutex lockdep suite under TSan) ==="
  # The sanitizer tree forces GROUPSA_DEBUG_MUTEX_FORCE on, so the detector
  # is live even though the tree builds with NDEBUG; the suite would
  # visibly self-skip in a tree where it is not.
  ensure_build build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPSA_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}"
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
    -R 'DebugMutex'

  echo "=== locks lane (clang -Wthread-safety static check) ==="
  # The textual lock lint approximates what clang's thread-safety analysis
  # proves semantically from the same GROUPSA_* annotations; when a clang is
  # available, run the real thing over every annotated translation unit.
  # The image ships gcc only, so this degrades to a visible skip.
  if command -v clang++ > /dev/null 2>&1; then
    local tu
    for tu in src/common/debug_mutex.cc src/common/thread_pool.cc \
              src/common/failpoint.cc src/serve/circuit_breaker.cc \
              src/serve/server.cc src/core/inference_engine.cc; do
      echo "--- clang++ -Wthread-safety ${tu} ---"
      # No SIMD flags needed: intrinsics are confined to the per-ISA TUs
      # under src/tensor/backends/ (enforced by the simd-confined lint rule).
      clang++ -std=c++20 -fsyntax-only -Isrc \
        -Wthread-safety -Werror=thread-safety "${tu}"
    done
  else
    skip_check "locks/clang -Wthread-safety" "clang++ not installed"
  fi

  echo "=== locks lane (release zero-overhead gate: bench_serving --quick) ==="
  # Release DebugMutex must be a bare std::mutex (static_assert'd for
  # layout); this bench run gates the behavioral half — steady QPS/p50 and
  # the 0-ULP parity checks on the serving hot path, where every request
  # crosses the queue, slot and breaker locks.
  cmake --build build -j "${JOBS}" --target bench_serving
  ./build/bench/bench_serving --quick
}

lane_tidy() {
  echo "=== clang-tidy lane ==="
  # The image ships gcc only; when clang-tidy is absent the lane degrades to
  # a visible skip rather than silently passing.
  if command -v clang-tidy > /dev/null 2>&1; then
    ensure_build build -DCMAKE_BUILD_TYPE=Release
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
    git ls-files 'src/*.cc' | xargs clang-tidy -p build --quiet
  else
    skip_check "tidy" "clang-tidy not installed"
  fi
}

lane_bench() {
  ensure_build build -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}" --target bench_inference bench_training
  echo "=== inference bench smoke (0-ULP parity gate) ==="
  # --quick caps the catalog; the run still exits non-zero if the batched
  # engine's scores are not bit-identical to the per-item reference.
  ./build/bench/bench_inference --quick
  echo "=== training bench smoke (pooled/unpooled parity gate) ==="
  # --quick caps the world and schedule; the run still exits non-zero if
  # pooled training's parameters are not byte-identical to unpooled's, at
  # one and four threads.
  ./build/bench/bench_training --quick
}

lane_serving() {
  echo "=== serving bench smoke (pipeline parity + overload paths) ==="
  # --quick trims the request counts; the run still exits non-zero if the
  # concurrent pipeline's responses are not bit-identical to direct
  # InferenceEngine calls.
  ensure_build build -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}" --target bench_serving
  ./build/bench/bench_serving --quick
}

lane_crash() {
  echo "=== crash-resume determinism gate ==="
  # Train the tiny world to completion, then repeat the run with a failpoint
  # that SIGKILLs the process mid-schedule, resume from the surviving
  # snapshot and require the final model checkpoint AND the final training
  # snapshot (parameters + Adam moments + RNG stream) to be byte-identical
  # to the uninterrupted run's — at pool widths 1 and 4.
  ensure_build build -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}" --target groupsa_cli
  local crash_dir
  crash_dir="$(mktemp -d)"
  TMP_DIRS+=("${crash_dir}")
  ./build/tools/groupsa_cli generate --out "${crash_dir}" --preset tiny \
    > /dev/null
  for threads in 1 4; do
    echo "--- crash-resume @ ${threads} thread(s) ---"
    local ref="${crash_dir}/ref_t${threads}"
    local crash="${crash_dir}/crash_t${threads}"
    ./build/tools/groupsa_cli train --data "${crash_dir}" --epochs 2 \
      --threads "${threads}" --model "${ref}.ckpt" \
      --snapshot "${ref}.snap" --snapshot_every 1 > /dev/null
    # The killed run must actually die by SIGKILL (shell exit code 137).
    set +e
    GROUPSA_FAILPOINTS="trainer.batch=kill@7" \
      ./build/tools/groupsa_cli train --data "${crash_dir}" --epochs 2 \
        --threads "${threads}" --model "${crash}.ckpt" \
        --snapshot "${crash}.snap" --snapshot_every 1 > /dev/null 2>&1
    local kill_rc=$?
    set -e
    if [ "${kill_rc}" -ne 137 ]; then
      echo "FAIL: killed run exited with ${kill_rc}, expected SIGKILL (137)" >&2
      exit 1
    fi
    ./build/tools/groupsa_cli train --data "${crash_dir}" --epochs 2 \
      --threads "${threads}" --model "${crash}.ckpt" \
      --snapshot "${crash}.snap" --snapshot_every 1 --resume > /dev/null
    cmp "${ref}.ckpt" "${crash}.ckpt"
    cmp "${ref}.snap" "${crash}.snap"
  done
  echo "crash-resume gate OK"
}

lane_serve_golden() {
  ensure_build build -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}" --target groupsa_cli groupsa_serve
  local serve_dir
  serve_dir="$(mktemp -d)"
  TMP_DIRS+=("${serve_dir}")
  ./build/tools/groupsa_cli generate --out "${serve_dir}" --preset tiny \
    > /dev/null
  ./build/tools/groupsa_cli train --data "${serve_dir}" --epochs 1 \
    --model "${serve_dir}/model.ckpt" > /dev/null

  echo "=== serve-mode golden gate (1x1 vs 4x4 workers/threads) ==="
  # The same scripted session must render byte-identical responses at any
  # worker or thread width; only the "<request> -> <response>" lines are
  # compared (the banner prints the width).
  cat > "${serve_dir}/session.txt" <<'EOF'
user 3 5 x
user 17 8
group 7 5
group 21 3 x
members 1,2,3 4 x
members 40,41 6
reload
user 3 5 x
group 7 5
stats
quit
EOF
  for mode in "1 1" "4 4"; do
    read -r workers threads <<< "${mode}"
    ./build/tools/groupsa_serve --data "${serve_dir}" \
      --model "${serve_dir}/model.ckpt" --workers "${workers}" \
      --threads "${threads}" --strict --script "${serve_dir}/session.txt" \
      | grep ' -> ' > "${serve_dir}/golden_w${workers}_t${threads}.txt"
  done
  cmp "${serve_dir}/golden_w1_t1.txt" "${serve_dir}/golden_w4_t4.txt"
  echo "serve-mode golden gate OK"

  echo "=== serve flag gate (bad numeric flags exit 1, never abort) ==="
  # Each line: the flag the error must name, then the arguments. These
  # values would otherwise reach a CHECK in the Server or CircuitBreaker
  # constructor and abort with exit 134, or run silently wrong (a training
  # run of the wrong length, a request the daemon would reject). Arguments
  # that start with a groupsa_cli command run groupsa_cli; the rest run
  # groupsa_serve. Rows that name the same flag write the same
  # flag_err_<flag>.txt, so the check after the loop reads the last
  # `members` row's stderr.
  local flag args rc
  while read -r flag args; do
    set +e
    # shellcheck disable=SC2086  # $args is a word list on purpose
    case "${args}" in
      train\ *)
        ./build/tools/groupsa_cli ${args} --data "${serve_dir}" \
          --model "${serve_dir}/flag_model.ckpt" ;;
      recommend\ *)
        ./build/tools/groupsa_cli ${args} --data "${serve_dir}" \
          --model "${serve_dir}/model.ckpt" ;;
      *)
        ./build/tools/groupsa_serve --data "${serve_dir}" \
          --model "${serve_dir}/model.ckpt" ${args} < /dev/null ;;
    esac > /dev/null 2> "${serve_dir}/flag_err_${flag}.txt"
    rc=$?
    set -e
    if [ "${rc}" -ne 1 ]; then
      echo "FAIL: ${args} exited ${rc}, expected 1" >&2
      exit 1
    fi
    if ! grep -q -- "--${flag} " "${serve_dir}/flag_err_${flag}.txt"; then
      echo "FAIL: ${args}: stderr does not name --${flag}" >&2
      exit 1
    fi
  done <<'EOF'
workers --workers 0
queue --queue 0
reload-retries --reload-retries -1
reload-retries --reload-retries=-1
breaker-window --breaker --breaker-window 0
breaker-probes --breaker --breaker-probes 0
breaker-threshold --breaker --breaker-threshold 0
breaker-threshold --breaker --breaker-window 4 --breaker-threshold 5
workers --workers two
queue --queue 8x
reload-retries --reload-retries many
breaker-window --breaker --breaker-window ten
breaker-threshold --breaker --breaker-threshold half
breaker-probes --breaker --breaker-probes 1.5
epochs train --epochs -1
epochs train --epochs two
top recommend --members 1,2 --top 0
members recommend --members 1,abc
members recommend --members 4294967297,2
members recommend --members 2,0,2
EOF
  # A repeated member breaks the daemon's request rules, and the command
  # line says so in the rule's own words.
  if ! grep -q "duplicate member id 2" "${serve_dir}/flag_err_members.txt"; then
    echo "FAIL: recommend --members 2,0,2: no duplicate-member message" >&2
    exit 1
  fi
  echo "serve flag gate OK"

  echo "=== serve script gate (malformed numbers are bad commands) ==="
  # An id or k that is not a whole decimal number must not be read as a
  # different request (atoi would serve "user abc 3" as user 0): the line
  # is reported and nothing is submitted.
  printf 'user abc 3\nmembers 1,abc 3\ngroup 7 3z\nquit\n' \
    > "${serve_dir}/bad_numbers.txt"
  ./build/tools/groupsa_serve --data "${serve_dir}" \
    --model "${serve_dir}/model.ckpt" --strict \
    --script "${serve_dir}/bad_numbers.txt" > "${serve_dir}/bad_numbers.out"
  if [ "$(grep -c 'bad command:' "${serve_dir}/bad_numbers.out")" -ne 3 ] ||
     grep -q ' -> ' "${serve_dir}/bad_numbers.out"; then
    echo "FAIL: malformed script numbers were served or not reported" >&2
    cat "${serve_dir}/bad_numbers.out" >&2
    exit 1
  fi
  echo "serve script gate OK"

  echo "=== crash-during-reload gate ==="
  # A SIGKILL in the middle of the generation swap must not corrupt
  # anything: the staged generation is process-local and the checkpoint on
  # disk is still the last good state, so a restarted daemon serves the
  # exact same responses as an undisturbed run.
  cat > "${serve_dir}/reload_session.txt" <<'EOF'
user 3 5 x
reload
user 3 5 x
quit
EOF
  set +e
  # stdbuf keeps stdout line-buffered so the pre-reload response survives
  # the SIGKILL (a block-buffered daemon would lose it with the process).
  GROUPSA_FAILPOINTS="serve.reload.swap=kill@1" \
    stdbuf -oL ./build/tools/groupsa_serve --data "${serve_dir}" \
      --model "${serve_dir}/model.ckpt" --workers 2 --strict \
      --script "${serve_dir}/reload_session.txt" \
      > "${serve_dir}/killed_run.txt" 2>&1
  local kill_rc=$?
  set -e
  if [ "${kill_rc}" -ne 137 ]; then
    echo "FAIL: reload-kill run exited with ${kill_rc}, expected 137" >&2
    exit 1
  fi
  # The daemon died mid-swap after answering the first request.
  if ! grep -q ' -> ' "${serve_dir}/killed_run.txt"; then
    echo "FAIL: killed daemon never answered the pre-reload request" >&2
    exit 1
  fi
  # Restart against the same on-disk checkpoint: the full session (including
  # the reload that killed the previous process) must now complete and its
  # responses must match the undisturbed golden run's for the same requests.
  ./build/tools/groupsa_serve --data "${serve_dir}" \
    --model "${serve_dir}/model.ckpt" --workers 2 --strict \
    --script "${serve_dir}/reload_session.txt" \
    | grep ' -> ' > "${serve_dir}/restarted_run.txt"
  grep '^user 3 k=5 x=1' "${serve_dir}/golden_w1_t1.txt" | head -1 \
    > "${serve_dir}/want_line.txt"
  # Both the pre-reload and post-reload answers of the restarted run must
  # carry the same items/scores as the golden run (generation differs).
  local want got
  want="$(sed 's/.*items=//' "${serve_dir}/want_line.txt")"
  while IFS= read -r line; do
    got="$(printf '%s\n' "${line}" | sed 's/.*items=//')"
    if [ "${got}" != "${want}" ]; then
      echo "FAIL: restarted daemon diverged: ${got} != ${want}" >&2
      exit 1
    fi
  done < <(grep '^user 3 k=5 x=1' "${serve_dir}/restarted_run.txt")
  echo "crash-during-reload gate OK"
}

lane_index() {
  echo "=== index lane (IVF retrieval gates) ==="
  ensure_build build -DCMAKE_BUILD_TYPE=Release
  # Full build, not --target: with a pre-existing tree the make-level cmake
  # regen rule does not fire for a target the stale cache has never seen.
  cmake --build build -j "${JOBS}"
  # Exact-parity gate: with nprobe = nlist the candidate set is the whole
  # catalog and every IVF answer must be 0-ULP identical to TopKMode::kExact
  # — through the engine, the fast recommender, and across thread counts.
  # RetrievePlanTest adds the pinned top-10 digests of every config x query
  # kind x plan cell of the retrieval pipeline.
  ctest --test-dir build --output-on-failure -j "${JOBS}" \
    -R 'FullProbeBitIdenticalToExact|RetrievePlanTest'
  # Recall gate: at a genuinely approximate nprobe the IVF top-10 must keep
  # recall@10 above the floor on the seeded synthetic world (deterministic,
  # so a drop is a regression, not noise).
  ctest --test-dir build --output-on-failure -j "${JOBS}" \
    -R 'RecallAtTenOnSeededWorld'
  # Bit gate: fixed builds (1, 17, 40, 256 lists and the size rule at 5,000
  # items) must reproduce their pinned centroid and assignment digests at 1
  # and 4 threads, so a faster k-means cannot silently move an index.
  ctest --test-dir build --output-on-failure -j "${JOBS}" \
    -R 'BuildBitsArePinned'
  echo "=== index lane (ItemIndex suite under ASan) ==="
  ensure_build build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPSA_SANITIZE=address
  cmake --build build-asan -j "${JOBS}"
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'ItemIndex'
}

lane_quant() {
  echo "=== quant lane (kernel-backend parity + int8 suites) ==="
  ensure_build build -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}"
  # Backend bit-identity on every kernel in the dispatch table, the int8
  # quantizer edge cases, and the int8 serving-path gates (HR@10/NDCG@10
  # within 1% of exact, >= 3.5x rep-cache memory reduction, invalidation
  # after optimizer steps, IVF composition), and the retrieval pipeline's
  # pinned digests and full-probe identities under the int8 plans.
  ctest --test-dir build --output-on-failure -j "${JOBS}" \
    -R 'KernelBackendTest|QuantizedTest|Int8ModeTest|RetrievePlanTest'

  echo "=== quant lane (cross-backend training checkpoint parity) ==="
  # Train the tiny world end to end under each runnable backend (forced via
  # GROUPSA_KERNEL_BACKEND) at 1 and 4 threads; every checkpoint must be
  # byte-identical to the scalar reference. This is the strongest form of
  # the bit-identity contract: millions of kernel invocations with zero
  # accumulated divergence, not just single-call parity.
  local quant_dir
  quant_dir="$(mktemp -d)"
  TMP_DIRS+=("${quant_dir}")
  ./build/tools/groupsa_cli generate --out "${quant_dir}" --preset tiny \
    > /dev/null
  local backends
  backends="$(./build/tools/groupsa_cli kernels)"
  echo "runnable backends: ${backends//$'\n'/ }"
  local backend threads ckpt
  for threads in 1 4; do
    for backend in ${backends}; do
      ckpt="${quant_dir}/ckpt_${backend}_t${threads}.ckpt"
      GROUPSA_KERNEL_BACKEND="${backend}" \
        ./build/tools/groupsa_cli train --data "${quant_dir}" --epochs 2 \
          --threads "${threads}" --model "${ckpt}" > /dev/null
      md5sum "${ckpt}"
      cmp "${quant_dir}/ckpt_scalar_t${threads}.ckpt" "${ckpt}"
    done
  done
  echo "cross-backend checkpoint parity OK"

  echo "=== quant lane (quantized suites under ASan) ==="
  # The quantized rep caches hand out raw int8 row pointers and the engine
  # swaps QuantState snapshots under concurrent readers; ASan guards the
  # ownership story.
  ensure_build build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPSA_SANITIZE=address
  cmake --build build-asan -j "${JOBS}"
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'KernelBackendTest|QuantizedTest|Int8ModeTest|RetrievePlanTest'
}

lane_chaos() {
  # The chaos soak's assertions (transcript byte-identity across widths,
  # submitted == admitted + shed + rejected + expired, zero dead workers,
  # breaker trips then recovers) live in the tests; this lane's job is to
  # run them under both sanitizers so a rescue-path race or a leaked
  # promise cannot hide behind a green plain run.
  echo "=== chaos lane (TSan) ==="
  ensure_build build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPSA_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}"
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
    -R 'ChaosTest|ResilienceTest'
  echo "=== chaos lane (ASan) ==="
  ensure_build build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPSA_SANITIZE=address
  cmake --build build-asan -j "${JOBS}"
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'ChaosTest|ResilienceTest'
}

lane_asan() {
  echo "=== asan build ==="
  ensure_build build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPSA_SANITIZE=address
  cmake --build build-asan -j "${JOBS}"
  echo "=== asan ctest (fault-labelled tests) ==="
  # The fault suite injects I/O errors, poisons batches and SIGKILLs
  # children mid-write; ASan guards the recovery paths against leaks and UB.
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L fault
  echo "=== asan ctest (tensor-pool allocation suite) ==="
  # The pool hands recycled storage back to the ops; ASan verifies nothing
  # in the steady-state loop reads stale bytes or leaks escaped tensors.
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'TrainerPoolTest|TensorPoolTest'
  echo "=== asan ctest (checkpoint I/O and compact shard gradients) ==="
  # Checkpoint sections are views into one file buffer at computed offsets,
  # and loads copy records from there straight into the live tensors; shard
  # gradients are compact rows found through a per-row index. ASan checks
  # both offset schemes (neither suite carries a label above).
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'CheckpointTest|CheckpointCrashDeathTest|GradShardTest'
  echo "=== asan ctest (flat Top-H lists) ==="
  # TF-IDF Top-H rows are spans into one flat id array (data::IdLists),
  # read by user modeling; ASan checks the row offsets (no label above).
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'TfIdfTest|IdListsTest|UserModelingTest'
  echo "=== asan ctest (top-K selector) ==="
  # Every ranking path ends in core::TopKItems' k-bounded heap; ASan checks
  # its index arithmetic at k = 1, k past n and skip-everything (tests_core
  # carries no label, so no step above runs these suites).
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'TopKItemsTest|TopKSubsetTest|BetterRankedTest'
  echo "=== asan ctest (serving suite) ==="
  # The serving daemon's queue, degrade and reload paths under ASan: no
  # leaked promises, no use-after-free across generation swaps.
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'ServerTest|StressTest|ServeGoldenTest'
}

lane_tsan() {
  echo "=== tsan build ==="
  ensure_build build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPSA_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}"
  echo "=== tsan ctest (race-labelled tests) ==="
  # TSan slows execution ~5-15x, so the sanitizer lane runs only the tests
  # that exercise the parallel paths (thread pool, sharded trainer, parallel
  # kernels, and the serving daemon's stress/soak suite); the full suite
  # already ran in the plain lane.
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L race
}

lane_ubsan() {
  echo "=== ubsan build ==="
  ensure_build build-ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGROUPSA_SANITIZE=undefined
  cmake --build build-ubsan -j "${JOBS}"
  echo "=== ubsan ctest (full suite, -fno-sanitize-recover=all) ==="
  # UBSan's overhead is small enough to run everything; recovery is disabled
  # at compile time, so one UB report anywhere aborts the test that hit it.
  ctest --test-dir build-ubsan --output-on-failure -j "${JOBS}"
}

lane_perfbench() {
  echo "=== perfbench lane (benchmark tests + quick smoke) ==="
  # perfbench/ is its own CMake project that compiles ../src, configured in
  # the tree run.py builds the benchmark in. Its ctest runs
  # perfbench_measure_test and bench_smoke (every workload with --quick,
  # traced and untraced; a failed parity, digest or conservation check
  # fails the run), so a src/ change that breaks the benchmark fails here.
  if [ ! -f .bench_build/perfbench/CMakeCache.txt ]; then
    cmake -B .bench_build/perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build .bench_build/perfbench -j "${JOBS}"
  # perfbench/CMakeLists.txt only warns when GTest or Python is missing;
  # here a missing test is a failure, not a quiet pass.
  local listed test
  listed="$(ctest --test-dir .bench_build/perfbench -N)"
  for test in perfbench_measure_test bench_smoke; do
    if ! grep -q ": ${test}\$" <<< "${listed}"; then
      echo "FAIL: ${test} is not registered in .bench_build/perfbench" >&2
      exit 1
    fi
  done
  ctest --test-dir .bench_build/perfbench --output-on-failure
}

for lane in "${LANES[@]}"; do
  case "${lane}" in
    plain) lane_plain ;;
    lint) lane_lint ;;
    locks) lane_locks ;;
    tidy) lane_tidy ;;
    bench) lane_bench ;;
    serving) lane_serving ;;
    crash) lane_crash ;;
    serve-golden) lane_serve_golden ;;
    index) lane_index ;;
    quant) lane_quant ;;
    chaos) lane_chaos ;;
    asan) lane_asan ;;
    tsan) lane_tsan ;;
    ubsan) lane_ubsan ;;
    perfbench) lane_perfbench ;;
    *)
      echo "unknown lane: ${lane}" >&2
      exit 2
      ;;
  esac
done

for check in "${NOT_VERIFIED[@]:-}"; do
  if [ -n "${check}" ]; then echo "NOT VERIFIED: ${check}"; fi
done
echo "CI OK"
