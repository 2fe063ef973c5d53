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
#                 zero-overhead gate (the serving lane's run)
#   tidy          clang-tidy over src/ (visible skip when not installed)
#   bench         inference + training bench smokes (bit-parity gates)
#                 and the bench int-flag gate (a malformed or out-of-range
#                 --epochs, --items, --users, --seed or --threads exits
#                 non-zero naming the flag, in the timing benches and the
#                 paper-table benches alike)
#   serving       the repo benchmark's hot_exact_2k workload, --quick,
#                 through the serving daemon: served answers 0-ULP against
#                 a direct engine, request conservation, answers unchanged
#                 across a hot reload
#   crash         crash-resume determinism gate (SIGKILL mid-training, resume,
#                 byte-compare) at pool widths 1 and 4, and the star-graph
#                 gate (a user who befriends everyone fails training fast,
#                 naming the user)
#   serve-golden  serve-mode golden gate (train -> checkpoint -> scripted
#                 daemon run, byte-compared at 1x1 vs 4x4 workers/threads)
#                 plus the crash-during-reload gate (SIGKILL mid-swap, restart
#                 from the last good checkpoint), the failed-reload gate
#                 (without --strict, a reload of a missing or torn
#                 checkpoint fails and generation 1 keeps serving), the
#                 bad-numeric-flag gate (exit 1 naming the flag, never an
#                 abort, a wrapped tick budget or a silently different
#                 seed), the
#                 bad-script-number gate (reported, never served) and the
#                 GROUPSA_THREADS gate (a malformed or out-of-range pool
#                 width fails naming the variable)
#   index         IVF retrieval gates: nprobe=nlist exact-parity (0-ULP vs
#                 kExact), the pinned retrieval-plan top-10 digests and the
#                 pinned centroid/assignment digests of fixed builds, each
#                 under every runnable kernel backend (the build's
#                 nearest-centroid step is per-ISA code), recall@10 on the
#                 seeded world, and the full ItemIndex suite under ASan
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
#   asan          fault-labelled tests, tensor-pool (with the trainer golden
#                 and determinism suites), checkpoint, sparse-gradient
#                 (grad-shard, row-grad, optimizer, embedding, graph-lint),
#                 flat id table, world generator (with the weighted-table
#                 suite), top-K selector and serving suites under ASan
#   tsan          race-labelled tests (thread pool, trainer shards, shared
#                 id tables, serving stress/soak) under TSan
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

  echo "=== locks lane (release zero-overhead gate) ==="
  # Release DebugMutex must be a bare std::mutex (static_assert'd for
  # layout); the serving lane's release run gates the behavioral half: the
  # 0-ULP parity and conservation checks on the serving hot path, where
  # every request crosses the queue, slot and breaker locks.
  lane_serving
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
  cmake --build build -j "${JOBS}" --target bench_inference bench_training \
    bench_table5_joint_training
  echo "=== inference bench smoke (0-ULP parity gate) ==="
  # --quick caps the catalog; the run still exits non-zero if the batched
  # engine's scores are not bit-identical to the per-item reference.
  ./build/bench/bench_inference --quick
  echo "=== training bench smoke (pooled/unpooled parity gate) ==="
  # --quick caps the world and schedule; the run still exits non-zero if
  # pooled training's parameters are not byte-identical to unpooled's, at
  # one and four threads.
  ./build/bench/bench_training --quick
  echo "=== bench int flags (whole numbers in range, or exit non-zero) ==="
  # Each line: the flag the error must name, then the bench binary and its
  # arguments. Read as a prefix, these values would run silently wrong:
  # --epochs=two as 0+0 epochs with a NaN speedup in the JSON (or, in a
  # paper-table bench, an untrained GroupSA row), --items=2k as a 2-item
  # world, --seed=x3 as seed 0. A world of 2 items or 2 users would abort
  # in the generator's size check without naming the flag.
  local flag cmd rc err
  err="$(mktemp)"
  TMP_DIRS+=("${err}")
  while read -r flag cmd; do
    set +e
    # shellcheck disable=SC2086  # $cmd is a word list on purpose
    ./build/bench/${cmd} > /dev/null 2> "${err}"
    rc=$?
    set -e
    if [ "${rc}" -eq 0 ]; then
      echo "FAIL: ${cmd} exited 0" >&2
      exit 1
    fi
    if ! grep -q -- "--${flag} " "${err}"; then
      echo "FAIL: ${cmd}: stderr does not name --${flag}" >&2
      exit 1
    fi
  done <<'EOF'
epochs bench_training --epochs=two
items bench_inference --items=2k
items bench_inference --quick --items=2
items bench_training --quick --items=2
users bench_training --quick --users=2
epochs bench_table5_joint_training --quick --epochs=two
seed bench_table5_joint_training --quick --seed=x3
threads bench_table5_joint_training --quick --threads=257
threads bench_inference --threads=4x
EOF
  echo "bench int flag gate OK"
}

lane_serving() {
  echo "=== serving lane (perfbench hot_exact_2k --quick) ==="
  # perfbench/run.py builds its own Release driver and runs the open-loop
  # generator against serve::Server: every probed answer must match a
  # direct InferenceEngine bit for bit, the request counters must conserve
  # and answers must survive a hot reload. The driver reports a failed
  # check as "correct": false on its last line, not in its exit status, so
  # that line is the gate. Breaker, retry and deadline behaviour is pinned
  # at exact ticks by the chaos lane.
  local out
  out="$(mktemp)"
  TMP_DIRS+=("${out}")
  python3 perfbench/run.py --workload hot_exact_2k --quick --trace 0 \
    | tee "${out}"
  if ! tail -n 1 "${out}" | grep -q '"correct": true'; then
    echo "FAIL: perfbench hot_exact_2k failed a correctness check" >&2
    exit 1
  fi
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

  echo "=== star-graph gate (a user who befriends everyone fails fast) ==="
  # User 0 becomes a friend of every other user, so the social objective
  # has no negative to draw for the edges it anchors. Training must stop
  # within 60 s, non-zero and naming the user, instead of redrawing forever
  # (timeout's 124 is that hang).
  local star_dir="${crash_dir}/star"
  mkdir -p "${star_dir}"
  ./build/tools/groupsa_cli generate --out "${star_dir}" --preset tiny \
    --seed 3 > /dev/null
  local num_users v
  num_users="$(awk -F'\t' '$1 == "num_users" { print $2 }' \
    "${star_dir}/meta.tsv")"
  for ((v = 1; v < num_users; ++v)); do
    printf '0\t%d\n' "${v}"
  done >> "${star_dir}/social.tsv"
  set +e
  timeout 60 ./build/tools/groupsa_cli train --data "${star_dir}" \
    --epochs 1 --threads 1 --model "${star_dir}/model.ckpt" \
    > /dev/null 2> "${star_dir}/err.txt"
  local star_rc=$?
  set -e
  if [ "${star_rc}" -eq 0 ] || [ "${star_rc}" -eq 124 ]; then
    echo "FAIL: star-graph training exited ${star_rc}, expected a fast" \
      "failure" >&2
    exit 1
  fi
  if ! grep -q "user 0 is a friend of every other user" \
       "${star_dir}/err.txt"; then
    echo "FAIL: star-graph training did not name user 0 on stderr" >&2
    cat "${star_dir}/err.txt" >&2
    exit 1
  fi
  echo "star-graph gate OK (exit ${star_rc})"
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
  # run of the wrong length or seed, a request the daemon would reject, a
  # --deadline of -1 whose tick budget wraps and expires every request
  # after the first, --breaker-open soon as 0 ticks). Arguments
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
seed train --seed abc
deadline --deadline -1
deadline --deadline 5x
breaker-open --breaker --breaker-open soon
threads --threads 257
threads train --threads 257
workers --workers 254
EOF
  # A repeated member breaks the daemon's request rules, and the command
  # line says so in the rule's own words.
  if ! grep -q "duplicate member id 2" "${serve_dir}/flag_err_members.txt"; then
    echo "FAIL: recommend --members 2,0,2: no duplicate-member message" >&2
    exit 1
  fi
  echo "serve flag gate OK"

  echo "=== GROUPSA_THREADS gate (a bad pool width fails naming it) ==="
  # The variable is read as a whole number in [1, 256]. atoi read 4x as 4
  # and abc or -2 as serial; each must now fail, naming the variable,
  # before a pool starts.
  local value
  for value in 4x abc -2 257; do
    set +e
    GROUPSA_THREADS="${value}" ./build/tools/groupsa_cli train \
      --data "${serve_dir}" --epochs 1 \
      --model "${serve_dir}/flag_model.ckpt" > /dev/null \
      2> "${serve_dir}/env_err.txt"
    rc=$?
    set -e
    if [ "${rc}" -eq 0 ] ||
        ! grep -q "GROUPSA_THREADS" "${serve_dir}/env_err.txt"; then
      echo "FAIL: GROUPSA_THREADS=${value} exited ${rc} without naming" \
        "the variable" >&2
      exit 1
    fi
  done
  echo "GROUPSA_THREADS gate OK"

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

  echo "=== failed-reload gate (a bad checkpoint never replaces a good one) ==="
  # Without --strict only the first generation may degrade to popularity.
  # A reload of a missing or a torn checkpoint fails instead: generation 1
  # keeps answering as before, and the counters record two failed reloads
  # and no swap.
  head -c 3000 "${serve_dir}/model.ckpt" > "${serve_dir}/torn.ckpt"
  cat > "${serve_dir}/failed_reload.txt" <<EOF
user 3 5 x
reload ${serve_dir}/missing.ckpt
user 3 5 x
reload ${serve_dir}/torn.ckpt
user 3 5 x
stats
quit
EOF
  ./build/tools/groupsa_serve --data "${serve_dir}" \
    --model "${serve_dir}/model.ckpt" \
    --script "${serve_dir}/failed_reload.txt" \
    > "${serve_dir}/failed_reload.out" 2>&1
  local first_items answers=0
  first_items="$(grep -m1 '^user 3 k=5 x=1' "${serve_dir}/failed_reload.out" |
    sed 's/.*items=//')"
  while IFS= read -r line; do
    answers=$((answers + 1))
    if [[ "${line}" != *" -> gen=1 deg=0 "* ]] ||
        [ "${line##*items=}" != "${first_items}" ]; then
      echo "FAIL: an answer moved after a failed reload: ${line}" >&2
      exit 1
    fi
  done < <(grep '^user 3 k=5 x=1' "${serve_dir}/failed_reload.out")
  if [ "${answers}" -ne 3 ] ||
     [ "$(grep -c '^reload failed' "${serve_dir}/failed_reload.out")" -ne 2 ] ||
     ! grep -q ' reloads=0 failed_reloads=2 ' \
       "${serve_dir}/failed_reload.out"; then
    echo "FAIL: failed reloads were not reported as failed" >&2
    cat "${serve_dir}/failed_reload.out" >&2
    exit 1
  fi
  echo "failed-reload gate OK"
}

lane_index() {
  echo "=== index lane (IVF retrieval gates) ==="
  ensure_build build -DCMAKE_BUILD_TYPE=Release
  # Full build, not --target: with a pre-existing tree the make-level cmake
  # regen rule does not fire for a target the stale cache has never seen.
  cmake --build build -j "${JOBS}"
  # Three gates, run once per runnable kernel backend (forced through
  # GROUPSA_KERNEL_BACKEND, as the quant lane does): every index build's
  # nearest-centroid step runs that backend's per-ISA kernel.
  #  - Exact parity: with nprobe = nlist the candidate set is the whole
  #    catalog and every IVF answer must be 0-ULP identical to
  #    TopKMode::kExact, for every query kind and across thread counts.
  #  - RetrievePlanTest: the pinned top-10 digests of every config x query
  #    kind x plan cell of the retrieval pipeline.
  #  - Bit gate: fixed builds (1, 17, 40, 256 lists and the size rule at
  #    5,000 items) must reproduce their pinned centroid and assignment
  #    digests at 1 and 4 threads, so a faster k-means cannot silently move
  #    an index.
  local backends backend
  backends="$(./build/tools/groupsa_cli kernels)"
  echo "runnable backends: ${backends//$'\n'/ }"
  for backend in ${backends}; do
    echo "--- index gates under the ${backend} backend ---"
    GROUPSA_KERNEL_BACKEND="${backend}" \
      ctest --test-dir build --output-on-failure -j "${JOBS}" \
        -R 'FullProbeBitIdenticalToExact|RetrievePlanTest|BuildBitsArePinned'
  done
  # Recall gate: at a genuinely approximate nprobe the IVF top-10 must keep
  # recall@10 above the floor on the seeded synthetic world (deterministic,
  # so a drop is a regression, not noise).
  ctest --test-dir build --output-on-failure -j "${JOBS}" \
    -R 'RecallAtTenOnSeededWorld'
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
  # Each worker lane's pool serves several shards in turn, so the golden and
  # determinism suites (race-labelled: otherwise only TSan runs them) push
  # many shards through one lane pool at widths 1 and 4.
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'TrainerPoolTest|TensorPoolTest|TrainerGoldenTest|DeterminismTest'
  echo "=== asan ctest (checkpoint I/O and compact shard gradients) ==="
  # Checkpoint sections are views into one file buffer at computed offsets,
  # and loads copy records from there straight into the live tensors;
  # sparse gradients (ag::RowGrad, in shard sinks and in the embedding
  # modules the optimizers step) are slots found through an open-addressing
  # index with wrap-around probes, growth and newest-first clears. ASan
  # checks both offset schemes (no suite here carries a label above).
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'CheckpointTest|CheckpointCrashDeathTest|GradShardTest|RowGradTest|OptimizerTest|EmbeddingTest|GraphLintTest'
  echo "=== asan ctest (flat id tables) ==="
  # Every data-layer id table (the interaction matrices, the social graph
  # and the TF-IDF Top-H lists) is spans into one flat id array
  # (data::IdLists), built by counting sort and shared by its copies, each
  # model's Top-H tables included; ASan checks the row offsets and the
  # shared storage's lifetime (no label above).
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'TfIdfTest|IdListsTest|UserModelingTest|InteractionMatrixTest|SocialGraphTest|ModelsShareTheCallersTopHTables'
  echo "=== asan ctest (world generator and weighted tables) ==="
  # The generator indexes a per-item stamp array, its echo buckets and each
  # topic's prefix table (common/rng's WeightedTable) by raw ids; ASan
  # checks those indices (no label above).
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" \
    -R 'SyntheticWorld|RngTest'
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
