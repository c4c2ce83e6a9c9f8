#!/usr/bin/env bash
# One-command pre-merge gate for the TAMP repo.
#
#   tools/check.sh                 Release build + ctest, the bench metrics
#                                  gate (micro benches and the Fig. 7 and
#                                  Table IV accuracy cells vs
#                                  bench/baselines/, plus fresh 1- vs
#                                  4-thread Fig. 7 and Table IV runs),
#                                  the repository benchmark's build + ctest
#                                  (bench/e2e), clang-tidy (when
#                                  installed), ASan+UBSan build + ctest, a
#                                  TSan build + ctest over the concurrency
#                                  tests at TAMP_THREADS=4, and the
#                                  tamp_analyze static-analysis gate. Exits
#                                  nonzero on the first failure.
#   tools/check.sh --analyze-only  Only the analyze gate (and its
#                                  self-tests). --lint-only is a legacy
#                                  alias.
#
# Options:
#   --analyze-binary PATH  Use an already-built tamp_analyze instead of
#                          building one (used by the ctest smoke entry).
#                          --lint-binary is a legacy alias.
#   --jobs N               Parallel build jobs (default: nproc).
#
# When clang-tidy is on PATH, the Release stage also runs it with the repo
# .clang-tidy config over the library sources (advisory unless
# TAMP_TIDY_WERROR=1).

set -u -o pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
ANALYZE_ONLY=0
ANALYZE_BINARY=""

while [ $# -gt 0 ]; do
  case "$1" in
    --analyze-only|--lint-only) ANALYZE_ONLY=1 ;;
    --analyze-binary|--lint-binary) ANALYZE_BINARY="$2"; shift ;;
    --jobs) JOBS="$2"; shift ;;
    *) echo "check.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
  shift
done

FAILURES=0

run_stage() {
  local name="$1"; shift
  echo "==> [$name] $*"
  if "$@"; then
    echo "==> [$name] OK"
  else
    echo "==> [$name] FAILED" >&2
    FAILURES=$((FAILURES + 1))
    return 1
  fi
}

build_analyze_binary() {
  local dir="$REPO_ROOT/build-check-analyze"
  cmake -B "$dir" -S "$REPO_ROOT" \
        -DTAMP_BUILD_TESTS=OFF -DTAMP_BUILD_BENCHMARKS=OFF \
        -DTAMP_BUILD_EXAMPLES=OFF >/dev/null \
    && cmake --build "$dir" --target tamp_analyze -j "$JOBS" >/dev/null \
    && ANALYZE_BINARY="$dir/tools/tamp_analyze"
}

analyze_stage() {
  if [ -z "$ANALYZE_BINARY" ]; then
    run_stage "analyze-build" build_analyze_binary || return 1
  fi
  run_stage "analyze" "$ANALYZE_BINARY" "$REPO_ROOT" || return 1
  run_stage "analyze-self-test" "$ANALYZE_BINARY" --self-test all \
            "$REPO_ROOT" || return 1
}

full_build_stage() {
  local name="$1" dir="$2"; shift 2
  run_stage "$name-configure" cmake -B "$dir" -S "$REPO_ROOT" \
            -DTAMP_WERROR=ON "$@" || return 1
  run_stage "$name-build" cmake --build "$dir" -j "$JOBS" || return 1
  run_stage "$name-ctest" ctest --test-dir "$dir" --output-on-failure \
            -j "$JOBS" || return 1
}

tsan_stage() {
  local dir="$REPO_ROOT/build-check-tsan"
  run_stage "tsan-configure" cmake -B "$dir" -S "$REPO_ROOT" \
            -DTAMP_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DTAMP_SANITIZE=thread || return 1
  run_stage "tsan-build" cmake --build "$dir" -j "$JOBS" || return 1
  # Force a multi-threaded pool so TSan actually observes interleavings;
  # with the default TAMP_THREADS the single-core CI box would take the
  # serial path and the stage would vacuously pass.
  run_stage "tsan-ctest" env TAMP_THREADS=4 ctest --test-dir "$dir" \
            --output-on-failure -j "$JOBS" || return 1
}

# Metrics-regression gate: re-emit each micro bench target's
# BENCH_micro_*.json from the release build and diff its deterministic
# work-count metrics against the committed bench/baselines/ copy. Timing
# ("stages", "_s" keys, "threads") is advisory in tamp_bench_compare, so
# this is machine-independent; min_time stays tiny because only the counts
# are gated. A Table IV run at 1 and at 4 threads is cross-compared too,
# pinning the bit-identical-across-threads contract on current code, and
# the 4-thread run is also compared with its committed baseline.
bench_gate_stage() {
  local dir="$REPO_ROOT/build-check-release"
  local compare="$dir/tools/tamp_bench_compare"
  local baselines="$REPO_ROOT/bench/baselines"
  local target
  for target in micro_matching micro_nn micro_similarity micro_cluster \
                micro_candidates; do
    run_stage "bench-run-$target" env TAMP_BENCH_JSON_DIR="$dir" \
              "$dir/bench/bench_$target" --benchmark_min_time=0.01 \
              || return 1
    run_stage "bench-gate-$target" "$compare" \
              "$baselines/BENCH_$target.json" \
              "$dir/BENCH_$target.json" || return 1
  done
  # The event-driven simulator's headline bench: every (dataset, scenario)
  # workload spec through the event core. Its per-spec event counts are
  # pure functions of the workload seeds, so they gate bitwise; the
  # events/second figures (`*_s` / `events_per_s` keys) stay advisory.
  run_stage "bench-run-stream" env TAMP_BENCH_JSON_DIR="$dir" \
            "$dir/bench/bench_stream" || return 1
  run_stage "bench-gate-stream" "$compare" \
            "$baselines/BENCH_stream.json" \
            "$dir/BENCH_stream.json" || return 1
  # Geo-sharded assignment at fleet scale (W = 1k/10k/100k synthetic
  # clustered fleets): shard counts, max shard size, candidate rows and
  # matched pairs are pure functions of the synthesis seeds and gate
  # bitwise; assign_per_s and the `_s` stage clocks stay advisory. The run
  # pins 4 threads, so the fan-outs run whatever the host's default.
  run_stage "bench-run-scale" env TAMP_BENCH_JSON_DIR="$dir" \
            "$dir/bench/bench_scale" --threads=4 || return 1
  run_stage "bench-gate-scale" "$compare" \
            "$baselines/BENCH_scale.json" \
            "$dir/BENCH_scale.json" || return 1
  # Thread invariance at fleet scale: a 1-thread run takes every inline
  # branch of the index build, both generation passes, the union pass and
  # the shard solves, and its fleets' counts must equal the 4-thread run's.
  mkdir -p "$dir/scale-threads1"
  run_stage "bench-run-scale-threads1" "$dir/bench/bench_scale" \
            --threads=1 --json-dir="$dir/scale-threads1" || return 1
  run_stage "bench-gate-scale-threads-invariance" "$compare" \
            "$dir/scale-threads1/BENCH_scale.json" \
            "$dir/BENCH_scale.json" || return 1
  # Fig. 7 (tasks sweep, Porto): its 105 completion / rejection / cost
  # cells and the obs work counts (candidate evaluations, KM solves, ...)
  # of a fresh run must equal the committed baseline bitwise, so a change
  # to the candidate, forecast or solve path cannot move an accuracy cell
  # unnoticed. The `assign_s` cells and stage clocks stay advisory.
  mkdir -p "$dir/fig7"
  run_stage "bench-run-fig7" "$dir/bench/bench_fig7_tasks_porto" \
            --threads=4 --json-dir="$dir/fig7" || return 1
  run_stage "bench-gate-fig7" "$compare" \
            "$baselines/BENCH_fig7_tasks_porto.json" \
            "$dir/fig7/BENCH_fig7_tasks_porto.json" || return 1
  # Thread invariance of the online loop: a fresh 1-thread Fig. 7 run must
  # match the 4-thread run above bitwise — every cell and every obs work
  # count, including the forecast's nn.* counters and the candidate and
  # solve counts of the work-gated fan-outs.
  mkdir -p "$dir/fig7-threads1"
  run_stage "bench-run-fig7-threads1" "$dir/bench/bench_fig7_tasks_porto" \
            --threads=1 --json-dir="$dir/fig7-threads1" || return 1
  run_stage "bench-gate-fig7-threads-invariance" "$compare" \
            "$dir/fig7-threads1/BENCH_fig7_tasks_porto.json" \
            "$dir/fig7/BENCH_fig7_tasks_porto.json" || return 1
  # Thread invariance: the table cells and the obs work counts (including
  # the nn.* forecast counters) of a fresh run must not depend on the
  # thread count.
  local threads
  for threads in 1 4; do
    mkdir -p "$dir/threads$threads"
    run_stage "bench-run-table4-threads$threads" \
              "$dir/bench/bench_table4_cluster_ablation" \
              --threads="$threads" --json-dir="$dir/threads$threads" \
              || return 1
  done
  run_stage "bench-gate-threads-invariance" "$compare" \
            "$dir/threads1/BENCH_table4_cluster_ablation.json" \
            "$dir/threads4/BENCH_table4_cluster_ablation.json" \
            || return 1
  # Table IV against the committed baseline (a 4-thread run): its 10
  # GTTAML trainings pin the RMSE/MAE/MR cells and the meta.* obs counts,
  # so a change that moved training the same way at both thread counts
  # cannot pass the invariance gate above unnoticed. The `tt_s` cells and
  # stage clocks stay advisory.
  run_stage "bench-gate-table4" "$compare" \
            "$baselines/BENCH_table4_cluster_ablation.json" \
            "$dir/threads4/BENCH_table4_cluster_ablation.json" \
            || return 1
}

# The repository benchmark (bench/e2e/) is a CMake project of its own that
# calls into src/ directly, so the release build above does not compile
# it. Building it here makes a src/ change that breaks its calls fail
# before merge; its ctest (bench_e2e_manifest) checks the metric list
# against BENCHMARK.json without running a workload.
e2e_stage() {
  local dir="$REPO_ROOT/build-check-e2e"
  run_stage "e2e-configure" cmake -B "$dir" -S "$REPO_ROOT/bench/e2e" \
            -DCMAKE_BUILD_TYPE=Release || return 1
  run_stage "e2e-build" cmake --build "$dir" -j "$JOBS" || return 1
  run_stage "e2e-ctest" ctest --test-dir "$dir" --output-on-failure \
            --no-tests=error || return 1
}

clang_tidy_stage() {
  command -v clang-tidy >/dev/null 2>&1 || {
    echo "==> [clang-tidy] WARNING: clang-tidy not on PATH — the tidy gate" \
         "(bugprone-*/concurrency-*/performance-*) DID NOT RUN; install" \
         "clang-tidy to close this gap" >&2
    return 0
  }
  local dir="$REPO_ROOT/build-check-release"
  local files
  files=$(find "$REPO_ROOT/src" -name '*.cc' | sort)
  echo "==> [clang-tidy] running over src/ with $(clang-tidy --version \
       | grep -o 'version [0-9.]*' | head -1)"
  # shellcheck disable=SC2086
  if clang-tidy -p "$dir" $files --quiet; then
    echo "==> [clang-tidy] OK"
  else
    echo "==> [clang-tidy] findings reported" >&2
    if [ "${TAMP_TIDY_WERROR:-0}" = "1" ]; then
      FAILURES=$((FAILURES + 1))
    fi
  fi
}

if [ "$ANALYZE_ONLY" = "1" ]; then
  analyze_stage
else
  full_build_stage "release" "$REPO_ROOT/build-check-release" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  bench_gate_stage
  e2e_stage
  clang_tidy_stage
  full_build_stage "asan-ubsan" "$REPO_ROOT/build-check-asan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTAMP_SANITIZE=address,undefined
  tsan_stage
  analyze_stage
fi

if [ "$FAILURES" -gt 0 ]; then
  echo "check.sh: $FAILURES stage(s) failed" >&2
  exit 1
fi
echo "check.sh: all stages passed"
