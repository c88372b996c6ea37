#!/usr/bin/env bash
# Full verification gate, in order:
#
#   lint      burst-lint over the tree — both tiers: the per-file rules and
#             the whole-program analyses (layer-dag against
#             scripts/lint/layers.json, lock-order, error-flow) — with the
#             JSON RunReport written next to the bench reports and gated on
#             self_check, like every bench; then both lint self-test suites
#             (per-file rules + program analyses).
#   tidy      clang-tidy with the pinned .clang-tidy check list over
#             compile_commands.json (scripts/run_clang_tidy.sh configures
#             the build tree when the database is missing; the gate shows
#             "skip" when clang-tidy is not installed).
#   build     configure + build everything Release with -DBURST_WERROR=ON:
#             the tree must compile warning-clean under
#             -Wall -Wextra -Wshadow -Wconversion -Werror.
#   test      full ctest suite (includes the header-hygiene target and the
#             python gate self-tests), plus an explicit perf-labeled leg.
#   chaos     chaos-labeled tests (ctest -L chaos): the 32-seed injected-
#             failure sweeps over serving and distributed prefill, asserting
#             one typed outcome per request and byte-identical replay.
#   transport transport-labeled tests (ctest -L transport): the conformance
#             suite run over both comm backends (sim + TCP sockets) and the
#             dist_ring_tcp multi-process smoke at 2 and 4 ranks, plus an
#             explicit 4-process example run from this script.
#   asan      ASan+UBSan build (-DBURST_SANITIZE=address,undefined) running
#             the full suite minus slow-labeled tests.
#   quant     quantized-parity leg (ctest -L quant): the dtype conformance
#             suite and the quantized model/serve tests, run explicitly in
#             the Release build and again under ASan+UBSan — the block
#             codecs and dequantizing microkernels do raw byte-stream
#             walks, so parity must also hold with the sanitizers watching.
#   tsan      TSan build (-DBURST_SANITIZE=thread) running the threaded
#             suites: test_thread_pool, test_kernel_determinism,
#             test_serve_decode, test_serve_engine, test_api_server,
#             test_api_scheduler, test_dist_model and test_gqa (the
#             distributed step's rank threads share one kernel pool),
#             test_transport_conformance (SocketTransport's mesh build runs
#             accept/connect threads; the socket-backed cases put them under
#             TSan), test_sweep and test_failure_injection (ring-sweep
#             payloads are shared read-only across rank threads, and fault
#             injection clones or shares them in flight), test_dist_attention
#             and test_ulysses_usp (every sweep visit runs its heads under a
#             parallel_for, issued from concurrent rank threads),
#             test_resilience and test_serve_resilience (every recovery
#             supervisor unwinds aborted rank threads through the shared
#             supervisor loop), test_ops, test_optimizer and test_rope
#             (the elementwise passes, Adam and the RoPE angle tables split
#             large tensors over the pool; selected as Ops|Adam|Rope), and
#             test_comm_bytes (multi-rank training steps, the kernel pool
#             inside rank threads; selected as CommBytes).
#   bench     bench fleet with the RunReport self_check gate, then the
#             regression gate against the committed BENCH_baseline.json
#             (gated metrics may not fall more than 10% below baseline).
#
# Usage: scripts/verify.sh [--skip-lint] [--skip-tidy] [--skip-asan]
#                          [--skip-tsan] [--skip-bench] [--skip-perf]
#                          [--skip-chaos] [--skip-transport] [--skip-quant]
# Env:   BUILD_DIR (default build-verify), ASAN_BUILD_DIR (default
#        build-asan), TSAN_BUILD_DIR (default build-tsan), JOBS (default
#        nproc), BURST_REPORT_DIR (default: fresh mktemp -d, removed on exit;
#        set it to keep the lint/bench RunReports).
set -uo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-verify}
ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}
JOBS=${JOBS:-$(nproc)}
RUN_LINT=1
RUN_TIDY=1
RUN_ASAN=1
RUN_TSAN=1
RUN_BENCH=1
RUN_PERF=1
RUN_CHAOS=1
RUN_TRANSPORT=1
RUN_QUANT=1
for arg in "$@"; do
  case "$arg" in
    --skip-lint) RUN_LINT=0 ;;
    --skip-tidy) RUN_TIDY=0 ;;
    --skip-asan) RUN_ASAN=0 ;;
    --skip-tsan) RUN_TSAN=0 ;;
    --skip-bench) RUN_BENCH=0 ;;
    --skip-perf) RUN_PERF=0 ;;
    --skip-chaos) RUN_CHAOS=0 ;;
    --skip-transport) RUN_TRANSPORT=0 ;;
    --skip-quant) RUN_QUANT=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [[ -n ${BURST_REPORT_DIR:-} ]]; then
  report_dir=$BURST_REPORT_DIR
  mkdir -p "$report_dir"
else
  report_dir=$(mktemp -d)
  trap 'rm -rf "$report_dir"' EXIT
fi

# Per-gate results for the summary table: "pass" / "FAIL" / "skip".
declare -A gate_status
for g in lint tidy build test perf chaos transport asan quant tsan bench; do
  gate_status[$g]=skip
done
overall=0

# run_gate NAME CMD... — record pass/FAIL, keep going so the summary shows
# every gate's outcome, but remember any failure for the final exit code.
run_gate() {
  local name=$1
  shift
  if "$@"; then
    gate_status[$name]=pass
  else
    gate_status[$name]=FAIL
    overall=1
  fi
}

check_run_report() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
path, name = sys.argv[1], sys.argv[2]
try:
    with open(path) as f:
        rep = json.load(f)
except (OSError, json.JSONDecodeError) as e:
    sys.exit(f"FAIL: {name} wrote no parseable RunReport: {e}")
if rep.get("schema") != "burst.run_report" or rep.get("version") != 1:
    sys.exit(f"FAIL: {name} RunReport has wrong schema/version")
if rep.get("self_check") is not True:
    bad = [c["what"] for c in rep.get("checks", []) if not c.get("ok")]
    sys.exit(f"FAIL: {name} self_check is false: {bad}")
EOF
}

# ---- lint ------------------------------------------------------------------
lint_gate() {
  local report="$report_dir/burst_lint.json"
  python3 scripts/lint/burst_lint.py --json "$report" || return 1
  check_run_report "$report" burst_lint || return 1
  python3 scripts/lint/test_burst_lint.py || return 1
  python3 scripts/lint/test_program_analysis.py || return 1
}
if [[ $RUN_LINT -eq 1 ]]; then
  echo "== lint (burst-lint rules + whole-program analyses + self-tests)"
  run_gate lint lint_gate
fi

# ---- clang-tidy (own gate row; "skip" when the tool is not installed) ------
if [[ $RUN_TIDY -eq 1 ]]; then
  if command -v "${CLANG_TIDY:-clang-tidy}" >/dev/null 2>&1; then
    echo "== clang-tidy (pinned check list over compile_commands.json)"
    run_gate tidy scripts/run_clang_tidy.sh "$BUILD_DIR"
  else
    echo "== clang-tidy not installed; tidy gate skipped"
  fi
fi

# ---- build (warning-clean under -Werror) -----------------------------------
build_gate() {
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
        -DBURST_WERROR=ON >/dev/null &&
  cmake --build "$BUILD_DIR" -j "$JOBS"
}
echo "== configure + build (${BUILD_DIR}, Release, -Werror)"
run_gate build build_gate
if [[ ${gate_status[build]} == FAIL ]]; then
  echo "verify: build failed; skipping test/bench gates" >&2
  RUN_BENCH=0
  RUN_PERF=0
else
  echo "== ctest"
  run_gate test ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
  if [[ $RUN_PERF -eq 1 ]]; then
    echo "== perf-labeled tests (ctest -L perf)"
    run_gate perf ctest --test-dir "$BUILD_DIR" --output-on-failure -L perf
  fi
  if [[ $RUN_CHAOS -eq 1 ]]; then
    echo "== chaos-labeled tests (ctest -L chaos)"
    run_gate chaos ctest --test-dir "$BUILD_DIR" --output-on-failure -L chaos
  fi
  if [[ $RUN_TRANSPORT -eq 1 ]]; then
    echo "== transport gate (ctest -L transport + 4-process TCP example)"
    transport_gate() {
      ctest --test-dir "$BUILD_DIR" --output-on-failure -L transport &&
      "$BUILD_DIR"/examples/dist_ring_tcp 4
    }
    run_gate transport transport_gate
  fi
fi

# ---- sanitizers ------------------------------------------------------------
asan_gate() {
  cmake -B "$ASAN_BUILD_DIR" -S . -DBURST_SANITIZE=address,undefined \
        >/dev/null &&
  cmake --build "$ASAN_BUILD_DIR" -j "$JOBS" &&
  ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -j "$JOBS" -LE slow
}
if [[ $RUN_ASAN -eq 1 ]]; then
  echo "== ASan+UBSan build + full suite minus slow (${ASAN_BUILD_DIR})"
  run_gate asan asan_gate
fi

# ---- quantized parity (dtype suite, Release + ASan) ------------------------
quant_gate() {
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L quant || return 1
  if [[ $RUN_ASAN -eq 1 && -d $ASAN_BUILD_DIR ]]; then
    ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -L quant || return 1
  fi
}
if [[ $RUN_QUANT -eq 1 && ${gate_status[build]} == pass ]]; then
  echo "== quantized-parity leg (ctest -L quant, Release + ASan)"
  run_gate quant quant_gate
fi

tsan_gate() {
  cmake -B "$TSAN_BUILD_DIR" -S . -DBURST_SANITIZE=thread >/dev/null &&
  cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" \
        --target test_thread_pool test_kernel_determinism test_serve_decode \
                 test_serve_engine test_api_server test_api_scheduler \
                 test_dist_model test_gqa test_transport_conformance \
                 test_sweep test_failure_injection test_dist_attention \
                 test_ulysses_usp test_resilience test_serve_resilience \
                 test_ops test_optimizer test_rope test_comm_bytes &&
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$JOBS" \
        -R 'ThreadPool|ParallelFor|Scheduler|KernelDeterminism|ServeDecode|ServeEngine|ApiServer|SloEngine|Admission|DistModel|GqaDist|TransportConformance|SocketTransportSmoke|SweepRoute|ActivationSweep|GradientSweep|SweepTiming|ZeroCopySweep|FailureInjection|DistAttention|Ulysses|Usp|FaultPlan|ResilienceTest|ServeResilience|ServeDegrade|ServeSnapshot|ResilientPrefill|Ops|Adam|Rope|CommBytes'
}
if [[ $RUN_TSAN -eq 1 ]]; then
  echo "== TSan build + threaded suites (${TSAN_BUILD_DIR})"
  run_gate tsan tsan_gate
fi

# ---- bench fleet + regression gate -----------------------------------------
bench_gate() {
  local fail=0 bench name args report
  for bench in "$BUILD_DIR"/bench/*; do
    [[ -f $bench && -x $bench ]] || continue
    name=$(basename "$bench")
    args=()
    case "$name" in
      # Microbenchmarks: one tiny repetition each; the RunReport gate is
      # what we verify here, not the timings (the regression gate below
      # uses the benches' own best-of-N sections, which ignore min_time).
      bench_micro_*) args=(--benchmark_min_time=0.01) ;;
    esac
    echo "-- $name"
    report="$report_dir/$name.json"
    if ! BURST_RUN_REPORT="$report" "$bench" "${args[@]}" >/dev/null; then
      echo "FAIL: $name exited non-zero" >&2
      fail=1
      continue
    fi
    check_run_report "$report" "$name" || fail=1
  done
  if [[ $RUN_PERF -eq 1 ]]; then
    echo "== bench-regression gate (BENCH_baseline.json)"
    python3 scripts/bench_compare.py BENCH_baseline.json \
      micro_gemm="$report_dir/bench_micro_gemm.json" \
      micro_kernels="$report_dir/bench_micro_kernels.json" \
      serving_slo="$report_dir/bench_serving_slo.json" \
      serving_chaos="$report_dir/bench_serving_chaos.json" || fail=1
  fi
  return $fail
}
if [[ $RUN_BENCH -eq 1 ]]; then
  echo "== bench fleet (RunReport self_check gate)"
  run_gate bench bench_gate
fi

# ---- summary ---------------------------------------------------------------
echo
echo "== verify summary"
printf '   %-9s %s\n' gate result
for g in lint tidy build test perf chaos transport asan quant tsan bench; do
  printf '   %-9s %s\n' "$g" "${gate_status[$g]}"
done
if [[ $overall -ne 0 ]]; then
  echo "verify: FAILED (see table above)" >&2
  exit 1
fi
echo "== verify: all gates passed"
