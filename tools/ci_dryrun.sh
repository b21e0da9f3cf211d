#!/usr/bin/env bash
# Local dry-run of .github/workflows/ci.yml — same jobs, same commands —
# for machines without act or network access.
#
#   tools/ci_dryrun.sh            one matrix cell (gcc Release) + TSan +
#                                 bench gate + corpus gate + gate self-checks
#   tools/ci_dryrun.sh --full     the whole matrix and both sanitizers
#   tools/ci_dryrun.sh --step NAME BUILD_DIR
#                                 one CI step against an existing build
#                                 (BUILD_DIR relative to the repo root):
#                                 the sanitize job's sat, pdr, certs,
#                                 tsan-suites, serve, budget-out or mem-out,
#                                 the bench-gate job's run-traces, shipped,
#                                 bench or prof-gate, the serve job's serve,
#                                 or the corpus job's corpus. ci.yml calls
#                                 every one of them; the job sections below
#                                 call them too, so each is written once.
#
# Cells whose toolchain is absent locally (clang, ccache) are skipped with a
# notice instead of failing: the hosted workflow installs them itself.
set -euo pipefail
cd "$(dirname "$0")/.."

note() { printf '\n=== %s ===\n' "$*"; }

# --- sanitize-job steps (ci.yml calls them through --step) -----------------
# Each takes the build directory. Both sanitizer builds run sat, pdr and
# certs; TSan also runs the two resource-out steps.

step_sat() { # SAT suite + a budgeted, certified bdd+sat run
  "$1/tests/sat_test"
  "$1/tools/rfn" verify builtin:processor --bad error_flag \
    --engine bdd,sat --budget-ms 5000 --certify
}

step_pdr() { # PDR suite + budgeted, certified bdd+sat+pdr runs per builtin
  "$1/tests/pdr_test"
  local spec design prop
  for spec in "fifo bad_full_q" "processor bad_mutex" "iu iu0" "usb bad_se1"; do
    read -r design prop <<<"$spec"
    "$1/tools/rfn" verify "builtin:$design" --bad "$prop" \
      --engine bdd,sat,pdr --budget-ms 10000 --certify
  done
}

step_certs() { # witnesses of both polarities, each re-checked by rfn_check
  local spec design args cert
  for spec in "fifo --bad bad_full_q --bad bad_af_q --bad bad_hf_q" \
              "processor --bad bad_mutex --bad error_flag" \
              "iu --bad bad_dec --bad iu0" "usb --bad bad_se1 --bad usb1_0"; do
    read -r design args <<<"$spec"
    # $args unquoted on purpose: it splits into the --bad flags.
    "$1/tools/rfn" verify "builtin:$design" $args --cert-dir "$1/certs-$design"
    for cert in "$1/certs-$design"/*.cert.json; do
      "$1/tools/rfn_check" "$cert" "builtin:$design"
    done
  done
}

# The concurrency suites, re-run by name under TSan so a test-discovery
# hiccup can never silently drop them.
step_tsan_suites() {
  local t
  for t in portfolio_test session_test netlist_fuzz_test trace_span_test \
           prof_test sat_test serve_test pdr_test; do
    "$1/tests/$t"
  done
}

# rfn_serve booted for real: three tenants replayed through one connection.
# The repeats must show warm_cache.hits > 0 (a resident server that reloads
# cold every time is just a slow CLI), an oversubscribed request must be
# rejected by name, and the captured session log is re-validated by
# trace_report --serve. Under TSan the same boot watches the accept loop,
# connection threads, fair-share queue, executor workers and warm-cache
# lease hand-off, which all race by design.
step_serve() {
  local sock="/tmp/rfn-serve-$$.sock" serve_pid
  "$1/tools/rfn_serve" --socket "$sock" --workers 2 --admit-mem-mb 512 &
  serve_pid=$!
  for _ in $(seq 100); do [[ -S "$sock" ]] && break; sleep 0.1; done
  python3 tools/serve_replay.py --socket "$sock" \
    --log "$1/serve-session.jsonl" --shutdown
  wait "$serve_pid"
  python3 tools/trace_report.py --serve "$1/serve-session.jsonl" \
    | tee "$1/serve-report.txt"
  grep -Eq 'warm_hits=[1-9]' "$1/serve-report.txt"
}

# Budgeted runs must degrade to resource-out — exit exactly 1, never a
# sanitizer abort, an OOM kill or a hang — with the trip in their traces.
# A 1 MiB RSS budget is below any live process's footprint.
expect_resource_out() { # <command...>
  local rc=0
  "$@" || rc=$?
  if [[ $rc != 1 ]]; then
    echo "ci_dryrun: budgeted run exited $rc (expected 1: resource-out)" >&2
    return 1
  fi
}
step_budget_out() {
  expect_resource_out "$1/tools/rfn" verify tests/data/slow24.v --bad bad \
    --budget-ms 300 --trace-spans "$1/tsan-spans.json"
  python3 tools/trace_report.py "$1/tsan-spans.json" | grep budget_trip
}
step_mem_out() { # plus one profiled run whose rfn-prof-v1 artifact is checked
  expect_resource_out "$1/tools/rfn" verify tests/data/slow24.v --bad bad \
    --budget-mem-mb 1 --trace-json "$1/tsan-mem-trace.jsonl"
  grep -q '"reason":"mem-budget"' "$1/tsan-mem-trace.jsonl"
  "$1/tools/rfn" verify tests/data/demo.v --bad bad_q \
    --prof-json "$1/tsan-prof.json" --prof-folded "$1/tsan-prof.folded"
  python3 tools/trace_report.py --prof "$1/tsan-prof.json"
}

# --- bench-gate-job steps (ci.yml calls them through --step) ---------------
# Each takes the build directory and leaves its artifacts there.

# Span + event traces of the committed demo design, recorded before the gate
# so a failing gate still leaves a profile behind (CI uploads it).
step_run_traces() {
  "$1/tools/rfn" verify tests/data/demo.v --bad bad_q \
    --trace-spans "$1/run-spans.json" --trace-json "$1/run-trace.jsonl"
  python3 tools/trace_report.py "$1/run-spans.json"
  python3 tools/trace_report.py --batch "$1/run-trace.jsonl"
}

# Every shipped design's property suite through one session each. Exit 0
# requires every verdict conclusive (the processor suite contains
# intentionally VIOLATED properties) and every one turned into an rfn-cert-v1
# witness via --cert-dir, each re-checked by the independent rfn_check
# binary. The rfn-trace-v2 and rfn-prof-v1 artifacts are re-validated by
# trace_report.py, including the CPU bound (races run on one thread, so
# engine CPU stays within race wall x slack).
step_shipped() {
  local spec design args cert
  for spec in "fifo --bad bad_full_q --bad bad_af_q --bad bad_hf_q" \
              "processor --bad bad_mutex --bad error_flag" \
              "iu --bad bad_dec --bad iu0 --bad iu1 --bad iu2 --bad iu3 --bad iu4" \
              "usb --bad bad_se1 --bad usb1_0 --bad usb1_1 --bad usb2_0 --bad usb2_1"; do
    read -r design args <<<"$spec"
    # $args unquoted on purpose: it splits into the --bad flags.
    "$1/tools/rfn" verify "builtin:$design" $args \
      --trace-json "$1/batch-$design.jsonl" --cert-dir "$1/certs-$design" \
      --prof-json "$1/prof-$design.json"
    python3 tools/trace_report.py --batch "$1/batch-$design.jsonl"
    python3 tools/trace_report.py --prof "$1/prof-$design.json"
    for cert in "$1/certs-$design"/*.cert.json; do
      "$1/tools/rfn_check" "$cert" "builtin:$design"
    done
  done
}

# A gate that cannot fail gates nothing: `rejects WHAT <gate command...>`
# fails when the gate accepts the injected regression WHAT.
rejects() {
  local what=$1; shift
  if "$@"; then
    echo "ci_dryrun: gate accepted $what" >&2
    return 1
  fi
}

# Release bench run diffed against the checked-in BENCH_portfolio.json, then
# a synthetic +25% regression must fail the same gate.
step_bench() {
  "$1/bench/micro_engines" --benchmark_filter='Portfolio|SatBmc' \
    --json "$1/bench-current.json"
  python3 tools/bench_gate.py --baseline BENCH_portfolio.json \
    --current "$1/bench-current.json"
  python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1] + "/bench-current.json"))
for b in doc["benchmarks"]:
    b["real_seconds_per_iter"] *= 1.25
json.dump(doc, open(sys.argv[1] + "/bench-regressed.json", "w"))
EOF
  rejects "a 25% regression" python3 tools/bench_gate.py \
    --baseline "$1/bench-current.json" --current "$1/bench-regressed.json"
}

# Subsystem peak bytes vs BENCH_prof.json. The arena capacities of this
# profile are run-to-run identical, so the gate's 25% tolerance only absorbs
# allocator doubling granularity, not noise; an injected byte regression
# must fail it.
step_prof_gate() {
  "$1/tools/rfn" verify builtin:processor --bad bad_mutex \
    --bad error_flag --engine bdd,sat --prof-json "$1/prof-current.json"
  python3 tools/trace_report.py --prof "$1/prof-current.json"
  python3 tools/bench_gate.py --prof-baseline BENCH_prof.json \
    --prof-current "$1/prof-current.json"
  python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1] + "/prof-current.json"))
bdd = doc["subsystems"]["bdd"]
bdd["peak_bytes"] = int(bdd["peak_bytes"] * 1.5)
json.dump(doc, open(sys.argv[1] + "/prof-regressed.json", "w"))
EOF
  rejects "an injected byte regression" python3 tools/bench_gate.py \
    --prof-baseline BENCH_prof.json --prof-current "$1/prof-regressed.json"
}

# The committed AIGER corpus through batch sessions, every certificate
# re-checked by rfn_check, the rfn-corpus-v2 summary schema-checked and
# gated against the checked-in baseline (verdict flips, certification
# regressions and missing entries fail; wall time, engine wins and the
# per-file RSS/CPU fields do not); an injected verdict flip must fail it.
step_corpus() {
  python3 tools/corpus_run.py --cli "$1/tools/rfn" --check "$1/tools/rfn_check" \
    --corpus tests/corpus --out "$1/corpus-current.json"
  python3 tools/trace_report.py --corpus "$1/corpus-current.json"
  python3 tools/bench_gate.py --corpus-baseline tests/corpus/baseline.json \
    --corpus-current "$1/corpus-current.json"
  python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1] + "/corpus-current.json"))
prop = doc["files"][0]["properties"][0]
prop["verdict"] = "F" if prop["verdict"] == "T" else "T"
json.dump(doc, open(sys.argv[1] + "/corpus-flipped.json", "w"))
EOF
  rejects "an injected verdict flip" python3 tools/bench_gate.py \
    --corpus-baseline tests/corpus/baseline.json \
    --corpus-current "$1/corpus-flipped.json"
}

STEPS="sat pdr certs tsan-suites serve budget-out mem-out run-traces shipped bench prof-gate corpus"
if [[ "${1:-}" == "--step" ]]; then
  if [[ $# == 3 && " $STEPS " == *" $2 "* ]]; then
    "step_${2//-/_}" "$3"
    exit 0
  fi
  echo "usage: $0 --step ${STEPS// /|} BUILD_DIR" >&2
  exit 2
fi

FULL=0
[[ "${1:-}" == "--full" ]] && FULL=1

LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

build_and_test() { # <dir> <extra cmake args...>
  local dir=$1; shift
  cmake -B "$dir" -S . "$@" "${LAUNCHER_ARGS[@]}" >/dev/null
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

# --- job: build-test matrix -------------------------------------------------
matrix_cells=("gcc Release")
if [[ $FULL == 1 ]]; then
  matrix_cells=("gcc Debug" "gcc Release" "clang Debug" "clang Release")
fi
for cell in "${matrix_cells[@]}"; do
  read -r compiler build_type <<<"$cell"
  cxx=$([[ $compiler == gcc ]] && echo g++ || echo clang++)
  if ! command -v "$cxx" >/dev/null 2>&1; then
    note "build-test ($cell): SKIPPED ($cxx not installed locally)"
    continue
  fi
  note "build-test ($cell)"
  build_and_test "build-ci-$compiler-$build_type" \
    -DCMAKE_BUILD_TYPE="$build_type" \
    -DCMAKE_C_COMPILER="$compiler" -DCMAKE_CXX_COMPILER="$cxx"
done

# --- job: sanitize ----------------------------------------------------------
sanitizers=(thread)
[[ $FULL == 1 ]] && sanitizers=(thread "address,undefined")
for san in "${sanitizers[@]}"; do
  note "sanitize ($san)"
  dir="build-ci-sanitize-${san//,/-}"
  # Same cells as ci.yml: ASan+UBSan also bounds-checks the containers.
  cxxflags=$([[ $san == thread ]] && echo "" || echo "-D_GLIBCXX_ASSERTIONS")
  build_and_test "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRFN_SANITIZE="$san" \
    -DCMAKE_CXX_FLAGS="$cxxflags"
  note "sanitize ($san): SAT engine suite + budgeted bdd+sat run"
  step_sat "$dir"
  note "sanitize ($san): PDR suite + budgeted bdd+sat+pdr certify runs"
  step_pdr "$dir"
  note "sanitize ($san): certificates checked by rfn_check"
  step_certs "$dir"
  if [[ $san == thread ]]; then
    note "sanitize (thread): concurrency suites"
    step_tsan_suites "$dir"
    note "sanitize (thread): serve daemon boot + replay"
    step_serve "$dir"
    note "sanitize (thread): budgeted resource-out run"
    step_budget_out "$dir"
    note "sanitize (thread): memory-budget resource-out run"
    step_mem_out "$dir"
  fi
done

# --- job: bench-gate --------------------------------------------------------
note "bench-gate"
cmake -B build-ci-bench -S . -DCMAKE_BUILD_TYPE=Release "${LAUNCHER_ARGS[@]}" >/dev/null
cmake --build build-ci-bench -j "$(nproc)" --target micro_engines rfn_cli rfn_check

note "bench-gate: trace tooling self-check"
python3 tools/trace_report.py --self-check

note "bench-gate: record run traces"
step_run_traces build-ci-bench
note "bench-gate: verification of the shipped designs"
step_shipped build-ci-bench

note "bench-gate: portfolio benches + gate self-check"
step_bench build-ci-bench
note "bench-gate: prof gate against BENCH_prof.json + self-check"
step_prof_gate build-ci-bench

# --- job: serve smoke -------------------------------------------------------
note "serve smoke"
cmake --build build-ci-bench -j "$(nproc)" --target rfn_serve serve_test
./build-ci-bench/tests/serve_test
step_serve build-ci-bench

# --- job: corpus ------------------------------------------------------------
note "corpus gate + self-check"
step_corpus build-ci-bench

echo
echo "ci_dryrun: all jobs green"
