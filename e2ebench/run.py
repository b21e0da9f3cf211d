#!/usr/bin/env python3
"""End-to-end benchmark of RFN's production path, with a per-layer ledger.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program and the
e2ebench binary from source (Release) into .bench_build/; later runs reuse
that build. Each pass is one fresh e2ebench process, so peak RSS is per pass;
passes repeat while another one should end within --seconds (always at
least one).

Every workload's inputs are fixed: --seed is accepted and printed on the
report lines, but changes nothing (README.md, "The seed").

--trace 0 reports the end-to-end metrics. --trace 1 runs an untraced pass
and a traced pass and reports the per-layer metrics: span self time rolled
up per span name, layer counters, and the tracing overhead.

Every verdict is checked against its known answer and every conclusive
verdict's certificate must be discharged. A wrong verdict, a refuted
certificate, a changed coverage count or a traced pass whose span ring
overwrote events exits 1 without a result. The last stdout line is the
result object; the lines before it are a human-readable report, including
fail_ratio and the serve cold/warm split.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "e2ebench"
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD_DIR / "e2ebench"

WORKLOADS = ("aiger_mutex", "serve_repeat", "coverage_iu")

# Set-up-only processes per --trace 0 run, besides the passes. setup_s is the
# median of every set-up time they and the passes record, so no single
# process's heap and cache state decides it.
SETUP_PROCS = 5
# One pass may not outlive the run's own 180 s limit.
PASS_TIMEOUT_S = 170

# Known answers, per design, in design output order. The builtin rows are
# the verdicts tests/corpus/baseline.json records for the AIGER exports of
# the same builtins (fifo.aag, processor.aig, iu.aag, usb.aig); the test
# suite keeps the two in step.
EXPECTED_VERDICTS = {
    "processor@paper": "TF",  # bad_mutex holds, error_flag fails
    "processor@small": "TF",  # the same properties at smoke-test size
    "builtin:fifo": "FFTTT",
    "builtin:processor": "TFTF",
    "builtin:iu": "FFFFFFT",
    "builtin:usb": "F" * 28 + "T",
}
# Coverage sets: (unreachable, reachable) of 1,024 states. The unreachable
# counts are EXPERIMENTS.md Table 2's.
EXPECTED_COVERAGE = {"IU1": (1003, 21), "IU5": (992, 32)}

CONCLUSIVE = ("T", "F")

# Per-layer metrics: name -> unit. Order groups them by layer.
LAYER_UNITS = {
    # bdd / mc
    "self.bdd.reorder_s": "s", "self.bdd.image_s": "s",
    "bdd.reorderings": "count", "bdd.gc_runs": "count",
    "bdd.peak_live_nodes.max": "count", "bdd.heap_bytes.max": "bytes",
    "bdd.cache_hit_ratio": "ratio", "mc.reach.image_steps": "count",
    # aiger / api
    "load_s": "s",
    # hybrid + atpg
    "self.hybrid.walk_s": "s", "self.atpg.comb_s": "s", "self.atpg.seq_s": "s",
    "self.concretize_s": "s", "hybrid.atpg_calls": "count",
    "hybrid.atpg_rejects": "count", "hybrid.mincut_cubes": "count",
    "atpg.comb.backtracks": "count", "atpg.comb.aborts": "count",
    "atpg.seq.backtracks": "count", "atpg.seq.aborts": "count",
    # refine / CEGAR loop
    "self.refine_s": "s", "rfn.iterations": "count",
    "rfn.abstract_regs.max": "count", "rfn.refined_registers": "count",
    # portfolio / sat / pdr
    "portfolio.jobs_launched": "count", "portfolio.jobs_cancelled": "count",
    "portfolio.useful_ratio": "ratio", "self.sat.bmc_s": "s",
    "self.pdr.run_s": "s", "sat.conflicts": "count", "pdr.obligations": "count",
    # session
    "session.cluster_runs": "count", "session.cluster_fallbacks": "count",
    "session.clustered_verdicts": "count",
    "session.subcircuit_memo.hit_ratio": "ratio", "session.order_seeded": "count",
    # cert
    "cert.build.seconds": "s", "cert.check.seconds": "s", "cert.clauses": "count",
    # serve
    "serve.cold_s": "s", "serve.warm_s": "s", "serve.overhead_s": "s",
    "serve.warm_hits": "count", "serve.warm_bytes": "bytes",
    # coverage
    "coverage.iterations": "count", "coverage.abstract_regs": "count",
    # the tracer itself
    "trace.overhead_s": "s",
}

# Span names whose self time is a per-layer metric ("self.<span>_s").
SELF_SPANS = ("bdd.reorder", "bdd.image", "hybrid.walk", "atpg.comb",
              "atpg.seq", "concretize", "refine", "sat.bmc", "pdr.run")

# Counters copied through unchanged (names as MetricsSnapshot flattens them).
COPIED = [n for n, u in LAYER_UNITS.items()
          if not n.startswith(("self.", "serve.", "coverage.", "trace."))
          and u != "ratio" and n != "load_s"]


class BenchError(Exception):
    """A wrong answer or a broken run: reported, never timed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the e2ebench binary (incremental after the first)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("program sources not found next to e2ebench/ "
                         "(run from the root of a full checkout)")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_pass(workload, trace, smoke=False, setup_only=False):
    """One fresh e2ebench process; returns its measurement document."""
    cmd = [str(BINARY), "--workload", workload, "--trace", "1" if trace else "0",
           "--smoke", "1" if smoke else "0",
           "--setup-only", "1" if setup_only else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"e2ebench exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- correctness --------------------------------------------------------------

def check_pass(doc):
    """Checks every answer in one pass.

    Returns (attempted, failed): properties requested and those left Unknown
    or resource-out; for coverage, states and unclassified states. Raises
    BenchError on a wrong verdict, an undischarged certificate, a changed
    coverage count, or a traced pass whose span ring overwrote events.
    """
    attempted = failed = 0
    for req in doc["requests"]:
        rid = f"{doc['workload']}/{req['id']}"
        if not req["ok"]:
            raise BenchError(f"{rid}: request failed: {req['error']}")
        expected = EXPECTED_VERDICTS.get(req["design"], "")
        conclusive = 0
        for prop in req["properties"]:
            attempted += 1
            if prop["index"] >= len(expected):
                raise BenchError(f"{rid}: no known answer for {prop['name']}")
            got, want = prop["verdict"], expected[prop["index"]]
            if got not in CONCLUSIVE:
                failed += 1
            elif got != want:
                raise BenchError(f"{rid}: {prop['name']} answered {got}, "
                                 f"expected {want}")
            else:
                conclusive += 1
        if req["cert_failed"] != 0 or req["cert_ok"] != conclusive:
            raise BenchError(f"{rid}: {req['cert_ok']} of {conclusive} "
                             f"certificates discharged, {req['cert_failed']} "
                             "refuted")
    for cov in doc["coverage"]:
        want_u, want_r = EXPECTED_COVERAGE[cov["set"]]
        u, r, unknown = cov["unreachable"], cov["reachable"], cov["unknown"]
        attempted += cov["total"]
        failed += unknown
        if u + r + unknown != cov["total"] or u > want_u or r > want_r or (
                unknown == 0 and (u, r) != (want_u, want_r)):
            raise BenchError(f"{cov['set']}: {u} unreachable / {r} reachable "
                             f"/ {unknown} unknown, expected {want_u} / "
                             f"{want_r} / 0")
    if doc.get("dropped_events", 0) != 0:
        raise BenchError(f"traced pass dropped {doc['dropped_events']} span "
                         "events: enlarge the span ring")
    if attempted == 0:
        raise BenchError(f"{doc['workload']}: the pass answered nothing")
    return attempted, failed


def fail_ratio(attempted, failed):
    """Share of requested properties (or coverage states) left unanswered."""
    return failed / attempted


# --- metrics ------------------------------------------------------------------

def rollup_self_time(folded):
    """Self seconds per span name from prof::folded_stacks output.

    Each line is "thread;outer;...;span <self-microseconds>"; the last frame
    is the span the self time belongs to.
    """
    out = {}
    for line in folded.splitlines():
        if not line.strip():
            continue
        stack, _, us = line.rpartition(" ")
        name = stack.rsplit(";", 1)[-1]
        out[name] = out.get(name, 0.0) + int(us) * 1e-6
    return out


def serve_split(doc):
    """(cold_s, warm_s, overhead_s) summed over a pass's served requests."""
    cold = sum(r["latency_s"] for r in doc["requests"] if r["phase"] == "cold")
    warm = sum(r["latency_s"] for r in doc["requests"] if r["phase"] == "warm")
    overhead = sum(r["latency_s"] - r["response_s"] for r in doc["requests"]
                   if r["phase"] in ("cold", "warm"))
    return cold, warm, overhead


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(untraced, traced):
    """The per-layer ledger of one (untraced, traced) pass pair."""
    m = traced["metrics"]
    spans = rollup_self_time(traced["folded"])
    out = {f"self.{s}_s": spans.get(s, 0.0) for s in SELF_SPANS}
    out.update({n: m.get(n, 0.0) for n in COPIED})
    out["bdd.cache_hit_ratio"] = ratio(m.get("bdd.cache_hits", 0.0),
                                       m.get("bdd.cache_lookups", 0.0))
    wins = sum(v for k, v in m.items() if k.startswith("portfolio.wins."))
    out["portfolio.useful_ratio"] = ratio(wins, m.get("portfolio.jobs_launched", 0.0))
    hits = m.get("session.subcircuit_memo.hits", 0.0)
    out["session.subcircuit_memo.hit_ratio"] = ratio(
        hits, hits + m.get("session.subcircuit_memo.misses", 0.0))
    out["load_s"] = untraced["load_s"]
    cold, warm, overhead = serve_split(untraced)
    out["serve.cold_s"], out["serve.warm_s"] = cold, warm
    out["serve.overhead_s"] = overhead
    served = [r for r in untraced["requests"] if r["phase"] in ("cold", "warm")]
    out["serve.warm_hits"] = float(sum(1 for r in served if r["warm_hit"]))
    out["serve.warm_bytes"] = float(served[-1]["warm_bytes"]) if served else 0.0
    cov = traced["coverage"]
    out["coverage.iterations"] = float(sum(c["iterations"] for c in cov))
    out["coverage.abstract_regs"] = float(max((c["abstract_regs"] for c in cov),
                                              default=0))
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return out, spans


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- main ---------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        build()
        start = time.monotonic()
        passes, attempted, failed = [], 0, 0
        while True:
            began = time.monotonic()
            pair = [run_pass(args.workload, trace=False)]
            if args.trace:
                pair.append(run_pass(args.workload, trace=True))
            for doc in pair:
                a, f = check_pass(doc)
                attempted, failed = attempted + a, failed + f
            passes.append(pair)
            # Start another pass only if it should end within --seconds.
            now = time.monotonic()
            if now - start + (now - began) > args.seconds:
                break
        setups = [s for p in passes for s in p[0]["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_PROCS):
                setups += run_pass(args.workload, trace=False,
                                   setup_only=True)["setup_s"]
    except (BenchError, OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log(f"e2ebench: {e}")
        return 1

    untraced = [p[0] for p in passes]
    for i, doc in enumerate(untraced):
        cold, warm, _ = serve_split(doc)
        serve = f" cold_s={cold:.3f} warm_s={warm:.3f}" if cold else ""
        print(f"{args.workload} seed={args.seed} pass {i}: "
              f"setup_s={statistics.median(doc['setup_s']):.4f} "
              f"wall_s={doc['wall_s']:.3f} cpu_s={doc['cpu_s']:.3f} "
              f"peak_rss_mb={doc['peak_rss_mb']:.1f}{serve}")
    print(f"{args.workload}: fail_ratio={fail_ratio(attempted, failed):.4f} "
          f"({failed} of {attempted} unanswered)")

    if args.trace:
        ledgers = [layer_metrics(p[0], p[1]) for p in passes]
        metrics = {n: metric(statistics.median(l[0][n] for l in ledgers), u)
                   for n, u in LAYER_UNITS.items()}
        spans = ledgers[-1][1]
        total = sum(spans.values()) or 1.0
        for name, s in sorted(spans.items(), key=lambda kv: -kv[1])[:12]:
            print(f"  span {name:<24} self {s:9.3f} s  {100 * s / total:5.1f}%")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(median_of(untraced, "wall_s"), "s"),
            "cpu_s": metric(median_of(untraced, "cpu_s"), "s"),
            "peak_rss_mb": metric(median_of(untraced, "peak_rss_mb"), "MB"),
        }
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
