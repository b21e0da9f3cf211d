"""Tests of the e2ebench harness.

    python3 -m unittest discover -s e2ebench/tests

The arithmetic tests run on fixed inputs. The smoke tests build the e2ebench
binary (into .bench_build/, like a benchmark run) and run every workload's
request shape at the generators' small sizes.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402


def verify_doc(verdicts, design="processor@paper", cert_ok=None):
    props = [{"name": f"p{i}", "index": i, "verdict": v, "iterations": 1,
              "seconds": 0.1} for i, v in enumerate(verdicts)]
    conclusive = sum(v in "TF" for v in verdicts)
    return {"workload": "aiger_mutex", "coverage": [], "requests": [{
        "id": "r", "design": design, "phase": "single", "latency_s": 1.5,
        "response_s": 1.0, "ok": True, "error": "",
        "cert_ok": conclusive if cert_ok is None else cert_ok,
        "cert_failed": 0, "warm_hit": False, "warm_bytes": 0,
        "properties": props}]}


def coverage_doc(rows):
    return {"workload": "coverage_iu", "requests": [], "coverage": [
        {"set": s, "total": 1024, "unreachable": u, "reachable": r,
         "unknown": 1024 - u - r, "iterations": 3, "abstract_regs": 7}
        for s, u, r in rows]}


class RollupTest(unittest.TestCase):
    def test_self_time_per_span_name(self):
        folded = ("main;session.run;rfn.run;bdd.reorder 1500\n"
                  "main;session.run;rfn.run 500\n"
                  "worker-1;bdd.reorder 250\n"
                  "main;session.run 0\n\n")
        got = run.rollup_self_time(folded)
        self.assertEqual(set(got), {"bdd.reorder", "rfn.run", "session.run"})
        self.assertAlmostEqual(got["bdd.reorder"], 1750e-6)
        self.assertAlmostEqual(got["rfn.run"], 500e-6)
        self.assertEqual(got["session.run"], 0.0)

    def test_empty_trace(self):
        self.assertEqual(run.rollup_self_time(""), {})


class FailRatioTest(unittest.TestCase):
    def test_arithmetic(self):
        self.assertEqual(run.fail_ratio(4, 0), 0.0)
        self.assertAlmostEqual(run.fail_ratio(2048, 24), 24 / 2048)

    def test_unknown_verdicts_count_as_failed(self):
        doc = verify_doc("T?", design="processor@paper")
        self.assertEqual(run.check_pass(doc), (2, 1))

    def test_resource_out_counts_as_failed(self):
        doc = verify_doc(["T", "resource-out"])
        self.assertEqual(run.check_pass(doc), (2, 1))

    def test_unclassified_states_count_as_failed(self):
        self.assertEqual(run.check_pass(coverage_doc([("IU1", 1003, 21)])),
                         (1024, 0))
        self.assertEqual(run.check_pass(coverage_doc([("IU1", 1000, 20)])),
                         (1024, 4))


class CheckPassTest(unittest.TestCase):
    def test_wrong_verdict_is_rejected(self):
        with self.assertRaisesRegex(run.BenchError, "answered F, expected T"):
            run.check_pass(verify_doc("FF"))

    def test_answer_without_known_verdict_is_rejected(self):
        with self.assertRaisesRegex(run.BenchError, "no known answer"):
            run.check_pass(verify_doc("TF", design="builtin:unknown"))
        with self.assertRaisesRegex(run.BenchError, "no known answer"):
            run.check_pass(verify_doc("TFT"))

    def test_refuted_certificate_is_rejected(self):
        doc = verify_doc("TF")
        doc["requests"][0]["cert_failed"] = 1
        with self.assertRaisesRegex(run.BenchError, "refuted"):
            run.check_pass(doc)

    def test_missing_certificate_is_rejected(self):
        with self.assertRaises(run.BenchError):
            run.check_pass(verify_doc("TF", cert_ok=1))

    def test_changed_coverage_count_is_rejected(self):
        with self.assertRaisesRegex(run.BenchError, "IU5"):
            run.check_pass(coverage_doc([("IU1", 1003, 21), ("IU5", 993, 31)]))

    def test_overclassified_partial_coverage_is_rejected(self):
        with self.assertRaises(run.BenchError):
            run.check_pass(coverage_doc([("IU1", 1004, 0)]))

    def test_overwritten_span_ring_is_rejected(self):
        doc = verify_doc("TF")
        doc["dropped_events"] = 3
        with self.assertRaisesRegex(run.BenchError, "span ring"):
            run.check_pass(doc)

    def test_builtin_verdicts_match_corpus_baseline(self):
        root = Path(__file__).resolve().parents[2]
        baseline = json.loads((root / "tests/corpus/baseline.json").read_text())
        recorded = {f["file"]: "".join(p["verdict"] for p in f["properties"])
                    for f in baseline["files"]}
        for builtin, export in (("fifo", "fifo.aag"),
                                ("processor", "processor.aig"),
                                ("iu", "iu.aag"), ("usb", "usb.aig")):
            self.assertEqual(run.EXPECTED_VERDICTS[f"builtin:{builtin}"],
                             recorded[export], builtin)


class LayerMetricsTest(unittest.TestCase):
    def test_ratios_and_serve_split(self):
        untraced = verify_doc("TF")
        untraced.update(wall_s=10.0, load_s=0.25)
        req = untraced["requests"][0]
        cold, warm = copy.deepcopy(req), copy.deepcopy(req)
        cold.update(phase="cold", latency_s=3.0, response_s=2.5,
                    warm_bytes=100)
        warm.update(phase="warm", latency_s=1.0, response_s=0.75,
                    warm_hit=True, warm_bytes=120)
        untraced["requests"] = [cold, warm]
        traced = copy.deepcopy(untraced)
        traced.update(wall_s=10.5, folded="main;refine 2000000\n", metrics={
            "bdd.cache_hits": 3.0, "bdd.cache_lookups": 4.0,
            "portfolio.jobs_launched": 8.0, "portfolio.wins.bdd-reach": 2.0,
            "portfolio.wins.guided-atpg": 4.0, "rfn.iterations": 5.0,
            "session.subcircuit_memo.hits": 1.0,
            "session.subcircuit_memo.misses": 3.0})
        got, spans = run.layer_metrics(untraced, traced)
        self.assertEqual(set(got), set(run.LAYER_UNITS))
        self.assertEqual(spans, {"refine": 2.0})
        self.assertEqual(got["self.refine_s"], 2.0)
        self.assertEqual(got["self.bdd.reorder_s"], 0.0)
        self.assertEqual(got["bdd.cache_hit_ratio"], 0.75)
        self.assertEqual(got["portfolio.useful_ratio"], 0.75)
        self.assertEqual(got["session.subcircuit_memo.hit_ratio"], 0.25)
        self.assertEqual(got["rfn.iterations"], 5.0)
        self.assertEqual((got["serve.cold_s"], got["serve.warm_s"]), (3.0, 1.0))
        self.assertEqual(got["serve.overhead_s"], 0.75)
        self.assertEqual(got["serve.warm_hits"], 1.0)
        self.assertEqual(got["serve.warm_bytes"], 120.0)
        self.assertEqual(got["load_s"], 0.25)
        self.assertEqual(got["trace.overhead_s"], 0.5)

    def test_zero_denominators(self):
        doc = coverage_doc([("IU1", 1003, 21)])
        doc.update(wall_s=1.0, load_s=0.0)
        traced = dict(doc, wall_s=1.25, folded="", metrics={})
        got, _ = run.layer_metrics(doc, traced)
        self.assertEqual(got["bdd.cache_hit_ratio"], 0.0)
        self.assertEqual(got["portfolio.useful_ratio"], 0.0)
        self.assertEqual(got["coverage.iterations"], 3.0)
        self.assertEqual(got["coverage.abstract_regs"], 7.0)


class SmokeTest(unittest.TestCase):
    """Every workload's request shape, end to end at small sizes."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def run_smoke(self, workload, trace=False):
        doc = run.run_pass(workload, trace=trace, smoke=True)
        attempted, failed = run.check_pass(doc)
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, 0)
        self.assertGreater(len(doc["setup_s"]), 1)
        self.assertTrue(all(s > 0.0 for s in doc["setup_s"]))
        self.assertGreater(doc["wall_s"], 0.0)
        self.assertGreater(doc["peak_rss_mb"], 0.0)
        return doc

    def test_aiger_mutex(self):
        doc = self.run_smoke("aiger_mutex")
        self.assertEqual([r["id"] for r in doc["requests"]], ["bad_mutex"])
        self.assertGreater(doc["load_s"], 0.0)

    def test_serve_repeat(self):
        doc = self.run_smoke("serve_repeat")
        self.assertEqual([(r["design"], r["phase"]) for r in doc["requests"]],
                         [("builtin:fifo", "cold"), ("builtin:fifo", "warm"),
                          ("builtin:processor", "cold"),
                          ("builtin:processor", "warm")])
        self.assertEqual([r["warm_hit"] for r in doc["requests"]],
                         [False, True, False, True])
        # Design output order.
        for r in doc["requests"]:
            self.assertEqual([p["index"] for p in r["properties"]],
                             list(range(len(r["properties"]))))
        self.assertIn("rfn.iterations", doc["metrics"])

    def test_setup_only_stops_before_the_timed_section(self):
        doc = run.run_pass("coverage_iu", trace=False, smoke=True,
                           setup_only=True)
        self.assertGreater(len(doc["setup_s"]), 1)
        self.assertEqual((doc["requests"], doc["coverage"]), ([], []))
        self.assertEqual(doc["wall_s"], 0.0)

    def test_coverage_iu(self):
        doc = self.run_smoke("coverage_iu")
        self.assertEqual([c["set"] for c in doc["coverage"]], ["IU1", "IU5"])

    def test_traced_pass_feeds_the_ledger(self):
        untraced = self.run_smoke("aiger_mutex")
        traced = self.run_smoke("aiger_mutex", trace=True)
        self.assertEqual(traced["dropped_events"], 0)
        got, spans = run.layer_metrics(untraced, traced)
        self.assertEqual(set(got), set(run.LAYER_UNITS))
        self.assertGreater(spans.get("rfn.run", 0.0), 0.0)
        self.assertGreater(got["rfn.iterations"], 0.0)
        self.assertGreater(got["cert.check.seconds"], 0.0)


if __name__ == "__main__":
    unittest.main()
