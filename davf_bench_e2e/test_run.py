#!/usr/bin/env python3
"""Self-test of davf-bench-e2e.

    python3 davf_bench_e2e/test_run.py              # everything (~1 min)
    python3 davf_bench_e2e/test_run.py Contract Gate  # no build, <1 s

Contract checks BENCHMARK.json against run.py. Gate feeds synthetic
harness output to the correctness gate. ShortRuns builds the harness
and runs every workload in --short mode: every metric must appear with
its unit, a perturbed reference must fail the run, and a directory
holding only the benchmark files must fail without a result.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def report(structures, delays, injections):
    rows = [{"kind": "davf", "structure": s, "d": d,
             "injections": injections}
            for s in structures for d in delays]
    return json.dumps({"schema": "davf-report/v1", "results": rows})


SHORT_THREAD_REPORT = report(["ALU", "Decoder"], [0.3, 0.7], 80)

PASS = {
    "traced": 0, "wall_s": 1.5, "attempted": 4, "failed": 0,
    "seed": 1000, "failures": [], "report": SHORT_THREAD_REPORT,
    "reference": SHORT_THREAD_REPORT, "shard_csv": "",
    "quarantined": 0, "nodes": 0, "node_ready_s": 0.0, "node_exits": [],
    "store_open_s": [], "scheduler_stats": [], "queries": [],
    "worker_metrics_dir": "", "trace_path": "",
}


def raw(workload="sweep_thread", passes=2, trace=0):
    return {
        "workload": workload, "seed": 1, "trace": trace,
        "setup_s": [2.0] * passes, "peak_rss_kb": 40960,
        "passes": [dict(copy.deepcopy(PASS), seed=1000 + i)
                   for i in range(passes)],
    }


def registry(counters):
    return {"schema": "davf-metrics v1", "counters": counters,
            "gauges": {}, "histograms": {}}


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual(spec["command"],
                         ["python3", "davf_bench_e2e/run.py"])
        self.assertEqual(spec["paths"], ["davf_bench_e2e"])
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)
        self.assertEqual(tuple((m["name"], m["unit"])
                               for m in spec["end_to_end"]),
                         run.END_TO_END)
        self.assertEqual(tuple((m["name"], m["unit"])
                               for m in spec["per_layer"]),
                         run.PER_LAYER)
        for metric in spec["end_to_end"]:
            self.assertEqual(metric["better"], "lower")
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class Gate(unittest.TestCase):
    def test_identical_reports_pass(self):
        metrics, *_, correct, attempted, failed = run.reduce(raw(), True)
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (8, 0))
        self.assertEqual(set(metrics), {n for n, _ in run.END_TO_END})

    def test_perturbed_reference_fails(self):
        data = raw()
        for p in data["passes"]:
            p["reference"] = p["reference"].replace("0.3", "0.4", 1)
        *_, problems, correct, _, failed = run.reduce(data, True)
        self.assertFalse(correct)
        self.assertEqual(failed, 8)
        self.assertIn("report bytes differ", problems[0])

    def test_malformed_report_fails(self):
        data = raw(passes=3)
        data["passes"][2]["reference"] = ""
        data["passes"][2]["report"] = report(["ALU", "Decoder"],
                                             [0.3, 0.7], 81)
        *_, correct, _, failed = run.reduce(data, True)
        self.assertFalse(correct)
        self.assertEqual(failed, 4)

    def test_net_fleet_that_never_connects_fails(self):
        data = raw("sweep_net", passes=2)
        data["passes"][0].update(report=report(["ALU"], [0.3, 0.7], 80),
                                 reference=report(["ALU"], [0.3, 0.7], 80),
                                 attempted=2, node_exits=[0, 0, 0],
                                 nodes=3)
        data["passes"][1].update(
            nodes=1, attempted=2, failed=2, report="", reference="",
            failures=["only 1 of 3 net nodes connected"],
            node_exits=[0, 137, 137])
        *_, problems, correct, _, failed = run.reduce(data, True)
        self.assertFalse(correct)
        self.assertEqual(failed, 2)
        self.assertTrue(any("exited non-zero" in p for p in problems))

    def test_mismatched_query_fails(self):
        data = raw("query_mix", passes=1)
        query = {"latency_ms": 5.0, "store_misses": 0, "ok": 1,
                 "matches": 0}
        data["passes"][0].update(
            attempted=1, failed=1, queries=[query],
            failures=["query 0 reply differs from the davf_run rows"])
        *_, correct, attempted, failed = run.reduce(data, True)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (1, 1))

    def test_engine_counts_that_drift_fail(self):
        data = raw(passes=3, trace=1)
        for i, p in enumerate(data["passes"]):
            p["traced"] = int(i > 0)
            p["seed"] = 1000
            p["registry_setup"] = registry({})
            p["registry_before"] = registry(
                {"engine.time.golden_capture_ns": 10})
            p["registry_after"] = registry(
                {"engine.group_sims": 100 + i,
                 "engine.time.groupace_ns": 5 * i})
        metrics, *_, problems, correct, _, _ = run.reduce(data, True)
        self.assertFalse(correct)
        self.assertIn("engine.group_sims", problems[-1])
        self.assertEqual(set(metrics), {n for n, _ in run.PER_LAYER})


class ShortRuns(unittest.TestCase):
    def bench(self, *args, cwd=run.ROOT, script=run.BENCH_DIR / "run.py"):
        result = subprocess.run(
            [sys.executable, str(script), "--seed", "3", "--seconds", "1",
             "--short", *args],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=300)
        return result.returncode, result.stdout.splitlines()

    def check_metrics(self, lines, expected):
        final = json.loads(lines[-1])
        self.assertEqual(set(final), {"correct", "attempted", "failed",
                                      "metrics"})
        self.assertTrue(final["correct"])
        self.assertGreaterEqual(final["attempted"], 1)
        self.assertEqual({n: m["unit"] for n, m in
                          final["metrics"].items()}, dict(expected))
        for name, unit in expected:
            self.assertTrue(any(line.split()[:1] == [name]
                                and line.rstrip().endswith(unit)
                                for line in lines),
                            f"{name} not printed with {unit}")

    def test_every_end_to_end_metric_with_unit(self):
        named = {"sweep_thread": ["injections_per_s"],
                 "sweep_process": ["injections_per_s"],
                 "sweep_net": ["injections_per_s", "net.node_ready_s"],
                 "query_mix": ["query_miss_p50_ms", "query_hit_p50_ms",
                               "query_hit_p95_ms", "queries_per_s"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = self.bench("--workload", workload)
                self.assertEqual(code, 0)
                expected = list(run.END_TO_END) + [
                    (n, run.SPECIFIC_UNITS[n])
                    for n in named[workload] + ["error_rate"]]
                self.check_metrics(lines, run.END_TO_END)
                printed = [line.split()[0] for line in lines
                           if line.startswith("  ")]
                for name, _ in expected:
                    self.assertIn(name, printed)

    def test_every_per_layer_metric_with_unit(self):
        code, lines = self.bench("--workload", "query_mix", "--trace", "1")
        self.assertEqual(code, 0)
        self.check_metrics(lines, run.PER_LAYER)
        printed = [line.split()[0] for line in lines
                   if line.startswith("  ")]
        for name in ("service.lookup_s", "service.compute_s",
                     "service.aggregate_s", "store.open_s"):
            self.assertIn(name, printed)

    def test_gate_fires_on_perturbed_reference(self):
        for workload in ("sweep_thread", "query_mix"):
            with self.subTest(workload=workload):
                code, lines = self.bench("--workload", workload,
                                         "--perturb-reference")
                self.assertEqual(code, 1)
                final = json.loads(lines[-1])
                self.assertFalse(final["correct"])
                self.assertGreater(final["failed"], 0)

    def test_benchmark_files_alone_fail_without_result(self):
        stripped = run.ROOT / ".bench_build" / "stripped"
        shutil.rmtree(stripped, ignore_errors=True)
        stripped.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
            shutil.copytree(run.BENCH_DIR, stripped / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = self.bench(
                "--workload", "sweep_thread", cwd=stripped,
                script=stripped / run.BENCH_DIR.name / "run.py")
            self.assertNotEqual(code, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))
        finally:
            shutil.rmtree(stripped, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
