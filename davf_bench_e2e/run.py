#!/usr/bin/env python3
"""davf-bench-e2e: end-to-end and per-layer benchmark of DelayAVF.

One run of one workload, from the root of a source checkout:

    python3 davf_bench_e2e/run.py --workload sweep_thread --seed 1 \
        --seconds 20 --trace 0

builds the harness (davf_bench_e2e/CMakeLists.txt) into .bench_build/,
runs it, checks the outputs, prints every metric with its unit, and
prints as its last line one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. The exit code is 0 when the run is correct, 1 when the
correctness gate fails, and 2 when the benchmark cannot run at all.

Many runs, one table (median and quartile spread per metric):

    python3 davf_bench_e2e/run.py --summary 10

--short shrinks every workload to a smoke size (self-test only; its
figures are not comparable). --perturb-reference flips one digit of
the correctness reference, so the gate must fail. README.md describes
the workloads, the metrics, and the layers they measure.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
WORK_DIR = ROOT / ".bench_build" / "work"
HARNESS = BUILD_DIR / "davf_bench_e2e"

WORKLOADS = ("sweep_thread", "sweep_process", "sweep_net", "query_mix")

# (name, unit): reported with --trace 0, on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit): reported with --trace 1, on every workload. Layer times
# that only one workload exercises are printed, not listed here (see
# README.md, "Per-layer metrics").
PER_LAYER = (
    ("core.golden_capture_s", "s"),
    ("core.snapshots_s", "s"),
    ("core.groupace_s", "s"),
    ("core.group_sims", "count"),
    ("core.vector.lanes_used", "count"),
    ("core.vector.lane_capacity", "count"),
    ("core.vector.lane_occupancy", "ratio"),
    ("core.memo_hits_group", "count"),
    ("core.sweep_verdict_reuse", "count"),
    ("engine.injections", "count"),
    ("tsim.timed_sim_s", "s"),
    ("tsim.vec_tsim_s", "s"),
    ("tsim.lane_occupancy", "ratio"),
    ("tsim.cone_reuse", "count"),
    ("tsim.ctx_reuse", "count"),
    ("timing.sta_filter_s", "s"),
    ("timing.sta_reuse", "count"),
    ("campaign.dispatches", "count"),
    ("campaign.retries", "count"),
    ("net.dispatches", "count"),
    ("net.redispatches", "count"),
    ("net.local_fallbacks", "count"),
    ("service.hit_ratio", "ratio"),
    ("store.memory_hits", "count"),
    ("store.disk_hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.index.probes_per_lookup", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
)

# Printed by the runs of the workloads that exercise the layer.
SPECIFIC_UNITS = {
    "injections_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_miss_p50_ms": "ms",
    "query_hit_p50_ms": "ms",
    "query_hit_p95_ms": "ms",
    "error_rate": "ratio",
    "query_samples": "queries",
    "campaign.cell_s": "s",
    "core.worker_golden_capture_s": "s",
    "campaign.dispatch_s": "s",
    "campaign.shard_wall_ms.p50": "ms",
    "net.node_ready_s": "s",
    "net.dispatch_s": "s",
    "net.shard_wall_ms.p50": "ms",
    "service.lookup_s": "s",
    "service.compute_s": "s",
    "service.aggregate_s": "s",
    "store.open_s": "s",
}

WARMUP_POLICY = ("none: every repetition builds a fresh Workspace and "
                 "times one cold pass on it, as each davf_run invocation "
                 "or davf_serve start pays")

# One sweep cell is cycles x wires injections (harness.cc sampling).
CELL_INJECTIONS = {False: 8 * 400, True: 2 * 40}
SWEEP_STRUCTURES = {"sweep_thread": 2, "sweep_process": 1, "sweep_net": 1}
SWEEP_DELAYS = {False: 9, True: 2}


class BenchError(Exception):
    """The benchmark cannot run (exit 2, no result line)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile of @p values (q in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


# --------------------------------------------------------------------
# Build


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no DelayAVF sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "davf_bench_e2e", "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(step))


def cmake_cache(key):
    try:
        text = (BUILD_DIR / "CMakeCache.txt").read_text()
    except OSError:
        return "unknown"
    match = re.search(rf"^{re.escape(key)}:[A-Z]+=(.*)$", text, re.M)
    return match.group(1) if match else "unknown"


def machine_record():
    """What produced these numbers: code, build, host, and load."""
    commit = "unknown (not a git checkout)"
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                 "HEAD"], capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cc", ".hh") or path.name == "CMakeLists.txt":
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True)
        compiler = version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "warmup": WARMUP_POLICY,
    }


# --------------------------------------------------------------------
# Reduction of the harness's raw samples


def counters_delta(after, before):
    out = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            out[name] = delta
    return out


def histograms_delta(after, before):
    """name -> (count, sum) added between two snapshots."""
    out = {}
    for name, hist in after.get("histograms", {}).items():
        old = before.get("histograms", {}).get(name, {})
        count = hist["count"] - old.get("count", 0)
        if count:
            out[name] = (count, hist["sum"] - old.get("sum", 0))
    return out


def worker_snapshots(directory):
    """Registry snapshots the traced workers wrote at quit."""
    if not directory or not os.path.isdir(directory):
        return []
    return [json.loads(Path(directory, name).read_text())
            for name in sorted(os.listdir(directory))
            if name.endswith(".json")]


def merged_counters(snapshots):
    counters = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return counters


def span_durations_ms(trace_path, name):
    try:
        events = json.loads(Path(trace_path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError):
        return []
    return [e["dur"] / 1e3 for e in events if e.get("name") == name]


def scheduler_latency_s(stats_list, stage):
    """Sum of a scheduler stage histogram (bin midpoints), in seconds."""
    total_ms = 0.0
    for stats in stats_list:
        for b in stats["latency_ms"][stage].get("bins", []):
            total_ms += (b["lo"] + b["hi"]) / 2.0 * b["n"]
    return total_ms / 1e3


def pass_layers(raw, p):
    """Per-layer figures of one traced pass (parent + its workers)."""
    c = counters_delta(p["registry_after"], p["registry_before"])
    for name, value in merged_counters(
            worker_snapshots(p["worker_metrics_dir"])).items():
        c[name] = c.get(name, 0) + value
    setup = counters_delta(p["registry_before"], p["registry_setup"])
    hist = histograms_delta(p["registry_after"], p["registry_before"])

    def ns(name):
        return c.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    lookups, store_probes = hist.get("store.index.probes_per_lookup", (0, 0))
    hits = c.get("service.shard_hits", 0)
    computed = c.get("service.shards_computed", 0)
    layers = {
        # Workers build their own workspace inside the pass; the
        # parent's golden capture happens in the set-up.
        "core.golden_capture_s":
            setup.get("engine.time.golden_capture_ns", 0) / 1e9,
        "core.snapshots_s": ns("engine.time.snapshots_ns"),
        "core.groupace_s": ns("engine.time.groupace_ns"),
        "core.group_sims": c.get("engine.group_sims", 0),
        "core.vector.lanes_used": c.get("engine.vector.lanes_used", 0),
        "core.vector.lane_capacity": c.get("engine.vector.lane_capacity", 0),
        "core.vector.lane_occupancy": ratio(
            c.get("engine.vector.lanes_used", 0),
            c.get("engine.vector.lane_capacity", 0)),
        "core.memo_hits_group": c.get("engine.memo_hits_group", 0),
        "core.sweep_verdict_reuse": c.get("engine.tsim.sweep_verdict_reuse", 0),
        "engine.injections": c.get("engine.injections", 0),
        "tsim.timed_sim_s": ns("engine.time.timed_sim_ns"),
        "tsim.vec_tsim_s": ns("engine.time.vec_tsim_ns"),
        "tsim.lane_occupancy": ratio(c.get("engine.tsim.lanes_used", 0),
                                     c.get("engine.tsim.lane_capacity", 0)),
        "tsim.cone_reuse": c.get("engine.tsim.cone_reuse", 0),
        "tsim.ctx_reuse": c.get("engine.tsim.ctx_reuse", 0),
        "timing.sta_filter_s": ns("engine.time.sta_filter_ns"),
        "timing.sta_reuse": c.get("engine.tsim.sta_reuse", 0),
        "campaign.dispatches": c.get("supervisor.dispatches", 0),
        "campaign.retries": c.get("supervisor.retries", 0),
        "net.dispatches": c.get("net.dispatches", 0),
        "net.redispatches": c.get("net.redispatches", 0),
        "net.local_fallbacks": c.get("net.local_fallbacks", 0),
        "service.hit_ratio": ratio(hits, hits + computed),
        "store.memory_hits": c.get("store.memory_hits", 0),
        "store.disk_hits": c.get("store.disk_hits", 0),
        "store.misses": c.get("store.misses", 0),
        "store.writes": c.get("store.writes", 0),
        "store.index.probes_per_lookup": ratio(store_probes, lookups),
    }
    specific = {}
    if raw["workload"] != "query_mix":
        specific["campaign.cell_s"] = ns("campaign.time.cell_ns")
    if raw["workload"] in ("sweep_process", "sweep_net"):
        # Every worker builds its own workspace inside the pass.
        specific["core.worker_golden_capture_s"] = ns(
            "engine.time.golden_capture_ns")
    if raw["workload"] == "sweep_process":
        specific["campaign.dispatch_s"] = ns("supervisor.time.dispatch_ns")
        specific["campaign.shard_wall_ms.p50"] = median(
            span_durations_ms(p["trace_path"], "supervisor.dispatch"))
    if raw["workload"] == "sweep_net":
        specific["net.dispatch_s"] = ns("net.time.dispatch_ns")
        specific["net.shard_wall_ms.p50"] = median(
            span_durations_ms(p["trace_path"], "net.dispatch"))
    if raw["workload"] == "query_mix":
        # Store lookups are the scheduler's 2 ms-bin histogram, summed
        # at bin midpoints. Its aggregate histogram stops at 50 ms, so
        # the two query kinds are timed from outside: an all-hit query
        # is lookup + aggregation, a query with misses is lookup +
        # compute (whose delayAvf call also aggregates).
        specific["service.lookup_s"] = scheduler_latency_s(
            p["scheduler_stats"], "lookup")
        specific["service.compute_s"] = sum(
            q["latency_ms"] for q in p["queries"] if q["store_misses"]) / 1e3
        specific["service.aggregate_s"] = sum(
            q["latency_ms"] for q in p["queries"]
            if not q["store_misses"]) / 1e3
        specific["store.open_s"] = sum(p["store_open_s"])
    # Engine counts must repeat exactly between the two traced passes
    # (docs/OBSERVABILITY.md: every count but the _ns times is
    # deterministic).
    counts = {k: v for k, v in c.items()
              if k.startswith("engine.") and not k.endswith("_ns")}
    return layers, specific, counts


def reduce(raw, short):
    """Metrics, named workload figures, and the correctness verdict."""
    workload = raw["workload"]
    passes = raw["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    problems = []
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        problems.extend(p["failures"])

    named = {}
    accounting = []
    if workload == "query_mix":
        queries = [q for p in untraced for q in p["queries"]]
        misses = [q["latency_ms"] for q in queries if q["store_misses"]]
        hits = [q["latency_ms"] for q in queries if not q["store_misses"]]
        named["query_miss_p50_ms"] = median(misses)
        named["query_hit_p50_ms"] = median(hits)
        named["query_hit_p95_ms"] = percentile(hits, 95)
        named["queries_per_s"] = median(
            [len(p["queries"]) / p["wall_s"] for p in untraced])
        accounting.append(f"queries failed {failed}/{attempted}")
        named["query_samples"] = f"{len(misses)} miss, {len(hits)} hit"
    else:
        expected_cells = SWEEP_STRUCTURES[workload] * SWEEP_DELAYS[short]
        injections = expected_cells * CELL_INJECTIONS[short]
        references = {p["seed"]: p["reference"] for p in passes
                      if p["reference"]}
        for i, p in enumerate(passes):
            if p["nodes"] < 3 and workload == "sweep_net":
                continue  # Already failed: the fleet never assembled.
            rows = json.loads(p["report"])["results"]
            bad_shape = len(rows) != expected_cells or any(
                r["injections"] != CELL_INJECTIONS[short] for r in rows)
            reference = references.get(p["seed"])
            if bad_shape:
                problem = (f"pass {i}: report has {len(rows)} rows; "
                           f"expected {expected_cells} cells of "
                           f"{CELL_INJECTIONS[short]} injections")
            elif reference and p["report"] != reference:
                problem = (f"pass {i}: report bytes differ from the "
                           f"thread-mode run of seed {p['seed']}")
            else:
                continue
            failed += p["attempted"] - p["failed"]
            problems.append(problem)
        if not references:
            problems.append("no pass was checked against a reference")
        if untraced:
            named["injections_per_s"] = median(
                [injections / p["wall_s"] for p in untraced])
        accounting.append(f"cells failed {failed}/{attempted}")
        if workload == "sweep_process":
            outcomes = []
            for p in passes:
                with open(p["shard_csv"]) as f:
                    outcomes += [line.split(",")[6]
                                 for line in f.read().splitlines()[1:]]
            bad = sum(1 for o in outcomes if o != "ok")
            accounting.append(f"shard attempts not ok {bad}/{len(outcomes)}")
            quarantined = sum(p["quarantined"] for p in passes)
            if quarantined:
                problems.append(f"{quarantined} injections quarantined")
        if workload == "sweep_net":
            exits = [e for p in passes for e in p["node_exits"]]
            bad = sum(1 for e in exits if e != 0)
            accounting.append(f"net nodes exited non-zero {bad}/{len(exits)}")
            if bad:
                problems.append(f"{bad} net node(s) exited non-zero")
            named["net.node_ready_s"] = median(
                [p["node_ready_s"] for p in untraced])
    named["error_rate"] = failed / attempted if attempted else 1.0

    metrics = {}
    if untraced and not raw["trace"]:
        metrics = {
            "setup_s": median(raw["setup_s"]),
            "run_s": median([p["wall_s"] for p in untraced]),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        }
    specific = {}
    if raw["trace"]:
        per_pass = [pass_layers(raw, p) for p in traced]
        layers = {name: median([pl[0][name] for pl in per_pass])
                  for name, _ in PER_LAYER if name != "obs.trace_overhead_frac"}
        for name in per_pass[0][1]:
            specific[name] = median([pl[1][name] for pl in per_pass])
        baseline = median([p["wall_s"] for p in untraced])
        layers["obs.trace_overhead_frac"] = (
            median([p["wall_s"] for p in traced]) / baseline - 1.0)
        metrics = layers
        counts = [pl[2] for pl in per_pass]
        if any(c != counts[0] for c in counts[1:]):
            differing = sorted(k for k in set(counts[0]) | set(counts[1])
                               if counts[0].get(k) != counts[1].get(k))
            problems.append("engine counts differ between the traced "
                            "passes: " + ", ".join(differing))
        if workload != "query_mix" and not short:
            want = SWEEP_STRUCTURES[workload] * 9 * CELL_INJECTIONS[False]
            if layers["engine.injections"] != want:
                problems.append(f"engine.injections "
                                f"{layers['engine.injections']} != {want}")
    correct = failed == 0 and not problems
    return metrics, named, specific, accounting, problems, correct, \
        attempted, failed


# --------------------------------------------------------------------
# One run


def run_repetition(args, index, traced, work, deadline):
    """One repetition in a fresh harness process; its raw samples."""
    work.mkdir(parents=True)
    out = work / "rep.json"
    # Repetition i draws its inputs from seed * 1000 + i; a traced run
    # repeats one seed, so its passes must agree exactly.
    seed = args.seed * 1000 + (0 if args.trace else index)
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(seed),
           "--work", str(work), "--out", str(out)]
    if traced:
        cmd.append("--traced")
    # The first repetition is checked against thread mode (the davf_run
    # rows for query_mix); later ones only by shape, which keeps a run
    # near 30 s.
    if index == 0:
        cmd.append("--reference")
    if args.short:
        cmd.append("--short")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    proc = subprocess.Popen(cmd, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The harness reaps its workers; this catches any it could not.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise BenchError("harness timed out")
    if code != 0:
        raise BenchError(f"harness exited {code}")
    return json.loads(out.read_text())


def run_repetitions(args, work, deadline):
    """At least two repetitions, and more until --seconds have passed,
    as one raw record (a median needs two; a slow host must not make a
    run rest on one)."""
    if args.trace:
        # One untraced repetition as the overhead baseline, then two
        # traced ones whose deterministic counts must agree exactly.
        plan = [False, True, True]
    else:
        plan = []
    reps = []
    started = time.monotonic()
    while plan or (not args.trace and (
            len(reps) < 2 or time.monotonic() - started < args.seconds)):
        traced = plan.pop(0) if plan else False
        reps.append(run_repetition(args, len(reps), traced,
                                   work / f"rep-{len(reps)}", deadline))
    return {
        "workload": args.workload,
        "trace": args.trace,
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_kb": max(r["peak_rss_kb"] for r in reps),
        "passes": [r["pass"] for r in reps],
    }


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_once(args):
    build()
    started = time.monotonic()  # A first run may spend minutes building.
    machine = machine_record()
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        raw = run_repetitions(args, work, started + 170.0)
        machine["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
        (metrics, named, specific, accounting, problems, correct,
         attempted, failed) = reduce(raw, args.short)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"davf-bench-e2e workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}"
          + (" short" if args.short else ""))
    print("machine " + json.dumps(machine, sort_keys=True))
    units = dict(END_TO_END + PER_LAYER, **SPECIFIC_UNITS)
    print(f"repetitions {len(raw['passes'])}: seeds "
          f"{[p['seed'] for p in raw['passes']]}, set-up "
          f"{[round(x, 4) for x in raw['setup_s']]} s, pass "
          f"{[round(p['wall_s'], 4) for p in raw['passes']]} s")
    for name, value in list(metrics.items()) + list(named.items()) \
            + list(specific.items()):
        print(f"  {name:34s} {fmt(value):>14s} {units.get(name, '')}")
    print("failures: " + "; ".join(accounting))
    for problem in problems:
        print("  FAIL " + problem)
    print("correctness: " + ("ok" if correct else "FAILED"))
    print("named-metrics " + json.dumps(
        {k: v for k, v in named.items() if not isinstance(v, str)}))
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if failed or correct else max(failed, 1),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


# --------------------------------------------------------------------
# Many runs


def summary(args):
    """Run every workload args.summary times; print median and spread."""
    ok = True
    table = {}
    for workload in WORKLOADS:
        for seed in range(1, args.summary + 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
            if args.short:
                cmd.append("--short")
            started = time.monotonic()
            result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            elapsed = time.monotonic() - started
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                ok = False
                log(f"{workload} seed {seed}: exit {result.returncode}")
                continue
            final = json.loads(lines[-1])
            ok = ok and final["correct"]
            rows = table.setdefault(workload, {})
            for name, m in final["metrics"].items():
                rows.setdefault((name, m["unit"]), []).append(m["value"])
            for line in lines:
                if line.startswith("named-metrics "):
                    for name, v in json.loads(line[14:]).items():
                        rows.setdefault((name, SPECIFIC_UNITS.get(name, "")),
                                        []).append(v)
            log(f"{workload} seed {seed} ({elapsed:.0f} s): "
                + json.dumps({k: round(v["value"], 4)
                              for k, v in final["metrics"].items()}))
    print(f"{'workload':14s} {'metric':34s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s}  n  unit")
    for workload, rows in table.items():
        for (name, unit), values in rows.items():
            mid = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = mid
            spread = (q3 - q1) / mid if mid else 0.0
            print(f"{workload:14s} {name:34s} {mid:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {len(values):2d}  {unit}")
    print("correctness: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    parser.add_argument("--summary", type=int, default=0, metavar="RUNS")
    args = parser.parse_args()
    try:
        if args.summary:
            return summary(args)
        if not args.workload:
            parser.error("--workload is required")
        return run_once(args)
    except BenchError as error:
        log(f"davf-bench-e2e: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
