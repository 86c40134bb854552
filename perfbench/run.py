#!/usr/bin/env python3
"""Benchmark entry point: build hnbench, run one workload, print metrics.

    python3 perfbench/run.py --workload ur8_sat --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it is the machine stamp. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics. Build
output and progress go to standard error. Exits non-zero without a result
when hnbench cannot be built or BENCHMARK.json is missing.

Untraced runs repeat one-rep hnbench processes for --seconds and report
medians; before each rep a set-up process times a chunk of builds, and
setup_s is the median over all of them. Every process runs on one CPU.
A traced run alternates untraced and traced processes and checks
that each traced run reproduced the untraced simulated statistics exactly.
See perfbench/NOTES.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("ur8_sat", "ur32_sparse", "hetero_mix", "fast_ur32")
# Builds timed before each rep, so set-up is sampled across the whole run
# and its median covers 25-1000 builds. They take about 1% (ur8_sat), 8%
# (ur32_sparse), 0.5% (hetero_mix) and 11% (fast_ur32) of a rep's time.
SETUP_CHUNK = {"ur8_sat": 60, "ur32_sparse": 25, "hetero_mix": 100,
               "fast_ur32": 2}
# Keys of an hnbench result that must agree between runs of one seed: the
# simulated statistics, including all 16 energy counters.
SIM_PREFIX = "stat."
# Simulated end-to-end metrics: exact for a seed, so taken from one rep.
SIMULATED = ("avg_latency_cycles", "energy_pj_per_flit", "cpu_ipc",
             "gpu_txn_per_cycle")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build hnbench; returns its path or None."""
    out = build_dir() / "perfbench"
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every time is cheap, and fails when the build tree was
    # made from other sources.
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "hnbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return None
    exe = out / "hnbench"
    return exe if exe.exists() else None


def source_digest():
    """SHA-256 over the simulator and benchmark sources (names + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    # Only a checkout of its own: git would otherwise search parent
    # directories and report some enclosing repository's commit.
    if not (ROOT / ".git").exists():
        return "none"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def stamp(first_result):
    """Machine and build identity; steadiness.py warns when they differ."""
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "compiler": "gcc " + first_result.get("compiler", "?"),
            "build_type": first_result.get("build_type", "?"),
            "commit": commit(), "source_digest": source_digest()}


def pin_to_one_cpu():
    """Run this process and every hnbench child on one CPU. A single-threaded
    rep that migrates between CPUs refills its caches each time, which
    widened the rep-to-rep spread of the cache-bound workloads."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def hnbench(exe, mode, workload, seed, extra=()):
    """One hnbench process; returns its JSON result, or None on a crash."""
    cmd = [str(exe), mode, "--workload", workload, "--seed", str(seed), *extra]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        log(f"hnbench {mode} timed out")
        return None
    if r.returncode != 0 or not r.stdout.strip():
        log(f"hnbench {mode} exited {r.returncode}: {r.stderr.strip()[-500:]}")
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def sim_stats(result):
    return {k: v for k, v in result.items() if k.startswith(SIM_PREFIX)}


class Tally:
    """attempted/failed operation counts over the run's reps."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def rep(self, result, extra_failures=()):
        if result is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append("crash")
            return
        ops = max(1, int(result.get("ops", 1)))
        bad = list(result["failed_checks"]) + list(extra_failures)
        self.attempted += ops
        if bad:
            self.failed += ops
            self.problems.extend(bad)


def timed_loop(seconds, step):
    """Calls step() until the next call would end after `seconds`, at least
    once, so a run takes --seconds and no more."""
    start = time.monotonic()
    durations = []
    while (not durations or time.monotonic() - start +
           statistics.median(durations) <= seconds):
        t = time.monotonic()
        step()
        durations.append(time.monotonic() - t)


def untraced(exe, args, tally):
    extra = ["--force-fail"] if args.force_fail else []
    chunk = SETUP_CHUNK[args.workload]
    setup_ns, reps = [], []

    def step():
        setup = hnbench(exe, "setup", args.workload, args.seed,
                        ["--reps", str(chunk)])
        got = setup.get("setup_ns", []) if setup else []
        if len(got) != chunk:
            tally.rep(None)
        setup_ns.extend(got)
        r = hnbench(exe, "run", args.workload, args.seed, extra)
        # Every rep of one seed must reproduce rep 0's simulation exactly.
        drift = (["deterministic"] if r and reps and reps[0] and
                 sim_stats(r) != sim_stats(reps[0]) else [])
        tally.rep(r, drift)
        reps.append(r)

    timed_loop(args.seconds, step)
    good = [r for r in reps if r]
    log(f"{args.workload}: {len(reps)} reps, {len(setup_ns)} set-ups")
    if not good or not setup_ns:
        return reps, {}
    med = statistics.median
    values = {
        "setup_s": med(int(ns) for ns in setup_ns) * 1e-9,
        "wall_s": med(r["wall_s"] for r in good),
        "sim_cycles_per_s": med(r["window_cycles"] / r["wall_s"]
                                for r in good),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in good),
    }
    for name in SIMULATED:
        values[name] = good[0][name]
    return reps, values


def traced(exe, args, tally):
    extra = ["--force-fail"] if args.force_fail else []
    pairs = []

    def step():
        order = ("run", "trace") if len(pairs) % 2 == 0 else ("trace", "run")
        got = {m: hnbench(exe, m, args.workload, args.seed, extra)
               for m in order}
        plain, tr = got["run"], got["trace"]
        tally.rep(plain)
        mismatch = []
        if plain and tr:
            a, b = sim_stats(plain), sim_stats(tr)
            mismatch = [f"trace_equal:{k}" for k in sorted(a.keys() | b.keys())
                        if a.get(k) != b.get(k)]
            if tr.get("sim.unattributed_ns_per_cycle", 0) < 0:
                mismatch.append("trace_accounting")
        tally.rep(tr, mismatch)
        pairs.append((plain, tr))

    timed_loop(args.seconds, step)
    good = [(p, t) for p, t in pairs if p and t]
    log(f"{args.workload}: {len(pairs)} traced/untraced pairs")
    if not good:
        return [], {}
    traces = [t for _, t in good]
    values = {}
    for k, v in traces[0].items():
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            # Host times vary per rep: take medians. Simulated values are
            # identical across reps, so the median is that value.
            values[k] = statistics.median(t[k] for t in traces)
    values["trace.overhead_frac"] = (
        statistics.median(t["trace.wall_s"] for t in traces) /
        statistics.median(p["wall_s"] for p, _ in good) - 1.0)
    spans_dir = build_dir() / "perfbench-traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    (spans_dir / f"{args.workload}-seed{args.seed}.json").write_text(
        json.dumps([t["spans"] for t in traces]))
    return traces, values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--force-fail", action="store_true",
                    help="make one correctness check fail (for tests)")
    args = ap.parse_args()
    if args.seed < 1:
        ap.error("--seed must be at least 1")
    # SystemExit unwinds through subprocess.run, which kills and waits for
    # the running child, so a terminated run leaves no process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log("BENCHMARK.json not found at the repository root")
        return 2
    spec = json.loads(spec_path.read_text())
    exe = build()
    if exe is None:
        log("hnbench build failed")
        return 2
    pin_to_one_cpu()

    tally = Tally()
    if args.trace:
        catalogue = spec["per_layer"]
        results, values = traced(exe, args, tally)
    else:
        catalogue = spec["end_to_end"]
        results, values = untraced(exe, args, tally)
    first = next((r for r in results if r), {})
    print(json.dumps({"stamp": stamp(first)}))

    metrics = {}
    for m in catalogue:
        # hnbench writes 0 for the metrics of modules a workload does not
        # run, so a missing name is a fault in the benchmark.
        if m["name"] not in values:
            tally.problems.append(f"missing:{m['name']}")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if tally.problems:
        log("failed checks: " + ", ".join(sorted(set(tally.problems))))
        # A result that cannot be checked counts every operation as failed.
        tally.failed = tally.failed or tally.attempted
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
