#!/usr/bin/env python3
"""Paired A/B run of perfbench's hnbench: the working tree against BASE.

    python3 tools/bench_ab.py BASE --workload ur32_sparse --pairs 10

Run from the repository root. BASE is any commit-ish of this repository.
Its sources are exported with `git archive` (local git only, no network)
into build/bench_ab/<sha>/, and hnbench is built in Release from BASE and
from the working tree, each in its own build directory under
build/bench_ab/. Then --pairs pairs run on one pinned CPU. A pair is one
`hnbench setup` and one `hnbench run` per side, and the side that goes
first alternates from pair to pair.

For sim_cycles_per_s, peak_rss_mb and setup_s it prints each side's
median and quartiles (and for sim_cycles_per_cpu_s, the same window over
the run process's user plus system CPU time), the change/base ratio of the medians and the number
of pairs the change won. setup_s is, per pair, the median over one setup
process's builds, as in perfbench/run.py. It also reports whether both
sides simulated the same statistics and simulated end-to-end metrics. It uses perfbench/run.py's helpers
and writes nothing under perfbench/.
"""
import argparse
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "build" / "bench_ab"

sys.dont_write_bytecode = True  # importing perfbench/run.py must not write there
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402

# (name, better, value of one pair's run and setup results)
METRICS = (
    ("sim_cycles_per_s", "higher",
     lambda r, s: r["window_cycles"] / r["wall_s"]),
    # Host time steal inflates wall time but not the CPU time the process
    # was charged, so this row is the steadier speed reading.
    ("sim_cycles_per_cpu_s", "higher",
     lambda r, s: r["window_cycles"] / r["cpu_s"]),
    ("peak_rss_mb", "lower", lambda r, s: r["peak_rss_mb"]),
    ("setup_s", "lower",
     lambda r, s: statistics.median(int(ns) for ns in s["setup_ns"]) * 1e-9),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export_base(rev):
    """Extract BASE's tree once; returns (short sha, source directory)."""
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                        rev + "^{commit}"], capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"bench_ab: unknown revision {rev!r}")
    sha = r.stdout.strip()[:12]
    src = OUT / sha
    if not (src / "perfbench" / "CMakeLists.txt").exists():
        src.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        tar = subprocess.run(["tar", "-x", "-C", str(src)],
                             stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or tar.returncode != 0:
            sys.exit(f"bench_ab: could not export {sha}")
    return sha, src


def build(src, name):
    """Release hnbench from the tree at `src`; returns its path."""
    out = OUT / (name + "-build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(src / "perfbench"), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "--target", "hnbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            sys.exit(f"bench_ab: building hnbench for {name} failed")
    return out / "hnbench"


def one_side(exe, args):
    setup = perfbench.hnbench(exe, "setup", args.workload, args.seed,
                              ["--reps", str(perfbench.SETUP_CHUNK[args.workload])])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = perfbench.hnbench(exe, "run", args.workload, args.seed)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if setup is None or result is None:
        sys.exit("bench_ab: an hnbench process failed")
    result["cpu_s"] = (after.ru_utime - before.ru_utime +
                       after.ru_stime - before.ru_stime)
    return result, setup


def simulated(r):
    """What must agree between the sides: statistics and simulated metrics."""
    return perfbench.sim_stats(r), [r.get(k) for k in perfbench.SIMULATED]


def spread(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", metavar="BASE", help="commit-ish to compare against")
    ap.add_argument("--workload", required=True, choices=perfbench.WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sha, base_src = export_base(args.base)
    exes = {"base": build(base_src, sha), "change": build(ROOT, "working-tree")}
    perfbench.pin_to_one_cpu()

    rows = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            rows[side].append(one_side(exes[side], args))
        log(f"pair {i + 1}/{args.pairs} done ({order[0]} first)")

    same = all(simulated(b) == simulated(c)
               for (b, _), (c, _) in zip(rows["base"], rows["change"]))
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs: "
          f"working tree against {sha}")
    print(f"{'metric':20} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'ratio':>7} {'wins':>6}")
    for name, better, value in METRICS:
        base = [value(r, s) for r, s in rows["base"]]
        change = [value(r, s) for r, s in rows["change"]]
        wins = sum((c > b) if better == "higher" else (c < b)
                   for b, c in zip(base, change))
        cols = []
        for xs in (base, change):
            q1, med, q3 = spread(xs)
            cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        ratio = statistics.median(change) / statistics.median(base)
        print(f"{name:20} {cols[0]:>32} {cols[1]:>32} {ratio:7.3f} "
              f"{wins:>3}/{args.pairs}")
    print("simulated statistics and metrics: " +
          ("identical in every pair" if same else "DIFFER between the sides"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
