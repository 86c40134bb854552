#!/usr/bin/env python3
"""Steadiness report for the benchmark: is a metric's spread inside its bound?

    # run every workload of BENCHMARK.json once per seed for run_seconds,
    # print every end-to-end metric with its unit and the correctness
    # verdict, and save the raw results
    python3 perfbench/steadiness.py collect --seeds 1-10 --out set_a.json
    # median, quartiles and IQR/median of every end-to-end metric
    python3 perfbench/steadiness.py report set_a.json [--save summary.json]
    # do two sets of runs of the same code agree within the bounds?
    python3 perfbench/steadiness.py compare set_a.json set_b.json
    # do the held-out seed's simulated metrics stay within the bounds of
    # the development seeds' medians?
    python3 perfbench/steadiness.py heldout set_a.json heldout.json

Run from the repository root. Bounds come from BENCHMARK.json. `report`
marks a spread above a third of its bound as "wide" and above the bound
as "FAIL".
`compare` fails a metric whose second median is worse than the first by
more than its bound. Both warn when the sets carry different machine stamps.
The development seeds are 1-10; the held-out seed is 1009 (NOTES.md).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIMULATED = {"avg_latency_cycles", "energy_pj_per_flit", "cpu_ipc",
             "gpu_txn_per_cycle"}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    s = spec()
    runs = []
    for w in (w["name"] for w in s["workloads"]):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(s["run_seconds"]), "--trace", "0"]
            r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or len(lines) < 2:
                sys.exit(f"run.py failed on {w} seed {seed}: {r.stderr[-500:]}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(r.stderr[-2000:], file=sys.stderr)
            runs.append({"workload": w, "seed": seed,
                         "stamp": json.loads(lines[-2])["stamp"],
                         "result": result})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
            for name, m in result["metrics"].items():
                print(f"  {name:20} {m['value']:.6g} {m['unit']}", flush=True)
            Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")


def load(path):
    return json.loads(Path(path).read_text())


def by_workload(runs):
    out = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(
                m["value"])
    return out


def spread(values):
    """(median, q1, q3, IQR/median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def stamps_warning(*sets):
    stamps = {json.dumps({k: v for k, v in r["stamp"].items()
                          if k not in ("commit", "source_digest")},
                         sort_keys=True)
              for runs in sets for r in runs}
    if len(stamps) > 1:
        print("WARNING: the runs come from different machines or builds:",
              *sorted(stamps), sep="\n  ")


def failures(runs):
    return [f"{r['workload']} seed {r['seed']}" for r in runs
            if not r["result"]["correct"] or r["result"]["failed"]]


def report(args):
    runs = load(args.results)
    stamps_warning(runs)
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    bad = failures(runs)
    summary = {}
    print(f"{'workload':12} {'metric':20} {'n':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for w, metrics in by_workload(runs).items():
        for name, values in metrics.items():
            med, q1, q3, rel = spread(values)
            bound = bounds[name]
            verdict = ("" if rel <= bound / 3 else
                       "wide" if rel <= bound else "FAIL")
            if verdict == "FAIL":
                bad.append(f"{w}/{name}")
            print(f"{w:12} {name:20} {len(values):3d} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {rel:8.4f} {bound:6.3f} {verdict}")
            summary.setdefault(w, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "iqr_over_median": rel}
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"stamp": runs[0]["stamp"], "seeds": sorted({r["seed"] for r in runs}),
             "summary": summary}, indent=1) + "\n")
    return report_end(bad)


def report_end(bad):
    if bad:
        print("not steady:", ", ".join(bad))
        return 1
    print("steady")
    return 0


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def compare(args):
    a, b = load(args.first), load(args.second)
    stamps_warning(a, b)
    bad = failures(a) + failures(b)
    ma, mb = by_workload(a), by_workload(b)
    print(f"{'workload':12} {'metric':20} {'median A':>14} {'median B':>14} "
          f"{'worse':>8} {'bound':>6}")
    for m in spec()["end_to_end"]:
        for w in ma:
            if m["name"] not in ma[w] or m["name"] not in mb.get(w, {}):
                bad.append(f"{w}/{m['name']} missing")
                continue
            x = statistics.median(ma[w][m["name"]])
            y = statistics.median(mb[w][m["name"]])
            d = worse_by(m, x, y)
            verdict = "FAIL" if d > m["bound"] else ""
            if verdict:
                bad.append(f"{w}/{m['name']}")
            print(f"{w:12} {m['name']:20} {x:14.6g} {y:14.6g} {d:8.4f} "
                  f"{m['bound']:6.3f} {verdict}")
    return report_end(bad)


def heldout(args):
    dev, held = load(args.dev), load(args.heldout)
    stamps_warning(dev, held)
    bad = failures(held)
    md, mh = by_workload(dev), by_workload(held)
    for m in spec()["end_to_end"]:
        if m["name"] not in SIMULATED:
            continue
        for w in mh:
            x = statistics.median(md[w][m["name"]])
            for y in mh[w][m["name"]]:
                d = abs(y - x) / x
                verdict = "FAIL" if d > m["bound"] else ""
                if verdict:
                    bad.append(f"{w}/{m['name']}")
                print(f"{w:12} {m['name']:20} dev {x:12.6g} held-out "
                      f"{y:12.6g} off {d:7.4f} bound {m['bound']:5.3f} "
                      f"{verdict}")
    return report_end(bad)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--out", required=True)
    r = sub.add_parser("report")
    r.add_argument("results")
    r.add_argument("--save", help="write the stamp and the figures as JSON")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    h = sub.add_parser("heldout")
    h.add_argument("dev")
    h.add_argument("heldout")
    args = ap.parse_args()
    if args.cmd == "collect":
        return collect(args)
    return {"report": report, "compare": compare, "heldout": heldout}[
        args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
