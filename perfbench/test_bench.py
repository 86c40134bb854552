#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py            # all, about two minutes
    python3 perfbench/test_bench.py SpecTest   # BENCHMARK.json only

Run from the repository root. The run tests build hnbench on first use and
run every workload briefly in both modes.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics each workload is documented to move (NOTES.md): they
# must read non-zero there. The others may read 0.
POWER = ["power.buffer_pj_per_flit", "power.cs_pj_per_flit",
         "power.crossbar_pj_per_flit", "power.arbiter_pj_per_flit",
         "power.clock_pj_per_flit", "power.link_pj_per_flit",
         "power.static_share", "power.vc_active_frac"]
CYCLE = POWER + [
    "noc.tick_ns_per_cycle.p50", "noc.tick_ns_per_cycle.p99", "trace.batches",
    "noc.send_ns_per_packet", "noc.dispatches_per_cycle", "noc.build_s",
    "noc.flits_in_flight.mean", "traffic.generate_ns_per_cycle",
    "traffic.packets_per_kcycle", "tdm.slot_table_reads_per_flit",
    "sim.unattributed_ns_per_cycle", "sim.latency_p99_cycles"]
MOVES = {
    "ur8_sat": CYCLE + ["noc.inject_queue_depth.mean",
                        "noc.inject_queue_depth.max"],
    "ur32_sparse": CYCLE,
    "hetero_mix": POWER + [
        "noc.dispatches_per_cycle", "noc.inject_queue_depth.mean",
        "noc.inject_queue_depth.max", "trace.batches",
        "tdm.setups_sent", "tdm.setup_failures", "tdm.setup_success_ratio",
        "tdm.cs_flit_fraction", "tdm.config_flit_fraction",
        "tdm.hitchhike_packets", "tdm.vicinity_packets",
        "tdm.hitchhike_bounces", "tdm.ps_steals", "tdm.valid_slot_entries",
        "tdm.active_connections", "tdm.active_slots",
        "tdm.slot_table_reads_per_flit", "hetero.build_s",
        "hetero.tick_ns_per_cycle.p50", "hetero.tick_ns_per_cycle.p99",
        "hetero.outstanding_txns.mean", "hetero.outstanding_txns.max",
        "sim.unattributed_ns_per_cycle"],
    "fast_ur32": POWER + ["tdm.slot_table_reads_per_flit",
                          "fastmodel.ns_per_packet",
                          "fastmodel.rss_growth_mb",
                          "sim.latency_p99_cycles"],
}


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SpecTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertIn(SPEC["run_seconds"], range(1, 61))

    def test_names_and_units(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_moved_metrics_are_per_layer(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(set(MOVES), set(run.WORKLOADS))
        for w, moved in MOVES.items():
            self.assertLessEqual(set(moved), names, w)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_bounds(self):
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        for m in e2e.values():
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})


class RunTest(unittest.TestCase):
    def check_result(self, proc, catalogue, nonzero):
        """`nonzero`: the metric names that must not read 0."""
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        self.assertIn("stamp", json.loads(lines[-2]))
        res = json.loads(lines[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], proc.stderr[-2000:])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in catalogue])
        for m in catalogue:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if m["name"] in nonzero:
                self.assertNotEqual(got["value"], 0, m["name"])

    def test_every_workload_emits_every_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w, trace=0):
                p = bench("--workload", w, "--seed", "1", "--seconds", "1",
                          "--trace", "0")
                self.check_result(p, SPEC["end_to_end"],
                                  {m["name"] for m in SPEC["end_to_end"]})
            with self.subTest(workload=w, trace=1):
                p = bench("--workload", w, "--seed", "1", "--seconds", "1",
                          "--trace", "1")
                self.check_result(p, SPEC["per_layer"], set(MOVES[w]))

    def test_forced_check_failure_raises_failed(self):
        for trace in ("0", "1"):
            with self.subTest(trace=trace):
                p = bench("--workload", "hetero_mix", "--seed", "1",
                          "--seconds", "1", "--trace", trace, "--force-fail")
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                res = result_of(p)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)

    def test_fails_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no simulator to
        # build, so no result and a non-zero exit.
        iso = ROOT / ".bench_build" / "isolated"
        shutil.rmtree(iso, ignore_errors=True)
        (iso / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", iso)
        for f in (ROOT / "perfbench").iterdir():
            if f.is_file():
                shutil.copy(f, iso / "perfbench")
        try:
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            p = bench("--workload", "ur8_sat", "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=iso, env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(iso, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
