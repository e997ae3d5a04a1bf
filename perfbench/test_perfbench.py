"""Smoke tests for the perfbench benchmark.

    python3 -m unittest -v test_perfbench      (from this directory)

Each workload runs once plain and once traced at smoke length (one pass
of the suite), through run.py, which builds the binary if needed.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench-work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload the binary runs. BENCHMARK.json lists the timed ones;
# sim_threads2 stays runnable by hand (see README.md) and is tested too.
WORKLOADS = ["sim_serial", "sim_threads2", "serve_warm", "serve_cold"]

# Simulated counts that depend only on the seed, never on the host.
DETERMINISTIC = ["haccrg.shared_checks", "haccrg.global_checks", "haccrg.races_unique",
                 "haccrg.sim_overhead", "mem.icnt_packets", "mem.shadow_packets",
                 "mem.dram_util", "trace.bytes", "trace.events"]


def run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)


def bench(workload, trace, seed=3):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.results[workload, trace] = bench(workload, trace)

    def check_metrics(self, result, spec):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in spec))
        for metric in spec:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])

    def test_benchmark_lists_known_workloads(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual(set(names), set(WORKLOADS))

    def test_every_metric_appears_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(self.results[workload, 0], SPEC["end_to_end"])
                self.check_metrics(self.results[workload, 1], SPEC["per_layer"])
                self.assertGreater(self.results[workload, 0]["metrics"]["sim_cycles"]["value"], 0)
                # --seconds 0 times one pass of the ten kernels.
                self.assertEqual(self.results[workload, 0]["attempted"], 10)

    def test_deterministic_metrics_repeat_exactly(self):
        again = bench("sim_serial", 0)
        self.assertEqual(again["metrics"]["sim_cycles"],
                         self.results["sim_serial", 0]["metrics"]["sim_cycles"])
        for workload in WORKLOADS:
            first = self.results["sim_serial", 1]["metrics"]
            other = self.results[workload, 1]["metrics"]
            for name in DETERMINISTIC:
                self.assertEqual(first[name], other[name], f"{workload} {name}")
        # Live runs at any engine thread count and served runs replay
        # the same simulations.
        for workload in WORKLOADS:
            self.assertEqual(self.results[workload, 0]["metrics"]["sim_cycles"],
                             self.results["sim_serial", 0]["metrics"]["sim_cycles"], workload)

    def test_served_cache_behaviour(self):
        def hit_rate(workload):
            return self.results[workload, 1]["metrics"]["serve.cache_hit_rate"]["value"]
        self.assertEqual(hit_rate("serve_warm"), 1)
        self.assertEqual(hit_rate("serve_cold"), 0)

    def test_stage_spans_fit_inside_their_job(self):
        for workload in WORKLOADS:
            spans = json.loads((WORK / f"spans-{workload}-seed3.json").read_text())["spans"]
            by_id = {s["id"]: s for s in spans}
            children = {}
            for span in spans:
                self.assertLessEqual(span["start_ns"], span["end_ns"])
                if span["parent"]:
                    parent = by_id[span["parent"]]
                    self.assertEqual(parent["job"], span["job"])
                    self.assertGreaterEqual(span["start_ns"], parent["start_ns"], span)
                    self.assertLessEqual(span["end_ns"], parent["end_ns"], span)
                    children.setdefault(parent["id"], []).append(span)
            self.assertTrue(children, workload)
            for parent_id, kids in children.items():
                parent = by_id[parent_id]
                busy = sum(k["end_ns"] - k["start_ns"] for k in kids)
                self.assertLessEqual(busy, parent["end_ns"] - parent["start_ns"], parent)

    def test_bad_flags_exit_2(self):
        for args in (["--workload", "sim_serial", "--bogus", "1"],
                     ["--workload", "sim_serial", "--seed"],
                     ["--workload", "nope"],
                     ["--workload", "sim_serial", "--trace", "2"],
                     ["--workload", "sim_serial", "--seconds", "-1"],
                     ["--workload", "sim_serial", "--min-jobs", "10"]):
            with self.subTest(args=args):
                proc = run(*args)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
