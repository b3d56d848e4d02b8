#!/usr/bin/env python3
"""Self-tests of the benchmark at a tiny size (two small scripts).

    python3 benchmark/selftest.py
"""

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


TINY = ("ex46_l1_qq", "ex46_l2_fp")


class TinyRun(unittest.TestCase):
    def setUp(self):
        self.saved = full = workloads.families
        workloads.families = lambda seed: [j for j in full(seed) if j.name in TINY]

    def tearDown(self):
        workloads.families = self.saved

    def run_bench(self, trace):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "families", "--seed", "0",
                             "--seconds", "0.01", "--trace", str(trace)])
        self.assertEqual(code, 0)
        lines = out.getvalue().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def test_every_metric_prints_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            table, result = self.run_bench(trace)
            self.assertTrue(result["correct"])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[key]})
            for m in SPEC[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                self.assertTrue(any(
                    line.split()[0] == m["name"] and line.split()[-1] == m["unit"]
                    for line in table if line.strip()
                ), m["name"])
            rows = [line.split()[::2] for line in table if line.strip()]
            for name, unit in run.END_TO_END_UNITS.items():
                self.assertIn([name, unit], rows)

    def test_corrupted_expected_integer_fails(self):
        load = oracle.load_expected

        def corrupted(name):
            report = load(name)
            if name == "ex46_l1_qq":
                report["h0_length"] = str(int(report["h0_length"]) + 1)
            return report

        oracle.load_expected = corrupted
        try:
            table, result = self.run_bench(0)
        finally:
            oracle.load_expected = load
        ratio = next(float(line.split()[1]) for line in table if line.startswith("fail_ratio"))
        self.assertGreater(ratio, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class Seeds(unittest.TestCase):
    def test_seed_changes_random_draw_only(self):
        a, _ = workloads.make_jobs("random-small", 1)
        b, _ = workloads.make_jobs("random-small", 2)
        self.assertNotEqual([j.text for j in a], [j.text for j in b])
        for name in ("families", "nonlinear-q"):
            a, _ = workloads.make_jobs(name, 1)
            b, _ = workloads.make_jobs(name, 2)
            self.assertEqual([j.text for j in a], [j.text for j in b])
            for ja, jb in zip(a, b):
                diff = [(x, y) for x, y in zip(ja.args, jb.args) if x != y]
                self.assertEqual(diff, [("1", "2")])
                self.assertEqual(ja.args[ja.args.index("--seed") + 1], "1")

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a, _ = workloads.make_jobs(name, 7)
            b, _ = workloads.make_jobs(name, 7)
            self.assertEqual([(j.text, j.args) for j in a], [(j.text, j.args) for j in b])


class HostSpeed(unittest.TestCase):
    def test_interval_drops_samples_and_scales_by_mean_speed(self):
        ref = hostspeed.REF_CHUNK_S
        speed = hostspeed.Sampler()
        # before t0, two inside [10, 20], one after t1, one beyond `after`
        speed.samples = [(9.0, ref), (12.0, 2 * ref), (15.0, 4 * ref),
                         (20.5, ref), (30.0, 8 * ref)]
        own, scaled = speed.interval(10.0, 20.0, 0)
        self.assertAlmostEqual(own, 10.0 - 6 * ref)
        self.assertAlmostEqual(scaled, own * (1 + 0.5 + 0.25 + 1) / 4)

    def test_sampler_ticks_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with hostspeed.Sampler() as speed:
            end = time.perf_counter() + 5 * hostspeed.PERIOD_S
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(speed.samples), 2)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Bare(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "families",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
