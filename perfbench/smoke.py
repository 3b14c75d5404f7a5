"""Smoke test of the benchmark itself, at a tiny size (under two minutes).

    python3 perfbench/smoke.py

Runs every workload untraced and traced for one second, checks that every
metric named in ``BENCHMARK.json`` is reported with its unit, that a
deliberately corrupted expected value and a reference that raises are
counted as failures, that times scale with the calibration passes around
them, that a word stream ends, without changing its mix of shapes, once
one shape is used up, and that the benchmark refuses to run without the
sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import worker  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORK, WORKLOADS  # noqa: E402
from workloads import SHAPES, shape_size, words  # noqa: E402


def bench(*args, seconds=1, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, "--seed", "1",
                           "--seconds", str(seconds), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class BenchmarkSmoke(unittest.TestCase):
    def test_spec_matches_metric_definitions(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: unit for name, (unit, *_) in PER_LAYER.items()})

    def check_all(self, trace, expected):
        code, lines, err = bench("--workload", "all", "--trace", str(trace))
        self.assertEqual(code, 0, err)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], len(WORKLOADS))
        records = json.loads(lines[-2])["records"]
        for workload, record in zip(WORKLOADS, records):
            self.assertEqual(record["error_rate"], 0.0)
            self.assertEqual(len(record["words_sha256"]), 64)
            for name, unit in expected.items():
                metric = result["metrics"][f"{workload}.{name}"]
                self.assertEqual(metric["unit"], unit, name)
                self.assertIsInstance(metric["value"], (int, float), name)
        self.assertEqual(len(result["metrics"]), len(WORKLOADS) * len(expected))

    def test_untraced_metrics_present(self):
        self.check_all(0, {n: u for n, (u, *_) in END_TO_END.items()})

    def test_traced_metrics_present(self):
        self.check_all(1, {n: u for n, (u, *_) in PER_LAYER.items()})

    def test_corrupted_expectation_counts_as_error(self):
        for workload in WORKLOADS:
            code, lines, _ = bench("--workload", workload, "--corrupt")
            self.assertNotEqual(code, 0, workload)
            result = json.loads(lines[-1])
            self.assertFalse(result["correct"], workload)
            self.assertGreaterEqual(result["failed"], 1, workload)
            self.assertLess(result["metrics"]["success_rate"]["value"], 1.0)
            record = json.loads(lines[-2])["records"][0]
            self.assertGreater(record["error_rate"], 0.0, workload)

    def test_raising_reference_counts_as_error(self):
        def broken(workload, text):
            raise ArithmeticError("reference failed")
        saved, worker.reference = worker.reference, broken
        try:
            failures = worker.check_in_process(
                "fold", [("2: 1 1 1", {}, 0.0, None), ("2: 1", {}, 0.0, None)],
                corrupt=False)
        finally:
            worker.reference = saved
        self.assertEqual(sorted(failures), [0, 1])

    def test_times_scale_with_nearby_calibration_passes(self):
        ref = calibration.REFERENCE_S
        passes = [ref, ref, 3 * ref, 3 * ref]
        scaled = calibration.at_reference_speed([1.0, 2.0, 3.0], passes, ref, 1)
        for got, want in zip(scaled, [1.0, 1.0, 1.0]):
            self.assertAlmostEqual(got, want)
        passes = [ref, 9 * ref, ref, ref, ref]
        scaled = calibration.at_reference_speed([1.0] * 4, passes, ref, 2)
        for got, want in zip(scaled, [1.0, 1.0, 1.0, 1.0]):
            self.assertAlmostEqual(got, want)

    def test_word_stream_ends_when_a_shape_is_used_up(self):
        smallest = min(SHAPES["cli"], key=lambda shape: shape_size(*shape))
        stream = list(words("cli", 1))
        shapes = [(int(text.split(":")[0]), len(text.split()) - 1)
                  for text in stream]
        self.assertEqual(len(set(stream)), len(stream))
        self.assertEqual(shapes.count(smallest), shape_size(*smallest))
        self.assertEqual(shapes[-1], smallest)
        cycle = list(SHAPES["cli"])
        self.assertEqual(shapes, [cycle[i % len(cycle)]
                                  for i in range(len(stream))])

    def test_refuses_to_run_without_sources(self):
        os.makedirs(WORK, exist_ok=True)
        bare = tempfile.mkdtemp(dir=WORK)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            code, lines, _ = bench("--workload", "fold", cwd=bare,
                                   script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
