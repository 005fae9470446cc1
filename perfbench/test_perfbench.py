#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The statistics tests are pure Python. The driver tests build the driver
(incrementally, like run.py) and run it for a moment.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(range(1, 101)), (90.0, 90, 10, 100))
        self.assertEqual(run.tail_percentile(range(1, 201)),
                         (95.0, 190, 10, 200))
        self.assertEqual(run.tail_percentile(range(1, 1001)),
                         (99.0, 990, 10, 1000))

    def test_one_short_of_ten_drops_a_rung(self):
        pct, value, beyond, count = run.tail_percentile(range(1, 200))
        self.assertEqual((pct, beyond, count), (90.0, 19, 199))
        self.assertEqual(value, 180)

    def test_order_does_not_matter(self):
        self.assertEqual(run.tail_percentile(reversed(range(1, 101))),
                         run.tail_percentile(range(1, 101)))

    def test_too_few_samples_report_the_median(self):
        self.assertEqual(run.tail_percentile(range(1, 20)), (50.0, 10, 9, 19))
        with self.assertRaises(ValueError):
            run.tail_percentile([])


class GeoMean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(run.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(run.geomean([2.0, 8.0, 4.0]), 4.0)
        self.assertAlmostEqual(run.geomean([3.5]), 3.5)

    def test_rejects_empty_and_non_positive(self):
        for bad in ([], [1.0, 0.0], [2.0, -1.0]):
            with self.assertRaises(ValueError):
                run.geomean(bad)

    def test_slowdown_weights_cells_not_operations(self):
        # Cell 0 has three sessions at 2x, cell 1 one at 8x: 4x, not 2.83x.
        modeled = [[2, 1, 0], [4, 2, 0], [6, 3, 0], [8, 1, 1]]
        self.assertAlmostEqual(run.modeled_slowdown(modeled), 4.0)


class PerCellHostTime(unittest.TestCase):
    # Cell "a" costs 10 ns per instruction and cell "b" 20 in every
    # undisturbed pass; pass 2 runs at half speed, and pass 3 is traced.
    RAW = {
        "operations": [["a", "a"], ["b1", "b"], ["b2", "b"]],
        "samples": [
            [0, 1, 100, 1000, False], [1, 1, 50, 1000, False],
            [2, 1, 50, 1000, False],
            [0, 2, 100, 2000, False], [1, 2, 50, 2000, False],
            [2, 2, 50, 2000, False],
            [0, 3, 100, 9000, True], [1, 3, 50, 9000, True],
            [2, 3, 50, 9000, True],
        ],
    }

    def test_slow_pass_cancels_out(self):
        best = run.best_by_operation(self.RAW["samples"])
        per_cell = run.ns_per_instr_by_cell(self.RAW, best)
        self.assertAlmostEqual(per_cell["a"], 10.0)
        self.assertAlmostEqual(per_cell["b"], 20.0)

    def test_median_relative_cost(self):
        # A third pass in which "a" alone is slow does not move its median.
        raw = dict(self.RAW, samples=self.RAW["samples"] + [
            [0, 4, 100, 5000, False], [1, 4, 50, 1000, False],
            [2, 4, 50, 1000, False],
            [0, 5, 100, 1000, False], [1, 5, 50, 1000, False],
            [2, 5, 50, 1000, False]])
        per_cell = run.ns_per_instr_by_cell(raw, run.best_by_operation(
            raw["samples"]))
        self.assertAlmostEqual(per_cell["b"] / per_cell["a"], 2.0)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("guest_mips", "arch.cycles.app", "self_ms.core",
                     "a-b", "9x", "x" * 64):
            self.assertTrue(run.valid_metric_name(good), good)
        for bad in ("", ".core", "_x", "a b", "a/b", "ms%", "é", "x" * 65):
            self.assertFalse(run.valid_metric_name(bad), bad)

    def test_benchmark_json_names(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(run.valid_metric_name(n), n)


class Driver(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def driver(self, *extra):
        out = subprocess.run(
            [str(self.binary), "--workload", "loop_dense", "--seed", "3",
             "--seconds", "0", "--trace", "0", *extra],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        return json.loads(out)

    def test_clean_run_has_no_failures(self):
        raw = self.driver()
        self.assertEqual(raw["failed"], 0)
        self.assertGreater(raw["attempted"], 3)

    def test_wrong_reference_is_exactly_one_failure(self):
        clean = self.driver()
        raw = self.driver("--corrupt-op", "4")
        self.assertEqual(raw["attempted"], clean["attempted"])
        self.assertEqual(raw["failed"], 1)
        self.assertEqual(len(raw["failures"]), 1)
        self.assertIn("output differs from GuestVM", raw["failures"][0])

    def test_environment_knob_is_refused(self):
        proc = subprocess.run(
            [str(self.binary), "--workload", "loop_dense", "--seed", "1",
             "--seconds", "0", "--trace", "0"],
            env={"STRATAIB_TRACE": "1"}, stdout=subprocess.PIPE)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, b"")

    def test_reports_exactly_the_listed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = subprocess.run(
                    [sys.executable, str(run.HERE / "run.py"), "--workload",
                     workload, "--seed", "2", "--seconds", "0", "--trace",
                     str(trace)],
                    check=True, stdout=subprocess.PIPE, text=True).stdout
                result = json.loads(out.splitlines()[-1])
                self.assertTrue(result["correct"], workload)
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {n: v["unit"] for n, v in result["metrics"].items()}
                self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
