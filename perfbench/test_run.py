"""Unit tests of the benchmark's own arithmetic (run.py).

    python3 perfbench/test_run.py
"""

import json
import os
import unittest

import run


class NearestRank(unittest.TestCase):
    def test_percentiles_with_sample_counts(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(run.nearest_rank(xs, 50), (3, 5))
        self.assertEqual(run.nearest_rank(xs, 99), (5, 5))
        self.assertEqual(run.nearest_rank(xs, 100), (5, 5))
        self.assertEqual(run.nearest_rank(xs, 20), (1, 5))
        self.assertEqual(run.nearest_rank(xs, 21), (2, 5))

    def test_p99_needs_a_hundred_samples_to_leave_the_maximum(self):
        xs = list(range(1, 101))
        self.assertEqual(run.nearest_rank(xs, 99), (99, 100))
        self.assertEqual(run.nearest_rank(xs[:99], 99), (99, 99))
        self.assertEqual(run.nearest_rank(xs, 50), (50, 100))

    def test_single_sample_and_rejections(self):
        self.assertEqual(run.nearest_rank([7], 1), (7, 1))
        with self.assertRaises(run.BenchError):
            run.nearest_rank([], 50)
        with self.assertRaises(run.BenchError):
            run.nearest_rank([1], 0)



class Fastest(unittest.TestCase):
    def test_fastest_sample(self):
        self.assertEqual(run.fastest([4.0, 1.0, 3.0, 2.0]), 1.0)
        self.assertEqual(run.fastest([9.0]), 9.0)
        with self.assertRaises(run.BenchError):
            run.fastest([])

    def test_keyed_fastest_and_batch_time(self):
        times = [3.0, 5.0, 2.0, 6.0, 4.0]
        keys = [0, 1, 0, 1, 2]
        self.assertEqual(run.keyed_fastest(times, keys), {0: 2.0, 1: 5.0, 2: 4.0})
        self.assertEqual(run.batch_time(times, keys), 11.0)
        self.assertEqual(run.batch_time(times, keys, {0, 2}), 6.0)

    def test_keyed_fastest_rejections(self):
        with self.assertRaises(run.BenchError):
            run.keyed_fastest([1.0], [0, 1])
        with self.assertRaises(run.BenchError):
            run.keyed_fastest([], [])


class SelfTimes(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        # root [0, 100) holds a [10, 40) that holds b [15, 25), and c [50, 60).
        spans = [(15, 10), (10, 30), (50, 10), (0, 100)]
        parents = run.nest(spans)
        self.assertEqual(parents, [1, 3, 3, None])
        self.assertEqual(run.self_times(spans, parents), [10, 20, 10, 60])

    def test_equal_intervals_nest_by_recording_order(self):
        # The library span closes first, so the benchmark span around it is
        # recorded later and becomes the parent.
        spans = [(5, 10), (5, 10)]
        self.assertEqual(run.nest(spans), [1, None])
        self.assertEqual(run.self_times(spans, run.nest(spans)), [10, 0])

    def test_ledger_adds_up_to_the_window(self):
        raw = [
            ["executor", "run", 15, 10, 0],
            ["congest", "run", 10, 30, 0],
            ["sched.private", "clustering", 50, 10, 1],
            ["sched", "private", 45, 30, 1],
        ]
        ledger, uncovered = run.layer_ledger(raw, 100)
        self.assertEqual(ledger["congest"], 30)
        self.assertEqual(ledger["sched"], 30)
        self.assertEqual(uncovered, 40)
        self.assertEqual(sum(ledger.values()) + uncovered, 100)

    def test_unknown_category_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.layer_ledger([["nowhere", "x", 0, 1, 0]], 1)


class FailFrac(unittest.TestCase):
    def test_accounting(self):
        self.assertEqual(run.fail_frac(200, 0), 0.0)
        self.assertEqual(run.fail_frac(200, 3), 0.015)
        self.assertEqual(run.fail_frac(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (5, 6), (5, -1)):
            with self.assertRaises(run.BenchError):
                run.fail_frac(attempted, failed)


class Names(unittest.TestCase):
    def test_grammar(self):
        for good in ("msgs_per_s", "congest.run_s", "a", "9x", "fault.delivered_ratio", "x-y"):
            self.assertTrue(run.valid_name(good), good)
        for bad in ("", ".x", "_x", "a b", "a/b", "é", "x" * 65, None):
            self.assertFalse(run.valid_name(bad), bad)

    def test_benchmark_json_names(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(run.valid_name(name), name)


class Select(unittest.TestCase):
    SPEC = {
        "end_to_end": [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}],
        "per_layer": [{"name": "layer.count", "unit": "count", "better": "lower"}],
    }

    def test_end_to_end_must_be_measured_and_positive(self):
        self.assertEqual(run.select({"rate": 2.0}, self.SPEC, False),
                         {"rate": {"value": 2.0, "unit": "1/s"}})
        for measured in ({}, {"rate": 0.0}):
            with self.assertRaises(run.BenchError):
                run.select(measured, self.SPEC, False)

    def test_untouched_layer_reads_zero(self):
        self.assertEqual(run.select({"rate": 1.0}, self.SPEC, True),
                         {"layer.count": {"value": 0, "unit": "count"}})

    def test_unlisted_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.select({"rate": 1.0, "stray": 1.0}, self.SPEC, False)


if __name__ == "__main__":
    unittest.main()
