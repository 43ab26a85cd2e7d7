"""Tests of the benchmark's own statistics and output record.

    python3 -m unittest discover -s wallbench
"""

import json
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def raw_record(trace=0, ops=None, failed=0, attempted=None, spans=(),
               counters=(), traced=()):
    ops = [0.1] * 30 if ops is None else ops
    return {
        "trace": trace,
        "setup_s": [1.0, 3.0, 2.0],
        "ops_s": list(ops),
        "traced_ops_s": list(traced),
        "loop_s": sum(ops) or 1.0,
        "requests_per_op": 2,
        "attempted": len(ops) + 1 if attempted is None else attempted,
        "failed": failed,
        "peak_rss_mb": 100.5,
        "spans": [list(s) for s in spans],
        "counters": [list(c) for c in counters],
    }


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = [float(i) for i in range(100)]
        pct, value = metrics.tail(samples)
        self.assertEqual(value, 89.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_order_does_not_matter(self):
        samples = [float(i) for i in range(50)]
        self.assertEqual(metrics.tail(samples[::-1]), metrics.tail(samples))

    def test_short_runs_fall_back_to_the_median(self):
        for n in (1, 5, 11, 20):
            samples = [float(i) for i in range(n)]
            self.assertEqual(metrics.tail(samples),
                             (50.0, metrics.median(samples)))

    def test_first_count_with_a_tail_above_the_median(self):
        samples = [float(i) for i in range(22)]
        pct, value = metrics.tail(samples)
        self.assertEqual(value, 11.0)
        self.assertGreater(pct, 50.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            ["op", 0.0, 10.0, -1, 0],
            ["a", 1.0, 3.0, 0, 0],
            ["b", 4.0, 8.0, 0, 0],
            ["b.inner", 5.0, 6.0, 2, 0],
        ]
        self.assertEqual(metrics.self_times(spans), [4.0, 2.0, 3.0, 1.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            ["p", 0.0, 4.0, -1, 0],
            ["x", 1.0, 3.0, 0, 0],
            ["y", 2.0, 5.0, 0, 0],
        ]
        self.assertEqual(metrics.self_times(spans)[0], 1.0)


class FailCountingTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(metrics.fail_ratio(40, 0), 0.0)
        self.assertEqual(metrics.fail_ratio(40, 10), 0.25)
        self.assertEqual(metrics.fail_ratio(0, 0), 1.0)

    def test_any_failure_makes_the_run_incorrect(self):
        specs = SPEC["end_to_end"]
        ok = metrics.result(raw_record(), specs)
        self.assertTrue(ok["correct"])
        self.assertEqual(ok["failed"], 0)
        bad = metrics.result(raw_record(failed=1), specs)
        self.assertFalse(bad["correct"])
        self.assertEqual((bad["attempted"], bad["failed"]), (31, 1))


class RecordSchemaTest(unittest.TestCase):
    def test_end_to_end_record(self):
        specs = SPEC["end_to_end"]
        record = metrics.result(raw_record(), specs)
        metrics.check_result(record, specs)
        values = {k: v["value"] for k, v in record["metrics"].items()}
        self.assertEqual(values["setup_s"], 2.0)
        self.assertAlmostEqual(values["ops_per_s"], 10.0)
        self.assertAlmostEqual(values["requests_per_s"], 20.0)
        json.loads(json.dumps(record))

    def test_per_layer_record(self):
        specs = SPEC["per_layer"]
        spans = [
            ["op", 0.0, 1.0, -1, 0],
            ["dist.execute.fusedmm_a", 0.0, 0.4, 0, 0],
            ["dist.execute.fusedmm_b", 0.4, 0.9, 0, 0],
            ["dist.plan.fingerprint", 1.0, 1.1, -1, 0],
        ]
        counters = [
            ["runtime.kernel_spans_s", 0.5, 0],
            ["dist.execute.calls", 2.0, 0],
            ["dist.execute.setup_builds", 0.0, 0],
        ]
        record = metrics.result(
            raw_record(trace=1, ops=[1.0, 1.0], spans=spans,
                       counters=counters, traced=[1.1, 1.1]), specs)
        metrics.check_result(record, specs)
        values = {k: v["value"] for k, v in record["metrics"].items()}
        self.assertAlmostEqual(values["dist.execute.fusedmm_b_s"], 0.5)
        # 0.9 s in execute - 0.5 s kernel spans - 2 x 0.1 s fingerprint.
        self.assertAlmostEqual(values["dist.execute.unattributed_s"], 0.2)
        self.assertAlmostEqual(values["trace.overhead_ratio"], 0.1)
        self.assertEqual(values["apps.serve.train_s"], 0.0)

    def test_schema_rejects_malformed_records(self):
        specs = SPEC["end_to_end"]
        good = metrics.result(raw_record(), specs)
        broken = [
            dict(good, extra=1),
            dict(good, attempted=0),
            dict(good, failed=2.0),
            dict(good, correct="yes"),
            dict(good, metrics={}),
            dict(good, metrics=dict(good["metrics"],
                                    setup_s={"value": 1.0, "unit": "ms"})),
            dict(good, metrics=dict(good["metrics"],
                                    setup_s={"value": float("nan"),
                                             "unit": "s"})),
        ]
        for record in broken:
            with self.assertRaises(ValueError):
                metrics.check_result(record, specs)


class SpecTest(unittest.TestCase):
    def test_every_metric_name_is_used_once(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)


if __name__ == "__main__":
    unittest.main()
