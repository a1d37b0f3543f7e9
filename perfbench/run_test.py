#!/usr/bin/env python3
"""Tests of run.py's record checks and result assembly.

    python3 perfbench/run_test.py
"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
    ],
    "per_layer": [
        {"name": "qps", "unit": "1/s", "better": "higher"},
        {"name": "error_rate", "unit": "ratio", "better": "lower"},
        {"name": "trace.overhead_share", "unit": "ratio", "better": "lower"},
        {"name": "serve.batches", "unit": "count", "better": "lower"},
    ],
}


def record(metrics, attempted=10, failed=0):
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


class AssembleTest(unittest.TestCase):
    def test_end_to_end_in_declared_order_with_units(self):
        result = run.assemble(SPEC, 0, [record(
            {"throughput_per_s": 2.0, "setup_s": 0.5, "qps": 2.0})])
        self.assertEqual(list(result),
                         ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(list(result["metrics"]),
                         ["setup_s", "throughput_per_s"])
        self.assertEqual(result["metrics"]["setup_s"],
                         {"value": 0.5, "unit": "s"})
        self.assertTrue(result["correct"])
        # The printed line parses back to the same result.
        self.assertEqual(json.loads(json.dumps(result)), result)

    def test_missing_end_to_end_metric_fails(self):
        with self.assertRaises(run.BenchError):
            run.assemble(SPEC, 0, [record({"setup_s": 0.5})])

    def test_undeclared_metric_fails(self):
        with self.assertRaises(run.BenchError):
            run.assemble(SPEC, 0, [record(
                {"setup_s": 0.5, "throughput_per_s": 2.0, "setup_sec": 1.0})])

    def test_traced_run_merges_its_passes(self):
        untraced = record({"setup_s": 1.0, "throughput_per_s": 4.0,
                           "qps": 4.0}, attempted=8)
        traced = record({"setup_s": 1.0, "throughput_per_s": 2.0,
                         "qps": 2.0}, attempted=4, failed=1)
        result = run.assemble(SPEC, 1, [untraced, traced])
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in SPEC["per_layer"]])
        self.assertEqual(metrics["qps"]["value"], 4.0)  # untraced pass
        self.assertEqual(metrics["trace.overhead_share"]["value"], 1.0)
        self.assertEqual(metrics["error_rate"]["value"], 1 / 12)
        self.assertEqual(metrics["serve.batches"]["value"], 0.0)
        self.assertEqual((result["attempted"], result["failed"]), (12, 1))
        self.assertFalse(result["correct"])


class ParseRecordTest(unittest.TestCase):
    def test_accepts_perfbench_record(self):
        line = ('{"correct": true, "attempted": 3, "failed": 0, '
                '"metrics": {"setup_s": 0.25}}')
        self.assertEqual(run.parse_record(line)["metrics"], {"setup_s": 0.25})

    def test_rejects_malformed_records(self):
        for line in ["", "not json", "[]",
                     '{"correct": true, "attempted": 3, "failed": 0}',
                     '{"correct": 1, "attempted": 3, "failed": 0, '
                     '"metrics": {}}',
                     '{"correct": true, "attempted": 3, "failed": 0, '
                     '"metrics": {"a": "1"}}',
                     '{"correct": true, "attempted": 3, "failed": 0, '
                     '"metrics": {}, "extra": 1}']:
            with self.assertRaises(run.BenchError, msg=line):
                run.parse_record(line)


if __name__ == "__main__":
    unittest.main()
