#!/usr/bin/env python3
"""Tests of the benchmark harness in run.py (not of Saga itself).

    python3 sagabench/test_harness.py

A stand-in for the sagabench binary (this file run with --fake) aborts its
first repetition and fails the output check of its second, so the tests can
check that both cost one repetition and that the run still reports. Every
later repetition has one operation that fails a check of its own (as the
int8 quant gate does), which counts alone and keeps the timings.
"""

import io
import json
import os
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def fake_binary(argv):
    """Behaves like `sagabench setup|rep` on a scripted sequence of reps."""
    mode = argv[0]
    options = dict(zip(argv[1::2], argv[2::2]))
    if mode == "setup":
        result = {"ok": True, "ops": 0, "failed": 0, "values": {"setup_s": 0.25},
                  "samples": {}, "info": {}, "errors": []}
        print("RESULT " + json.dumps(result))
        return 0
    counter = os.path.join(options["--dir"], "fake-count")
    count = int(open(counter).read()) if os.path.exists(counter) else 0
    with open(counter, "w") as handle:
        handle.write(str(count + 1))
    if count == 0:
        os.abort()
    failed = count == 1
    result = {"ok": not failed, "ops": 7 if failed else 10, "failed": 0 if failed else 1,
              "values": {},
              "samples": {"latency_ms": [1000.0] if failed else [1.0, 2.0, 3.0],
                          "windows_per_s": [1.0] if failed else [50.0]},
              "info": {},
              "errors": ["scripted check failure" if failed else "scripted gate failure"]}
    print("RESULT " + json.dumps(result))
    return 3 if failed else 0


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartile_spread(self):
        # statistics.quantiles' default (exclusive) method on 1..9 gives
        # Q1 = 2.5, Q2 = 5, Q3 = 7.5.
        self.assertAlmostEqual(run.quartile_spread(list(range(1, 10))), 1.0)
        self.assertAlmostEqual(run.quartile_spread([10.0, 10.0, 10.0, 10.0]), 0.0)

    def test_percentile_needs_ten_beyond(self):
        self.assertEqual(run.percentile(list(range(1, 101)), 0.50), 50)
        self.assertEqual(run.percentile(list(range(1, 101)), 0.90), 90)
        self.assertIsNone(run.percentile(list(range(1, 101)), 0.99))
        self.assertEqual(run.percentile(list(range(1, 1001)), 0.99), 990)
        self.assertIsNone(run.percentile(list(range(1, 1000)), 0.99))
        self.assertIsNone(run.percentile([], 0.5))

    def test_self_time_subtracts_covered_part(self):
        spans = [["step", 1, 0, 0, 0.0, 100.0],
                 ["a", 2, 1, 0, 10.0, 30.0],
                 ["b", 3, 1, 0, 20.0, 50.0],    # overlaps a: [10, 50] covered
                 ["c", 4, 1, 0, 90.0, 120.0]]   # clipped to the parent's end
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[1][1], 100.0 - 40.0 - 10.0)
        self.assertAlmostEqual(selfs[3][1], 30.0)
        names, covered = run.span_metrics(spans)
        self.assertEqual(names["a"], [20.0])
        self.assertEqual(covered["step"], [20.0 + 30.0 + 30.0])

    def test_layer_metrics_reductions(self):
        spans = {"train": [["pretrain.step", 1, 0, 0, 0.0, 1000.0],
                           ["mask.sensor", 2, 1, 0, 0.0, 200.0],
                           ["pretrain.step", 3, 0, 0, 1000.0, 2000.0],
                           ["mask.sensor", 4, 3, 0, 1000.0, 1400.0]]}
        samples = {"serve.request_ms": list(range(1, 1001))}
        metrics = run.layer_metrics({"lws.trials": 3}, samples, spans)
        self.assertAlmostEqual(metrics["mask.sensor_ms"]["value"], 0.3)
        self.assertAlmostEqual(metrics["pretrain.step_ms"]["value"], 0.3)
        self.assertEqual(metrics["serve.request_p99_ms"]["value"], 990)
        self.assertEqual(metrics["serve.request_p50_ms"]["value"], 500)
        self.assertEqual(metrics["lws.trials"]["value"], 3)


class FailedRepetitions(unittest.TestCase):
    def test_abort_and_check_failure_cost_one_repetition_each(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run.main(["--workload", "serve_fp32", "--seed", "5",
                             "--seconds", "0.3", "--trace", "0"],
                            binary=[sys.executable, os.path.abspath(__file__), "--fake"],
                            do_build=False)
        self.assertEqual(code, 0)
        lines = out.getvalue().strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        fingerprint = json.loads(
            next(line for line in lines if line.startswith("FINGERPRINT "))[12:])
        ok_reps = (result["attempted"] - 7) // 10
        self.assertGreaterEqual(ok_reps, 1)
        # The check-failed repetition's 7 operations, and one per finished
        # repetition whose own check failed.
        self.assertEqual(result["failed"], 7 + ok_reps)
        self.assertEqual(result["attempted"], 7 + 10 * ok_reps)
        self.assertEqual(fingerprint["aborted_processes"], 1)
        self.assertEqual(fingerprint["check_failed_processes"], 1)
        self.assertTrue(result["correct"])
        # The failed repetition's 1000 ms is kept out of the median.
        self.assertEqual(result["metrics"]["latency_ms"]["value"], 2.0)
        self.assertEqual(result["metrics"]["windows_per_s"]["value"], 50.0)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.25)
        self.assertIn("scripted check failure", err.getvalue())
        self.assertIn("scripted gate failure", err.getvalue())


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--fake":
        sys.exit(fake_binary(sys.argv[2:]))
    unittest.main()
