"""Unit tests of run.py: the metric-name grammar, the percentile rule, bound
checks, self times from a trace and BENCHMARK.json validation.

  cd bench/e2e && python3 -B -m unittest -v test_run
"""

import copy
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def committed_spec():
    return json.loads(run.SPEC_PATH.read_text())


def raw_result(n_ops=120, **overrides):
    """A raw result as caraml_e2e prints it."""
    raw = {"workload": "gpt_train", "seed": 3, "threads": 4,
           "setup_s": [0.5, 0.4, 0.45], "window_s": 15.0, "items": 60000,
           "op_ms": [float(i) for i in range(1, n_ops + 1)], "failed": 0,
           "checks": [{"name": "loss_decreases", "ok": True, "detail": ""}],
           "cpu_busy_frac": 0.5, "peak_rss_mb": 50.0}
    raw.update(overrides)
    return raw


class MetricNames(unittest.TestCase):
    def test_accepts_letters_digits_and_separators(self):
        for name in ("items_per_s", "nn.attention_fwd_ms",
                     "tensor.gemm_gflops.decode_lm_head", "a-b", "9x",
                     "x" * 64):
            self.assertTrue(run.NAME_RE.fullmatch(name), name)

    def test_rejects_other_names(self):
        for name in ("", ".x", "_x", "-x", "a b", "a/b", "x" * 65, "café",
                     "a\n"):
            self.assertFalse(run.NAME_RE.fullmatch(name), repr(name))

    def test_units(self):
        for unit in ("ms", "s", "1/s", "GFLOP/s", "%", "count"):
            self.assertTrue(run.UNIT_RE.fullmatch(unit), unit)
        for unit in ("", "m s", "x" * 17):
            self.assertFalse(run.UNIT_RE.fullmatch(unit), unit)


class Percentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        samples = [float(i) for i in range(100, 0, -1)]
        self.assertEqual(run.percentile(samples, 90), 90.0)
        with self.assertRaises(run.BenchError):
            run.percentile(samples[:99], 90)

    def test_p50_needs_twenty_samples(self):
        self.assertEqual(run.percentile(list(range(1, 21)), 50), 10)
        with self.assertRaises(run.BenchError):
            run.percentile(list(range(1, 20)), 50)

    def test_smoke_leaves_out_percentiles_without_enough_samples(self):
        values = run.end_to_end(raw_result(n_ops=30), smoke=True)
        self.assertIn("op_ms_p50", values)
        self.assertNotIn("op_ms_p90", values)
        with self.assertRaises(run.BenchError):
            run.end_to_end(raw_result(n_ops=30), smoke=False)


class Bounds(unittest.TestCase):
    lower = {"name": "op_ms_p50", "better": "lower", "bound": 0.08}
    higher = {"name": "items_per_s", "better": "higher", "bound": 0.08}

    def test_regression_direction(self):
        self.assertAlmostEqual(run.regression(self.lower, 100.0, 108.0), 0.08)
        self.assertAlmostEqual(run.regression(self.higher, 100.0, 92.0), 0.08)
        self.assertLess(run.regression(self.lower, 100.0, 90.0), 0)
        self.assertLess(run.regression(self.higher, 100.0, 110.0), 0)

    def test_compare_flags_medians_beyond_the_bound(self):
        setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
        spec = {"end_to_end": [self.higher, self.lower, setup]}

        def runs(items_per_s, p50):
            return [{"metrics": {"items_per_s": {"value": items_per_s + d},
                                 "op_ms_p50": {"value": p50 + d}}}
                    for d in (-1.0, 0.0, 1.0)]
        rows = {r[0]: r for r in run.compare(spec, runs(1000.0, 50.0),
                                             runs(950.0, 60.0))}
        self.assertTrue(rows["items_per_s"][5])    # 5% slower, bound 8%
        self.assertFalse(rows["op_ms_p50"][5])     # 20% slower
        self.assertNotIn("setup_s", rows)          # absent from both sets

    def test_spread_is_interquartile_share_of_median(self):
        self.assertAlmostEqual(run.spread([9.0, 10.0, 10.0, 10.0, 11.0]),
                               0.1)


class Spec(unittest.TestCase):
    def test_committed_spec_is_valid(self):
        run.validate_spec(committed_spec())

    def test_runner_emits_exactly_the_declared_end_to_end_metrics(self):
        spec = committed_spec()
        metrics = run.with_units(run.end_to_end(raw_result(), smoke=False),
                                 spec["end_to_end"])
        self.assertEqual(set(metrics), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(metrics["items_per_s"], {"value": 4000.0,
                                                  "unit": "1/s"})

    def test_undeclared_metric_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.with_units({"bogus": 1.0}, committed_spec()["end_to_end"])

    def test_malformed_specs_are_refused(self):
        def e2e(spec):
            return spec["end_to_end"]

        def add_key(spec):
            spec["baseline"] = {}

        def no_setup(spec):
            spec["end_to_end"] = [m for m in e2e(spec)
                                  if m["name"] != "setup_s"]

        def wide_bound(spec):
            e2e(spec)[0]["bound"] = 0.3

        def no_bound(spec):
            del e2e(spec)[0]["bound"]

        def duplicate(spec):
            spec["per_layer"].append(dict(spec["per_layer"][0]))

        def bad_unit(spec):
            e2e(spec)[0]["unit"] = "tokens per s"

        def bad_better(spec):
            e2e(spec)[0]["better"] = "up"

        def two_line_why(spec):
            spec["workloads"][0]["why"] = "one\ntwo"

        def one_workload(spec):
            spec["workloads"] = spec["workloads"][:1]

        def zero_seconds(spec):
            spec["run_seconds"] = 0

        def escaping_path(spec):
            spec["paths"] = ["bench/../src"]

        def absolute_path(spec):
            spec["paths"] = ["/tmp"]

        for mutate in (add_key, no_setup, wide_bound, no_bound, duplicate,
                       bad_unit, bad_better, two_line_why, one_workload,
                       zero_seconds, escaping_path, absolute_path):
            spec = copy.deepcopy(committed_spec())
            mutate(spec)
            with self.subTest(mutate.__name__):
                with self.assertRaises(run.BenchError):
                    run.validate_spec(spec)


class Correctness(unittest.TestCase):
    def test_clean_result_passes(self):
        self.assertEqual(run.failures(raw_result(), smoke=False), [])

    def test_failed_operations_and_checks_are_reported(self):
        raw = raw_result(failed=2, checks=[
            {"name": "loss_decreases", "ok": False, "detail": "flat"}])
        self.assertEqual(len(run.failures(raw, smoke=False)), 2)

    def test_reference_loss_at_seed_one(self):
        ref = run.REFERENCE_LOSS_STEP20
        good = raw_result(seed=1, loss_step20=ref * 1.00005)
        bad = raw_result(seed=1, loss_step20=ref * 1.001)
        self.assertEqual(run.failures(good, smoke=False), [])
        self.assertEqual(len(run.failures(bad, smoke=False)), 1)
        self.assertEqual(len(run.failures(raw_result(seed=1), smoke=False)), 1)
        self.assertEqual(run.failures(raw_result(seed=1), smoke=True), [])


class SelfTimes(unittest.TestCase):
    def test_self_time_subtracts_direct_children_per_track(self):
        events = [
            {"name": "step", "ph": "X", "tid": 1, "ts": 0, "dur": 10000},
            {"name": "fwd", "ph": "X", "tid": 1, "ts": 1000, "dur": 3000},
            {"name": "gemm", "ph": "X", "tid": 1, "ts": 1500, "dur": 1000},
            {"name": "bwd", "ph": "X", "tid": 1, "ts": 4000, "dur": 5000},
            {"name": "step", "ph": "X", "tid": 2, "ts": 500, "dur": 2000},
            {"name": "thread_name", "ph": "M", "tid": 1},
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            path.write_text(json.dumps({"traceEvents": events}))
            stats = run.self_times(path)
        self.assertEqual(stats["step"], (2, 12.0, 4.0))
        self.assertEqual(stats["fwd"], (1, 3.0, 2.0))
        self.assertEqual(stats["gemm"], (1, 1.0, 1.0))
        self.assertEqual(stats["bwd"], (1, 5.0, 5.0))


if __name__ == "__main__":
    unittest.main()
