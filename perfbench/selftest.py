"""Self-tests of the benchmark.

Run from anywhere::

    python3 perfbench/selftest.py

They check the percentile rule, the self-time arithmetic of the traced
run, the speed probe's rescaling, and that the benchmark leaves the
checkout as it found it.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import unittest
from itertools import count
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
from spans import (  # noqa: E402
    Tracer,
    covered,
    per_op_layer_seconds,
    quantile,
    self_times,
    supported_percentile,
)


def span(span_id, parent, name, start, end, op=0):
    return {"id": span_id, "parent": parent, "op": op, "name": name, "start": start, "end": end}


class PercentileRule(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        self.assertEqual(supported_percentile(200), 95.0)
        self.assertLess(supported_percentile(199), 95.0)
        self.assertEqual(supported_percentile(11), 100.0 * (1 - 10 / 11))
        self.assertIsNone(supported_percentile(10))

    def test_quantile_interpolates_like_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
        expected = statistics.quantiles(values, n=20, method="inclusive")
        for position, q in enumerate(k / 20 for k in range(1, 20)):
            self.assertAlmostEqual(quantile(values, q), expected[position])
        self.assertEqual(quantile([3.0], 0.95), 3.0)
        with self.assertRaises(ValueError):
            quantile([], 0.5)


class SelfTime(unittest.TestCase):
    def test_covered_counts_overlaps_once_and_clips(self):
        self.assertEqual(covered(0, 10, [(1, 4), (3, 6)]), 5)
        self.assertEqual(covered(0, 10, [(-5, 2), (8, 20)]), 4)
        self.assertEqual(covered(0, 10, [(2, 3), (1, 5)]), 4)
        self.assertEqual(covered(0, 10, []), 0)

    def test_self_time_subtracts_direct_children_only(self):
        records = [
            span(0, None, "op", 0, 10),
            span(1, 0, "io.read", 1, 4),
            span(2, 1, "core.audit_cache", 2, 3),
            span(3, 0, "io.read", 6, 7),
        ]
        self.assertEqual(self_times(records), [6, 2, 1, 1])
        (layers,) = per_op_layer_seconds(records)
        self.assertEqual(layers, {"op": 6, "io.read": 3, "core.audit_cache": 1})
        self.assertEqual(sum(layers.values()), 10)

    def test_layers_are_summed_per_operation(self):
        records = [
            span(0, None, "op", 0, 4, op=0),
            span(1, 0, "mining.predict", 1, 2, op=0),
            span(2, None, "op", 5, 8, op=1),
            span(3, 2, "mining.predict", 5, 8, op=1),
        ]
        self.assertEqual(
            per_op_layer_seconds(records),
            [{"op": 3, "mining.predict": 1}, {"op": 0, "mining.predict": 3}],
        )

    def test_tracer_records_nesting_and_counters(self):
        clock = count()
        tracer = Tracer()
        with mock.patch.object(spans.time, "perf_counter", lambda: float(next(clock))):
            with tracer.op():
                with tracer.span("io.read"):
                    with tracer.span("core.audit_cache"):
                        tracer.count("io.read_rows", 5)
                tracer.count("io.read_rows", 2)
            with tracer.op():
                pass
        self.assertEqual([s["parent"] for s in tracer.spans], [None, 0, 1, None])
        self.assertEqual([s["op"] for s in tracer.spans], [0, 0, 0, 1])
        self.assertEqual(tracer.counters, [{"io.read_rows": 7}, {}])
        self.assertEqual(tracer.last("op"), 1.0)
        with self.assertRaises(RuntimeError):
            with tracer.op():
                with tracer.op():
                    pass


class SpeedRescaling(unittest.TestCase):
    def test_measure_removes_handler_time_and_rescales(self):
        probe = speed.SpeedProbe("numpy")
        reference = speed.KERNELS["numpy"][1]
        probe.samples = [
            (0.90, 0.95, 2 * reference),  # in the padding before the operation
            (0.99, 1.01, 2 * reference),  # straddles the start
            (2.00, 2.03, 2 * reference),
            (3.40, 3.50, 100.0),  # beyond the padding: ignored
        ]
        record = probe.measure(1.0, 3.0)
        self.assertAlmostEqual(record["raw_s"], 2.0)
        self.assertAlmostEqual(record["net_s"], 2.0 - 0.01 - 0.03)
        self.assertAlmostEqual(record["kernel_s"], 2 * reference)
        self.assertAlmostEqual(record["s"], (2.0 - 0.04) / 2 ** speed.ELASTICITY)
        with self.assertRaises(RuntimeError):
            probe.measure(10.0, 11.0)

    def test_probe_samples_the_running_thread(self):
        with speed.SpeedProbe("mixed") as probe:
            started = time.perf_counter()
            while time.perf_counter() - started < 0.4:
                sum(range(1_000))
            record = probe.measure(started, time.perf_counter())
        self.assertGreaterEqual(len(probe.samples), 4)
        self.assertLess(record["net_s"], record["raw_s"])
        self.assertGreater(record["s"], 0)


class Checkout(unittest.TestCase):
    def run_bench(self, cwd: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", *args],
            cwd=cwd, capture_output=True, text=True, timeout=300,
        )

    def git_status(self) -> str:
        return subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout

    def test_run_leaves_git_status_unchanged(self):
        if shutil.which("git") is None or not (ROOT / ".git").exists():
            self.skipTest("not a git checkout")
        before = self.git_status()
        result = self.run_bench(
            ROOT, "--workload", "audit-pushdown", "--seed", "7",
            "--seconds", "1", "--trace", "0",
        )
        self.assertEqual(result.returncode, 0, result.stderr)
        outcome = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(outcome), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(outcome["correct"], result.stderr)
        self.assertEqual(self.git_status(), before)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            result = self.run_bench(
                Path(tmp), "--workload", "fit", "--seed", "1",
                "--seconds", "1", "--trace", "0",
            )
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main()
