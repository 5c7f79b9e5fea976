"""Smoke test of the benchmark itself, at one-second runs.

    python3 perfbench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, on
every workload and in both modes, and that a wrong answer injected into the
benchmark's own checker (never into the package) raises the failed share.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = "1"


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for spec in SPEC["workloads"]:
                with self.subTest(workload=spec["name"], trace=trace):
                    out = bench(spec["name"], trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    got = {name: m["unit"] for name, m in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for name in ("ops_per_s", "setup_s") if trace == 0 else ():
                        self.assertGreater(out["metrics"][name]["value"], 0)


def fail_ratio(workload: str) -> float:
    result, _ = run.end_to_end(workload, 7, float(SECONDS))
    return result["failed"] / result["attempted"]


_MUL = reference.mul


def off_by_one_mul(a, b, gen):
    product = _MUL(a, b, gen)
    return [product[0] + 1] + product[1:]


class InjectedWrongAnswer(unittest.TestCase):
    def test_ring_ops(self):
        self.assertEqual(fail_ratio("ring-ops"), 0)
        with mock.patch.object(reference, "mul", off_by_one_mul):
            self.assertGreater(fail_ratio("ring-ops"), 0)

    def test_cli_queries(self):
        with mock.patch.object(reference, "mul", off_by_one_mul):
            self.assertGreater(fail_ratio("cli-queries"), 0)

    def test_verify_sweep(self):
        recorded = workloads.RECORDED_REPORT.read_text()
        with tempfile.TemporaryDirectory() as tmp:
            wrong = Path(tmp) / "report.jsonl"
            wrong.write_text(recorded.replace('"status": "pass"', '"status": "fail"'))
            with mock.patch.object(workloads, "RECORDED_REPORT", wrong):
                self.assertGreater(fail_ratio("verify-sweep"), 0.5)


if __name__ == "__main__":
    unittest.main()
