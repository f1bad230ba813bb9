"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 magebench/selfcheck.py

* A seconds-long smoke run of every workload, untraced and traced, run
  with ``BENCHMARK.json``'s command, must emit every metric it names,
  with its unit, and no failed op.
* The output checker must count a wrong reply (and a raised error) as a
  failed op, never as a success.
* Span self time must subtract exactly the time children cover.
* Without the program's sources the benchmark must exit non-zero and
  print no result.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SECONDS = "1.5"


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT
         ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "7", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


class SmokeRuns(unittest.TestCase):
    def _check(self, trace: int, section: str) -> None:
        wanted = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                done = _run(workload, trace)
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0, done.stdout[-2000:])
                self.assertTrue(result["correct"], done.stdout[-2000:])
                self.assertEqual(
                    {n: m["unit"] for n, m in result["metrics"].items()},
                    wanted)

    def test_untraced_run_emits_every_end_to_end_metric(self) -> None:
        self._check(0, "end_to_end")

    def test_traced_run_emits_every_per_layer_metric(self) -> None:
        self._check(1, "per_layer")


class _Stub:
    """Echo stub double that returns ``reply`` (or raises it)."""

    def __init__(self, reply) -> None:
        self.reply = reply

    def echo(self, value):
        if isinstance(self.reply, Exception):
            raise self.reply
        return self.reply


class OutputChecks(unittest.TestCase):
    def test_wrong_reply_is_a_failed_op(self) -> None:
        rec = workloads.Recorder()
        tracer = spans.Tracer()
        got = workloads.attempt(rec, tracer, "rmi", 1,
                                lambda: _Stub(b"someone else").echo(b"mine"),
                                b"mine")
        self.assertIsNone(got)
        self.assertEqual(rec.failures, {("rmi", "WrongResult"): 1})
        self.assertEqual(rec.steps["rmi"], [])

    def test_raised_error_is_a_failed_op(self) -> None:
        rec = workloads.Recorder()
        workloads.attempt(rec, spans.Tracer(), "rmi", 1,
                          lambda: _Stub(ConnectionError("gone")).echo(b"x"),
                          b"x")
        self.assertEqual(rec.failures, {("rmi", "ConnectionError"): 1})

    def test_closed_loop_counts_every_wrong_echo(self) -> None:
        rec = workloads.Recorder()
        workloads.rmi_closed(_Stub(b"0" * 16), rec, spans.Tracer(),
                             random.Random(1), time.perf_counter() + 0.05, None)
        self.assertEqual(rec.succeeded, 0)
        self.assertGreater(rec.failed, 0)
        self.assertEqual(set(rec.failures), {("rmi", "WrongResult")})


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self) -> None:
        threads = [[("op", 0.0, 10.0, -1, 1), ("a", 1.0, 3.0, 0, 1),
                    ("b", 2.0, 6.0, 0, 1), ("c", 4.0, 5.0, 2, 1)]]
        self.assertEqual(spans.self_times(threads[0]), [5.0, 2.0, 3.0, 1.0])
        self.assertEqual(spans.durations(threads, "c", parent=("b",)), [1.0])


class MissingProgram(unittest.TestCase):
    def test_exits_nonzero_without_sources(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            bare = pathlib.Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = _run("rmi_closed", 0, cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
