#!/usr/bin/env python3
"""Tests of the perfbench harness itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Each test drives the real command (perfbench/run.py) for one-second runs.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# fused-chains and service-windows are not in BENCHMARK.json (README.md
# says why) but still run by hand and as side passes of every traced run.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["fused-chains",
                                                      "service-windows"]


def run(workload, trace="0", extra=(), cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", trace, *extra]
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=180)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return r.returncode, result, r


class PerturbedResultIsCounted(unittest.TestCase):
    """One corrupted operation result per workload is one failure."""

    def test_each_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, _ = run(w, extra=["--perturb-op", "1"])
                self.assertNotEqual(code, 0)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertGreater(result["attempted"], 1)


class CleanRun(unittest.TestCase):
    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, _ = run(w)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_traced_run_reports_every_layer_metric(self):
        w = WORKLOADS[0]
        code, result, proc = run(w, trace="1")
        self.assertEqual(code, 0, proc.stderr[-2000:])
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        line = next(l for l in proc.stdout.splitlines()
                    if l.startswith("spans written to "))
        spans = [json.loads(l) for l in
                 Path(line[len("spans written to "):]).read_text().splitlines()]
        self.assertTrue(spans)
        keys = {"pass", "id", "op", "name", "parent", "start_ns", "end_ns",
                "self_ns", "a", "b"}
        for s in spans[:100]:
            self.assertEqual(set(s), keys)
            self.assertLessEqual(s["start_ns"], s["end_ns"])
            self.assertLessEqual(s["self_ns"], s["end_ns"] - s["start_ns"])
        self.assertEqual({s["pass"] for s in spans}, set(WORKLOADS))
        # The traced workload runs in pairs, one operation of each pair
        # traced, the order flipped every pair; the reference step's spans
        # carry the traced operation's id.
        own = [s for s in spans if s["pass"] == w]
        traced = {s["op"] for s in own if s["name"] == "op"}
        self.assertTrue(traced)
        for op in range(max(traced) + 1):
            self.assertEqual(op in traced, ((op ^ (op >> 1)) & 1) == 0, op)
        refs = {s["op"] for s in own if s["name"] == "reference"}
        self.assertTrue(refs)
        self.assertLessEqual(refs, traced)


class UnknownWorkloadFails(unittest.TestCase):
    """run.py passes the name through; the harness rejects it."""

    def test_unknown_name(self):
        code, result, proc = run("no-such-workload")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)
        self.assertIn("unknown --workload", proc.stderr)


class BareDirectoryFails(unittest.TestCase):
    """Without the library sources the command fails and prints no result."""

    def test_no_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, Path(d) / p)
            code, result, _ = run(WORKLOADS[0], cwd=d)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    sys.exit(unittest.main())
