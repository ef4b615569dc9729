#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test_bench.py

They build the perfbench binary through run.py (a no-op when it is up
to date) and take about a minute.  Work files go under .bench_build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK = os.path.join(ROOT, ".bench_build", "tests")

# Per-layer counters that are pure functions of the seed and the code.
EXACT_COUNTERS = [
    "uarch.guest_cycles", "uarch.committed", "uarch.squashed",
    "attacks.cells", "attacks.arenas_forked", "attacks.arenas_rebuilt",
    "attacks.warm_hits", "attacks.warm_misses",
    "campaign.cells_expanded", "campaign.cells_executed",
    "campaign.cache_hits", "campaign.cache_misses",
    "campaign.persist_bytes",
    "verdict.model_decided", "verdict.model_undecided",
    "serve.requests", "serve.executed", "serve.cache_hits",
]


def run_bench(workload, seed, seconds, trace, *extra):
    """Run one workload; return (exit code, parsed result or None)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


class FailureAccounting(unittest.TestCase):
    """A doctored golden must show up as failed ops, not a crash."""

    def setUp(self):
        os.makedirs(WORK, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=WORK)
        self.golden = os.path.join(self.tmp, "golden")
        shutil.copytree(os.path.join(ROOT, "golden"), self.golden)
        path = os.path.join(self.golden, "defense-matrix.json")
        with open(path) as f:
            text = f.read()
        leak = '{"runs": 1, "leaks": 1, "pattern": "1"}'
        self.assertIn(leak, text)
        # Spectre v1 x baseline: leaks on the real machine.
        text = text.replace(leak, '{"runs": 1, "leaks": 0, "pattern": "0"}',
                            1)
        with open(path, "w") as f:
            f.write(text)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_gate_counts_every_pass_failed(self):
        code, result = run_bench("gate", 1, 1, 0, "--golden-dir", self.golden)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], result["attempted"])

    def test_sweep_counts_the_flipped_cell(self):
        code, result = run_bench("sweep", 1, 1, 0, "--golden-dir",
                                 self.golden)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        # One bad cell per pass (warm-up plus at least one timed pass).
        self.assertGreaterEqual(result["failed"], 2)
        self.assertLess(result["failed"], result["attempted"] // 1000)

    def test_clean_goldens_pass(self):
        code, result = run_bench("gate", 1, 1, 0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


class ExactCounters(unittest.TestCase):
    """Every exact counter repeats across two runs of one seed."""

    def check_repeats(self, workload):
        _, first = run_bench(workload, 5, 1, 1)
        _, second = run_bench(workload, 5, 1, 1)
        for name in EXACT_COUNTERS:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"],
                             f"{workload}: {name}")
        self.assertTrue(first["correct"] and second["correct"])
        return first["metrics"]

    def test_sweep(self):
        metrics = self.check_repeats("sweep")
        self.assertGreater(metrics["uarch.guest_cycles"]["value"], 0)

    def test_gate(self):
        metrics = self.check_repeats("gate")
        self.assertGreater(metrics["campaign.cache_hits"]["value"], 0)
        # The daemon probe answers every submit from its cache file.
        self.assertEqual(metrics["serve.executed"]["value"], 0)
        self.assertGreater(metrics["serve.cache_hits"]["value"], 0)


class Contract(unittest.TestCase):
    """Without the repository's sources the benchmark refuses to run."""

    def test_fails_without_sources(self):
        os.makedirs(WORK, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=WORK)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
