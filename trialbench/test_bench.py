#!/usr/bin/env python3
"""Smoke tests of trialbench itself.

    python3 trialbench/test_bench.py

Runs every workload briefly through run.py (building first if needed):
every declared metric is printed with its declared unit, exact per-layer
counts repeat bit for bit across two traced runs (each of which also
checks that its untraced pass at the workload's worker count and its
serial traced pass give the same digest: 2 workers against 1 on
fleet_loaded), a tampered expected digest fails the run, BENCHMARK.json
matches spec.py, and a tree without the simulator sources fails without
printing a result. Scratch files go under .bench_build/.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "test"
WORKLOADS = [w["name"] for w in spec.WORKLOADS]


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    result = json.loads(last) if last.startswith("{") else None
    return proc, result


class TrialBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def check_declared(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m[0] for m in declared})
        for name, unit, *_ in declared:
            self.assertEqual(result["metrics"][name]["unit"], unit, name)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, result = run("--workload", w, "--seconds", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_declared(result, spec.END_TO_END)

    def test_traced_counts_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = []
                for _ in range(2):
                    proc, result = run("--workload", w, "--trace", "1")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertTrue(result["correct"])
                    self.check_declared(result, spec.PER_LAYER)
                    runs.append(result["metrics"])
                for name in spec.EXACT:
                    self.assertEqual(runs[0][name]["value"],
                                     runs[1][name]["value"], name)

    def test_tampered_digest_fails_the_run(self):
        digests = json.loads((HERE / "digests.json").read_text())
        digests["race_mc"] = "%016x" % (int(digests["race_mc"], 16) ^ 1)
        tampered = SCRATCH / "digests_tampered.json"
        tampered.write_text(json.dumps(digests))
        proc, result = run("--workload", "race_mc", "--seconds", "1",
                           "--digests", str(tampered))
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])

    def test_benchmark_json_matches_spec(self):
        on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(on_disk, spec.benchmark_json())

    def test_fails_without_simulator_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "trialbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = run("--workload", "race_mc", "--seconds", "1",
                           cwd=bare, script=bare / "trialbench" / "run.py")
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
