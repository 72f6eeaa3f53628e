#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py with short timed phases and checks that the
deterministic fields repeat exactly for a seed, that another seed draws
other inputs, that the sweep workload gives the same transcript and about
the same allocation at 1 and 2 domains, and that every printed metric
name is well formed and declared in BENCHMARK.json.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
DETERMINISTIC_E2E = ("bits_per_trial", "messages_per_trial", "rounds_per_trial", "correct_share")


def bench(workload, seed, trace, seconds=1, domains=0):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if domains:
        argv += ["--domains", str(domains)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    digest = re.search(r"digest=([0-9a-f]+)", lines[0]).group(1)
    return digest, json.loads(lines[-1])


def deterministic(result, trace):
    metrics = result["metrics"]
    if trace == 0:
        keys = DETERMINISTIC_E2E
    else:
        keys = [k for k in metrics if k.startswith(("count.", "phase."))]
    return json.dumps({k: metrics[k] for k in sorted(keys)}, sort_keys=True)


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_deterministic_fields_repeat(self):
        for trace in (0, 1):
            a_digest, a = bench("sweep-k64-par2", 5, trace)
            b_digest, b = bench("sweep-k64-par2", 5, trace)
            self.assertEqual(a_digest, b_digest)
            self.assertEqual(deterministic(a, trace), deterministic(b, trace))
            self.assertEqual(a["failed"], 0)

    def test_seed_changes_inputs(self):
        one, _ = bench("bucket-k1024", 1, 0)
        two, _ = bench("bucket-k1024", 2, 0)
        self.assertNotEqual(one, two)

    def test_sweep_same_at_one_and_two_domains(self):
        # The worker domain starts with cold domain-local caches (the
        # binomial memo trivial-entropy decodes with); 10-s runs amortise
        # that warm-up to about 2%, where a 2-s run still shows about 16%.
        d1_digest, d1 = bench("sweep-k64-par2", 3, 0, seconds=10, domains=1)
        d2_digest, d2 = bench("sweep-k64-par2", 3, 0, seconds=10, domains=2)
        self.assertEqual(d1_digest, d2_digest)
        self.assertEqual(deterministic(d1, 0), deterministic(d2, 0))
        a1 = d1["metrics"]["alloc_bytes_per_trial"]["value"]
        a2 = d2["metrics"]["alloc_bytes_per_trial"]["value"]
        self.assertLess(abs(a1 - a2), 0.1 * a1)

    def test_names_declared(self):
        declared = {0: {m["name"] for m in self.spec["end_to_end"]},
                    1: {m["name"] for m in self.spec["per_layer"]}}
        workloads = [w["name"] for w in self.spec["workloads"]]
        for workload in workloads:
            for trace in (0, 1):
                _, result = bench(workload, 1, trace)
                names = set(result["metrics"])
                for name in names:
                    self.assertRegex(name, NAME)
                self.assertEqual(names, declared[trace], (workload, trace))

    def test_fails_outside_a_checkout(self):
        scratch = os.path.join(ROOT, "_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bucket-k1024", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
