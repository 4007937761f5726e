#!/usr/bin/env python3
"""Contract tests for the benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark (as `run.py` does), then check that
* the binary's metric catalogue (`--describe`) declares exactly the names,
  units and directions `BENCHMARK.json` declares, and the same workloads;
* every workload, untraced and traced, emits exactly the metrics
  `BENCHMARK.json` declares for that mode, with their units, and passes its
  output check;
* `run.py` fails without printing a result where only `BENCHMARK.json` and
  the benchmark's own files exist.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
UNIT_CHARS = NAME_CHARS | set("/%")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def binary():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(target, "release", "perfbench")


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            env=dict(os.environ, CARGO_TARGET_DIR=target),
            check=True,
        )
        out = subprocess.run([binary(), "--describe"], capture_output=True, text=True, check=True)
        cls.catalogue = json.loads(out.stdout)

    def test_benchmark_json_shape(self):
        b = bench()
        self.assertEqual(
            set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in b[group]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertTrue(name[0].isalnum() and len(name) <= 64 and set(name) <= NAME_CHARS, name)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertTrue(set(m["unit"]) <= UNIT_CHARS and len(m["unit"]) <= 16, m["unit"])
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_catalogue_matches_benchmark_json(self):
        b = bench()
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: (m["unit"], m["better"]) for m in b[group]}
            emitted = {m["name"]: (m["unit"], m["better"]) for m in self.catalogue[group]}
            self.assertEqual(declared, emitted, group)
        self.assertEqual(
            [(w["name"], w["why"]) for w in b["workloads"]],
            [(w["name"], w["why"]) for w in self.catalogue["workloads"]],
        )
        for layer in self.catalogue["per_layer"]:
            self.assertTrue(layer["layer"] and layer["moves"] and layer["workload"], layer)

    def test_every_workload_emits_exactly_the_declared_metrics(self):
        out_dir = os.path.join(HERE, "out", "test")
        for workload in bench()["workloads"]:
            for trace in (False, True):
                with self.subTest(workload=workload["name"], trace=trace):
                    done = subprocess.run(
                        [binary(), "--workload", workload["name"], "--seed", "7",
                         "--seconds", "1", "--trace", "1" if trace else "0", "--out", out_dir],
                        capture_output=True, text=True, timeout=170,
                    )
                    self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr[-3000:])
                    last = done.stdout.strip().split("\n")[-1]
                    self.assertEqual(run.check_result(last, trace), [])
                    result = json.loads(last)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    for name, metric in result["metrics"].items():
                        if not trace:
                            self.assertNotEqual(metric["value"], 0, name)
        shutil.rmtree(out_dir, ignore_errors=True)

    def test_run_fails_without_the_repository(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "target", "__pycache__"))
        done = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "zipf-ingest", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
