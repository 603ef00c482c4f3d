#!/usr/bin/env python3
"""Smoke-scale self-test of the repository benchmark (perfbench/run.py).

Runs every workload at reduced row counts (--smoke) and checks that
  * every end-to-end and per-layer metric is emitted with a unit, and the
    result JSON carries exactly BENCHMARK.json's metrics;
  * counts repeat exactly between two runs, and between the traced and
    untraced ops of one run;
  * a wrong expected fingerprint raises fail_ratio, and the failed run
    leaves nothing in the book of fingerprints later runs check against;
  * without the library sources the benchmark fails without a result.

    python3 perfbench/test_perfbench.py
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
# Scratch space stays inside the checkout's (ignored) build directory.
SCRATCH = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("mem_d20", "disk_shard_d20", "mem_d200", "classify_d20")

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
perfbench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_run)

END_TO_END = ("op_s_p50", "op_s_tail", "points_per_s", "op_cpu_s", "setup_s",
              "peak_rss_mb", "ari", "fail_ratio")
PER_LAYER = (
    "common.pool_wake_us", "common.pool_speedup", "common.cpu_util",
    "data.scans", "data.bytes_read", "data.rows_fetched", "data.scan_s",
    "data.scan_GBps", "data.wait_s", "data.shard_skew", "data.fetch_s",
    "data.retries", "data.failed_scans", "distance.kernel_rows",
    "distance.evals", "distance.tile_reuse_ratio",
    "distance.segmental_argmin_Mpairs_s", "distance.manhattan_many_Mpairs_s",
    "sketch.rows_screened", "sketch.prune_ratio", "core.iterations",
    "core.scans_per_iteration", "core.init_s", "core.iterative_s",
    "core.refine_s", "core.locality_cache_hit_ratio", "core.consume_s",
    "core.serial_s", "gen.generate_s", "data.store_s", "core.model_fit_s",
    "trace.overhead")
OP_RE = re.compile(r"seed (\d+) .* (\d+) iterations\s+(\d+) scans")
COUNTS = ("data.scans", "data.bytes_read", "distance.kernel_rows",
          "core.iterations", "sketch.rows_screened")


def run(workload, trace, *extra, seed=7, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if check and proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-4000:])
    return proc


def parse(stdout):
    """Returns ({metric: (value or None, unit)}, [((seed, iterations,
    scans), traced)], result JSON)."""
    metrics, ops = {}, []
    lines = stdout.strip().splitlines()
    for line in lines:
        fields = line.split()
        if not fields:
            continue
        op = OP_RE.search(line)
        if fields[0] == "op" and op:
            ops.append((op.groups(), "traced" in line))
        elif len(fields) >= 3 and fields[0] in END_TO_END + PER_LAYER + (
                "cpu_us_per_point_iter",):
            value = None if fields[1] == "absent" else float(fields[1])
            metrics[fields[0]] = (value, fields[2])
    return metrics, ops, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_emitted(self, names, metrics):
        for name in names:
            self.assertIn(name, metrics, name + " not emitted")
            self.assertTrue(metrics[name][1], name + " has no unit")

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics, _, result = parse(run(workload, 0).stdout)
                self.check_emitted(END_TO_END, metrics)
                self.assertTrue(result["correct"])
                self.assertEqual(metrics["fail_ratio"][0], 0.0)
                wanted = [m["name"] for m in self.spec["end_to_end"]]
                self.assertEqual(sorted(result["metrics"]), sorted(wanted))

    def test_layer_metrics_and_traced_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics, ops, result = parse(run(workload, 1).stdout)
                self.check_emitted(PER_LAYER, metrics)
                self.assertTrue(result["correct"])
                wanted = [m["name"] for m in self.spec["per_layer"]]
                self.assertEqual(sorted(result["metrics"]), sorted(wanted))
                # Each traced op repeats an untraced one: same seed, same
                # iterations and scans (the driver also fails the op if
                # any count or the fingerprint differs).
                plain = [fields for fields, traced in ops if not traced]
                traced = [fields for fields, traced in ops if traced]
                self.assertTrue(traced)
                self.assertEqual(plain[:len(traced)], traced)

    def test_counts_repeat_between_runs(self):
        first, _, _ = parse(run("disk_shard_d20", 1).stdout)
        second, _, _ = parse(run("disk_shard_d20", 1).stdout)
        for name in COUNTS:
            self.assertEqual(first[name][0], second[name][0], name)
        self.assertGreater(first["data.bytes_read"][0], 0)

    def test_wrong_fingerprint_raises_fail_ratio(self):
        # Seed 8 is used by no other test, so its key is new to the book.
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            path = os.path.join(tmp, "fingerprints.txt")
            with open(path, "w") as f:
                f.write("case2/32768/8/801 0000000000000000 "
                        "0000000000000000 1 0,1,2,3,4 0.1/0.1/0.1/0.1/0.1\n")
            metrics, _, result = parse(
                run("mem_d20", 0, "--fingerprints", path, seed=8).stdout)
        self.assertGreater(metrics["fail_ratio"][0], 0.0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        seen = os.path.join(perfbench_run.BUILD_DIR, "work",
                            perfbench_run.code_hash(), "seen-fingerprints.txt")
        if os.path.exists(seen):
            with open(seen) as f:
                self.assertNotIn("case2/32768/8/", f.read())

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "mem_d20",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
