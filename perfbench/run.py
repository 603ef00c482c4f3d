#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver from this checkout and runs
one workload (or all of them), printing every metric by name with its unit
and, as the last line, one JSON result object.

    python3 perfbench/run.py --workload mem_d20 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

--trace 0 reports BENCHMARK.json's end-to-end metrics, --trace 1 its
per-layer metrics. --record rewrites perfbench/fingerprints.txt from a run
of each algorithm seed (use --seed 1); --smoke is the self-test's scale.
The build goes to .bench_build/perfbench at the root of the checkout.
Scratch data, span files and the fingerprints seen by earlier runs go to
.bench_build/perfbench/work/<hash of the code>, so runs of different code
never check each other.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("mem_d20", "disk_shard_d20", "mem_d200", "classify_d20")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the driver and the library it links."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources under %s/src: run from the root "
                         "of a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found on PATH")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_build_step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_driver", "--parallel", "4"])


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        raise BenchError("build step failed: %s" % " ".join(cmd))


def code_hash():
    """Hashes the library sources and the driver's, which fix every output."""
    digest = hashlib.sha256()
    files = [os.path.join(BENCH_DIR, name) for name in os.listdir(BENCH_DIR)
             if name.endswith((".cc", ".h")) or name == "CMakeLists.txt"]
    for top, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files += [os.path.join(top, name) for name in names]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (path, e))


def run_workload(name, args, work_dir):
    """Runs the driver on one workload; returns (metrics, attempted, failed)."""
    cmd = [DRIVER, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--fingerprints", args.fingerprints]
    cmd += ["--record"] if args.record else []
    cmd += ["--smoke"] if args.smoke else []
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: driver exceeded %d s" % (name, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("%s: driver exited with %d" % (name, proc.returncode))
    metrics = {}
    attempted = failed = None
    for line in proc.stdout.splitlines():
        fields = line.split("\t")
        if fields[0] == "metric" and len(fields) == 5:
            _, metric, value, unit, note = fields
            metrics[metric] = (None if value == "absent"
                               else (float(value), unit))
            shown = value if value == "absent" else "%.6g" % float(value)
            print("  %-36s %14s %-9s %s" % (metric, shown, unit, note))
        elif fields[0] == "result" and len(fields) == 3:
            attempted, failed = int(fields[1]), int(fields[2])
        else:
            print("  " + line.replace("\t", "  "))
    if attempted is None or attempted < 1:
        raise BenchError("%s: driver reported no result" % name)
    return metrics, attempted, failed


def result_json(spec, trace, metrics, attempted, failed):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        value = metrics.get(entry["name"])
        if value is None:
            raise BenchError("metric %s was not measured" % entry["name"])
        out[entry["name"]] = {"value": value[0], "unit": value[1]}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": out})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprints",
                        default=os.path.join(BENCH_DIR, "fingerprints.txt"))
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    # A terminated run still stops and reaps the driver (subprocess.run
    # kills its child when an exception unwinds through it).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        start = time.monotonic()
        build()
        print("build\t%.1f s" % (time.monotonic() - start))
        work_dir = os.path.join(BUILD_DIR, "work", code_hash())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            metrics, attempted, failed = run_workload(name, args, work_dir)
            sys.stdout.flush()
            print(result_json(spec, args.trace, metrics, attempted, failed))
    except BenchError as e:
        sys.stdout.flush()
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
