#!/usr/bin/env python3
"""Runs the repository benchmark as alternating parent/change pairs and
summarizes every gated end-to-end metric.

  tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload mem_d200 --seeds 2-11
  tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload mem_d20 mem_d200 \\
      --seeds 2-11
  tools/perf_pairs.py --self-test

PARENT_DIR and CHANGE_DIR are two full checkouts (for instance
`git archive <sha> | tar -x -C DIR`). For every seed, and for every
workload within the seed, the script runs `perfbench/run.py --workload W
--seed S --trace 0` once in each tree, at the `run_seconds` of the change's
BENCHMARK.json. The parent runs first on odd seeds and the change first on
even ones, so a drift of the host over time does not favour either side.
Each tree builds its own perfbench driver under its .bench_build/.

For each workload and each end-to-end metric of BENCHMARK.json (name, unit,
direction and bound come from there) it prints the parent's and the
change's median [q1, q3] and [min, max], the change / parent ratio of the
medians, the pairs the change won (strictly better in the metric's
direction) and a verdict:

  gain          the change won at least 9/10 of the pairs, and its median
                is better than the parent's by more than the parent's
                interquartile range;
  unresolved    the parent's interquartile range exceeds bound x its
                median, unless every change run is better than every
                parent run;
  worse         the change's median is worse than the parent's by more
                than bound x the parent's median;
  within bound  any other case.

Runs whose result says "correct": false or failed > 0, and runs that
printed no result, are listed; the exit code is then 1, else 0 (2 on bad
arguments). The verdicts do not change the exit code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

TREES = ("parent", "change")


def parse_seeds(text):
    """'A-B' (inclusive) or 'A' -> list of seeds."""
    first, _, last = text.partition("-")
    try:
        low = int(first)
        high = int(last) if last else low
    except ValueError:
        raise argparse.ArgumentTypeError("--seeds expects A-B, got %r" % text)
    if low < 1 or high < low:
        raise argparse.ArgumentTypeError("--seeds expects 1 <= A <= B")
    return list(range(low, high + 1))


def schedule(workloads, seeds):
    """(seed, workload, tree) in run order: seed by seed, each workload's
    pair back to back, the parent first on odd seeds."""
    order = []
    for seed in seeds:
        trees = TREES if seed % 2 == 1 else TREES[::-1]
        for workload in workloads:
            order += [(seed, workload, tree) for tree in trees]
    return order


def parse_result(stdout):
    """The last JSON result line perfbench/run.py printed, or None."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def run_one(tree_dir, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree_dir, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree_dir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    result = parse_result(proc.stdout)
    if proc.returncode != 0 and result is not None:
        result = dict(result, correct=False)
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return result


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order
    statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec, runs):
    """Summary rows and the list of failed runs.

    `runs` maps (seed, workload, tree) to a perfbench result object (or
    None when the run printed none). A row is (workload, metric entry,
    pairs, {tree: (median, q1, q3, min, max)}, ratio, wins).
    """
    failures = []
    for key in sorted(runs):
        result = runs[key]
        if (result is None or not result.get("correct", False) or
                result.get("failed", 1) > 0):
            failures.append(key)
    rows = []
    workloads = sorted({workload for _, workload, _ in runs})
    for workload in workloads:
        seeds = sorted({seed for seed, w, _ in runs if w == workload})
        for entry in spec["end_to_end"]:
            name = entry["name"]
            values = {tree: [] for tree in TREES}
            wins = pairs = 0
            for seed in seeds:
                pair = {}
                for tree in TREES:
                    result = runs.get((seed, workload, tree))
                    metric = (result or {}).get("metrics", {}).get(name)
                    if metric is not None:
                        pair[tree] = float(metric["value"])
                if len(pair) != 2:
                    continue
                pairs += 1
                for tree in TREES:
                    values[tree].append(pair[tree])
                lower = entry["better"] == "lower"
                if (pair["change"] < pair["parent"] if lower else
                        pair["change"] > pair["parent"]):
                    wins += 1
            if pairs == 0:
                continue
            stats = {}
            for tree in TREES:
                q1, median, q3 = quartiles(values[tree])
                stats[tree] = (median, q1, q3, min(values[tree]),
                               max(values[tree]))
            parent_median = stats["parent"][0]
            ratio = (stats["change"][0] / parent_median
                     if parent_median != 0 else float("inf"))
            rows.append((workload, entry, pairs, stats, ratio, wins))
    return rows, failures


def verdict(entry, pairs, stats, wins):
    """The verdict on one workload's metric (see the module docstring)."""
    lower = entry["better"] == "lower"
    bound = entry["bound"]
    parent_median, parent_q1, parent_q3, parent_min, parent_max = \
        stats["parent"]
    change_median, _, _, change_min, change_max = stats["change"]
    parent_iqr = parent_q3 - parent_q1
    # How much better the change's median is; negative when worse.
    better_by = (parent_median - change_median if lower else
                 change_median - parent_median)
    if wins * 10 >= pairs * 9 and better_by > parent_iqr:
        return "gain"
    every_run_better = (change_max < parent_min if lower else
                        change_min > parent_max)
    if parent_iqr > bound * abs(parent_median) and not every_run_better:
        return "unresolved"
    if -better_by > bound * abs(parent_median):
        return "worse"
    return "within bound"


def report(rows, failures, out=sys.stdout):
    for workload, entry, pairs, stats, ratio, wins in rows:
        out.write("%s  %s (%s, %s is better), %d pairs\n" %
                  (workload, entry["name"], entry["unit"], entry["better"],
                   pairs))
        for tree in TREES:
            median, q1, q3, low, high = stats[tree]
            out.write("  %-6s median %.4g [q1 %.4g, q3 %.4g] "
                      "[min %.4g, max %.4g]\n" %
                      (tree, median, q1, q3, low, high))
        out.write("  change/parent %.3f, change won %d/%d: %s\n" %
                  (ratio, wins, pairs, verdict(entry, pairs, stats, wins)))
    for seed, workload, tree in failures:
        out.write("FAILED: %s run of %s at seed %d (correct false, failed "
                  "ops or no result)\n" % (tree, workload, seed))
    return 1 if failures else 0


def load_spec(tree_dir):
    with open(os.path.join(tree_dir, "BENCHMARK.json"),
              encoding="utf-8") as f:
        return json.load(f)


def run_pairs(parent_dir, change_dir, workloads, seeds):
    spec = load_spec(change_dir)
    seconds = spec["run_seconds"]
    dirs = {"parent": parent_dir, "change": change_dir}
    runs = {}
    for seed, workload, tree in schedule(workloads, seeds):
        result = run_one(dirs[tree], workload, seed, seconds)
        runs[(seed, workload, tree)] = result
        print("run seed %d %s %s: %s" % (seed, workload, tree,
                                         json.dumps(result)))
        sys.stdout.flush()
    rows, failures = summarize(spec, runs)
    return report(rows, failures)


def self_test():
    spec = {"run_seconds": 25, "end_to_end": [
        {"name": "rss", "unit": "MiB", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "x", "better": "higher", "bound": 0.25}]}

    def result(rss, rate, correct=True, failed=0):
        return {"correct": correct, "attempted": 10, "failed": failed,
                "metrics": {"rss": {"value": rss, "unit": "MiB"},
                            "rate": {"value": rate, "unit": "x"}}}

    failures = []

    def expect(condition, what):
        if not condition:
            failures.append(what)

    # Five pairs of one workload: the change lowers rss in four pairs and
    # raises rate in every pair.
    parent_rss = [70.0, 74.0, 72.0, 80.0, 76.0]
    change_rss = [48.0, 49.0, 75.0, 50.0, 47.0]
    runs = {}
    for i, seed in enumerate(range(1, 6)):
        runs[(seed, "w", "parent")] = result(parent_rss[i], 1.0)
        runs[(seed, "w", "change")] = result(change_rss[i], 2.0 + i)
    rows, failed = summarize(spec, runs)
    expect(not failed, "clean runs were listed as failed")
    expect(len(rows) == 2, "expected one row per metric")
    rss_row = next(row for row in rows if row[1]["name"] == "rss")
    _, _, pairs, stats, ratio, wins = rss_row
    expect(pairs == 5, "rss: %d pairs, expected 5" % pairs)
    expect(stats["parent"] == (74.0, 72.0, 76.0, 70.0, 80.0),
           "rss parent stats %r" % (stats["parent"],))
    expect(stats["change"] == (49.0, 48.0, 50.0, 47.0, 75.0),
           "rss change stats %r" % (stats["change"],))
    expect(abs(ratio - 49.0 / 74.0) < 1e-12, "rss ratio %r" % ratio)
    expect(wins == 4, "rss: change won %d pairs, expected 4" % wins)
    rate_row = next(row for row in rows if row[1]["name"] == "rate")
    expect(rate_row[5] == 5, "rate (higher is better) won %d, expected 5" %
           rate_row[5])
    with open(os.devnull, "w", encoding="utf-8") as sink:
        expect(report(rows, failed, sink) == 0, "clean report exited 1")

    # A run that is incorrect, one with failed ops and one that printed no
    # result are each listed, and the report exits 1. The pair with no
    # result drops out of the summary.
    runs[(2, "w", "change")] = result(49.0, 3.0, correct=False)
    runs[(3, "w", "parent")] = result(72.0, 1.0, failed=1)
    runs[(4, "w", "change")] = None
    rows, failed = summarize(spec, runs)
    expect(failed == [(2, "w", "change"), (3, "w", "parent"),
                      (4, "w", "change")], "failed runs %r" % (failed,))
    expect(rows[0][2] == 4, "a pair without a result was summarized")
    with open(os.devnull, "w", encoding="utf-8") as sink:
        expect(report(rows, failed, sink) == 1, "failed runs exited 0")

    # One canned case per verdict, from ten pairs of "rss" (lower is
    # better, bound 0.25).
    def verdict_of(parent, change):
        canned = {}
        for seed in range(1, 11):
            canned[(seed, "w", "parent")] = result(parent[seed - 1], 1.0)
            canned[(seed, "w", "change")] = result(change[seed - 1], 1.0)
        row = next(row for row in summarize(spec, canned)[0]
                   if row[1]["name"] == "rss")
        return verdict(row[1], row[2], row[3], row[5])

    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.0]
    # Nine of ten pairs won, medians 30 apart against an IQR of about 0.6.
    gain = [70.0] * 9 + [101.5]
    expect(verdict_of(steady, gain) == "gain",
           "gain: %s" % verdict_of(steady, gain))
    # Eight of ten won by as much: not 9/10, so only within the bound.
    expect(verdict_of(steady, [70.0] * 8 + [101.5] * 2) == "within bound",
           "eight of ten won")
    # A parent spread of 60% of its median against a 25% bound.
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 75.0, 125.0]
    expect(verdict_of(wide, [v * 1.01 for v in wide]) == "unresolved",
           "wide parent spread")
    # ... unless every change run beats every parent run. Its median is
    # not better by the parent's IQR (about 55), so it is no gain.
    beats_all = [50.0 + 0.1 * i for i in range(10)]
    expect(verdict_of(wide, beats_all) == "within bound",
           "a wide parent spread every change run beats: %s" %
           verdict_of(wide, beats_all))
    # 30% worse in the median on a steady parent.
    expect(verdict_of(steady, [v * 1.3 for v in steady]) == "worse",
           "worse: %s" % verdict_of(steady, [v * 1.3 for v in steady]))
    # 10% worse: inside the bound.
    expect(verdict_of(steady, [v * 1.1 for v in steady]) == "within bound",
           "within bound: %s" %
           verdict_of(steady, [v * 1.1 for v in steady]))

    # One sample: every statistic is that sample.
    expect(quartiles([3.0]) == (3.0, 3.0, 3.0), "one-sample quartiles")

    # Order: seed by seed, workloads interleaved, parent first on odd seeds.
    expect(schedule(["a", "b"], [1, 2]) ==
           [(1, "a", "parent"), (1, "a", "change"), (1, "b", "parent"),
            (1, "b", "change"), (2, "a", "change"), (2, "a", "parent"),
            (2, "b", "change"), (2, "b", "parent")], "run order")
    expect(parse_seeds("2-4") == [2, 3, 4] and parse_seeds("7") == [7],
           "seed ranges")
    for bad in ("4-2", "0-3", "x"):
        try:
            parse_seeds(bad)
            failures.append("--seeds %s was accepted" % bad)
        except argparse.ArgumentTypeError:
            pass
    expect(parse_result("metric\tx\n{\"correct\": true}\n") ==
           {"correct": True}, "result line parsing")
    expect(parse_result("build failed\n") is None, "missing result line")

    if failures:
        print("perf_pairs self-test FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("perf_pairs self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent_dir", nargs="?", help="parent checkout")
    parser.add_argument("change_dir", nargs="?", help="change checkout")
    parser.add_argument("--workload", nargs="+", help="workload names")
    parser.add_argument("--seeds", type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--self-test", action="store_true",
                        help="summarize canned results; builds nothing")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent_dir and args.change_dir and args.workload and
            args.seeds):
        parser.error("need PARENT_DIR, CHANGE_DIR, --workload and --seeds")
    for tree_dir in (args.parent_dir, args.change_dir):
        if not os.path.isfile(os.path.join(tree_dir, "perfbench", "run.py")):
            parser.error("%s has no perfbench/run.py" % tree_dir)
    return run_pairs(os.path.abspath(args.parent_dir),
                     os.path.abspath(args.change_dir), args.workload,
                     args.seeds)


if __name__ == "__main__":
    sys.exit(main())
