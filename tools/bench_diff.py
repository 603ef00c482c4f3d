#!/usr/bin/env python3
"""Compares a fresh bench_util --json run against a committed baseline.

  tools/bench_diff.py BENCH_scan_engine.json fresh.json
  tools/bench_diff.py --self-test

Both files are bench_util documents ({"binary", "host", "sections":
[{"title", "values": [[key, value], ...]}]}). For every "<key> median"
value that both files hold under the same section title, prints the old
value, the new value and new / old. A key whose name says "seconds" is
worse when higher; a key ending in "/s" (a rate) or named "speedup" is
worse when lower; any other median is printed without a direction. A
change for the worse of more than THRESHOLD (10%) is flagged as a
regression, and the script exits 1 if any key regressed, 0 otherwise (2
on unreadable input).

A section whose both files hold a "speedup median" (bench/kernels: the
scalar median over the batched median of one take) is gated on that
ratio alone. Its absolute rates are printed but never flagged: both
sides of a cell drift together with the host's load, so pinned takes of
one build spread by up to 45% per cell while their ratio holds.

When the two files' "host" blocks differ (another CPU count, CPU
affinity, kernel clone or page size), it first prints a note naming each
differing field: timings taken pinned to one CPU and unpinned, or on
another kernel clone, differ by more than the threshold on their own. The
note does not change the exit code.
"""

import argparse
import json
import os
import sys
import tempfile

SUFFIX = " median"
SPEEDUP = "speedup" + SUFFIX
THRESHOLD = 0.10


def load_document(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def host_differences(old_document, new_document):
    """[(field, old value, new value)] of the host fields that differ; a
    field one file lacks reads None."""
    old_host = old_document.get("host", {})
    new_host = new_document.get("host", {})
    return [(field, old_host.get(field), new_host.get(field))
            for field in sorted(set(old_host) | set(new_host))
            if old_host.get(field) != new_host.get(field)]


def load_medians(path):
    """{(section title, key): value} for every numeric "<key> median"."""
    document = load_document(path)
    medians = {}
    for section in document.get("sections", []):
        for entry in section.get("values", []):
            if len(entry) != 2:
                continue
            key, value = entry
            if (isinstance(key, str) and key.endswith(SUFFIX) and
                    isinstance(value, (int, float))):
                medians[(section.get("title", ""), key)] = float(value)
    return medians


def direction(key):
    """+1 when higher is worse, -1 when lower is worse, 0 when unknown."""
    name = key[:-len(SUFFIX)]
    if name.endswith("/s") or name == "speedup":
        return -1
    if "seconds" in name:
        return 1
    return 0


def compare(old, new):
    """Rows (title, key, old, new, ratio, regressed) for the shared keys."""
    shared = set(old) & set(new)
    by_speedup = {title for title, key in shared if key == SPEEDUP}
    rows = []
    for title, key in sorted(shared):
        before, after = old[(title, key)], new[(title, key)]
        ratio = after / before if before != 0 else float("inf")
        sign = direction(key)
        if title in by_speedup and key != SPEEDUP:
            sign = 0
        if sign == 0 or before == 0:
            regressed = False
        elif sign > 0:
            regressed = after > before * (1 + THRESHOLD)
        else:
            regressed = after < before * (1 - THRESHOLD)
        rows.append((title, key, before, after, ratio, regressed))
    return rows


def report(rows, out=sys.stdout):
    for title, key, before, after, ratio, regressed in rows:
        flag = "  REGRESSION" if regressed else ""
        out.write("%s / %s: old %.6g  new %.6g  ratio %.3f%s\n" %
                  (title, key, before, after, ratio, flag))
    regressions = sum(1 for row in rows if row[5])
    out.write("%d shared median(s), %d regression(s)\n" %
              (len(rows), regressions))
    return regressions


def diff(old_path, new_path, out=sys.stdout):
    for field, before, after in host_differences(load_document(old_path),
                                                 load_document(new_path)):
        out.write("note: host %s differs: old %s  new %s\n" %
                  (field, json.dumps(before), json.dumps(after)))
    rows = compare(load_medians(old_path), load_medians(new_path))
    return 1 if report(rows, out) else 0


def self_test():
    def document(values, title="t"):
        return {"binary": "b", "host": {}, "sections": [
            {"title": title, "values": values}]}

    old = document([["fit seconds median", 1.0], ["fit seconds min", 0.5],
                    ["scan Mrows/s median", 100.0], ["count median", 7],
                    ["only old seconds median", 3.0]])
    cases = [
        # (new values, expected exit code, expected regressions)
        ([["fit seconds median", 1.05], ["scan Mrows/s median", 95.0]],
         0, 0),
        ([["fit seconds median", 1.2], ["scan Mrows/s median", 100.0]],
         1, 1),
        ([["fit seconds median", 0.5], ["scan Mrows/s median", 80.0]],
         1, 1),
        ([["fit seconds median", 2.0], ["scan Mrows/s median", 50.0],
          ["count median", 70]], 1, 2),
        ([["fit seconds min", 9.0], ["count median", 1]], 0, 0),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as root:
        old_path = os.path.join(root, "old.json")
        with open(old_path, "w", encoding="utf-8") as f:
            json.dump(old, f)
        for i, (values, want_code, want_regressions) in enumerate(cases):
            new_path = os.path.join(root, "new%d.json" % i)
            with open(new_path, "w", encoding="utf-8") as f:
                json.dump(document(values), f)
            rows = compare(load_medians(old_path), load_medians(new_path))
            got = sum(1 for row in rows if row[5])
            with open(os.devnull, "w", encoding="utf-8") as sink:
                code = diff(old_path, new_path, sink)
            if (code, got) != (want_code, want_regressions):
                failures.append("case %d: exit %d with %d regression(s), "
                                "expected %d with %d" %
                                (i, code, got, want_code, want_regressions))
        # A section both files hold a speedup median for is gated on it
        # alone: its rates may halve while the ratio holds, and a falling
        # ratio is flagged whatever the rates do.
        paired = os.path.join(root, "paired.json")
        with open(paired, "w", encoding="utf-8") as f:
            json.dump(document([["scalar Mpairs/s median", 100.0],
                                ["batched Mpairs/s median", 300.0],
                                ["speedup median", 3.0]]), f)
        speedup_cases = [
            # (new values, expected regressions, expected flagged key)
            ([["scalar Mpairs/s median", 50.0],
              ["batched Mpairs/s median", 150.0],
              ["speedup median", 3.0]], 0, None),
            ([["scalar Mpairs/s median", 120.0],
              ["batched Mpairs/s median", 300.0],
              ["speedup median", 2.5]], 1, "speedup median"),
            ([["scalar Mpairs/s median", 60.0],
              ["batched Mpairs/s median", 240.0],
              ["speedup median", 4.0]], 0, None),
            # Without the ratio in both files the rates are gated again.
            ([["scalar Mpairs/s median", 50.0],
              ["batched Mpairs/s median", 150.0]], 2, None),
        ]
        for i, (values, want, want_key) in enumerate(speedup_cases):
            new_path = os.path.join(root, "speedup%d.json" % i)
            with open(new_path, "w", encoding="utf-8") as f:
                json.dump(document(values), f)
            rows = compare(load_medians(paired), load_medians(new_path))
            flagged = [row[1] for row in rows if row[5]]
            if len(rows) != len(values) or len(flagged) != want or \
                    (want_key is not None and flagged != [want_key]):
                failures.append("speedup case %d: %d row(s), flagged %r" %
                                (i, len(rows), flagged))
        # Keys match per section: the same key under another title is not
        # shared.
        other = os.path.join(root, "other.json")
        with open(other, "w", encoding="utf-8") as f:
            json.dump(document([["fit seconds median", 9.0]], title="u"), f)
        if compare(load_medians(old_path), load_medians(other)):
            failures.append("keys of different sections were compared")
    # Host blocks: a differing or missing field is named, equal ones not.
    pinned = {"host": {"hardware_concurrency": 4, "affinity_cpus": 1,
                       "kernel_isa": "x86-64-v4"}}
    unpinned = {"host": {"hardware_concurrency": 4, "affinity_cpus": 4,
                         "kernel_isa": "x86-64-v4"}}
    older = {"host": {"hardware_concurrency": 4, "kernel_isa": "x86-64-v4"}}
    if host_differences(pinned, unpinned) != [("affinity_cpus", 1, 4)]:
        failures.append("affinity difference: %r" %
                        host_differences(pinned, unpinned))
    if host_differences(older, pinned) != [("affinity_cpus", None, 1)]:
        failures.append("missing field: %r" % host_differences(older, pinned))
    if host_differences(pinned, pinned):
        failures.append("equal host blocks differ")
    if direction("memory seconds median") != 1 or \
            direction("batched Mpairs/s median") != -1 or \
            direction("count median") != 0 or \
            direction("speedup median") != -1:
        failures.append("direction() misreads a key")
    if failures:
        print("bench_diff self-test FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("bench_diff self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("baseline", nargs="?",
                        help="committed BENCH_*.json")
    parser.add_argument("fresh", nargs="?",
                        help="fresh bench_util --json output")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.baseline is None or args.fresh is None:
        parser.error("need a baseline and a fresh file")
    try:
        return diff(args.baseline, args.fresh)
    except (OSError, ValueError) as error:
        sys.stderr.write("bench_diff: %s\n" % error)
        return 2


if __name__ == "__main__":
    sys.exit(main())
