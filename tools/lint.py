#!/usr/bin/env python3
"""Repo-specific lint for the PROCLUS reproduction.

Enforces invariants that no generic tool knows about:

  banned-randomness   rand()/srand()/std::random_device/time()-seeding are
                      forbidden outside src/common/rng.cc: every randomized
                      component must draw from the seeded proclus::Rng so
                      results are reproducible bit-for-bit.
  iostream-in-library src/ library code must not write to std::cout or
                      std::cerr; diagnostics go through common/logging.h so
                      harness output stays machine-parseable.
  check-in-status-fn  PROCLUS_CHECK aborts the process, so inside a function
                      returning Status/Result it is only acceptable for
                      internal invariants, never user-input validation.
                      Each such use must carry an `// invariant:` comment
                      (same line or the line above) justifying why it cannot
                      be triggered by caller-supplied data.
  include-guard       Header guards must be PROCLUS_<DIR>_<FILE>_H_ derived
                      from the path (src/ stripped, bench/ kept).
  nodiscard-status    Status and Result must stay declared [[nodiscard]] so
                      the compiler rejects silently discarded errors
                      (-Werror turns those warnings into build failures).
  result-unchecked    RETIRED — superseded by the `status-flow` rule in
                      tools/analyzer, which checks the same invariant
                      (no Result access before an ok() check) on the
                      statement tree instead of with textual precedence,
                      so a check in a sibling branch no longer counts as
                      a guard. See tools/analyzer/rules.py.
  raw-scan            Direct PointSource::Scan / ForEachBlock calls are
                      forbidden outside the scan executor (src/data/
                      engine.cc) and the two sources that read through
                      other sources (src/data/fault_source.cc and src/data/
                      sharded_source.cc): every data pass in src/, bench/,
                      and examples/ must go through a ScanConsumer driven by
                      ScanExecutor::Run, so scans can be fused and the
                      RunStats scan/byte counters stay truthful.
  raw-ifstream        Direct std::ifstream use in src/data is forbidden
                      outside binary_io.cc and point_source.cc: every other
                      reader must go through ReadFileBytes (data/binary_io.h)
                      or the PointSource layer, which report short reads and
                      corruption as detailed Statuses (path, byte offset,
                      expected/actual sizes) instead of silently truncating.
  segmental-dimension-set
                      Calling the DimensionSet overload of
                      ManhattanSegmentalDistance inside a for/while loop in
                      src/core or src/distance. That overload walks the
                      bitset per call; hot loops must hoist the index list
                      (dims.ToVector()) out of the loop once and call the
                      span overload, which is allocation-free and
                      bit-identical. Applies to arguments declared with a
                      DimensionSet type in the same file.
  unordered-iteration A range-for over a std::unordered_map/set (declared in
                      the same file, directly or through a local alias)
                      whose body feeds an ordered sink — output streams,
                      push_back/emplace_back, or the seeded Rng. Hash-map
                      iteration order is implementation-defined, so such
                      loops silently break bit-for-bit reproducibility.
                      Sort the keys first, or iterate an ordered mirror.
  raw-sync            Raw std::mutex / std::lock_guard / std::unique_lock /
                      std::condition_variable (& friends) are forbidden in
                      src/, bench/, and examples/ outside common/sync.h:
                      shared state must synchronize through the annotated
                      proclus::Mutex / MutexLock / CondVar wrappers so the
                      Clang thread-safety analysis (the `tsa` preset) can
                      see every acquire/release. GCC builds compile the
                      annotations away, so this rule is what keeps
                      non-Clang trees on the annotated primitives.
  atomic-order        Every std::atomic declaration in src/ must name its
                      memory-order discipline in a trailing `// order:`
                      comment (same line or the comment block directly
                      above). An undocumented atomic is an unreviewable
                      one: the next editor cannot tell relaxed-by-design
                      from seq-cst-by-accident. Prefer GuardedCounter
                      (common/sync.h) for plain statistics counters.
  atomic-rmw          Bare read-modify-write operators (++, --, +=, -=) on
                      a variable declared std::atomic in the same src/
                      file. The operator spelling is sequentially
                      consistent, almost never intended in hot paths, and
                      hides the ordering decision atomic-order exists to
                      surface; write fetch_add(n, <order>) explicitly.
  sync-annotation     Every proclus::Mutex declared in src/ must appear in
                      at least one thread-safety annotation in the same
                      file (PROCLUS_GUARDED_BY / REQUIRES / ACQUIRE /
                      RELEASE / EXCLUDES / ACQUIRED_BEFORE / ...): a mutex
                      that guards nothing the analysis can check is
                      documentation debt, not a contract.
  raw-sleep           Bare std::this_thread::sleep_for/sleep_until in src/,
                      bench/, or examples/ outside common/cancel.h. A raw
                      sleep can be neither woken by a CancelToken nor
                      truncated by a Deadline, so it would break the
                      one-block cancellation latency bound (DESIGN.md §13).
                      Sleep through InterruptibleSleep / HangUntilCancelled
                      (common/cancel.h), which park on the token's condvar
                      and honor the deadline; cancel.h itself is the one
                      place the primitive sleeps live.
  raw-isa-attribute   target_clones, __attribute__((target(...))) and
                      [[gnu::target(...)]] anywhere outside
                      src/distance/batch.{h,cc}. The choice of instruction
                      set stays behind that one module's PROCLUS_KERNEL
                      macro, which also carries the guards a clone needs
                      (contraction off, no clones under ThreadSanitizer
                      or off x86-64 ELF; DESIGN.md §9). Move a loop that
                      needs a wider ISA into a batch kernel instead.

  reference-independence
                      tests/reference_proclus.{h,cc}, the paper-transcribed
                      PROCLUS the production fit is checked against bit for
                      bit, may not include core/consumers.h, core/passes.h,
                      core/assign.h, data/engine.h or distance/batch.h, nor
                      name the engine's entry points (ScanExecutor, any
                      *Consumer, *Pass or *Batch, MedoidDistanceCache,
                      PointSource, MemorySource, DiskSource, RunProclus*,
                      AssignPoints, EvaluateClusters, internal::). An
                      oracle that shared code with the engine could not
                      catch a bug in that code.
  test-only-api       A src/ header that nothing outside tests/ and fuzz/
                      includes, other than its own .cc: no other src/ file,
                      and no file under tools/, examples/, bench/ or
                      perfbench/. Such a header is library code only tests
                      call; delete it with its tests, or give it a caller.
                      Checked over the whole tree (reported on line 1 of
                      the header).

Any line may opt out of one rule with a trailing `// lint:allow(<rule>)`
comment; use sparingly and justify in a neighboring comment.

Usage:
  tools/lint.py [--root DIR]   # lint the tree, exit non-zero on findings
  tools/lint.py --self-test    # run the built-in fixture tests
"""

import argparse
import os
import re
import sys
import tempfile

SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools", "fuzz")
SOURCE_EXTS = (".cc", ".cpp", ".h", ".hpp")

# Files allowed to reference OS randomness / wall-clock seeding: the one
# place that defines the seeded generator.
RNG_ALLOWLIST = (os.path.join("src", "common", "rng.cc"),
                 os.path.join("src", "common", "rng.h"))

BANNED_RANDOMNESS = [
    (re.compile(r"std\s*::\s*random_device"), "std::random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time()-based seeding"),
]

IOSTREAM_RE = re.compile(r"std\s*::\s*(cout|cerr|clog)\b")

# --- raw-scan ---------------------------------------------------------------

# Directories whose data passes must run on the scan executor. Tests and
# tools may exercise the raw API (the executor's own tests have to).
RAW_SCAN_DIRS = ("src", "bench", "examples")

# The callers of Scan() inside the scan machinery: the executor, which
# reads each block with one Scan and drives the consumers over it, and the
# two sources that read one block through other sources: the
# fault-injection decorator (which reads its inner source's block to fault
# it) and the shard set (which reads a block from the shard holding it, or
# from each shard a block spans). The other sources implement ScanBlocks
# and call no Scan.
RAW_SCAN_ALLOWLIST = (os.path.join("src", "data", "engine.cc"),
                      os.path.join("src", "data", "fault_source.cc"),
                      os.path.join("src", "data", "sharded_source.cc"))

RAW_SCAN_RE = re.compile(r"(?:\.|->)\s*Scan\s*\(|\bForEachBlock\s*\(")

# --- raw-ifstream -----------------------------------------------------------

# The only src/data files that may open files for reading directly: the
# checked binary reader (which implements ReadFileBytes) and the
# PointSource layer. Everything else must consume their detailed-Status
# I/O instead of re-inventing silent-truncation reads.
RAW_IFSTREAM_DIR = os.path.join("src", "data")
RAW_IFSTREAM_ALLOWLIST = (os.path.join("src", "data", "binary_io.cc"),
                          os.path.join("src", "data", "point_source.cc"))

RAW_IFSTREAM_RE = re.compile(r"std\s*::\s*ifstream\b")

# A function definition returning Status or Result<...>: return type at the
# start of a (possibly indented) line, then a qualified name and parameter
# list. Good enough for this codebase's Google-style formatting.
STATUS_FN_RE = re.compile(
    r"^[ \t]*(?:static\s+|inline\s+)*(?:Status|Result<[^;={}]*>)\s+"
    r"[A-Za-z_][\w:]*\s*\(",
    re.MULTILINE)

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)")

GUARD_DIRS = ("src", "bench", "fuzz")

# Directories where determinism bugs are real bugs (library, bench harness,
# fuzz harness). Tests intentionally do order-sensitive things as assertions,
# so they are exempt.
LIBRARY_RULE_DIRS = ("src", "bench", "fuzz")

# --- segmental-dimension-set ------------------------------------------------

# Hot-path directories where per-call bitset walks are a real regression:
# the PROCLUS passes and the distance kernels themselves.
SEGMENTAL_RULE_DIRS = (os.path.join("src", "core"),
                       os.path.join("src", "distance"))

# An identifier declared (or received as a parameter) with a DimensionSet
# type: `DimensionSet dims`, `const DimensionSet& dims`, `DimensionSet*`.
DIMENSION_SET_DECL_RE = re.compile(
    r"\bDimensionSet\b\s*(?:const\b\s*)?[&*]?\s*([A-Za-z_]\w*)")

SEGMENTAL_CALL_RE = re.compile(r"\bManhattanSegmentalDistance\s*\(")

# --- raw-sync ---------------------------------------------------------------

# Library, bench, and example code must use the annotated primitives from
# common/sync.h; tests and tools may drive the raw std API directly (the
# sync wrappers' own tests have to).
RAW_SYNC_DIRS = ("src", "bench", "examples")
RAW_SYNC_ALLOWLIST = (os.path.join("src", "common", "sync.h"),)

RAW_SYNC_RE = re.compile(
    r"std\s*::\s*(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable|condition_variable_any)\b")

# --- raw-sleep ---------------------------------------------------------------

# Every blocking wait in the library must be interruptible: a bare
# this_thread sleep cannot be woken by a CancelToken or truncated by a
# Deadline, so a cancelled run would still serve the full sleep. The only
# file that may sleep directly is common/cancel.h, which implements the
# interruptible primitives everything else must use.
RAW_SLEEP_DIRS = ("src", "bench", "examples")
RAW_SLEEP_ALLOWLIST = (os.path.join("src", "common", "cancel.h"),)

RAW_SLEEP_RE = re.compile(
    r"(?:std\s*::\s*)?this_thread\s*::\s*sleep_(?:for|until)\s*\(")

# --- raw-isa-attribute -------------------------------------------------------

# Per-function ISA selection lives in the kernel layer only: batch.cc's
# PROCLUS_KERNEL pairs the clones with the contraction and sanitizer
# guards that keep every clone bit-identical and loadable.
RAW_ISA_ALLOWLIST = (os.path.join("src", "distance", "batch.h"),
                     os.path.join("src", "distance", "batch.cc"))

RAW_ISA_RE = re.compile(
    r"\btarget_clones\b"
    r"|__attribute__\s*\(\s*\(\s*target\s*\("
    r"|\[\[\s*gnu\s*::\s*target\b")

# --- atomic-order / atomic-rmw ----------------------------------------------

# A std::atomic<...> declaration followed by the declared name. Matches
# members, globals, and locals; the terminator set keeps it off casts and
# template parameters.
ATOMIC_DECL_RE = re.compile(
    r"std\s*::\s*atomic\s*<[^;{}()]*>\s+([A-Za-z_]\w*)\s*[{;=(]")

# Bare seq-cst RMW spellings on an atomic-declared name (filled per file).
ATOMIC_RMW_OPS = r"(?:\+\+|--|\+=|-=|\|=|&=|\^=)"

# --- sync-annotation --------------------------------------------------------

# A proclus::Mutex member/variable declaration: `Mutex name ...;`. `Mutex&`
# parameters and MutexLock locals deliberately do not match.
MUTEX_DECL_RE = re.compile(r"\bMutex\s+([A-Za-z_]\w*)")

# Argument lists of every thread-safety annotation in the file.
TSA_ANNOTATION_RE = re.compile(
    r"PROCLUS_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE"
    r"|TRY_ACQUIRE|EXCLUDES|ACQUIRED_BEFORE|ACQUIRED_AFTER"
    r"|ASSERT_CAPABILITY|RETURN_CAPABILITY)\s*\(([^)]*)\)")

# --- reference-independence -------------------------------------------------

# The test oracle and what it must not share with the engine it checks.
REFERENCE_FILES = (os.path.join("tests", "reference_proclus.h"),
                   os.path.join("tests", "reference_proclus.cc"))
REFERENCE_BANNED_INCLUDES = ("core/consumers.h", "core/passes.h",
                             "core/assign.h", "data/engine.h",
                             "distance/batch.h")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')
REFERENCE_BANNED_NAME_RE = re.compile(
    r"\b(?:ScanExecutor|\w*Consumer|\w*Pass|\w*Batch|MedoidDistanceCache"
    r"|PointSource|MemorySource|DiskSource|RunProclus\w*|AssignPoints\w*"
    r"|EvaluateClusters\w*)\b|\binternal\s*::")

# --- test-only-api ----------------------------------------------------------

# Trees whose includes give a src/ header a caller. tests/ and fuzz/ are
# missing on purpose: they check the library, so a header only they
# include is code nothing runs.
API_USER_DIRS = ("src", "tools", "examples", "bench", "perfbench")

# --- unordered-iteration ----------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+([A-Za-z_]\w*)\s*=\s*[^;]*\bunordered_(?:map|set|multimap"
    r"|multiset)\s*<")

# Ordered sinks: anything where emission order becomes observable output or
# perturbs the deterministic RNG stream.
ORDERED_SINK_RE = re.compile(r"push_back|emplace_back|<<|\b[Rr]ng\b")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Replaces comments and string/char literal contents with spaces.

    Newlines are preserved so line numbers in the stripped text match the
    original. Handles //, /* */, "..." (with escapes), '...', and the
    R"delim(...)delim" raw-string form.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^()\s\\]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                end = text.find(close, i + m.end())
                end = n if end == -1 else end + len(close)
                out.append('""')
                out.extend("\n" if ch == "\n" else " "
                           for ch in text[i + 2:end - 2])
                i = end
            else:
                out.append(c)
                i += 1
        elif c == '"' or c == "'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            out.append(quote)
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def allowed(original_lines, line_no, rule):
    line = original_lines[line_no - 1] if line_no <= len(original_lines) else ""
    m = ALLOW_RE.search(line)
    return bool(m and m.group(1) == rule)


def fn_spans(code, pattern):
    """Yields (start, end) offsets of bodies of functions matching pattern."""
    for m in pattern.finditer(code):
        # Walk past the parameter list.
        i = code.find("(", m.start())
        depth = 0
        n = len(code)
        while i < n:
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        # Find the body '{' (skip const/noexcept/trailing specifiers); a ';'
        # first means this was only a declaration.
        j = i + 1
        while j < n and code[j] not in "{;":
            j += 1
        if j >= n or code[j] == ";":
            continue
        depth = 0
        k = j
        while k < n:
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        yield j, k


def check_banned_randomness(rel_path, original_lines, code, findings):
    if rel_path in RNG_ALLOWLIST:
        return
    for pattern, label in BANNED_RANDOMNESS:
        for m in pattern.finditer(code):
            ln = line_of(code, m.start())
            if allowed(original_lines, ln, "banned-randomness"):
                continue
            findings.append(Finding(
                rel_path, ln, "banned-randomness",
                f"{label} breaks seeded reproducibility; draw from "
                "proclus::Rng (src/common/rng.h) instead"))


def check_iostream(rel_path, original_lines, code, findings):
    if not rel_path.startswith("src" + os.sep):
        return
    for m in IOSTREAM_RE.finditer(code):
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "iostream-in-library"):
            continue
        findings.append(Finding(
            rel_path, ln, "iostream-in-library",
            f"library code must not use std::{m.group(1)}; use PROCLUS_LOG "
            "from common/logging.h"))


def check_raw_scan(rel_path, original_lines, code, findings):
    top = rel_path.split(os.sep, 1)[0]
    if top not in RAW_SCAN_DIRS or rel_path in RAW_SCAN_ALLOWLIST:
        return
    for m in RAW_SCAN_RE.finditer(code):
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "raw-scan"):
            continue
        findings.append(Finding(
            rel_path, ln, "raw-scan",
            "raw PointSource scan bypasses the scan executor; express the "
            "pass as a ScanConsumer and drive it with ScanExecutor::Run "
            "(data/engine.h) so it can share physical scans and the "
            "RunStats data-movement counters stay truthful"))


def check_raw_ifstream(rel_path, original_lines, code, findings):
    if not rel_path.startswith(RAW_IFSTREAM_DIR + os.sep):
        return
    if rel_path in RAW_IFSTREAM_ALLOWLIST:
        return
    for m in RAW_IFSTREAM_RE.finditer(code):
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "raw-ifstream"):
            continue
        findings.append(Finding(
            rel_path, ln, "raw-ifstream",
            "direct std::ifstream in src/data silently truncates on I/O "
            "errors; read through ReadFileBytes (data/binary_io.h) or the "
            "PointSource layer so failures surface as detailed Statuses"))


def check_raw_sleep(rel_path, original_lines, code, findings):
    top = rel_path.split(os.sep, 1)[0]
    if top not in RAW_SLEEP_DIRS or rel_path in RAW_SLEEP_ALLOWLIST:
        return
    for m in RAW_SLEEP_RE.finditer(code):
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "raw-sleep"):
            continue
        findings.append(Finding(
            rel_path, ln, "raw-sleep",
            "bare this_thread::sleep cannot be woken by a CancelToken or "
            "truncated by a Deadline, breaking the one-block cancellation "
            "latency bound; use InterruptibleSleep or HangUntilCancelled "
            "from common/cancel.h"))


def check_raw_isa_attribute(rel_path, original_lines, code, findings):
    if rel_path in RAW_ISA_ALLOWLIST:
        return
    for m in RAW_ISA_RE.finditer(code):
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "raw-isa-attribute"):
            continue
        findings.append(Finding(
            rel_path, ln, "raw-isa-attribute",
            "per-function ISA attributes belong to src/distance/batch.cc "
            "alone, whose PROCLUS_KERNEL carries the contraction and "
            "sanitizer guards; move the loop into a batch kernel"))


def includes(original_lines, code):
    """Yields (line, path) for every #include directive outside comments."""
    code_lines = code.split("\n")
    for ln, original in enumerate(original_lines, start=1):
        # Include paths live in string-like tokens the stripped code
        # blanks, so read them from the original line — but only where
        # the stripped line still holds the directive (not in a comment).
        if ln > len(code_lines) or "include" not in code_lines[ln - 1]:
            continue
        m = INCLUDE_RE.match(original)
        if m:
            yield ln, m.group(1)


def check_reference_independence(rel_path, original_lines, code, findings):
    if rel_path not in REFERENCE_FILES:
        return
    for ln, path in includes(original_lines, code):
        if allowed(original_lines, ln, "reference-independence"):
            continue
        if any(path == banned or path.endswith("/" + banned)
               for banned in REFERENCE_BANNED_INCLUDES):
            findings.append(Finding(
                rel_path, ln, "reference-independence",
                f"the reference PROCLUS may not include {path}: the oracle "
                "must share no code with the scan engine it checks"))
    for m in REFERENCE_BANNED_NAME_RE.finditer(code):
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "reference-independence"):
            continue
        findings.append(Finding(
            rel_path, ln, "reference-independence",
            f"the reference PROCLUS may not use the engine entry point "
            f"'{m.group(0)}'; transcribe the computation from the paper "
            "instead"))


def check_status_fn_checks(rel_path, original_lines, code, findings):
    if not rel_path.startswith("src" + os.sep):
        return
    spans = list(fn_spans(code, STATUS_FN_RE))
    if not spans:
        return
    for m in re.finditer(r"\bPROCLUS_CHECK\s*\(", code):
        if not any(start <= m.start() < end for start, end in spans):
            continue
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "check-in-status-fn"):
            continue
        # Accept a justification on the same line or anywhere in the
        # contiguous comment block directly above the check.
        context = [original_lines[ln - 1]]
        prev = ln - 2
        while prev >= 0 and original_lines[prev].lstrip().startswith("//"):
            context.append(original_lines[prev])
            prev -= 1
        if any("invariant" in line.lower() for line in context):
            continue
        findings.append(Finding(
            rel_path, ln, "check-in-status-fn",
            "PROCLUS_CHECK inside a Status/Result-returning function: "
            "return Status for user-input validation, or add an "
            "`// invariant:` comment explaining why this cannot fire on "
            "caller-supplied data"))


def match_paren(code, open_paren):
    """Offset of the ')' matching code[open_paren] == '(', or -1."""
    depth, i, n = 0, open_paren, len(code)
    while i < n:
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


def loop_bodies(code):
    """Yields (body_start, body_end) offsets for every for/while loop body.

    Nested loops yield their own (smaller) spans too; a caller matching
    per call site should de-duplicate by call offset.
    """
    n = len(code)
    for m in re.finditer(r"\b(?:for|while)\s*\(", code):
        close = match_paren(code, m.end() - 1)
        if close == -1:
            continue
        j = close + 1
        while j < n and code[j] in " \t\n":
            j += 1
        if j < n and code[j] == "{":
            depth, k = 0, j
            while k < n:
                if code[k] == "{":
                    depth += 1
                elif code[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            yield j, min(k + 1, n)
        else:
            k = code.find(";", j)
            yield j, (k + 1 if k != -1 else n)


def top_level_args(arg_text):
    """Splits a stripped argument-list string on top-level commas."""
    args, depth, start = [], 0, 0
    for i, ch in enumerate(arg_text):
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(arg_text[start:i].strip())
            start = i + 1
    args.append(arg_text[start:].strip())
    return args


def check_segmental_dimension_set(rel_path, original_lines, code, findings):
    if not rel_path.startswith(tuple(d + os.sep for d in SEGMENTAL_RULE_DIRS)):
        return
    names = {m.group(1) for m in DIMENSION_SET_DECL_RE.finditer(code)}
    if not names:
        return
    flagged = set()
    for body_start, body_end in loop_bodies(code):
        body = code[body_start:body_end]
        for m in SEGMENTAL_CALL_RE.finditer(body):
            offset = body_start + m.start()
            if offset in flagged:
                continue
            close = match_paren(code, body_start + m.end() - 1)
            if close == -1:
                continue
            args = top_level_args(code[body_start + m.end():close])
            last = args[-1].lstrip("*&").strip() if args else ""
            # `dims` and `dims.ToVector()` both walk/materialize the bitset
            # on every iteration.
            if last in names or any(last == name + ".ToVector()"
                                    for name in names):
                flagged.add(offset)
                ln = line_of(code, offset)
                if allowed(original_lines, ln, "segmental-dimension-set"):
                    continue
                findings.append(Finding(
                    rel_path, ln, "segmental-dimension-set",
                    "ManhattanSegmentalDistance(DimensionSet) inside a loop "
                    "walks the bitset per call; hoist the index list "
                    "(dims.ToVector()) out of the loop and pass it to the "
                    "span overload (bit-identical, allocation-free)"))


def comment_context_has(original_lines, line_no, needle):
    """True if `needle` is on line `line_no` or in the contiguous //-comment
    block directly above it (both searched in the ORIGINAL text, since
    comments are stripped from `code`)."""
    if line_no <= len(original_lines) and needle in original_lines[line_no - 1]:
        return True
    prev = line_no - 2
    while prev >= 0 and original_lines[prev].lstrip().startswith("//"):
        if needle in original_lines[prev]:
            return True
        prev -= 1
    return False


def check_raw_sync(rel_path, original_lines, code, findings):
    top = rel_path.split(os.sep, 1)[0]
    if top not in RAW_SYNC_DIRS or rel_path in RAW_SYNC_ALLOWLIST:
        return
    for m in RAW_SYNC_RE.finditer(code):
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "raw-sync"):
            continue
        findings.append(Finding(
            rel_path, ln, "raw-sync",
            f"raw std::{m.group(1)} is invisible to the Clang thread-safety "
            "analysis; use the annotated Mutex/MutexLock/CondVar from "
            "common/sync.h (tsa preset checks the locking discipline at "
            "compile time)"))


def check_atomic_order(rel_path, original_lines, code, findings):
    if not rel_path.startswith("src" + os.sep):
        return
    for m in ATOMIC_DECL_RE.finditer(code):
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "atomic-order"):
            continue
        if comment_context_has(original_lines, ln, "order:"):
            continue
        findings.append(Finding(
            rel_path, ln, "atomic-order",
            f"std::atomic '{m.group(1)}' does not document its memory-order "
            "discipline; add a `// order: <relaxed|acquire/release|seq_cst> "
            "— <why>` comment on or above the declaration (or use "
            "GuardedCounter from common/sync.h for plain statistics)"))


def check_atomic_rmw(rel_path, original_lines, code, findings):
    if not rel_path.startswith("src" + os.sep):
        return
    names = {m.group(1) for m in ATOMIC_DECL_RE.finditer(code)}
    if not names:
        return
    alternation = "|".join(re.escape(n) for n in sorted(names))
    rmw = re.compile(
        r"(?:\b(" + alternation + r")\s*" + ATOMIC_RMW_OPS +
        r"|(?:\+\+|--)\s*\b(" + alternation + r")\b)")
    for m in rmw.finditer(code):
        name = m.group(1) or m.group(2)
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "atomic-rmw"):
            continue
        findings.append(Finding(
            rel_path, ln, "atomic-rmw",
            f"bare RMW operator on std::atomic '{name}' is sequentially "
            "consistent; spell the ordering explicitly — "
            "fetch_add(n, std::memory_order_...) — or demote the variable "
            "to a GuardedCounter"))


def check_sync_annotation(rel_path, original_lines, code, findings):
    if not rel_path.startswith("src" + os.sep):
        return
    if rel_path in RAW_SYNC_ALLOWLIST:
        return  # sync.h defines Mutex itself.
    annotated = set()
    for m in TSA_ANNOTATION_RE.finditer(code):
        annotated.update(re.findall(r"[A-Za-z_]\w*", m.group(1)))
    for m in MUTEX_DECL_RE.finditer(code):
        name = m.group(1)
        if name in annotated:
            continue
        # A declaration that itself carries an annotation (e.g. an
        # ACQUIRED_BEFORE ordering edge) documents the mutex too.
        decl_tail = code[m.end():code.find("\n", m.end())
                         if "\n" in code[m.end():] else len(code)]
        if re.match(r"\s*PROCLUS_[A-Z_]+\s*\(", decl_tail):
            continue
        ln = line_of(code, m.start())
        if allowed(original_lines, ln, "sync-annotation"):
            continue
        findings.append(Finding(
            rel_path, ln, "sync-annotation",
            f"Mutex '{name}' appears in no thread-safety annotation in this "
            "file; declare what it protects (PROCLUS_GUARDED_BY/REQUIRES/"
            "ACQUIRE/EXCLUDES/...) so the tsa preset can check the "
            "discipline, or justify with lint:allow(sync-annotation)"))


def unordered_container_names(code):
    """Names of variables declared in this file with an unordered type."""
    names = set()
    n = len(code)
    decl_starts = [m.start() for m in UNORDERED_DECL_RE.finditer(code)]
    aliases = [m.group(1) for m in UNORDERED_ALIAS_RE.finditer(code)]
    for alias in aliases:
        for m in re.finditer(r"\b" + re.escape(alias) +
                             r"\b\s*[&*]?\s*([A-Za-z_]\w*)\s*[=;({]", code):
            names.add(m.group(1))
    for start in decl_starts:
        i = code.find("<", start)
        depth = 0
        while i < n:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        m = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", code[i + 1:])
        if m:
            names.add(m.group(1))
    return names


def range_for_loops(code):
    """Yields (header_offset, loop_variable_expr, body_text) per range-for."""
    n = len(code)
    for m in re.finditer(r"\bfor\s*\(", code):
        open_paren = m.end() - 1
        depth, i = 0, open_paren
        while i < n:
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        header = code[open_paren + 1:i]
        # Top-level ':' (not '::') separates declaration from range expr.
        colon = -1
        h_depth = 0
        for k, ch in enumerate(header):
            if ch in "([{<":
                h_depth += 1
            elif ch in ")]}>":
                h_depth -= 1
            elif (ch == ":" and h_depth == 0 and
                  header[k - 1:k] != ":" and header[k + 1:k + 2] != ":"):
                colon = k
                break
        if colon == -1:
            continue  # Classic three-clause for.
        range_expr = header[colon + 1:].strip()
        # Body: brace block or single statement.
        j = i + 1
        while j < n and code[j] in " \t\n":
            j += 1
        if j < n and code[j] == "{":
            depth, k = 0, j
            while k < n:
                if code[k] == "{":
                    depth += 1
                elif code[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            body = code[j:k + 1]
        else:
            k = code.find(";", j)
            body = code[j:k + 1] if k != -1 else code[j:]
        yield m.start(), range_expr, body


def check_unordered_iteration(rel_path, original_lines, code, findings):
    top = rel_path.split(os.sep, 1)[0]
    if top not in LIBRARY_RULE_DIRS:
        return
    names = unordered_container_names(code)
    if not names:
        return
    for offset, range_expr, body in range_for_loops(code):
        if range_expr not in names:
            continue
        if not ORDERED_SINK_RE.search(body):
            continue  # Order-insensitive accumulation is fine.
        ln = line_of(code, offset)
        if allowed(original_lines, ln, "unordered-iteration"):
            continue
        findings.append(Finding(
            rel_path, ln, "unordered-iteration",
            f"range-for over unordered container '{range_expr}' feeds an "
            "ordered sink (output/push_back/Rng); hash iteration order is "
            "implementation-defined and breaks bit-for-bit reproducibility "
            "— sort the keys first"))


def check_include_guard(rel_path, original_lines, code, findings):
    top = rel_path.split(os.sep, 1)[0]
    if top not in GUARD_DIRS or not rel_path.endswith((".h", ".hpp")):
        return
    stem = rel_path
    if stem.startswith("src" + os.sep):
        stem = stem[len("src" + os.sep):]
    stem = re.sub(r"\.(h|hpp)$", "", stem)
    expected = "PROCLUS_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"
    ifndef = re.search(r"#ifndef\s+(\S+)", code)
    define = re.search(r"#define\s+(\S+)", code)
    if not ifndef or not define or ifndef.group(1) != define.group(1):
        findings.append(Finding(
            rel_path, 1, "include-guard",
            f"missing or mismatched include guard; expected {expected}"))
        return
    if ifndef.group(1) != expected:
        ln = line_of(code, ifndef.start())
        if allowed(original_lines, ln, "include-guard"):
            return
        findings.append(Finding(
            rel_path, ln, "include-guard",
            f"guard {ifndef.group(1)} does not match path-derived name "
            f"{expected}"))


def check_nodiscard_status(root, findings):
    status_h = os.path.join("src", "common", "status.h")
    path = os.path.join(root, status_h)
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as f:
        text = f.read()
    for cls in ("Status", "Result"):
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+" + cls, text):
            findings.append(Finding(
                status_h, 1, "nodiscard-status",
                f"class {cls} must be declared [[nodiscard]] so discarded "
                "errors fail the -Werror build"))


def check_test_only_api(root, findings):
    headers = set()
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in filenames:
            if name.endswith((".h", ".hpp")):
                headers.add(os.path.relpath(os.path.join(dirpath, name), root))
    used = set()
    for top in API_USER_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in filenames:
                if not name.endswith(SOURCE_EXTS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                with open(os.path.join(root, rel), encoding="utf-8",
                          errors="replace") as f:
                    text = f.read()
                for _, path in includes(text.splitlines(),
                                        strip_comments_and_strings(text)):
                    for header in (os.path.normpath(os.path.join("src", path)),
                                   os.path.normpath(os.path.join(
                                       os.path.dirname(rel), path))):
                        # A header's own implementation file is no caller.
                        if (header in headers and os.path.splitext(header)[0]
                                != os.path.splitext(rel)[0]):
                            used.add(header)
    for header in sorted(headers - used):
        with open(os.path.join(root, header), encoding="utf-8",
                  errors="replace") as f:
            if allowed(f.read().splitlines(), 1, "test-only-api"):
                continue
        findings.append(Finding(
            header, 1, "test-only-api",
            "no file under src/, tools/, examples/, bench/ or perfbench/ "
            "includes this header (its own .cc aside): it is library code "
            "only tests call; delete it with its tests or give it a caller"))


def lint_file(root, rel_path, findings):
    with open(os.path.join(root, rel_path), encoding="utf-8",
              errors="replace") as f:
        text = f.read()
    original_lines = text.splitlines()
    code = strip_comments_and_strings(text)
    check_banned_randomness(rel_path, original_lines, code, findings)
    check_iostream(rel_path, original_lines, code, findings)
    check_raw_scan(rel_path, original_lines, code, findings)
    check_raw_ifstream(rel_path, original_lines, code, findings)
    check_status_fn_checks(rel_path, original_lines, code, findings)
    check_segmental_dimension_set(rel_path, original_lines, code, findings)
    check_unordered_iteration(rel_path, original_lines, code, findings)
    check_raw_sync(rel_path, original_lines, code, findings)
    check_raw_sleep(rel_path, original_lines, code, findings)
    check_raw_isa_attribute(rel_path, original_lines, code, findings)
    check_reference_independence(rel_path, original_lines, code, findings)
    check_atomic_order(rel_path, original_lines, code, findings)
    check_atomic_rmw(rel_path, original_lines, code, findings)
    check_sync_annotation(rel_path, original_lines, code, findings)
    check_include_guard(rel_path, original_lines, code, findings)


def lint_tree(root):
    findings = []
    for top in SOURCE_DIRS:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    lint_file(root, rel, findings)
    check_nodiscard_status(root, findings)
    check_test_only_api(root, findings)
    return findings


# --------------------------- self test ------------------------------------

SELF_TEST_FIXTURES = [
    # (relative path, contents, expected rule ids)
    ("src/core/scratch.cc",
     "#include <random>\n"
     "int Seed() {\n"
     "  std::random_device rd;\n"
     "  return rd();\n"
     "}\n",
     ["banned-randomness"]),
    ("tests/scratch_test.cc",
     "#include <cstdlib>\n"
     "int F() { srand(42); return rand(); }\n"
     "long G() { return time(nullptr); }\n",
     ["banned-randomness", "banned-randomness", "banned-randomness"]),
    ("src/data/noisy.cc",
     "#include <iostream>\n"
     "void Shout() { std::cout << \"hi\"; }\n",
     ["iostream-in-library"]),
    ("src/core/validate.cc",
     "#include \"common/status.h\"\n"
     "namespace proclus {\n"
     "Status Load(int n) {\n"
     "  PROCLUS_CHECK(n > 0);\n"
     "  return Status::OK();\n"
     "}\n"
     "}\n",
     ["check-in-status-fn"]),
    ("src/core/justified.cc",
     "#include \"common/status.h\"\n"
     "namespace proclus {\n"
     "Status Load(int n) {\n"
     "  // invariant: n was computed internally above, never user input.\n"
     "  PROCLUS_CHECK(n > 0);\n"
     "  return Status::OK();\n"
     "}\n"
     "}\n",
     []),
    ("src/common/badguard.h",
     "#ifndef WRONG_NAME_H\n"
     "#define WRONG_NAME_H\n"
     "#endif\n",
     ["include-guard"]),
    ("src/common/goodguard.h",
     "#ifndef PROCLUS_COMMON_GOODGUARD_H_\n"
     "#define PROCLUS_COMMON_GOODGUARD_H_\n"
     "#endif  // PROCLUS_COMMON_GOODGUARD_H_\n",
     []),
    # Comments and strings must not trigger rules.
    ("src/core/commented.cc",
     "// std::random_device is banned here, says this comment.\n"
     "/* std::cout << rand(); */\n"
     "const char* kDoc = \"std::random_device\";\n",
     []),
    # Explicit suppression.
    ("src/core/suppressed.cc",
     "#include <iostream>\n"
     "void Dump() { std::cerr << 1; }  // lint:allow(iostream-in-library)\n",
     []),
    # DEPRECATION NOTE — result-unchecked is retired. The textual rule
    # treated any earlier `r.ok()` in the function body as a guard, even
    # one in a sibling branch that does not dominate the access; the
    # `status-flow` rule in tools/analyzer tracks dominance on the
    # statement tree and owns this invariant now (see
    # tools/analyzer/rules.py and its fixtures). This fixture — the
    # retired rule's canonical positive — must stay FINDING-FREE here to
    # prove the regex rule is gone; the analyzer self-test proves
    # status-flow still catches the same code.
    ("src/core/unchecked_value.cc",
     "#include \"common/status.h\"\n"
     "namespace proclus {\n"
     "int Get() {\n"
     "  auto r = Compute();\n"
     "  return r.value();\n"
     "}\n"
     "}\n",
     []),
    # raw-scan: a pass calling PointSource::Scan directly.
    ("src/core/raw_pass.cc",
     "#include \"data/point_source.h\"\n"
     "namespace proclus {\n"
     "void Sum(const PointSource& source) {\n"
     "  source.Scan({}, [](size_t, auto, size_t) {});\n"
     "}\n"
     "void SumPtr(const PointSource* source) {\n"
     "  ForEachBlock(*source);\n"
     "}\n"
     "}\n",
     ["raw-scan", "raw-scan"]),
    # The executor implementation itself is allowlisted.
    ("src/data/engine.cc",
     "#include \"data/engine.h\"\n"
     "namespace proclus {\n"
     "void Drive(const PointSource& source) {\n"
     "  source.Scan({}, [](size_t, auto, size_t) {});\n"
     "}\n"
     "}\n",
     []),
    # Tests may exercise the raw API.
    ("tests/raw_scan_test.cc",
     "#include \"data/point_source.h\"\n"
     "void Probe(const proclus::PointSource& source) {\n"
     "  source.Scan({}, [](size_t, auto, size_t) {});\n"
     "}\n",
     []),
    # Explicit suppression with justification.
    ("src/core/raw_allowed.cc",
     "#include \"data/point_source.h\"\n"
     "namespace proclus {\n"
     "void Peek(const PointSource& source) {\n"
     "  // One-off probe; stats are not reported from this path.\n"
     "  source.Scan({}, [](size_t, auto, size_t) {});  // lint:allow(raw-scan)\n"
     "}\n"
     "}\n",
     []),
    # The shard set reads a block from the shards holding it; the
    # implementation file is allowlisted.
    ("src/data/sharded_source.cc",
     "#include \"data/sharded_source.h\"\n"
     "namespace proclus {\n"
     "void Route(const PointSource& shard) {\n"
     "  shard.Scan({}, [](size_t, auto, size_t) {});\n"
     "}\n"
     "}\n",
     []),
    # The sources themselves implement ScanBlocks and read no other
    # source, so point_source.cc is not allowlisted.
    ("src/data/point_source.cc",
     "#include \"data/point_source.h\"\n"
     "namespace proclus {\n"
     "void Reread(const PointSource& source) {\n"
     "  source.Scan({}, [](size_t, auto, size_t) {});\n"
     "}\n"
     "}\n",
     ["raw-scan"]),
    # The allowlist is file-exact: any other shard-layer helper in
    # src/data still has to route scans through the executor.
    ("src/data/shard_helper.cc",
     "#include \"data/sharded_source.h\"\n"
     "namespace proclus {\n"
     "void Walk(const PointSource& shard) {\n"
     "  shard.Scan({}, [](size_t, auto, size_t) {});\n"
     "}\n"
     "}\n",
     ["raw-scan"]),
    # raw-ifstream: a src/data file opening a file directly.
    ("src/data/sneaky_reader.cc",
     "#include <fstream>\n"
     "namespace proclus {\n"
     "int Peek(const char* path) {\n"
     "  std::ifstream in(path);\n"
     "  return in.get();\n"
     "}\n"
     "}\n",
     ["raw-ifstream"]),
    # The checked binary reader itself is allowlisted.
    ("src/data/binary_io.cc",
     "#include <fstream>\n"
     "namespace proclus {\n"
     "int Peek(const char* path) {\n"
     "  std::ifstream in(path);\n"
     "  return in.get();\n"
     "}\n"
     "}\n",
     []),
    # Outside src/data the rule does not apply (core/model_io.cc reads
    # models through its own versioned format).
    ("src/core/reader.cc",
     "#include <fstream>\n"
     "namespace proclus {\n"
     "int Peek(const char* path) {\n"
     "  std::ifstream in(path);\n"
     "  return in.get();\n"
     "}\n"
     "}\n",
     []),
    # The shard layer reads bytes through DiskSource / the manifest
    # reader, never its own streams: sharded_source.cc is allowlisted for
    # raw-scan but NOT for raw-ifstream.
    ("src/data/sharded_source.cc",
     "#include <fstream>\n"
     "namespace proclus {\n"
     "int PeekShard(const char* path) {\n"
     "  std::ifstream in(path);\n"
     "  return in.get();\n"
     "}\n"
     "}\n",
     ["raw-ifstream"]),
    # Explicit suppression with justification.
    ("src/data/probe_allowed.cc",
     "#include <fstream>\n"
     "namespace proclus {\n"
     "bool Exists(const char* path) {\n"
     "  // Existence probe only; no payload bytes are consumed.\n"
     "  return std::ifstream(path).good();  // lint:allow(raw-ifstream)\n"
     "}\n"
     "}\n",
     []),
    # segmental-dimension-set: the DimensionSet overload in a hot loop.
    ("src/core/hot_segmental.cc",
     "#include \"distance/segmental.h\"\n"
     "namespace proclus {\n"
     "double Sum(const Matrix& data, std::span<const double> medoid,\n"
     "           const DimensionSet& dims) {\n"
     "  double total = 0.0;\n"
     "  for (size_t r = 0; r < data.rows(); ++r) {\n"
     "    total += ManhattanSegmentalDistance(data.row(r), medoid, dims);\n"
     "  }\n"
     "  return total;\n"
     "}\n"
     "}\n",
     ["segmental-dimension-set"]),
    # Per-iteration ToVector() is the same bug in disguise.
    ("src/distance/tovector_loop.cc",
     "#include \"distance/segmental.h\"\n"
     "namespace proclus {\n"
     "double Sum(const Matrix& data, std::span<const double> medoid,\n"
     "           const DimensionSet& dims) {\n"
     "  double total = 0.0;\n"
     "  for (size_t r = 0; r < data.rows(); ++r)\n"
     "    total += ManhattanSegmentalDistance(data.row(r), medoid,\n"
     "                                        dims.ToVector());\n"
     "  return total;\n"
     "}\n"
     "}\n",
     ["segmental-dimension-set"]),
    # The fix: hoist the index list once and use the span overload.
    ("src/core/hoisted_segmental.cc",
     "#include \"distance/segmental.h\"\n"
     "namespace proclus {\n"
     "double Sum(const Matrix& data, std::span<const double> medoid,\n"
     "           const DimensionSet& dims) {\n"
     "  const std::vector<uint32_t> ids = dims.ToVector();\n"
     "  double total = 0.0;\n"
     "  for (size_t r = 0; r < data.rows(); ++r)\n"
     "    total += ManhattanSegmentalDistance(data.row(r), medoid, ids);\n"
     "  return total;\n"
     "}\n"
     "}\n",
     []),
    # A one-off call outside any loop is fine.
    ("src/core/oneshot_segmental.cc",
     "#include \"distance/segmental.h\"\n"
     "namespace proclus {\n"
     "double One(std::span<const double> a, std::span<const double> b,\n"
     "           const DimensionSet& dims) {\n"
     "  return ManhattanSegmentalDistance(a, b, dims);\n"
     "}\n"
     "}\n",
     []),
    # Outside src/core and src/distance the rule does not apply.
    ("src/eval/loose_segmental.cc",
     "#include \"distance/segmental.h\"\n"
     "namespace proclus {\n"
     "double Sum(const Matrix& data, std::span<const double> medoid,\n"
     "           const DimensionSet& dims) {\n"
     "  double total = 0.0;\n"
     "  for (size_t r = 0; r < data.rows(); ++r)\n"
     "    total += ManhattanSegmentalDistance(data.row(r), medoid, dims);\n"
     "  return total;\n"
     "}\n"
     "}\n",
     []),
    # Explicit suppression with justification.
    ("src/core/segmental_allowed.cc",
     "#include \"distance/segmental.h\"\n"
     "namespace proclus {\n"
     "double Sum(const Matrix& data, std::span<const double> medoid,\n"
     "           const DimensionSet& dims) {\n"
     "  double total = 0.0;\n"
     "  // Cold path: runs once per restart over k rows, not per point.\n"
     "  for (size_t r = 0; r < data.rows(); ++r)\n"
     "    total += ManhattanSegmentalDistance(  // lint:allow(segmental-dimension-set)\n"
     "        data.row(r), medoid, dims);\n"
     "  return total;\n"
     "}\n"
     "}\n",
     []),
    # unordered-iteration: hash order escaping into an ordered sink.
    ("src/core/unordered_sink.cc",
     "#include <unordered_set>\n"
     "#include <vector>\n"
     "namespace proclus {\n"
     "void Collect(const std::unordered_set<int>& seen,\n"
     "             std::vector<int>* out) {\n"
     "  for (int v : seen) out->push_back(v);\n"
     "}\n"
     "}\n",
     ["unordered-iteration"]),
    # Order-insensitive accumulation over the same container is fine.
    ("src/core/unordered_fold.cc",
     "#include <unordered_set>\n"
     "namespace proclus {\n"
     "long Sum(const std::unordered_set<int>& seen) {\n"
     "  long total = 0;\n"
     "  for (int v : seen) total += v;\n"
     "  return total;\n"
     "}\n"
     "}\n",
     []),
    # A same-file alias of an unordered type is still tracked.
    ("src/core/unordered_alias.cc",
     "#include <cstdint>\n"
     "#include <unordered_map>\n"
     "#include <vector>\n"
     "namespace proclus {\n"
     "using CellMap = std::unordered_map<uint64_t, uint32_t>;\n"
     "void Dump(std::vector<uint64_t>* out) {\n"
     "  CellMap cells;\n"
     "  for (const auto& kv : cells) out->push_back(kv.first);\n"
     "}\n"
     "}\n",
     ["unordered-iteration"]),
    # lint:allow(unordered-iteration) suppresses with justification.
    ("src/core/unordered_allowed.cc",
     "#include <unordered_set>\n"
     "#include <vector>\n"
     "namespace proclus {\n"
     "void Collect(const std::unordered_set<int>& seen,\n"
     "             std::vector<int>* out) {\n"
     "  // Caller sorts `out`; emission order here is irrelevant.\n"
     "  for (int v : seen) out->push_back(v);  // lint:allow(unordered-iteration)\n"
     "}\n"
     "}\n",
     []),
    # raw-sync: raw std primitives outside common/sync.h.
    ("src/core/raw_locking.cc",
     "#include <mutex>\n"
     "namespace proclus {\n"
     "std::mutex g_mu;\n"
     "void Touch() { std::lock_guard<std::mutex> lock(g_mu); }\n"
     "}\n",
     ["raw-sync", "raw-sync", "raw-sync"]),
    # The annotated wrappers' own implementation is allowlisted.
    ("src/common/sync.h",
     "#ifndef PROCLUS_COMMON_SYNC_H_\n"
     "#define PROCLUS_COMMON_SYNC_H_\n"
     "#include <mutex>\n"
     "namespace proclus {\n"
     "class Mutex { std::mutex mu_; };\n"
     "}\n"
     "#endif  // PROCLUS_COMMON_SYNC_H_\n",
     []),
    # Tests may drive the raw std API.
    ("tests/raw_sync_test.cc",
     "#include <mutex>\n"
     "std::mutex test_mu;\n",
     []),
    # Explicit suppression with justification.
    ("src/core/raw_sync_allowed.cc",
     "#include <mutex>\n"
     "namespace proclus {\n"
     "// Interop with an external callback API that hands us a std lock.\n"
     "void Use(std::unique_lock<std::mutex>& lock);  // lint:allow(raw-sync)\n"
     "}\n",
     []),
    # raw-sleep: a bare this_thread sleep outside common/cancel.h.
    ("src/core/busy_wait.cc",
     "#include <chrono>\n"
     "#include <thread>\n"
     "namespace proclus {\n"
     "void Nap() {\n"
     "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
     "}\n"
     "}\n",
     ["raw-sleep"]),
    # sleep_until and the unqualified (using-directive) spelling count too.
    ("bench/pacing.cc",
     "#include <chrono>\n"
     "#include <thread>\n"
     "using namespace std;\n"
     "void Pace(chrono::steady_clock::time_point t) {\n"
     "  this_thread::sleep_until(t);\n"
     "}\n",
     ["raw-sleep"]),
    # The interruptible primitives' own implementation is allowlisted.
    ("src/common/cancel.h",
     "#ifndef PROCLUS_COMMON_CANCEL_H_\n"
     "#define PROCLUS_COMMON_CANCEL_H_\n"
     "#include <chrono>\n"
     "#include <thread>\n"
     "namespace proclus {\n"
     "inline void SleepSlice() {\n"
     "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
     "}\n"
     "}\n"
     "#endif  // PROCLUS_COMMON_CANCEL_H_\n",
     []),
    # Tests may sleep directly (stress tests pace real threads).
    ("tests/sleepy_test.cc",
     "#include <chrono>\n"
     "#include <thread>\n"
     "void Wait() {\n"
     "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
     "}\n",
     []),
    # Explicit suppression with justification.
    ("src/core/sleep_allowed.cc",
     "#include <chrono>\n"
     "#include <thread>\n"
     "namespace proclus {\n"
     "void Settle() {\n"
     "  // External device needs a fixed settle time; nothing to cancel.\n"
     "  std::this_thread::sleep_for(std::chrono::milliseconds(2));"
     "  // lint:allow(raw-sleep)\n"
     "}\n"
     "}\n",
     []),
    # raw-isa-attribute: every spelling of a per-function ISA choice.
    ("src/core/fast_assign.cc",
     "namespace proclus {\n"
     "__attribute__((target(\"avx2\"))) void Assign() {}\n"
     "__attribute__ ((target_clones(\"avx2\", \"default\")))\n"
     "void Refine() {}\n"
     "}\n",
     ["raw-isa-attribute", "raw-isa-attribute"]),
    # Benches and tests too, including the C++11 attribute spelling.
    ("bench/wide_kernels.cc",
     "[[gnu::target(\"avx512f\")]] void Wide() {}\n",
     ["raw-isa-attribute"]),
    ("tests/isa_test.cc",
     "[[gnu::target_clones(\"arch=x86-64-v3\", \"default\")]]\n"
     "void Fold() {}\n",
     ["raw-isa-attribute"]),
    # The kernel module is the one dispatch point.
    ("src/distance/batch.cc",
     "#define PROCLUS_KERNEL \\\n"
     "  __attribute__((target_clones(\"arch=x86-64-v4\", \"default\")))\n"
     "PROCLUS_KERNEL void Kernel() {}\n",
     []),
    # Prose about target_clones in a comment is not an attribute.
    ("src/core/notes.cc",
     "// Kernels use target_clones via batch.cc; see DESIGN.md.\n"
     "void Note() {}\n",
     []),
    # Explicit suppression with justification.
    ("examples/isa_demo.cc",
     "// Demonstrates a hand-picked ISA; never linked into the library.\n"
     "__attribute__((target(\"avx2\"))) void Demo() {}"
     "  // lint:allow(raw-isa-attribute)\n",
     []),
    # atomic-order: an undocumented atomic declaration.
    ("src/core/atomic_nodoc.cc",
     "#include <atomic>\n"
     "namespace proclus {\n"
     "std::atomic<int> g_hits{0};\n"
     "}\n",
     ["atomic-order"]),
    # A trailing `// order:` comment satisfies the rule.
    ("src/core/atomic_doc_trailing.cc",
     "#include <atomic>\n"
     "namespace proclus {\n"
     "std::atomic<int> g_hits{0};  // order: relaxed — isolated statistic.\n"
     "}\n",
     []),
    # So does the contiguous comment block directly above.
    ("src/core/atomic_doc_above.cc",
     "#include <atomic>\n"
     "namespace proclus {\n"
     "// order: relaxed — pure ticket counter; draws carry no payload and\n"
     "// the batch is published by the guarded generation handshake.\n"
     "std::atomic<unsigned> g_ticket{0};\n"
     "}\n",
     []),
    # atomic-rmw: bare ++ on a (documented) atomic is still seq-cst.
    ("src/core/atomic_bare_rmw.cc",
     "#include <atomic>\n"
     "namespace proclus {\n"
     "std::atomic<int> g_hits{0};  // order: relaxed — isolated statistic.\n"
     "void Bump() { g_hits++; }\n"
     "void Drop() { g_hits -= 2; }\n"
     "}\n",
     ["atomic-rmw", "atomic-rmw"]),
    # Explicit fetch_add with a named order is the fix.
    ("src/core/atomic_explicit_rmw.cc",
     "#include <atomic>\n"
     "namespace proclus {\n"
     "std::atomic<int> g_hits{0};  // order: relaxed — isolated statistic.\n"
     "void Bump() { g_hits.fetch_add(1, std::memory_order_relaxed); }\n"
     "}\n",
     []),
    # sync-annotation: a Mutex no annotation ever references.
    ("src/core/mutex_unannotated.cc",
     "#include \"common/sync.h\"\n"
     "namespace proclus {\n"
     "class Pool {\n"
     "  Mutex mu_;\n"
     "  int jobs_ = 0;\n"
     "};\n"
     "}\n",
     ["sync-annotation"]),
    # Referenced by a GUARDED_BY (or any other annotation) — contract held.
    ("src/core/mutex_guarded.cc",
     "#include \"common/sync.h\"\n"
     "namespace proclus {\n"
     "class Pool {\n"
     "  Mutex mu_;\n"
     "  int jobs_ PROCLUS_GUARDED_BY(mu_) = 0;\n"
     "};\n"
     "}\n",
     []),
    # An acquired_before edge on the declaration itself also counts.
    ("src/core/mutex_ordered.cc",
     "#include \"common/sync.h\"\n"
     "namespace proclus {\n"
     "class Pool {\n"
     "  Mutex outer_ PROCLUS_ACQUIRED_BEFORE(inner_);\n"
     "  Mutex inner_;\n"
     "  int jobs_ PROCLUS_GUARDED_BY(inner_) = 0;\n"
     "};\n"
     "}\n",
     []),
    # Explicit suppression with justification.
    ("src/core/mutex_allowed.cc",
     "#include \"common/sync.h\"\n"
     "namespace proclus {\n"
     "class Pool {\n"
     "  // Guards an opaque third-party handle the analysis cannot type.\n"
     "  Mutex mu_;  // lint:allow(sync-annotation)\n"
     "};\n"
     "}\n",
     []),
    # reference-independence: the oracle including engine headers ...
    ("tests/reference_proclus.cc",
     "#include \"reference_proclus.h\"\n"
     "#include \"common/rng.h\"\n"
     "#include \"core/consumers.h\"\n"
     "#  include <data/engine.h>\n"
     "#include \"../src/distance/batch.h\"\n",
     ["reference-independence"] * 3),
    # ... or naming engine entry points.
    ("tests/reference_proclus.h",
     "namespace proclus::reference {\n"
     "void A(const PointSource& source, ScanExecutor& executor);\n"
     "void B() { LocalityStatsConsumer c; AssignPointsPass(); }\n"
     "auto C() { return RunProclusOnSource(); }\n"
     "auto D() { return internal::FindBadMedoids(); }\n"
     "void E(double* out) { ManhattanManyBatch(out); }\n"
     "}\n",
     ["reference-independence"] * 7),
    # The library pieces the oracle may reuse, engine names in comments
    # and strings, and lines that merely look like includes are fine.
    ("tests/reference_proclus.cc",
     "#include \"reference_proclus.h\"\n"
     "#include \"common/rng.h\"\n"
     "#include \"core/find_dimensions.h\"\n"
     "#include \"core/greedy.h\"\n"
     "// Unlike ScanExecutor, this reads the matrix directly;\n"
     "// #include \"core/consumers.h\" would break that.\n"
     "const char* kWhy = \"no DiskSource here\";\n"
     "double Evaluate(const Dataset& data, size_t block_rows);\n"
     "void Assign(std::vector<int>* labels);\n",
     []),
    # Other tests may use the engine freely.
    ("tests/core_engine_test.cc",
     "#include \"core/consumers.h\"\n"
     "#include \"data/engine.h\"\n"
     "void F(const PointSource& s) { ScanExecutor e; }\n",
     []),
]


# test-only-api: (name, {path: contents}, expected flagged headers). Each
# tree holds src/lib/api.h plus its own .cc; the other files decide
# whether the header has a caller.
API_HEADER = "#ifndef PROCLUS_LIB_API_H_\n#define PROCLUS_LIB_API_H_\n#endif\n"
API_OWN_CC = "#include \"lib/api.h\"\n"
TEST_ONLY_API_TREES = [
    ("included only from tests/",
     {"tests/api_test.cc": "#include \"lib/api.h\"\n",
      "fuzz/api_fuzz.cc": "#include \"lib/api.h\"\n"},
     ["src/lib/api.h"]),
    ("included only by its own .cc", {}, ["src/lib/api.h"]),
    ("included only from a comment",
     {"bench/old.cc": "// #include \"lib/api.h\"\n"
                      "/* #include \"lib/api.h\" */\n"},
     ["src/lib/api.h"]),
    ("included from bench/", {"bench/cell.cc": API_OWN_CC}, []),
    ("included from perfbench/",
     {"perfbench/probes.cc": "#include <lib/api.h>\n"}, []),
    ("included from another src/ file",
     {"src/other/user.cc": API_OWN_CC}, []),
    ("included from tools/ and examples/",
     {"tools/cli.cc": API_OWN_CC, "examples/demo.cpp": API_OWN_CC}, []),
    ("suppressed on line 1",
     {"src/lib/api.h": "// lint:allow(test-only-api) kept for a plugin\n"},
     []),
]


def self_test():
    failures = []
    for name, files, expected in TEST_ONLY_API_TREES:
        with tempfile.TemporaryDirectory() as root:
            tree = {"src/lib/api.h": API_HEADER, "src/lib/api.cc": API_OWN_CC}
            tree.update(files)
            for rel, contents in tree.items():
                path = os.path.join(root, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(contents)
            findings = []
            check_test_only_api(root, findings)
            got = [f.path for f in findings if f.rule == "test-only-api"]
            if got != [os.path.normpath(h) for h in expected]:
                failures.append(f"test-only-api, {name}: expected {expected}, "
                                f"got {[str(f) for f in findings]}")
    with tempfile.TemporaryDirectory() as root:
        for rel, contents, expected in SELF_TEST_FIXTURES:
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
            findings = []
            lint_file(root, os.path.normpath(rel), findings)
            got = [f.rule for f in findings]
            if got != expected:
                failures.append(f"{rel}: expected {expected}, got "
                                f"{[str(f) for f in findings]}")
            os.remove(path)

        # A scratch file seeded from std::random_device must make the full
        # tree scan fail (acceptance criterion for the lint layer).
        scratch = os.path.join(root, "src", "scratch_seed.cc")
        os.makedirs(os.path.dirname(scratch), exist_ok=True)
        with open(scratch, "w", encoding="utf-8") as f:
            f.write("#include <random>\n"
                    "unsigned Seed() { return std::random_device{}(); }\n")
        tree_findings = lint_tree(root)
        if not any(f.rule == "banned-randomness" for f in tree_findings):
            failures.append("tree scan failed to flag std::random_device "
                            "seeding in a scratch file")

        # nodiscard-status fires when status.h drops the attribute.
        status_h = os.path.join(root, "src", "common", "status.h")
        with open(status_h, "w", encoding="utf-8") as f:
            f.write("class Status {};\ntemplate <typename T> class Result {};\n")
        findings = []
        check_nodiscard_status(root, findings)
        if [f.rule for f in findings] != ["nodiscard-status"] * 2:
            failures.append(f"nodiscard-status: got {[str(f) for f in findings]}")

    if failures:
        print("lint self-test FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("lint self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root to lint (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture tests and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"lint: error: '{args.root}' has no src/ directory; "
              "pass the repository root via --root", file=sys.stderr)
        return 2
    findings = lint_tree(args.root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"\nlint: {len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
