"""The analyzer's rule engine and the five AST-level rules.

Each rule consumes a FileIR (ir.py) — produced by either frontend — and
yields Findings. Suppression mirrors tools/lint.py's UX but with a
mandatory rationale:

    offending();  // analyzer:allow(rule-name): why this is safe here

A bare `analyzer:allow(rule)` with no `: rationale` is itself reported
(rule `bare-allow`): the acceptance bar for this tree is that every
suppression carries a written justification.
"""

import os
import re

from ir import Finding, comment_context, find_allows, match_paren

# ---------------------------------------------------------------------------
# Shared helpers


def conditional_spans(code, start, end):
    """Character spans inside [start, end) that are only conditionally
    evaluated WITHIN one expression: everything after a top-level or
    nested `&&`/`||` up to the close of its paren group, and both arms of
    a `?:` ternary. Over-approximates slightly (a span runs to the end of
    its enclosing group), which errs toward reporting — the right bias
    for a determinism check.
    """
    spans = []
    stack = [end]  # close offset of each open paren group
    i = start
    while i < end:
        c = code[i]
        if c == "(":
            close = match_paren(code, i)
            stack.append(close if close != -1 else end)
        elif c == ")":
            if len(stack) > 1:
                stack.pop()
        elif c == "&" and code[i + 1:i + 2] == "&":
            spans.append((i + 2, stack[-1]))
            i += 1
        elif c == "|" and code[i + 1:i + 2] == "|":
            spans.append((i + 2, stack[-1]))
            i += 1
        elif c == "?" and code[i + 1:i + 2] not in (":", "?") and \
                code[i - 1:i] != "?":
            # Ternary: conditional from the '?' to the end of the
            # enclosing group. (Skips '::', '?:' never appears spaced.)
            spans.append((i + 1, stack[-1]))
        i += 1
    return spans


def in_any_span(offset, spans):
    return any(s <= offset < e for s, e in spans)


def first_subscript(expr):
    """The trimmed text of the first [...] subscript in expr, or None."""
    pos = expr.find("[")
    if pos == -1:
        return None
    close = match_paren(expr, pos, "[", "]")
    if close == -1:
        return None
    return expr[pos + 1:close].strip()


ASSIGN_RE = re.compile(
    r"(?P<lhs>[^=!<>+\-*/|&^;{}]+?)\s*"
    r"(?P<op>=|\+=|-=|\*=|/=|\|=|&=|\^=|<<=|>>=)(?!=)")
INCDEC_RE = re.compile(r"(?:\+\+|--)\s*(?P<post>[A-Za-z_][\w.\->\[\]]*)"
                       r"|(?P<pre>[A-Za-z_][\w.\->\[\]]*)\s*(?:\+\+|--)")


def statement_texts(fn, code):
    """Yields (node, text, abs_start) for every leaf-ish statement text in
    a function body: expr/decl/return statements plus if/loop/switch
    condition-or-header texts."""
    for node in fn.walk_statements():
        if node.kind in ("expr", "return"):
            yield node, code[node.start:node.end], node.start
        elif node.kind in ("if", "loop", "switch") and node.cond_start >= 0:
            yield node, code[node.cond_start:node.cond_end], node.cond_start


# ---------------------------------------------------------------------------
# Rule base


class Rule:
    name = ""
    description = ""

    def applies_to(self, rel_path):
        raise NotImplementedError

    def check(self, fir):
        """Yields Finding objects (pre-suppression)."""
        raise NotImplementedError


def _under(rel_path, *dirs):
    return any(rel_path == d or rel_path.startswith(d + os.sep)
               for d in dirs)


# ---------------------------------------------------------------------------
# rng-draw-invariance

RNG_DRAW_METHODS = ("Next", "UniformDouble", "Uniform", "UniformInt",
                    "Bernoulli", "Normal", "Exponential", "Poisson",
                    "Shuffle", "SampleWithoutReplacement", "Fork")

RNG_DECL_RE = re.compile(r"\bRng\s*[&*]?\s+([A-Za-z_]\w*)\b")
DRAW_ANNOTATION = "draws: invariant"


class RngDrawInvariance(Rule):
    """Any Rng draw on a conditionally executed path (if/else branch,
    switch body, ternary arm, short-circuit RHS) makes the number of
    draws data-dependent, which desynchronizes the deterministic stream
    that the fused 2-scan climb's speculative dual-branch identity (and
    checkpoint/resume) depend on. Hoist the draw above the branch, or
    annotate the site `// draws: invariant` with an argument for why
    every path draws the same count.
    """

    name = "rng-draw-invariance"
    description = "Rng draws must not be conditionally executed"

    ALLOWLIST = (os.path.join("src", "common", "rng.h"),
                 os.path.join("src", "common", "rng.cc"))

    def applies_to(self, rel_path):
        return _under(rel_path, "src") and rel_path not in self.ALLOWLIST

    def check(self, fir):
        code = fir.code
        for fn in fir.functions:
            fn_text = code[fn.params_start:fn.body_end]
            names = set(RNG_DECL_RE.findall(fn_text))
            if not names:
                continue
            draw_re = re.compile(
                r"\b(" + "|".join(re.escape(n) for n in sorted(names)) +
                r")\s*\.\s*(" + "|".join(RNG_DRAW_METHODS) + r")\s*\(")
            # 1. Statement-level: draws inside if/else branches and switch
            #    bodies. Conditions and loop headers/bodies are
            #    unconditionally reached, so they are exempt (a loop
            #    draws a data-independent count when its trip count is —
            #    trip counts are the caller's contract, not this rule's).
            cond_stmt_spans = []
            for node in fn.walk_statements():
                if node.kind == "if":
                    for branch in (node.then_, node.else_):
                        for child in branch:
                            cond_stmt_spans.append((child.start, child.end,
                                                    fir.line_of(node.start)))
                elif node.kind == "switch":
                    for child in node.body:
                        cond_stmt_spans.append((child.start, child.end,
                                                fir.line_of(node.start)))
            # 2. Expression-level: draws after `&&`/`||` or `?` within any
            #    statement/condition text.
            expr_spans = []
            for node, _text, abs_start in statement_texts(fn, code):
                stmt_end = (node.cond_end if node.kind in
                            ("if", "loop", "switch") else node.end)
                for s, e in conditional_spans(code, abs_start, stmt_end):
                    expr_spans.append((s, e, fir.line_of(abs_start)))
            for m in draw_re.finditer(code, fn.body_start, fn.body_end):
                reason = None
                for s, e, hdr_line in cond_stmt_spans:
                    if s <= m.start() < e:
                        reason = ("conditionally executed statement "
                                  f"(branch opened on line {hdr_line})")
                        break
                if reason is None:
                    for s, e, hdr_line in expr_spans:
                        if s <= m.start() < e:
                            reason = ("short-circuit/ternary operand "
                                      f"(expression on line {hdr_line})")
                            break
                if reason is None:
                    continue
                line = fir.line_of(m.start())
                if self._annotated(fir, line, cond_stmt_spans, m.start()):
                    continue
                yield Finding(
                    fir.rel_path, line, self.name,
                    f"Rng draw {m.group(1)}.{m.group(2)}() on a {reason}: "
                    "a data-dependent draw count desynchronizes the "
                    "deterministic stream (speculative dual-branch "
                    "identity, checkpoint/resume). Hoist the draw above "
                    "the branch, or annotate `// draws: invariant` with "
                    "why every path draws equally")

    @staticmethod
    def _annotated(fir, line, cond_stmt_spans, offset):
        if any(DRAW_ANNOTATION in ln
               for ln in comment_context(fir.lines, line)):
            return True
        # The annotation may also sit on the branch header line.
        for s, e, hdr_line in cond_stmt_spans:
            if s <= offset < e and any(
                    DRAW_ANNOTATION in ln
                    for ln in comment_context(fir.lines, hdr_line)):
                return True
        return False


# ---------------------------------------------------------------------------
# fp-accumulation-order

REASSOC_CALL_RE = re.compile(
    r"std\s*::\s*(accumulate|reduce|transform_reduce|inner_product)\s*[<(]")
FLOAT_DECL_TEMPLATE = r"\b(?:double|float)\s+(?:[*&]\s*)?{name}\b"
COMPOUND_ADD_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\+=|-=)")


class FpAccumulationOrder(Rule):
    """Bit-identity pins every floating-point reduction to one evaluation
    order: per-point ascending, merged in ascending block order
    (DESIGN.md §7/§9). In src/core and src/distance, flag (a)
    std::accumulate/reduce/transform_reduce/inner_product — idioms whose
    operand order is an implementation detail or an invitation to
    reassociate — and (b) loops that iterate backwards while compound-
    adding into a floating-point local. The blessed kernel layer
    (distance/batch.*) is exempt: its tiled order is the contract the
    property tests pin down.
    """

    name = "fp-accumulation-order"
    description = "floating-point reductions must accumulate in ascending order"

    SCOPE = (os.path.join("src", "core"), os.path.join("src", "distance"))
    ALLOWLIST = (os.path.join("src", "distance", "batch.h"),
                 os.path.join("src", "distance", "batch.cc"))

    def applies_to(self, rel_path):
        return _under(rel_path, *self.SCOPE) and \
            rel_path not in self.ALLOWLIST

    def check(self, fir):
        code = fir.code
        for m in REASSOC_CALL_RE.finditer(code):
            yield Finding(
                fir.rel_path, fir.line_of(m.start()), self.name,
                f"std::{m.group(1)} hides the accumulation order of a "
                "floating-point reduction (and std::reduce may "
                "reassociate); write the explicit ascending loop, or move "
                "the reduction into the blessed kernel layer "
                "(distance/batch.h)")
        for fn in fir.functions:
            fn_text = code[fn.body_start:fn.body_end]
            for node in fn.walk_statements():
                if node.kind != "loop" or node.cond_start < 0:
                    continue
                header = code[node.cond_start:node.cond_end]
                if not self._descending(header, node.loop_kind):
                    continue
                body_start = node.cond_end
                for add in COMPOUND_ADD_RE.finditer(code, body_start,
                                                    node.end):
                    target = add.group(1)
                    if not re.search(
                            FLOAT_DECL_TEMPLATE.format(
                                name=re.escape(target)), fn_text):
                        continue
                    yield Finding(
                        fir.rel_path, fir.line_of(add.start()), self.name,
                        f"floating-point accumulator '{target}' is built "
                        "by a loop that iterates backwards "
                        f"({header.strip()!r}); FP addition is not "
                        "associative, so only the ascending per-point "
                        "order is bit-identical to the goldens — iterate "
                        "ascending or hand the reduction to "
                        "distance/batch.h")

    @staticmethod
    def _descending(header, loop_kind):
        if loop_kind == "range-for":
            return bool(re.search(r"\brbegin\b|\breverse\b", header))
        if loop_kind == "for":
            clauses = header.split(";")
            if len(clauses) >= 3 and re.search(r"--|-=", clauses[2]):
                return True
            return False
        # while/do: a `--` in the condition is the idiomatic countdown.
        return bool(re.search(r"--", header))


# ---------------------------------------------------------------------------
# consumer-lifecycle


class ConsumerLifecycle(Rule):
    """The commit-on-Merge contract (DESIGN.md §10, data/engine.h): every
    ScanConsumer subclass must (a) write only block-/row-keyed state from
    ConsumeBlock (an unsubscripted member write from the concurrent region
    races across blocks and mutates merged state outside Merge), and (b)
    not retain raw pointers into the block's scratch span except in
    per-block slots keyed by block_index.
    """

    name = "consumer-lifecycle"
    description = "ScanConsumer subclasses must honor the commit-on-Merge contract"

    def applies_to(self, rel_path):
        return _under(rel_path, "src")

    def check(self, fir):
        for cls in fir.classes:
            if "ScanConsumer" not in cls.bases:
                continue
            for method in cls.methods:
                if method.name != "ConsumeBlock":
                    continue
                yield from self._check_consume_block(fir, cls, method)

    def _check_consume_block(self, fir, cls, method):
        code = fir.code
        params = self._param_names(code, method)
        block_param = params[0] if params else "block_index"
        data_param = params[2] if len(params) > 2 else "data"
        data_ptr_re = re.compile(
            r"\b" + re.escape(data_param) + r"\s*\.\s*data\s*\(" +
            r"|&\s*" + re.escape(data_param) + r"\s*\[")
        for node, text, abs_start in statement_texts(method, code):
            if node.kind != "expr":
                continue
            for m in ASSIGN_RE.finditer(text):
                lhs = m.group("lhs").strip()
                lhs = lhs.split(";")[-1].strip()  # last stmt on the line
                root = self._member_root(lhs)
                if root is None:
                    continue
                line = fir.line_of(abs_start + m.start("lhs"))
                if "[" not in lhs:
                    yield Finding(
                        fir.rel_path, line, self.name,
                        f"'{cls.name}::ConsumeBlock' writes member "
                        f"'{root}' without a block/row subscript: "
                        "ConsumeBlock runs concurrently for distinct "
                        "blocks, so unkeyed member writes race and mutate "
                        "merged state outside Merge() — key the write by "
                        f"{block_param} (or first_row range), or move it "
                        "to Merge()")
                    continue
                rhs = text[m.end():]
                rhs = rhs.split(";")[0]
                if data_ptr_re.search(rhs):
                    sub = first_subscript(lhs)
                    if sub != block_param:
                        yield Finding(
                            fir.rel_path, line, self.name,
                            f"'{cls.name}::ConsumeBlock' stores a raw "
                            f"pointer into the '{data_param}' block span "
                            f"in member '{root}' not keyed by "
                            f"{block_param}: the span only lives for this "
                            "call, so a retained pointer dangles across "
                            "blocks/scans — copy the values, or key the "
                            f"slot by {block_param}")
            for m in INCDEC_RE.finditer(text):
                target = (m.group("post") or m.group("pre")).strip()
                root = self._member_root(target)
                if root is None or "[" in target:
                    continue
                yield Finding(
                    fir.rel_path, fir.line_of(abs_start + m.start()),
                    self.name,
                    f"'{cls.name}::ConsumeBlock' increments member "
                    f"'{root}' without a block/row subscript: "
                    "ConsumeBlock runs concurrently for distinct blocks, "
                    "so unkeyed member updates race and mutate merged "
                    f"state outside Merge() — key by {block_param}, or "
                    "count into a per-block slot and sum in Merge()")

    @staticmethod
    def _param_names(code, method):
        params_text = code[method.params_start + 1:method.params_end - 1]
        names = []
        depth = 0
        current = ""
        for ch in params_text + ",":
            if ch in "<([{":
                depth += 1
            elif ch in ">)]}":
                depth -= 1
            if ch == "," and depth == 0:
                m = re.search(r"([A-Za-z_]\w*)\s*(?:=[^,]*)?$",
                              current.strip())
                names.append(m.group(1) if m else "")
                current = ""
            else:
                current += ch
        return names

    @staticmethod
    def _member_root(lhs):
        """The member name if lhs is rooted at a data member (this-> or
        the trailing-underscore convention), else None."""
        lhs = lhs.strip()
        m = re.match(r"(?:\(?\s*\*?\s*this->\s*)?([A-Za-z_]\w*)", lhs)
        if not m:
            return None
        root = m.group(1)
        if "this->" in lhs[:m.end()] or root.endswith("_"):
            return root
        return None


# ---------------------------------------------------------------------------
# layer-dag

LAYERS = {
    "common": 0,
    "data": 1,
    "distance": 2,
    "gen": 2,
    "core": 3,
    "clique": 3,
    "baselines": 3,
    "eval": 4,
    "extensions": 4,
}
DAG_TEXT = ("common -> data -> distance/gen -> core/clique/baselines -> "
            "eval/extensions")


class LayerDag(Rule):
    """The architecture's include DAG, formerly tribal knowledge: a
    src/<dir> file may include its own directory and strictly lower
    layers only. Back-edges (lower including higher) and lateral edges
    (two directories on the same layer) are both errors — each is a cycle
    or a cycle-in-waiting, and the shard-parallel refactor is about to
    reshuffle src/data under this contract.
    """

    name = "layer-dag"
    description = "src include graph must follow the layer DAG"

    def applies_to(self, rel_path):
        return _under(rel_path, "src")

    def check(self, fir):
        parts = fir.rel_path.split(os.sep)
        if len(parts) < 3 or parts[1] not in LAYERS:
            return
        own = parts[1]
        own_layer = LAYERS[own]
        for line, inc in fir.includes:
            inc_parts = inc.split("/")
            if inc_parts[0] == "src":
                inc_parts = inc_parts[1:]
            inc_dir = inc_parts[0] if inc_parts else ""
            if inc_dir not in LAYERS or inc_dir == own:
                continue
            tgt_layer = LAYERS[inc_dir]
            if tgt_layer > own_layer:
                yield Finding(
                    fir.rel_path, line, self.name,
                    f"back-edge in the layer DAG: src/{own} (layer "
                    f"{own_layer}) includes \"{inc}\" from src/{inc_dir} "
                    f"(layer {tgt_layer}); the architecture is {DAG_TEXT} "
                    "— move the shared declaration down a layer or invert "
                    "the dependency")
            elif tgt_layer == own_layer:
                yield Finding(
                    fir.rel_path, line, self.name,
                    f"lateral edge in the layer DAG: src/{own} and "
                    f"src/{inc_dir} sit on the same layer ({own_layer}) "
                    f"of {DAG_TEXT}, so \"{inc}\" creates a cycle or a "
                    "cycle-in-waiting — route the shared piece through a "
                    "lower layer")


# ---------------------------------------------------------------------------
# status-flow

RESULT_DECL_RE = re.compile(r"\bResult\s*<[^;{}()=]*>\s+([A-Za-z_]\w*)")
VALUE_CALL_RE = re.compile(
    r"(?:std\s*::\s*move\s*\(\s*([A-Za-z_]\w*)\s*\)|\b([A-Za-z_]\w*))"
    r"\s*\.\s*value\s*\(\s*\)")


class StatusFlow(Rule):
    """AST-accurate replacement for lint.py's retired regex rule
    `result-unchecked`: value()/'*'/'->' on a Result must be DOMINATED by
    an ok() check — `if (!x.ok()) return ...;` early-exit,
    PROCLUS_RETURN_IF_ERROR(x.status()), PROCLUS_CHECK(x.ok()), or use
    inside an `if (x.ok())` branch. The regex version accepted any
    textually earlier `.ok()`, including one in a sibling branch that
    never executes before the use; this version tracks dominance through
    the statement tree.
    """

    name = "status-flow"
    description = "Result access must be dominated by an ok() check"

    SCOPE = ("src", "bench", "fuzz")
    ALLOWLIST = (os.path.join("src", "common", "status.h"),)

    def applies_to(self, rel_path):
        return _under(rel_path, *self.SCOPE) and \
            rel_path not in self.ALLOWLIST

    def check(self, fir):
        code = fir.code
        for fn in fir.functions:
            result_locals = set(
                RESULT_DECL_RE.findall(code[fn.params_start:fn.body_end]))
            findings = []
            self._walk(fir, fn.body, set(), result_locals, findings)
            yield from findings

    # -- dominance walk ----------------------------------------------------

    def _walk(self, fir, stmts, checked, result_locals, findings):
        """Walks a statement list; returns the checked-set guaranteed to
        hold after the list for statements that follow it."""
        code = fir.code
        for node in stmts:
            if node.kind == "if":
                cond = code[node.cond_start:node.cond_end]
                self._scan_text(fir, cond, node.cond_start, checked,
                                result_locals, findings)
                neg = self._neg_ok_name(cond)
                pos = self._pos_ok_name(cond)
                then_checked = set(checked)
                if pos:
                    then_checked.add(pos)
                self._walk(fir, node.then_, then_checked, result_locals,
                           findings)
                else_checked = set(checked)
                if neg:
                    else_checked.add(neg)
                self._walk(fir, node.else_, else_checked, result_locals,
                           findings)
                if neg and not node.else_ and self._terminates(node.then_,
                                                               code):
                    checked.add(neg)  # early-exit dominates the rest
            elif node.kind in ("loop", "switch"):
                if node.cond_start >= 0:
                    self._scan_text(fir, code[node.cond_start:node.cond_end],
                                    node.cond_start, checked, result_locals,
                                    findings)
                # Body may run zero times: additions do not escape.
                self._walk(fir, node.body, set(checked), result_locals,
                           findings)
            elif node.kind == "compound":
                # Sequential block: checks established inside dominate
                # what follows.
                self._walk(fir, node.body, checked, result_locals, findings)
            else:  # expr / return
                self._scan_text(fir, code[node.start:node.end], node.start,
                                checked, result_locals, findings)
        return checked

    def _scan_text(self, fir, text, abs_start, checked, result_locals,
                   findings):
        """Processes one expression/statement text left to right: guard
        patterns update `checked` at their offset; uses before a guard of
        the same name are findings."""
        events = []  # (offset, kind, name)
        for m in re.finditer(
                r"PROCLUS_RETURN_IF_ERROR\s*\(\s*([A-Za-z_]\w*)\s*\.\s*"
                r"status\s*\(", text):
            events.append((m.start(), "guard", m.group(1)))
        for m in re.finditer(
                r"(?:PROCLUS_CHECK|ASSERT_TRUE|EXPECT_TRUE|assert)\s*\(\s*"
                r"([A-Za-z_]\w*)\s*\.\s*ok\s*\(", text):
            events.append((m.start(), "guard", m.group(1)))
        # `x.ok() && use(*x)` within one expression: the ok() call guards
        # everything after it in the same text.
        for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\.\s*ok\s*\(\s*\)\s*&&",
                             text):
            events.append((m.start(), "guard", m.group(1)))
        for m in VALUE_CALL_RE.finditer(text):
            name = m.group(1) or m.group(2)
            events.append((m.start(), "use-value", name))
        for name in result_locals:
            esc = re.escape(name)
            deref = re.compile(
                r"(?:\breturn\s+|[=(,;{]\s*|^\s*)\*\s*" + esc + r"\b"
                r"|\b" + esc + r"\s*->")
            for m in deref.finditer(text):
                events.append((m.start(), "use-deref", name))
        events.sort(key=lambda e: e[0])
        local_checked = set(checked)
        for offset, kind, name in events:
            if kind == "guard":
                local_checked.add(name)
            elif name not in local_checked:
                what = "value()" if kind == "use-value" else "dereference"
                findings.append(Finding(
                    fir.rel_path, fir.line_of(abs_start + offset),
                    self.name,
                    f"{what} on Result '{name}' is not dominated by an "
                    f"ok() check: no `if (!{name}.ok()) return ...`, "
                    f"PROCLUS_RETURN_IF_ERROR({name}.status()), or "
                    f"enclosing `if ({name}.ok())` guards this path, so "
                    "an error Status here aborts the process"))
                local_checked.add(name)  # report each name once per stmt
        # Guards established in a sequential statement dominate the rest
        # of the enclosing block.
        checked |= {n for _, k, n in events if k == "guard"}

    @staticmethod
    def _neg_ok_name(cond):
        m = re.search(r"!\s*([A-Za-z_]\w*)\s*\.\s*ok\s*\(\s*\)", cond)
        return m.group(1) if m else None

    @staticmethod
    def _pos_ok_name(cond):
        for m in re.finditer(r"(!?)\s*\b([A-Za-z_]\w*)\s*\.\s*ok\s*\(\s*\)",
                             cond):
            if not m.group(1):
                return m.group(2)
        return None

    @staticmethod
    def _terminates(stmts, code):
        """True if the branch always exits the enclosing flow: its last
        statement is return/break/continue or a noreturn macro."""
        if not stmts:
            return False
        last = stmts[-1]
        if last.kind == "return":
            return True
        if last.kind == "compound":
            return StatusFlow._terminates(last.body, code)
        text = code[last.start:last.end]
        return bool(re.match(
            r"\s*(break\b|continue\b|(?:std\s*::\s*)?(?:abort|exit|_Exit)\b"
            r"|PROCLUS_FATAL\b|FAIL\s*\()", text))


# ---------------------------------------------------------------------------
# Registry & suppression

ALL_RULES = (RngDrawInvariance(), FpAccumulationOrder(), ConsumerLifecycle(),
             LayerDag(), StatusFlow())
RULE_NAMES = tuple(r.name for r in ALL_RULES) + ("bare-allow",)


def check_file(fir, rules=None):
    """Runs `rules` (default: all) over one FileIR, applying
    analyzer:allow suppressions and reporting rationale-less allows."""
    findings = []
    for rule in rules or ALL_RULES:
        if not rule.applies_to(fir.rel_path):
            continue
        for finding in rule.check(fir):
            allows = find_allows(fir.lines, finding.line)
            if any(rule_name == finding.rule and rationale
                   for rule_name, rationale in allows):
                continue
            if any(rule_name == finding.rule and not rationale
                   for rule_name, rationale in allows):
                findings.append(Finding(
                    fir.rel_path, finding.line, "bare-allow",
                    f"analyzer:allow({finding.rule}) has no rationale; "
                    "write `// analyzer:allow("
                    f"{finding.rule}): <why this is safe>` — every "
                    "suppression in this tree must carry its "
                    "justification"))
                continue
            findings.append(finding)
    return findings
