#!/usr/bin/env python3
"""YL008: closure-purity static analysis for RDD combinator arguments.

The runtime sanitizer (engine/detsan.h, rule YL007) catches impure closures
by replaying sampled tasks; this is its static sibling: it flags closure
impurity *patterns* at the source level, before anything runs:

  ref-capture   by-reference capture ([&], [&name]) of mutable non-local
                state in a lambda passed to an RDD combinator or a
                MapReduce JobSpec slot. Task replay/retry re-runs such a
                closure against state another attempt already advanced.
  rng           calls to wall-clock / ambient randomness inside a closure:
                rand/srand/drand48, time/clock, std::random_device,
                std::chrono::*_clock::now. (The repo's seeded util::Rng is
                deterministic and allowed.)
  fp-reduce     floating-point accumulator parameters in reduce-family
                functions (reduce / reduce_by_key / combine_fn /
                reduce_fn): FP addition is not associative, so the fold
                order leaks into the result.

Waivers (a comment on the call-site line or up to 3 lines above it):
  // detsan: tolerate-fp               suppresses fp-reduce only
  // detsan: tolerate-accumulator      suppresses ref-capture only (for
                                       engine::Accumulator side channels:
                                       commutative atomic adds that never
                                       feed the task's output)
  // detsan: intentional-divergence    suppresses everything (committed
                                       negative-control fixtures)

Engines:
  lexical (default)  self-contained: strips comments/strings, finds
                     combinator call sites, parses the OUTERMOST lambda
                     argument's capture list with balanced-delimiter
                     scanning. Nested lambdas capturing closure-locals by
                     reference (e.g. an on_hit callback inside a
                     map_partitions body) are deliberately not flagged --
                     closure-local state is re-created per replay.
  clang-query        emits the equivalent AST matchers and drives
                     clang-query over BUILD_DIR/compile_commands.json
                     (exported unconditionally by CMake). Requires LLVM
                     tooling on PATH; the CI container has none, so the
                     lexical engine is what the detsan lane runs.

Usage:
  closure_matchers.py [--engine=lexical|clang-query] [--build-dir=DIR]
                      [--fixtures] FILE...

Exit codes: 0 clean (or, with --fixtures, every impurity class detected);
1 findings (or a fixture class missed); 2 usage/environment error.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

COMBINATOR_CALL = re.compile(
    r"(?:\.|->)\s*"
    r"(map|flat_map|filter|map_partitions|reduce|reduce_by_key|"
    r"group_by_key)\s*\(")
JOBSPEC_SLOT = re.compile(
    r"\b(map_fn|map_partition_fn|combine_fn|reduce_fn)\s*=")
REDUCE_FAMILY = {"reduce", "reduce_by_key", "combine_fn", "reduce_fn"}
RNG_PATTERNS = [
    (re.compile(r"\b(?:std\s*::\s*)?(rand|srand|drand48|lrand48)\s*\("),
     "calls {0}() (ambient randomness)"),
    (re.compile(r"\b(?:std\s*::\s*)?(time|clock)\s*\("),
     "calls {0}() (wall clock)"),
    (re.compile(r"\bstd\s*::\s*random_device\b"),
     "uses std::random_device (nondeterministic entropy)"),
    (re.compile(r"\bstd\s*::\s*chrono\s*::\s*\w*clock\s*::\s*now\b"),
     "reads a chrono clock (wall clock)"),
]
WAIVER_ALL = "detsan: intentional-divergence"
WAIVER_FP = "detsan: tolerate-fp"
WAIVER_ACC = "detsan: tolerate-accumulator"
WAIVER_WINDOW = 3  # call-site line plus this many lines above


class Finding:
    def __init__(self, path, line, op, kind, message):
        self.path = path
        self.line = line
        self.op = op
        self.kind = kind  # ref-capture | rng | fp-reduce
        self.message = message

    def render(self):
        return (f"YL008 {self.path}:{self.line}: lambda passed to "
                f"{self.op}: {self.message}")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving offsets."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for j in range(a, b):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            blank(i, j + 2)
            i = j + 2
        elif c in "\"'":
            # Raw strings would need delimiter tracking; the repo has none.
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out)


def match_balanced(text, start, open_ch, close_ch):
    """Offset one past the delimiter closing text[start] (== open_ch)."""
    assert text[start] == open_ch
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def split_top_level_args(text):
    """Split an argument-list body on top-level commas; returns spans."""
    spans = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        # Angle brackets are NOT tracked: '>' appears in '->' and '>>' far
        # more often than in top-level template argument lists, and a
        # mis-split from an untracked '<A, B>' can never break lambda
        # detection (a lambda-adjacent comma always sits inside [], () or
        # {} -- all tracked).
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth = max(0, depth - 1)
        elif c == "," and depth == 0:
            spans.append((start, i))
            start = i + 1
    spans.append((start, len(text)))
    return spans


class Lambda:
    def __init__(self, captures, params, body):
        self.captures = captures
        self.params = params
        self.body = body


def parse_lambda(text, start):
    """Parse a lambda starting at text[start] == '['; None if not one."""
    cap_end = match_balanced(text, start, "[", "]")
    captures = text[start + 1:cap_end - 1]
    i = cap_end
    while i < len(text) and text[i].isspace():
        i += 1
    params = ""
    if i < len(text) and text[i] == "(":
        par_end = match_balanced(text, i, "(", ")")
        params = text[i + 1:par_end - 1]
        i = par_end
    # Skip specifiers / trailing return type up to the body.
    while i < len(text) and text[i] != "{":
        if text[i] == ";" or text[i] == ")":
            return None  # not a lambda (e.g. an array subscript)
        i += 1
    if i >= len(text):
        return None
    body_end = match_balanced(text, i, "{", "}")
    return Lambda(captures, params, text[i + 1:body_end - 1])


def ref_captures(capture_list):
    """The by-reference entries of a capture list ('&', '&name')."""
    bad = []
    for entry in capture_list.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" in entry and not entry.startswith("&"):
            continue  # init-capture by value: [x = expr]
        if entry == "&" or (entry.startswith("&") and "=" not in entry):
            bad.append(entry)
    return bad


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def waiver_lines(original_text):
    """Map line number -> waiver kind for every waiver comment."""
    waivers = {}
    for lineno, line in enumerate(original_text.splitlines(), start=1):
        if WAIVER_ALL in line:
            waivers[lineno] = "all"
        elif WAIVER_FP in line:
            waivers.setdefault(lineno, "fp")
        elif WAIVER_ACC in line:
            waivers.setdefault(lineno, "acc")
    return waivers


def waived(waivers, call_line, kind):
    for lineno in range(call_line - WAIVER_WINDOW, call_line + 1):
        w = waivers.get(lineno)
        if (w == "all" or (w == "fp" and kind == "fp-reduce") or
                (w == "acc" and kind == "ref-capture")):
            return True
    return False


def check_lambda(path, stripped, lam, op, call_line, waivers, findings):
    for entry in ref_captures(lam.captures):
        if waived(waivers, call_line, "ref-capture"):
            continue
        what = ("default by-reference capture [&]" if entry == "&"
                else f"by-reference capture '{entry}'")
        findings.append(Finding(
            path, call_line, op, "ref-capture",
            f"{what} of mutable non-local state; task replay/retry re-runs "
            f"the closure against already-advanced state"))
    for pattern, template in RNG_PATTERNS:
        m = pattern.search(lam.body)
        if m and not waived(waivers, call_line, "rng"):
            name = m.group(1) if m.groups() else ""
            findings.append(Finding(
                path, call_line, op, "rng", template.format(name)))
    if op in REDUCE_FAMILY and re.search(r"\b(double|float)\b", lam.params):
        if not waived(waivers, call_line, "fp-reduce"):
            findings.append(Finding(
                path, call_line, op, "fp-reduce",
                "floating-point accumulation is not associative; the fold "
                "order leaks into the result "
                "(waive with '// detsan: tolerate-fp' if tolerated)"))


def scan_file(path, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        original = f.read()
    stripped = strip_comments_and_strings(original)
    waivers = waiver_lines(original)

    for m in COMBINATOR_CALL.finditer(stripped):
        op = m.group(1)
        paren = m.end() - 1
        call_line = line_of(stripped, m.start())
        args_end = match_balanced(stripped, paren, "(", ")")
        args = stripped[paren + 1:args_end - 1]
        for a, b in split_top_level_args(args):
            arg = args[a:b]
            bracket = arg.find("[")
            if bracket < 0 or arg[:bracket].strip():
                continue  # not a direct lambda argument
            lam = parse_lambda(args, a + bracket)
            if lam:
                check_lambda(path, stripped, lam, op, call_line, waivers,
                             findings)

    for m in JOBSPEC_SLOT.finditer(stripped):
        op = m.group(1)
        call_line = line_of(stripped, m.start())
        i = m.end()
        while i < len(stripped) and stripped[i].isspace():
            i += 1
        if i < len(stripped) and stripped[i] == "[":
            lam = parse_lambda(stripped, i)
            if lam:
                check_lambda(path, stripped, lam, op, call_line, waivers,
                             findings)


CLANG_QUERY_MATCHERS = r"""
# Equivalent AST matchers for the lexical checks above (clang-query -f).
# ref-capture: lambdas with a by-reference capture passed to a combinator.
set output diag
match lambdaExpr(
  hasAnyCapture(lambdaCapture(capturesVar(varDecl())).bind("cap")),
  hasAncestor(callExpr(callee(cxxMethodDecl(hasAnyName(
    "map", "flat_map", "filter", "map_partitions", "reduce",
    "reduce_by_key"))))))
# rng: ambient randomness / wall clock inside any lambda body.
match callExpr(
  callee(functionDecl(hasAnyName("rand", "srand", "time", "clock",
                                 "drand48", "lrand48"))),
  hasAncestor(lambdaExpr()))
match cxxConstructExpr(
  hasType(cxxRecordDecl(hasName("::std::random_device"))),
  hasAncestor(lambdaExpr()))
# fp-reduce: floating-point parameters on reduce-family arguments.
match lambdaExpr(
  has(cxxMethodDecl(hasAnyParameter(hasType(realFloatingPointType())))),
  hasAncestor(callExpr(callee(cxxMethodDecl(hasAnyName(
    "reduce", "reduce_by_key"))))))
"""


def run_clang_query(build_dir, files):
    binary = os.environ.get("CLANG_QUERY", "clang-query")
    if not shutil.which(binary):
        print(f"error: {binary} not found; use --engine=lexical "
              f"(or set CLANG_QUERY)", file=sys.stderr)
        return 2
    db = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db):
        print(f"error: {db} not found; configure first: "
              f"cmake -B {build_dir} -S .", file=sys.stderr)
        return 2
    with tempfile.NamedTemporaryFile("w", suffix=".cq", delete=False) as f:
        f.write(CLANG_QUERY_MATCHERS)
        script = f.name
    try:
        tus = [p for p in files if p.endswith(".cpp")]
        proc = subprocess.run([binary, "-p", build_dir, "-f", script] + tus,
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        matches = proc.stdout.count("Match #")
        if proc.returncode != 0:
            return 2
        if matches:
            print(f"closure check (clang-query): {matches} finding(s)")
            return 1
        print("closure check (clang-query): clean")
        return 0
    finally:
        os.unlink(script)


def main(argv):
    engine = "lexical"
    build_dir = "build"
    fixtures = False
    files = []
    for arg in argv[1:]:
        if arg.startswith("--engine="):
            engine = arg.split("=", 1)[1]
        elif arg.startswith("--build-dir="):
            build_dir = arg.split("=", 1)[1]
        elif arg == "--fixtures":
            fixtures = True
        elif arg.startswith("-"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            files.append(arg)
    if not files:
        print("error: no input files (pass paths, usually via "
              "scripts/closure_check.sh)", file=sys.stderr)
        return 2
    if engine == "clang-query":
        return run_clang_query(build_dir, files)
    if engine != "lexical":
        print(f"error: unknown engine '{engine}'", file=sys.stderr)
        return 2

    findings = []
    for path in files:
        scan_file(path, findings)
    for finding in findings:
        print(finding.render())

    if fixtures:
        # Negative-control mode: every impurity class must be detected.
        kinds = {f.kind for f in findings}
        missing = {"ref-capture", "rng", "fp-reduce"} - kinds
        if missing:
            print(f"closure check: fixture classes NOT detected: "
                  f"{', '.join(sorted(missing))}", file=sys.stderr)
            return 1
        print(f"closure check: all fixture classes detected "
              f"({len(findings)} finding(s))")
        return 0
    if findings:
        print(f"closure check: {len(findings)} finding(s) in "
              f"{len(files)} file(s)")
        return 1
    print(f"closure check: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
