#!/usr/bin/env python3
"""Project determinism / hot-path linter (detlint).

Rule-based scanning of src/ for the properties the test suite can only spot
after the fact: hidden nondeterminism, iteration-order leaks, and heap
traffic inside the annotated repair hot path. Registered in ctest as
`detlint` (this script on the repo) and `detlint_test` (seeded-violation
self-tests in scripts/detlint_test.py).

Rules
-----
nondet
    Bans wall-clock and ambient-randomness sources in simulation code:
    std::random_device, rand()/srand(), time(), and the std::chrono
    *_clock::now() family. Simulation state may only evolve from the seeded
    util::Rng. src/trace/ is exempt (host-runtime observability measures
    wall time by design); bench/ is outside the scanned tree.

unordered-iter
    Bans iterating a std::unordered_{map,set,multimap,multiset}: iteration
    order differs across libstdc++ versions and hash seeds, so any report,
    placement, or serialized artifact fed from such a loop silently loses
    cross-platform determinism. Order-independent folds (sums, min/max
    tie-breaks) are legitimate - mark them with DETLINT-ALLOW and say why.

hot-path-alloc
    Inside regions bracketed by
        // DETLINT: hot-path-begin
        // DETLINT: hot-path-end
    bans heap traffic: `new`, make_unique/make_shared, std::string
    construction and std::to_string temporaries, and
    push_back/emplace_back on a container with no reserve() call anywhere
    in the same file. The annotated regions are the BuildPool / candidate
    index / selection-scratch code whose zero-allocation claim
    tests/hotpath_alloc_test.cc proves at runtime; the linter keeps the
    property reviewable at the diff level. Unbalanced or nested begin/end
    markers are themselves violations.

registry
    Registry completeness: every name registered in
    src/scenario/registry.cc (named scenarios), src/core/
    strategy_registry.cc (policies / selections / estimators), and
    src/metrics/registry.cc (metric probes) must appear in README.md, and
    scripts/check.sh must retain the registry-driven smoke loops
    (`scenario_tool list`, `policies --names`, `selections --names`,
    `estimators --names`, `metrics --names`) so new registrations are
    smoke-tested without editing the script. Each of the three sources must
    yield at least one name: a source that is missing, or whose table no
    longer matches the scraper, is itself a violation.

options
    Option-table completeness: every data member of `struct SystemOptions`
    in src/backup/options.h except num_peers (a scenario's top-level
    `peers` key) must be named by exactly one row of the kOptionKeys table
    beside it (`&SystemOptions::member`). Scenario text, its rendering and
    SystemOptions equality all loop over that table, so a member without a
    row would silently drop out of all three. A header that is missing, or
    in which the struct is not found, is itself a violation.

reach
    Dead-library check: starting from every file under src/sweep,
    src/scenario and src/trace (the layers the programs are built on), follows
    `#include "..."` edges and, from each header, its sibling .cc. A src/
    file this never reaches is a violation, reported at its line 1, so
    that code no program can call does not pile up unnoticed. A file kept
    for tests or benches alone carries the allow annotation on its first
    line.

Escape hatch
------------
    // DETLINT-ALLOW(rule): reason
on the offending line or the line directly above suppresses that rule for
that line. The reason is mandatory - the point is that every exception is
visible and argued in review.

Exit status: 0 clean, 1 violations, 2 usage error.
"""

import argparse
import os
import re
import sys

SRC_EXTENSIONS = (".cc", ".h")

# Directories under src/ exempt from the nondet rule (host-runtime tracing
# measures wall time on purpose; results never feed simulation state).
NONDET_EXEMPT_DIRS = ("trace",)

ALLOW_RE = re.compile(r"//\s*DETLINT-ALLOW\(([\w-]+)\)\s*:\s*(.*)")
HOT_BEGIN_RE = re.compile(r"//\s*DETLINT:\s*hot-path-begin\b")
HOT_END_RE = re.compile(r"//\s*DETLINT:\s*hot-path-end\b")

NONDET_PATTERNS = (
    (re.compile(r"std::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:.>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:.>])time\s*\("), "time()"),
    (re.compile(
        r"(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now"),
     "std::chrono clock ::now()"),
)

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<")
# Identifier that terminates an unordered declaration: the first name that
# follows the closing template bracket at depth zero.
IDENT_RE = re.compile(r"[A-Za-z_]\w*")

HOT_ALLOC_PATTERNS = (
    (re.compile(r"(?<![\w:])new\b(?!\s*\()"), "operator new"),
    (re.compile(r"(?<![\w:])new\s*\("), "operator new"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "make_unique/make_shared"),
    (re.compile(r"\bstd::string\b"), "std::string temporary"),
    (re.compile(r"\bto_string\s*\("), "std::to_string temporary"),
)
PUSH_BACK_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*"
                          r"(?:push_back|emplace_back)\s*\(")

# The layers the programs are built on; the reach rule walks the include
# graph from their files.
REACH_ROOT_DIRS = ("sweep", "scenario", "trace")
INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.M)

CHECK_SH_REQUIRED_LOOPS = (
    "scenario_tool list",
    "policies --names",
    "selections --names",
    "estimators --names",
    "metrics --names",
)


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def is_digit_separator(text, i):
    """Whether the quote at text[i] separates digits (25'000), i.e. ends a
    run of identifier characters that starts with a digit. A char literal's
    prefix (L'x', u8'x') starts with a letter."""
    start = i
    while start > 0 and (text[start - 1].isalnum() or text[start - 1] in "_'"):
        start -= 1
    return start < i and text[start].isdigit()


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals, preserving line structure.

    Rule regexes run on the stripped text so tokens in comments or log
    strings never fire; DETLINT annotations are parsed from the raw text
    beforehand.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'" and not is_digit_separator(text, i):
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def parse_allows(raw_lines, path):
    """Returns ({line_number: rule}, [syntax violations]).

    An ALLOW covers its own line and the line below (annotation-above
    style). An ALLOW with an empty reason is itself a violation: the reason
    is the whole point.
    """
    allows = {}
    violations = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m is None:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if not reason:
            violations.append(Violation(
                path, idx, "allow-syntax",
                "DETLINT-ALLOW(%s) without a reason" % rule))
            continue
        allows.setdefault(idx, set()).add(rule)
        allows.setdefault(idx + 1, set()).add(rule)
    return allows, violations


def allowed(allows, line, rule):
    return rule in allows.get(line, set())


def unordered_container_names(stripped):
    """Names declared (or bound) as unordered containers in this file."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(stripped):
        # Walk the template argument list to its matching '>' and take the
        # next identifier at depth zero as the declared name.
        depth = 0
        i = m.end() - 1  # at '<'
        n = len(stripped)
        while i < n:
            if stripped[i] == "<":
                depth += 1
            elif stripped[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = stripped[i + 1:i + 200]
        ident = IDENT_RE.search(tail)
        if ident:
            names.add(ident.group(0))
    return names


def check_nondet(path, rel, stripped_lines, allows, violations):
    parts = rel.replace(os.sep, "/").split("/")
    if len(parts) >= 2 and parts[1] in NONDET_EXEMPT_DIRS:
        return
    for idx, line in enumerate(stripped_lines, start=1):
        for pattern, what in NONDET_PATTERNS:
            if pattern.search(line) and not allowed(allows, idx, "nondet"):
                violations.append(Violation(
                    path, idx, "nondet",
                    "%s in simulation code (seeded util::Rng only; "
                    "src/trace/ is the wall-clock layer)" % what))


def check_unordered_iter(path, stripped, stripped_lines, allows, violations):
    names = unordered_container_names(stripped)
    if not names:
        return
    for idx, line in enumerate(stripped_lines, start=1):
        for name in names:
            hit = (
                re.search(r"for\s*\(.*:\s*\*?\s*%s\b" % re.escape(name), line)
                or re.search(r"\b%s\s*(?:\.|->)\s*(?:c?begin|equal_range)"
                             r"\s*\(" % re.escape(name), line))
            if hit and not allowed(allows, idx, "unordered-iter"):
                violations.append(Violation(
                    path, idx, "unordered-iter",
                    "iteration over unordered container '%s' (order is "
                    "libstdc++-version-dependent; sort first or justify "
                    "order-independence with DETLINT-ALLOW)" % name))


def check_hot_path(path, stripped, stripped_lines, raw_lines, allows,
                   violations):
    reserved = set(m.group(1) for m in re.finditer(
        r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*reserve\s*\(", stripped))
    in_region = False
    for idx, raw in enumerate(raw_lines, start=1):
        if HOT_BEGIN_RE.search(raw):
            if in_region:
                violations.append(Violation(
                    path, idx, "hot-path-alloc",
                    "nested hot-path-begin (regions cannot nest)"))
            in_region = True
            continue
        if HOT_END_RE.search(raw):
            if not in_region:
                violations.append(Violation(
                    path, idx, "hot-path-alloc",
                    "hot-path-end without a matching begin"))
            in_region = False
            continue
        if not in_region:
            continue
        line = stripped_lines[idx - 1]
        for pattern, what in HOT_ALLOC_PATTERNS:
            if pattern.search(line) and not allowed(allows, idx,
                                                    "hot-path-alloc"):
                violations.append(Violation(
                    path, idx, "hot-path-alloc",
                    "%s inside a hot-path region" % what))
        for m in PUSH_BACK_RE.finditer(line):
            var = m.group(1)
            if var not in reserved and not allowed(allows, idx,
                                                   "hot-path-alloc"):
                violations.append(Violation(
                    path, idx, "hot-path-alloc",
                    "push_back on '%s' with no reserve() in this file "
                    "(growth inside the hot path)" % var))
    if in_region:
        violations.append(Violation(
            path, len(raw_lines), "hot-path-alloc",
            "hot-path-begin never closed (missing hot-path-end)"))


# Where each registry's table lives and the pattern that scrapes its names:
# scenario registry entries `{"name", ...}`, strategy descriptors
# `d.name = "name"`, and metric table rows `Metric("name", ...)`.
REGISTRY_SOURCES = (
    (os.path.join("src", "scenario", "registry.cc"),
     re.compile(r"\{\s*\"([\w-]+)\"\s*,")),
    (os.path.join("src", "core", "strategy_registry.cc"),
     re.compile(r"\.name\s*=\s*\"([\w-]+)\"")),
    (os.path.join("src", "metrics", "registry.cc"),
     re.compile(r"\bMetric\(\s*\"([\w-]+)\"")),
)


def registered_names(root, violations):
    """(name, source_path, line) triples from the three registries.

    A source that is missing or yields no names is a violation: its table
    moved or changed shape, and the README check would silently stop
    covering it.
    """
    out = []
    for rel, pattern in REGISTRY_SOURCES:
        path = os.path.join(root, rel)
        found = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for m in pattern.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                found.append((m.group(1), path, line))
        if not found:
            violations.append(Violation(
                rel, 1, "registry",
                "registry source yields no registered names (missing, or no "
                "match for %s): point the scraper at its table" %
                pattern.pattern))
        out.extend(found)
    return out


def check_registry(root, violations):
    names = registered_names(root, violations)
    readme_path = os.path.join(root, "README.md")
    readme = ""
    if os.path.exists(readme_path):
        with open(readme_path, encoding="utf-8") as f:
            readme = f.read()
    for name, src, line in names:
        if name not in readme:
            violations.append(Violation(
                os.path.relpath(src, root), line, "registry",
                "registered name '%s' missing from README.md (document "
                "every descriptor in the registry tables)" % name))
    check_sh = os.path.join(root, "scripts", "check.sh")
    if os.path.exists(check_sh):
        with open(check_sh, encoding="utf-8") as f:
            body = f.read()
        for marker in CHECK_SH_REQUIRED_LOOPS:
            if marker not in body:
                violations.append(Violation(
                    os.path.join("scripts", "check.sh"), 1, "registry",
                    "check.sh lost its registry smoke loop ('%s'): new "
                    "registrations would ship un-smoked" % marker))


OPTIONS_HEADER = os.path.join("src", "backup", "options.h")
OPTIONS_STRUCT_RE = re.compile(r"\bstruct\s+SystemOptions\s*\{")
OPTIONS_ROW_RE = re.compile(r"&\s*SystemOptions\s*::\s*(\w+)")
# Members that are deliberately not scenario-file option keys.
OPTIONS_WITHOUT_ROW = ("num_peers",)


def system_options_members(stripped, start):
    """(name, line) of each data member of the struct whose body opens at
    `start` (the index just past its '{'), skipping member functions."""
    members = []
    depth = 1
    statement_start = body = start
    i = start
    while i < len(stripped) and depth > 0:
        c = stripped[i]
        if c == "{":
            if depth == 1:
                body = i
            depth += 1
        elif c == "}":
            depth -= 1
            # A member function's body ends its declaration without a ';'.
            if depth == 1 and "(" in stripped[statement_start:body]:
                statement_start = i + 1
        elif c == ";" and depth == 1:
            declarator = re.split(r"[={]", stripped[statement_start:i])[0]
            names = list(IDENT_RE.finditer(declarator))
            if "(" not in declarator and names:
                at = statement_start + names[-1].start()
                members.append((names[-1].group(0),
                                stripped.count("\n", 0, at) + 1))
            statement_start = i + 1
        i += 1
    return members


def check_options(root, violations):
    path = os.path.join(root, OPTIONS_HEADER)
    text = ""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            text = f.read()
    stripped = strip_comments_and_strings(text)
    struct = OPTIONS_STRUCT_RE.search(stripped)
    if struct is None:
        violations.append(Violation(
            OPTIONS_HEADER, 1, "options",
            "no 'struct SystemOptions {' found: point the option-table check "
            "at the struct"))
        return
    rows = {}
    for m in OPTIONS_ROW_RE.finditer(stripped):
        rows[m.group(1)] = rows.get(m.group(1), 0) + 1
    for name, line in system_options_members(stripped, struct.end()):
        if name in OPTIONS_WITHOUT_ROW:
            continue
        count = rows.get(name, 0)
        if count != 1:
            violations.append(Violation(
                OPTIONS_HEADER, line, "options",
                "SystemOptions::%s is named by %d kOptionKeys rows, want "
                "exactly 1 (scenario text, rendering and equality loop over "
                "the table)" % (name, count)))


def check_reach(root, sources, violations):
    """Flags every file in `sources` ({path: raw text}, all of src/) that no
    chain of include edges and header-to-sibling-.cc steps reaches from a
    file under REACH_ROOT_DIRS."""
    src = os.path.join(root, "src")

    def edges(path):
        for m in INCLUDE_RE.finditer(sources[path]):
            # The including file's directory first, then src/ (the project's
            # include root), as the compiler searches a quoted include.
            for base in (os.path.dirname(path), src):
                target = os.path.normpath(os.path.join(base, m.group(1)))
                if target in sources:
                    yield target
                    break
        if path.endswith(".h"):
            sibling = path[:-len(".h")] + ".cc"
            if sibling in sources:
                yield sibling

    reached = set(path for path in sources
                  if os.path.relpath(path, src).split(os.sep)[0]
                  in REACH_ROOT_DIRS)
    stack = list(reached)
    while stack:
        for target in edges(stack.pop()):
            if target not in reached:
                reached.add(target)
                stack.append(target)
    for path in sorted(set(sources) - reached):
        allows, _ = parse_allows(sources[path].splitlines(), path)
        if not allowed(allows, 1, "reach"):
            violations.append(Violation(
                os.path.relpath(path, root), 1, "reach",
                "unreachable from src/%s (#include edges, header to "
                "sibling .cc): no program can call it" %
                ", src/".join(REACH_ROOT_DIRS)))


def lint_file(root, path, violations):
    rel = os.path.relpath(path, root)
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    stripped = strip_comments_and_strings(raw)
    stripped_lines = stripped.splitlines()
    # Pad (a trailing comment without newline can drop a line on split).
    while len(stripped_lines) < len(raw_lines):
        stripped_lines.append("")
    allows, allow_violations = parse_allows(raw_lines, rel)
    violations.extend(allow_violations)
    check_nondet(path, rel, stripped_lines, allows, violations)
    check_unordered_iter(rel, stripped, stripped_lines, allows, violations)
    check_hot_path(rel, stripped, stripped_lines, raw_lines, allows,
                   violations)
    return raw


def run(root):
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        print("detlint: no src/ under %s" % root, file=sys.stderr)
        return 2
    violations = []
    sources = {}
    for dirpath, _, filenames in sorted(os.walk(src)):
        for name in sorted(filenames):
            if name.endswith(SRC_EXTENSIONS):
                path = os.path.join(dirpath, name)
                sources[path] = lint_file(root, path, violations)
    check_reach(root, sources, violations)
    check_registry(root, violations)
    check_options(root, violations)
    for v in sorted(violations, key=lambda v: (v.path, v.line, v.rule)):
        print(v)
    if violations:
        print("detlint: %d violation(s)" % len(violations), file=sys.stderr)
        return 1
    print("detlint: clean")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."),
        help="repository root (default: the checkout containing this script)")
    args = parser.parse_args(argv)
    return run(os.path.abspath(args.root))


if __name__ == "__main__":
    sys.exit(main())
