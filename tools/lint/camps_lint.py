#!/usr/bin/env python3
"""camps_lint: repo-specific static checks the generic tools don't cover.

Rules
-----
determinism   In the simulation-critical trees (src/sim, src/hmc,
              src/prefetch, src/fault) forbid randomness sources (rand, srand,
              std::random_device), wall-clock reads (system_clock,
              steady_clock, gettimeofday, clock(), time(nullptr)), and
              iteration-order-dependent containers (std::unordered_*).
              Whole-system runs must be bit-for-bit reproducible from the
              seed; any of these would silently break that.
pragma-once   Every header uses #pragma once (the repo's include-guard
              style).
stats-name    String literals registered with StatRegistry::counter() /
              histogram() use only [a-z0-9_.] so exported JSON/CSV keys
              stay shell- and spreadsheet-safe.
stats-once    In src/, a stat name passed as a string literal to
              counter(), histogram(), counter_value() or find_histogram()
              is spelled as a literal only once: a second spelling is a
              consumer that a renamed producer would silently read as 0.
              Consumers derive the name from one list instead. tests/ is
              exempt (tests restate names as a reference).
iwyu-lite     A file that names a common std:: type directly includes the
              header that defines it (small fixed mapping; transitive
              includes are deliberately not honored).

Waivers: append `// camps-lint: allow(<rule>)` to the offending line.

Exit status: 0 clean, 1 violations found, 2 usage error.
"""

import argparse
import re
import sys
from pathlib import Path

DETERMINISTIC_TREES = ("src/sim", "src/hmc", "src/prefetch", "src/fault")

DETERMINISM_PATTERNS = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
     "wall-clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(nullptr|NULL|0)\s*\)"),
     "time(nullptr)"),
    (re.compile(r"(?<![\w:])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bunordered_(map|set|multimap|multiset)\s*<"),
     "std::unordered_* (iteration order is unspecified)"),
]

STATS_CALL = re.compile(r"\b(?:counter|histogram)\s*\(")
STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')
STATS_NAME_OK = re.compile(r"[a-z0-9_.]*\Z")
STATS_ONCE_CALL = re.compile(
    r'\b(?:counter|histogram|counter_value|find_histogram)\s*\(\s*'
    r'"((?:[^"\\]|\\.)*)"\s*\)')

# Symbol -> required direct include. Conservative: only types whose use
# without the canonical header is overwhelmingly an accident.
IWYU_MAP = {
    "<string>": re.compile(r"\bstd::(string|to_string)\b"),
    "<vector>": re.compile(r"\bstd::vector\s*<"),
    "<deque>": re.compile(r"\bstd::deque\s*<"),
    "<list>": re.compile(r"\bstd::list\s*<"),
    "<map>": re.compile(r"\bstd::(map|multimap)\s*<"),
    "<set>": re.compile(r"\bstd::(set|multiset)\s*<"),
    "<array>": re.compile(r"\bstd::array\s*<"),
    "<optional>": re.compile(r"\bstd::(optional\s*<|nullopt\b|make_optional)"),
    "<memory>": re.compile(
        r"\bstd::(unique_ptr\s*<|shared_ptr\s*<|make_unique|make_shared)"),
    "<functional>": re.compile(r"\bstd::function\s*<"),
}

WAIVER = re.compile(r"//\s*camps-lint:\s*allow\(([a-z0-9_,\- ]+)\)")
LINE_COMMENT = re.compile(r"//.*$")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = (
            path, line, rule, message)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def waived(line, rule):
    m = WAIVER.search(line)
    if not m:
        return False
    allowed = {r.strip() for r in m.group(1).split(",")}
    return rule in allowed


def strip_comment(line):
    """Drops // comments so commented-out code never triggers rules.
    (Block comments are rare in this codebase and not handled.)"""
    return LINE_COMMENT.sub("", line)


def in_deterministic_tree(rel):
    return any(str(rel).startswith(tree + "/") for tree in DETERMINISTIC_TREES)


def check_file(root, path, findings, src_literals, stat_names):
    rel = path.relative_to(root)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        findings.append(Finding(rel, 0, "io", f"unreadable: {err}"))
        return
    lines = text.splitlines()

    if path.suffix == ".hpp" and "#pragma once" not in text:
        findings.append(
            Finding(rel, 1, "pragma-once", "header lacks #pragma once"))

    deterministic = in_deterministic_tree(rel)
    in_src = str(rel).startswith("src/")
    for number, raw in enumerate(lines, start=1):
        code = strip_comment(raw)

        if deterministic:
            for pattern, what in DETERMINISM_PATTERNS:
                if pattern.search(code) and not waived(raw, "determinism"):
                    findings.append(Finding(
                        rel, number, "determinism",
                        f"{what} in a deterministic simulation path"))

        if STATS_CALL.search(code):
            for literal in STRING_LITERAL.findall(code):
                if (not STATS_NAME_OK.match(literal)
                        and not waived(raw, "stats-name")):
                    findings.append(Finding(
                        rel, number, "stats-name",
                        f'stat name "{literal}" uses characters outside '
                        "[a-z0-9_.]"))

        if in_src and not waived(raw, "stats-once"):
            for literal in STRING_LITERAL.findall(code):
                src_literals.setdefault(literal, []).append((rel, number))
            stat_names.update(STATS_ONCE_CALL.findall(code))

    includes = set(re.findall(r'#include\s+([<"][^>"]+[>"])', text))
    direct = {inc for inc in includes if inc.startswith("<")}
    for header, pattern in IWYU_MAP.items():
        if header in direct:
            continue
        for number, raw in enumerate(lines, start=1):
            if pattern.search(strip_comment(raw)) and not waived(raw, "iwyu"):
                findings.append(Finding(
                    rel, number, "iwyu",
                    f"uses {pattern.pattern} but does not include {header}"))
                break  # one report per missing header per file


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("paths", nargs="*",
                        help="files to check (default: src, tests, bench, "
                             "tools, examples)")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"camps_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    if args.paths:
        files = [Path(p).resolve() for p in args.paths]
    else:
        files = []
        for tree in ("src", "tests", "bench", "tools", "examples"):
            files.extend(sorted((root / tree).rglob("*.hpp")))
            files.extend(sorted((root / tree).rglob("*.cpp")))

    findings = []
    src_literals = {}  # stats-once: literal -> [(path, line)] in src/
    stat_names = set()  # whole-literal stats call arguments in src/
    for path in files:
        check_file(root, path, findings, src_literals, stat_names)
    for name in sorted(stat_names):
        first, *again = src_literals[name]
        for rel, number in again:
            findings.append(Finding(
                rel, number, "stats-once",
                f'stat name "{name}" is already spelled at '
                f"{first[0]}:{first[1]}"))

    for finding in findings:
        print(finding)
    print(f"camps_lint: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
