#!/usr/bin/env python3
"""Banned-pattern lint for the store, explore, program, checking-layer,
application and benchmark sources.

Rules (each violation prints one `path:line: message` and fails the run):

1. No `.unwrap(` anywhere in `crates/store/src` — test code included.
   The simulated store is the part of the tree that must never die with
   a context-free panic: use a typed error or a justified `expect("...")`
   that states the invariant making the failure impossible.
2. No `panic!(` in *non-test* code of `crates/store/src`,
   `crates/explore/src`, `crates/program/src`, `crates/history/src`,
   `crates/analysis/src`, `crates/apps/src` and `crates/bench/src` (the
   program crate's interpreter runs on every explorer and store step).
   Invariant breaches are `unreachable!("...")` (they document why the
   arm cannot be taken); broken preconditions are `assert!` with a
   message, and expected failures are typed errors. Test modules
   (`#[cfg(test)]` to end of file) and `tests/` directories keep their
   panics — that is what tests are for. `crates/history/src/testkit.rs`
   is exempt for the same reason: it is test support compiled into the
   library so other crates' tests can share it, and its panic is a test
   failure.
3. No `.unwrap(` in non-test code of `crates/explore/src`,
   `crates/program/src`, `crates/history/src` (again except `testkit.rs`),
   `crates/analysis/src`, `crates/apps/src` and `crates/bench/src`.
4. No `Instant::now` / `SystemTime` in `crates/store/src/simulation.rs`:
   simulated time is logical by construction, and a single wall-clock
   read would silently break run-to-run determinism.
5. In non-test code of `crates/explore/src` and
   `crates/history/src/check`, `Instant::now` appears only inside two
   named items: the deadline countdown (`impl Deadline` in
   `crates/explore/src/deadline.rs`) and the sampled check timer
   (`impl MissTimer` in `crates/history/src/check/engine.rs`). A clock
   read costs tens of nanoseconds, a few percent of an explorer node or
   an incremental check, so the per-node and per-check paths must go
   through these two, which read the clock once per stride.
6. In non-test code of `crates/explore/src`, the tokens
   `DecomposingChecker`, `decompose` and `component_history` do not
   appear (as whole words): the `explore-ce*` output filter and the DFS
   baseline hand whole histories to plain engines. Their commit-order
   search is bounded by the session frontiers and no explored history
   has split, so a communication-graph split would only add a pass;
   decomposition serves the witnessed checks of recorded store runs
   (`crates/analysis`).

Test code is a file's test module: everything from the `#[cfg(test)]`
attribute that opens a `mod` to the end of the file. Every file in these
crates keeps its test module last. Other `#[cfg(test)]` items (test-only
fields and helpers) count as non-test code, so the rules lint them too.
An item is found by its `impl <Name>` header and ends at the brace that
closes it (braces are counted per line, so the item must not hold
string literals with unbalanced braces).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

UNWRAP = re.compile(r"\.unwrap\(")
PANIC = re.compile(r"(?<![a-zA-Z_!])panic!\s*\(")
WALL_CLOCK = re.compile(r"Instant::now|SystemTime")
CLOCK_READ = re.compile(r"Instant::now")
DECOMPOSITION = re.compile(r"\b(DecomposingChecker|decompose|component_history)\b")
TEST_MODULE = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s+\w+\s*\{")

# Rule 5: the one item of each file that may read the clock.
CLOCK_ITEMS = {
    REPO / "crates" / "explore" / "src" / "deadline.rs": "Deadline",
    REPO / "crates" / "history" / "src" / "check" / "engine.rs": "MissTimer",
}


def first_test_line(lines: list[str]) -> int:
    """1-based line of the `#[cfg(test)]` opening the test module (the
    first one followed, past blank and attribute lines, by a `mod`), or
    len+1 if absent."""
    for i, line in enumerate(lines, start=1):
        if line.strip() != "#[cfg(test)]":
            continue
        for after in lines[i:]:
            if after.strip() == "" or after.strip().startswith("#["):
                continue
            if TEST_MODULE.match(after):
                return i
            break
    return len(lines) + 1


def item_lines(lines: list[str], name: str) -> set[int]:
    """1-based lines of every `impl <name>` block, header to closing brace."""
    header = re.compile(rf"^\s*impl(<[^>]*>)?\s+{name}\b")
    inside: set[int] = set()
    depth = None
    for i, line in enumerate(lines, start=1):
        if depth is None:
            if not header.match(line):
                continue
            depth = 0
        inside.add(i)
        depth += line.count("{") - line.count("}")
        if depth == 0 and "}" in line:
            depth = None
    return inside


def lint_clock_reads(path: Path) -> list[str]:
    """Rule 5 for one file."""
    lines = path.read_text().splitlines()
    cutoff = first_test_line(lines)
    name = CLOCK_ITEMS.get(path)
    allowed = item_lines(lines, name) if name else set()
    out = []
    for i, line in enumerate(lines[: cutoff - 1], start=1):
        if CLOCK_READ.search(line) and i not in allowed:
            rel = path.relative_to(REPO)
            out.append(
                f"{rel}:{i}: `Instant::now` off the clock items — read the "
                "clock through the explorer's `Deadline` or the engine's "
                "`MissTimer`"
            )
    return out


def lint_file(
    path: Path,
    pattern: re.Pattern[str],
    message: str,
    non_test_only: bool,
) -> list[str]:
    lines = path.read_text().splitlines()
    cutoff = first_test_line(lines) if non_test_only else len(lines) + 1
    out = []
    for i, line in enumerate(lines, start=1):
        if i >= cutoff:
            break
        if pattern.search(line):
            rel = path.relative_to(REPO)
            out.append(f"{rel}:{i}: {message}")
    return out


# Test support compiled into a library (see rule 2).
TEST_SUPPORT = {REPO / "crates" / "history" / "src" / "testkit.rs"}


def rust_sources(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*.rs") if p not in TEST_SUPPORT)


def main() -> int:
    violations: list[str] = []

    store_src = REPO / "crates" / "store" / "src"
    explore_src = REPO / "crates" / "explore" / "src"

    for f in rust_sources(store_src):
        violations += lint_file(
            f,
            UNWRAP,
            "`.unwrap(` is banned in crates/store — use a typed error "
            'or a justified `expect("...")`',
            non_test_only=False,
        )
        violations += lint_file(
            f,
            PANIC,
            "`panic!` is banned in non-test store code — use "
            '`unreachable!("...")` for invariants or a typed error',
            non_test_only=True,
        )

    non_test_roots = [
        ("explore", explore_src),
        ("program", REPO / "crates" / "program" / "src"),
        ("history", REPO / "crates" / "history" / "src"),
        ("analysis", REPO / "crates" / "analysis" / "src"),
        ("apps", REPO / "crates" / "apps" / "src"),
        ("bench", REPO / "crates" / "bench" / "src"),
    ]
    for layer, root in non_test_roots:
        for f in rust_sources(root):
            violations += lint_file(
                f,
                UNWRAP,
                f"`.unwrap(` is banned in non-test {layer} code — use a "
                'typed error or a justified `expect("...")`',
                non_test_only=True,
            )
            violations += lint_file(
                f,
                PANIC,
                f"`panic!` is banned in non-test {layer} code — use "
                '`unreachable!("...")` for invariants or a typed error',
                non_test_only=True,
            )

    for root in [explore_src, REPO / "crates" / "history" / "src" / "check"]:
        for f in rust_sources(root):
            violations += lint_clock_reads(f)

    for f in rust_sources(explore_src):
        violations += lint_file(
            f,
            DECOMPOSITION,
            "communication-graph decomposition on the exploration path — "
            "hand the engines whole histories",
            non_test_only=True,
        )

    violations += lint_file(
        store_src / "simulation.rs",
        WALL_CLOCK,
        "wall-clock reads break simulation determinism — time is "
        "logical (`sim_time_us`) by construction",
        non_test_only=False,
    )

    for v in violations:
        print(v)
    n = len(violations)
    print(f"lint_sources: {n} violation(s)")
    return 1 if n else 0


if __name__ == "__main__":
    sys.exit(main())
