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

The `#[cfg(test)]` heuristic is deliberately coarse: everything from the
first `#[cfg(test)]` attribute to the end of the file is treated as test
code. Every file in these crates keeps its test module last, so the
approximation is exact today and fails safe (lints too much, never too
little) if a file ever interleaves them.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

UNWRAP = re.compile(r"\.unwrap\(")
PANIC = re.compile(r"(?<![a-zA-Z_!])panic!\s*\(")
WALL_CLOCK = re.compile(r"Instant::now|SystemTime")


def first_test_line(lines: list[str]) -> int:
    """1-based line of the first `#[cfg(test)]`, or len+1 if absent."""
    for i, line in enumerate(lines, start=1):
        if "#[cfg(test)]" in line:
            return i
    return len(lines) + 1


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
