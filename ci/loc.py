#!/usr/bin/env python3
"""Count non-test lines of Rust code and unsafe sites per crate.

A non-test line is a non-blank line of a `.rs` file that comes before the
file's first unindented `#[cfg(test)]` or `#[cfg(all(test, ...))]`
attribute. Lines after it, and every line of a file under a `tests/`
directory, are test lines.

An unsafe site is a code line (not a `//` comment) holding `unsafe {`,
`unsafe fn` (also `unsafe extern "C" fn`) or `unsafe impl`; each line
counts once. Sites are counted separately in non-test and test lines.

Prints one line per crate under `crates/` (non-test lines, non-test
unsafe sites, test unsafe sites), their total (`total`), and lines for
`examples/` and the workspace test crate `tests/`, which the total
leaves out.

Usage: python3 ci/loc.py [repo-root]
"""

import os
import re
import sys

TEST_CUTS = ("#[cfg(test)]", "#[cfg(all(test,")
UNSAFE = re.compile(r'\bunsafe\s*\{|\bunsafe\s+(extern\s+"C"\s+)?fn\b|\bunsafe\s+impl\b')


def file_counts(path, test_file):
    """[non-test lines, non-test unsafe sites, test unsafe sites]."""
    counts = [0, 0, 0]
    in_test = test_file
    with open(path, encoding="utf-8") as f:
        for line in f:
            in_test = in_test or line.startswith(TEST_CUTS)
            code = line.strip()
            if not in_test and code:
                counts[0] += 1
            if not code.startswith("//") and UNSAFE.search(code):
                counts[2 if in_test else 1] += 1
    return counts


def tree_counts(root):
    counts = [0, 0, 0]
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "target")
        test_dir = "tests" in os.path.relpath(dirpath, root).split(os.sep)
        for f in filenames:
            if f.endswith(".rs"):
                fc = file_counts(os.path.join(dirpath, f), test_dir)
                counts = [a + b for a, b in zip(counts, fc)]
    return counts


def row(name, counts):
    print(f"{name:<10} {counts[0]:>6} {counts[1]:>7} {counts[2]:>12}")


def main():
    repo = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    crates = os.path.join(repo, "crates")
    print(f"{'crate':<10} {'lines':>6} {'unsafe':>7} {'unsafe(test)':>12}")
    total = [0, 0, 0]
    for name in sorted(os.listdir(crates)):
        path = os.path.join(crates, name)
        if os.path.isdir(path):
            counts = tree_counts(path)
            total = [a + b for a, b in zip(total, counts)]
            row(name, counts)
    row("total", total)
    row("examples/", tree_counts(os.path.join(repo, "examples")))
    row("tests/", tree_counts(os.path.join(repo, "tests")))


if __name__ == "__main__":
    main()
