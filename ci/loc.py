#!/usr/bin/env python3
"""Count non-test lines of Rust code per crate.

A non-test line is a non-blank line of a `.rs` file that comes before the
file's first unindented `#[cfg(test)]` or `#[cfg(all(test, ...))]`
attribute. Files under a `tests/` directory are not counted.

Prints one line per crate under `crates/`, their total (`total`), and a
line for `examples/`, which the total leaves out.

Usage: python3 ci/loc.py [repo-root]
"""

import os
import sys

TEST_CUTS = ("#[cfg(test)]", "#[cfg(all(test,")


def file_loc(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith(TEST_CUTS):
                break
            if line.strip():
                n += 1
    return n


def tree_loc(root):
    n = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in ("tests", "target"))
        n += sum(file_loc(os.path.join(dirpath, f)) for f in filenames if f.endswith(".rs"))
    return n


def main():
    repo = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    crates = os.path.join(repo, "crates")
    total = 0
    for name in sorted(os.listdir(crates)):
        path = os.path.join(crates, name)
        if os.path.isdir(path):
            n = tree_loc(path)
            total += n
            print(f"{name:<10} {n:>6}")
    print(f"{'total':<10} {total:>6}")
    print(f"{'examples/':<10} {tree_loc(os.path.join(repo, 'examples')):>6}")


if __name__ == "__main__":
    main()
