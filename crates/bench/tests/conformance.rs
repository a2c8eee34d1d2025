//! Workspace conformance lints, run as ordinary tests.
//!
//! Source-scanning checks that keep code and documentation from drifting
//! apart, in both directions:
//!
//! 1. every `MPICD_*` env knob referenced in source appears in the knob
//!    documentation in `DESIGN.md` and `docs/PERFORMANCE.md`, and every
//!    knob in those docs' tables is read by production code;
//! 2. every `obs` counter, gauge and sketch name emitted by production
//!    code appears in `docs/ARCHITECTURE.md`, and
//!    every name in its metrics table is emitted by production code;
//! 3. memory-ordering audit: `Ordering::SeqCst` is forbidden outside a
//!    justified allowlist, and the model-checked modules
//!    (`obs::flight`, `fabric::pipeline`, `fabric::request`,
//!    `fabric::fabric`) must not import
//!    `std::sync::atomic` directly — atomics there have to come through
//!    the `mpicd_obs::sync::atomic` seam so `--cfg mpicd_check` can swap
//!    in the instrumented primitives.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/bench -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels under the workspace root")
        .to_path_buf()
}

/// Every `.rs` file under the workspace's source trees (skips `target/`).
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    assert!(out.len() > 20, "source walk found too few files: {out:?}");
    out.sort();
    out
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// All matches of a simple scanner over `text`: `prefix` followed by
/// characters from `set`.
fn scan(text: &str, prefix: &str, set: impl Fn(char) -> bool) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, _) in text.match_indices(prefix) {
        let rest = &text[i..];
        let end = rest
            .char_indices()
            .skip(prefix.len())
            .find(|&(_, c)| !set(c))
            .map_or(rest.len(), |(j, _)| j);
        out.insert(rest[..end].to_string());
    }
    out
}

/// Characters of an `MPICD_*` knob name after the prefix.
fn knob_char(c: char) -> bool {
    c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'
}

/// Whether `f` is test or example code rather than production code.
fn is_test_or_example(f: &Path) -> bool {
    f.components()
        .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "examples")
}

/// The first cell of every markdown table row in `doc`.
fn first_cells(doc: &str) -> impl Iterator<Item = &str> {
    doc.lines()
        .filter(|l| l.starts_with('|'))
        .filter_map(|l| l.split('|').nth(1))
}

/// Production code of the whole workspace, concatenated.
fn all_production_code(root: &Path) -> String {
    rust_sources(root)
        .iter()
        .filter(|f| !is_test_or_example(f))
        .map(|f| production_code(&read(f)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Strip the conventional trailing `#[cfg(test)] mod … { … }` block (an
/// unindented `#[cfg(test)]` line; indented ones gate single items) plus
/// doc-comment lines, leaving production code only.
fn production_code(src: &str) -> String {
    let cut = src
        .match_indices("#[cfg(test)]")
        .find(|&(i, _)| i == 0 || src.as_bytes()[i - 1] == b'\n')
        .map_or(src.len(), |(i, _)| i);
    src[..cut]
        .lines()
        .filter(|l| {
            let t = l.trim_start();
            !t.starts_with("//")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn every_env_knob_is_documented_in_design_md() {
    let root = workspace_root();
    let design = read(&root.join("DESIGN.md"));
    let documented = scan(&design, "MPICD_", knob_char);

    let mut undocumented = BTreeSet::new();
    for f in rust_sources(&root) {
        let src = read(&f);
        for knob in scan(&src, "MPICD_", knob_char) {
            // `MPICD_` alone is the scanner's own prefix, not a knob.
            if knob != "MPICD_" && !documented.contains(&knob) {
                undocumented.insert(format!("{knob} (first seen in {})", f.display()));
            }
        }
    }
    assert!(
        undocumented.is_empty(),
        "env knobs read in source but missing from the DESIGN.md knob tables:\n  {}",
        undocumented.into_iter().collect::<Vec<_>>().join("\n  ")
    );
}

#[test]
fn every_env_knob_is_documented_in_performance_md() {
    // docs/PERFORMANCE.md is the single-page tuning guide; its knob
    // tables must cover the full `MPICD_*` surface, not a subset.
    let root = workspace_root();
    let perf = read(&root.join("docs/PERFORMANCE.md"));
    let documented = scan(&perf, "MPICD_", knob_char);

    let mut undocumented = BTreeSet::new();
    for f in rust_sources(&root) {
        let src = read(&f);
        for knob in scan(&src, "MPICD_", knob_char) {
            if knob != "MPICD_" && !documented.contains(&knob) {
                undocumented.insert(format!("{knob} (first seen in {})", f.display()));
            }
        }
    }
    assert!(
        undocumented.is_empty(),
        "env knobs read in source but missing from the docs/PERFORMANCE.md tables:\n  {}",
        undocumented.into_iter().collect::<Vec<_>>().join("\n  ")
    );
}

#[test]
fn every_obs_counter_is_documented_in_architecture_md() {
    let root = workspace_root();
    let arch = read(&root.join("docs/ARCHITECTURE.md"));

    let mut undocumented = BTreeSet::new();
    for f in rust_sources(&root) {
        // Integration-test files exercise the registry with throwaway
        // names; only production emitters are load-bearing.
        if is_test_or_example(&f) {
            continue;
        }
        let code = production_code(&read(&f));
        for (pat, skip) in [
            ("counter(\"", "counter(\"".len()),
            ("sketch(\"", "sketch(\"".len()),
            ("gauge(\"", "gauge(\"".len()),
        ] {
            for (i, _) in code.match_indices(pat) {
                let rest = &code[i + skip..];
                let Some(end) = rest.find('"') else { continue };
                let name = &rest[..end];
                // Only audit namespaced metric names (`area.metric`);
                // single-word names are throwaway locals in examples.
                if name.contains('.') && !arch.contains(name) {
                    undocumented.insert(format!("{name} (emitted in {})", f.display()));
                }
            }
        }
    }
    assert!(
        undocumented.is_empty(),
        "obs metrics emitted by production code but missing from \
         docs/ARCHITECTURE.md:\n  {}",
        undocumented.into_iter().collect::<Vec<_>>().join("\n  ")
    );
}

#[test]
fn every_documented_knob_is_read_by_production_code() {
    // The reverse direction: a knob deleted from the code must leave the
    // DESIGN.md and docs/PERFORMANCE.md tables too.
    let root = workspace_root();
    let code = all_production_code(&root);
    let mut stale = BTreeSet::new();
    for doc in ["DESIGN.md", "docs/PERFORMANCE.md"] {
        for cell in first_cells(&read(&root.join(doc))) {
            for knob in scan(cell, "MPICD_", knob_char) {
                if !code.contains(&format!("\"{knob}\"")) {
                    stale.insert(format!("{knob} (in the {doc} knob tables)"));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "documented env knobs that no production code reads:\n  {}",
        stale.into_iter().collect::<Vec<_>>().join("\n  ")
    );
}

#[test]
fn every_documented_metric_is_emitted_by_production_code() {
    // The reverse direction: a counter deleted from the code must leave
    // the docs/ARCHITECTURE.md metrics table too.
    let root = workspace_root();
    let arch = read(&root.join("docs/ARCHITECTURE.md"));
    let start = arch
        .find("## Metrics reference")
        .expect("ARCHITECTURE.md has a metrics reference");
    let table = &arch[start..];
    let table = &table[..table[2..].find("\n## ").map_or(table.len(), |i| i + 2)];
    let code = all_production_code(&root);
    let mut stale = BTreeSet::new();
    let mut rows = 0;
    for cell in first_cells(table) {
        let Some(name) = cell.split('`').nth(1) else {
            continue;
        };
        rows += 1;
        if !code.contains(&format!("\"{name}\"")) {
            stale.insert(name.to_string());
        }
    }
    assert!(rows > 20, "metrics table parsed: {rows} rows");
    assert!(
        stale.is_empty(),
        "docs/ARCHITECTURE.md metrics that no production code emits:\n  {}",
        stale.into_iter().collect::<Vec<_>>().join("\n  ")
    );
}

/// Paths (workspace-relative prefixes) allowed to use `Ordering::SeqCst`,
/// each with a standing justification.
const SEQCST_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/bench/tests/conformance.rs",
        "the audit itself must name the pattern it scans for",
    ),
    (
        "crates/check/",
        "the model checker implements and litmus-tests SeqCst semantics",
    ),
    (
        "crates/capi/",
        "FFI boundary keeps conservative orderings; exempt like the unsafe wall",
    ),
    (
        "crates/core/src/communicator.rs",
        "test-only helper counter in the in-file test module",
    ),
    (
        "tests/tests/",
        "cross-crate integration harnesses use conservative orderings, not \
         protocol code",
    ),
];

#[test]
fn seqcst_is_confined_to_the_allowlist() {
    let root = workspace_root();
    let mut violations = Vec::new();
    for f in rust_sources(&root) {
        let rel = f
            .strip_prefix(&root)
            .expect("source under root")
            .to_string_lossy()
            .replace('\\', "/");
        if SEQCST_ALLOWLIST.iter().any(|(p, _)| rel.starts_with(p)) {
            continue;
        }
        for (n, line) in read(&f).lines().enumerate() {
            let t = line.trim_start();
            if t.starts_with("//") {
                continue;
            }
            if t.contains("SeqCst") {
                violations.push(format!("{rel}:{}: {}", n + 1, t));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "SeqCst outside the allowlist — prefer Acquire/Release (and extend \
         SEQCST_ALLOWLIST with a justification if it is truly needed):\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn checked_modules_use_the_sync_seam_not_raw_atomics() {
    let root = workspace_root();
    for rel in [
        "crates/obs/src/flight.rs",
        "crates/fabric/src/pipeline.rs",
        "crates/fabric/src/request.rs",
        "crates/fabric/src/fabric.rs",
    ] {
        let src = read(&root.join(rel));
        for (n, line) in src.lines().enumerate() {
            let t = line.trim_start();
            if t.starts_with("//") {
                continue;
            }
            assert!(
                !t.contains("std::sync::atomic"),
                "{rel}:{}: model-checked module must import atomics from \
                 `mpicd_obs::sync::atomic` (the `--cfg mpicd_check` seam), \
                 not `std::sync::atomic`: {t}",
                n + 1
            );
        }
    }
}
