//! `mpicd-inspect` — offline analyzer for flight-recorder dumps.
//!
//! Reads one or more JSONL dumps written by the flight recorder
//! (`MPICD_FLIGHT=1`, `MPICD_FLIGHT_PATH=...`), reconstructs per-transfer
//! timelines from their transfer records, and reports on them. Multiple
//! dumps (one per process) are merged into a single cross-rank view
//! before analysis.
//!
//! ```text
//! mpicd-inspect [report] <dump.jsonl>... [--top N] [--json]
//! mpicd-inspect critical-path <dump.jsonl>... [--json]
//! mpicd-inspect health <health.jsonl> [--flight dump.jsonl]... [--json]
//! ```
//!
//! * **report** (default): latency attribution (wait / pack / wire /
//!   unpack / copy), per-method percentiles, the slowest transfers, and
//!   the transfers the fabric's online straggler gate flagged.
//! * **critical-path**: builds the cross-rank happens-before DAG from the
//!   merged timelines, walks the binding-constraint chain from the last
//!   event back to the origin, and prints the longest weighted path with
//!   per-rank blame, per-transfer slack, and per-collective (bcast,
//!   reduce) spines.
//! * **health**: reads the periodic health-snapshot stream written under
//!   `MPICD_HEALTH_MS` (counter rates, gauge levels/high-waters, sketch
//!   summaries over the run) and, with `--flight`, joins it with a
//!   sampled flight dump so live health and sampled timelines land in
//!   one report.
//! * `--json` switches any mode to a single machine-readable JSON
//!   object on stdout.
//!
//! Exit codes: 0 = healthy dump, 1 = usage or I/O error, 2 = the input
//! parsed but contains bad lines (corrupt, inconsistent, or from an
//! older dump format), malformed timelines or bad health lines (CI
//! treats this as a failure).

use mpicd_bench::critical::{critical_path, render_critical, render_critical_json};
use mpicd_bench::flight::{analyze, merge_dumps, read_dump, render_json, render_report, Analysis};
use mpicd_bench::healthview::{read_health, render_health, render_health_json};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mpicd-inspect [report|critical-path] <dump.jsonl>... \
                     [--top N] [--json]\n       \
                     mpicd-inspect health <health.jsonl> [--flight dump.jsonl]... [--json]";

enum Mode {
    Report,
    CriticalPath,
    Health,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mode = match args.peek().map(String::as_str) {
        Some("report") => {
            args.next();
            Mode::Report
        }
        Some("critical-path") => {
            args.next();
            Mode::CriticalPath
        }
        Some("health") => {
            args.next();
            Mode::Health
        }
        _ => Mode::Report,
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut flight_paths: Vec<PathBuf> = Vec::new();
    let mut top = 10;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            "--top" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => top = n,
                None => return usage_error("--top needs an integer"),
            },
            "--flight" => match (matches!(mode, Mode::Health), args.next()) {
                (true, Some(p)) => flight_paths.push(PathBuf::from(p)),
                (true, None) => return usage_error("--flight needs a dump path"),
                (false, _) => return usage_error("--flight only applies to health mode"),
            },
            _ if !arg.starts_with('-') => paths.push(PathBuf::from(arg)),
            _ => return usage_error(&format!("unexpected argument `{arg}`")),
        }
    }
    if paths.is_empty() {
        return usage_error("missing input path");
    }

    if let Mode::Health = mode {
        return run_health(&paths, &flight_paths, json);
    }

    let mut dumps = Vec::with_capacity(paths.len());
    for path in &paths {
        match read_dump(path) {
            Ok(d) => dumps.push(d),
            Err(e) => {
                eprintln!("mpicd-inspect: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let source = paths
        .iter()
        .map(|p| p.display().to_string())
        .collect::<Vec<_>>()
        .join(",");
    let analysis = analyze(&merge_dumps(dumps));

    match mode {
        Mode::Report => {
            if json {
                print!("{}", render_json(&analysis, &source));
            } else {
                print!("{}", render_report(&analysis, top, &source));
            }
        }
        Mode::CriticalPath => {
            let report = critical_path(&analysis);
            if json {
                print!("{}", render_critical_json(&analysis, &report, &source));
            } else {
                print!("{}", render_critical(&analysis, &report, &source));
            }
        }
        // Handled (and returned from) above; kept explicit so a new mode
        // can't silently fall into the dump pipeline.
        Mode::Health => unreachable!("health mode returns early"),
    }
    exit_for(&analysis)
}

/// `mpicd-inspect health`: the snapshot stream, joined with sampled
/// flight dumps when given.
fn run_health(paths: &[PathBuf], flight_paths: &[PathBuf], json: bool) -> ExitCode {
    if paths.len() != 1 {
        return usage_error("health mode takes exactly one snapshot stream");
    }
    let log = match read_health(&paths[0]) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mpicd-inspect: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut dumps = Vec::with_capacity(flight_paths.len());
    for path in flight_paths {
        match read_dump(path) {
            Ok(d) => dumps.push(d),
            Err(e) => {
                eprintln!("mpicd-inspect: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let analysis = (!dumps.is_empty()).then(|| analyze(&merge_dumps(dumps)));
    let source = paths[0].display().to_string();
    if json {
        print!("{}", render_health_json(&log, analysis.as_ref(), &source));
    } else {
        print!("{}", render_health(&log, analysis.as_ref(), &source));
    }
    let defective =
        !log.bad_lines.is_empty() || analysis.as_ref().is_some_and(|a| !a.malformed.is_empty());
    if defective {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn exit_for(analysis: &Analysis) -> ExitCode {
    if analysis.malformed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("mpicd-inspect: {msg}\n{USAGE}");
    ExitCode::FAILURE
}
