//! `mpicd-inspect` parser robustness: malformed, truncated, and
//! interleaved multi-rank dumps, with the binary's exit-code contract
//! pinned (0 = healthy, 1 = usage/unreadable, 2 = malformed timelines).
//!
//! Corruption is injected with the workspace's seeded xorshift64* PRNG so
//! failures replay exactly.

use mpicd_bench::critical::critical_path;
use mpicd_bench::flight::{analyze, merge_dumps, parse_dump};
use mpicd_bench::regress::{parse_json, Json};
use mpicd_obs::rng::XorShift64Star;
use std::path::PathBuf;
use std::process::Command;

fn event_line(kind: &str, id: u64, t: u64, src: i64, dst: i64, code: u64) -> String {
    format!(
        "{{\"kind\":\"{kind}\",\"id\":{id},\"t_ns\":{t},\"src\":{src},\"dst\":{dst},\
         \"tag\":7,\"bytes\":256,\"method\":\"eager\",\"code\":{code}}}"
    )
}

/// A transfer record line: posts at `t0 + 10` (send) and `t0` (receive),
/// match at `t0 + 20`, end at `t0 + 50`, 5 ns packing, 6 ns unpacking.
fn record_line(id: u64, recv_id: u64, t0: u64, src: i64, dst: i64) -> String {
    format!(
        "{{\"kind\":\"transfer\",\"id\":{id},\"recv_id\":{recv_id},\"src\":{src},\
         \"dst\":{dst},\"tag\":7,\"bytes\":256,\"method\":\"eager\",\"regions\":1,\
         \"post_send_ns\":{},\"post_recv_ns\":{t0},\"match_ns\":{},\"end_ns\":{},\
         \"pack_ns\":5,\"pack_calls\":1,\"unpack_ns\":6,\"unpack_calls\":1,\"lanes\":1,\
         \"wire_ns\":40,\"error\":0,\"straggler\":false}}",
        t0 + 10,
        t0 + 20,
        t0 + 50
    )
}

/// One complete transfer: post_recv, post_send, and its record (joining
/// the receive post through `recv_id`).
fn transfer(id: u64, recv_id: u64, t0: u64, src: i64, dst: i64) -> Vec<String> {
    vec![
        event_line("post_recv", recv_id, t0, src, dst, 0),
        event_line("post_send", id, t0 + 10, src, dst, 0),
        record_line(id, recv_id, t0, src, dst),
    ]
}

fn meta_line(version: u64, events: u64) -> String {
    format!(
        "{{\"kind\":\"flight_meta\",\"version\":{version},\"events\":{events},\
         \"overflowed\":0,\"trace_dropped\":0}}"
    )
}

/// A clean single-process dump with `n` transfers.
fn clean_dump(n: u64) -> String {
    let mut lines = vec![meta_line(4, n * 3)];
    for i in 0..n {
        lines.extend(transfer(2 * i + 1, 2 * i + 2, 100 * (i + 1), 0, 1));
    }
    lines.join("\n")
}

fn write_temp(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mpicd-inspect-{}-{name}", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn run_inspect(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mpicd-inspect"))
        .args(args)
        .output()
        .expect("spawn mpicd-inspect");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

// ---------------------------------------------------------------------------
// Exit-code contract
// ---------------------------------------------------------------------------

#[test]
fn healthy_dump_exits_zero() {
    let path = write_temp("healthy.jsonl", &clean_dump(5));
    let (code, stdout, _) = run_inspect(&[path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 0);
    assert!(stdout.contains("malformed timelines: 0"), "{stdout}");
}

#[test]
fn missing_file_and_usage_errors_exit_one() {
    let (code, _, stderr) = run_inspect(&["/nonexistent/definitely-not-here.jsonl"]);
    assert_eq!(code, 1, "{stderr}");
    let (code, _, stderr) = run_inspect(&[]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
    let (code, _, stderr) = run_inspect(&["--top", "not-a-number", "x.jsonl"]);
    assert_eq!(code, 1, "{stderr}");
    // A file that is not a flight dump at all is unreadable, not
    // "malformed timelines".
    let path = write_temp("not-a-dump.txt", "hello\nworld\n");
    let (code, _, stderr) = run_inspect(&[path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 1, "{stderr}");
}

#[test]
fn semantically_malformed_dump_exits_two() {
    // Two records joining one receive post: every line parses, the joins
    // are wrong.
    let text = [record_line(1, 2, 100, 0, 1), record_line(3, 2, 200, 0, 1)].join("\n");
    let path = write_temp("orphan-match.jsonl", &text);
    let (code, stdout, _) = run_inspect(&[path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 2, "{stdout}");
    assert!(!stdout.contains("malformed timelines: 0"), "{stdout}");
}

#[test]
fn corrupt_line_amid_valid_events_exits_two() {
    let mut text = clean_dump(3);
    text.push_str("\n{\"kind\":\"post_send\",CORRUPTED GARBAGE\n");
    let path = write_temp("corrupt-line.jsonl", &text);
    let (code, stdout, _) = run_inspect(&[path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("malformed timelines: 1"), "{stdout}");
}

#[test]
fn ids_above_2_pow_53_round_trip_exactly() {
    let id = (1u64 << 53) + 1;
    let text = transfer(id, id + 1, 100, 0, 1).join("\n");
    let dump = parse_dump(&text).unwrap();
    assert!(dump.bad_lines.is_empty(), "{:?}", dump.bad_lines);
    assert_eq!(dump.events[1].id, id);
    assert_eq!(dump.transfers[0].id, id);
    let a = analyze(&dump);
    assert!(a.malformed.is_empty(), "{:?}", a.malformed);
    assert_eq!(a.completed[0].id, id);
    assert_eq!(a.completed[0].recv_id, id + 1);
}

#[test]
fn negative_unsigned_field_exits_two() {
    let mut text = clean_dump(2);
    text.push('\n');
    text.push_str(&event_line("post_send", 99, 900, 0, 1, 0).replace("\"id\":99", "\"id\":-1"));
    let path = write_temp("negative-id.jsonl", &text);
    let (code, stdout, _) = run_inspect(&[path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("malformed timelines: 1"), "{stdout}");
    let bad = parse_dump(&text).unwrap().bad_lines;
    assert_eq!(bad.len(), 1);
    assert!(
        bad[0].starts_with("line 8: \"id\" is not a non-negative integer"),
        "{bad:?}"
    );
    // A fraction in an unsigned field is rejected the same way.
    let frac = record_line(1, 2, 5, 0, 1).replace("\"bytes\":256", "\"bytes\":2.5");
    assert!(parse_dump(&frac).is_err());
}

#[test]
fn older_formats_and_broken_records_exit_two() {
    let clean = clean_dump(1);
    let cases = [
        // A v2 dump, header and all.
        (
            [meta_line(2, 3)]
                .into_iter()
                .chain(clean.lines().skip(1).map(String::from))
                .collect::<Vec<_>>()
                .join("\n"),
            "line 1: dump version 2; this reader reads version 4",
        ),
        // A v3 dump: its header carried the retired sampling rate.
        (
            ["{\"kind\":\"flight_meta\",\"version\":3,\"events\":3,\
              \"overflowed\":0,\"trace_dropped\":0,\"sample\":1}"
                .to_string()]
            .into_iter()
            .chain(clean.lines().skip(1).map(String::from))
            .collect::<Vec<_>>()
            .join("\n"),
            "line 1: dump version 3; this reader reads version 4",
        ),
        // Every kind only version 1/2 dumps wrote.
        (
            format!("{clean}\n{}", event_line("match", 1, 120, 0, 1, 2)),
            "line 5: \"match\" lines are from a version 1/2 dump",
        ),
        (
            format!("{clean}\n{}", event_line("frag_packed", 1, 120, 0, 1, 0)),
            "line 5: \"frag_packed\" lines are from a version 1/2 dump",
        ),
        (
            format!("{clean}\n{}", event_line("frag_unpacked", 1, 120, 0, 1, 0)),
            "line 5: \"frag_unpacked\" lines are from a version 1/2 dump",
        ),
        (
            format!("{clean}\n{}", event_line("wire_modeled", 1, 120, 0, 1, 0)),
            "line 5: \"wire_modeled\" lines are from a version 1/2 dump",
        ),
        (
            format!("{clean}\n{}", event_line("complete", 1, 150, 0, 1, 0)),
            "line 5: \"complete\" lines are from a version 1/2 dump",
        ),
        // A record whose end precedes its match.
        (
            format!(
                "{clean}\n{}",
                record_line(9, 10, 500, 0, 1).replace("\"end_ns\":550", "\"end_ns\":510")
            ),
            "line 5: transfer 9 breaks post <= match <= end",
        ),
        // A record whose callbacks outlast its active window.
        (
            format!(
                "{clean}\n{}",
                record_line(9, 10, 500, 0, 1).replace("\"pack_ns\":5,", "\"pack_ns\":25,")
            ),
            "line 5: transfer 9: pack + unpack 31 ns exceeds 1 lane(s) x 30 ns active",
        ),
    ];
    for (i, (text, reason)) in cases.iter().enumerate() {
        let path = write_temp(&format!("old-or-broken-{i}.jsonl"), text);
        let (code, stdout, _) = run_inspect(&[path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(code, 2, "case {i}: {stdout}");
        assert!(
            stdout.contains(&format!("  ! {reason}")),
            "case {i}: {stdout}"
        );
    }
}

#[test]
fn report_lists_the_gate_flagged_record() {
    let mut text = clean_dump(3);
    text.push('\n');
    text.push_str(&record_line(7, 8, 900, 0, 1).replace("false", "true"));
    let path = write_temp("flagged.jsonl", &text);
    let (code, stdout, _) = run_inspect(&[path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 0, "{stdout}");
    let section = stdout
        .split("stragglers (flagged by the online gate):")
        .nth(1)
        .expect("straggler section");
    assert_eq!(section.matches("  id ").count(), 1, "{stdout}");
    assert!(section.contains("  id 7 eager 256B"), "{stdout}");
}

// ---------------------------------------------------------------------------
// Truncation
// ---------------------------------------------------------------------------

#[test]
fn truncated_tail_is_reported_not_fatal() {
    let full = clean_dump(4);
    // Cut mid-way through the final line, as a crashed writer would.
    let cut = &full[..full.len() - 17];
    let dump = parse_dump(cut).expect("partial dump stays readable");
    assert_eq!(dump.bad_lines.len(), 1, "{:?}", dump.bad_lines);
    let a = analyze(&dump);
    assert!(!a.malformed.is_empty());
    // The untouched transfers all reconstruct.
    assert_eq!(a.completed.len(), 3, "first three transfers intact");
}

#[test]
fn every_truncation_point_parses_or_rejects_cleanly() {
    let full = clean_dump(2);
    for cut in 0..full.len() {
        // Whatever the cut, the parser must not panic, and any Ok dump
        // must analyze without panicking.
        if let Ok(d) = parse_dump(&full[..cut]) {
            let a = analyze(&d);
            let _ = critical_path(&a);
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded corruption
// ---------------------------------------------------------------------------

#[test]
fn seeded_byte_corruption_never_panics() {
    let clean = clean_dump(8);
    let mut rng = XorShift64Star::new(0x5EED);
    for _trial in 0..200 {
        let mut bytes = clean.as_bytes().to_vec();
        for _ in 0..rng.range(1, 8) {
            let pos = rng.range(0, bytes.len());
            bytes[pos] = (rng.next_u64() & 0x7f) as u8; // keep it UTF-8
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        // Contract: parse either rejects the file or yields a dump whose
        // analysis (and critical path) complete without panicking, and
        // corruption never silently inflates the transfer count.
        if let Ok(d) = parse_dump(&text) {
            let a = analyze(&d);
            assert!(
                a.completed.len() + a.errored.len() <= 8,
                "corruption fabricated transfers"
            );
            let _ = critical_path(&a);
        }
    }
}

#[test]
fn seeded_line_swaps_are_order_independent() {
    // The analyzer keys on ids and timestamps, not file order: shuffling
    // whole lines must reconstruct the identical timeline set.
    let clean = clean_dump(6);
    let baseline = analyze(&parse_dump(&clean).unwrap());
    let mut lines: Vec<&str> = clean.lines().collect();
    let mut rng = XorShift64Star::new(42);
    for _ in 0..50 {
        let (i, j) = (rng.range(0, lines.len()), rng.range(0, lines.len()));
        lines.swap(i, j);
        let a = analyze(&parse_dump(&lines.join("\n")).unwrap());
        assert_eq!(a.completed.len(), baseline.completed.len());
        assert!(a.malformed.is_empty(), "{:?}", a.malformed);
    }
}

// ---------------------------------------------------------------------------
// Interleaved multi-rank dumps
// ---------------------------------------------------------------------------

/// Two per-process dumps whose local ids collide (both start at 1) and
/// whose events interleave in time; the second relays to a third rank
/// after the first completes.
fn two_rank_dumps() -> (String, String) {
    let d0 = [transfer(1, 2, 100, 0, 1), transfer(3, 4, 300, 0, 1)]
        .concat()
        .join("\n");
    let d1 = [
        transfer(1, 2, 160, 1, 2), // same local ids as dump 0
        transfer(3, 4, 360, 1, 2),
    ]
    .concat()
    .join("\n");
    (d0, d1)
}

#[test]
fn merged_dumps_keep_colliding_ids_apart() {
    let (d0, d1) = two_rank_dumps();
    let merged = merge_dumps(vec![parse_dump(&d0).unwrap(), parse_dump(&d1).unwrap()]);
    let a = analyze(&merged);
    assert!(a.malformed.is_empty(), "{:?}", a.malformed);
    assert_eq!(a.completed.len(), 4, "two transfers per process");
    // Ids from different processes live in disjoint namespaces.
    let mut ids: Vec<u64> = a.completed.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 4, "no id collisions after merge");
}

#[test]
fn inspect_merges_multiple_dump_files() {
    let (d0, d1) = two_rank_dumps();
    let p0 = write_temp("rank0.jsonl", &d0);
    let p1 = write_temp("rank1.jsonl", &d1);
    let (code, stdout, _) = run_inspect(&[
        "critical-path",
        "--json",
        p0.to_str().unwrap(),
        p1.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&p0);
    let _ = std::fs::remove_file(&p1);
    assert_eq!(code, 0, "{stdout}");
    let v = parse_json(&stdout).expect("critical-path --json is valid JSON");
    assert_eq!(v.get("malformed").and_then(Json::as_f64), Some(0.0));
    assert_eq!(v.get("transfers").and_then(Json::as_f64), Some(4.0));
    let path = v.get("path").and_then(Json::as_arr).unwrap();
    assert!(!path.is_empty(), "non-empty critical path");
    // Acceptance: the path's phase weights sum to the measured makespan.
    let makespan = v.get("makespan_ns").and_then(Json::as_f64).unwrap();
    let total = v
        .get("phases")
        .and_then(|p| p.get("total"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(makespan > 0.0);
    assert!(
        (total - makespan).abs() <= makespan * 0.10,
        "path total {total} vs makespan {makespan}"
    );
}

#[test]
fn report_json_mode_is_valid_json() {
    let path = write_temp("report-json.jsonl", &clean_dump(3));
    let (code, stdout, _) = run_inspect(&["--json", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 0);
    let v = parse_json(&stdout).expect("report --json is valid JSON");
    let transfers = v.get("transfers").and_then(Json::as_arr).unwrap();
    assert_eq!(transfers.len(), 3);
    let summary = v.get("summary").unwrap();
    assert_eq!(summary.get("completed").and_then(Json::as_f64), Some(3.0));
    assert_eq!(summary.get("malformed").and_then(Json::as_f64), Some(0.0));
}
