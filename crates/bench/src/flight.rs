//! Offline analysis of flight-recorder dumps (the `mpicd-inspect` binary).
//!
//! Parses the JSONL dump written by
//! [`mpicd_obs::flight::Recorder::dump_jsonl`]:
//! one `transfer` line per matched transfer (its whole record), plus the
//! post and error lines that show unmatched or failed posts. Each record
//! becomes one [`Timeline`], attributed to phases — wait-for-match, pack,
//! modeled wire, unpack, residual copy — and the report renders
//! per-method percentiles, the top-N slowest transfers with their critical
//! phase, and the transfers the fabric's online straggler gate flagged.
//!
//! Dump lines are read with the workspace's one JSON reader,
//! [`crate::regress::parse_json`]; unsigned fields must be exact
//! non-negative integers. A record is whole or the line is bad: a
//! transfer line whose stamps break `post ≤ match ≤ end`, or whose
//! callback time exceeds its lanes' active time, is reported by line
//! number, as is any line of an older dump format.

use crate::regress::{parse_json, Json};
use mpicd_obs::export::escape;
use mpicd_obs::flight::{EventKind, Method};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// The dump format this reader accepts (the `version` of the
/// `flight_meta` line).
pub const DUMP_VERSION: u64 = 4;

// ---- parsing ----------------------------------------------------------------

fn method_from_str(s: &str) -> Option<Method> {
    Some(match s {
        "unknown" => Method::Unknown,
        "eager" => Method::Eager,
        "rendezvous" => Method::Rendezvous,
        "pipelined" => Method::Pipelined,
        _ => return None,
    })
}

/// One parsed post or error line.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// `PostSend`, `PostRecv` or `Error`.
    pub kind: EventKind,
    /// Send id, receive-post id, or the id an error names.
    pub id: u64,
    /// Timestamp, ns since the process trace epoch.
    pub t_ns: u64,
    /// Sender rank (-1 for `ANY_SOURCE` receive posts).
    pub src: i64,
    /// Receiver rank.
    pub dst: i64,
    /// Message tag (wildcards are negative).
    pub tag: i64,
    /// Payload bytes (receive capacity on receive posts).
    pub bytes: u64,
    /// Transfer protocol, as decided at post time.
    pub method: Method,
    /// Error code on `error` lines.
    pub code: u64,
}

/// The `flight_meta` header line of a dump.
#[derive(Debug, Clone, Copy, Default)]
pub struct DumpMeta {
    /// Dump format version.
    pub version: u64,
    /// Line count the writer claims for the body.
    pub events: u64,
    /// Entries lost to ring overflow before the dump was taken.
    pub overflowed: u64,
    /// Tracing-layer drops (spans/counters — context, not flight lines).
    pub trace_dropped: u64,
}

/// A parsed dump file: header metadata, post/error events and transfer
/// records, in file order.
#[derive(Debug, Default)]
pub struct Dump {
    /// Header metadata (`None` if the dump has no `flight_meta` line).
    pub meta: Option<DumpMeta>,
    /// Post and error lines.
    pub events: Vec<Event>,
    /// One timeline per `transfer` line.
    pub transfers: Vec<Timeline>,
    /// Lines that failed to parse or validate (corruption, a truncated
    /// tail from a crashed writer, an older format). Carried into
    /// [`Analysis::malformed`] so the exit-2 contract fires, without
    /// losing the readable remainder.
    pub bad_lines: Vec<String>,
}

/// Parse dump text. Bad non-empty lines are recorded in
/// [`Dump::bad_lines`] — corruption is loud (the analyzer reports it and
/// `mpicd-inspect` exits 2) but does not hide the readable remainder of a
/// partially-written dump. Only a text with bad lines and neither a valid
/// line nor a `flight_meta` header is rejected outright: that is not a
/// flight dump.
pub fn parse_dump(text: &str) -> Result<Dump, String> {
    let mut dump = Dump::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line, lineno + 1) {
            Ok(Line::Meta(meta)) => {
                if meta.version != DUMP_VERSION {
                    dump.bad_lines.push(format!(
                        "line {}: dump version {}; this reader reads version {DUMP_VERSION}",
                        lineno + 1,
                        meta.version
                    ));
                }
                dump.meta = Some(meta);
            }
            Ok(Line::Event(e)) => dump.events.push(e),
            Ok(Line::Transfer(t)) => dump.transfers.push(t),
            Err(reason) => dump.bad_lines.push(reason),
        }
    }
    let valid = dump.meta.is_some() || !dump.events.is_empty() || !dump.transfers.is_empty();
    if !valid && !dump.bad_lines.is_empty() {
        return Err(format!(
            "no valid flight lines ({}; first: {})",
            match dump.bad_lines.len() {
                1 => "1 unreadable line".to_string(),
                n => format!("{n} unreadable lines"),
            },
            dump.bad_lines[0]
        ));
    }
    Ok(dump)
}

enum Line {
    Meta(DumpMeta),
    Event(Event),
    Transfer(Timeline),
}

fn parse_line(line: &str, lineno: usize) -> Result<Line, String> {
    let obj = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
    let get = |key: &str| {
        obj.get(key)
            .ok_or_else(|| format!("line {lineno}: missing \"{key}\""))
    };
    let bad = |key: &str, what: &str| format!("line {lineno}: \"{key}\" is not {what}");
    let uint = |key: &str| {
        get(key)?
            .as_u64()
            .ok_or_else(|| bad(key, "a non-negative integer"))
    };
    // src/dst/tag are signed (wildcards are negative).
    let int = |key: &str| get(key)?.as_i64().ok_or_else(|| bad(key, "an integer"));
    let method = || {
        get("method")?
            .as_str()
            .and_then(method_from_str)
            .ok_or_else(|| format!("line {lineno}: bad \"method\""))
    };
    let kind = get("kind")?
        .as_str()
        .ok_or_else(|| bad("kind", "a string"))?;
    let kind = match kind {
        "flight_meta" => {
            return Ok(Line::Meta(DumpMeta {
                version: uint("version")?,
                events: uint("events")?,
                overflowed: uint("overflowed")?,
                trace_dropped: uint("trace_dropped")?,
            }))
        }
        "transfer" => return parse_transfer(&obj, lineno, &uint, &int, method()?),
        "post_send" => EventKind::PostSend,
        "post_recv" => EventKind::PostRecv,
        "error" => EventKind::Error,
        "match" | "frag_packed" | "frag_unpacked" | "wire_modeled" | "complete" => {
            return Err(format!(
                "line {lineno}: \"{kind}\" lines are from a version 1/2 dump"
            ))
        }
        _ => return Err(format!("line {lineno}: unknown kind \"{kind}\"")),
    };
    Ok(Line::Event(Event {
        kind,
        id: uint("id")?,
        t_ns: uint("t_ns")?,
        src: int("src")?,
        dst: int("dst")?,
        tag: int("tag")?,
        bytes: uint("bytes")?,
        method: method()?,
        code: uint("code")?,
    }))
}

/// Read one `transfer` line into a [`Timeline`] and hold it to the
/// record's invariants.
fn parse_transfer(
    obj: &Json,
    lineno: usize,
    uint: &dyn Fn(&str) -> Result<u64, String>,
    int: &dyn Fn(&str) -> Result<i64, String>,
    method: Method,
) -> Result<Line, String> {
    let recv_id = uint("recv_id")?;
    let post_recv_ns = uint("post_recv_ns")?;
    let error = uint("error")?;
    let t = Timeline {
        id: uint("id")?,
        recv_id,
        src: int("src")?,
        dst: int("dst")?,
        tag: int("tag")?,
        bytes: uint("bytes")?,
        method,
        post_send_ns: uint("post_send_ns")?,
        post_recv_ns: (recv_id != 0).then_some(post_recv_ns),
        match_ns: uint("match_ns")?,
        end_ns: uint("end_ns")?,
        error: (error != 0).then_some(error),
        pack_calls: uint("pack_calls")?,
        unpack_calls: uint("unpack_calls")?,
        pack_ns: uint("pack_ns")?,
        unpack_ns: uint("unpack_ns")?,
        lanes: uint("lanes")?,
        wire_ns: uint("wire_ns")?,
        straggler: match obj.get("straggler") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(format!("line {lineno}: \"straggler\" is not a boolean")),
        },
    };
    if t.post_send_ns > t.match_ns
        || t.post_recv_ns.is_some_and(|r| r > t.match_ns)
        || t.match_ns > t.end_ns
    {
        return Err(format!(
            "line {lineno}: transfer {} breaks post <= match <= end",
            t.id
        ));
    }
    let active = t.end_ns - t.match_ns;
    if t.pack_ns.saturating_add(t.unpack_ns) > t.lanes.saturating_mul(active) {
        return Err(format!(
            "line {lineno}: transfer {}: pack + unpack {} ns exceeds {} lane(s) x {active} ns active",
            t.id,
            t.pack_ns.saturating_add(t.unpack_ns),
            t.lanes
        ));
    }
    Ok(Line::Transfer(t))
}

/// Read and parse a dump file.
pub fn read_dump(path: &Path) -> Result<Dump, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_dump(&text)
}

/// Id-namespace shift used when merging multiple dumps: dump `i`'s ids
/// become `(i + 1) << 48 | id`, so per-process sequential ids from
/// different processes never collide. `id >> MERGE_ID_SHIFT` is therefore
/// the dump a merged id came from (0 for an unmerged dump).
pub const MERGE_ID_SHIFT: u32 = 48;

/// Merge per-process dumps (e.g. one JSONL file per rank) into one.
///
/// Transfer ids are process-local sequence numbers, so each dump's ids —
/// send ids, receive-post ids and the `recv_id` a record joins — are
/// remapped into a disjoint namespace (see [`MERGE_ID_SHIFT`]). Header
/// metadata is summed (version = max). A single dump passes through
/// unmodified.
pub fn merge_dumps(dumps: Vec<Dump>) -> Dump {
    if dumps.len() <= 1 {
        return dumps.into_iter().next().unwrap_or_default();
    }
    let mut out = Dump::default();
    let mut meta: Option<DumpMeta> = None;
    for (i, d) in dumps.into_iter().enumerate() {
        let ns = (i as u64 + 1) << MERGE_ID_SHIFT;
        if let Some(m) = d.meta {
            let acc = meta.get_or_insert(DumpMeta::default());
            acc.version = acc.version.max(m.version);
            acc.events += m.events;
            acc.overflowed += m.overflowed;
            acc.trace_dropped += m.trace_dropped;
        }
        out.events
            .extend(d.events.into_iter().map(|e| Event { id: e.id | ns, ..e }));
        out.transfers
            .extend(d.transfers.into_iter().map(|t| Timeline {
                id: t.id | ns,
                recv_id: if t.recv_id == 0 { 0 } else { t.recv_id | ns },
                ..t
            }));
        out.bad_lines
            .extend(d.bad_lines.into_iter().map(|b| format!("dump {i}: {b}")));
    }
    out.meta = meta;
    out
}

// ---- timelines ---------------------------------------------------------------

/// Per-phase latency attribution for one transfer, in nanoseconds.
///
/// `wait + pack + unpack + copy == e2e` exactly when the callbacks ran on
/// one lane (copy is the residual); `wire` is simulated time that overlaps
/// the others and is reported alongside, not summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// First post → match: time spent waiting for the partner to arrive.
    pub wait: u64,
    /// Sum of pack-callback durations.
    pub pack: u64,
    /// Modeled wire time (simulated, not CPU time).
    pub wire: u64,
    /// Sum of unpack-callback durations.
    pub unpack: u64,
    /// Active time outside the pack/unpack callbacks: staging memcpys,
    /// matching bookkeeping, pipeline scheduling.
    pub copy: u64,
    /// First post → end.
    pub e2e: u64,
}

/// One transfer's timeline: its record, as read from the dump.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Send-side transfer id.
    pub id: u64,
    /// Receive-post id (0 when the recorder was off at receive-post time).
    pub recv_id: u64,
    /// Sender rank.
    pub src: i64,
    /// Receiver rank.
    pub dst: i64,
    /// Message tag.
    pub tag: i64,
    /// Payload bytes.
    pub bytes: u64,
    /// Transfer protocol.
    pub method: Method,
    /// Send-post timestamp.
    pub post_send_ns: u64,
    /// Receive-post timestamp, when the receive post was recorded.
    pub post_recv_ns: Option<u64>,
    /// Match timestamp.
    pub match_ns: u64,
    /// End timestamp (completion or the error exit).
    pub end_ns: u64,
    /// Error code when the transfer failed (fabric `flight_code`, or 100
    /// for a core-layer finish failure on its receive post).
    pub error: Option<u64>,
    /// Pack-callback invocations.
    pub pack_calls: u64,
    /// Unpack-callback invocations.
    pub unpack_calls: u64,
    /// Σ pack-callback durations.
    pub pack_ns: u64,
    /// Σ unpack-callback durations.
    pub unpack_ns: u64,
    /// Threads that ran the fragments.
    pub lanes: u64,
    /// Modeled wire duration.
    pub wire_ns: u64,
    /// The fabric's online straggler gate flagged the transfer.
    pub straggler: bool,
}

impl Timeline {
    /// Timestamp of the earliest post (send, or the joined receive).
    pub fn first_post_ns(&self) -> u64 {
        match self.post_recv_ns {
            Some(r) => r.min(self.post_send_ns),
            None => self.post_send_ns,
        }
    }

    /// Attribute this transfer's latency to phases.
    pub fn phases(&self) -> Phases {
        let first = self.first_post_ns();
        let active = self.end_ns.saturating_sub(self.match_ns);
        Phases {
            wait: self.match_ns.saturating_sub(first),
            pack: self.pack_ns,
            wire: self.wire_ns,
            unpack: self.unpack_ns,
            copy: active.saturating_sub(self.pack_ns + self.unpack_ns),
            e2e: self.end_ns.saturating_sub(first),
        }
    }

    /// The wall-clock phase that dominates the end-to-end time (`wire` is
    /// excluded: it is modeled time overlapping the real phases).
    pub fn critical_phase(&self) -> &'static str {
        let p = self.phases();
        [
            ("wait", p.wait),
            ("pack", p.pack),
            ("unpack", p.unpack),
            ("copy", p.copy),
        ]
        .into_iter()
        .max_by_key(|&(_, v)| v)
        .map(|(n, _)| n)
        .unwrap_or("wait")
    }
}

/// The timelines of a dump, sorted by outcome, and its unmatched posts.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Dump header, passed through for the report.
    pub meta: Option<DumpMeta>,
    /// Transfers that completed.
    pub completed: Vec<Timeline>,
    /// Transfers that failed, or whose receive's `finish` failed after.
    pub errored: Vec<Timeline>,
    /// Sends posted but never matched in this dump — normal at shutdown,
    /// not a defect.
    pub pending_sends: usize,
    /// Receives posted but never matched.
    pub pending_recvs: usize,
    /// Unmatched posts that ended in an error event (cancel / shutdown).
    pub failed_posts: usize,
    /// Dump defects, one human-readable reason each. Empty on a healthy
    /// dump — `mpicd-inspect` exits nonzero otherwise.
    pub malformed: Vec<String>,
}

/// Sort every record of a dump by outcome and count the posts no record
/// joined.
pub fn analyze(dump: &Dump) -> Analysis {
    let mut a = Analysis {
        meta: dump.meta,
        malformed: dump.bad_lines.clone(),
        ..Analysis::default()
    };
    // Error lines name an unmatched post (cancel, shutdown) or, for a core
    // finish failure, a matched transfer's receive post.
    let errors: BTreeMap<u64, u64> = dump
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Error)
        .map(|e| (e.id, e.code))
        .collect();
    // Every id some record names; each may be named once.
    let mut joined = BTreeSet::new();
    for t in &dump.transfers {
        if !joined.insert(t.id) || (t.recv_id != 0 && !joined.insert(t.recv_id)) {
            a.malformed
                .push(format!("id {}: an id joined by two transfer records", t.id));
            continue;
        }
        let mut t = t.clone();
        t.error = t
            .error
            .or_else(|| errors.get(&t.id).copied())
            .or_else(|| errors.get(&t.recv_id).copied());
        if t.error.is_some() {
            a.errored.push(t);
        } else {
            a.completed.push(t);
        }
    }
    for e in dump.events.iter().filter(|e| !joined.contains(&e.id)) {
        match e.kind {
            EventKind::Error => a.failed_posts += 1,
            // A post that later failed is counted by its error line.
            _ if errors.contains_key(&e.id) => {}
            EventKind::PostRecv => a.pending_recvs += 1,
            _ => a.pending_sends += 1,
        }
    }
    a
}

// ---- report ------------------------------------------------------------------

/// Nearest-rank percentile over a sorted slice (0 on empty input).
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Human-friendly nanosecond label (`850ns`, `25.0us`, `18.4ms`), shared
/// by every `mpicd-inspect` report.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render the human report, listing the `top` slowest transfers. Contains
/// the literal line `malformed timelines: N` — CI greps for the `0` case.
pub fn render_report(a: &Analysis, top: usize, source: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "flight recorder report — {source}");
    if let Some(m) = a.meta {
        let _ = writeln!(
            out,
            "events: {} (dump v{}), ring overflow: {} lost, trace drops: {}",
            m.events, m.version, m.overflowed, m.trace_dropped
        );
        if m.overflowed > 0 {
            let _ = writeln!(
                out,
                "WARNING: flight ring overflowed — {} entries lost; older transfers \
                 and posts are missing. Raise MPICD_FLIGHT_CAP.",
                m.overflowed
            );
        }
    } else {
        let _ = writeln!(out, "events: no flight_meta header");
    }
    let _ = writeln!(
        out,
        "transfers: {} completed, {} errored, {} pending sends, {} pending recvs, \
         {} failed posts",
        a.completed.len(),
        a.errored.len(),
        a.pending_sends,
        a.pending_recvs,
        a.failed_posts,
    );
    let _ = writeln!(out, "malformed timelines: {}", a.malformed.len());
    for reason in a.malformed.iter().take(20) {
        let _ = writeln!(out, "  ! {reason}");
    }
    if a.malformed.len() > 20 {
        let _ = writeln!(out, "  ! ... and {} more", a.malformed.len() - 20);
    }
    for t in &a.errored {
        let _ = writeln!(
            out,
            "error: id {} {}->{} tag {} code {}",
            t.id,
            t.src,
            t.dst,
            t.tag,
            t.error.unwrap_or(0)
        );
    }

    // Per-method phase percentiles.
    let _ = writeln!(out, "\nphase latency by method [p50 / p99 / max]:");
    const PHASES: [&str; 6] = ["e2e", "wait", "pack", "wire", "unpack", "copy"];
    for method in [
        Method::Eager,
        Method::Rendezvous,
        Method::Pipelined,
        Method::Unknown,
    ] {
        let of_method: Vec<&Timeline> = a.completed.iter().filter(|t| t.method == method).collect();
        if of_method.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  {} (n={}):", method.as_str(), of_method.len());
        for phase in PHASES {
            let mut vals: Vec<u64> = of_method
                .iter()
                .map(|t| {
                    let p = t.phases();
                    match phase {
                        "e2e" => p.e2e,
                        "wait" => p.wait,
                        "pack" => p.pack,
                        "wire" => p.wire,
                        "unpack" => p.unpack,
                        _ => p.copy,
                    }
                })
                .collect();
            vals.sort_unstable();
            let _ = writeln!(
                out,
                "    {:<7} {:>10} / {:>10} / {:>10}",
                phase,
                fmt_ns(pct(&vals, 0.50)),
                fmt_ns(pct(&vals, 0.99)),
                fmt_ns(*vals.last().unwrap())
            );
        }
    }

    // Top-N slowest, with the per-phase breakdown and critical phase.
    let mut by_e2e: Vec<&Timeline> = a.completed.iter().collect();
    by_e2e.sort_by_key(|t| std::cmp::Reverse(t.phases().e2e));
    if !by_e2e.is_empty() && top > 0 {
        let _ = writeln!(
            out,
            "\ntop {} slowest transfers (by e2e):",
            top.min(by_e2e.len())
        );
        for (i, t) in by_e2e.iter().take(top).enumerate() {
            let p = t.phases();
            let _ = writeln!(
                out,
                "  #{} id {} {}->{} tag {} {}B {}: e2e {} = wait {} + pack {} + unpack {} \
                 + copy {} (wire {}, {}p/{}u calls)  critical: {}",
                i + 1,
                t.id,
                t.src,
                t.dst,
                t.tag,
                t.bytes,
                t.method.as_str(),
                fmt_ns(p.e2e),
                fmt_ns(p.wait),
                fmt_ns(p.pack),
                fmt_ns(p.unpack),
                fmt_ns(p.copy),
                fmt_ns(p.wire),
                t.pack_calls,
                t.unpack_calls,
                t.critical_phase()
            );
        }
    }

    // Stragglers: the transfers the fabric's online gate flagged as they
    // completed (active time above 2x the previous window's p99).
    let _ = writeln!(out, "\nstragglers (flagged by the online gate):");
    let flagged: Vec<&&Timeline> = by_e2e.iter().filter(|t| t.straggler).collect();
    for t in flagged.iter().take(20) {
        let _ = writeln!(
            out,
            "  id {} {} {}B: e2e {}, active {}, critical: {}",
            t.id,
            t.method.as_str(),
            t.bytes,
            fmt_ns(t.phases().e2e),
            fmt_ns(t.end_ns - t.match_ns),
            t.critical_phase()
        );
    }
    match flagged.len() {
        0 => {
            let _ = writeln!(out, "  (none)");
        }
        n if n > 20 => {
            let _ = writeln!(out, "  ... and {} more", n - 20);
        }
        _ => {}
    }
    out
}

// ---- JSON output -------------------------------------------------------------

/// Render the analysis as one machine-readable JSON object (the `--json`
/// flag of `mpicd-inspect`): summary counts, malformed reasons, and every
/// timeline with its phase attribution.
pub fn render_json(a: &Analysis, source: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"source\":\"");
    out.push_str(&escape(source));
    out.push_str("\",\"meta\":");
    match a.meta {
        Some(m) => {
            let _ = write!(
                out,
                "{{\"version\":{},\"events\":{},\"overflowed\":{},\"trace_dropped\":{}}}",
                m.version, m.events, m.overflowed, m.trace_dropped
            );
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"summary\":{{\"completed\":{},\"errored\":{},\"pending_sends\":{},\
         \"pending_recvs\":{},\"failed_posts\":{},\"malformed\":{}}}",
        a.completed.len(),
        a.errored.len(),
        a.pending_sends,
        a.pending_recvs,
        a.failed_posts,
        a.malformed.len()
    );
    out.push_str(",\"malformed\":[");
    for (i, m) in a.malformed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape(m));
        out.push('"');
    }
    out.push_str("],\"transfers\":[");
    for (i, t) in a.completed.iter().chain(a.errored.iter()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let p = t.phases();
        let _ = write!(
            out,
            "{{\"id\":{},\"recv_id\":{},\"src\":{},\"dst\":{},\"tag\":{},\"bytes\":{},\
             \"method\":\"{}\",\"post_send_ns\":{},\"post_recv_ns\":{},\"match_ns\":{},\
             \"end_ns\":{},\"error\":{},\"pack_calls\":{},\"unpack_calls\":{},\
             \"lanes\":{},\"straggler\":{},\
             \"phases\":{{\"wait\":{},\"pack\":{},\"wire\":{},\"unpack\":{},\"copy\":{},\
             \"e2e\":{}}}}}",
            t.id,
            t.recv_id,
            t.src,
            t.dst,
            t.tag,
            t.bytes,
            t.method.as_str(),
            t.post_send_ns,
            t.post_recv_ns.map_or("null".to_string(), |v| v.to_string()),
            t.match_ns,
            t.end_ns,
            t.error.map_or("null".to_string(), |v| v.to_string()),
            t.pack_calls,
            t.unpack_calls,
            t.lanes,
            t.straggler,
            p.wait,
            p.pack,
            p.wire,
            p.unpack,
            p.copy,
            p.e2e
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A synthetic record; `line()` renders it as a dump line.
    #[derive(Clone, Copy)]
    pub(crate) struct Rec {
        pub id: u64,
        pub recv_id: u64,
        pub src: i64,
        pub dst: i64,
        pub tag: i64,
        /// post_send, post_recv, match, end.
        pub t: [u64; 4],
        pub pack: u64,
        pub unpack: u64,
        pub error: u64,
        pub straggler: bool,
    }

    impl Rec {
        pub(crate) fn new(id: u64, recv_id: u64, t: [u64; 4]) -> Self {
            Self {
                id,
                recv_id,
                src: 0,
                dst: 1,
                tag: 7,
                t,
                pack: 0,
                unpack: 0,
                error: 0,
                straggler: false,
            }
        }

        pub(crate) fn line(&self) -> String {
            format!(
                "{{\"kind\":\"transfer\",\"id\":{},\"recv_id\":{},\"src\":{},\"dst\":{},\
                 \"tag\":{},\"bytes\":64,\"method\":\"pipelined\",\"regions\":1,\
                 \"post_send_ns\":{},\"post_recv_ns\":{},\"match_ns\":{},\"end_ns\":{},\
                 \"pack_ns\":{},\"pack_calls\":1,\"unpack_ns\":{},\"unpack_calls\":1,\
                 \"lanes\":1,\"wire_ns\":900,\"error\":{},\"straggler\":{}}}",
                self.id,
                self.recv_id,
                self.src,
                self.dst,
                self.tag,
                self.t[0],
                self.t[1],
                self.t[2],
                self.t[3],
                self.pack,
                self.unpack,
                self.error,
                self.straggler
            )
        }
    }

    fn event(kind: &str, id: u64, t: u64, code: u64) -> String {
        format!(
            "{{\"kind\":\"{kind}\",\"id\":{id},\"t_ns\":{t},\"src\":0,\"dst\":1,\"tag\":7,\
             \"bytes\":8,\"method\":\"eager\",\"code\":{code}}}"
        )
    }

    fn meta(version: u64, events: u64) -> String {
        format!(
            "{{\"kind\":\"flight_meta\",\"version\":{version},\"events\":{events},\
             \"overflowed\":0,\"trace_dropped\":0}}"
        )
    }

    /// One healthy pipelined transfer: posts at 200/100, match at 300,
    /// 50 ns packing and 80 ns unpacking, end at 1000.
    fn healthy() -> String {
        [
            meta(4, 3),
            event("post_recv", 2, 100, 0),
            event("post_send", 1, 200, 0),
            Rec {
                pack: 50,
                unpack: 80,
                ..Rec::new(1, 2, [200, 100, 300, 1000])
            }
            .line(),
        ]
        .join("\n")
    }

    #[test]
    fn parses_and_reconstructs_a_healthy_transfer() {
        let dump = parse_dump(&healthy()).unwrap();
        assert_eq!(dump.meta.unwrap().events, 3);
        assert_eq!((dump.events.len(), dump.transfers.len()), (2, 1));

        let a = analyze(&dump);
        assert!(a.malformed.is_empty(), "{:?}", a.malformed);
        assert_eq!(a.completed.len(), 1);
        assert_eq!((a.pending_sends, a.pending_recvs), (0, 0), "posts joined");
        let t = &a.completed[0];
        assert_eq!((t.id, t.recv_id), (1, 2));
        assert_eq!(t.post_recv_ns, Some(100));
        assert_eq!(t.method, Method::Pipelined);
        let p = t.phases();
        assert_eq!(p.e2e, 900); // 1000 - min(100, 200)
        assert_eq!(p.wait, 200); // 300 - 100
        assert_eq!(p.pack, 50);
        assert_eq!(p.unpack, 80);
        assert_eq!(p.wire, 900);
        assert_eq!(p.copy, 700 - 130); // active 700 minus callbacks
        assert_eq!(p.wait + p.pack + p.unpack + p.copy, p.e2e);
        assert_eq!(t.critical_phase(), "copy");
    }

    #[test]
    fn pending_and_failed_posts_are_not_malformed() {
        let text = [
            event("post_send", 1, 10, 0),
            event("post_recv", 2, 20, 0),
            event("post_send", 3, 30, 0),
            event("error", 3, 40, 9),
        ]
        .join("\n");
        let a = analyze(&parse_dump(&text).unwrap());
        assert!(a.malformed.is_empty(), "{:?}", a.malformed);
        assert_eq!(a.pending_sends, 1);
        assert_eq!(a.pending_recvs, 1);
        assert_eq!(a.failed_posts, 1);
        assert!(a.completed.is_empty());
    }

    #[test]
    fn retired_lines_and_doubly_joined_ids_are_malformed() {
        // A v2 dump: its header, and every kind only v1/v2 wrote.
        let mut lines = vec![meta(2, 5)];
        for kind in [
            "match",
            "frag_packed",
            "frag_unpacked",
            "wire_modeled",
            "complete",
        ] {
            lines.push(event(kind, 1, 10, 0));
        }
        let d = parse_dump(&lines.join("\n")).unwrap();
        assert_eq!(d.bad_lines.len(), 6, "{:?}", d.bad_lines);
        assert!(d.bad_lines[0].starts_with("line 1: dump version 2"));
        assert!(d.bad_lines[1].starts_with("line 2: \"match\" lines are from"));
        // A v3 header (it carried the retired sampling rate) is rejected
        // the same way.
        let d = parse_dump(&meta(3, 0)).unwrap();
        assert_eq!(d.bad_lines.len(), 1, "{:?}", d.bad_lines);
        assert!(d.bad_lines[0].starts_with("line 1: dump version 3"));
        // Two records naming one receive post.
        let text = [
            Rec::new(1, 9, [1, 1, 2, 3]).line(),
            Rec::new(3, 9, [1, 1, 2, 3]).line(),
        ]
        .join("\n");
        let a = analyze(&parse_dump(&text).unwrap());
        assert_eq!(a.malformed.len(), 1, "{:?}", a.malformed);
        let report = render_report(&a, 10, "test");
        assert!(report.contains("malformed timelines: 1"));
    }

    #[test]
    fn ordering_violations_are_malformed() {
        let dump = |line: String| parse_dump(&format!("{}\n{line}", meta(4, 1))).unwrap();
        for t in [[50, 10, 20, 30], [10, 50, 20, 30], [10, 10, 40, 30]] {
            let d = dump(Rec::new(1, 2, t).line());
            assert!(d.transfers.is_empty(), "{t:?}");
            assert!(
                d.bad_lines[0].contains("breaks post <= match <= end"),
                "{:?}",
                d.bad_lines
            );
        }
        // Callback time beyond one lane's active window.
        let over = Rec {
            pack: 6,
            unpack: 5,
            ..Rec::new(1, 2, [0, 0, 10, 20])
        };
        let d = dump(over.line());
        assert!(d.bad_lines[0].contains("exceeds 1 lane(s) x 10 ns active"));
        // Two lanes (the worker pool) may overlap their callbacks.
        let d = dump(over.line().replace("\"lanes\":1", "\"lanes\":2"));
        assert!(d.bad_lines.is_empty(), "{:?}", d.bad_lines);
    }

    #[test]
    fn finish_errors_on_the_recv_id_mark_the_transfer_errored() {
        let text = [
            event("post_recv", 2, 10, 0),
            event("post_send", 1, 20, 0),
            Rec::new(1, 2, [20, 10, 30, 40]).line(),
            event("error", 2, 50, 100),
        ]
        .join("\n");
        let a = analyze(&parse_dump(&text).unwrap());
        assert!(a.malformed.is_empty(), "{:?}", a.malformed);
        assert_eq!(a.errored.len(), 1);
        assert_eq!(a.errored[0].error, Some(100));
        assert_eq!(a.failed_posts, 0, "the error joined the transfer");
        // A record carrying its own error code is errored too.
        let failed = Rec {
            error: 3,
            ..Rec::new(1, 2, [20, 10, 30, 40])
        };
        let a = analyze(&parse_dump(&failed.line()).unwrap());
        assert_eq!(a.errored[0].error, Some(3));
    }

    #[test]
    fn malformed_lines_are_parse_errors() {
        assert!(parse_dump("{\"kind\":\"post_send\"").is_err());
        assert!(parse_dump("{\"kind\":\"warp_drive\",\"id\":1}").is_err());
        assert!(parse_dump("not json at all").is_err());
        assert!(parse_dump("").unwrap().transfers.is_empty());
        // A record with a field missing is a bad line, not a partial record.
        let partial = Rec::new(1, 2, [1, 1, 2, 3])
            .line()
            .replace("\"end_ns\":3,", "");
        assert!(parse_dump(&partial).is_err());
    }

    #[test]
    fn report_lists_slowest_and_stragglers() {
        let mut lines = vec![meta(4, 10)];
        // Ten eager-sized transfers; the slow one carries the gate's flag.
        for i in 0..10u64 {
            let base = i * 1000;
            let dur = if i == 9 { 500 } else { 10 };
            lines.push(
                Rec {
                    straggler: i == 9,
                    ..Rec::new(i + 1, 0, [base, 0, base + 5, base + 5 + dur])
                }
                .line(),
            );
        }
        let a = analyze(&parse_dump(&lines.join("\n")).unwrap());
        assert_eq!(a.completed.len(), 10);
        let report = render_report(&a, 3, "synthetic");
        assert!(report.contains("top 3 slowest"));
        assert!(report.contains("id 10"), "{report}");
        let stragglers = report
            .split("stragglers (flagged by the online gate):")
            .nth(1);
        let stragglers = stragglers.expect("straggler section");
        assert!(
            stragglers.contains("  id 10 pipelined 64B: e2e 505ns"),
            "{report}"
        );
        assert_eq!(
            stragglers.matches("  id ").count(),
            1,
            "only the flagged one"
        );
        assert!(report.contains("malformed timelines: 0"));
    }

    #[test]
    fn merge_namespaces_ids_and_remaps_recv_ids() {
        let d1 = parse_dump(&healthy()).unwrap();
        let d2 = parse_dump(&healthy()).unwrap();
        let merged = merge_dumps(vec![d1, d2]);
        assert_eq!(merged.meta.unwrap().events, 6, "meta counters summed");
        let a = analyze(&merged);
        assert!(a.malformed.is_empty(), "{:?}", a.malformed);
        assert_eq!(a.completed.len(), 2);
        assert_eq!((a.pending_sends, a.pending_recvs), (0, 0), "posts joined");
        let ids: Vec<u64> = a.completed.iter().map(|t| t.id).collect();
        assert!(ids.contains(&((1u64 << MERGE_ID_SHIFT) | 1)));
        assert!(ids.contains(&((2u64 << MERGE_ID_SHIFT) | 1)));
        // The recv-post join survived the remap in both namespaces.
        for t in &a.completed {
            assert_eq!(t.recv_id >> MERGE_ID_SHIFT, t.id >> MERGE_ID_SHIFT);
            assert_eq!(t.recv_id & ((1 << MERGE_ID_SHIFT) - 1), 2);
        }
    }

    #[test]
    fn json_output_is_well_formed_and_complete() {
        let a = analyze(&parse_dump(&healthy()).unwrap());
        let j = render_json(&a, "x\"y");
        assert!(j.contains("\"source\":\"x\\\"y\""));
        assert!(j.contains("\"completed\":1"));
        assert!(j.contains("\"malformed\":0"));
        assert!(j.contains("\"e2e\":900"));
        assert!(j.contains("\"post_recv_ns\":100"));
        assert!(j.contains("\"straggler\":false"));
        assert!(parse_json(&j).is_ok());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(pct(&v, 0.50), 6);
        assert_eq!(pct(&v, 0.99), 10);
        assert_eq!(pct(&[], 0.5), 0);
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(25_000), "25.0us");
        assert_eq!(fmt_ns(25_000_000), "25.0ms");
    }
}
