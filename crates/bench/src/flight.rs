//! Offline analysis of flight-recorder dumps (the `mpicd-inspect` binary).
//!
//! Parses the JSONL dump written by [`mpicd_obs::flight::dump_jsonl`],
//! reconstructs one timeline per matched transfer (joining the receive post
//! through the match event's `aux` field), attributes end-to-end latency to
//! phases — wait-for-match, pack, modeled wire, unpack, residual copy — and
//! renders a report with per-method percentiles, the top-N slowest transfers
//! with their critical path, and straggler flags.
//!
//! Dump lines are read with the workspace's one JSON reader,
//! [`crate::regress::parse_json`], and unsigned fields must be exact
//! non-negative integers.

use crate::regress::parse_json;
use crate::report::size_label;
use mpicd_obs::export::escape;
use mpicd_obs::flight::{EventKind, Method};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

// ---- parsing ----------------------------------------------------------------

fn kind_from_str(s: &str) -> Option<EventKind> {
    Some(match s {
        "post_send" => EventKind::PostSend,
        "post_recv" => EventKind::PostRecv,
        "match" => EventKind::Match,
        "frag_packed" => EventKind::FragPacked,
        "frag_unpacked" => EventKind::FragUnpacked,
        "wire_modeled" => EventKind::WireModeled,
        "complete" => EventKind::Complete,
        "error" => EventKind::Error,
        _ => return None,
    })
}

fn method_from_str(s: &str) -> Option<Method> {
    Some(match s {
        "unknown" => Method::Unknown,
        "eager" => Method::Eager,
        "rendezvous" => Method::Rendezvous,
        "pipelined" => Method::Pipelined,
        _ => return None,
    })
}

/// One parsed event line from a dump (field-for-field the JSONL object).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Lifecycle step.
    pub kind: EventKind,
    /// Send-side transfer id, or receive-post id for `post_recv` events.
    pub id: u64,
    /// Timestamp, ns since the process trace epoch.
    pub t_ns: u64,
    /// Duration (fragment callbacks, modeled wire time); 0 otherwise.
    pub dur_ns: u64,
    /// Sender rank (-1 for `ANY_SOURCE` receive posts).
    pub src: i64,
    /// Receiver rank.
    pub dst: i64,
    /// Message tag (wildcards are negative).
    pub tag: i64,
    /// Payload bytes.
    pub bytes: u64,
    /// Transfer protocol, as decided at post/match time.
    pub method: Method,
    /// Kind-specific extra (receive-post id on `match`, segment offset on
    /// fragments, error code on `error`).
    pub aux: u64,
    /// Lamport clock of the recording rank at the event (0 = unstamped,
    /// including every event of a v1 dump).
    pub lc: u64,
    /// Causal parent: the sender's clock carried in the transfer header
    /// (receive-side events only; 0 = none).
    pub parent: u64,
}

/// The `flight_meta` header line of a dump.
#[derive(Debug, Clone, Copy, Default)]
pub struct DumpMeta {
    /// Dump format version.
    pub version: u64,
    /// Event count the writer claims for the body.
    pub events: u64,
    /// Events lost to ring overflow before the dump was taken.
    pub overflowed: u64,
    /// Tracing-layer drops (spans/counters — context, not flight events).
    pub trace_dropped: u64,
}

/// A parsed dump file: header metadata plus events in file order.
#[derive(Debug, Default)]
pub struct Dump {
    /// Header metadata (`None` if the dump has no `flight_meta` line).
    pub meta: Option<DumpMeta>,
    /// All events, in the writer's (timestamp, id) order.
    pub events: Vec<Event>,
    /// Lines that failed to parse (corruption, a truncated tail from a
    /// crashed writer). Carried into [`Analysis::malformed`] so the
    /// exit-2 contract fires, without losing the readable remainder.
    pub bad_lines: Vec<String>,
}

/// Parse dump text. Unparseable non-empty lines are recorded in
/// [`Dump::bad_lines`] — corruption is loud (the analyzer reports it and
/// `mpicd-inspect` exits 2) but does not hide the readable remainder of a
/// partially-written dump. Only a dump with corrupt lines and *no* valid
/// events at all is rejected outright: that is not a flight dump.
pub fn parse_dump(text: &str) -> Result<Dump, String> {
    let mut dump = Dump::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line, lineno + 1) {
            Ok(Line::Meta(meta)) => dump.meta = Some(meta),
            Ok(Line::Event(e)) => dump.events.push(e),
            Err(reason) => dump.bad_lines.push(reason),
        }
    }
    if dump.events.is_empty() && dump.meta.is_none() && !dump.bad_lines.is_empty() {
        return Err(format!(
            "no valid flight events ({}; first: {})",
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
}

fn parse_line(line: &str, lineno: usize) -> Result<Line, String> {
    let obj = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
    let get = |key: &str| {
        obj.get(key)
            .ok_or_else(|| format!("line {lineno}: missing \"{key}\""))
    };
    let bad = |key: &str, what: &str| format!("line {lineno}: \"{key}\" is not {what}");
    // Unsigned fields must be exact non-negative integers; an absent
    // optional one reads 0 (v1 dumps carry no causal fields).
    let uint = |key: &str| {
        get(key)?
            .as_u64()
            .ok_or_else(|| bad(key, "a non-negative integer"))
    };
    let opt_uint = |key: &str| obj.get(key).map_or(Ok(0), |_| uint(key));
    // src/dst/tag are signed (wildcards are negative).
    let int = |key: &str| get(key)?.as_i64().ok_or_else(|| bad(key, "an integer"));
    let kind = get("kind")?
        .as_str()
        .ok_or_else(|| bad("kind", "a string"))?;
    if kind == "flight_meta" {
        return Ok(Line::Meta(DumpMeta {
            version: opt_uint("version")?,
            events: opt_uint("events")?,
            overflowed: opt_uint("overflowed")?,
            trace_dropped: opt_uint("trace_dropped")?,
        }));
    }
    let kind =
        kind_from_str(kind).ok_or_else(|| format!("line {lineno}: unknown kind \"{kind}\""))?;
    let method = get("method")?
        .as_str()
        .and_then(method_from_str)
        .ok_or_else(|| format!("line {lineno}: bad \"method\""))?;
    Ok(Line::Event(Event {
        kind,
        id: uint("id")?,
        t_ns: uint("t_ns")?,
        dur_ns: uint("dur_ns")?,
        src: int("src")?,
        dst: int("dst")?,
        tag: int("tag")?,
        bytes: uint("bytes")?,
        method,
        aux: uint("aux")?,
        lc: opt_uint("lc")?,
        parent: opt_uint("parent")?,
    }))
}

/// Read and parse a dump file.
pub fn read_dump(path: &Path) -> Result<Dump, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_dump(&text)
}

/// Id-namespace shift used when merging multiple dumps: dump `i`'s ids
/// become `(i + 1) << 48 | id`, so per-process sequential ids from
/// different processes never collide.
pub const MERGE_ID_SHIFT: u32 = 48;

/// Merge per-process dumps (e.g. one JSONL file per rank) into one.
///
/// Transfer ids are process-local sequence numbers, so each dump's ids are
/// remapped into a disjoint namespace (see [`MERGE_ID_SHIFT`]). The only
/// cross-referencing `aux` field — the receive-post id on `match` events —
/// is remapped with them; fragment offsets and error codes are untouched.
/// Header metadata is summed (version = max). A single dump passes through
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
        for mut e in d.events {
            e.id |= ns;
            if e.kind == EventKind::Match && e.aux != 0 {
                e.aux |= ns;
            }
            out.events.push(e);
        }
        out.bad_lines
            .extend(d.bad_lines.into_iter().map(|b| format!("dump {i}: {b}")));
    }
    out.meta = meta;
    out.events.sort_by_key(|e| (e.t_ns, e.id));
    out
}

// ---- timeline reconstruction -------------------------------------------------

/// Per-phase latency attribution for one transfer, in nanoseconds.
///
/// `wait + pack + unpack + copy == e2e` exactly on the serial engine (copy
/// is the residual); `wire` is simulated time that overlaps the others and
/// is reported alongside, not summed.
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
    /// First post → terminal event.
    pub e2e: u64,
}

/// One reconstructed transfer timeline, keyed by the send-side id.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Send-side transfer id (the canonical one).
    pub id: u64,
    /// Receive-post id joined via the match event's `aux` (0 when the
    /// recorder was off at receive-post time).
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
    /// Receive-post timestamp, when the join succeeded.
    pub post_recv_ns: Option<u64>,
    /// Match timestamp.
    pub match_ns: u64,
    /// Terminal timestamp (complete, or the error event).
    pub end_ns: u64,
    /// Error code when the transfer failed (fabric `flight_code`, or 100
    /// for a core-layer finish failure).
    pub error: Option<u64>,
    /// Pack fragments observed.
    pub frags_packed: usize,
    /// Unpack fragments observed.
    pub frags_unpacked: usize,
    /// Σ pack-callback durations.
    pub pack_ns: u64,
    /// Σ unpack-callback durations.
    pub unpack_ns: u64,
    /// Modeled wire duration.
    pub wire_ns: u64,
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

/// The result of reconstructing every timeline in a dump.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Dump header, passed through for the report.
    pub meta: Option<DumpMeta>,
    /// Matched transfers that reached `complete` cleanly.
    pub completed: Vec<Timeline>,
    /// Matched transfers that ended in (or were followed by) an error.
    pub errored: Vec<Timeline>,
    /// Sends posted but never matched in this dump — normal at shutdown,
    /// not a defect.
    pub pending_sends: usize,
    /// Receives posted but never matched.
    pub pending_recvs: usize,
    /// Unmatched posts that ended in an error event (cancel / shutdown).
    pub failed_posts: usize,
    /// Timelines that could not be reconstructed because the ring
    /// overflowed and dropped their early events (only counted when the
    /// header reports overflow; otherwise these are malformed).
    pub truncated: usize,
    /// Timeline defects, one human-readable reason each. Empty on a
    /// healthy dump — `mpicd-inspect` exits nonzero otherwise.
    pub malformed: Vec<String>,
}

/// Reconstruct and validate every timeline in a dump.
pub fn analyze(dump: &Dump) -> Analysis {
    let mut a = Analysis {
        meta: dump.meta,
        ..Analysis::default()
    };
    // Unreadable dump lines are malformed input by definition.
    a.malformed.extend(dump.bad_lines.iter().cloned());
    // With a reported ring overflow, incomplete timelines are expected
    // (their early events were dropped) and counted as truncated instead
    // of malformed. Internal inconsistencies stay malformed regardless.
    let lossy = dump.meta.is_some_and(|m| m.overflowed > 0);

    let mut by_id: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in &dump.events {
        by_id.entry(e.id).or_default().push(e);
    }
    // recv-post id → send id, from each match event's aux.
    let mut joined: BTreeMap<u64, u64> = BTreeMap::new();
    // core-layer finish failures land on the *receive* request's id.
    let mut recv_errors: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &dump.events {
        if e.kind == EventKind::Match && e.aux != 0 {
            joined.insert(e.aux, e.id);
        }
    }
    for (&id, evs) in &by_id {
        if joined.contains_key(&id) {
            if let Some(err) = evs.iter().find(|e| e.kind == EventKind::Error) {
                recv_errors.insert(id, err.aux);
            }
        }
    }

    for (&id, evs) in &by_id {
        let count = |k: EventKind| evs.iter().filter(|e| e.kind == k).count();
        let first = |k: EventKind| evs.iter().find(|e| e.kind == k);
        let n_match = count(EventKind::Match);

        if n_match == 0 {
            if joined.contains_key(&id) {
                // A receive post consumed by some transfer's match event;
                // its timestamp is read from here when that timeline is
                // built. Anything beyond post + finish-error is a defect.
                if count(EventKind::PostRecv) != 1 {
                    a.malformed.push(format!(
                        "id {id}: joined receive post has {} post_recv events",
                        count(EventKind::PostRecv)
                    ));
                } else if evs
                    .iter()
                    .any(|e| !matches!(e.kind, EventKind::PostRecv | EventKind::Error))
                {
                    a.malformed
                        .push(format!("id {id}: unexpected events on a receive post"));
                }
            } else if count(EventKind::PostRecv) > 0 || count(EventKind::PostSend) > 0 {
                if count(EventKind::Error) > 0 {
                    a.failed_posts += 1;
                } else if count(EventKind::PostRecv) > 0 {
                    a.pending_recvs += 1;
                } else {
                    a.pending_sends += 1;
                }
            } else if lossy {
                a.truncated += 1;
            } else {
                a.malformed.push(format!(
                    "id {id}: orphan events with no post or match ({} events)",
                    evs.len()
                ));
            }
            continue;
        }

        // Matched transfer: the id is the send-side id.
        if n_match > 1 {
            a.malformed.push(format!("id {id}: {n_match} match events"));
            continue;
        }
        let m = first(EventKind::Match).unwrap();
        let post = first(EventKind::PostSend);
        if post.is_none() && !lossy {
            a.malformed
                .push(format!("id {id}: matched transfer has no post_send"));
            continue;
        }
        if count(EventKind::PostSend) > 1 {
            a.malformed.push(format!("id {id}: duplicate post_send"));
            continue;
        }
        if count(EventKind::PostRecv) > 0 {
            a.malformed
                .push(format!("id {id}: id used as both send and receive post"));
            continue;
        }
        let complete = first(EventKind::Complete);
        if count(EventKind::Complete) > 1 {
            a.malformed.push(format!("id {id}: duplicate complete"));
            continue;
        }
        if count(EventKind::WireModeled) > 1 {
            a.malformed.push(format!("id {id}: duplicate wire_modeled"));
            continue;
        }
        let error = first(EventKind::Error);
        let end = match (complete, error) {
            (Some(c), _) => c,
            (None, Some(e)) => e,
            (None, None) => {
                if lossy {
                    a.truncated += 1;
                } else {
                    a.malformed.push(format!(
                        "id {id}: matched transfer has no complete or error"
                    ));
                }
                continue;
            }
        };

        // Join the receive post via the match event's aux.
        let recv_id = m.aux;
        let recv_post = if recv_id == 0 {
            None
        } else {
            match by_id
                .get(&recv_id)
                .and_then(|r| r.iter().find(|e| e.kind == EventKind::PostRecv))
            {
                Some(p) => Some(p.t_ns),
                None => {
                    if lossy {
                        None
                    } else {
                        a.malformed.push(format!(
                            "id {id}: match references missing receive post {recv_id}"
                        ));
                        continue;
                    }
                }
            }
        };

        let mut t = Timeline {
            id,
            recv_id,
            src: m.src,
            dst: m.dst,
            tag: m.tag,
            bytes: m.bytes,
            method: m.method,
            post_send_ns: post.map_or(m.t_ns, |p| p.t_ns),
            post_recv_ns: recv_post,
            match_ns: m.t_ns,
            end_ns: end.t_ns,
            error: error
                .map(|e| e.aux)
                .or_else(|| recv_errors.get(&recv_id).copied()),
            frags_packed: 0,
            frags_unpacked: 0,
            pack_ns: 0,
            unpack_ns: 0,
            wire_ns: first(EventKind::WireModeled).map_or(0, |w| w.dur_ns),
        };

        // Ordering invariants: posts precede the match, the terminal event
        // follows it, and every fragment lies inside [match, terminal].
        let mut bad = false;
        if post.is_some_and(|p| p.t_ns > t.match_ns) || recv_post.is_some_and(|r| r > t.match_ns) {
            a.malformed
                .push(format!("id {id}: post after match (clock went backwards?)"));
            bad = true;
        }
        if t.end_ns < t.match_ns {
            a.malformed
                .push(format!("id {id}: terminal event before match"));
            bad = true;
        }
        for e in evs {
            match e.kind {
                EventKind::FragPacked => {
                    t.frags_packed += 1;
                    t.pack_ns += e.dur_ns;
                }
                EventKind::FragUnpacked => {
                    t.frags_unpacked += 1;
                    t.unpack_ns += e.dur_ns;
                }
                _ => continue,
            }
            if e.t_ns < t.match_ns || e.t_ns > t.end_ns {
                a.malformed.push(format!(
                    "id {id}: fragment at {} outside [{}, {}]",
                    e.t_ns, t.match_ns, t.end_ns
                ));
                bad = true;
            }
        }
        if bad {
            continue;
        }
        if t.error.is_some() {
            a.errored.push(t);
        } else {
            a.completed.push(t);
        }
    }
    a
}

// ---- report ------------------------------------------------------------------

/// Rendering knobs for [`render_report`].
#[derive(Debug, Clone, Copy)]
pub struct ReportOptions {
    /// How many of the slowest transfers to list individually.
    pub top: usize,
    /// Straggler threshold: flag transfers slower than this multiple of
    /// their (method, size-class) median end-to-end time.
    pub straggler_factor: f64,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self {
            top: 10,
            straggler_factor: 4.0,
        }
    }
}

/// Nearest-rank percentile over a sorted slice (0 on empty input).
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Human-friendly nanosecond label.
fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Size class of a payload: log2 bucket, so 1KiB and 1.5KiB compare while
/// 1KiB and 1MiB do not.
fn size_class(bytes: u64) -> u32 {
    bytes.max(1).ilog2()
}

/// Render the human report. Contains the literal line
/// `malformed timelines: N` — CI greps for the `0` case.
pub fn render_report(a: &Analysis, opts: &ReportOptions, source: &str) -> String {
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
                "WARNING: flight ring overflowed — {} events lost; timelines may be \
                 truncated. Raise MPICD_FLIGHT_CAP.",
                m.overflowed
            );
        }
    } else {
        let _ = writeln!(out, "events: no flight_meta header (legacy dump?)");
    }
    let _ = writeln!(
        out,
        "transfers: {} completed, {} errored, {} pending sends, {} pending recvs, \
         {} failed posts, {} truncated",
        a.completed.len(),
        a.errored.len(),
        a.pending_sends,
        a.pending_recvs,
        a.failed_posts,
        a.truncated
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

    // Top-N slowest, with the per-phase breakdown and critical path.
    let mut by_e2e: Vec<&Timeline> = a.completed.iter().collect();
    by_e2e.sort_by_key(|t| std::cmp::Reverse(t.phases().e2e));
    if !by_e2e.is_empty() && opts.top > 0 {
        let _ = writeln!(
            out,
            "\ntop {} slowest transfers (by e2e):",
            opts.top.min(by_e2e.len())
        );
        for (i, t) in by_e2e.iter().take(opts.top).enumerate() {
            let p = t.phases();
            let _ = writeln!(
                out,
                "  #{} id {} {}->{} tag {} {}B {}: e2e {} = wait {} + pack {} + unpack {} \
                 + copy {} (wire {}, {}p/{}u frags)  critical: {}",
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
                t.frags_packed,
                t.frags_unpacked,
                t.critical_phase()
            );
        }
    }

    // Stragglers: e2e far above the median of their (method, size-class)
    // peers, only in classes with enough samples to trust the median.
    let mut classes: BTreeMap<(u8, u32), Vec<u64>> = BTreeMap::new();
    for t in &a.completed {
        classes
            .entry((t.method as u8, size_class(t.bytes)))
            .or_default()
            .push(t.phases().e2e);
    }
    for vals in classes.values_mut() {
        vals.sort_unstable();
    }
    let _ = writeln!(
        out,
        "\nstragglers (> {:.1}x class median e2e, classes with >= 8 samples):",
        opts.straggler_factor
    );
    let mut stragglers = 0usize;
    for t in &by_e2e {
        let class = (t.method as u8, size_class(t.bytes));
        let vals = &classes[&class];
        if vals.len() < 8 {
            continue;
        }
        let median = pct(vals, 0.50);
        let e2e = t.phases().e2e;
        if median > 0 && e2e as f64 > opts.straggler_factor * median as f64 {
            stragglers += 1;
            if stragglers <= 20 {
                let _ = writeln!(
                    out,
                    "  id {} {} {}-class: e2e {} vs median {} ({:.1}x), critical: {}",
                    t.id,
                    t.method.as_str(),
                    size_label(1usize << class.1),
                    fmt_ns(e2e),
                    fmt_ns(median),
                    e2e as f64 / median as f64,
                    t.critical_phase()
                );
            }
        }
    }
    if stragglers == 0 {
        let _ = writeln!(out, "  (none)");
    } else if stragglers > 20 {
        let _ = writeln!(out, "  ... and {} more", stragglers - 20);
    }
    out
}

// ---- JSON output -------------------------------------------------------------

/// Render the analysis as one machine-readable JSON object (the `--json`
/// flag of `mpicd-inspect`): summary counts, malformed reasons, and every
/// reconstructed timeline with its phase attribution.
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
         \"pending_recvs\":{},\"failed_posts\":{},\"truncated\":{},\"malformed\":{}}}",
        a.completed.len(),
        a.errored.len(),
        a.pending_sends,
        a.pending_recvs,
        a.failed_posts,
        a.truncated,
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
             \"end_ns\":{},\"error\":{},\"frags_packed\":{},\"frags_unpacked\":{},\
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
            t.frags_packed,
            t.frags_unpacked,
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
mod tests {
    use super::*;

    fn line(kind: &str, id: u64, t: u64, dur: u64, bytes: u64, method: &str, aux: u64) -> String {
        format!(
            "{{\"kind\":\"{kind}\",\"id\":{id},\"t_ns\":{t},\"dur_ns\":{dur},\"src\":0,\
             \"dst\":1,\"tag\":7,\"bytes\":{bytes},\"method\":\"{method}\",\"aux\":{aux}}}"
        )
    }

    fn meta(events: u64, overflowed: u64) -> String {
        format!(
            "{{\"kind\":\"flight_meta\",\"version\":1,\"events\":{events},\
             \"overflowed\":{overflowed},\"trace_dropped\":0}}"
        )
    }

    /// One healthy pipelined transfer: posts at 100/200, match at 300,
    /// one pack frag and one unpack frag, complete at 1000.
    fn healthy() -> String {
        [
            meta(7, 0),
            line("post_recv", 2, 100, 0, 64, "unknown", 0),
            line("post_send", 1, 200, 0, 64, "pipelined", 0),
            line("match", 1, 300, 0, 64, "pipelined", 2),
            line("frag_packed", 1, 400, 50, 64, "unknown", 0),
            line("frag_unpacked", 1, 500, 80, 64, "unknown", 0),
            line("wire_modeled", 1, 300, 900, 64, "unknown", 0),
            line("complete", 1, 1000, 0, 64, "pipelined", 0),
        ]
        .join("\n")
    }

    #[test]
    fn parses_and_reconstructs_a_healthy_transfer() {
        let dump = parse_dump(&healthy()).unwrap();
        assert_eq!(dump.meta.unwrap().events, 7);
        assert_eq!(dump.events.len(), 7);

        let a = analyze(&dump);
        assert!(a.malformed.is_empty(), "{:?}", a.malformed);
        assert_eq!(a.completed.len(), 1);
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
            line("post_send", 1, 10, 0, 8, "eager", 0),
            line("post_recv", 2, 20, 0, 8, "unknown", 0),
            line("post_send", 3, 30, 0, 8, "eager", 0),
            line("error", 3, 40, 0, 8, "unknown", 9),
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
    fn missing_terminal_and_orphans_are_malformed() {
        let text = [
            line("post_send", 1, 10, 0, 8, "eager", 0),
            line("match", 1, 20, 0, 8, "eager", 0),
            line("frag_packed", 9, 30, 5, 8, "unknown", 0),
        ]
        .join("\n");
        let a = analyze(&parse_dump(&text).unwrap());
        assert_eq!(a.malformed.len(), 2, "{:?}", a.malformed);
        assert!(a.malformed.iter().any(|m| m.contains("no complete")));
        assert!(a.malformed.iter().any(|m| m.contains("orphan")));
        let report = render_report(&a, &ReportOptions::default(), "test");
        assert!(report.contains("malformed timelines: 2"));
    }

    #[test]
    fn overflow_downgrades_missing_events_to_truncated() {
        let text = [
            meta(2, 100),
            line("match", 1, 20, 0, 8, "eager", 0),
            line("complete", 1, 30, 0, 8, "eager", 0),
            line("frag_packed", 9, 30, 5, 8, "unknown", 0),
        ]
        .join("\n");
        let a = analyze(&parse_dump(&text).unwrap());
        assert!(a.malformed.is_empty(), "{:?}", a.malformed);
        // The matched transfer survives (post time falls back to match
        // time); the orphan fragment is counted as truncated.
        assert_eq!(a.completed.len(), 1);
        assert_eq!(a.truncated, 1);
        let report = render_report(&a, &ReportOptions::default(), "test");
        assert!(report.contains("WARNING"));
        assert!(report.contains("malformed timelines: 0"));
    }

    #[test]
    fn ordering_violations_are_malformed() {
        let text = [
            line("post_send", 1, 50, 0, 8, "eager", 0),
            line("match", 1, 20, 0, 8, "eager", 0),
            line("complete", 1, 30, 0, 8, "eager", 0),
        ]
        .join("\n");
        let a = analyze(&parse_dump(&text).unwrap());
        assert!(a.malformed.iter().any(|m| m.contains("post after match")));
        assert!(a.completed.is_empty());
    }

    #[test]
    fn finish_errors_on_the_recv_id_mark_the_transfer_errored() {
        let text = [
            line("post_recv", 2, 10, 0, 8, "unknown", 0),
            line("post_send", 1, 20, 0, 8, "eager", 0),
            line("match", 1, 30, 0, 8, "eager", 2),
            line("complete", 1, 40, 0, 8, "eager", 0),
            line("error", 2, 50, 0, 8, "unknown", 100),
        ]
        .join("\n");
        let a = analyze(&parse_dump(&text).unwrap());
        assert!(a.malformed.is_empty(), "{:?}", a.malformed);
        assert_eq!(a.errored.len(), 1);
        assert_eq!(a.errored[0].error, Some(100));
    }

    #[test]
    fn malformed_lines_are_parse_errors() {
        assert!(parse_dump("{\"kind\":\"post_send\"").is_err());
        assert!(parse_dump("{\"kind\":\"warp_drive\",\"id\":1}").is_err());
        assert!(parse_dump("not json at all").is_err());
        assert!(parse_dump("").unwrap().events.is_empty());
    }

    #[test]
    fn report_lists_slowest_and_stragglers() {
        let mut lines = vec![meta(0, 0)];
        // 9 fast eager transfers and 1 straggler in the same size class.
        for i in 0..10u64 {
            let base = i * 1000;
            let dur = if i == 9 { 500 } else { 10 };
            lines.push(line("post_send", i + 1, base, 0, 100, "eager", 0));
            lines.push(line("match", i + 1, base + 5, 0, 100, "eager", 0));
            lines.push(line("complete", i + 1, base + 5 + dur, 0, 100, "eager", 0));
        }
        let a = analyze(&parse_dump(&lines.join("\n")).unwrap());
        assert_eq!(a.completed.len(), 10);
        let report = render_report(
            &a,
            &ReportOptions {
                top: 3,
                straggler_factor: 4.0,
            },
            "synthetic",
        );
        assert!(report.contains("top 3 slowest"));
        assert!(report.contains("id 10"), "{report}");
        assert!(report.contains("stragglers"));
        assert!(
            report.contains("33.7x") || !report.contains("(none)"),
            "{report}"
        );
        assert!(report.contains("malformed timelines: 0"));
    }

    #[test]
    fn causal_fields_parse_and_default() {
        let text = "{\"kind\":\"match\",\"id\":1,\"t_ns\":5,\"dur_ns\":0,\"src\":0,\"dst\":1,\
                    \"tag\":7,\"bytes\":8,\"method\":\"eager\",\"aux\":2,\"lc\":9,\"parent\":4}";
        let d = parse_dump(text).unwrap();
        assert_eq!((d.events[0].lc, d.events[0].parent), (9, 4));
        // v1 dumps (no causal fields) stay readable with lc = parent = 0.
        let d1 = parse_dump(&healthy()).unwrap();
        assert!(d1.events.iter().all(|e| e.lc == 0 && e.parent == 0));
    }

    #[test]
    fn merge_namespaces_ids_and_remaps_match_aux() {
        let d1 = parse_dump(&healthy()).unwrap();
        let d2 = parse_dump(&healthy()).unwrap();
        let merged = merge_dumps(vec![d1, d2]);
        assert_eq!(merged.meta.unwrap().events, 14, "meta counters summed");
        let a = analyze(&merged);
        assert!(a.malformed.is_empty(), "{:?}", a.malformed);
        assert_eq!(a.completed.len(), 2);
        let ids: Vec<u64> = a.completed.iter().map(|t| t.id).collect();
        assert!(ids.contains(&((1u64 << MERGE_ID_SHIFT) | 1)));
        assert!(ids.contains(&((2u64 << MERGE_ID_SHIFT) | 1)));
        // The recv-post join survived the remap in both namespaces.
        assert!(a
            .completed
            .iter()
            .all(|t| t.recv_id & ((1 << MERGE_ID_SHIFT) - 1) == 2));
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
