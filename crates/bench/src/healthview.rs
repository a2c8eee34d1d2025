//! Health-snapshot stream analysis behind `mpicd-inspect health`.
//!
//! `MPICD_HEALTH_MS=N` makes the obs layer append one JSON object per
//! period to a JSONL file — every counter, gauge (value + high-water) and
//! sketch summary of the metrics registry, stamped with the capture time.
//! This module reads that stream back, summarizes how each instrument
//! moved over the run (each counter's rate between the first and last
//! snapshot), and (optionally) joins the view with a flight dump so one
//! report answers both "was the process healthy while it ran?" and "what
//! did the transfers actually look like?".

use crate::flight::Analysis;
use crate::regress::{parse_json, Json};
use mpicd_obs::export::escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One parsed health snapshot (one line of the stream).
#[derive(Debug, Clone, Default)]
pub struct HealthSnap {
    /// Capture time (ns, monotonic process clock).
    pub t_ns: u64,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → (value, high-water).
    pub gauges: BTreeMap<String, (u64, u64)>,
    /// Sketch name → (count, sum, p50, p99, max).
    pub sketches: BTreeMap<String, (u64, u64, u64, u64, u64)>,
}

impl HealthSnap {
    /// Per-second rate of each counter of `self` since `first` (counters
    /// absent from `first` count from zero; 0 over an empty interval).
    pub fn counter_rates(&self, first: &HealthSnap) -> BTreeMap<&str, f64> {
        let secs = self.t_ns.saturating_sub(first.t_ns) as f64 / 1e9;
        self.counters
            .iter()
            .map(|(name, &v)| {
                let delta = v.saturating_sub(first.counters.get(name).copied().unwrap_or(0));
                let rate = if secs > 0.0 { delta as f64 / secs } else { 0.0 };
                (name.as_str(), rate)
            })
            .collect()
    }
}

/// A parsed health stream: the snapshots in capture order plus every
/// line that failed to parse (nonempty means a defective stream and a
/// nonzero `mpicd-inspect` exit).
#[derive(Debug, Clone, Default)]
pub struct HealthLog {
    /// Snapshots in file order.
    pub snapshots: Vec<HealthSnap>,
    /// Unparseable or non-health lines, with reasons.
    pub bad_lines: Vec<String>,
}

fn num(v: Option<&Json>) -> u64 {
    v.and_then(Json::as_u64).unwrap_or(0)
}

/// The `name → value` entries of section `key` of a snapshot object.
fn section<'a>(obj: &'a Json, key: &str) -> impl Iterator<Item = (String, &'a Json)> {
    let fields = match obj.get(key) {
        Some(Json::Obj(fields)) => fields.as_slice(),
        _ => &[],
    };
    fields.iter().map(|(name, v)| (name.clone(), v))
}

fn parse_snap(obj: &Json) -> Option<HealthSnap> {
    let t_ns = obj.get("t_ns")?.as_u64()?;
    if !matches!(obj.get("counters"), Some(Json::Obj(_))) {
        return None;
    }
    Some(HealthSnap {
        t_ns,
        counters: section(obj, "counters")
            .map(|(name, v)| (name, num(Some(v))))
            .collect(),
        gauges: section(obj, "gauges")
            .map(|(name, g)| (name, (num(g.get("value")), num(g.get("hwm")))))
            .collect(),
        sketches: section(obj, "sketches")
            .map(|(name, s)| {
                let f = |k| num(s.get(k));
                (name, (f("count"), f("sum"), f("p50"), f("p99"), f("max")))
            })
            .collect(),
    })
}

/// Parse a health JSONL stream. Blank lines are skipped; anything else
/// that is not a snapshot object (`t_ns` plus a `counters` object) lands
/// in `bad_lines`.
pub fn parse_health(text: &str) -> HealthLog {
    let mut log = HealthLog::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_json(line) {
            Ok(obj) => match parse_snap(&obj) {
                Some(s) => log.snapshots.push(s),
                None => log
                    .bad_lines
                    .push(format!("line {}: not a health snapshot", i + 1)),
            },
            Err(e) => log.bad_lines.push(format!("line {}: {e}", i + 1)),
        }
    }
    log
}

/// Read and parse a health stream from disk.
pub fn read_health(path: &Path) -> Result<HealthLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(parse_health(&text))
}

/// Human report: per-counter first/last/rate, per-gauge first/last/
/// high-water, per-sketch end-of-run summaries, and (when given) the
/// joined flight analysis so timeline health sits next to the live
/// gauges.
pub fn render_health(log: &HealthLog, flight: Option<&Analysis>, source: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "health snapshots — {source}");
    if let (Some(first), Some(last)) = (log.snapshots.first(), log.snapshots.last()) {
        let span_s = last.t_ns.saturating_sub(first.t_ns) as f64 / 1e9;
        let _ = writeln!(out, "snapshots: {} over {span_s:.1}s", log.snapshots.len());
        if !last.counters.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>12} {:>12} {:>12}",
                "counter", "first", "last", "rate/s"
            );
            for (name, rate) in last.counter_rates(first) {
                let fv = first.counters.get(name).copied().unwrap_or(0);
                let lv = last.counters[name];
                let _ = writeln!(out, "{name:<28} {fv:>12} {lv:>12} {rate:>12.1}");
            }
        }
        if !last.gauges.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>8} {:>8}",
                "gauge", "first", "last", "hwm"
            );
            for (name, &(lv, lh)) in &last.gauges {
                let fv = first.gauges.get(name).map_or(0, |&(v, _)| v);
                let _ = writeln!(out, "{name:<28} {fv:>8} {lv:>8} {lh:>8}");
            }
        }
        if !last.sketches.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>10} {:>10} {:>10}",
                "sketch", "count", "p50", "p99", "max"
            );
            for (name, &(c, _, p50, p99, max)) in &last.sketches {
                let _ = writeln!(out, "{name:<28} {c:>10} {p50:>10} {p99:>10} {max:>10}");
            }
        }
    } else {
        let _ = writeln!(out, "no snapshots parsed");
    }
    for b in &log.bad_lines {
        let _ = writeln!(out, "BAD {b}");
    }
    if let Some(a) = flight {
        let _ = writeln!(
            out,
            "flight: {} completed, {} errored, {} pending, malformed timelines: {}",
            a.completed.len(),
            a.errored.len(),
            a.pending_sends + a.pending_recvs,
            a.malformed.len()
        );
    }
    out
}

/// Machine-readable rendering of [`render_health`]'s content.
pub fn render_health_json(log: &HealthLog, flight: Option<&Analysis>, source: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"source\": \"{}\",", escape(source));
    let _ = writeln!(out, "  \"snapshots\": {},", log.snapshots.len());
    let _ = writeln!(out, "  \"bad_lines\": {},", log.bad_lines.len());
    if let (Some(first), Some(last)) = (log.snapshots.first(), log.snapshots.last()) {
        let _ = writeln!(out, "  \"t_ns\": {},", last.t_ns);
        let rates = last.counter_rates(first);
        let _ = writeln!(out, "  \"counters\": {{");
        for (i, (name, rate)) in rates.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {{\"value\": {}, \"rate_per_s\": {rate:.3}}}{}",
                escape(name),
                last.counters[*name],
                if i + 1 < rates.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"gauges\": {{");
        for (i, (name, &(v, h))) in last.gauges.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {{\"value\": {v}, \"hwm\": {h}}}{}",
                escape(name),
                if i + 1 < last.gauges.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  }},");
    }
    match flight {
        Some(a) => {
            let _ = writeln!(
                out,
                "  \"flight\": {{\"completed\": {}, \"errored\": {}, \"malformed\": {}}}",
                a.completed.len(),
                a.errored.len(),
                a.malformed.len()
            );
        }
        None => {
            let _ = writeln!(out, "  \"flight\": null");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"t_ns":1000000000,"counters":{"fabric.messages":100},"gauges":{"fabric.bounce_pool":{"value":8,"hwm":9}},"sketches":{"fabric.transfer_active_ns":{"count":3,"sum":900,"p50":300,"p99":400,"max":410}}}"#;

    #[test]
    fn parses_writer_format_lines() {
        let later = LINE
            .replace("\"t_ns\":1000000000", "\"t_ns\":3000000000")
            .replace("\"fabric.messages\":100", "\"fabric.messages\":500");
        let log = parse_health(&format!("{LINE}\n{later}\n"));
        assert_eq!(log.snapshots.len(), 2);
        assert!(log.bad_lines.is_empty());
        let s = &log.snapshots[0];
        assert_eq!(s.t_ns, 1_000_000_000);
        assert_eq!(s.counters["fabric.messages"], 100);
        assert_eq!(s.gauges["fabric.bounce_pool"], (8, 9));
        assert_eq!(
            s.sketches["fabric.transfer_active_ns"],
            (3, 900, 300, 400, 410)
        );
        // 400 messages over 2 s.
        let rates = log.snapshots[1].counter_rates(s);
        assert_eq!(rates["fabric.messages"], 200.0);
    }

    #[test]
    fn parses_live_renderer_output() {
        // Round-trip against the actual writer, not just a fixture.
        let reg = mpicd_obs::Registry::new();
        reg.counter("healthview.test.counter").add(3);
        reg.gauge("healthview.test.gauge").observe_set(5);
        reg.sketch("healthview.test.sketch").observe(7);
        let log = parse_health(&mpicd_obs::telemetry::render_json(&reg));
        assert!(
            log.bad_lines.is_empty(),
            "writer line parses: {:?}",
            log.bad_lines
        );
        let s = &log.snapshots[0];
        assert_eq!(s.counters["healthview.test.counter"], 3);
        assert_eq!(s.gauges["healthview.test.gauge"], (5, 5));
        assert_eq!(s.sketches["healthview.test.sketch"].0, 1);
    }

    #[test]
    fn flags_bad_and_foreign_lines() {
        let log = parse_health("not json\n{\"kind\":\"other\"}\n\n");
        assert_eq!(log.snapshots.len(), 0);
        assert_eq!(log.bad_lines.len(), 2, "blank line skipped, two defects");
    }

    #[test]
    fn renders_first_last_hwm_rows() {
        let later = LINE
            .replace("\"t_ns\":1000000000", "\"t_ns\":3000000000")
            .replace("\"fabric.messages\":100", "\"fabric.messages\":500")
            .replace("\"value\":8", "\"value\":6");
        let log = parse_health(&format!("{LINE}\n{later}\n"));
        let text = render_health(&log, None, "test.jsonl");
        assert!(text.contains("snapshots: 2 over 2.0s"), "{text}");
        // first=8, last=6, hwm=9 on one row.
        assert!(text.lines().any(|l| {
            l.contains("fabric.bounce_pool")
                && l.contains('8')
                && l.contains('6')
                && l.contains('9')
        }));
        assert!(text
            .lines()
            .any(|l| l.contains("fabric.messages") && l.contains("200.0")));
        let json = render_health_json(&log, None, "test.jsonl");
        let back = parse_json(&json).expect("render_health_json parses back");
        assert_eq!(back.get("snapshots").and_then(Json::as_u64), Some(2));
        let msgs = back.get("counters").and_then(|c| c.get("fabric.messages"));
        assert_eq!(
            msgs.and_then(|m| m.get("rate_per_s"))
                .and_then(Json::as_f64),
            Some(200.0)
        );
    }

    #[test]
    fn json_escapes_control_bytes_in_the_source() {
        let json = render_health_json(&HealthLog::default(), None, "a\tb\nc");
        let source_line = json.lines().nth(1).unwrap();
        assert!(
            !source_line.bytes().any(|b| b < 0x20),
            "no raw control byte: {source_line:?}"
        );
        let back = parse_json(&json).expect("valid JSON");
        assert_eq!(back.get("source").and_then(Json::as_str), Some("a\tb\nc"));
    }
}
