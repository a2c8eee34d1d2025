//! Exporters for humans and trace viewers: the summary table of a
//! [`Registry`] and Chrome trace-event JSON for the span tracer. The
//! machine formats of a registry (Prometheus text, one JSON object) live
//! in [`crate::telemetry`].
//!
//! The Chrome format is the trace-event "JSON object format": an object
//! with a `traceEvents` array of complete (`"ph":"X"`) events, loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are
//! microseconds (fractional, preserving ns resolution).

use crate::metrics::{self, Registry};
use crate::trace::{self, Event};
use std::fmt::Write as _;
use std::path::Path;

/// `s` as the contents of a JSON string literal: quotes, backslashes and
/// every control character escaped.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render `events` as Chrome trace-event JSON.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        out.push_str(&escape(e.name));
        out.push_str("\",\"cat\":\"");
        out.push_str(&escape(e.cat));
        // ts/dur in microseconds with ns resolution kept as fraction.
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":0,\"tid\":{}",
            e.start_ns / 1000,
            e.start_ns % 1000,
            e.dur_ns / 1000,
            e.dur_ns % 1000,
            e.tid
        );
        if e.bytes > 0 {
            let _ = write!(out, ",\"args\":{{\"bytes\":{}}}", e.bytes);
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Drain all recorded spans and write them to `path` as Chrome trace
/// JSON, replacing the file atomically (staged as `<path>.tmp`, then
/// renamed). Returns the number of events written.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<usize> {
    let events = trace::take_events();
    let json = chrome_trace_json(&events);
    crate::fsio::write_atomic(path, json.as_bytes())?;
    Ok(events.len())
}

/// Unit suffix a summary row prints after a sketch named `name`.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ns") || name.contains("_ns_") {
        "ns"
    } else if name.contains("bytes") || name.contains("size") {
        "B"
    } else {
        ""
    }
}

/// Render a summary of `reg` for humans: counters, gauges (level and
/// high-water mark) and sketches (count, mean, p50, p99, max).
pub fn summary_of(reg: &Registry) -> String {
    let mut out = String::from("== mpicd-obs metrics summary ==\n");
    reg.with(|m| {
        if !m.counters.is_empty() {
            out.push_str("counters:\n");
        }
        for (name, c) in &m.counters {
            let _ = writeln!(out, "  {name:<34} {}", c.get());
        }
        if !m.gauges.is_empty() {
            out.push_str("gauges:\n");
        }
        for (name, g) in &m.gauges {
            let _ = writeln!(out, "  {name:<34} {} (hwm {})", g.get(), g.high_water());
        }
        if !m.sketches.is_empty() {
            out.push_str("sketches:\n");
        }
        for (name, s) in &m.sketches {
            let mean = s.sum() as f64 / s.count().max(1) as f64;
            let _ = writeln!(
                out,
                "  {name:<34} n={:<10} mean={mean:<12.1} p50={:<10} p99={:<10} max={} {}",
                s.count(),
                s.p50(),
                s.p99(),
                s.max(),
                unit_of(name),
            );
        }
    });
    let dropped = trace::dropped_events();
    if dropped > 0 {
        let _ = writeln!(out, "(trace ring buffers overwrote {dropped} events)");
    }
    out
}

/// Summary of the process default's registry ([`metrics::global`]).
pub fn summary() -> String {
    summary_of(metrics::global())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, start: u64, dur: u64, bytes: u64, tid: u64) -> Event {
        Event {
            name,
            cat: "test",
            start_ns: start,
            dur_ns: dur,
            bytes,
            tid,
        }
    }

    /// A tiny structural JSON validator: walks the string and checks
    /// balanced braces/brackets outside string literals.
    fn assert_balanced_json(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut esc = false;
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close");
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth, 0, "unbalanced JSON");
    }

    #[test]
    fn chrome_json_shape() {
        let events = vec![ev("pack", 1500, 250, 64, 0), ev("wire", 2000, 1300, 64, 1)];
        let json = chrome_trace_json(&events);
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"pack\""));
        assert!(json.contains("\"ph\":\"X\""));
        // 1500 ns == 1.500 µs.
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"args\":{\"bytes\":64}"));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn chrome_json_empty() {
        let json = chrome_trace_json(&[]);
        assert_balanced_json(&json);
        assert!(json.contains("\"traceEvents\":["));
    }

    #[test]
    fn chrome_json_escapes_names() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let e = escape("a\tb\nc\u{1}");
        assert!(!e.bytes().any(|b| b < 0x20), "no raw control byte: {e:?}");
        assert!(e.ends_with("\\u0001"));
    }

    /// A registry holding one instrument of each kind.
    fn one_of_each() -> Registry {
        let r = Registry::new();
        r.counter("fabric.messages").add(7);
        r.gauge("fabric.bounce_pool").observe_add(3);
        r.sketch("fabric.msg_size").observe(4096);
        r
    }

    #[test]
    fn metrics_json_shape() {
        let json = crate::telemetry::render_json(&one_of_each());
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"t_ns\":"));
        assert!(json.contains(",\"counters\":{\"fabric.messages\":7}"));
        assert!(json.contains("\"gauges\":{\"fabric.bounce_pool\":{\"value\":3,\"hwm\":3}}"));
        assert!(json
            .contains("\"sketches\":{\"fabric.msg_size\":{\"count\":1,\"sum\":4096,\"p50\":4096,"));
    }

    #[test]
    fn metrics_json_empty_registry() {
        let json = crate::telemetry::render_json(&Registry::new());
        assert_balanced_json(&json);
        assert!(json.ends_with(",\"counters\":{},\"gauges\":{},\"sketches\":{}}"));
    }

    #[test]
    fn summary_renders_counters_and_hists() {
        let s = summary_of(&one_of_each());
        assert!(s.contains("fabric.messages"));
        assert!(s.contains("fabric.bounce_pool"));
        assert!(s.contains("(hwm 3)"));
        assert!(s.contains("fabric.msg_size"));
        assert!(s.contains("p99=4096"));
    }
}
