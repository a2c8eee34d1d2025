//! Per-phase breakdown of a measured run, read from the observability
//! registry (`mpicd-obs`): packing CPU, unpacking CPU, modeled wire time,
//! and extra copy traffic, attributed per message.
//!
//! Wire time, message counts, and copy bytes are always recorded by the
//! fabric. The pack/unpack CPU columns come from the callback times in
//! each transfer's record, which are stamped only while tracing, the
//! flight recorder or telemetry is on (`MPICD_TRACE`, `MPICD_FLIGHT`,
//! `MPICD_TELEMETRY`); without them they read 0 and the table says so.

use mpicd_obs::{Counter, Registry};
use std::sync::Arc;

/// Delta of the fabric phase counters over some measured region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    /// CPU nanoseconds spent in pack callbacks (stamped transfers only).
    pub pack_ns: u64,
    /// CPU nanoseconds spent in unpack callbacks (stamped transfers only).
    pub unpack_ns: u64,
    /// Modeled wire nanoseconds.
    pub wire_ns: u64,
    /// Eager bounce-buffer bytes (the copy the custom path avoids).
    pub copy_bytes: u64,
    /// Messages delivered.
    pub messages: u64,
}

impl Phases {
    /// Nanoseconds-per-message for a phase counter (0 when no messages).
    fn per_msg(&self, v: u64) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            v as f64 / self.messages as f64
        }
    }
}

/// Snapshot-delta reader over the fabric's registry counters. Create one
/// probe per benchmark process; call [`PhaseProbe::delta`] after each
/// measured cell to get the phase totals since the previous call.
pub struct PhaseProbe {
    pack_ns: Arc<Counter>,
    unpack_ns: Arc<Counter>,
    wire_ns: Arc<Counter>,
    copy_bytes: Arc<Counter>,
    messages: Arc<Counter>,
    last: Phases,
}

impl PhaseProbe {
    /// Probe the global registry (the counters every `Fabric` feeds).
    pub fn new() -> Self {
        Self::in_registry(mpicd_obs::global())
    }

    /// Probe an explicit registry (tests).
    pub fn in_registry(reg: &Registry) -> Self {
        let mut probe = Self {
            pack_ns: reg.counter("fabric.pack_ns"),
            unpack_ns: reg.counter("fabric.unpack_ns"),
            wire_ns: reg.counter("fabric.wire_ns"),
            copy_bytes: reg.counter("fabric.copy_bytes"),
            messages: reg.counter("fabric.messages"),
            last: Phases::default(),
        };
        // Start deltas from "now", not from process start.
        let _ = probe.delta();
        probe
    }

    fn read(&self) -> Phases {
        Phases {
            pack_ns: self.pack_ns.get(),
            unpack_ns: self.unpack_ns.get(),
            wire_ns: self.wire_ns.get(),
            copy_bytes: self.copy_bytes.get(),
            messages: self.messages.get(),
        }
    }

    /// Phase totals accumulated since the previous `delta` call.
    pub fn delta(&mut self) -> Phases {
        let now = self.read();
        let d = Phases {
            pack_ns: now.pack_ns - self.last.pack_ns,
            unpack_ns: now.unpack_ns - self.last.unpack_ns,
            wire_ns: now.wire_ns - self.last.wire_ns,
            copy_bytes: now.copy_bytes - self.last.copy_bytes,
            messages: now.messages - self.last.messages,
        };
        self.last = now;
        d
    }
}

impl Default for PhaseProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// Companion table to a figure: one row per (size, method) cell, phase
/// columns normalized per message.
pub struct PhaseTable {
    title: String,
    rows: Vec<(String, Phases)>,
}

impl PhaseTable {
    /// Start an empty breakdown table.
    pub fn new(title: &str) -> Self {
        Self {
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Record one measured cell's phase delta.
    pub fn push(&mut self, label: impl Into<String>, p: Phases) {
        self.rows.push((label.into(), p));
    }

    /// Render per-message phase columns. Pack/unpack CPU columns are only
    /// populated while transfers are stamped (see the module docs).
    pub fn render(&self) -> String {
        let mut w = "cell".len();
        for (l, _) in &self.rows {
            w = w.max(l.len());
        }
        let mut out = String::new();
        out.push_str(&format!("# {} (per message)\n", self.title));
        if !(mpicd_obs::enabled()
            || mpicd_obs::Obs::process().flight().enabled()
            || mpicd_obs::telemetry::enabled())
        {
            out.push_str(
                "# note: pack/unpack CPU timers need MPICD_TRACE, MPICD_FLIGHT or \
                 MPICD_TELEMETRY; showing 0\n",
            );
        }
        out.push_str(&format!(
            "{:<w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>8}\n",
            "cell",
            "pack-ns",
            "unpack-ns",
            "wire-ns",
            "copy-B",
            "msgs",
            w = w
        ));
        for (l, p) in &self.rows {
            out.push_str(&format!(
                "{:<w$}  {:>10.0}  {:>10.0}  {:>10.0}  {:>10.0}  {:>8}\n",
                l,
                p.per_msg(p.pack_ns),
                p.per_msg(p.unpack_ns),
                p.per_msg(p.wire_ns),
                p.per_msg(p.copy_bytes),
                p.messages,
                w = w
            ));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_deltas_not_totals() {
        let reg = Registry::new();
        let msgs = reg.counter("fabric.messages");
        let wire = reg.counter("fabric.wire_ns");
        msgs.add(5);
        wire.add(100);
        let mut probe = PhaseProbe::in_registry(&reg);
        // Pre-existing totals were absorbed at construction.
        msgs.add(2);
        wire.add(40);
        let d = probe.delta();
        assert_eq!(d.messages, 2);
        assert_eq!(d.wire_ns, 40);
        assert_eq!(d.per_msg(d.wire_ns), 20.0);
        // Second delta starts from the previous read.
        assert_eq!(probe.delta(), Phases::default());
    }

    #[test]
    fn table_renders_per_message_columns() {
        let mut t = PhaseTable::new("Fig X breakdown");
        t.push(
            "64/custom",
            Phases {
                pack_ns: 300,
                unpack_ns: 150,
                wire_ns: 3000,
                copy_bytes: 0,
                messages: 3,
            },
        );
        let s = t.render();
        assert!(s.contains("Fig X breakdown"));
        assert!(s.contains("64/custom"));
        assert!(s.contains("1000")); // wire-ns per message
        assert!(s.contains("100")); // pack-ns per message
    }

    #[test]
    fn zero_messages_render_zero() {
        let p = Phases::default();
        assert_eq!(p.per_msg(123), 0.0);
    }

    #[test]
    fn fabric_feeds_global_probe() {
        let mut probe = PhaseProbe::new();
        let world = mpicd::World::new(2);
        let (a, b) = world.pair();
        let msg = vec![3u8; 256];
        let mut out = vec![0u8; 256];
        mpicd::transfer(&a, &b, &msg, &mut out, 0).unwrap();
        let d = probe.delta();
        assert!(d.messages >= 1, "messages: {}", d.messages);
        assert!(d.wire_ns > 0, "wire_ns: {}", d.wire_ns);
    }
}
