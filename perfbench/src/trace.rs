//! The benchmark's own spans: one root span per op and one child span per
//! call into a library layer, kept in memory and written out at exit.
//!
//! A span's self time is its duration minus the part of it covered by its
//! children. Calls have no children here, so a call's self time is its
//! duration, and an op's self time is the op wall time no timed call
//! covers (`bench.unattributed_share`).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Every public entry point the benchmark times, named `<layer>.<call>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Committed::pack_slice` (the `mpi-pack` method's pack).
    DatatypePackSlice,
    /// `Committed::unpack_slice`.
    DatatypeUnpackSlice,
    /// `mpicd::transfer` over contiguous bytes.
    CoreTransferBytes,
    /// `mpicd::transfer_typed`.
    CoreTransferTyped,
    /// `mpicd::transfer`/`transfer_custom` with packing callbacks.
    CoreTransferCustomPack,
    /// `mpicd::transfer`/`transfer_custom` with memory regions.
    CoreTransferCustomRegion,
    /// Application pack loop (ddtbench `pack_manual`, `mpicd::types`,
    /// `mpicd::vecvec`, the benchmark's `Register` packer).
    AppPackManual,
    /// Application unpack loop.
    AppUnpackManual,
    /// `send_pickle_basic`.
    PickleSendBasic,
    /// `recv_pickle_basic` (includes the wait for the peer).
    PickleRecvBasic,
    /// `send_pickle_oob`.
    PickleSendOob,
    /// `recv_pickle_oob`.
    PickleRecvOob,
    /// `send_pickle_oob_cdt`.
    PickleSendOobCdt,
    /// `recv_pickle_oob_cdt`.
    PickleRecvOobCdt,
}

impl Call {
    /// Every call, in report order.
    pub const ALL: [Call; 14] = [
        Call::DatatypePackSlice,
        Call::DatatypeUnpackSlice,
        Call::CoreTransferBytes,
        Call::CoreTransferTyped,
        Call::CoreTransferCustomPack,
        Call::CoreTransferCustomRegion,
        Call::AppPackManual,
        Call::AppUnpackManual,
        Call::PickleSendBasic,
        Call::PickleRecvBasic,
        Call::PickleSendOob,
        Call::PickleRecvOob,
        Call::PickleSendOobCdt,
        Call::PickleRecvOobCdt,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Call::DatatypePackSlice => "datatype.pack_slice",
            Call::DatatypeUnpackSlice => "datatype.unpack_slice",
            Call::CoreTransferBytes => "core.transfer_bytes",
            Call::CoreTransferTyped => "core.transfer_typed",
            Call::CoreTransferCustomPack => "core.transfer_custom_pack",
            Call::CoreTransferCustomRegion => "core.transfer_custom_region",
            Call::AppPackManual => "app.pack_manual",
            Call::AppUnpackManual => "app.unpack_manual",
            Call::PickleSendBasic => "pickle.send_basic",
            Call::PickleRecvBasic => "pickle.recv_basic",
            Call::PickleSendOob => "pickle.send_oob",
            Call::PickleRecvOob => "pickle.recv_oob",
            Call::PickleSendOobCdt => "pickle.send_oob_cdt",
            Call::PickleRecvOobCdt => "pickle.recv_oob_cdt",
        }
    }
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole op (the root of its tree).
    Op,
    /// One call into a layer.
    Call(Call),
}

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub kind: Kind,
    /// Index of the op in the run (shared by an op and its calls).
    pub op: u32,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Span recorder. Disabled, [`Tracer::call`] is a plain call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    cap: usize,
    open: u32,
}

impl Tracer {
    /// A disabled tracer that keeps at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        Self {
            enabled: false,
            base: Instant::now(),
            spans: Vec::new(),
            cap,
            open: NO_PARENT,
        }
    }

    /// Turn recording on or off (between ops).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether another op tree of up to `per_op` spans would overflow.
    pub fn nearly_full(&self, per_op: usize) -> bool {
        self.spans.len() + per_op > self.cap
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    /// Open the root span of op `op`, started at `start`.
    pub fn begin_op(&mut self, op: u32, start: Instant) {
        if !self.enabled {
            return;
        }
        self.open = self.spans.len() as u32;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            kind: Kind::Op,
            op,
            parent: NO_PARENT,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the open op span at `end`.
    pub fn end_op(&mut self, end: Instant) {
        if self.open == NO_PARENT {
            return;
        }
        let end_ns = self.ns(end);
        self.spans[self.open as usize].end_ns = end_ns;
        self.open = NO_PARENT;
    }

    /// Run `f` as one call into a layer, recording a child span of the
    /// open op when enabled.
    #[inline]
    pub fn call<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let op = self
            .spans
            .get(self.open as usize)
            .map_or(u32::MAX, |s| s.op);
        self.spans.push(Span {
            kind: Kind::Call(call),
            op,
            parent: self.open,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        });
        r
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the first `limit` spans as CSV (`op,parent,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "# {} spans recorded, {} written",
            self.spans.len(),
            self.spans.len().min(limit)
        )?;
        writeln!(w, "index,op,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let name = match s.kind {
                Kind::Op => "op",
                Kind::Call(c) => c.name(),
            };
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i},{},{parent},{name},{},{}",
                s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Per-call statistics over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    /// Number of spans.
    pub samples: usize,
    /// Median self time, µs.
    pub p50_us: f64,
    /// 99th-percentile self time, µs.
    pub p99_us: f64,
    /// Total self time over total op wall time.
    pub share: f64,
}

/// What a trace says about where op time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Statistics per call, in [`Call::ALL`] order.
    pub calls: Vec<(Call, CallStats)>,
    /// Traced ops.
    pub ops: usize,
    /// Total op wall time, ns.
    pub op_wall_ns: u64,
    /// Op wall time covered by no call, over total op wall time.
    pub unattributed_share: f64,
}

/// Derive self times and shares from `spans`.
pub fn summarize(spans: &[Span]) -> Summary {
    // Children are recorded after their parent and, on one thread, in
    // start order, so one pass merging each child into its parent's
    // covered prefix computes the union of the children.
    let mut covered = vec![0u64; spans.len()];
    let mut reach = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let from = s.start_ns.max(reach[p]).max(spans[p].start_ns);
        let to = s.end_ns.min(spans[p].end_ns);
        if to > from {
            covered[p] += to - from;
        }
        reach[p] = reach[p].max(s.end_ns);
    }
    let self_ns = |i: usize| (spans[i].end_ns - spans[i].start_ns).saturating_sub(covered[i]);

    let mut per_call: Vec<Vec<u64>> = vec![Vec::new(); Call::ALL.len()];
    let (mut ops, mut op_wall, mut op_self) = (0usize, 0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        match s.kind {
            Kind::Op => {
                ops += 1;
                op_wall += s.end_ns - s.start_ns;
                op_self += self_ns(i);
            }
            Kind::Call(c) => {
                let slot = Call::ALL.iter().position(|x| *x == c).expect("known call");
                per_call[slot].push(self_ns(i));
            }
        }
    }
    let share = |ns: u64| {
        if op_wall == 0 {
            0.0
        } else {
            ns as f64 / op_wall as f64
        }
    };
    let calls = Call::ALL
        .iter()
        .zip(per_call)
        .map(|(c, mut v)| {
            v.sort_unstable();
            let total: u64 = v.iter().sum();
            let stats = CallStats {
                samples: v.len(),
                p50_us: percentile(&v, 50.0) as f64 / 1e3,
                p99_us: percentile(&v, 99.0) as f64 / 1e3,
                share: share(total),
            };
            (*c, stats)
        })
        .collect();
    Summary {
        calls,
        ops,
        op_wall_ns: op_wall,
        unattributed_share: share(op_self),
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_and_closure() {
        let spans = [
            span(Kind::Op, NO_PARENT, 0, 100),
            span(Kind::Call(Call::AppPackManual), 0, 10, 30),
            span(Kind::Call(Call::CoreTransferBytes), 0, 30, 80),
            span(Kind::Op, NO_PARENT, 100, 200),
            span(Kind::Call(Call::CoreTransferBytes), 3, 100, 190),
        ];
        let s = summarize(&spans);
        assert_eq!(s.ops, 2);
        assert_eq!(s.op_wall_ns, 200);
        // Op self time: 30 + 10 ns of 200.
        assert!((s.unattributed_share - 0.2).abs() < 1e-12);
        let bytes = s.calls[2].1;
        assert_eq!(bytes.samples, 2);
        assert!((bytes.share - 0.7).abs() < 1e-12);
        assert_eq!(bytes.p99_us, 0.09);
        let total: f64 = s.calls.iter().map(|(_, c)| c.share).sum();
        assert!((total + s.unattributed_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_links_calls_to_their_op() {
        let mut t = Tracer::new(16);
        let r = t.call(Call::AppPackManual, || 1);
        assert_eq!(r, 1);
        assert!(t.spans().is_empty(), "disabled records nothing");
        t.set_enabled(true);
        t.begin_op(7, Instant::now());
        t.call(Call::CoreTransferTyped, || ());
        t.end_op(Instant::now());
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile::<u64>(&[], 50.0), 0);
    }
}
