//! Per-transfer flight recorder: a lock-free bounded ring of posts and
//! transfer records.
//!
//! The span tracer answers "where did this *process* spend time"; the
//! flight recorder answers "what happened to this *transfer*". Every
//! send/recv posted through the fabric gets a process-unique id and one
//! post event; every matched transfer leaves exactly one
//! [`TransferRecord`] (ids, ranks, tag, bytes, method, post/match/end
//! stamps, callback sums, modeled wire time, error code, straggler
//! verdict) — the same record every other fabric sink is written from.
//! Posts that never match stay visible as bare post events (a hang), and
//! unmatched posts that fail leave an [`EventKind::Error`] event. A crashed
//! or slow run leaves a black box behind: the ring can be dumped as JSON
//! lines ([`dump_jsonl`]) and read by the `mpicd-inspect` analyzer, which
//! turns each record into a timeline attributed to wait-for-match / pack /
//! wire / unpack.
//!
//! **Cost model.** Disabled (the default), every entry point is one
//! relaxed atomic load — the same discipline as [`crate::span!`]; no
//! clock read, no allocation, no id allocation ([`next_id`] returns 0 and
//! every recording call short-circuits on id 0). Enabled, recording an
//! entry is at most a clock read plus a handful of atomic stores into a
//! pre-allocated slot — no locks, no allocation, wait-free for writers.
//!
//! **Ring protocol.** Each slot holds a sequence word and the event
//! payload as plain atomics. A writer claims a global ticket
//! (`fetch_add`), then claims the slot via a single `compare_exchange` of
//! the sequence word to the odd value `2·ticket+1`; if another writer is
//! mid-write in that slot (it would take a full lap of the ring to
//! collide), the event is *dropped* and counted instead of torn. The
//! payload words are stored relaxed behind a release fence and the
//! sequence is published as the even value `2·ticket+2`. Readers validate
//! the sequence on both sides of the payload read (tickets are unique, so
//! ABA is impossible) and discard in-flight slots. The whole ring is
//! safe-code atomics — no `unsafe`, no locks, torn events are impossible.
//!
//! Enabling via the `MPICD_FLIGHT` environment variable (as opposed to
//! [`set_enabled`]) additionally arms *black-box* behaviour: recording an
//! [`EventKind::Error`] event or a failed [`TransferRecord`] dumps the ring
//! to the configured path, and a panic-hook dump is installed so aborts
//! leave a readable trace.

use crate::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use crate::time::now_ns;
use std::path::{Path, PathBuf};
use std::sync::{Once, OnceLock};

/// Payload words per ring slot (one encoded entry; a [`TransferRecord`]
/// fills them all).
const WORDS: usize = 18;

// ---- enable flag ------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
/// Dump-on-error / panic-hook behaviour; armed only by `MPICD_FLIGHT`
/// (environment) so programmatic test toggles never write files.
static AUTODUMP: AtomicBool = AtomicBool::new(false);
/// Sampling rate: [`next_id`] hands out a real id to every `SAMPLE`th
/// transfer and 0 to the rest (1 = record everything).
static SAMPLE: AtomicU64 = AtomicU64::new(1);
/// Transfers seen since the recorder was enabled; drives the every-Nth
/// sampling decision.
static SAMPLE_TICK: AtomicU64 = AtomicU64::new(0);

fn init_from_env() {
    ENV_INIT.call_once(|| {
        let cfg = crate::config::current();
        SAMPLE.store(cfg.flight_sample.max(1), Ordering::Relaxed);
        if cfg.flight {
            ENABLED.store(true, Ordering::Relaxed);
            AUTODUMP.store(true, Ordering::Relaxed);
            install_panic_hook();
        }
    });
}

/// Whether the flight recorder is currently enabled.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable the flight recorder at runtime (overrides
/// `MPICD_FLIGHT`). Unlike the environment knob this does *not* arm the
/// dump-on-error and panic-hook behaviour.
pub fn set_enabled(on: bool) {
    ENV_INIT.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

/// Set the sampling rate at runtime (overrides `MPICD_FLIGHT_SAMPLE`):
/// record every `n`th transfer end-to-end, 1 records everything. Sampling
/// happens at id-allocation time, so a sampled transfer keeps its *whole*
/// timeline and an unsampled one is wholly absent — never partial.
pub fn set_sample(n: u64) {
    ENV_INIT.call_once(|| {});
    SAMPLE.store(n.max(1), Ordering::Relaxed);
}

/// The current sampling rate (`n` as in "record every `n`th transfer").
pub fn sample() -> u64 {
    init_from_env();
    SAMPLE.load(Ordering::Relaxed)
}

fn install_panic_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some((path, n)) = dump_to_configured() {
            eprintln!(
                "[mpicd-obs] panic: dumped {n} flight events to {}",
                path.display()
            );
        }
        prev(info);
    }));
}

// ---- event model ------------------------------------------------------------

/// What a ring entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A send was posted (`id` is the transfer's send id from here on).
    PostSend = 0,
    /// A receive was posted (`id` is the receive-post id; the transfer's
    /// record carries it as `recv_id`). Unmatched posts are how a hang
    /// shows up in a dump.
    PostRecv = 1,
    /// A matched transfer finished, well or badly: one [`TransferRecord`].
    Transfer = 2,
    /// An unmatched post failed (cancel, shutdown) or a receive's
    /// post-transfer `finish` failed; `code` carries a stable error code.
    Error = 3,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Self::PostSend,
            1 => Self::PostRecv,
            2 => Self::Transfer,
            3 => Self::Error,
            _ => return None,
        })
    }

    /// Stable snake_case name used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::PostSend => "post_send",
            Self::PostRecv => "post_recv",
            Self::Transfer => "transfer",
            Self::Error => "error",
        }
    }
}

/// The protocol a transfer used, as decided at post/match time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Method {
    /// Not applicable / not yet decided (e.g. receive posts).
    #[default]
    Unknown = 0,
    /// Eager protocol: bounce-buffer copy at post time.
    Eager = 1,
    /// Rendezvous protocol: deferred until matched, handshake surcharge.
    Rendezvous = 2,
    /// Pipelined scatter/gather (the custom-datatype iov path).
    Pipelined = 3,
}

impl Method {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Self::Unknown,
            1 => Self::Eager,
            2 => Self::Rendezvous,
            3 => Self::Pipelined,
            _ => return None,
        })
    }

    /// Stable name used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Unknown => "unknown",
            Self::Eager => "eager",
            Self::Rendezvous => "rendezvous",
            Self::Pipelined => "pipelined",
        }
    }
}

/// One post or error event: [`EventKind::PostSend`],
/// [`EventKind::PostRecv`] or [`EventKind::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Post or error.
    pub kind: EventKind,
    /// Process-unique id (from [`next_id`]); never 0 in the ring.
    pub id: u64,
    /// Event timestamp, ns since the process trace epoch ([`now_ns`]).
    pub t_ns: u64,
    /// Source rank (-1 for wildcard receive posts).
    pub src: i32,
    /// Destination rank.
    pub dst: i32,
    /// Message tag (may be the wildcard on receive posts).
    pub tag: i32,
    /// Payload bytes (receive capacity on receive posts).
    pub bytes: u64,
    /// Transfer protocol.
    pub method: Method,
    /// Error code on `Error` events, else 0.
    pub code: u64,
}

impl FlightEvent {
    /// A zeroed event of `kind` for id `id`; chain the builder setters,
    /// then [`record`] it. `t_ns == 0` means "stamp at record".
    pub fn new(kind: EventKind, id: u64) -> Self {
        Self {
            kind,
            id,
            t_ns: 0,
            src: -1,
            dst: -1,
            tag: 0,
            bytes: 0,
            method: Method::Unknown,
            code: 0,
        }
    }

    /// Builder: explicit timestamp (ns since the trace epoch).
    pub fn at(mut self, t_ns: u64) -> Self {
        self.t_ns = t_ns;
        self
    }

    /// Builder: source and destination ranks.
    pub fn ranks(mut self, src: i32, dst: i32) -> Self {
        self.src = src;
        self.dst = dst;
        self
    }

    /// Builder: message tag.
    pub fn tag(mut self, tag: i32) -> Self {
        self.tag = tag;
        self
    }

    /// Builder: payload bytes.
    pub fn bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Builder: transfer protocol.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Builder: error code.
    pub fn code(mut self, code: u64) -> Self {
        self.code = code;
        self
    }

    /// Render as one JSON object (no trailing newline). All fields are
    /// numeric or fixed enum names, so no string escaping is needed.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"id\":{},\"t_ns\":{},\"src\":{},\"dst\":{},\"tag\":{},\"bytes\":{},\"method\":\"{}\",\"code\":{}}}",
            self.kind.as_str(),
            self.id,
            self.t_ns,
            self.src,
            self.dst,
            self.tag,
            self.bytes,
            self.method.as_str(),
            self.code,
        )
    }
}

/// The one record of a matched transfer, built when it finishes (well or
/// with an error). Every fabric sink — traffic counters, the wire ledger,
/// the `wire` span, telemetry, the straggler gate and the flight ring — is
/// written from it, so they cannot disagree.
///
/// Stamps are ns since the process trace epoch. The post stamps are 0
/// when the recorder was off at that post; match, end and the callback
/// sums are 0 when the transfer was not stamped (tracing, flight and
/// telemetry all off). A stamped record satisfies
/// `post_send_ns, post_recv_ns ≤ match_ns ≤ end_ns` and
/// `pack_ns + unpack_ns ≤ lanes × (end_ns − match_ns)`: every callback ran
/// between the match and end stamps, on one of `lanes` threads.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransferRecord {
    /// Send-side flight id (0 = not recorded).
    pub id: u64,
    /// Receive-post flight id (0 = the recorder was off at that post).
    pub recv_id: u64,
    /// Sender rank.
    pub src: i32,
    /// Receiver rank.
    pub dst: i32,
    /// Message tag.
    pub tag: i32,
    /// Payload bytes.
    pub bytes: u64,
    /// Transfer protocol.
    pub method: Method,
    /// Scatter/gather entries moved (the larger side's count).
    pub regions: u64,
    /// Send-post stamp.
    pub post_send_ns: u64,
    /// Receive-post stamp.
    pub post_recv_ns: u64,
    /// Match stamp: the fragment walk starts here.
    pub match_ns: u64,
    /// End stamp: completion, or the error exit.
    pub end_ns: u64,
    /// Σ pack-callback time, over every thread that ran a fragment.
    pub pack_ns: u64,
    /// Pack-callback invocations.
    pub pack_calls: u64,
    /// Σ unpack-callback time, over every thread that ran a fragment.
    pub unpack_ns: u64,
    /// Unpack-callback invocations.
    pub unpack_calls: u64,
    /// Threads that ran the fragments: 1 inline, the pool size when the
    /// worker pool ran them.
    pub lanes: u64,
    /// Modeled wire time (simulated, not CPU time); 0 on error.
    pub wire_ns: f64,
    /// Fabric error code, 0 when the transfer completed.
    pub error: u64,
    /// The online straggler gate flagged this transfer.
    pub straggler: bool,
}

impl TransferRecord {
    /// Match-to-end wall time.
    pub fn active_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.match_ns)
    }

    /// Render as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"transfer\",\"id\":{},\"recv_id\":{},\"src\":{},\"dst\":{},\"tag\":{},\"bytes\":{},\"method\":\"{}\",\"regions\":{},\"post_send_ns\":{},\"post_recv_ns\":{},\"match_ns\":{},\"end_ns\":{},\"pack_ns\":{},\"pack_calls\":{},\"unpack_ns\":{},\"unpack_calls\":{},\"lanes\":{},\"wire_ns\":{},\"error\":{},\"straggler\":{}}}",
            self.id,
            self.recv_id,
            self.src,
            self.dst,
            self.tag,
            self.bytes,
            self.method.as_str(),
            self.regions,
            self.post_send_ns,
            self.post_recv_ns,
            self.match_ns,
            self.end_ns,
            self.pack_ns,
            self.pack_calls,
            self.unpack_ns,
            self.unpack_calls,
            self.lanes,
            self.wire_ns as u64,
            self.error,
            self.straggler,
        )
    }
}

/// One decoded ring entry.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Event(FlightEvent),
    Transfer(TransferRecord),
}

impl Entry {
    /// Sort key of the dump: when the entry was written.
    fn t_ns(&self) -> (u64, u64) {
        match self {
            Self::Event(e) => (e.t_ns, e.id),
            Self::Transfer(r) => (r.end_ns, r.id),
        }
    }

    fn to_json(self) -> String {
        match self {
            Self::Event(e) => e.to_json(),
            Self::Transfer(r) => r.to_json(),
        }
    }

    /// Words 0–4 are shared (id, kind/method/flags, ranks, tag, bytes);
    /// the rest are kind-specific.
    fn encode(&self) -> [u64; WORDS] {
        let mut w = [0u64; WORDS];
        let (id, kind, method, src, dst, tag, bytes) = match self {
            Self::Event(e) => (e.id, e.kind, e.method, e.src, e.dst, e.tag, e.bytes),
            Self::Transfer(r) => (
                r.id,
                EventKind::Transfer,
                r.method,
                r.src,
                r.dst,
                r.tag,
                r.bytes,
            ),
        };
        w[0] = id;
        w[1] = kind as u64 | (method as u64) << 8;
        w[2] = (src as u32 as u64) | ((dst as u32 as u64) << 32);
        w[3] = tag as i64 as u64;
        w[4] = bytes;
        match self {
            Self::Event(e) => {
                w[5] = e.t_ns;
                w[6] = e.code;
            }
            Self::Transfer(r) => {
                w[1] |= u64::from(r.straggler) << 16;
                w[5..WORDS].copy_from_slice(&[
                    r.recv_id,
                    r.regions,
                    r.post_send_ns,
                    r.post_recv_ns,
                    r.match_ns,
                    r.end_ns,
                    r.pack_ns,
                    r.pack_calls,
                    r.unpack_ns,
                    r.unpack_calls,
                    r.lanes,
                    r.wire_ns.to_bits(),
                    r.error,
                ]);
            }
        }
        w
    }

    fn decode(w: &[u64; WORDS]) -> Option<Self> {
        let kind = EventKind::from_u8((w[1] & 0xff) as u8)?;
        let method = Method::from_u8(((w[1] >> 8) & 0xff) as u8)?;
        let (src, dst) = (w[2] as u32 as i32, (w[2] >> 32) as u32 as i32);
        let tag = (w[3] as i64) as i32;
        if kind != EventKind::Transfer {
            return Some(Self::Event(FlightEvent {
                kind,
                id: w[0],
                t_ns: w[5],
                src,
                dst,
                tag,
                bytes: w[4],
                method,
                code: w[6],
            }));
        }
        Some(Self::Transfer(TransferRecord {
            id: w[0],
            recv_id: w[5],
            src,
            dst,
            tag,
            bytes: w[4],
            method,
            regions: w[6],
            post_send_ns: w[7],
            post_recv_ns: w[8],
            match_ns: w[9],
            end_ns: w[10],
            pack_ns: w[11],
            pack_calls: w[12],
            unpack_ns: w[13],
            unpack_calls: w[14],
            lanes: w[15],
            wire_ns: f64::from_bits(w[16]),
            error: w[17],
            straggler: (w[1] >> 16) & 1 == 1,
        }))
    }
}

// ---- the ring ---------------------------------------------------------------

struct Slot<const W: usize> {
    /// `2·ticket+1` while a writer owns the slot, `2·ticket+2` once the
    /// payload for `ticket` is published, 0 when never written.
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// The ring of `W`-word slots. The recorder's ring is `Ring<WORDS>`; the
/// width is a parameter only so the model tests can check the protocol
/// over a narrower payload (every word is stored and loaded alike, and
/// the checker's weak-memory choices double with each word).
struct Ring<const W: usize = WORDS> {
    slots: Box<[Slot<W>]>,
    /// Next ticket; ticket `n` lives in slot `n % capacity`.
    head: AtomicU64,
    /// Events dropped because the claiming CAS lost (a writer was lapped
    /// mid-write — requires a full ring lap during one record).
    contended: AtomicU64,
}

impl<const W: usize> Ring<W> {
    fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        Self {
            slots,
            head: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    fn push(&self, words: [u64; W]) {
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let cur = slot.seq.load(Ordering::Relaxed);
        let claimed = cur & 1 == 0
            && slot
                .seq
                .compare_exchange(
                    cur,
                    n.wrapping_mul(2).wrapping_add(1),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_ok();
        if !claimed {
            // Another writer owns the slot (we were lapped); drop rather
            // than tear.
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        }
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq
            .store(n.wrapping_mul(2).wrapping_add(2), Ordering::Release);
    }

    /// Read the payload published for ticket `n`, if still intact.
    fn read(&self, n: u64) -> Option<[u64; W]> {
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let expect = n.wrapping_mul(2).wrapping_add(2);
        if slot.seq.load(Ordering::Acquire) != expect {
            return None;
        }
        let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        // Tickets are unique, so seeing `expect` again proves no writer
        // touched the payload in between.
        if slot.seq.load(Ordering::Relaxed) != expect {
            return None;
        }
        Some(words)
    }

    /// Entries overwritten by the bounded ring plus contention drops.
    fn lost(&self) -> u64 {
        let overwritten = self
            .head
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots.len() as u64);
        overwritten + self.contended.load(Ordering::Relaxed)
    }
}

impl Ring {
    /// Decode every intact entry with ticket >= `mark`, oldest first.
    fn snapshot_since(&self, mark: u64) -> Vec<Entry> {
        let head = self.head.load(Ordering::Acquire);
        let lo = head
            .saturating_sub(self.slots.len() as u64)
            .max(mark)
            .min(head);
        (lo..head)
            .filter_map(|n| self.read(n))
            .filter_map(|w| Entry::decode(&w))
            .collect()
    }
}

static RING: OnceLock<Ring> = OnceLock::new();

fn ring() -> &'static Ring {
    RING.get_or_init(|| Ring::new(crate::config::current().flight_capacity))
}

// ---- recording API ----------------------------------------------------------

/// Allocate a process-unique transfer id, or 0 when the recorder is
/// disabled (id 0 short-circuits every later recording call, keeping the
/// disabled hot path at one relaxed atomic load per call site).
///
/// With sampling enabled (`MPICD_FLIGHT_SAMPLE=N` / [`set_sample`]),
/// every `N`th post gets a real id and the rest get 0 — so a sampled
/// transfer keeps its post and its record while an unsampled one stays
/// wholly absent, and the recorder can stay on under soak-level traffic.
/// The disabled path is untouched: still the single relaxed load.
pub fn next_id() -> u64 {
    if !enabled() {
        return 0;
    }
    let n = SAMPLE.load(Ordering::Relaxed);
    if n > 1
        && !SAMPLE_TICK
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(n)
    {
        return 0;
    }
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Record a post or error event and return its timestamp (0 when nothing
/// was recorded: recorder disabled or `ev.id == 0`). A zero `t_ns` is
/// stamped with [`now_ns`] at record time. Recording an
/// [`EventKind::Error`] event while the recorder was armed by
/// `MPICD_FLIGHT` dumps the ring (the black-box behaviour).
pub fn record(mut ev: FlightEvent) -> u64 {
    debug_assert_ne!(ev.kind, EventKind::Transfer, "use record_transfer");
    if ev.id == 0 || !enabled() {
        return 0;
    }
    if ev.t_ns == 0 {
        ev.t_ns = now_ns();
    }
    ring().push(Entry::Event(ev).encode());
    if ev.kind == EventKind::Error {
        autodump(ev.id, ev.code);
    }
    ev.t_ns
}

/// Record a transfer's record. No-op when disabled or `rec.id == 0`. A
/// record with an error code dumps the ring when armed, as an
/// [`EventKind::Error`] event does.
pub fn record_transfer(rec: &TransferRecord) {
    if rec.id == 0 || !enabled() {
        return;
    }
    ring().push(Entry::Transfer(*rec).encode());
    if rec.error != 0 {
        autodump(rec.id, rec.error);
    }
}

/// The black box: dump the ring when `MPICD_FLIGHT` armed it.
fn autodump(id: u64, code: u64) {
    if !AUTODUMP.load(Ordering::Relaxed) {
        return;
    }
    if let Some((path, n)) = dump_to_configured() {
        eprintln!(
            "[mpicd-obs] transfer {id} failed (code {code}): dumped {n} flight events to {}",
            path.display()
        );
    }
}

// ---- reading & dumping ------------------------------------------------------

/// Current ring position; pass to [`events_since`] / [`transfers_since`]
/// to scope a window.
pub fn mark() -> u64 {
    match RING.get() {
        Some(r) => r.head.load(Ordering::Acquire),
        None => 0,
    }
}

fn entries_since(mark: u64) -> Vec<Entry> {
    match RING.get() {
        Some(r) => r.snapshot_since(mark),
        None => Vec::new(),
    }
}

/// Post and error events currently in the ring, oldest first.
pub fn events() -> Vec<FlightEvent> {
    events_since(0)
}

/// Post and error events recorded at or after `mark` (from [`mark`]).
pub fn events_since(mark: u64) -> Vec<FlightEvent> {
    entries_since(mark)
        .into_iter()
        .filter_map(|e| match e {
            Entry::Event(e) => Some(e),
            Entry::Transfer(_) => None,
        })
        .collect()
}

/// Transfer records currently in the ring, oldest first.
pub fn transfers() -> Vec<TransferRecord> {
    transfers_since(0)
}

/// Transfer records written at or after `mark` (from [`mark`]).
pub fn transfers_since(mark: u64) -> Vec<TransferRecord> {
    entries_since(mark)
        .into_iter()
        .filter_map(|e| match e {
            Entry::Transfer(r) => Some(r),
            Entry::Event(_) => None,
        })
        .collect()
}

/// Total entries lost so far: overwritten by the bounded ring, plus the
/// (vanishingly rare) contention drops. Surfaced by
/// [`crate::export::summary_of`] and the dump's meta line so a truncated
/// recording is never silently read as complete.
pub fn overflowed() -> u64 {
    match RING.get() {
        Some(r) => r.lost(),
        None => 0,
    }
}

/// Write the ring to `path` as JSON lines: one `flight_meta` header line
/// (format version 3, line count, overflow count, trace-ring drops,
/// sampling rate), then one line per post, error or transfer in time
/// order (a transfer sorts by its end stamp). The file is replaced
/// atomically (staged as `<path>.tmp`, then renamed), so a reader racing
/// the dump sees a previous complete dump or this one — never a torn
/// file. Returns the number of entries written.
pub fn dump_jsonl(path: &Path) -> std::io::Result<usize> {
    let mut entries = entries_since(0);
    entries.sort_by_key(Entry::t_ns);
    let mut out = String::with_capacity(128 + entries.len() * 256);
    out.push_str(&format!(
        "{{\"kind\":\"flight_meta\",\"version\":3,\"events\":{},\"overflowed\":{},\"trace_dropped\":{},\"sample\":{}}}\n",
        entries.len(),
        overflowed(),
        crate::trace::dropped_events(),
        SAMPLE.load(Ordering::Relaxed),
    ));
    for e in entries.iter().copied() {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    crate::fsio::write_atomic(path, out.as_bytes())?;
    Ok(entries.len())
}

/// Dump to the configured path (`MPICD_FLIGHT_PATH` or the default).
/// Returns the path and event count on success; errors are swallowed
/// (this runs from panic hooks and error paths).
pub fn dump_to_configured() -> Option<(PathBuf, usize)> {
    let path = crate::config::current().flight_path();
    dump_jsonl(&path).ok().map(|n| (path, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flag and global ring are process-wide; unit tests here
    // exercise only local `Ring` instances and pure encode/decode, which
    // are safe under parallel test threads. Enabled end-to-end behaviour
    // lives in the crate's integration tests (own processes).

    fn ev(kind: EventKind, id: u64) -> Entry {
        Entry::Event(
            FlightEvent::new(kind, id)
                .at(123_456)
                .ranks(0, 3)
                .tag(-7)
                .bytes(4096)
                .method(Method::Pipelined)
                .code(99),
        )
    }

    fn rec(id: u64) -> TransferRecord {
        TransferRecord {
            id,
            recv_id: id + 1,
            src: -1,
            dst: 5,
            tag: -2,
            bytes: 4096,
            method: Method::Rendezvous,
            regions: 3,
            post_send_ns: 10,
            post_recv_ns: 11,
            match_ns: 20,
            end_ns: 90,
            pack_ns: 30,
            pack_calls: 4,
            unpack_ns: 25,
            unpack_calls: 5,
            lanes: 2,
            wire_ns: 1234.5,
            error: 7,
            straggler: true,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for kind in [EventKind::PostSend, EventKind::PostRecv, EventKind::Error] {
            let e = ev(kind, 42);
            assert_eq!(Entry::decode(&e.encode()), Some(e));
        }
        // Every record field, negative ranks and tags and the fractional
        // modeled wire time included, survives the packing.
        let r = Entry::Transfer(rec(9));
        assert_eq!(Entry::decode(&r.encode()), Some(r));
    }

    #[test]
    fn decode_rejects_garbage_kind() {
        let mut w = ev(EventKind::PostSend, 1).encode();
        w[1] = 0xff; // invalid kind byte
        assert_eq!(Entry::decode(&w), None);
    }

    #[test]
    fn ring_keeps_most_recent_window() {
        let r = Ring::new(4);
        for i in 0..10u64 {
            r.push(ev(EventKind::PostSend, i + 1).encode());
        }
        let ids: Vec<u64> = r.snapshot_since(0).iter().map(|e| e.t_ns().1).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "oldest six were overwritten");
        assert_eq!(r.lost(), 6);
    }

    #[test]
    fn ring_snapshot_since_scopes_window() {
        let r = Ring::new(16);
        r.push(ev(EventKind::PostSend, 1).encode());
        let mark = r.head.load(Ordering::Acquire);
        r.push(Entry::Transfer(rec(2)).encode());
        let entries = r.snapshot_since(mark);
        assert_eq!(entries, vec![Entry::Transfer(rec(2))]);
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        // Hammer a tiny ring from several threads; every entry that
        // survives must decode to one of the written payloads intact.
        let r = Ring::new(8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let id = t * 1_000_000 + i + 1;
                        let entry = Entry::Transfer(TransferRecord {
                            id,
                            match_ns: id,
                            end_ns: id,
                            bytes: id,
                            error: id,
                            ..TransferRecord::default()
                        });
                        r.push(entry.encode());
                    }
                });
            }
        });
        for e in r.snapshot_since(0) {
            let Entry::Transfer(t) = e else {
                panic!("only records were written")
            };
            assert_eq!(t.end_ns, t.id, "payload words all from one record");
            assert_eq!((t.match_ns, t.bytes, t.error), (t.id, t.id, t.id));
        }
    }

    #[test]
    fn json_line_shape() {
        let s = ev(EventKind::PostSend, 9).to_json();
        assert!(s.starts_with("{\"kind\":\"post_send\",\"id\":9,"));
        assert!(s.contains("\"tag\":-7"));
        assert!(s.contains("\"method\":\"pipelined\""));
        assert!(s.ends_with("\"code\":99}"));
        let t = Entry::Transfer(rec(9)).to_json();
        assert!(t.starts_with("{\"kind\":\"transfer\",\"id\":9,\"recv_id\":10,"));
        assert!(
            t.contains("\"wire_ns\":1234,"),
            "modeled ns print whole: {t}"
        );
        assert!(t.ends_with("\"error\":7,\"straggler\":true}"));
    }
}

/// Model-checked seqlock protocol tests. Run with
/// `RUSTFLAGS="--cfg mpicd_check" cargo test -p mpicd-obs`; under that cfg
/// the ring's atomics resolve to `mpicd-check` instrumented primitives and
/// these tests explore thread interleavings and weak-memory outcomes.
#[cfg(all(test, mpicd_check))]
mod model_tests {
    use super::*;
    use mpicd_check::{model, thread as mthread, Model};
    use std::sync::Arc;

    /// A distinguishable payload: word `i` holds `base + i`, so any mix of
    /// two payloads (a torn read) breaks the pattern.
    /// Payload width of the model rings: the recorder's ring before it
    /// carried transfer records, which bounds the checker's exploration.
    const W: usize = 10;

    fn pat(base: u64) -> [u64; W] {
        std::array::from_fn(|i| base + i as u64)
    }

    /// Two writers race for the single slot of a capacity-1 ring. Whatever
    /// the interleaving, exactly one ticket ends up readable, its payload is
    /// untorn, and `lost()` accounts for the evicted/dropped event.
    #[test]
    fn concurrent_writers_preserve_slot_integrity() {
        model(|| {
            let ring = Arc::new(Ring::new(1));
            let (r1, r2) = (Arc::clone(&ring), Arc::clone(&ring));
            let t1 = mthread::spawn(move || r1.push(pat(1000)));
            let t2 = mthread::spawn(move || r2.push(pat(2000)));
            t1.join();
            t2.join();
            let reads = [ring.read(0), ring.read(1)];
            let intact: Vec<_> = reads.iter().flatten().collect();
            assert_eq!(
                intact.len(),
                1,
                "a capacity-1 ring keeps exactly one published ticket"
            );
            let words = *intact[0];
            assert!(
                words == pat(1000) || words == pat(2000),
                "published payload is one complete event, never a mix: {words:?}"
            );
            let lost = ring.lost();
            assert!(
                (1..=2).contains(&lost),
                "loss accounting covers the overwritten ticket (and a \
                 contention drop if the CAS lost): lost={lost}"
            );
        });
    }

    /// Ticket 0 is published, then a second writer overwrites the slot while
    /// the main thread reads ticket 0. The double-checked seqlock read must
    /// return either the complete ticket-0 payload or `None` — the
    /// `fence(Acquire)` + seq recheck forbids observing the overwrite
    /// half-done.
    #[test]
    fn reader_sees_complete_payload_or_nothing_under_overwrite() {
        model(|| {
            let ring = Arc::new(Ring::new(1));
            ring.push(pat(1000)); // ticket 0, published synchronously
            let r = Arc::clone(&ring);
            let w = mthread::spawn(move || r.push(pat(2000))); // laps ticket 0
            if let Some(words) = ring.read(0) {
                assert_eq!(
                    words,
                    pat(1000),
                    "an accepted ticket-0 read is the ticket-0 payload"
                );
            }
            w.join();
        });
    }

    /// A writer publishes concurrently with a reader polling its ticket: an
    /// accepted read carries the complete payload (release publish /
    /// acquire observe).
    #[test]
    fn concurrent_publish_is_all_or_nothing() {
        model(|| {
            let ring = Arc::new(Ring::new(2));
            let r = Arc::clone(&ring);
            let w = mthread::spawn(move || r.push(pat(7000)));
            if let Some(words) = ring.read(0) {
                assert_eq!(words, pat(7000), "publish is all-or-nothing");
            }
            w.join();
        });
    }

    /// `Ring::push` with one seeded mutation: the publishing
    /// `seq` store downgraded from `Release` to `Relaxed`. Everything else is
    /// identical to the real implementation.
    fn push_publish_relaxed(ring: &Ring<W>, words: [u64; W]) {
        let n = ring.head.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[(n % ring.slots.len() as u64) as usize];
        let cur = slot.seq.load(Ordering::Relaxed);
        let claimed = cur & 1 == 0
            && slot
                .seq
                .compare_exchange(
                    cur,
                    n.wrapping_mul(2).wrapping_add(1),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_ok();
        if !claimed {
            ring.contended.fetch_add(1, Ordering::Relaxed);
            return;
        }
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        // BUG under test: `Relaxed` where the real code uses `Release`, so
        // the payload stores are no longer ordered before the publish.
        slot.seq
            .store(n.wrapping_mul(2).wrapping_add(2), Ordering::Relaxed);
    }

    /// Negative test: the checker must catch the downgraded publish. With a
    /// `Relaxed` publish a reader that observes `seq == 2n+2` is *not*
    /// guaranteed to see the payload stores, so it can accept a stale
    /// (zeroed/partial) payload — the model checker must find such a
    /// schedule and report our assertion.
    #[test]
    fn checker_catches_relaxed_publish_mutation() {
        let failure = Model::new()
            .find_bug(|| {
                let ring = Arc::new(Ring::new(2));
                let r = Arc::clone(&ring);
                let w = mthread::spawn(move || push_publish_relaxed(&r, pat(7000)));
                if let Some(words) = ring.read(0) {
                    assert_eq!(words, pat(7000), "accepted read must be complete");
                }
                w.join();
            })
            .expect("the relaxed publish must be caught as a torn/stale read");
        assert!(
            failure.message.contains("accepted read must be complete"),
            "failure is our torn-read assertion: {}",
            failure.message
        );
    }
}
