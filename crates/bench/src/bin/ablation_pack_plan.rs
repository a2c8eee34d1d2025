//! Ablation: interpreted vs. compiled packing across the DDTBench patterns.
//!
//! Each pattern's derived datatype is committed three ways and driven
//! through the same resumable fragment loop the fabric uses:
//!
//! * **convertor** — `commit_convertor()`, the Open MPI-style per-block
//!   interpreter (the paper's baseline; untouched by the plan compiler);
//! * **interpreted** — `commit_interpreted()`, the merged-block engine
//!   without a compiled plan (this workspace's pre-plan behavior);
//! * **compiled** — `commit()`, the pack-plan compiler with strided ops
//!   and its static per-op copy kernels (see `mpicd_datatype::plan`).
//!
//! Patterns are the DDTBench set plus `REGISTER`, an array-of-struct
//! record (3×i32 + f64 with trailing padding) whose alternating runs
//! exercise the two-block `Pair` fusion, and `REGISTER×count`, the same
//! records sent the MPI way as `count` elements of the record type — the
//! plan's element fold must make it cost what `REGISTER` costs.
//!
//! The table reports pack throughput per engine plus the compiled/
//! interpreted and compiled/convertor speedups, and a second table shows
//! how far each plan canonicalizes the layout (merged blocks → plan ops).
//! Two more tables, printed only, show the commit layer's cost: each
//! pattern's first commit time per engine, and the heap bytes each
//! engine's committed type keeps (counted by this binary's allocator).
//! Byte-identity across all three engines is asserted on every pattern
//! before anything is timed.

use mpicd_bench::harness::Sample;
use mpicd_bench::{emit_json, obs_finish, quick_mode, Table};
use mpicd_datatype::{Committed, Datatype};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// The system allocator, counting the heap bytes live in the process.
struct Counting;

/// Heap bytes live in the process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is only
// bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size.wrapping_sub(layout.size()), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes `c` held: what dropping it frees.
fn retained(c: Committed) -> Sample {
    let live = LIVE.load(Relaxed);
    drop(c);
    Sample::point(live.wrapping_sub(LIVE.load(Relaxed)) as f64, 0.0)
}

/// `f()` and its wall time in µs.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let t0 = Instant::now();
    let out = f();
    (out, Sample::point(t0.elapsed().as_secs_f64() * 1e6, 0.0))
}

/// Fragment size of the timed pack loop — the fabric's generic-payload
/// default granularity.
const FRAG: usize = 64 * 1024;

/// Pack the full stream of `count` elements once through `FRAG`-sized
/// fragments.
fn pack_once(c: &Committed, base: &[u8], count: usize, buf: &mut [u8]) -> usize {
    let mut off = 0usize;
    loop {
        // SAFETY: `base` spans `count` elements of the committed type
        // (asserted by the caller via `required_span` before timing).
        let n = unsafe { c.pack_segment(base.as_ptr(), count, off, buf) };
        if n == 0 {
            return off;
        }
        off += n;
    }
}

/// Mean pack throughput in MB/s over `runs` timed repetitions.
fn throughput(c: &Committed, base: &[u8], count: usize, reps: usize, runs: usize) -> Sample {
    let mut buf = vec![0u8; FRAG];
    let bytes = (c.size() * count * reps) as f64;
    let vals: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(pack_once(c, base, count, &mut buf));
            }
            bytes / t0.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    Sample::from_values(&vals)
}

/// One benchmarked pattern: name, datatype, element count, and a backing
/// buffer.
fn patterns(target: usize) -> Vec<(String, Datatype, usize, Vec<u8>)> {
    let mut out = Vec::new();
    for name in mpicd_ddtbench::BENCHMARKS {
        let p = mpicd_ddtbench::make(name, target);
        out.push((name.to_string(), p.datatype(), 1, p.base().to_vec()));
    }
    // Array-of-struct record stream (SNIPPETS.md traffic-detector shape):
    // {3×i32, pad, f64, pad} resized to a 32-byte extent — alternating
    // 12/8-byte runs that fuse into one `Pair` op per record batch.
    let field = Datatype::structure(vec![
        (3, 0, Datatype::of::<i32>()),
        (1, 16, Datatype::of::<f64>()),
    ]);
    let records = (target / 20).max(1);
    let record = Datatype::resized(0, 32, field);
    let dt = Datatype::contiguous(records, record.clone());
    let base: Vec<u8> = (0..records * 32).map(|i| (i % 251) as u8).collect();
    out.push(("REGISTER".to_string(), dt, 1, base.clone()));
    out.push(("REGISTER×count".to_string(), record, records, base));
    out
}

fn main() {
    let target = if quick_mode() { 128 * 1024 } else { 1 << 20 };
    let runs = 4; // the paper's 4-run averaging
    let mut tput = Table::new(
        &format!("Ablation: pack engine throughput ({target} B payloads)"),
        "pattern",
        "MB/s",
        vec![
            "convertor".into(),
            "interpreted".into(),
            "compiled".into(),
            "× vs interp".into(),
            "× vs convertor".into(),
        ],
    );
    let mut shape = Table::new(
        "Plan canonicalization (per element)",
        "pattern",
        "count",
        vec!["merged blocks".into(), "plan ops".into()],
    );
    let mut commit_us = Table::new(
        "Cold commit time (one commit per engine)",
        "pattern",
        "µs",
        vec!["commit".into(), "interpreted".into(), "convertor".into()],
    );
    let mut heap = Table::new(
        "Heap retained per committed type",
        "pattern",
        "B",
        vec!["commit".into(), "interpreted".into(), "convertor".into()],
    );

    for (name, dt, count, base) in patterns(target) {
        let (convertor, conv_us) = timed(|| dt.commit_convertor().expect("valid datatype"));
        let (interpreted, interp_us) = timed(|| dt.commit_interpreted().expect("valid datatype"));
        let (compiled, comp_us) = timed(|| dt.commit().expect("valid datatype"));
        commit_us.push(&name, vec![Some(comp_us), Some(interp_us), Some(conv_us)]);
        let base = &base[..];
        assert!(compiled.required_span(count).expect("span fits") <= base.len());

        // Byte-identity across all three engines before timing anything.
        let reference = convertor.pack_slice(base, count).expect("convertor pack");
        assert_eq!(
            interpreted
                .pack_slice(base, count)
                .expect("interpreted pack"),
            reference,
            "{name}: interpreted engine diverges"
        );
        assert_eq!(
            compiled.pack_slice(base, count).expect("compiled pack"),
            reference,
            "{name}: compiled plan diverges"
        );

        // Calibrate repetitions to ~payload-independent wall time.
        let reps = if quick_mode() {
            4
        } else {
            ((256 << 20) / reference.len().max(1)).clamp(8, 512)
        };
        let conv = throughput(&convertor, base, count, reps, runs);
        let interp = throughput(&interpreted, base, count, reps, runs);
        let comp = throughput(&compiled, base, count, reps, runs);
        let vs_interp = Sample::point(comp.mean / interp.mean, 0.0);
        let vs_conv = Sample::point(comp.mean / conv.mean, 0.0);
        tput.push(
            &name,
            vec![
                Some(conv),
                Some(interp),
                Some(comp),
                Some(vs_interp),
                Some(vs_conv),
            ],
        );
        let plan = compiled.plan().expect("commit() compiles a plan");
        shape.push(
            &name,
            vec![
                Some(Sample::point(interpreted.block_count() as f64, 0.0)),
                Some(Sample::point(plan.op_count() as f64, 0.0)),
            ],
        );
        heap.push(
            &name,
            vec![
                Some(retained(compiled)),
                Some(retained(interpreted)),
                Some(retained(convertor)),
            ],
        );
    }

    tput.print();
    shape.print();
    commit_us.print();
    heap.print();
    emit_json("ablation_pack_plan", &tput);
    emit_json("ablation_pack_plan_shape", &shape);

    // Plan observability: per-kernel byte attribution.
    let snap = mpicd_obs::global().snapshot();
    println!("# plan counters");
    for name in [
        "plan.kernel.memcpy_bytes",
        "plan.kernel.fixed4_bytes",
        "plan.kernel.fixed16_bytes",
        "plan.kernel.gather64_bytes",
        "plan.kernel.gather128_bytes",
        "plan.kernel.wide_bytes",
        "plan.kernel.generic_bytes",
    ] {
        println!("{name:<28} {}", snap.counter(name));
    }
    obs_finish();
}
