//! Commit memory: `commit()` streams a type's runs into the plan compiler,
//! so committing a type of a million runs keeps, and at its peak
//! allocates, heap in proportion to the plan's ops, not to the runs. A
//! block list of those runs would take 16 MiB, its prefix table 8 MiB
//! more.
//!
//! A counting global allocator tracks the heap live in this test binary,
//! which holds this one test so that nothing else allocates meanwhile.

use mpicd_datatype::Datatype;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// The system allocator, counting live heap bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, SeqCst) + bytes;
    PEAK.fetch_max(live, SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters are only
// bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        let out = System.realloc(ptr, layout, new_size);
        LIVE.fetch_sub(layout.size(), SeqCst);
        out
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn million_run_commit_holds_and_allocates_o_ops() {
    let dbl = Datatype::of::<f64>;
    // 2^20 lone doubles at a stride of two: one `Strided` op.
    let strided = Datatype::vector(1 << 20, 1, 2, dbl());
    // 1024 rows of 1024 strided doubles: one `Nest2` op (a NAS face).
    let row = Datatype::hvector(1024, 1, 16, dbl());
    let nested = Datatype::hvector(1024, 1, 16 * 1024 + 64, row);
    for (name, t) in [("strided", strided), ("nested", nested)] {
        let base = LIVE.load(SeqCst);
        PEAK.store(base, SeqCst);
        let c = t.commit().unwrap();
        let peak = PEAK.load(SeqCst) - base;
        let held = LIVE.load(SeqCst) - base;
        assert_eq!(c.block_count(), 1 << 20, "{name}: merged runs");
        assert_eq!(c.plan().unwrap().op_count(), 1, "{name}: plan ops");
        assert!(peak < 64 << 10, "{name}: commit peaked at {peak} B of heap");
        assert!(held < 4 << 10, "{name}: the committed type holds {held} B");
        drop(c);
    }
}
