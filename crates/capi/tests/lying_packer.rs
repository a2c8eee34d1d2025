//! A C callback that lies fails the operation with a typed error on both
//! paths of the fragment engine (inline at one thread, the worker pool at
//! two), in debug and release builds alike. A negative `used` is rejected
//! by the C adapter, and a `used` larger than the fragment is rejected by
//! the engine; either way both sides fail instead of reporting bytes the
//! packer never wrote as delivered. A region with a null base and a
//! nonzero length, and a region list whose lengths sum past `isize::MAX`,
//! are rejected by the adapter when the operation is posted, on the send
//! and the receive side.
//!
//! Each case builds its own two-rank world with an explicit
//! `PipelineConfig` (no process environment, no global C world), and the
//! lie travels in the callback context, so the cases run in parallel
//! without sharing state.

use mpicd::datatype::{CustomPack, RandomAccessPacker, SendRegion};
use mpicd::fabric::{FabricError, PipelineConfig, WireModel};
use mpicd::{Error, Result, World};
use mpicd_capi::adapter::{CCustomPack, CCustomUnpack};
use mpicd_capi::*;
use std::os::raw::{c_int, c_void};
use std::sync::Mutex;

/// Packed bytes per message: four fragments at `FRAG`.
const TOTAL: usize = 1024;
const FRAG: usize = 256;

/// What the pack callback reports as `used`, relative to the room it got.
#[derive(Clone, Copy)]
enum Lie {
    Negative,
    OnePastRoom,
}

unsafe extern "C" fn statefn(
    context: *mut c_void,
    _src: *const c_void,
    _count: MPI_Count,
    state: *mut *mut c_void,
) -> c_int {
    *state = context;
    MPI_SUCCESS
}

unsafe extern "C" fn queryfn(
    _state: *mut c_void,
    _buf: *const c_void,
    _count: MPI_Count,
    packed_size: *mut MPI_Count,
) -> c_int {
    *packed_size = TOTAL as MPI_Count;
    MPI_SUCCESS
}

/// Fills the whole fragment honestly, then misreports the count.
unsafe extern "C" fn lying_packfn(
    state: *mut c_void,
    _buf: *const c_void,
    _count: MPI_Count,
    _offset: MPI_Count,
    dst: *mut c_void,
    dst_size: MPI_Count,
    used: *mut MPI_Count,
) -> c_int {
    std::ptr::write_bytes(dst.cast::<u8>(), 0x5A, dst_size as usize);
    *used = match *state.cast::<Lie>() {
        Lie::Negative => -1,
        Lie::OnePastRoom => dst_size + 1,
    };
    MPI_SUCCESS
}

fn callbacks(lie: &Lie) -> CustomCallbacks {
    CustomCallbacks {
        statefn,
        freefn: None,
        queryfn,
        packfn: Some(lying_packfn),
        unpackfn: None,
        region_countfn: None,
        regionfn: None,
        context: std::ptr::from_ref(lie).cast_mut().cast(),
        inorder: false,
    }
}

/// The C adapter behind a lock, offered to the pool as random access:
/// the lying callback is offset-addressed, so every fragment reaches it
/// through the adapter from whichever thread packs it.
struct Shared(Mutex<CCustomPack>);

impl CustomPack for Shared {
    fn packed_size(&self) -> Result<usize> {
        self.0.lock().unwrap().packed_size()
    }

    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
        self.0.get_mut().unwrap().pack(offset, dst)
    }

    fn regions(&mut self) -> Result<Vec<SendRegion>> {
        self.0.get_mut().unwrap().regions()
    }

    fn inorder(&self) -> bool {
        false
    }

    fn random_access(&self) -> Option<&dyn RandomAccessPacker> {
        Some(self)
    }
}

impl RandomAccessPacker for Shared {
    fn pack_at(&self, offset: usize, dst: &mut [u8]) -> std::result::Result<usize, i32> {
        self.0
            .lock()
            .unwrap()
            .pack(offset, dst)
            .map_err(|e| e.code())
    }
}

/// Send one lying message from rank 0 to rank 1 and return both sides'
/// outcomes and how many transfers were pipelined.
fn exchange(lie: Lie, pipeline: PipelineConfig) -> (Result<()>, Result<()>, u64) {
    let model = WireModel {
        frag_size: FRAG,
        ..WireModel::default()
    };
    let world = World::with_model_and_pipeline(2, model, pipeline);
    let (c0, c1) = world.pair();
    let mut buf = vec![0u8; TOTAL];
    let (sent, received) = std::thread::scope(|s| {
        let rx = s.spawn(|| c1.recv(&mut buf[..], 0, 7).map(|_| ()));
        // SAFETY: `lie` outlives the adapter; the buffer pointer is never
        // dereferenced by these callbacks.
        let ctx = unsafe { CCustomPack::new(callbacks(&lie), std::ptr::null(), 1) }.unwrap();
        let sent = if pipeline.threads > 1 {
            c0.send_custom(Box::new(Shared(Mutex::new(ctx))), 1, 7)
        } else {
            c0.send_custom(Box::new(ctx), 1, 7)
        };
        (sent.map(|_| ()), rx.join().unwrap())
    });
    (sent, received, world.fabric().stats().pipelined)
}

fn serial() -> PipelineConfig {
    PipelineConfig::with_threads(1)
}

fn pipelined() -> PipelineConfig {
    PipelineConfig::with_threads(2)
}

fn assert_overrun(r: &Result<()>, side: &str) {
    match r {
        Err(Error::Fabric(FabricError::PackOverrun { offset, used, room })) => {
            assert_eq!(*used, room + 1, "{side}: the claimed count is reported");
            assert!(*offset < TOTAL && *room <= FRAG, "{side}: {offset}/{room}");
        }
        other => panic!("{side}: expected PackOverrun, got {other:?}"),
    }
}

fn assert_negative_rejected(r: &Result<()>, side: &str) {
    assert_eq!(
        *r,
        Err(Error::Fabric(FabricError::PackFailed(MPI_ERR_ARG))),
        "{side}: the adapter rejects a negative count with MPI_ERR_ARG"
    );
}

#[test]
fn overreported_used_is_a_typed_error_on_the_serial_engine() {
    let (sent, received, pipelined) = exchange(Lie::OnePastRoom, serial());
    assert_eq!(pipelined, 0, "the serial engine ran the transfer");
    assert_overrun(&sent, "sender");
    assert_overrun(&received, "receiver");
}

#[test]
fn overreported_used_is_a_typed_error_on_the_pipelined_engine() {
    let (sent, received, pipelined) = exchange(Lie::OnePastRoom, pipelined());
    assert_eq!(pipelined, 1, "the pipelined engine ran the transfer");
    assert_overrun(&sent, "sender");
    assert_overrun(&received, "receiver");
}

#[test]
fn negative_used_is_rejected_on_the_serial_engine() {
    let (sent, received, pipelined) = exchange(Lie::Negative, serial());
    assert_eq!(pipelined, 0);
    assert_negative_rejected(&sent, "sender");
    assert_negative_rejected(&received, "receiver");
}

#[test]
fn negative_used_is_rejected_on_the_pipelined_engine() {
    let (sent, received, pipelined) = exchange(Lie::Negative, pipelined());
    assert_eq!(pipelined, 1);
    assert_negative_rejected(&sent, "sender");
    assert_negative_rejected(&received, "receiver");
}

/// One region of `TOTAL` bytes at address 0.
unsafe extern "C" fn one_region(
    _state: *mut c_void,
    _buf: *mut c_void,
    _count: MPI_Count,
    region_count: *mut MPI_Count,
) -> c_int {
    *region_count = 1;
    MPI_SUCCESS
}

unsafe extern "C" fn null_regionfn(
    _state: *mut c_void,
    _buf: *mut c_void,
    _count: MPI_Count,
    _region_count: MPI_Count,
    reg_bases: *mut *mut c_void,
    reg_lens: *mut MPI_Count,
    reg_types: *mut MPI_Datatype,
) -> c_int {
    *reg_bases = std::ptr::null_mut();
    *reg_lens = TOTAL as MPI_Count;
    *reg_types = MPI_BYTE;
    MPI_SUCCESS
}

/// Three regions of `MPI_Count::MAX` bytes at a non-null address that is
/// never dereferenced: each length passes on its own, their sum
/// overflows the operation's byte count.
unsafe extern "C" fn three_regions(
    _state: *mut c_void,
    _buf: *mut c_void,
    _count: MPI_Count,
    region_count: *mut MPI_Count,
) -> c_int {
    *region_count = 3;
    MPI_SUCCESS
}

unsafe extern "C" fn huge_regionfn(
    _state: *mut c_void,
    _buf: *mut c_void,
    _count: MPI_Count,
    region_count: MPI_Count,
    reg_bases: *mut *mut c_void,
    reg_lens: *mut MPI_Count,
    reg_types: *mut MPI_Datatype,
) -> c_int {
    for i in 0..region_count as usize {
        *reg_bases.add(i) = std::ptr::NonNull::<u8>::dangling().as_ptr().cast();
        *reg_lens.add(i) = MPI_Count::MAX;
        *reg_types.add(i) = MPI_BYTE;
    }
    MPI_SUCCESS
}

fn null_region_callbacks(lie: &Lie) -> CustomCallbacks {
    CustomCallbacks {
        region_countfn: Some(one_region),
        regionfn: Some(null_regionfn),
        ..callbacks(lie)
    }
}

fn huge_region_callbacks(lie: &Lie) -> CustomCallbacks {
    CustomCallbacks {
        region_countfn: Some(three_regions),
        regionfn: Some(huge_regionfn),
        ..callbacks(lie)
    }
}

/// Post a send, or a receive, whose C `regionfn` reports regions built by
/// `cb`: the post fails with `MPI_ERR_ARG` and nothing moves. Posted
/// without waiting, so an accepted post fails the test instead of
/// blocking it.
fn rejected_regions(cb: fn(&Lie) -> CustomCallbacks, pipeline: PipelineConfig, send: bool) {
    let world = World::with_model_and_pipeline(2, WireModel::default(), pipeline);
    let (c0, c1) = world.pair();
    let lie = Lie::Negative;
    let cb = cb(&lie);
    // SAFETY: the buffer pointer and the region bases are never
    // dereferenced, and a rejected post leaves no request behind.
    let r = unsafe {
        if send {
            let ctx = CCustomPack::new(cb, std::ptr::null(), 1).unwrap();
            c0.post_custom_send(Box::new(ctx), 1, 7).map(|_| ())
        } else {
            let mut ctx = CCustomUnpack::new(cb, std::ptr::null_mut(), 1).unwrap();
            c1.post_custom_recv(&mut ctx, 0, 7).map(|_| ())
        }
    };
    let side = if send { "send" } else { "receive" };
    let t = pipeline.threads;
    assert_eq!(
        r,
        Err(Error::Serialization(MPI_ERR_ARG)),
        "{side} at {t} threads"
    );
    assert_eq!(world.fabric().stats().messages, 0, "{side} at {t} threads");
}

#[test]
fn null_send_region_is_rejected() {
    rejected_regions(null_region_callbacks, serial(), true);
    rejected_regions(null_region_callbacks, pipelined(), true);
}

#[test]
fn null_recv_region_is_rejected() {
    rejected_regions(null_region_callbacks, serial(), false);
    rejected_regions(null_region_callbacks, pipelined(), false);
}

/// A region list longer than `isize::MAX` bytes in total is rejected at
/// the post, before any byte count is summed, on both sides and engines.
#[test]
fn overflowing_region_total_is_rejected() {
    for send in [true, false] {
        rejected_regions(huge_region_callbacks, serial(), send);
        rejected_regions(huge_region_callbacks, pipelined(), send);
    }
}
