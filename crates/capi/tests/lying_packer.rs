//! A C pack callback that lies about how many bytes it wrote fails the
//! transfer with a typed error on both engines, in debug and release
//! builds alike: a negative `used` is rejected by the C adapter, and a
//! `used` larger than the fragment is rejected by the engine. Either way
//! both sides fail instead of reporting bytes the packer never wrote as
//! delivered.
//!
//! Each case builds its own two-rank world with an explicit
//! `PipelineConfig` (no process environment, no global C world), and the
//! lie travels in the callback context, so the cases run in parallel
//! without sharing state.

use mpicd::datatype::{CustomPack, RandomAccessPacker, SendRegion};
use mpicd::fabric::{FabricError, PipelineConfig, WireModel};
use mpicd::{Error, Result, World};
use mpicd_capi::adapter::CCustomPack;
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

/// The C adapter behind a lock, offered to the pipeline as random access:
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
        let sent = if pipeline.enabled {
            c0.send_custom(Box::new(Shared(Mutex::new(ctx))), 1, 7)
        } else {
            c0.send_custom(Box::new(ctx), 1, 7)
        };
        (sent.map(|_| ()), rx.join().unwrap())
    });
    (sent, received, world.fabric().stats().pipelined)
}

fn serial() -> PipelineConfig {
    PipelineConfig::serial()
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
