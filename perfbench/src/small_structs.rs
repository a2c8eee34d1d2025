//! `small_structs`: 32 B–8 KiB messages of gapped structs, `Register`
//! batches and double-vecs, each sent with the custom API, a derived
//! datatype (where one exists) and manual packing. Per-message-overhead
//! bound: posting, matching, the eager bounce copy, completion and the
//! type check dominate; packing moves a few hundred bytes.

use crate::register::{pack_registers, unpack_registers, Register, RegisterPack, RegisterUnpack};
use crate::rng::Rng;
use crate::runner::Workload;
use crate::trace::{Call, Tracer};
use mpicd::derived::Committed;
use mpicd::fabric::Fabric;
use mpicd::types::{
    as_bytes, as_bytes_mut, pack_struct_simple, unpack_struct_simple, StructSimple,
};
use mpicd::vecvec::{pack_double_vec, unpack_double_vec};
use mpicd::{transfer, transfer_custom, transfer_typed, Communicator, World};
use std::sync::Arc;
use std::time::Instant;

/// Packed payload sizes (bytes, each drawn within [`SPREAD`] of these).
const SIZES: [usize; 4] = [48, 384, 3 << 10, 7680];

/// Relative spread of the seeded size draw around each of [`SIZES`].
const SPREAD: f64 = 0.03;

/// Packed bytes of one `StructSimple` (its 4-byte gap excluded).
const SIMPLE_PACKED: usize = 20;

/// A transfer method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The custom datatype API.
    Custom,
    /// A classic derived datatype.
    Derived,
    /// Manual packing into bytes.
    Manual,
}

impl Method {
    fn label(self) -> &'static str {
        match self {
            Method::Custom => "custom",
            Method::Derived => "derived",
            Method::Manual => "manual",
        }
    }
}

/// Send data and receive buffer of one type at one size.
enum Set {
    Simple(Vec<StructSimple>, Vec<StructSimple>),
    Register(Vec<Register>, Vec<Register>),
    DoubleVec(Vec<Vec<i32>>, Vec<Vec<i32>>),
}

impl Set {
    fn label(&self) -> &'static str {
        match self {
            Set::Simple(..) => "struct-simple",
            Set::Register(..) => "register",
            Set::DoubleVec(..) => "double-vec",
        }
    }

    /// Application payload bytes (packed fields; double-vec data only).
    fn payload(&self) -> usize {
        match self {
            Set::Simple(s, _) => SIMPLE_PACKED * s.len(),
            Set::Register(s, _) => crate::register::PACKED * s.len(),
            Set::DoubleVec(s, _) => s.iter().map(|v| 4 * v.len()).sum(),
        }
    }
}

/// The workload.
pub struct SmallStructs {
    world: World,
    a: Communicator,
    b: Communicator,
    sets: Vec<Set>,
    cells: Vec<(usize, Method)>,
    simple_ty: Arc<Committed>,
    register_ty: Arc<Committed>,
    commit_us: Vec<f64>,
}

fn commit_timed(
    dt: mpicd::derived::Datatype,
    times: &mut Vec<f64>,
) -> Result<Arc<Committed>, String> {
    let t = Instant::now();
    let ty = dt.commit().map_err(|e| format!("commit failed: {e:?}"))?;
    times.push(t.elapsed().as_secs_f64() * 1e6);
    Ok(Arc::new(ty))
}

impl SmallStructs {
    /// Build every set for `seed`: one per type and size, with sizes drawn
    /// around [`SIZES`] and seeded contents.
    pub fn new(seed: u64) -> Result<Self, String> {
        let world = World::new(2);
        let (a, b) = world.pair();
        let mut commit_us = Vec::new();
        let simple_ty = commit_timed(StructSimple::datatype(), &mut commit_us)?;
        let register_ty = commit_timed(Register::datatype(), &mut commit_us)?;
        let mut sizes = Rng::new(seed, 1);
        let mut data = Rng::new(seed, 2);
        let mut sets = Vec::new();
        let mut cells = Vec::new();
        for size in SIZES {
            let n = sizes.around(size, SPREAD).div_ceil(SIMPLE_PACKED);
            let send: Vec<StructSimple> = (0..n)
                .map(|_| StructSimple {
                    a: data.next_u64() as i32,
                    b: data.next_u64() as i32,
                    c: data.next_u64() as i32,
                    d: data.below(1 << 30) as f64 * 0.25,
                })
                .collect();
            let recv = vec![StructSimple::default(); send.len()];
            sets.push(Set::Simple(send, recv));

            let n = sizes.around(size, SPREAD).div_ceil(crate::register::PACKED);
            let send: Vec<Register> = (0..n).map(|_| Register::random(&mut data)).collect();
            let recv = vec![Register::default(); send.len()];
            sets.push(Set::Register(send, recv));

            // Subvectors of 128 bytes: up to 60 zero-copy regions.
            let ints = (sizes.around(size, SPREAD) / 4).max(1);
            let parts = (ints / 32).clamp(1, 64);
            let send: Vec<Vec<i32>> = (0..parts)
                .map(|i| {
                    let len = ints / parts + usize::from(i < ints % parts);
                    (0..len).map(|_| data.next_u64() as i32).collect()
                })
                .collect();
            let recv = send.iter().map(|v| vec![0; v.len()]).collect();
            sets.push(Set::DoubleVec(send, recv));
        }
        for (i, set) in sets.iter().enumerate() {
            for m in [Method::Custom, Method::Derived, Method::Manual] {
                if m != Method::Derived || !matches!(set, Set::DoubleVec(..)) {
                    cells.push((i, m));
                }
            }
        }
        Ok(Self {
            world,
            a,
            b,
            sets,
            cells,
            simple_ty,
            register_ty,
            commit_us,
        })
    }
}

fn err(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

impl Workload for SmallStructs {
    fn name(&self) -> &'static str {
        "small_structs"
    }

    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn describe(&self, cell: usize) -> String {
        let (set, m) = self.cells[cell];
        let s = &self.sets[set];
        format!("{} {} {}B", s.label(), m.label(), s.payload())
    }

    fn payload_bytes(&self, cell: usize) -> u64 {
        self.sets[self.cells[cell].0].payload() as u64
    }

    fn fabric(&self) -> &Fabric {
        self.world.fabric()
    }

    fn commit_us(&self) -> &[f64] {
        &self.commit_us
    }

    fn warmup_blocks(&self) -> usize {
        // About 13k ops: pools filled and every path taken many times.
        500
    }

    fn max_samples(&self) -> usize {
        1 << 22
    }

    fn reset(&mut self, cell: usize) {
        match &mut self.sets[self.cells[cell].0] {
            Set::Simple(_, r) => r.fill(StructSimple::default()),
            Set::Register(_, r) => r.fill(Register::default()),
            Set::DoubleVec(_, r) => r.iter_mut().for_each(|v| v.fill(0)),
        }
    }

    fn run(&mut self, cell: usize, tr: &mut Tracer) -> Result<(), String> {
        let (set, method) = self.cells[cell];
        let (a, b) = (&self.a, &self.b);
        match (&mut self.sets[set], method) {
            (Set::Simple(s, r), Method::Custom) => {
                tr.call(Call::CoreTransferCustomPack, || transfer(a, b, s, r, 0))
                    .map_err(err)?;
            }
            (Set::Simple(s, r), Method::Derived) => {
                let ty = &self.simple_ty;
                // SAFETY: StructSimple is repr(C) plain old data; the type
                // map writes only field bytes, never the gap.
                let rb = unsafe { as_bytes_mut(r) };
                tr.call(Call::CoreTransferTyped, || {
                    transfer_typed(a, b, as_bytes(s), rb, s.len(), ty, 0)
                })
                .map_err(err)?;
            }
            (Set::Simple(s, r), Method::Manual) => {
                let packed = tr.call(Call::AppPackManual, || pack_struct_simple(s));
                let mut rx = vec![0u8; packed.len()];
                tr.call(Call::CoreTransferBytes, || {
                    transfer(a, b, &packed, &mut rx, 0)
                })
                .map_err(err)?;
                tr.call(Call::AppUnpackManual, || unpack_struct_simple(&rx, r))
                    .map_err(err)?;
            }
            (Set::Register(s, r), Method::Custom) => {
                let mut rctx = RegisterUnpack::new(r);
                tr.call(Call::CoreTransferCustomPack, || {
                    transfer_custom(a, b, Box::new(RegisterPack(s)), &mut rctx, 0)
                })
                .map_err(err)?;
            }
            (Set::Register(s, r), Method::Derived) => {
                let ty = &self.register_ty;
                // SAFETY: Register is repr(C) plain old data (every bit
                // pattern of its fields is valid); the resized type map
                // writes only field bytes.
                let rb = unsafe { as_bytes_mut(r) };
                tr.call(Call::CoreTransferTyped, || {
                    transfer_typed(a, b, as_bytes(s), rb, s.len(), ty, 0)
                })
                .map_err(err)?;
            }
            (Set::Register(s, r), Method::Manual) => {
                let packed = tr.call(Call::AppPackManual, || pack_registers(s));
                let mut rx = vec![0u8; packed.len()];
                tr.call(Call::CoreTransferBytes, || {
                    transfer(a, b, &packed, &mut rx, 0)
                })
                .map_err(err)?;
                if !tr.call(Call::AppUnpackManual, || unpack_registers(&rx, r)) {
                    return Err("short Register stream".into());
                }
            }
            (Set::DoubleVec(s, r), Method::Custom) => {
                tr.call(Call::CoreTransferCustomRegion, || transfer(a, b, s, r, 0))
                    .map_err(err)?;
            }
            (Set::DoubleVec(s, r), Method::Manual) => {
                let packed = tr.call(Call::AppPackManual, || pack_double_vec(s));
                let mut rx = vec![0u8; packed.len()];
                tr.call(Call::CoreTransferBytes, || {
                    transfer(a, b, &packed, &mut rx, 0)
                })
                .map_err(err)?;
                tr.call(Call::AppUnpackManual, || unpack_double_vec(&rx, r))
                    .map_err(err)?;
            }
            (Set::DoubleVec(..), Method::Derived) => {
                return Err("double-vec has no derived datatype".into());
            }
        }
        Ok(())
    }

    fn verify(&mut self, cell: usize, corrupt: bool) -> bool {
        match &mut self.sets[self.cells[cell].0] {
            Set::Simple(s, r) => {
                if corrupt {
                    r[0].a ^= 1;
                }
                s == r
            }
            Set::Register(s, r) => {
                if corrupt {
                    r[0].franja_horaria ^= 1;
                }
                s == r
            }
            Set::DoubleVec(s, r) => {
                if corrupt {
                    r[0][0] ^= 1;
                }
                s == r
            }
        }
    }
}
