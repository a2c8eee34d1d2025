//! `ddt_faces`: the eight DDTBench patterns moved one way with every
//! method of the paper's Fig 10. Pack-bound: most op time goes to the
//! datatype plan kernels, the pack callbacks and the fragment engine, with
//! one match per op.

use crate::rng::Rng;
use crate::runner::Workload;
use crate::trace::{Call, Tracer};
use mpicd::derived::Committed;
use mpicd::fabric::Fabric;
use mpicd::{transfer, transfer_custom, transfer_typed, Communicator, World};
use mpicd_ddtbench::{make, Pattern, BENCHMARKS};
use std::sync::Arc;
use std::time::Instant;

/// Face sizes (payload bytes, each drawn within [`SPREAD`] of these): the
/// first is eager-sized for byte sends, the rest rendezvous and
/// multi-fragment.
const SIZES: [usize; 4] = [20 << 10, 80 << 10, 320 << 10, 960 << 10];

/// Relative spread of the seeded size draw around each of [`SIZES`]; small,
/// so every seed does about the same work.
const SPREAD: f64 = 0.03;

/// A Fig 10 transfer method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Hand-written pack loop, bytes, hand-written unpack loop.
    Manual,
    /// Direct send/recv with the derived datatype.
    MpiDdt,
    /// `MPI_Pack`-style: the datatype packs to a buffer sent as bytes.
    MpiPack,
    /// Custom datatype API with packing callbacks.
    CustomPack,
    /// Custom datatype API with memory regions (where Table I allows).
    CustomRegion,
}

impl Method {
    const ALL: [Method; 5] = [
        Method::Manual,
        Method::MpiDdt,
        Method::MpiPack,
        Method::CustomPack,
        Method::CustomRegion,
    ];

    /// Fig 10 label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Manual => "manual",
            Method::MpiDdt => "mpi-ddt",
            Method::MpiPack => "mpi-pack",
            Method::CustomPack => "custom-pack",
            Method::CustomRegion => "custom-region",
        }
    }
}

/// One pattern instance pair at one size.
struct Face {
    sender: Box<dyn Pattern>,
    receiver: Box<dyn Pattern>,
    ty: Arc<Committed>,
    /// The sender's payload, packed by hand: what every method must
    /// deliver.
    expect: Vec<u8>,
}

/// The workload.
pub struct DdtFaces {
    world: World,
    a: Communicator,
    b: Communicator,
    faces: Vec<Face>,
    cells: Vec<(usize, Method)>,
    commit_us: Vec<f64>,
    pack: Vec<u8>,
    rx: Vec<u8>,
    zeros: Vec<u8>,
    check: Vec<u8>,
}

impl DdtFaces {
    /// Build every face for `seed`: sizes drawn around [`SIZES`], sender
    /// state filled with seeded bytes, and each pattern's datatype
    /// committed cold (timed).
    pub fn new(seed: u64) -> Result<Self, String> {
        let world = World::new(2);
        let (a, b) = world.pair();
        let mut sizes = Rng::new(seed, 1);
        let mut data = Rng::new(seed, 2);
        let mut faces = Vec::new();
        let mut cells = Vec::new();
        let mut commit_us = Vec::new();
        for name in BENCHMARKS {
            for size in SIZES {
                let target = sizes.around(size, SPREAD);
                let mut sender = make(name, target);
                data.fill(sender.base_mut());
                let receiver = make(name, target);
                let t = Instant::now();
                let ty = sender
                    .datatype()
                    .commit()
                    .map_err(|e| format!("{name}: commit failed: {e:?}"))?;
                commit_us.push(t.elapsed().as_secs_f64() * 1e6);
                if ty.size() != sender.bytes() {
                    return Err(format!("{name}: datatype size disagrees with pattern"));
                }
                let mut expect = Vec::new();
                sender.pack_manual(&mut expect);
                let face = faces.len();
                for m in Method::ALL {
                    if m != Method::CustomRegion || sender.info().memory_regions {
                        cells.push((face, m));
                    }
                }
                faces.push(Face {
                    sender,
                    receiver,
                    ty: Arc::new(ty),
                    expect,
                });
            }
        }
        let max = faces.iter().map(|f| f.expect.len()).max().unwrap_or(0);
        Ok(Self {
            world,
            a,
            b,
            faces,
            cells,
            commit_us,
            pack: Vec::with_capacity(max),
            rx: vec![0; max],
            zeros: vec![0; max],
            check: Vec::with_capacity(max),
        })
    }
}

fn err(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

impl Workload for DdtFaces {
    fn name(&self) -> &'static str {
        "ddt_faces"
    }

    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn describe(&self, cell: usize) -> String {
        let (face, m) = self.cells[cell];
        let f = &self.faces[face];
        format!("{} {} {}B", f.sender.info().name, m.label(), f.expect.len())
    }

    fn payload_bytes(&self, cell: usize) -> u64 {
        self.faces[self.cells[cell].0].expect.len() as u64
    }

    fn fabric(&self) -> &Fabric {
        self.world.fabric()
    }

    fn commit_us(&self) -> &[f64] {
        &self.commit_us
    }

    fn warmup_blocks(&self) -> usize {
        2
    }

    fn max_samples(&self) -> usize {
        1 << 18
    }

    fn reset(&mut self, cell: usize) {
        let f = &mut self.faces[self.cells[cell].0];
        let n = f.expect.len();
        f.receiver.unpack_manual(&self.zeros[..n]);
    }

    fn run(&mut self, cell: usize, tr: &mut Tracer) -> Result<(), String> {
        let Self {
            a,
            b,
            faces,
            cells,
            pack,
            rx,
            ..
        } = self;
        let (face, method) = cells[cell];
        let Face {
            sender,
            receiver,
            ty,
            expect,
        } = &mut faces[face];
        let rx = &mut rx[..expect.len()];
        match method {
            Method::Manual => {
                tr.call(Call::AppPackManual, || sender.pack_manual(pack));
                tr.call(Call::CoreTransferBytes, || transfer(a, b, pack, rx, 0))
                    .map_err(err)?;
                tr.call(Call::AppUnpackManual, || receiver.unpack_manual(rx));
            }
            Method::MpiDdt => {
                tr.call(Call::CoreTransferTyped, || {
                    transfer_typed(a, b, sender.base(), receiver.base_mut(), 1, ty, 0)
                })
                .map_err(err)?;
            }
            Method::MpiPack => {
                let packed = tr
                    .call(Call::DatatypePackSlice, || ty.pack_slice(sender.base(), 1))
                    .map_err(err)?;
                tr.call(Call::CoreTransferBytes, || transfer(a, b, &packed, rx, 0))
                    .map_err(err)?;
                tr.call(Call::DatatypeUnpackSlice, || {
                    ty.unpack_slice(rx, receiver.base_mut(), 1)
                })
                .map_err(err)?;
            }
            Method::CustomPack => {
                let sctx = sender.custom_pack_ctx();
                let mut rctx = receiver.custom_unpack_ctx();
                tr.call(Call::CoreTransferCustomPack, || {
                    transfer_custom(a, b, sctx, &mut *rctx, 0)
                })
                .map_err(err)?;
            }
            Method::CustomRegion => {
                let sctx = sender.region_pack_ctx().ok_or("no region context")?;
                let mut rctx = receiver.region_unpack_ctx().ok_or("no region context")?;
                tr.call(Call::CoreTransferCustomRegion, || {
                    transfer_custom(a, b, sctx, &mut *rctx, 0)
                })
                .map_err(err)?;
            }
        }
        Ok(())
    }

    fn verify(&mut self, cell: usize, corrupt: bool) -> bool {
        let f = &mut self.faces[self.cells[cell].0];
        if corrupt {
            f.receiver.pack_manual(&mut self.check);
            self.check[0] ^= 0xFF;
            f.receiver.unpack_manual(&self.check);
        }
        f.receiver.pack_manual(&mut self.check);
        self.check == f.expect
    }
}
