//! `pickle_objects`: NumPy-style objects (one array, or a dict holding
//! many 128 KiB arrays) of 128 KiB–4 MiB, echoed between two rank threads
//! with the pickle-basic, pickle-oob and pickle-oob-cdt strategies. Both
//! ranks block on probe/receive and allocate on the receive side; the
//! datatype layer is never called.
//!
//! Rank 0 (the calling thread) runs and times the ops; rank 1 follows the
//! same schedule on its own thread and echoes each object back. The two
//! meet at a barrier before every block, where rank 0 also says whether
//! another block follows.

use crate::rng::Rng;
use crate::runner::{Schedule, Workload};
use crate::trace::{Call, Tracer};
use mpicd::fabric::Fabric;
use mpicd::{Communicator, World};
use mpicd_pickle::{
    recv_pickle_basic, recv_pickle_oob, recv_pickle_oob_cdt, send_pickle_basic, send_pickle_oob,
    send_pickle_oob_cdt, DType, NdArray, PickleResult, PyObject,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

/// Object sizes (buffer bytes). A single array's size is drawn within
/// [`SPREAD`] of these; a complex object holds `size / CHUNK` arrays.
const SIZES: [usize; 3] = [160 << 10, 720 << 10, 3 << 20];

/// Relative spread of the seeded array-size draw around each of [`SIZES`].
const SPREAD: f64 = 0.03;

/// Size of each array in a complex object (the paper's 128 KiB arrays).
const CHUNK: usize = 128 << 10;

/// Message tag of every op.
const TAG: i32 = 0;

/// A §V-B serialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One in-band pickle stream.
    Basic,
    /// Out-of-band buffers, one message each.
    Oob,
    /// Out-of-band buffers as regions of one custom-datatype message.
    OobCdt,
}

impl Strategy {
    const ALL: [Strategy; 3] = [Strategy::Basic, Strategy::Oob, Strategy::OobCdt];

    fn label(self) -> &'static str {
        match self {
            Strategy::Basic => "basic",
            Strategy::Oob => "oob",
            Strategy::OobCdt => "oob-cdt",
        }
    }

    fn send(self, comm: &Communicator, obj: &PyObject, dest: usize) -> PickleResult<()> {
        match self {
            Strategy::Basic => send_pickle_basic(comm, obj, dest, TAG),
            Strategy::Oob => send_pickle_oob(comm, obj, dest, TAG),
            Strategy::OobCdt => send_pickle_oob_cdt(comm, obj, dest, TAG),
        }
    }

    fn recv(self, comm: &Communicator, source: i32) -> PickleResult<PyObject> {
        match self {
            Strategy::Basic => recv_pickle_basic(comm, source, TAG),
            Strategy::Oob => recv_pickle_oob(comm, source, TAG),
            Strategy::OobCdt => recv_pickle_oob_cdt(comm, source, TAG),
        }
    }

    fn calls(self) -> (Call, Call) {
        match self {
            Strategy::Basic => (Call::PickleSendBasic, Call::PickleRecvBasic),
            Strategy::Oob => (Call::PickleSendOob, Call::PickleRecvOob),
            Strategy::OobCdt => (Call::PickleSendOobCdt, Call::PickleRecvOobCdt),
        }
    }
}

/// A 1-D float64 array of `bytes` seeded bytes.
fn array(bytes: usize, rng: &mut Rng) -> PyObject {
    let len = bytes / 8;
    let mut data = vec![0u8; len * 8];
    rng.fill(&mut data);
    PyObject::Array(NdArray::new(vec![len], DType::F64, data))
}

/// The paper's complex object: metadata around a list of `bytes / CHUNK`
/// arrays of 128 KiB.
fn complex_object(bytes: usize, rng: &mut Rng) -> PyObject {
    let fields = (0..(bytes / CHUNK).max(1))
        .map(|_| array(CHUNK, rng))
        .collect();
    let s = |x: &str| PyObject::Str(x.into());
    PyObject::Dict(vec![
        (s("class"), s("SimulationState")),
        (s("step"), PyObject::Int(rng.below(1 << 20) as i64)),
        (s("time"), PyObject::Float(rng.below(1 << 20) as f64 * 0.5)),
        (
            s("meta"),
            PyObject::Dict(vec![
                (s("rank_of_origin"), PyObject::Int(0)),
                (s("compressed"), PyObject::Bool(false)),
            ]),
        ),
        (s("fields"), PyObject::List(fields)),
    ])
}

/// Rank 1's side of the block protocol.
struct Peer {
    barrier: Arc<Barrier>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<(), String>>>,
}

/// The workload.
pub struct PickleObjects {
    world: World,
    c0: Communicator,
    objects: Vec<(&'static str, PyObject)>,
    cells: Vec<(usize, Strategy)>,
    echo: Option<PyObject>,
    peer: Option<Peer>,
}

impl PickleObjects {
    /// Build one single-array and one complex object per size for `seed`.
    pub fn new(seed: u64) -> Self {
        let world = World::new(2);
        let c0 = world.comm(0);
        let mut sizes = Rng::new(seed, 1);
        let mut data = Rng::new(seed, 2);
        let mut objects = Vec::new();
        for size in SIZES {
            objects.push(("single_array", array(sizes.around(size, SPREAD), &mut data)));
            // The array count is fixed per size, so every seed sends the
            // same number of out-of-band buffers.
            objects.push(("complex_object", complex_object(size, &mut data)));
        }
        let cells = (0..objects.len())
            .flat_map(|o| Strategy::ALL.map(|s| (o, s)))
            .collect();
        Self {
            world,
            c0,
            objects,
            cells,
            echo: None,
            peer: None,
        }
    }

    fn peer(&self) -> &Peer {
        self.peer.as_ref().expect("begin() started rank 1")
    }
}

/// Rank 1: echo every op of every block until told to stop.
fn echo_loop(
    c1: Communicator,
    order: Vec<Strategy>,
    schedule: Schedule,
    barrier: Arc<Barrier>,
    stop: Arc<AtomicBool>,
) -> Result<(), String> {
    for k in 0.. {
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        for &cell in schedule.block(k) {
            let s = order[cell as usize];
            let obj = s.recv(&c1, 0).map_err(|e| format!("rank 1 recv: {e:?}"))?;
            s.send(&c1, &obj, 0)
                .map_err(|e| format!("rank 1 send: {e:?}"))?;
        }
    }
    Ok(())
}

impl Workload for PickleObjects {
    fn name(&self) -> &'static str {
        "pickle_objects"
    }

    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn describe(&self, cell: usize) -> String {
        let (o, s) = self.cells[cell];
        let (kind, obj) = &self.objects[o];
        format!("{kind} {} {}B", s.label(), obj.buffer_bytes())
    }

    fn payload_bytes(&self, cell: usize) -> u64 {
        // A round trip: the object's buffers cross in both directions.
        2 * self.objects[self.cells[cell].0].1.buffer_bytes() as u64
    }

    fn fabric(&self) -> &Fabric {
        self.world.fabric()
    }

    fn commit_us(&self) -> &[f64] {
        &[]
    }

    fn warmup_blocks(&self) -> usize {
        2
    }

    fn max_samples(&self) -> usize {
        1 << 16
    }

    fn begin(&mut self, schedule: &Schedule) {
        let barrier = Arc::new(Barrier::new(2));
        let stop = Arc::new(AtomicBool::new(false));
        let order = self.cells.iter().map(|c| c.1).collect();
        let (c1, sched) = (self.world.comm(1), schedule.clone());
        let (b, s) = (Arc::clone(&barrier), Arc::clone(&stop));
        let thread = std::thread::spawn(move || echo_loop(c1, order, sched, b, s));
        self.peer = Some(Peer {
            barrier,
            stop,
            thread: Some(thread),
        });
    }

    fn start_block(&mut self) {
        self.peer().barrier.wait();
    }

    fn end(&mut self) -> Result<(), String> {
        let mut peer = self.peer.take().expect("begin() started rank 1");
        peer.stop.store(true, Ordering::SeqCst);
        peer.barrier.wait();
        let thread = peer.thread.take().expect("rank 1 joined once");
        thread.join().map_err(|_| "rank 1 panicked".to_string())?
    }

    fn reset(&mut self, _cell: usize) {
        self.echo = None;
    }

    fn run(&mut self, cell: usize, tr: &mut Tracer) -> Result<(), String> {
        let (o, strategy) = self.cells[cell];
        let obj = &self.objects[o].1;
        let c0 = &self.c0;
        let (send, recv) = strategy.calls();
        tr.call(send, || strategy.send(c0, obj, 1))
            .map_err(|e| format!("{e:?}"))?;
        let echo = tr
            .call(recv, || strategy.recv(c0, 1))
            .map_err(|e| format!("{e:?}"))?;
        self.echo = Some(echo);
        Ok(())
    }

    fn verify(&mut self, cell: usize, corrupt: bool) -> bool {
        let Some(echo) = self.echo.as_mut() else {
            return false;
        };
        if corrupt {
            corrupt_first_array(echo);
        }
        *echo == self.objects[self.cells[cell].0].1
    }
}

/// Flip one byte of the first array buffer in `obj`.
fn corrupt_first_array(obj: &mut PyObject) -> bool {
    match obj {
        PyObject::Array(a) => {
            Arc::make_mut(&mut a.data)[0] ^= 0xFF;
            true
        }
        PyObject::List(v) | PyObject::Tuple(v) => v.iter_mut().any(corrupt_first_array),
        PyObject::Dict(kv) => kv.iter_mut().any(|(_, v)| corrupt_first_array(v)),
        _ => false,
    }
}
