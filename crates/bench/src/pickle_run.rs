//! Threaded pingpong driver for the §V-B Python-style strategies.
//!
//! The pickle strategies are sequences of blocking probes/sends/receives
//! (exactly like mpi4py), so the two ranks must run on separate threads;
//! [`crate::harness::threaded_bandwidth`] measures around them.

use crate::harness::{threaded_bandwidth, Config, Sample};
use mpicd::{Communicator, World};
use mpicd_pickle::{
    recv_pickle_basic, recv_pickle_oob, recv_pickle_oob_cdt, send_pickle_basic, send_pickle_oob,
    send_pickle_oob_cdt, PickleResult, PyObject,
};
use std::sync::Mutex;

/// A strategy's blocking send.
type SendFn = fn(&Communicator, &PyObject, usize, i32) -> PickleResult<()>;
/// A strategy's blocking receive.
type RecvFn = fn(&Communicator, i32, i32) -> PickleResult<PyObject>;

/// A named §V-B strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Raw preallocated buffers, no serialization (the roofline).
    Roofline,
    /// Single in-band pickle stream.
    Basic,
    /// Out-of-band buffers via one MPI message each.
    Oob,
    /// Out-of-band buffers via the custom datatype engine.
    OobCdt,
}

impl Strategy {
    /// Label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            Self::Roofline => "roofline",
            Self::Basic => "pickle-basic",
            Self::Oob => "pickle-oob",
            Self::OobCdt => "pickle-oob-cdt",
        }
    }

    /// Every strategy, figure order.
    pub fn all() -> [Strategy; 4] {
        [Self::Roofline, Self::Basic, Self::Oob, Self::OobCdt]
    }

    /// The pickle strategy's send and receive (`None` for the roofline).
    fn ops(self) -> Option<(SendFn, RecvFn)> {
        match self {
            Self::Roofline => None,
            Self::Basic => Some((send_pickle_basic, recv_pickle_basic)),
            Self::Oob => Some((send_pickle_oob, recv_pickle_oob)),
            Self::OobCdt => Some((send_pickle_oob_cdt, recv_pickle_oob_cdt)),
        }
    }
}

/// Run the pingpong for `strategy` over `obj` and report bandwidth (MB/s).
/// The payload accounted is the object's buffer bytes, both directions.
///
/// Before timing, one untimed round trip checks that the echoed object
/// equals `obj`; the roofline's echo is checked after timing, against its
/// payload. Panics on a mismatch.
pub fn run(world: &World, strategy: Strategy, obj: &PyObject, cfg: Config) -> Sample {
    let (c0, c1) = world.pair();
    let bytes = obj.buffer_bytes();
    let label = strategy.label();

    let Some((send, recv)) = strategy.ops() else {
        // Every buffer is allocated once, outside the timed closures.
        let payload = vec![0x3Cu8; bytes];
        let echo = Mutex::new(vec![0u8; bytes]);
        let buf = Mutex::new(vec![0u8; bytes]);
        let sample = threaded_bandwidth(
            world.fabric(),
            cfg,
            2 * bytes,
            || {
                c0.send(&payload, 1, 0).expect("roofline send");
                let mut echo = echo.lock().unwrap();
                c0.recv(&mut *echo, 1, 1).expect("roofline recv");
            },
            || {
                let mut buf = buf.lock().unwrap();
                c1.recv(&mut *buf, 0, 0).expect("roofline recv");
                c1.send(&*buf, 0, 1).expect("roofline send");
            },
        );
        assert!(*echo.lock().unwrap() == payload, "{label}: echo differs");
        return sample;
    };

    let echo = std::thread::scope(|s| {
        s.spawn(|| {
            let got = recv(&c1, 0, 0).expect("echo check recv");
            send(&c1, &got, 0, 1).expect("echo check send");
        });
        send(&c0, obj, 1, 0).expect("echo check send");
        recv(&c0, 1, 1).expect("echo check recv")
    });
    assert!(
        echo == *obj,
        "{label}: echoed object differs from the sent one"
    );

    threaded_bandwidth(
        world.fabric(),
        cfg,
        2 * bytes,
        || {
            send(&c0, obj, 1, 0).expect("pickle send");
            let _echo = recv(&c0, 1, 1).expect("pickle recv");
        },
        || {
            let echo = recv(&c1, 0, 0).expect("pickle recv");
            send(&c1, &echo, 0, 1).expect("pickle send");
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpicd_pickle::workload;

    #[test]
    fn every_strategy_produces_bandwidth() {
        let cfg = Config {
            warmup: 1,
            reps: 2,
            runs: 1,
        };
        let obj = workload::single_array(64 * 1024);
        for s in Strategy::all() {
            let world = World::new(2);
            let sample = run(&world, s, &obj, cfg);
            assert!(sample.mean > 0.0, "{}", s.label());
        }
    }
}
