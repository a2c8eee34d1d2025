//! Collective operations — the paper's stated future work ("We also leave
//! the integration with collective operations as future work, which we
//! acknowledge as a requirement for standardization of our approach").
//!
//! This module demonstrates that integration with one algorithm per
//! operation, built from the point-to-point layer: a binomial-tree
//! broadcast that accepts **custom-serialized buffers** — every hop
//! re-invokes the type's pack/unpack contexts, so a `Vec<Vec<i32>>` (or any
//! custom [`Buffer`]) can be broadcast as easily as raw bytes — and an
//! `f64` allreduce that reduces at rank 0 and broadcasts the result.
//!
//! All collectives here are blocking and must be entered by every rank
//! (ranks on separate threads), like their MPI namesakes. Tags in the
//! reserved collective range keep them out of the application tag space.

use crate::buffer::{Buffer, BufferMut};
use crate::communicator::Communicator;
use crate::error::{Error, Result};
use mpicd_fabric::Tag;
use mpicd_obs::{telemetry, Sketch};
use std::sync::{Arc, OnceLock};

/// Reserved tag for broadcast traffic.
const BCAST_TAG: Tag = i32::MAX - 11;
/// Reserved tag for reduce traffic.
const REDUCE_TAG: Tag = i32::MAX - 14;

/// Name of the collective that owns a reserved tag, if any.
///
/// `mpicd-inspect` uses this mapping to group flight-recorder transfers
/// into collective operations (a bcast tree's hops all carry the
/// reserved bcast tag) when reconstructing per-collective critical
/// paths.
pub fn collective_tag_name(tag: Tag) -> Option<&'static str> {
    match tag {
        BCAST_TAG => Some("bcast"),
        REDUCE_TAG => Some("reduce"),
        _ => None,
    }
}

/// Lazily-registered per-collective latency sketch (entry-to-exit wall
/// time of this rank's participation). One relaxed load when telemetry
/// is off; the registry lock is only ever taken once per op name.
fn coll_sketch(cell: &'static OnceLock<Arc<Sketch>>, name: &'static str) -> &'static Sketch {
    cell.get_or_init(|| mpicd_obs::global().sketch(name))
}

static BCAST_NS: OnceLock<Arc<Sketch>> = OnceLock::new();
static ALLREDUCE_NS: OnceLock<Arc<Sketch>> = OnceLock::new();

/// Time one collective invocation into its latency sketch. Returns a
/// guard so every `?`-exit records too (failures are the interesting
/// latencies).
struct CollTimer {
    t0: u64,
    cell: &'static OnceLock<Arc<Sketch>>,
    name: &'static str,
}

impl CollTimer {
    fn start(cell: &'static OnceLock<Arc<Sketch>>, name: &'static str) -> Self {
        Self {
            t0: telemetry::clock(),
            cell,
            name,
        }
    }
}

impl Drop for CollTimer {
    fn drop(&mut self) {
        if self.t0 != 0 {
            coll_sketch(self.cell, self.name).record(telemetry::clock().saturating_sub(self.t0));
        }
    }
}

/// Binomial-tree broadcast of any buffer that can be both sent and
/// received (root sends its contents; everyone else's `buf` is
/// overwritten). Custom-serialized types work: each forwarding hop packs
/// and unpacks through the type's own contexts.
pub fn bcast<B: Buffer + BufferMut + ?Sized>(
    comm: &Communicator,
    buf: &mut B,
    root: usize,
) -> Result<()> {
    let size = comm.size();
    if root >= size {
        return Err(Error::Fabric(mpicd_fabric::FabricError::InvalidRank {
            rank: root,
            world: size,
        }));
    }
    if size == 1 {
        return Ok(());
    }
    let _sp = mpicd_obs::span!("coll.bcast", "core");
    let _tm = CollTimer::start(&BCAST_NS, "coll.bcast_ns");
    // Rotate ranks so the root is virtual rank 0 (MPICH's binomial tree).
    let vrank = (comm.rank() + size - root) % size;

    // Receive phase: wait for the parent (the rank that differs in this
    // rank's lowest set bit).
    let mut mask = 1usize;
    while mask < size {
        if vrank & mask != 0 {
            let parent = ((vrank - mask) + root) % size;
            comm.recv(buf, parent as i32, BCAST_TAG)?;
            break;
        }
        mask <<= 1;
    }
    // Send phase: forward to children at descending offsets below the bit
    // we received on.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < size {
            let child = (vrank + mask + root) % size;
            comm.send(&*buf, child, BCAST_TAG)?;
        }
        mask >>= 1;
    }
    Ok(())
}

/// Elementwise reduction operators for [`allreduce_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `MPI_SUM`
    Sum,
    /// `MPI_MIN`
    Min,
    /// `MPI_MAX`
    Max,
}

impl ReduceOp {
    fn apply(self, acc: &mut [f64], other: &[f64]) {
        match self {
            Self::Sum => acc.iter_mut().zip(other).for_each(|(a, b)| *a += b),
            Self::Min => acc.iter_mut().zip(other).for_each(|(a, b)| *a = a.min(*b)),
            Self::Max => acc.iter_mut().zip(other).for_each(|(a, b)| *a = a.max(*b)),
        }
    }
}

/// All-reduce over `f64` slices. `buf` holds this rank's contribution on
/// entry, the full reduction on exit. Rank 0 reduces every rank's vector
/// in rank order, then broadcasts the result with [`bcast`]: `2 (p-1)`
/// messages per call. Every rank must pass a vector of the same length;
/// rank 0 returns [`Error::LengthMismatch`] for a shorter one.
pub fn allreduce_f64(comm: &Communicator, buf: &mut [f64], op: ReduceOp) -> Result<()> {
    let size = comm.size();
    if size == 1 {
        return Ok(());
    }
    let _sp = mpicd_obs::span!("coll.allreduce", "core", buf.len() * 8);
    let _tm = CollTimer::start(&ALLREDUCE_NS, "coll.allreduce_ns");
    if comm.rank() == 0 {
        let mut incoming = vec![0f64; buf.len()];
        for r in 1..size {
            let st = comm.recv(&mut incoming, r as i32, REDUCE_TAG)?;
            if st.bytes != buf.len() * 8 {
                return Err(Error::LengthMismatch {
                    expected: buf.len() * 8,
                    got: st.bytes,
                });
            }
            op.apply(buf, &incoming);
        }
    } else {
        comm.send(&*buf, 0, REDUCE_TAG)?;
    }
    bcast(comm, buf, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::World;

    fn run_all<F>(n: usize, f: F)
    where
        F: Fn(&Communicator) + Sync,
    {
        let world = World::new(n);
        let comms = world.comms();
        std::thread::scope(|s| {
            for c in &comms {
                s.spawn(|| f(c));
            }
        });
    }

    #[test]
    fn bcast_bytes_all_sizes_and_roots() {
        for n in [1usize, 2, 3, 4, 7, 8] {
            for root in [0, n - 1] {
                run_all(n, |c| {
                    let mut buf = if c.rank() == root {
                        (0..97u8).collect::<Vec<u8>>()
                    } else {
                        vec![0u8; 97]
                    };
                    bcast(c, &mut buf, root).unwrap();
                    assert_eq!(buf, (0..97u8).collect::<Vec<u8>>(), "rank {}", c.rank());
                });
            }
        }
    }

    #[test]
    fn bcast_custom_double_vec() {
        // The headline capability: broadcasting a dynamic custom type.
        run_all(4, |c| {
            let reference: Vec<Vec<i32>> = vec![vec![1, 2, 3], vec![9; 100], vec![-5]];
            let mut buf = if c.rank() == 2 {
                reference.clone()
            } else {
                reference.iter().map(|v| vec![0; v.len()]).collect()
            };
            bcast(c, &mut buf, 2).unwrap();
            assert_eq!(buf, reference, "rank {}", c.rank());
        });
    }

    #[test]
    fn allreduce_sum_min_max() {
        for (op, expect) in [
            (
                ReduceOp::Sum,
                [0.0 + 1.0 + 2.0 + 3.0, 4.0 * 10.0 + 0.0 + 1.0 + 2.0 + 3.0],
            ),
            (ReduceOp::Min, [0.0, 10.0]),
            (ReduceOp::Max, [3.0, 13.0]),
        ] {
            run_all(4, |c| {
                let r = c.rank() as f64;
                let mut buf = [r, 10.0 + r];
                allreduce_f64(c, &mut buf, op).unwrap();
                assert_eq!(buf, expect, "op {op:?} rank {}", c.rank());
            });
        }
    }

    #[test]
    fn bcast_invalid_root_rejected() {
        let world = World::new(2);
        let c = world.comm(0);
        let mut buf = vec![0u8; 4];
        assert!(bcast(&c, &mut buf, 9).is_err());
    }

    #[test]
    fn allreduce_algorithms_agree_on_all_shapes() {
        for p in [1usize, 2, 3, 4, 5, 7, 8, 12] {
            // Vector lengths below, equal to, and far above the rank count.
            for n in [1usize, 3, 4 * p + 1] {
                run_all(p, |c| {
                    let r = c.rank() as f64;
                    let mut buf: Vec<f64> = (0..n).map(|i| r * 100.0 + i as f64).collect();
                    allreduce_f64(c, &mut buf, ReduceOp::Sum).unwrap();
                    let rank_sum: f64 = (0..p).map(|q| q as f64).sum();
                    for (i, v) in buf.iter().enumerate() {
                        let expect = rank_sum * 100.0 + (i * p) as f64;
                        assert!(
                            (v - expect).abs() < 1e-9,
                            "p {p} n {n} rank {} elem {i}: {v} != {expect}",
                            c.rank()
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn allreduce_root_rejects_a_short_contribution() {
        // Rank 1 contributes one element to a two-element allreduce and
        // calls nothing else, so nothing waits for the root's broadcast.
        let world = World::new(2);
        let comms = world.comms();
        std::thread::scope(|s| {
            s.spawn(|| comms[1].send(&[7.0f64][..], 0, REDUCE_TAG).unwrap());
            let mut buf = [1.0f64, 2.0];
            assert_eq!(
                allreduce_f64(&comms[0], &mut buf, ReduceOp::Sum),
                Err(Error::LengthMismatch {
                    expected: 16,
                    got: 8
                })
            );
        });
    }

    #[test]
    fn schedules_predict_real_traffic_exactly() {
        // Pin the message and byte counts of both operations to their
        // closed forms against fabric statistics deltas: a broadcast of b
        // bytes sends p-1 messages of b bytes; an allreduce of n elements
        // sends p-1 contributions to rank 0 and broadcasts the result.
        fn traffic(p: usize, run: impl Fn(&Communicator) + Sync) -> (u64, u64) {
            let world = World::new(p);
            let before = world.fabric().stats();
            let comms = world.comms();
            std::thread::scope(|s| {
                for c in &comms {
                    s.spawn(|| run(c));
                }
            });
            let delta = world.fabric().stats().since(&before);
            (delta.messages, delta.bytes)
        }
        for p in [2usize, 3, 4, 6] {
            let m = (p - 1) as u64;
            let b = 97u64;
            let bc = traffic(p, |c| bcast(c, &mut vec![1u8; b as usize], 0).unwrap());
            assert_eq!(bc, (m, m * b), "bcast at p {p}");
            let n = 12u64;
            let ar = traffic(p, |c| {
                let mut buf = vec![c.rank() as f64; n as usize];
                allreduce_f64(c, &mut buf, ReduceOp::Sum).unwrap();
            });
            assert_eq!(ar, (2 * m, 2 * m * 8 * n), "allreduce at p {p}");
        }
    }
}
