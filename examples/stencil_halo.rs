//! A 1-D stencil (heat equation) with halo exchange — the generated-macro
//! plus collectives tour: `custom_struct!` declares the halo record,
//! `bcast` hands every rank the run parameters, `sendrecv` swaps halos
//! around the ring deadlock-free, and `allreduce_f64` computes the global
//! residual each step (rank 0 reduces, then broadcasts the result).
//!
//! ```text
//! cargo run --release -p mpicd-examples --example stencil_halo
//! ```

use mpicd::collective::{allreduce_f64, bcast, ReduceOp};
use mpicd::World;

mpicd::custom_struct! {
    /// One rank's outgoing halo: a step stamp packed in-band, the boundary
    /// cells as a zero-copy region.
    pub struct Halo {
        scalars { step: u64 }
        regions { cells: Vec<f64> }
    }
}

const RANKS: usize = 4;
const CELLS: usize = 1 << 12; // per rank
const GHOST: usize = 1;
const STEPS: u64 = 200;

fn main() {
    let world = World::new(RANKS);
    let comms = world.comms();

    let residuals: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| {
                s.spawn(move || {
                    let me = comm.rank();
                    let right = (me + 1) % RANKS;
                    let left = (me + RANKS - 1) % RANKS;

                    // Initial condition, broadcast from rank 0 so everyone
                    // agrees on the global parameters.
                    let mut params = vec![0.0f64; 2]; // [diffusivity, dt]
                    if me == 0 {
                        params = vec![0.1, 0.4];
                    }
                    bcast(comm, &mut params, 0).expect("bcast params");
                    let (alpha, dt) = (params[0], params[1]);

                    // Local field with ghost cells at each end; a hot spot
                    // on rank 1.
                    let mut u = vec![0.0f64; CELLS + 2 * GHOST];
                    if me == 1 {
                        for (i, v) in u.iter_mut().enumerate() {
                            *v = (i as f64 / CELLS as f64 * std::f64::consts::PI).sin() * 100.0;
                        }
                    }

                    let mut residual = f64::INFINITY;
                    for step in 0..STEPS {
                        // Exchange halos: my right edge ↔ right neighbor's
                        // left ghost, simultaneously both directions.
                        let send_right = Halo {
                            step,
                            cells: u[CELLS..CELLS + GHOST].to_vec(),
                        };
                        let mut recv_left = Halo {
                            step: 0,
                            cells: vec![0.0; GHOST],
                        };
                        comm.sendrecv(&send_right, right, 1, &mut recv_left, left as i32, 1)
                            .expect("halo right");
                        assert_eq!(recv_left.step, step, "halo from the same step");
                        u[..GHOST].copy_from_slice(&recv_left.cells);

                        let send_left = Halo {
                            step,
                            cells: u[GHOST..2 * GHOST].to_vec(),
                        };
                        let mut recv_right = Halo {
                            step: 0,
                            cells: vec![0.0; GHOST],
                        };
                        comm.sendrecv(&send_left, left, 2, &mut recv_right, right as i32, 2)
                            .expect("halo left");
                        u[CELLS + GHOST..].copy_from_slice(&recv_right.cells);

                        // Explicit Euler step.
                        let mut next = u.clone();
                        let mut local_delta: f64 = 0.0;
                        for i in GHOST..CELLS + GHOST {
                            let lap = u[i - 1] - 2.0 * u[i] + u[i + 1];
                            next[i] = u[i] + alpha * dt * lap;
                            local_delta += (next[i] - u[i]).abs();
                        }
                        u = next;

                        // Global residual via allreduce.
                        let mut acc = [local_delta];
                        allreduce_f64(comm, &mut acc, ReduceOp::Sum).expect("allreduce");
                        residual = acc[0];
                    }
                    (me, residual, u.iter().sum::<f64>())
                })
            })
            .collect();

        handles
            .into_iter()
            .map(|h| {
                let (rank, residual, mass) = h.join().expect("rank thread");
                println!("[rank {rank}] final residual {residual:.6}, local mass {mass:.3}");
                residual
            })
            .collect()
    });

    // Every rank computed the same global residual, and diffusion shrank it.
    assert!(residuals.windows(2).all(|w| w[0] == w[1]));
    assert!(residuals[0].is_finite() && residuals[0] < 100.0);

    let stats = world.fabric().stats();
    println!(
        "\n{} steps × {} ranks: {} messages, {} KiB on the wire — halos as \
         single custom-datatype messages throughout",
        STEPS,
        RANKS,
        stats.messages,
        stats.bytes / 1024
    );
}
