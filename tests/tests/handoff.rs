//! Hand-off cost: a message handed to a rank thread parked in `wait`
//! costs one context switch, not a convoy.
//!
//! Two rank threads share one CPU and ping-pong a message. Each round
//! trip needs two switches at least, one per hand-off. A waker that still
//! holds a lock the woken thread needs (the match lock or a request's
//! slot lock) is preempted by that thread, which then blocks on the lock
//! at once and hands the CPU back: two or more extra switches per
//! hand-off. The test sums both threads' switch counts from
//! `/proc/thread-self/status` over the round trips.
//!
//! Only the two rank threads spawned here are pinned; the test harness's
//! own thread is left alone, since it goes on to run other tests.

#![cfg(target_os = "linux")]

use mpicd_fabric::{Endpoint, Fabric, FabricConfig, PipelineConfig};

const ROUND_TRIPS: usize = 2_000;
const WARMUP: usize = 100;

/// glibc's `sched_setaffinity`, with a `cpu_set_t` of 1024 CPUs.
mod affinity {
    const WORDS: usize = 1024 / 64;

    extern "C" {
        fn sched_setaffinity(pid: i32, setsize: usize, mask: *const u64) -> i32;
    }

    /// Pin the calling thread to `cpu`; the OS error if refused.
    pub fn pin_current_thread(cpu: usize) -> Result<(), String> {
        if cpu >= WORDS * 64 {
            return Err(format!("CPU {cpu} is beyond the mask"));
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error().to_string())
        }
    }
}

/// The lowest CPU this process may run on, from `Cpus_allowed_list`.
fn first_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first = list.trim().split([',', '-']).next()?;
    first.parse().ok()
}

/// Voluntary plus involuntary context switches of the calling thread.
fn thread_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("read thread status");
    status
        .lines()
        .filter(|l| {
            l.starts_with("voluntary_ctxt_switches:")
                || l.starts_with("nonvoluntary_ctxt_switches:")
        })
        .map(|l| l.split_whitespace().nth(1).unwrap().parse::<u64>().unwrap())
        .sum()
}

/// One rank of the ping-pong of two ranks, rank 0 sending first:
/// `WARMUP` then `ROUND_TRIPS` round trips. Returns the switches this
/// thread made over the counted round trips.
fn ping_pong(ep: &Endpoint, bytes: usize) -> u64 {
    let (peer, first) = (1 - ep.rank(), ep.rank() == 0);
    let out = vec![ep.rank() as u8; bytes];
    let mut buf = vec![0u8; bytes];
    let mut round = |_| {
        if first {
            ep.send_bytes(&out, peer, 0).unwrap();
        }
        let env = ep.recv_bytes(&mut buf, peer as i32, 0).unwrap();
        assert_eq!((env.source, env.bytes), (peer, bytes));
        if !first {
            ep.send_bytes(&out, peer, 0).unwrap();
        }
    };
    (0..WARMUP).for_each(&mut round);
    let before = thread_switches();
    (0..ROUND_TRIPS).for_each(&mut round);
    assert!(
        buf.iter().all(|&b| b == peer as u8),
        "payload from the peer"
    );
    thread_switches() - before
}

/// Switches per round trip of two rank threads pinned to `cpu`.
fn switches_per_round_trip(cpu: usize, bytes: usize) -> f64 {
    let fabric = Fabric::with_config(
        2,
        FabricConfig {
            pipeline: PipelineConfig::with_threads(1),
            ..FabricConfig::default()
        },
    );
    let ranks: Vec<_> = fabric
        .endpoints()
        .into_iter()
        .map(|ep| {
            std::thread::spawn(move || {
                affinity::pin_current_thread(cpu).expect("pinning was allowed a moment ago");
                ping_pong(&ep, bytes)
            })
        })
        .collect();
    let total: u64 = ranks
        .into_iter()
        .map(|r| r.join().expect("rank thread"))
        .sum();
    total as f64 / ROUND_TRIPS as f64
}

#[test]
fn a_hand_off_to_a_parked_rank_costs_one_switch() {
    let Some(cpu) = first_allowed_cpu() else {
        println!("skipped: no allowed CPU found in /proc/self/status");
        return;
    };
    // Try pinning on a throwaway thread, never on the harness's own.
    let probe = std::thread::spawn(move || affinity::pin_current_thread(cpu));
    if let Err(e) = probe.join().expect("probe thread") {
        println!("skipped: pinning a thread to CPU {cpu} was refused: {e}");
        return;
    }
    // 8 B goes eager; 160 KiB is over the rendezvous threshold, so the
    // sender parks in `wait` on a deferred send until the receive matches.
    for (bytes, bound) in [(8, 3.0), (160 << 10, 5.5)] {
        let per_round_trip = switches_per_round_trip(cpu, bytes);
        println!("{bytes} B: {per_round_trip:.2} context switches per round trip");
        assert!(
            per_round_trip <= bound,
            "{bytes} B ping-pong on one CPU: {per_round_trip:.2} switches per round trip, \
             bound {bound}"
        );
    }
}
