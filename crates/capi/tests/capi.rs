//! End-to-end exercise of the C API: what a C test program would compile
//! to. Two rank threads exchange a gapped struct type through
//! `MPI_Type_create_custom` + `MPI_Send`/`MPI_Recv`, including the region
//! path and nonblocking operations.
//!
//! All tests share one process-wide world (real MPI semantics), so this
//! file runs them from a single `#[test]` entry point in a fixed order.

#![allow(non_snake_case)]

use mpicd_capi::*;
use std::os::raw::{c_int, c_void};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The C-side application type: three ints, a gap, a double, and a
/// heap-allocated payload referenced by pointer (like a C `double *`).
#[repr(C)]
struct CElem {
    a: i32,
    b: i32,
    c: i32,
    d: f64,
    payload_len: usize, // elements in `payload`
    payload: *mut f64,
}

const SCALARS: usize = 20; // packed a,b,c,d

static STATE_LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe extern "C" fn statefn(
    _context: *mut c_void,
    _src: *const c_void,
    _count: MPI_Count,
    state: *mut *mut c_void,
) -> c_int {
    STATE_LIVE.fetch_add(1, Ordering::SeqCst);
    *state = std::ptr::null_mut();
    MPI_SUCCESS
}

unsafe extern "C" fn freefn(_state: *mut c_void) -> c_int {
    STATE_LIVE.fetch_sub(1, Ordering::SeqCst);
    MPI_SUCCESS
}

unsafe extern "C" fn queryfn(
    _state: *mut c_void,
    _buf: *const c_void,
    count: MPI_Count,
    packed_size: *mut MPI_Count,
) -> c_int {
    *packed_size = count * SCALARS as MPI_Count;
    MPI_SUCCESS
}

unsafe extern "C" fn packfn(
    _state: *mut c_void,
    buf: *const c_void,
    count: MPI_Count,
    offset: MPI_Count,
    dst: *mut c_void,
    dst_size: MPI_Count,
    used: *mut MPI_Count,
) -> c_int {
    let elems = std::slice::from_raw_parts(buf as *const CElem, count as usize);
    let dst = std::slice::from_raw_parts_mut(dst as *mut u8, dst_size as usize);
    let mut at = offset as usize;
    let total = elems.len() * SCALARS;
    let mut done = 0usize;
    while at < total && done < dst.len() {
        let e = &elems[at / SCALARS];
        let mut rec = [0u8; SCALARS];
        rec[0..4].copy_from_slice(&e.a.to_ne_bytes());
        rec[4..8].copy_from_slice(&e.b.to_ne_bytes());
        rec[8..12].copy_from_slice(&e.c.to_ne_bytes());
        rec[12..20].copy_from_slice(&e.d.to_ne_bytes());
        let within = at % SCALARS;
        let n = (SCALARS - within).min(dst.len() - done);
        dst[done..done + n].copy_from_slice(&rec[within..within + n]);
        at += n;
        done += n;
    }
    *used = done as MPI_Count;
    MPI_SUCCESS
}

unsafe extern "C" fn unpackfn(
    _state: *mut c_void,
    buf: *mut c_void,
    count: MPI_Count,
    offset: MPI_Count,
    src: *const c_void,
    src_size: MPI_Count,
) -> c_int {
    let elems = std::slice::from_raw_parts_mut(buf as *mut CElem, count as usize);
    let src = std::slice::from_raw_parts(src as *const u8, src_size as usize);
    // Stage whole records; this simple unpacker requires record-aligned
    // fragments only at the end (our fragments are large, records small).
    let mut at = offset as usize;
    #[allow(clippy::explicit_counter_loop)] // mirrors the C-style original
    for &byte in src {
        let e = &mut elems[at / SCALARS];
        let within = at % SCALARS;
        // Write bytewise through a raw view of the packed record layout.
        let rec_ptr = match within {
            0..=3 => (&mut e.a as *mut i32 as *mut u8).add(within),
            4..=7 => (&mut e.b as *mut i32 as *mut u8).add(within - 4),
            8..=11 => (&mut e.c as *mut i32 as *mut u8).add(within - 8),
            _ => (&mut e.d as *mut f64 as *mut u8).add(within - 12),
        };
        *rec_ptr = byte;
        at += 1;
    }
    MPI_SUCCESS
}

unsafe extern "C" fn region_countfn(
    _state: *mut c_void,
    _buf: *mut c_void,
    count: MPI_Count,
    region_count: *mut MPI_Count,
) -> c_int {
    *region_count = count; // one payload region per element
    MPI_SUCCESS
}

unsafe extern "C" fn regionfn(
    _state: *mut c_void,
    buf: *mut c_void,
    count: MPI_Count,
    region_count: MPI_Count,
    reg_bases: *mut *mut c_void,
    reg_lens: *mut MPI_Count,
    reg_types: *mut MPI_Datatype,
) -> c_int {
    assert_eq!(count, region_count);
    let elems = std::slice::from_raw_parts(buf as *const CElem, count as usize);
    for (i, e) in elems.iter().enumerate() {
        *reg_bases.add(i) = e.payload as *mut c_void;
        *reg_lens.add(i) = (e.payload_len * 8) as MPI_Count;
        *reg_types.add(i) = MPI_BYTE;
    }
    MPI_SUCCESS
}

fn make_elem(i: usize, payload_len: usize) -> CElem {
    let payload: Vec<f64> = (0..payload_len).map(|j| (i * 1000 + j) as f64).collect();
    let mut payload = payload.into_boxed_slice();
    let ptr = payload.as_mut_ptr();
    std::mem::forget(payload);
    CElem {
        a: i as i32,
        b: (i * 2) as i32,
        c: (i * 3) as i32,
        d: i as f64 * 1.5,
        payload_len,
        payload: ptr,
    }
}

fn free_elem(e: &mut CElem) {
    if !e.payload.is_null() {
        // SAFETY: allocated in make_elem via boxed slice of payload_len.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                e.payload,
                e.payload_len,
            )));
        }
        e.payload = std::ptr::null_mut();
    }
}

fn create_type() -> MPI_Datatype {
    let mut ty: MPI_Datatype = 0;
    let rc = unsafe {
        MPI_Type_create_custom(
            Some(statefn),
            Some(freefn),
            Some(queryfn),
            Some(packfn),
            Some(unpackfn),
            Some(region_countfn),
            Some(regionfn),
            std::ptr::null_mut(),
            0,
            &mut ty,
        )
    };
    assert_eq!(rc, MPI_SUCCESS);
    ty
}

fn scenario_blocking_custom_exchange() {
    let ty = create_type();
    const N: usize = 8;
    const PAYLOAD: usize = 256;

    let sender = std::thread::spawn(move || {
        assert_eq!(mpi_attach_rank(0), MPI_SUCCESS);
        let mut rank: c_int = -1;
        assert_eq!(
            unsafe { MPI_Comm_rank(MPI_COMM_WORLD, &mut rank) },
            MPI_SUCCESS
        );
        assert_eq!(rank, 0);
        let mut elems: Vec<CElem> = (0..N).map(|i| make_elem(i, PAYLOAD)).collect();
        let rc = unsafe {
            MPI_Send(
                elems.as_ptr().cast(),
                N as MPI_Count,
                ty,
                1,
                7,
                MPI_COMM_WORLD,
            )
        };
        assert_eq!(rc, MPI_SUCCESS);
        elems.iter_mut().for_each(free_elem);
    });

    let receiver = std::thread::spawn(move || {
        assert_eq!(mpi_attach_rank(1), MPI_SUCCESS);
        let mut size: c_int = 0;
        assert_eq!(
            unsafe { MPI_Comm_size(MPI_COMM_WORLD, &mut size) },
            MPI_SUCCESS
        );
        assert_eq!(size, 2);
        let mut elems: Vec<CElem> = (0..N).map(|i| make_elem(100 + i, PAYLOAD)).collect();
        // Zero the fields so we can verify they arrive.
        for e in &mut elems {
            e.a = 0;
            e.b = 0;
            e.c = 0;
            e.d = 0.0;
            // SAFETY: payload allocated with PAYLOAD elements.
            unsafe { std::slice::from_raw_parts_mut(e.payload, PAYLOAD).fill(0.0) };
        }
        let mut status = MPI_Status::default();
        let rc = unsafe {
            MPI_Recv(
                elems.as_mut_ptr().cast(),
                N as MPI_Count,
                ty,
                0,
                7,
                MPI_COMM_WORLD,
                &mut status,
            )
        };
        assert_eq!(rc, MPI_SUCCESS);
        assert_eq!(status.MPI_SOURCE, 0);
        assert_eq!(status.MPI_TAG, 7);
        assert_eq!(status.count as usize, N * 20 + N * PAYLOAD * 8);
        for (i, e) in elems.iter().enumerate() {
            assert_eq!(e.a, i as i32);
            assert_eq!(e.b, (i * 2) as i32);
            assert_eq!(e.c, (i * 3) as i32);
            assert_eq!(e.d, i as f64 * 1.5);
            let p = unsafe { std::slice::from_raw_parts(e.payload, PAYLOAD) };
            for (j, v) in p.iter().enumerate() {
                assert_eq!(*v, (i * 1000 + j) as f64, "payload[{j}] of element {i}");
            }
        }
        elems.iter_mut().for_each(free_elem);
    });

    sender.join().unwrap();
    receiver.join().unwrap();
    assert_eq!(STATE_LIVE.load(Ordering::SeqCst), 0, "every state freed");
}

fn scenario_nonblocking_bytes() {
    let t0 = std::thread::spawn(|| {
        assert_eq!(mpi_attach_rank(0), MPI_SUCCESS);
        let data = vec![0x5au8; 4096];
        let mut req: MPI_Request = MPI_REQUEST_NULL;
        let rc = unsafe {
            MPI_Isend(
                data.as_ptr().cast(),
                data.len() as MPI_Count,
                MPI_BYTE,
                1,
                9,
                MPI_COMM_WORLD,
                &mut req,
            )
        };
        assert_eq!(rc, MPI_SUCCESS);
        assert_eq!(
            unsafe { MPI_Wait(&mut req, MPI_STATUS_IGNORE) },
            MPI_SUCCESS
        );
        assert_eq!(req, MPI_REQUEST_NULL);
    });
    let t1 = std::thread::spawn(|| {
        assert_eq!(mpi_attach_rank(1), MPI_SUCCESS);
        let mut buf = vec![0u8; 4096];
        let mut req: MPI_Request = MPI_REQUEST_NULL;
        let rc = unsafe {
            MPI_Irecv(
                buf.as_mut_ptr().cast(),
                buf.len() as MPI_Count,
                MPI_BYTE,
                MPI_ANY_SOURCE,
                9,
                MPI_COMM_WORLD,
                &mut req,
            )
        };
        assert_eq!(rc, MPI_SUCCESS);
        let mut status = MPI_Status::default();
        assert_eq!(unsafe { MPI_Wait(&mut req, &mut status) }, MPI_SUCCESS);
        assert_eq!(status.count, 4096);
        assert!(buf.iter().all(|b| *b == 0x5a));
    });
    t0.join().unwrap();
    t1.join().unwrap();
}

fn scenario_probe() {
    let t0 = std::thread::spawn(|| {
        assert_eq!(mpi_attach_rank(0), MPI_SUCCESS);
        let data = [1u8, 2, 3, 4, 5];
        let rc = unsafe { MPI_Send(data.as_ptr().cast(), 5, MPI_BYTE, 1, 11, MPI_COMM_WORLD) };
        assert_eq!(rc, MPI_SUCCESS);
    });
    let t1 = std::thread::spawn(|| {
        assert_eq!(mpi_attach_rank(1), MPI_SUCCESS);
        let mut status = MPI_Status::default();
        let rc = unsafe { MPI_Probe_sim(MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, &mut status) };
        assert_eq!(rc, MPI_SUCCESS);
        assert_eq!(status.count, 5);
        assert_eq!(status.MPI_TAG, 11);
        // The message is still there; receive it (the mpi4py Mprobe pattern).
        let mut buf = vec![0u8; status.count as usize];
        let rc = unsafe {
            MPI_Recv(
                buf.as_mut_ptr().cast(),
                status.count,
                MPI_BYTE,
                status.MPI_SOURCE,
                status.MPI_TAG,
                MPI_COMM_WORLD,
                MPI_STATUS_IGNORE,
            )
        };
        assert_eq!(rc, MPI_SUCCESS);
        assert_eq!(buf, vec![1, 2, 3, 4, 5]);
    });
    t0.join().unwrap();
    t1.join().unwrap();
}

fn scenario_truncation_error() {
    let t0 = std::thread::spawn(|| {
        assert_eq!(mpi_attach_rank(0), MPI_SUCCESS);
        let data = [0u8; 100];
        let rc = unsafe { MPI_Send(data.as_ptr().cast(), 100, MPI_BYTE, 1, 13, MPI_COMM_WORLD) };
        assert_eq!(rc, MPI_SUCCESS);
    });
    let t1 = std::thread::spawn(|| {
        assert_eq!(mpi_attach_rank(1), MPI_SUCCESS);
        let mut buf = vec![0u8; 10];
        let rc = unsafe {
            MPI_Recv(
                buf.as_mut_ptr().cast(),
                10,
                MPI_BYTE,
                0,
                13,
                MPI_COMM_WORLD,
                MPI_STATUS_IGNORE,
            )
        };
        assert_eq!(rc, MPI_ERR_TRUNCATE);
    });
    t0.join().unwrap();
    t1.join().unwrap();
}

fn scenario_derived_datatypes() {
    // Build struct { int a,b,c; /*gap*/ double d; } with the classic
    // constructors, commit, and exchange — the rsmpi baseline through C.
    let mut gapped: MPI_Datatype = 0;
    let blocklengths: [MPI_Count; 2] = [3, 1];
    let displacements: [MPI_Count; 2] = [0, 16];
    let types: [MPI_Datatype; 2] = [MPI_INT, MPI_DOUBLE];
    let rc = unsafe {
        MPI_Type_create_struct(
            2,
            blocklengths.as_ptr(),
            displacements.as_ptr(),
            types.as_ptr(),
            &mut gapped,
        )
    };
    assert_eq!(rc, MPI_SUCCESS);

    // Sending before commit is a type error (like real MPI).
    #[repr(C)]
    #[derive(Clone, Copy, Default, PartialEq, Debug)]
    struct Gapped {
        a: i32,
        b: i32,
        c: i32,
        d: f64,
    }
    assert_eq!(std::mem::size_of::<Gapped>(), 24);

    // Commit acts on the shared handle, so rank 1 may commit only after
    // rank 0's uncommitted send has been rejected.
    let (rejected_tx, rejected_rx) = std::sync::mpsc::channel();
    let t0 = std::thread::spawn(move || {
        assert_eq!(mpi_attach_rank(0), MPI_SUCCESS);
        let elems: Vec<Gapped> = (0..50)
            .map(|i| Gapped {
                a: i,
                b: 2 * i,
                c: 3 * i,
                d: i as f64,
            })
            .collect();
        let rc = unsafe { MPI_Send(elems.as_ptr().cast(), 50, gapped, 1, 20, MPI_COMM_WORLD) };
        assert_eq!(rc, MPI_ERR_TYPE, "uncommitted type rejected");
        rejected_tx.send(()).unwrap();

        let mut committed = gapped;
        assert_eq!(unsafe { MPI_Type_commit(&mut committed) }, MPI_SUCCESS);
        let rc = unsafe { MPI_Send(elems.as_ptr().cast(), 50, committed, 1, 20, MPI_COMM_WORLD) };
        assert_eq!(rc, MPI_SUCCESS);
    });
    let t1 = std::thread::spawn(move || {
        assert_eq!(mpi_attach_rank(1), MPI_SUCCESS);
        rejected_rx.recv().unwrap();
        let mut committed = gapped;
        assert_eq!(unsafe { MPI_Type_commit(&mut committed) }, MPI_SUCCESS);
        let mut elems = vec![Gapped::default(); 50];
        let mut status = MPI_Status::default();
        let rc = unsafe {
            MPI_Recv(
                elems.as_mut_ptr().cast(),
                50,
                committed,
                0,
                20,
                MPI_COMM_WORLD,
                &mut status,
            )
        };
        assert_eq!(rc, MPI_SUCCESS);
        assert_eq!(status.count, 50 * 20, "20 data bytes per element");
        let mut n: MPI_Count = 0;
        assert_eq!(
            unsafe { MPI_Get_count(&status, committed, &mut n) },
            MPI_SUCCESS
        );
        assert_eq!(n, 50);
        for (i, e) in elems.iter().enumerate() {
            let i = i as i32;
            assert_eq!(
                *e,
                Gapped {
                    a: i,
                    b: 2 * i,
                    c: 3 * i,
                    d: i as f64
                }
            );
        }
    });
    t0.join().unwrap();
    t1.join().unwrap();
}

fn scenario_predefined_int_exchange() {
    let t0 = std::thread::spawn(|| {
        assert_eq!(mpi_attach_rank(0), MPI_SUCCESS);
        let data: Vec<i32> = (0..100).collect();
        let rc = unsafe { MPI_Send(data.as_ptr().cast(), 100, MPI_INT, 1, 21, MPI_COMM_WORLD) };
        assert_eq!(rc, MPI_SUCCESS);
    });
    let t1 = std::thread::spawn(|| {
        assert_eq!(mpi_attach_rank(1), MPI_SUCCESS);
        let mut data = vec![0i32; 100];
        let mut status = MPI_Status::default();
        let rc = unsafe {
            MPI_Recv(
                data.as_mut_ptr().cast(),
                100,
                MPI_INT,
                0,
                21,
                MPI_COMM_WORLD,
                &mut status,
            )
        };
        assert_eq!(rc, MPI_SUCCESS);
        let mut n: MPI_Count = 0;
        assert_eq!(
            unsafe { MPI_Get_count(&status, MPI_INT, &mut n) },
            MPI_SUCCESS
        );
        assert_eq!(n, 100);
        assert_eq!(data, (0..100).collect::<Vec<i32>>());
    });
    t0.join().unwrap();
    t1.join().unwrap();
}

fn scenario_matched_probe() {
    // The mpi4py pattern: Mprobe for the size, allocate, Mrecv.
    let t0 = std::thread::spawn(|| {
        assert_eq!(mpi_attach_rank(0), MPI_SUCCESS);
        let data: Vec<u8> = (0..77).collect();
        let rc = unsafe { MPI_Send(data.as_ptr().cast(), 77, MPI_BYTE, 1, 30, MPI_COMM_WORLD) };
        assert_eq!(rc, MPI_SUCCESS);
    });
    let t1 = std::thread::spawn(|| {
        assert_eq!(mpi_attach_rank(1), MPI_SUCCESS);
        // First check Iprobe is nonblocking and eventually sees it.
        let mut flag: c_int = 0;
        let mut status = MPI_Status::default();
        while flag == 0 {
            let rc = unsafe {
                MPI_Iprobe(
                    MPI_ANY_SOURCE,
                    MPI_ANY_TAG,
                    MPI_COMM_WORLD,
                    &mut flag,
                    &mut status,
                )
            };
            assert_eq!(rc, MPI_SUCCESS);
        }
        assert_eq!(status.count, 77);

        let mut msg: MPI_Request = MPI_REQUEST_NULL;
        let rc =
            unsafe { MPI_Mprobe_sim(MPI_ANY_SOURCE, 30, MPI_COMM_WORLD, &mut msg, &mut status) };
        assert_eq!(rc, MPI_SUCCESS);
        let mut buf = vec![0u8; status.count as usize];
        let rc =
            unsafe { MPI_Mrecv_sim(buf.as_mut_ptr().cast(), status.count, &mut msg, &mut status) };
        assert_eq!(rc, MPI_SUCCESS);
        assert_eq!(msg, MPI_REQUEST_NULL);
        assert_eq!(buf, (0..77).collect::<Vec<u8>>());
        // Double-consume is a request error.
        let mut stale: MPI_Request = -2;
        let rc =
            unsafe { MPI_Mrecv_sim(buf.as_mut_ptr().cast(), 1, &mut stale, MPI_STATUS_IGNORE) };
        assert_eq!(rc, MPI_ERR_REQUEST);
    });
    t0.join().unwrap();
    t1.join().unwrap();
}

#[test]
fn c_api_end_to_end() {
    assert_eq!(mpi_init_sim(2), MPI_SUCCESS);
    assert_eq!(mpi_init_sim(2), MPI_ERR_ARG, "double init rejected");

    scenario_blocking_custom_exchange();
    scenario_nonblocking_bytes();
    scenario_probe();
    scenario_truncation_error();
    scenario_derived_datatypes();
    scenario_predefined_int_exchange();
    scenario_matched_probe();

    assert_eq!(mpi_finalize_sim(), MPI_SUCCESS);
}
