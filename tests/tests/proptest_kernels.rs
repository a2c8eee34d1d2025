//! Byte identity of the compiled plan's copy kernels: one sweep over every
//! DDTBench pattern plus `hvector` byte layouts whose block sizes hit each
//! branch of the static kernel mapping (`Kernel::for_block`). For every
//! input the compiled plan must match the convertor and interpreted
//! engines on whole-stream pack, on fragmented pack at fragment sizes that
//! fall mid-block and mid-word (13 / 16 / 4099 bytes), and on fragmented
//! unpack applied in reverse order. Each op's kernel must show up in its
//! `plan.kernel.*_bytes` counter, and the sweep as a whole must drive
//! every kernel.
//!
//! The counters are process-global, so the sweep is one `#[test]`.

use mpicd_datatype::{Committed, Datatype, Kernel};
use std::collections::BTreeSet;

/// Every kernel the static mapping can select.
const KERNELS: [Kernel; 7] = [
    Kernel::Memcpy,
    Kernel::Fixed4,
    Kernel::Fixed16,
    Kernel::Gather64,
    Kernel::Gather128,
    Kernel::Wide,
    Kernel::Generic,
];

fn kernel_bytes(k: Kernel) -> u64 {
    mpicd_obs::global()
        .snapshot()
        .counter(&format!("plan.kernel.{}_bytes", k.name()))
}

/// The sweep's inputs: name, datatype and a backing buffer.
fn inputs() -> Vec<(String, Datatype, Vec<u8>)> {
    let mut out = Vec::new();
    for name in mpicd_ddtbench::BENCHMARKS {
        let p = mpicd_ddtbench::make(name, 32 * 1024);
        out.push((name.to_string(), p.datatype(), p.base().to_vec()));
    }
    for block in [1usize, 2, 4, 8, 12, 16, 24, 64, 128, 512] {
        for mult in [2usize, 8, 64] {
            let stride = block * mult;
            let count = (8192 / block).max(16);
            let dt = Datatype::hvector(count, block, stride as isize, Datatype::of::<u8>());
            let span = (count - 1) * stride + block;
            let base: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
            out.push((format!("hvector b={block} s={stride}"), dt, base));
        }
    }
    out
}

/// Pack the whole stream through `frag`-byte segments.
fn pack_fragmented(c: &Committed, base: &[u8], frag: usize) -> Vec<u8> {
    let mut acc = Vec::with_capacity(c.size());
    let mut buf = vec![0u8; frag];
    loop {
        // SAFETY: `base` spans the committed type (checked by the caller
        // via `required_span`).
        let n = unsafe { c.pack_segment(base.as_ptr(), 1, acc.len(), &mut buf) };
        if n == 0 {
            return acc;
        }
        acc.extend_from_slice(&buf[..n]);
    }
}

/// Scatter `stream` into a zeroed buffer of `span` bytes through
/// `frag`-byte segments, last segment first.
fn unpack_fragmented_reversed(c: &Committed, stream: &[u8], span: usize, frag: usize) -> Vec<u8> {
    let mut dst = vec![0u8; span];
    let mut cuts: Vec<usize> = (0..stream.len()).step_by(frag).collect();
    cuts.reverse();
    for off in cuts {
        let end = (off + frag).min(stream.len());
        // SAFETY: `dst` spans the committed type (`span >= required_span`).
        let n = unsafe { c.unpack_segment(dst.as_mut_ptr(), 1, off, &stream[off..end]) };
        assert_eq!(n, end - off);
    }
    dst
}

#[test]
fn every_kernel_is_byte_identical_across_engines_and_fragments() {
    let mut ran = BTreeSet::new();
    for (name, dt, base) in inputs() {
        let convertor = dt.commit_convertor().unwrap();
        let interpreted = dt.commit_interpreted().unwrap();
        let compiled = dt.commit().unwrap();
        let span = base.len();
        assert!(
            compiled.required_span(1).unwrap() <= span,
            "{name}: buffer too short"
        );
        let plan = compiled.plan().expect("commit() compiles a plan");

        let reference = convertor.pack_slice(&base, 1).unwrap();
        assert_eq!(
            interpreted.pack_slice(&base, 1).unwrap(),
            reference,
            "{name}: interpreted pack diverges from convertor"
        );

        // Whole-stream pack, with each op's kernel observed in its counter.
        let before: Vec<u64> = plan
            .ops()
            .iter()
            .map(|op| kernel_bytes(op.kernel()))
            .collect();
        assert_eq!(
            compiled.pack_slice(&base, 1).unwrap(),
            reference,
            "{name}: whole-stream pack diverges"
        );
        for (op, b) in plan.ops().iter().zip(before) {
            let k = op.kernel();
            assert!(kernel_bytes(k) > b, "{name}: {k:?} moved no bytes");
            ran.insert(k.name());
        }

        // The memory image every engine must reproduce on unpack.
        let mut image = vec![0u8; span];
        interpreted.unpack_slice(&reference, &mut image, 1).unwrap();
        let mut conv_image = vec![0u8; span];
        convertor
            .unpack_slice(&reference, &mut conv_image, 1)
            .unwrap();
        assert_eq!(conv_image, image, "{name}: convertor unpack diverges");

        for frag in [13usize, 16, 4099] {
            assert_eq!(
                pack_fragmented(&compiled, &base, frag),
                reference,
                "{name}: fragmented pack diverges at frag={frag}"
            );
            assert!(
                unpack_fragmented_reversed(&compiled, &reference, span, frag) == image,
                "{name}: reverse-order fragmented unpack diverges at frag={frag}"
            );
        }
    }

    let all: BTreeSet<_> = KERNELS.iter().map(|k| k.name()).collect();
    assert_eq!(ran, all, "every kernel's byte counter advanced");
}
