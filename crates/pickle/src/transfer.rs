//! The three mpi4py-style transfer strategies of Figs 8–9.
//!
//! * **basic** — one message carrying the full in-band stream; the receiver
//!   probes for the size (mpi4py's `MPI_Mprobe` pattern), allocates, and
//!   deserializes with a copy per buffer.
//! * **oob** — the in-band header stream, a buffer-lengths message, and one
//!   message *per* out-of-band buffer, all on the same tag (this is the
//!   multi-message, tag-space-sharing approach whose thread-safety costs
//!   the paper criticizes).
//! * **oob-cdt** — a small lengths message, then **one** custom-datatype
//!   operation whose packed stream is the pickle header and whose regions
//!   are the out-of-band buffers ("a single pair of outer MPI messages with
//!   the MPI engine handling internally the pieces").

use crate::de::{loads, loads_oob};
use crate::error::{PickleError, PickleResult};
use crate::object::PyObject;
use crate::ser::{dumps, dumps_oob, OobBuffer};
use mpicd::datatype::{CustomPack, CustomUnpack, SendRegion};
use mpicd::{Communicator, Result as MpiResult};

/// Encode the out-of-band shape header: stream length + buffer lengths.
fn encode_lengths(stream_len: usize, bufs: &[OobBuffer]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 8 * bufs.len());
    out.extend_from_slice(&(stream_len as u64).to_le_bytes());
    out.extend_from_slice(&(bufs.len() as u64).to_le_bytes());
    for b in bufs {
        out.extend_from_slice(&(b.len() as u64).to_le_bytes());
    }
    out
}

/// Decode the shape header.
fn decode_lengths(bytes: &[u8]) -> PickleResult<(usize, Vec<usize>)> {
    if bytes.len() < 16 {
        return Err(PickleError::Protocol("short lengths header"));
    }
    let stream_len = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
    let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    if bytes.len() - 16 != n.saturating_mul(8) {
        return Err(PickleError::Protocol("lengths header size mismatch"));
    }
    let lens: Vec<usize> = (0..n)
        .map(|i| {
            let at = 16 + 8 * i;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
        })
        .collect();
    // The receive allocates these lengths and sums them with the stream's.
    lens.iter()
        .try_fold(stream_len, |total, &len| total.checked_add(len))
        .filter(|&total| total <= isize::MAX as usize)
        .ok_or(PickleError::Protocol("lengths header overflows"))?;
    Ok((stream_len, lens))
}

// ---- basic ------------------------------------------------------------------

/// `pickle-basic` send: serialize everything in-band, one message.
pub fn send_pickle_basic(
    comm: &Communicator,
    obj: &PyObject,
    dest: usize,
    tag: i32,
) -> PickleResult<()> {
    let stream = dumps(obj); // full-size intermediate allocation + copy
    comm.send(&stream, dest, tag)?;
    Ok(())
}

/// `pickle-basic` receive: matched-probe for the size (mpi4py's
/// `MPI_Mprobe` pattern — race-free under threads), allocate, receive,
/// load. The stream lands in a fresh, unzeroed allocation.
pub fn recv_pickle_basic(comm: &Communicator, source: i32, tag: i32) -> PickleResult<PyObject> {
    let (_, msg) = comm.mprobe(source, tag);
    let buf = comm.mrecv_vec(msg)?;
    loads(&buf)
}

// ---- oob (multi-message) ------------------------------------------------------

/// `pickle-oob` send: header stream + lengths message + one message per
/// buffer.
pub fn send_pickle_oob(
    comm: &Communicator,
    obj: &PyObject,
    dest: usize,
    tag: i32,
) -> PickleResult<()> {
    let (stream, bufs) = dumps_oob(obj);
    comm.send(&stream, dest, tag)?;
    let lens = encode_lengths(stream.len(), &bufs);
    comm.send(&lens, dest, tag)?;
    for b in &bufs {
        send_bytes_ref(comm, b.as_slice(), dest, tag)?;
    }
    Ok(())
}

/// `pickle-oob` receive. Each buffer lands in a fresh allocation of the
/// length the header announced; a shorter buffer message is a
/// [`PickleError::BufferLength`].
pub fn recv_pickle_oob(comm: &Communicator, source: i32, tag: i32) -> PickleResult<PyObject> {
    let (st, msg) = comm.mprobe(source, tag);
    let stream = comm.mrecv_vec(msg)?;
    let (_, msg2) = comm.mprobe(st.source as i32, st.tag);
    let lens_msg = comm.mrecv_vec(msg2)?;
    let (stream_len, lens) = decode_lengths(&lens_msg)?;
    if stream_len != stream.len() {
        return Err(PickleError::Protocol("stream length disagrees with header"));
    }
    let mut bufs = Vec::with_capacity(lens.len());
    for (index, len) in lens.into_iter().enumerate() {
        // Receive-side allocation per buffer.
        let (b, _) = comm
            .recv_vec(len, st.source as i32, st.tag)
            .map_err(|e| match e {
                mpicd::Error::LengthMismatch { expected, got } => PickleError::BufferLength {
                    index,
                    expected,
                    got,
                },
                e => e.into(),
            })?;
        bufs.push(b);
    }
    loads_oob(&stream, bufs)
}

fn send_bytes_ref(comm: &Communicator, bytes: &[u8], dest: usize, tag: i32) -> MpiResult<()> {
    comm.send(bytes, dest, tag).map(|_| ())
}

// ---- oob via custom datatype ---------------------------------------------------

/// Send context: pickle header stream packs in-band, array buffers ride as
/// zero-copy regions.
struct PickleCdtPack<'a> {
    stream: &'a [u8],
    bufs: &'a [OobBuffer],
}

impl CustomPack for PickleCdtPack<'_> {
    fn packed_size(&self) -> MpiResult<usize> {
        Ok(self.stream.len())
    }

    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> MpiResult<usize> {
        let n = dst.len().min(self.stream.len() - offset);
        dst[..n].copy_from_slice(&self.stream[offset..offset + n]);
        Ok(n)
    }

    fn regions(&mut self) -> MpiResult<Vec<SendRegion>> {
        Ok(self
            .bufs
            .iter()
            .map(|b| SendRegion::from_slice(b.as_slice()))
            .collect())
    }

    fn inorder(&self) -> bool {
        false
    }
}

/// Receive context: the header stream lands in a scratch vec; the buffers
/// are the fresh regions the communicator supplies.
struct PickleCdtUnpack<'a> {
    stream: &'a mut [u8],
}

impl CustomUnpack for PickleCdtUnpack<'_> {
    fn packed_size(&self) -> MpiResult<usize> {
        Ok(self.stream.len())
    }

    fn unpack(&mut self, offset: usize, src: &[u8]) -> MpiResult<()> {
        if offset + src.len() > self.stream.len() {
            return Err(mpicd::Error::InvalidHeader("pickle stream overflow"));
        }
        self.stream[offset..offset + src.len()].copy_from_slice(src);
        Ok(())
    }
}

/// Name the first piece a custom message of `got` bytes left short: the
/// header stream, or out-of-band buffer `index`.
fn short_piece(stream_len: usize, lens: &[usize], got: usize) -> PickleError {
    if got < stream_len {
        return PickleError::Truncated {
            at: got,
            needed: stream_len - got,
        };
    }
    let mut start = stream_len;
    for (index, &len) in lens.iter().enumerate() {
        if got < start + len {
            return PickleError::BufferLength {
                index,
                expected: len,
                got: got - start,
            };
        }
        start += len;
    }
    PickleError::Protocol("custom message disagrees with lengths header")
}

/// `pickle-oob-cdt` send: lengths message, then one custom-datatype
/// operation carrying header + all buffers.
pub fn send_pickle_oob_cdt(
    comm: &Communicator,
    obj: &PyObject,
    dest: usize,
    tag: i32,
) -> PickleResult<()> {
    let (stream, bufs) = dumps_oob(obj);
    let lens = encode_lengths(stream.len(), &bufs);
    comm.send(&lens, dest, tag)?;
    comm.send_custom(
        Box::new(PickleCdtPack {
            stream: &stream,
            bufs: &bufs,
        }),
        dest,
        tag,
    )?;
    Ok(())
}

/// `pickle-oob-cdt` receive. The buffers land in fresh allocations, one
/// region each; a message shorter than the lengths header announced is a
/// typed error naming the short piece.
pub fn recv_pickle_oob_cdt(comm: &Communicator, source: i32, tag: i32) -> PickleResult<PyObject> {
    let (st, msg) = comm.mprobe(source, tag);
    let lens_msg = comm.mrecv_vec(msg)?;
    let (stream_len, lens) = decode_lengths(&lens_msg)?;
    let mut stream = vec![0u8; stream_len];
    let mut ctx = PickleCdtUnpack {
        stream: &mut stream,
    };
    let (bufs, _) = comm
        .recv_custom_fresh(&mut ctx, &lens, st.source as i32, st.tag)
        .map_err(|e| match e {
            mpicd::Error::LengthMismatch { got, .. } => short_piece(stream_len, &lens, got),
            e => e.into(),
        })?;
    loads_oob(&stream, bufs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use mpicd::World;

    fn exchange(
        send: impl FnOnce(&Communicator) -> PickleResult<()> + Send,
        recv: impl FnOnce(&Communicator) -> PickleResult<PyObject> + Send,
    ) -> (PyObject, mpicd::fabric::stats::StatsView) {
        let world = World::new(2);
        let (c0, c1) = world.pair();
        let got = std::thread::scope(|s| {
            let snd = s.spawn(move || send(&c0).unwrap());
            let rcv = s.spawn(move || recv(&c1).unwrap());
            snd.join().unwrap();
            rcv.join().unwrap()
        });
        (got, world.fabric().stats())
    }

    #[test]
    fn basic_roundtrip_is_one_message() {
        let obj = workload::complex_object(512 * 1024);
        let want = obj.clone();
        let (got, stats) = exchange(
            move |c| send_pickle_basic(c, &obj, 1, 0),
            |c| recv_pickle_basic(c, 0, 0),
        );
        assert_eq!(got, want);
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn oob_roundtrip_message_count_scales_with_buffers() {
        let obj = workload::complex_object(512 * 1024); // 4 × 128 KiB arrays
        let n = obj.array_count() as u64;
        let want = obj.clone();
        let (got, stats) = exchange(
            move |c| send_pickle_oob(c, &obj, 1, 0),
            |c| recv_pickle_oob(c, 0, 0),
        );
        assert_eq!(got, want);
        assert_eq!(stats.messages, 2 + n, "stream + lengths + one per buffer");
    }

    #[test]
    fn oob_cdt_roundtrip_is_two_messages() {
        let obj = workload::complex_object(512 * 1024);
        let n = obj.array_count();
        assert_eq!(n, 4);
        let want = obj.clone();
        let (got, stats) = exchange(
            move |c| send_pickle_oob_cdt(c, &obj, 1, 0),
            |c| recv_pickle_oob_cdt(c, 0, 0),
        );
        assert_eq!(got, want);
        assert_eq!(stats.messages, 2, "lengths + one custom message");
        // All four buffers rode as regions of the single custom message.
        assert!(stats.regions >= 5);
    }

    #[test]
    fn single_array_strategies_agree() {
        for strategy in 0..3 {
            let obj = workload::single_array(256 * 1024);
            let want = obj.clone();
            let (got, _) = exchange(
                move |c| match strategy {
                    0 => send_pickle_basic(c, &obj, 1, 0),
                    1 => send_pickle_oob(c, &obj, 1, 0),
                    _ => send_pickle_oob_cdt(c, &obj, 1, 0),
                },
                move |c| match strategy {
                    0 => recv_pickle_basic(c, 0, 0),
                    1 => recv_pickle_oob(c, 0, 0),
                    _ => recv_pickle_oob_cdt(c, 0, 0),
                },
            );
            assert_eq!(got, want, "strategy {strategy}");
        }
    }

    /// A 16-byte array whose sender ships only 8 payload bytes.
    fn lying_exchange(
        send: impl FnOnce(&Communicator, &[u8], &[u8]) + Send,
        recv: impl FnOnce(&Communicator) -> PickleResult<PyObject> + Send,
    ) -> PickleResult<PyObject> {
        let obj = PyObject::Array(crate::object::NdArray::f64_1d(2, 7));
        let (stream, bufs) = dumps_oob(&obj);
        let lens = encode_lengths(stream.len(), &bufs);
        let world = World::new(2);
        let (c0, c1) = world.pair();
        std::thread::scope(|s| {
            s.spawn(move || send(&c0, &stream, &lens));
            s.spawn(move || recv(&c1)).join().unwrap()
        })
    }

    const SHORT: PickleError = PickleError::BufferLength {
        index: 0,
        expected: 16,
        got: 8,
    };

    #[test]
    fn oob_rejects_a_short_buffer_message() {
        let got = lying_exchange(
            |c, stream, lens| {
                c.send(stream, 1, 0).unwrap();
                c.send(lens, 1, 0).unwrap();
                c.send(&[1u8; 8][..], 1, 0).unwrap();
            },
            |c| recv_pickle_oob(c, 0, 0),
        );
        assert_eq!(got, Err(SHORT));
    }

    #[test]
    fn oob_cdt_rejects_a_short_buffer_region() {
        let got = lying_exchange(
            |c, stream, lens| {
                c.send(lens, 1, 0).unwrap();
                let short = [1u8; 8];
                let ctx = mpicd::datatype::HeaderAndRegion::new(stream.to_vec(), &short);
                c.send_custom(Box::new(ctx), 1, 0).unwrap();
            },
            |c| recv_pickle_oob_cdt(c, 0, 0),
        );
        assert_eq!(got, Err(SHORT));
    }

    #[test]
    fn short_piece_names_the_stream_or_the_buffer() {
        assert_eq!(
            short_piece(10, &[4, 6], 7),
            PickleError::Truncated { at: 7, needed: 3 }
        );
        assert_eq!(
            short_piece(10, &[4, 6], 16),
            PickleError::BufferLength {
                index: 1,
                expected: 6,
                got: 2
            }
        );
    }

    #[test]
    fn lengths_header_roundtrip() {
        let bufs: Vec<OobBuffer> = vec![];
        let enc = encode_lengths(7, &bufs);
        assert_eq!(decode_lengths(&enc).unwrap(), (7, vec![]));
        assert!(decode_lengths(&enc[..8]).is_err());
        let mut wrapping = enc.clone();
        wrapping[8..16].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(decode_lengths(&wrapping).is_err(), "8 × count wraps to 0");
        let mut huge = enc.clone();
        huge[8] = 1;
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode_lengths(&huge),
            Err(PickleError::Protocol("lengths header overflows"))
        );
    }
}
