//! Serialization: in-band streams and protocol-5-style out-of-band buffers.
//!
//! The format is pickle-flavoured: tag bytes followed by little-endian
//! fields, with NumPy arrays carrying the same `_reconstruct`/`dtype`
//! metadata preamble real `ndarray.__reduce_ex__` emits — which is why a
//! 1-D array header lands at roughly the 120 bytes the paper quotes.

use crate::object::{NdArray, PyObject};
use std::sync::Arc;

// Value tags.
pub(crate) const TAG_NONE: u8 = 0x4E; // 'N'
pub(crate) const TAG_TRUE: u8 = 0x88;
pub(crate) const TAG_FALSE: u8 = 0x89;
pub(crate) const TAG_INT: u8 = 0x4A;
pub(crate) const TAG_FLOAT: u8 = 0x47;
pub(crate) const TAG_STR: u8 = 0x55;
pub(crate) const TAG_BYTES: u8 = 0x42;
pub(crate) const TAG_LIST: u8 = 0x5D;
pub(crate) const TAG_TUPLE: u8 = 0x28;
pub(crate) const TAG_DICT: u8 = 0x7D;
pub(crate) const TAG_ARRAY_INBAND: u8 = 0xA0;
pub(crate) const TAG_ARRAY_OOB: u8 = 0xA1;

/// The module/global references NumPy's `__reduce_ex__` pickles before the
/// array payload (framing opcodes elided). Emitted verbatim so in-band
/// array headers have realistic weight.
pub(crate) const ARRAY_PREAMBLE: &[u8] =
    b"\x8c\x15numpy.core.multiarray\x8c\x0c_reconstruct\x93\x8c\x05numpy\x8c\x07ndarray\x93K\x00\x85\x8c\x01b\x87R";

/// The `numpy.dtype` global reference preceding the dtype descriptor.
pub(crate) const DTYPE_PREAMBLE: &[u8] = b"\x8c\x05numpy\x8c\x05dtype\x93";

/// A zero-copy out-of-band buffer (PEP 574's `PickleBuffer`): shares the
/// array's storage, no bytes are copied at serialization time.
#[derive(Debug, Clone)]
pub struct OobBuffer(pub Arc<Vec<u8>>);

impl OobBuffer {
    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

/// Where the [`Writer`] puts its bytes: a stream, or a counter that sizes
/// the stream without writing it.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes a [`Writer`] would produce.
struct Count(usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

struct Writer<S> {
    out: S,
    oob: Option<Vec<OobBuffer>>,
    /// Memo: buffer identity (Arc data pointer) → out-of-band index, so an
    /// array storage shared within the object graph ships exactly once
    /// (pickle's memoization, applied to PEP 574 buffers).
    memo: std::collections::HashMap<*const u8, u32>,
}

impl<S: Sink> Writer<S> {
    fn u64(&mut self, v: u64) {
        self.out.put(&v.to_le_bytes());
    }

    fn byte(&mut self, b: u8) {
        self.out.put(&[b]);
    }

    fn array_header(&mut self, a: &NdArray) {
        self.out.put(ARRAY_PREAMBLE);
        self.out.put(DTYPE_PREAMBLE);
        let descr = a.dtype.descr().as_bytes();
        self.byte(descr.len() as u8);
        self.out.put(descr);
        self.byte(b'C'); // C (row-major) order, the only one we model
        self.byte(a.shape.len() as u8);
        for d in &a.shape {
            self.u64(*d as u64);
        }
        self.u64(a.nbytes() as u64);
    }

    fn value(&mut self, obj: &PyObject) {
        match obj {
            PyObject::None => self.byte(TAG_NONE),
            PyObject::Bool(true) => self.byte(TAG_TRUE),
            PyObject::Bool(false) => self.byte(TAG_FALSE),
            PyObject::Int(v) => {
                self.byte(TAG_INT);
                self.out.put(&v.to_le_bytes());
            }
            PyObject::Float(v) => {
                self.byte(TAG_FLOAT);
                self.out.put(&v.to_le_bytes());
            }
            PyObject::Str(s) => {
                self.byte(TAG_STR);
                self.u64(s.len() as u64);
                self.out.put(s.as_bytes());
            }
            PyObject::Bytes(b) => {
                self.byte(TAG_BYTES);
                self.u64(b.len() as u64);
                self.out.put(b);
            }
            PyObject::List(v) => {
                self.byte(TAG_LIST);
                self.u64(v.len() as u64);
                v.iter().for_each(|x| self.value(x));
            }
            PyObject::Tuple(v) => {
                self.byte(TAG_TUPLE);
                self.u64(v.len() as u64);
                v.iter().for_each(|x| self.value(x));
            }
            PyObject::Dict(kv) => {
                self.byte(TAG_DICT);
                self.u64(kv.len() as u64);
                for (k, v) in kv {
                    self.value(k);
                    self.value(v);
                }
            }
            PyObject::Array(a) => {
                if self.oob.is_none() {
                    // In-band: header + raw buffer copied into the stream.
                    self.byte(TAG_ARRAY_INBAND);
                    self.array_header(a);
                    self.out.put(&a.data);
                } else {
                    // Out-of-band: header + buffer index; storage is shared,
                    // not copied (PEP 574). Identical storage reuses its
                    // earlier index (memoization).
                    self.byte(TAG_ARRAY_OOB);
                    self.array_header(a);
                    let key = a.data.as_ptr();
                    let idx = match self.memo.get(&key) {
                        Some(idx) => *idx,
                        None => {
                            let oob = self.oob.as_mut().expect("checked above");
                            let idx = oob.len() as u32;
                            oob.push(OobBuffer(Arc::clone(&a.data)));
                            self.memo.insert(key, idx);
                            idx
                        }
                    };
                    self.out.put(&idx.to_le_bytes());
                }
            }
        }
    }
}

/// Run the one [`Writer`] over `obj` into `out`; with `oob` set, array
/// storage comes back as out-of-band buffers instead of stream bytes.
fn write<S: Sink>(obj: &PyObject, oob: bool, out: S) -> (S, Vec<OobBuffer>) {
    let mut w = Writer {
        out,
        oob: oob.then(Vec::new),
        memo: std::collections::HashMap::new(),
    };
    w.value(obj);
    (w.out, w.oob.unwrap_or_default())
}

/// Write `obj` into one allocation of exactly its stream length: a
/// counting pass sizes the stream, then the writer fills it.
fn write_presized(obj: &PyObject, oob: bool) -> (Vec<u8>, Vec<OobBuffer>) {
    let (Count(len), _) = write(obj, oob, Count(0));
    let (out, bufs) = write(obj, oob, Vec::with_capacity(len));
    debug_assert_eq!(out.len(), len, "counting pass sized the stream");
    (out, bufs)
}

/// Serialize fully in-band ("basic pickle"): one stream containing every
/// buffer. For large objects this allocates (and fills) a buffer as large
/// as the object itself — the memory-doubling cost the paper highlights.
pub fn dumps(obj: &PyObject) -> Vec<u8> {
    write_presized(obj, false).0
}

/// Serialize with protocol-5 out-of-band buffers: the returned stream holds
/// only metadata headers; array storage comes back as zero-copy
/// [`OobBuffer`]s in graph order.
pub fn dumps_oob(obj: &PyObject) -> (Vec<u8>, Vec<OobBuffer>) {
    write_presized(obj, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::DType;

    #[test]
    fn inband_stream_contains_buffer() {
        let a = PyObject::Array(NdArray::f64_1d(100, 3));
        let stream = dumps(&a);
        assert!(stream.len() > 800, "800 data bytes live in the stream");
    }

    #[test]
    fn oob_stream_is_small_and_shares_storage() {
        let arr = NdArray::f64_1d(100_000, 5);
        let data_ptr = arr.data.as_ptr();
        let obj = PyObject::Array(arr);
        let (stream, bufs) = dumps_oob(&obj);
        assert!(
            stream.len() < 200,
            "header-only stream, got {}",
            stream.len()
        );
        assert_eq!(bufs.len(), 1);
        assert_eq!(bufs[0].len(), 800_000);
        assert_eq!(bufs[0].as_slice().as_ptr(), data_ptr, "zero-copy");
    }

    #[test]
    fn single_array_header_weighs_about_120_bytes() {
        // The paper: "this metadata header weighs around 120 bytes".
        let obj = PyObject::Array(NdArray::f64_1d(1, 0));
        let (stream, _) = dumps_oob(&obj);
        assert!(
            (90..=150).contains(&stream.len()),
            "header bytes = {}",
            stream.len()
        );
    }

    #[test]
    fn oob_buffers_in_graph_order() {
        let obj = PyObject::List(vec![
            PyObject::Array(NdArray::new(vec![1], DType::U8, vec![1])),
            PyObject::Array(NdArray::new(vec![2], DType::U8, vec![2, 3])),
        ]);
        let (_, bufs) = dumps_oob(&obj);
        assert_eq!(bufs[0].as_slice(), &[1]);
        assert_eq!(bufs[1].as_slice(), &[2, 3]);
    }

    #[test]
    fn shared_storage_ships_once() {
        let arr = NdArray::f64_1d(1000, 9);
        // The same array (same Arc storage) appears twice in the graph.
        let obj = PyObject::List(vec![
            PyObject::Array(arr.clone()),
            PyObject::Array(arr.clone()),
        ]);
        let (stream, bufs) = dumps_oob(&obj);
        assert_eq!(bufs.len(), 1, "memoized: one buffer for two references");
        // And the receive side reconstructs the sharing.
        let received = vec![bufs[0].as_slice().to_vec()];
        let back = crate::de::loads_oob(&stream, received).unwrap();
        if let PyObject::List(items) = &back {
            let (PyObject::Array(a), PyObject::Array(b)) = (&items[0], &items[1]) else {
                panic!("arrays expected");
            };
            assert!(Arc::ptr_eq(&a.data, &b.data), "sharing preserved");
            assert_eq!(a.data.as_slice(), arr.data.as_slice());
        } else {
            panic!("list expected");
        }
    }

    #[test]
    fn presized_streams_match_the_growing_writer_exactly() {
        let arr = NdArray::f64_1d(1000, 9);
        let shared = PyObject::List(vec![
            PyObject::Array(arr.clone()),
            PyObject::Str("between".into()),
            PyObject::Array(arr),
        ]);
        let objects = [
            crate::workload::single_array(160 * 1024),
            crate::workload::complex_object(720 * 1024),
            shared,
        ];
        for obj in &objects {
            let grown = write(obj, false, Vec::new()).0;
            let stream = dumps(obj);
            assert_eq!(stream, grown);
            assert_eq!(stream.capacity(), stream.len());

            let (grown, grown_bufs) = write(obj, true, Vec::new());
            let (stream, bufs) = dumps_oob(obj);
            assert_eq!(stream, grown);
            assert_eq!(stream.capacity(), stream.len());
            assert_eq!(bufs.len(), grown_bufs.len());
            for (b, g) in bufs.iter().zip(&grown_bufs) {
                assert!(Arc::ptr_eq(&b.0, &g.0), "same shared storage");
            }
        }
    }

    #[test]
    fn scalars_serialize_compactly() {
        assert_eq!(dumps(&PyObject::None), vec![TAG_NONE]);
        assert_eq!(dumps(&PyObject::Bool(true)), vec![TAG_TRUE]);
        assert_eq!(dumps(&PyObject::Int(1)).len(), 9);
    }
}
