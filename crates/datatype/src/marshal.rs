//! Datatype marshalling: serialize a datatype *description* so it can be
//! shipped to another process and reconstructed — the capability studied
//! by Kimpe, Goodell and Ross (EuroMPI'10) and cited by the paper as the
//! mirror image of its own proposal (datatypes *from* memory regions vs.
//! regions *from* datatypes).
//!
//! The format is a compact recursive binary encoding; roundtrips preserve
//! the constructor tree exactly (not just the type map).

use crate::error::{DatatypeError, DatatypeResult};
use crate::primitive::Primitive;
use crate::typ::Datatype;

const TAG_PREDEFINED: u8 = 0;
const TAG_CONTIGUOUS: u8 = 1;
const TAG_VECTOR: u8 = 2;
const TAG_HVECTOR: u8 = 3;
const TAG_INDEXED: u8 = 4;
const TAG_HINDEXED: u8 = 5;
const TAG_STRUCT: u8 = 6;
const TAG_RESIZED: u8 = 7;

fn prim_code(p: Primitive) -> u8 {
    match p {
        Primitive::Byte => 0,
        Primitive::Int16 => 1,
        Primitive::Int32 => 2,
        Primitive::Int64 => 3,
        Primitive::Float => 4,
        Primitive::Double => 5,
    }
}

fn prim_from(c: u8) -> Option<Primitive> {
    Some(match c {
        0 => Primitive::Byte,
        1 => Primitive::Int16,
        2 => Primitive::Int32,
        3 => Primitive::Int64,
        4 => Primitive::Float,
        5 => Primitive::Double,
        _ => return None,
    })
}

/// Serialize a datatype description.
pub fn marshal(t: &Datatype) -> Vec<u8> {
    let _sp = mpicd_obs::span!("dt.marshal", "datatype");
    let mut out = Vec::new();
    encode(t, &mut out);
    out
}

/// Leading byte of a structural-signature frame: [`SIG_MAGIC`] followed by
/// the sender's 64-bit structural signature
/// ([`crate::equivalence::signature64`]) in little-endian order. The value
/// sits outside the constructor-tag range 0..=7, so framed and plain
/// buffers are unambiguous.
pub const SIG_MAGIC: u8 = 0xC6;

/// Serialize the transfer header for a marshalled send: the structural
/// signature frame (`0xC6`), then the datatype description.
///
/// A zero `sig` means "unchecked" (the raw-byte sentinel) and suppresses
/// the frame. The receive side recovers both parts with
/// [`unmarshal_with_header`] and hands the signature to the fabric's
/// `MPICD_TYPECHECK` comparison before unpacking any payload.
pub fn marshal_with_header(t: &Datatype, sig: u64) -> Vec<u8> {
    let _sp = mpicd_obs::span!("dt.marshal", "datatype");
    let mut out = Vec::with_capacity(9);
    if sig != 0 {
        out.push(SIG_MAGIC);
        out.extend_from_slice(&sig.to_le_bytes());
    }
    encode(t, &mut out);
    out
}

/// Reconstruct a datatype description plus the optional structural
/// signature frame written by [`marshal_with_header`].
///
/// An absent frame yields signature `0` ("unchecked"), so plain
/// [`marshal`] buffers decode unchanged. Any other leading byte outside
/// the constructor tags is an unknown tag — including the retired `0xC5`
/// causal-context frame.
pub fn unmarshal_with_header(bytes: &[u8]) -> DatatypeResult<(Datatype, u64)> {
    let mut rest = bytes;
    let mut sig = 0u64;
    if rest.first() == Some(&SIG_MAGIC) {
        if rest.len() < 1 + 8 {
            return Err(DatatypeError::InvalidArgument("truncated signature frame"));
        }
        sig = u64::from_le_bytes(rest[1..9].try_into().unwrap());
        rest = &rest[9..];
    }
    Ok((unmarshal(rest)?, sig))
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode(t: &Datatype, out: &mut Vec<u8>) {
    match t {
        Datatype::Predefined(p) => {
            out.push(TAG_PREDEFINED);
            out.push(prim_code(*p));
        }
        Datatype::Contiguous { count, child } => {
            out.push(TAG_CONTIGUOUS);
            put_u64(out, *count as u64);
            encode(child, out);
        }
        Datatype::Vector {
            count,
            blocklength,
            stride,
            child,
        } => {
            out.push(TAG_VECTOR);
            put_u64(out, *count as u64);
            put_u64(out, *blocklength as u64);
            put_i64(out, *stride as i64);
            encode(child, out);
        }
        Datatype::Hvector {
            count,
            blocklength,
            stride_bytes,
            child,
        } => {
            out.push(TAG_HVECTOR);
            put_u64(out, *count as u64);
            put_u64(out, *blocklength as u64);
            put_i64(out, *stride_bytes as i64);
            encode(child, out);
        }
        Datatype::Indexed { blocks, child } | Datatype::Hindexed { blocks, child } => {
            out.push(if matches!(t, Datatype::Indexed { .. }) {
                TAG_INDEXED
            } else {
                TAG_HINDEXED
            });
            put_u64(out, blocks.len() as u64);
            for (bl, d) in blocks {
                put_u64(out, *bl as u64);
                put_i64(out, *d as i64);
            }
            encode(child, out);
        }
        Datatype::Struct { fields } => {
            out.push(TAG_STRUCT);
            put_u64(out, fields.len() as u64);
            for (bl, d, ft) in fields {
                put_u64(out, *bl as u64);
                put_i64(out, *d as i64);
                encode(ft, out);
            }
        }
        Datatype::Resized { lb, extent, child } => {
            out.push(TAG_RESIZED);
            put_i64(out, *lb as i64);
            put_u64(out, *extent as u64);
            encode(child, out);
        }
    }
}

/// Reconstruct a datatype description.
pub fn unmarshal(bytes: &[u8]) -> DatatypeResult<Datatype> {
    let _sp = mpicd_obs::span!("dt.unmarshal", "datatype", bytes.len());
    let mut pos = 0usize;
    let t = decode(bytes, &mut pos, 0)?;
    if pos != bytes.len() {
        return Err(DatatypeError::InvalidArgument(
            "trailing bytes after marshalled datatype",
        ));
    }
    Ok(t)
}

const MAX_DEPTH: usize = 64;

struct Reader;

impl Reader {
    fn u8(bytes: &[u8], pos: &mut usize) -> DatatypeResult<u8> {
        let b = *bytes
            .get(*pos)
            .ok_or(DatatypeError::InvalidArgument("truncated datatype"))?;
        *pos += 1;
        Ok(b)
    }

    fn u64(bytes: &[u8], pos: &mut usize) -> DatatypeResult<u64> {
        if *pos + 8 > bytes.len() {
            return Err(DatatypeError::InvalidArgument("truncated datatype"));
        }
        let v = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().unwrap());
        *pos += 8;
        Ok(v)
    }

    fn i64(bytes: &[u8], pos: &mut usize) -> DatatypeResult<i64> {
        Ok(Self::u64(bytes, pos)? as i64)
    }
}

fn decode(bytes: &[u8], pos: &mut usize, depth: usize) -> DatatypeResult<Datatype> {
    if depth > MAX_DEPTH {
        return Err(DatatypeError::InvalidArgument(
            "marshalled datatype nests too deeply",
        ));
    }
    let tag = Reader::u8(bytes, pos)?;
    Ok(match tag {
        TAG_PREDEFINED => {
            let code = Reader::u8(bytes, pos)?;
            Datatype::Predefined(
                prim_from(code).ok_or(DatatypeError::InvalidArgument("unknown primitive code"))?,
            )
        }
        TAG_CONTIGUOUS => {
            let count = Reader::u64(bytes, pos)? as usize;
            Datatype::contiguous(count, decode(bytes, pos, depth + 1)?)
        }
        TAG_VECTOR => {
            let count = Reader::u64(bytes, pos)? as usize;
            let bl = Reader::u64(bytes, pos)? as usize;
            let stride = Reader::i64(bytes, pos)? as isize;
            Datatype::vector(count, bl, stride, decode(bytes, pos, depth + 1)?)
        }
        TAG_HVECTOR => {
            let count = Reader::u64(bytes, pos)? as usize;
            let bl = Reader::u64(bytes, pos)? as usize;
            let stride = Reader::i64(bytes, pos)? as isize;
            Datatype::hvector(count, bl, stride, decode(bytes, pos, depth + 1)?)
        }
        TAG_INDEXED | TAG_HINDEXED => {
            let n = Reader::u64(bytes, pos)? as usize;
            if n > bytes.len() {
                return Err(DatatypeError::InvalidArgument("block count exceeds input"));
            }
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                let bl = Reader::u64(bytes, pos)? as usize;
                let d = Reader::i64(bytes, pos)? as isize;
                blocks.push((bl, d));
            }
            let child = decode(bytes, pos, depth + 1)?;
            if tag == TAG_INDEXED {
                Datatype::indexed(blocks, child)
            } else {
                Datatype::hindexed(blocks, child)
            }
        }
        TAG_STRUCT => {
            let n = Reader::u64(bytes, pos)? as usize;
            if n > bytes.len() {
                return Err(DatatypeError::InvalidArgument("field count exceeds input"));
            }
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let bl = Reader::u64(bytes, pos)? as usize;
                let d = Reader::i64(bytes, pos)? as isize;
                let ft = decode(bytes, pos, depth + 1)?;
                fields.push((bl, d, ft));
            }
            Datatype::structure(fields)
        }
        TAG_RESIZED => {
            let lb = Reader::i64(bytes, pos)? as isize;
            let extent = Reader::u64(bytes, pos)? as usize;
            Datatype::resized(lb, extent, decode(bytes, pos, depth + 1)?)
        }
        _ => return Err(DatatypeError::InvalidArgument("unknown datatype tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::equivalent;

    fn sample() -> Datatype {
        Datatype::structure(vec![
            (2, 0, Datatype::vector(3, 2, 4, Datatype::of::<i32>())),
            (
                1,
                128,
                Datatype::hindexed(vec![(1, 0), (2, 24)], Datatype::of::<f64>()),
            ),
            (
                1,
                256,
                Datatype::resized(0, 64, Datatype::contiguous(4, Datatype::of::<i16>())),
            ),
        ])
    }

    #[test]
    fn roundtrip_preserves_tree_semantics() {
        let t = sample();
        let bytes = marshal(&t);
        let back = unmarshal(&bytes).unwrap();
        assert!(equivalent(&t, &back));
        assert_eq!(t.size(), back.size());
        assert_eq!(t.extent(), back.extent());
        // Re-marshalling is byte-identical (canonical encoding).
        assert_eq!(marshal(&back), bytes);
    }

    #[test]
    fn committed_output_matches_after_roundtrip() {
        let t = sample();
        let back = unmarshal(&marshal(&t)).unwrap();
        let c1 = t.commit().unwrap();
        let c2 = back.commit().unwrap();
        let src: Vec<u8> = (0..c1.required_span(2).unwrap()).map(|i| i as u8).collect();
        assert_eq!(
            c1.pack_slice(&src, 2).unwrap(),
            c2.pack_slice(&src, 2).unwrap()
        );
    }

    #[test]
    fn truncation_detected() {
        let bytes = marshal(&sample());
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(unmarshal(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        // Pin the *typed* error, not just `is_err()`: extra bytes after a
        // well-formed description must never be silently ignored, on
        // either decode entry point.
        let mut bytes = marshal(&Datatype::of::<i32>());
        bytes.push(0);
        let expect = |r: DatatypeResult<()>| {
            assert!(
                matches!(
                    r,
                    Err(DatatypeError::InvalidArgument(
                        "trailing bytes after marshalled datatype"
                    ))
                ),
                "want the pinned trailing-bytes error, got {r:?}"
            );
        };
        expect(unmarshal(&bytes).map(|_| ()));
        expect(unmarshal_with_header(&bytes).map(|_| ()));
        // Same for a framed buffer with garbage after the description.
        let mut framed = marshal_with_header(&Datatype::of::<i32>(), 7);
        framed.push(0xAB);
        expect(unmarshal_with_header(&framed).map(|_| ()));
    }

    #[test]
    fn unknown_tag_detected() {
        assert!(unmarshal(&[0xFF]).is_err());
        assert!(unmarshal(&[TAG_PREDEFINED, 99]).is_err());
    }

    #[test]
    fn header_frame_roundtrips() {
        let t = sample();
        let sig = crate::equivalence::signature64(&t).unwrap();
        let bytes = marshal_with_header(&t, sig);
        assert_eq!(bytes[0], SIG_MAGIC);
        assert_eq!(bytes.len(), marshal(&t).len() + 9);
        let (back, rsig) = unmarshal_with_header(&bytes).unwrap();
        assert!(equivalent(&t, &back));
        assert_eq!(rsig, sig);
        // The magic byte can never collide with a constructor tag.
        assert!(marshal(&t)[0] < SIG_MAGIC);
    }

    #[test]
    fn zero_signature_suppresses_the_frame() {
        let t = sample();
        let bytes = marshal_with_header(&t, 0);
        assert_eq!(bytes, marshal(&t));
        let (_, sig) = unmarshal_with_header(&bytes).unwrap();
        assert_eq!(sig, 0, "absent frame decodes as the unchecked sentinel");
    }

    #[test]
    fn truncated_signature_frame_detected() {
        let bytes = marshal_with_header(&sample(), 0x1234);
        for cut in 1..9 {
            assert!(unmarshal_with_header(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn retired_context_frame_is_a_typed_error() {
        // A buffer framed the old way (0xC5, a 20-byte causal context,
        // then the description) is rejected, never half-read.
        let mut old = vec![0xC5];
        old.extend_from_slice(&[0u8; 20]);
        old.extend_from_slice(&marshal(&sample()));
        assert_eq!(
            unmarshal_with_header(&old).map(|_| ()),
            Err(DatatypeError::InvalidArgument("unknown datatype tag"))
        );
    }

    #[test]
    fn depth_bomb_rejected() {
        // 100 nested contiguous(1, …) wrappers exceed MAX_DEPTH.
        let mut bytes = Vec::new();
        for _ in 0..100 {
            bytes.push(TAG_CONTIGUOUS);
            bytes.extend_from_slice(&1u64.to_le_bytes());
        }
        bytes.push(TAG_PREDEFINED);
        bytes.push(0);
        assert!(unmarshal(&bytes).is_err());
    }
}
