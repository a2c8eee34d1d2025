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
use mpicd_obs::causal::{CausalContext, CONTEXT_BYTES};

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

/// Leading byte of a context-framed marshalled datatype. Constructor tags
/// occupy 0..=7, so a framed buffer can never be confused with the plain
/// [`marshal`] encoding.
pub const CONTEXT_MAGIC: u8 = 0xC5;

/// Serialize a datatype description together with the sender's causal
/// context (flight id + Lamport clock + origin rank).
///
/// This is the cross-process "transfer header": a receiver that unmarshals
/// the description also learns which transfer shipped it and the sender's
/// logical clock at post time, so receive-side flight events can record
/// their causal parent. Costs [`CONTEXT_BYTES`] + 1 bytes over [`marshal`].
pub fn marshal_with_context(t: &Datatype, ctx: CausalContext) -> Vec<u8> {
    let _sp = mpicd_obs::span!("dt.marshal", "datatype");
    let mut out = Vec::with_capacity(1 + CONTEXT_BYTES);
    out.push(CONTEXT_MAGIC);
    out.extend_from_slice(&ctx.encode());
    encode(t, &mut out);
    out
}

/// Reconstruct a datatype description plus the causal context framed by
/// [`marshal_with_context`].
///
/// A plain [`marshal`] buffer (no frame) is accepted and yields the
/// default (empty) context, so readers interoperate with senders that do
/// not stamp causal headers. A signature frame ([`SIG_MAGIC`]) is
/// accepted and skipped; use [`unmarshal_with_header`] to read it.
pub fn unmarshal_with_context(bytes: &[u8]) -> DatatypeResult<(Datatype, CausalContext)> {
    let (t, ctx, _sig) = unmarshal_with_header(bytes)?;
    Ok((t, ctx))
}

/// Leading byte of a structural-signature frame: [`SIG_MAGIC`] followed by
/// the sender's 64-bit structural signature
/// ([`crate::equivalence::signature64`]) in little-endian order. Like
/// [`CONTEXT_MAGIC`], the value sits outside the constructor-tag range
/// 0..=7 so framed and plain buffers are unambiguous.
pub const SIG_MAGIC: u8 = 0xC6;

/// Serialize the full transfer header for a marshalled send: causal
/// context frame (`0xC5`), structural signature frame (`0xC6`), then the
/// datatype description.
///
/// A zero `sig` means "unchecked" (the raw-byte sentinel) and suppresses
/// the signature frame. The receive side recovers all three parts with
/// [`unmarshal_with_header`] and hands the signature to the fabric's
/// `MPICD_TYPECHECK` comparison before unpacking any payload.
pub fn marshal_with_header(t: &Datatype, ctx: CausalContext, sig: u64) -> Vec<u8> {
    let _sp = mpicd_obs::span!("dt.marshal", "datatype");
    let mut out = Vec::with_capacity(2 + CONTEXT_BYTES + 8);
    out.push(CONTEXT_MAGIC);
    out.extend_from_slice(&ctx.encode());
    if sig != 0 {
        out.push(SIG_MAGIC);
        out.extend_from_slice(&sig.to_le_bytes());
    }
    encode(t, &mut out);
    out
}

/// Reconstruct a datatype description plus the optional causal-context and
/// structural-signature frames written by [`marshal_with_header`].
///
/// Both frames are optional and ordered (`0xC5` before `0xC6`); absent
/// frames yield the default context and signature `0` ("unchecked"), so
/// plain [`marshal`] buffers and [`marshal_with_context`] buffers decode
/// unchanged.
pub fn unmarshal_with_header(bytes: &[u8]) -> DatatypeResult<(Datatype, CausalContext, u64)> {
    let mut rest = bytes;
    let mut ctx = CausalContext::default();
    if rest.first() == Some(&CONTEXT_MAGIC) {
        ctx = CausalContext::decode(&rest[1..])
            .ok_or(DatatypeError::InvalidArgument("truncated causal context"))?;
        rest = &rest[1 + CONTEXT_BYTES..];
    }
    let mut sig = 0u64;
    if rest.first() == Some(&SIG_MAGIC) {
        if rest.len() < 1 + 8 {
            return Err(DatatypeError::InvalidArgument("truncated signature frame"));
        }
        sig = u64::from_le_bytes(rest[1..9].try_into().unwrap());
        rest = &rest[9..];
    }
    Ok((unmarshal(rest)?, ctx, sig))
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
        // well-formed description must never be silently ignored, on any
        // of the three decode entry points.
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
        expect(unmarshal_with_context(&bytes).map(|_| ()));
        expect(unmarshal_with_header(&bytes).map(|_| ()));
        // Same for a framed buffer with garbage after the description.
        let mut framed = marshal_with_header(&Datatype::of::<i32>(), CausalContext::default(), 7);
        framed.push(0xAB);
        expect(unmarshal_with_header(&framed).map(|_| ()));
    }

    #[test]
    fn unknown_tag_detected() {
        assert!(unmarshal(&[0xFF]).is_err());
        assert!(unmarshal(&[TAG_PREDEFINED, 99]).is_err());
    }

    #[test]
    fn context_frame_roundtrips() {
        let t = sample();
        let ctx = CausalContext {
            fid: 0xdead_beef,
            lc: 42,
            origin: 3,
        };
        let bytes = marshal_with_context(&t, ctx);
        assert_eq!(bytes[0], CONTEXT_MAGIC);
        assert_eq!(bytes.len(), marshal(&t).len() + 1 + CONTEXT_BYTES);
        let (back, rctx) = unmarshal_with_context(&bytes).unwrap();
        assert!(equivalent(&t, &back));
        assert_eq!(rctx, ctx);
    }

    #[test]
    fn plain_buffer_yields_empty_context() {
        let t = sample();
        let (back, ctx) = unmarshal_with_context(&marshal(&t)).unwrap();
        assert!(equivalent(&t, &back));
        assert_eq!(ctx, CausalContext::default());
        // The magic byte can never collide with a constructor tag.
        assert!(marshal(&t)[0] < CONTEXT_MAGIC);
    }

    #[test]
    fn truncated_context_frame_detected() {
        let bytes = marshal_with_context(&sample(), CausalContext::default());
        for cut in 1..=CONTEXT_BYTES {
            assert!(unmarshal_with_context(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn header_frame_roundtrips() {
        let t = sample();
        let ctx = CausalContext {
            fid: 7,
            lc: 9,
            origin: 1,
        };
        let sig = crate::equivalence::signature64(&t);
        let bytes = marshal_with_header(&t, ctx, sig);
        assert_eq!(bytes[0], CONTEXT_MAGIC);
        assert_eq!(bytes[1 + CONTEXT_BYTES], SIG_MAGIC);
        let (back, rctx, rsig) = unmarshal_with_header(&bytes).unwrap();
        assert!(equivalent(&t, &back));
        assert_eq!(rctx, ctx);
        assert_eq!(rsig, sig);
        // The legacy entry point skips the signature frame.
        let (back2, rctx2) = unmarshal_with_context(&bytes).unwrap();
        assert!(equivalent(&t, &back2));
        assert_eq!(rctx2, ctx);
    }

    #[test]
    fn zero_signature_suppresses_the_frame() {
        let t = sample();
        let bytes = marshal_with_header(&t, CausalContext::default(), 0);
        assert_eq!(bytes.len(), marshal(&t).len() + 1 + CONTEXT_BYTES);
        let (_, _, sig) = unmarshal_with_header(&bytes).unwrap();
        assert_eq!(sig, 0, "absent frame decodes as the unchecked sentinel");
        // Plain and context-framed buffers also yield signature 0.
        let (_, _, sig) = unmarshal_with_header(&marshal(&t)).unwrap();
        assert_eq!(sig, 0);
    }

    #[test]
    fn truncated_signature_frame_detected() {
        let bytes = marshal_with_header(&sample(), CausalContext::default(), 0x1234);
        let frame_end = 1 + CONTEXT_BYTES + 9;
        for cut in 1 + CONTEXT_BYTES..frame_end {
            assert!(unmarshal_with_header(&bytes[..cut]).is_err(), "cut {cut}");
        }
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
