//! `Register`: the traffic-detector record of the paper's motivating Rust
//! application, written here as application code with all three transfer
//! methods — a hand-written custom packer, a manual pack loop, and a
//! resized derived datatype over the padded `repr(C)` layout.

use crate::rng::Rng;
use mpicd::datatype::{CustomPack, CustomUnpack};
use mpicd::derived::Datatype;

/// Calendar date of an observation.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Date {
    /// Four-digit year.
    pub year: i16,
    /// Month 1–12.
    pub month: u8,
    /// Day 1–28.
    pub day: u8,
}

/// Time of day of an observation.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Hour {
    /// Hour 0–23.
    pub hour: u8,
    /// Minute 0–59.
    pub minute: u8,
    /// Second 0–59.
    pub second: u8,
}

/// One traffic-detector record: nested date/time structs, mixed widths,
/// one interior pad byte (after `hora`) and two tail pad bytes.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Register {
    /// Detector station id.
    pub cod_detector: i32,
    /// Lane id.
    pub id_carril: i32,
    /// Observation date.
    pub fecha: Date,
    /// Observation time.
    pub hora: Hour,
    /// Latitude.
    pub latitud: f32,
    /// Longitude.
    pub longitud: f32,
    /// Speed.
    pub velocidad: f32,
    /// Municipality code.
    pub municipio_id: u8,
    /// Time band.
    pub franja_horaria: u8,
}

/// Live (non-padding) bytes of one record: the packed record size.
pub const PACKED: usize = 29;

impl Register {
    /// A random record (finite floats, so equality is exact).
    pub fn random(rng: &mut Rng) -> Self {
        let mut small = |n: usize| rng.below(n) as u8;
        let (month, day, hour, minute, second) = (
            small(12) + 1,
            small(28) + 1,
            small(24),
            small(60),
            small(60),
        );
        let (municipio_id, franja_horaria) = (small(179), small(3));
        Self {
            cod_detector: rng.below(4096) as i32,
            id_carril: rng.below(8) as i32,
            fecha: Date {
                year: 2020 + rng.below(8) as i16,
                month,
                day,
            },
            hora: Hour {
                hour,
                minute,
                second,
            },
            latitud: 40.0 + rng.below(100_000) as f32 * 1e-5,
            longitud: -3.0 - rng.below(100_000) as f32 * 1e-5,
            velocidad: rng.below(14_000) as f32 * 0.01,
            municipio_id,
            franja_horaria,
        }
    }

    /// The derived datatype: the live fields at their `repr(C)` offsets,
    /// resized so the extent is the Rust stride (32 bytes).
    pub fn datatype() -> Datatype {
        let fields = Datatype::structure(vec![
            (2, 0, Datatype::of::<i32>()),  // cod_detector, id_carril
            (1, 8, Datatype::of::<i16>()),  // fecha.year
            (2, 10, Datatype::of::<u8>()),  // fecha.month, fecha.day
            (3, 12, Datatype::of::<u8>()),  // hora (a pad byte follows)
            (3, 16, Datatype::of::<f32>()), // latitud, longitud, velocidad
            (2, 28, Datatype::of::<u8>()),  // municipio_id, franja_horaria
        ]);
        Datatype::resized(0, std::mem::size_of::<Register>(), fields)
    }

    /// The record's live bytes, in field order.
    fn encode(&self) -> [u8; PACKED] {
        let mut o = [0u8; PACKED];
        o[0..4].copy_from_slice(&self.cod_detector.to_ne_bytes());
        o[4..8].copy_from_slice(&self.id_carril.to_ne_bytes());
        o[8..10].copy_from_slice(&self.fecha.year.to_ne_bytes());
        o[10] = self.fecha.month;
        o[11] = self.fecha.day;
        o[12] = self.hora.hour;
        o[13] = self.hora.minute;
        o[14] = self.hora.second;
        o[15..19].copy_from_slice(&self.latitud.to_ne_bytes());
        o[19..23].copy_from_slice(&self.longitud.to_ne_bytes());
        o[23..27].copy_from_slice(&self.velocidad.to_ne_bytes());
        o[27] = self.municipio_id;
        o[28] = self.franja_horaria;
        o
    }

    /// Inverse of [`Self::encode`].
    fn decode(b: &[u8; PACKED]) -> Self {
        let f32_at = |i: usize| f32::from_ne_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        Self {
            cod_detector: i32::from_ne_bytes([b[0], b[1], b[2], b[3]]),
            id_carril: i32::from_ne_bytes([b[4], b[5], b[6], b[7]]),
            fecha: Date {
                year: i16::from_ne_bytes([b[8], b[9]]),
                month: b[10],
                day: b[11],
            },
            hora: Hour {
                hour: b[12],
                minute: b[13],
                second: b[14],
            },
            latitud: f32_at(15),
            longitud: f32_at(19),
            velocidad: f32_at(23),
            municipio_id: b[27],
            franja_horaria: b[28],
        }
    }
}

/// Manual pack: every record's live bytes into one fresh buffer.
pub fn pack_registers(regs: &[Register]) -> Vec<u8> {
    let mut out = Vec::with_capacity(PACKED * regs.len());
    for r in regs {
        out.extend_from_slice(&r.encode());
    }
    out
}

/// Inverse of [`pack_registers`]; `false` when `bytes` is too short.
pub fn unpack_registers(bytes: &[u8], out: &mut [Register]) -> bool {
    if bytes.len() < PACKED * out.len() {
        return false;
    }
    for (r, chunk) in out.iter_mut().zip(bytes.chunks_exact(PACKED)) {
        *r = Register::decode(chunk.try_into().expect("exact chunk"));
    }
    true
}

/// Custom-API send context: packs live bytes, resuming at any offset.
pub struct RegisterPack<'a>(pub &'a [Register]);

impl CustomPack for RegisterPack<'_> {
    fn packed_size(&self) -> mpicd::Result<usize> {
        Ok(PACKED * self.0.len())
    }

    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> mpicd::Result<usize> {
        let total = PACKED * self.0.len();
        let mut at = offset;
        let mut done = 0;
        while at < total && done < dst.len() {
            let rec = self.0[at / PACKED].encode();
            let within = at % PACKED;
            let n = (PACKED - within).min(dst.len() - done);
            dst[done..done + n].copy_from_slice(&rec[within..within + n]);
            at += n;
            done += n;
        }
        Ok(done)
    }

    fn inorder(&self) -> bool {
        false
    }
}

/// Custom-API receive context: collects the packed stream, decodes it
/// into the records on `finish`.
pub struct RegisterUnpack<'a> {
    out: &'a mut [Register],
    stream: Vec<u8>,
}

impl<'a> RegisterUnpack<'a> {
    /// Receive into `out`.
    pub fn new(out: &'a mut [Register]) -> Self {
        let stream = vec![0u8; PACKED * out.len()];
        Self { out, stream }
    }
}

impl CustomUnpack for RegisterUnpack<'_> {
    fn packed_size(&self) -> mpicd::Result<usize> {
        Ok(self.stream.len())
    }

    fn unpack(&mut self, offset: usize, src: &[u8]) -> mpicd::Result<()> {
        let end = offset
            .checked_add(src.len())
            .filter(|e| *e <= self.stream.len())
            .ok_or(mpicd::Error::InvalidHeader("Register stream overflow"))?;
        self.stream[offset..end].copy_from_slice(src);
        Ok(())
    }

    fn finish(&mut self) -> mpicd::Result<()> {
        unpack_registers(&self.stream, self.out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_and_datatype_agree() {
        assert_eq!(std::mem::size_of::<Register>(), 32);
        assert_eq!(std::mem::offset_of!(Register, latitud), 16);
        assert_eq!(std::mem::offset_of!(Register, municipio_id), 28);
        let ty = Register::datatype().commit().expect("commit");
        assert_eq!(ty.size(), PACKED);
        assert_eq!(ty.extent(), 32);
    }

    #[test]
    fn manual_and_custom_pack_agree() {
        let mut rng = Rng::new(3, 0);
        let regs: Vec<Register> = (0..10).map(|_| Register::random(&mut rng)).collect();
        let manual = pack_registers(&regs);
        // Pack in awkward pieces to exercise resuming mid-record.
        let mut ctx = RegisterPack(&regs);
        let mut out = vec![0u8; manual.len()];
        let mut off = 0;
        while off < out.len() {
            let end = (off + 7).min(out.len());
            off += ctx.pack(off, &mut out[off..end]).expect("pack");
        }
        assert_eq!(out, manual);
        let mut back = vec![Register::default(); 10];
        assert!(unpack_registers(&manual, &mut back));
        assert_eq!(back, regs);
    }
}
