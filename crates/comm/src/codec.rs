//! Negotiated per-payload wire codecs for the rotation exchange.
//!
//! SAR's dominant cost is communication volume, and every exchange in the
//! seed shipped raw `f32`. This module adds a codec layer *under* the
//! logical protocol: the [`WorkerCtx`](crate::WorkerCtx) encodes eligible
//! data-plane `F32` payloads (forward fetch, backward re-fetch, gradient
//! routing — never collectives, gathers or control traffic) into a
//! [`Payload::Encoded`](crate::Payload::Encoded) block, and decodes them
//! back on delivery. Both backends carry the *encoded* bytes through the
//! transport, so the α–β cost model and the TCP socket see exactly the
//! same wire volume, and ledger accounting splits cleanly into *logical*
//! bytes (raw-f32 payload semantics, unchanged — the parity digest pins
//! these) and *wire* bytes (what actually crossed the network).
//!
//! Codecs:
//!
//! * `raw` — identity; eligible payloads are not rewritten at all, so the
//!   whole path is byte-for-byte the seed behavior.
//! * `f16` — IEEE 754 binary16 truncation, round-to-nearest-even. 2×.
//! * `int8` — symmetric linear quantization with one f32 scale per
//!   [`INT8_BLOCK`]-value block (`scale = maxabs / 127`). ≈3.8×.
//!
//! Every codec is a pure function of one block. An encoded block is a
//! 4-byte element count followed by the codec body, so decoding reads
//! nothing but the frame: no per-stream state, no ordering rule, and the
//! encoded size depends only on the element count.
//!
//! Decoding is deterministic and backend-independent: a `f16`-coded block
//! decodes to the same f32 bits whether it crossed a simulated channel or
//! a TCP socket, which is what keeps losses bitwise identical across
//! transports under any codec.

use crate::le::{self, Cursor};
use crate::phase::Phase;

/// Values per quantization block for the `int8` codec (one f32 scale is
/// stored per block).
pub const INT8_BLOCK: usize = 64;

/// Size of the element count (u32 LE) opening every encoded block.
pub const BLOCK_COUNT_LEN: usize = 4;

/// Tags at or above this value are never codec-eligible: the serving
/// control plane (`1 << 42`), the result gather (`1 << 61`), the
/// collective space (`1 << 62`) and the transport hello (`u64::MAX`) all
/// live above it, while every peer-to-peer rotation-exchange tag
/// (`1 << 40` plus small view offsets) lives below.
pub const CODEC_TAG_CEILING: u64 = 1 << 41;

/// A negotiated wire codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Ship raw little-endian f32 — the seed wire format.
    #[default]
    Raw,
    /// IEEE 754 binary16 truncation.
    F16,
    /// Symmetric per-block int8 quantization.
    Int8,
}

impl Codec {
    /// All codecs, in wire-code order.
    pub const ALL: [Codec; 3] = [Codec::Raw, Codec::F16, Codec::Int8];

    /// Stable wire code, carried in frame-header byte 6 and in the
    /// rendezvous hello. Codes 2 and 4 are retired and stay unassigned,
    /// so a peer naming them fails as an unknown codec id.
    pub fn code(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::F16 => 1,
            Codec::Int8 => 3,
        }
    }

    /// Inverse of [`Codec::code`].
    pub fn from_code(code: u8) -> Option<Codec> {
        Codec::ALL.into_iter().find(|c| c.code() == code)
    }

    /// Stable flag-value name, as accepted by `--codec`.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::F16 => "f16",
            Codec::Int8 => "int8",
        }
    }

    /// Inverse of [`Codec::name`].
    pub fn parse(name: &str) -> Option<Codec> {
        Codec::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Encodes one f32 block: `[n u32 LE][codec body]`.
    pub fn encode_block(self, values: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(BLOCK_COUNT_LEN + values.len() * 4);
        le::put_u32(&mut out, values.len() as u32);
        match self {
            Codec::Raw => le::put_f32s(&mut out, values),
            Codec::F16 => {
                for &v in values {
                    out.extend_from_slice(&f32_to_f16_bits(v).to_le_bytes());
                }
            }
            Codec::Int8 => int8_encode(values, &mut out),
        }
        out
    }

    /// Decodes one block written by [`Codec::encode_block`] back into f32
    /// values.
    ///
    /// # Errors
    ///
    /// A diagnostic on a block shorter than its element count, an
    /// implausible count, or a body whose length does not match the count
    /// (the last naming this codec).
    pub fn decode_body(self, bytes: &[u8]) -> Result<Vec<f32>, String> {
        if bytes.len() < BLOCK_COUNT_LEN {
            return Err(format!(
                "encoded block of {} bytes is shorter than the {BLOCK_COUNT_LEN}-byte element count",
                bytes.len()
            ));
        }
        // The length check above covers this read.
        let mut c = Cursor::new(bytes);
        let n = c.u32()? as usize;
        if n as u64 * 4 > crate::wire::WIRE_MAX_PAYLOAD {
            return Err(format!(
                "encoded block claims implausible element count {n}"
            ));
        }
        let body = c.rest();
        match self {
            Codec::Raw => {
                expect_len(self, body.len(), n * 4)?;
                Ok(Cursor::new(body).f32s(n)?)
            }
            Codec::F16 => {
                expect_len(self, body.len(), n * 2)?;
                Ok(body
                    .chunks_exact(2)
                    .map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])))
                    .collect())
            }
            Codec::Int8 => int8_decode(n, body),
        }
    }
}

fn expect_len(codec: Codec, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{} body is {got} bytes, expected {want}",
            codec.name()
        ))
    }
}

// ----------------------------------------------------------------------
// binary16 conversion (manual — the workspace is dependency-free by
// design)
// ----------------------------------------------------------------------

/// f32 → IEEE 754 binary16 bits, round-to-nearest-even. NaNs stay NaN
/// (payload truncated, quiet bit forced), overflow saturates to ±inf,
/// underflow flushes through binary16 subnormals to ±0.
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf or NaN: preserve NaN-ness explicitly (truncating the
        // mantissa could silently turn a NaN into an infinity).
        let quiet = if man != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | quiet | ((man >> 13) as u16 & 0x03ff);
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal binary16: re-bias and round 23 → 10 mantissa bits.
        let h = (((unbiased + 15) as u32) << 10) | (man >> 13);
        let round_bits = man & 0x1fff;
        let carry = u32::from(round_bits > 0x1000 || (round_bits == 0x1000 && (h & 1) != 0));
        // A mantissa carry correctly rolls into the exponent (and into
        // ±inf at the top of the range).
        return sign | (h + carry) as u16;
    }
    if unbiased >= -25 {
        // binary16 subnormal: shift the implicit leading 1 into the
        // stored mantissa, still rounding half-to-even.
        let full = man | 0x0080_0000;
        let shift = (13 - 14 - unbiased) as u32; // 14..=24
        let h = full >> shift;
        let round_bits = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let carry = u32::from(round_bits > halfway || (round_bits == halfway && (h & 1) != 0));
        return sign | (h + carry) as u16;
    }
    sign // underflow → ±0
}

/// IEEE 754 binary16 bits → f32 (exact: every binary16 value is
/// representable in f32).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1f;
    let man = u32::from(h & 0x03ff);
    if exp == 0x1f {
        return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
    }
    if exp == 0 {
        // Subnormal: value = man × 2⁻²⁴, exact in f32.
        let mag = man as f32 * f32::from_bits(103u32 << 23);
        return f32::from_bits(mag.to_bits() | sign);
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

// ----------------------------------------------------------------------
// int8 symmetric per-block quantization
// ----------------------------------------------------------------------

fn int8_encode(values: &[f32], out: &mut Vec<u8>) {
    out.reserve(values.len() + 4 * values.len().div_ceil(INT8_BLOCK));
    for block in values.chunks(INT8_BLOCK) {
        let maxabs = block
            .iter()
            .filter(|v| v.is_finite())
            .fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if maxabs > 0.0 { maxabs / 127.0 } else { 0.0 };
        out.extend_from_slice(&scale.to_le_bytes());
        for &v in block {
            // Defined behavior for non-finite inputs: NaN quantizes to 0,
            // ±inf saturates to the endpoints.
            let q: i8 = if v.is_nan() || scale == 0.0 {
                0
            } else if v.is_infinite() {
                if v > 0.0 {
                    127
                } else {
                    -127
                }
            } else {
                (v / scale).round().clamp(-127.0, 127.0) as i8
            };
            out.push(q as u8);
        }
    }
}

fn int8_decode(n: usize, body: &[u8]) -> Result<Vec<f32>, String> {
    let blocks = n.div_ceil(INT8_BLOCK);
    expect_len(Codec::Int8, body.len(), n + 4 * blocks)?;
    let mut out = Vec::with_capacity(n);
    let mut pos = 0usize;
    let mut remaining = n;
    while remaining > 0 {
        let scale = f32::from_le_bytes([body[pos], body[pos + 1], body[pos + 2], body[pos + 3]]);
        pos += 4;
        let take = remaining.min(INT8_BLOCK);
        for &b in &body[pos..pos + take] {
            out.push((b as i8) as f32 * scale);
        }
        pos += take;
        remaining -= take;
    }
    Ok(out)
}

/// `true` for phases whose data-plane traffic a codec may rewrite: the
/// three rotation-exchange phases. Collectives (parameter all-reduce,
/// loss reductions) and everything outside a phase scope stay raw.
pub fn phase_is_compressible(phase: Phase) -> bool {
    matches!(
        phase,
        Phase::ForwardFetch | Phase::BackwardRefetch | Phase::GradRouting
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random generator for the proptest-style
    /// sweeps (the workspace has no proptest dependency by design).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn f32(&mut self) -> f32 {
            // Mostly ordinary magnitudes, with occasional weird bit
            // patterns (NaN payloads, infinities, subnormals).
            match self.next() % 10 {
                0 => f32::from_bits(self.next() as u32), // arbitrary bits
                1 => f32::MIN_POSITIVE / (1 + self.next() % 1000) as f32, // subnormal
                _ => ((self.next() % 2_000_000) as f32 / 1000.0) - 1000.0,
            }
        }
        fn values(&mut self, n: usize) -> Vec<f32> {
            (0..n).map(|_| self.f32()).collect()
        }
    }

    /// Bitwise equality that treats NaN payload-insensitively: both NaN,
    /// or identical bits.
    fn same(a: f32, b: f32) -> bool {
        (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
    }

    const RAGGED: [usize; 8] = [0, 1, 3, 63, 64, 65, 129, 1000];

    fn round_trip(codec: Codec, values: &[f32]) -> Vec<f32> {
        let enc = codec.encode_block(values);
        assert_eq!(enc[..BLOCK_COUNT_LEN], (values.len() as u32).to_le_bytes());
        codec.decode_body(&enc).expect("decode")
    }

    #[test]
    fn raw_round_trips_exactly_including_weird_bits() {
        let mut rng = Rng(1);
        for n in RAGGED {
            let v = rng.values(n);
            let d = round_trip(Codec::Raw, &v);
            assert!(v.iter().zip(&d).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0,
            f32::from_bits(1), // smallest subnormal
        ];
        let d = round_trip(Codec::Raw, &specials);
        assert!(specials
            .iter()
            .zip(&d)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn f16_is_idempotent_and_preserves_specials() {
        let mut rng = Rng(3);
        for n in RAGGED {
            let v = rng.values(n);
            let once = round_trip(Codec::F16, &v);
            let twice = round_trip(Codec::F16, &once);
            // Re-encoding already-quantized values is exact.
            assert!(
                once.iter().zip(&twice).all(|(a, b)| same(*a, *b)),
                "f16 double round-trip drifted"
            );
        }
        let specials = round_trip(
            Codec::F16,
            &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0],
        );
        assert!(specials[0].is_nan());
        assert_eq!(specials[1], f32::INFINITY);
        assert_eq!(specials[2], f32::NEG_INFINITY);
        assert_eq!(specials[3].to_bits(), 0);
        assert_eq!(specials[4].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn f16_matches_known_conversions() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // f16::MAX
        assert_eq!(f32_to_f16_bits(65536.0), 0x7c00); // overflow → inf
        assert_eq!(f32_to_f16_bits(5.96e-8), 0x0001); // smallest subnormal
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0x0001), f32::from_bits(0x33800000));
        assert_eq!(f16_bits_to_f32(0x8001), -f32::from_bits(0x33800000));
        // Round-to-nearest-even at the halfway point: 1.0 + 2^-12 is
        // exactly between 0x3c00 and 0x3c01, so it rounds to the even one.
        let half_ulp = f32::from_bits(0x39800000); // 2^-12
        assert_eq!(f32_to_f16_bits(f16_bits_to_f32(0x3c00) + half_ulp), 0x3c00);
        // f16 subnormals survive the round trip exactly.
        for bits in [0x0001u16, 0x03ff, 0x8001, 0x83ff, 0x0400] {
            assert_eq!(f32_to_f16_bits(f16_bits_to_f32(bits)), bits);
        }
    }

    #[test]
    fn f16_error_is_bounded_for_normal_values() {
        let mut rng = Rng(4);
        for _ in 0..10_000 {
            let v = ((rng.next() % 2_000_000) as f32 / 1000.0) - 1000.0;
            let r = f16_bits_to_f32(f32_to_f16_bits(v));
            // binary16 has 11 significand bits: relative error ≤ 2⁻¹¹.
            assert!(
                (r - v).abs() <= v.abs() * (1.0 / 2048.0) + 1e-4,
                "{v} → {r}"
            );
        }
    }

    #[test]
    fn int8_error_is_bounded_by_half_a_step() {
        let mut rng = Rng(5);
        for n in [1usize, 63, 64, 65, 640] {
            let v: Vec<f32> = (0..n)
                .map(|_| ((rng.next() % 2_000_000) as f32 / 1000.0) - 1000.0)
                .collect();
            let d = round_trip(Codec::Int8, &v);
            for block in 0..n.div_ceil(INT8_BLOCK) {
                let lo = block * INT8_BLOCK;
                let hi = (lo + INT8_BLOCK).min(n);
                let maxabs = v[lo..hi].iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                // |dequantized − original| ≤ scale/2 = maxabs/254 per block.
                let bound = maxabs / 254.0 * 1.001 + 1e-6;
                for i in lo..hi {
                    assert!((d[i] - v[i]).abs() <= bound, "block {block} idx {i}");
                }
            }
        }
    }

    #[test]
    fn int8_defines_nonfinite_and_zero_blocks() {
        let v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 2.0, -1.0];
        let d = round_trip(Codec::Int8, &v);
        assert_eq!(d[0], 0.0); // NaN → 0
        assert!((d[1] - 2.0).abs() < 0.02); // +inf saturates to maxabs
        assert!((d[2] + 2.0).abs() < 0.02); // −inf saturates to −maxabs
        let zeros = round_trip(Codec::Int8, &[0.0; 70]);
        assert!(zeros.iter().all(|&z| z == 0.0));
        // A block that is entirely non-finite has scale 0 and decodes to 0.
        let nf = round_trip(Codec::Int8, &[f32::NAN; 3]);
        assert!(nf.iter().all(|&z| z == 0.0));
    }

    #[test]
    fn compression_ratios_are_as_documented() {
        let v: Vec<f32> = (0..4096).map(|i| (i as f32).sin()).collect();
        let raw = Codec::Raw.encode_block(&v).len();
        let f16 = Codec::F16.encode_block(&v).len();
        let int8 = Codec::Int8.encode_block(&v).len();
        assert_eq!(raw - BLOCK_COUNT_LEN, 4 * 4096);
        assert_eq!(f16 - BLOCK_COUNT_LEN, 2 * 4096);
        assert_eq!(int8 - BLOCK_COUNT_LEN, 4096 + 4 * (4096 / INT8_BLOCK));
    }

    #[test]
    fn corrupt_bodies_are_named_errors_not_panics() {
        let v = vec![1.0f32; 64];
        for codec in Codec::ALL {
            let enc = codec.encode_block(&v);
            // Truncated body.
            let err = codec.decode_body(&enc[..enc.len() - 1]).unwrap_err();
            assert!(err.contains(codec.name()), "{err}");
            // Truncated element count.
            let err = codec.decode_body(&enc[..BLOCK_COUNT_LEN - 1]).unwrap_err();
            assert!(err.contains("element count"), "{err}");
            // Implausible element count.
            let mut huge = enc.clone();
            huge[..BLOCK_COUNT_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
            let err = codec.decode_body(&huge).unwrap_err();
            assert!(err.contains("implausible"), "{err}");
        }
    }

    #[test]
    fn codec_codes_and_names_round_trip() {
        for c in Codec::ALL {
            assert_eq!(Codec::from_code(c.code()), Some(c));
            assert_eq!(Codec::parse(c.name()), Some(c));
        }
        // The retired bf16 (2) and delta (4) ids stay unassigned.
        assert_eq!(Codec::from_code(2), None);
        assert_eq!(Codec::from_code(4), None);
        assert_eq!(Codec::from_code(250), None);
        assert_eq!(Codec::parse("zstd"), None);
    }

    #[test]
    fn compressible_phases_are_the_three_exchange_phases() {
        assert!(phase_is_compressible(Phase::ForwardFetch));
        assert!(phase_is_compressible(Phase::BackwardRefetch));
        assert!(phase_is_compressible(Phase::GradRouting));
        assert!(!phase_is_compressible(Phase::Collective));
        assert!(!phase_is_compressible(Phase::Other));
    }
}
