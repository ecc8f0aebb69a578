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
//! * `bf16` — bfloat16 truncation (f32's top 16 bits, round-to-nearest-
//!   even). Same range as f32, 2×.
//! * `int8` — symmetric linear quantization with one f32 scale per
//!   [`INT8_BLOCK`]-value block (`scale = maxabs / 127`). ≈3.8×.
//! * `delta` — lossless XOR + zero-run-length coding against the previous
//!   block on the same `(peer, phase, layer)` stream — in SAR's schedule
//!   that stream carries exactly one block per epoch, so this is a delta
//!   against the previous *epoch's* block. Falls back to a raw body when
//!   the delta does not compress, so it never expands beyond
//!   `meta + 1` bytes of overhead.
//!
//! Every encoded block opens with an 8-byte stream header
//! (`phase`, `layer`, element count) so the receiver can key its delta
//! mirror cache — and validate the body — from the frame alone, without
//! trusting its own ambient phase/layer scope to match the sender's.
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

/// Size of the stream header opening every encoded block body.
pub const BLOCK_META_LEN: usize = 8;

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
    /// bfloat16 truncation.
    Bf16,
    /// Symmetric per-block int8 quantization.
    Int8,
    /// Lossless XOR + zero-RLE delta against the previous epoch's block.
    Delta,
}

impl Codec {
    /// All codecs, in wire-code order.
    pub const ALL: [Codec; 5] = [
        Codec::Raw,
        Codec::F16,
        Codec::Bf16,
        Codec::Int8,
        Codec::Delta,
    ];

    /// Stable wire code, carried in frame-header byte 6 and in the
    /// rendezvous hello.
    pub fn code(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::F16 => 1,
            Codec::Bf16 => 2,
            Codec::Int8 => 3,
            Codec::Delta => 4,
        }
    }

    /// Inverse of [`Codec::code`].
    pub fn from_code(code: u8) -> Option<Codec> {
        Codec::ALL.into_iter().find(|c| c.code() == code)
    }

    /// Stable flag-value name (`--codec raw|f16|bf16|int8|delta`).
    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::F16 => "f16",
            Codec::Bf16 => "bf16",
            Codec::Int8 => "int8",
            Codec::Delta => "delta",
        }
    }

    /// Inverse of [`Codec::name`].
    pub fn parse(name: &str) -> Option<Codec> {
        Codec::ALL.into_iter().find(|c| c.name() == name)
    }

    /// `true` if decoded values can differ from the encoded input.
    /// `raw` and `delta` are bit-exact; the truncating/quantizing codecs
    /// are not.
    pub fn is_lossy(self) -> bool {
        matches!(self, Codec::F16 | Codec::Bf16 | Codec::Int8)
    }

    /// Encodes one f32 block into a self-describing body:
    /// `[phase u8][has_layer u8][layer u16 LE][n u32 LE][codec body]`.
    ///
    /// `prev` is the previous block on this `(peer, phase, layer)` stream
    /// (senders keep the last *sent* values, receivers the last *decoded*
    /// ones — identical for the lossless `delta`, the only codec that
    /// reads it).
    pub fn encode_block(
        self,
        phase: Phase,
        layer: Option<u16>,
        values: &[f32],
        prev: Option<&[f32]>,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(BLOCK_META_LEN + values.len() * 4);
        out.push(phase.code());
        out.push(u8::from(layer.is_some()));
        le::put_u16(&mut out, layer.unwrap_or(0));
        le::put_u32(&mut out, values.len() as u32);
        match self {
            Codec::Raw => le::put_f32s(&mut out, values),
            Codec::F16 => {
                for &v in values {
                    out.extend_from_slice(&f32_to_f16_bits(v).to_le_bytes());
                }
            }
            Codec::Bf16 => {
                for &v in values {
                    out.extend_from_slice(&f32_to_bf16_bits(v).to_le_bytes());
                }
            }
            Codec::Int8 => int8_encode(values, &mut out),
            Codec::Delta => delta_encode(values, prev, &mut out),
        }
        out
    }

    /// Decodes a codec body (everything after the [`BlockMeta`] prefix)
    /// back into f32 values. `prev` is consulted only by `delta`.
    ///
    /// # Errors
    ///
    /// A diagnostic naming this codec on any structural mismatch —
    /// truncated or oversized bodies, unknown delta modes, or a delta
    /// frame arriving without its matching previous block.
    pub fn decode_body(
        self,
        meta: &BlockMeta,
        body: &[u8],
        prev: Option<&[f32]>,
    ) -> Result<Vec<f32>, String> {
        let n = meta.n;
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
            Codec::Bf16 => {
                expect_len(self, body.len(), n * 2)?;
                Ok(body
                    .chunks_exact(2)
                    .map(|c| bf16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])))
                    .collect())
            }
            Codec::Int8 => int8_decode(n, body),
            Codec::Delta => delta_decode(n, body, prev),
        }
    }
}

/// The stream header opening every encoded block: the sender's phase and
/// layer scope (the delta stream key) plus the element count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Traffic phase the sender charged this block to.
    pub phase: Phase,
    /// Sender's layer scope, if any.
    pub layer: Option<u16>,
    /// Number of f32 values in the decoded block.
    pub n: usize,
}

/// Splits an encoded block into its [`BlockMeta`] and the codec body.
///
/// # Errors
///
/// A diagnostic on a truncated prefix, an unknown phase code, or an
/// implausible element count.
pub fn parse_meta(bytes: &[u8]) -> Result<(BlockMeta, &[u8]), String> {
    if bytes.len() < BLOCK_META_LEN {
        return Err(format!(
            "encoded block of {} bytes is shorter than the {BLOCK_META_LEN}-byte stream header",
            bytes.len()
        ));
    }
    // The length check above covers every read below.
    let mut c = Cursor::new(bytes);
    let (phase_code, has_layer, layer, n) = (c.u8()?, c.u8()?, c.u16()?, c.u32()? as usize);
    let phase = Phase::from_code(phase_code)
        .ok_or_else(|| format!("encoded block has unknown phase code {phase_code}"))?;
    let layer = (has_layer != 0).then_some(layer);
    if n as u64 * 4 > crate::wire::WIRE_MAX_PAYLOAD {
        return Err(format!(
            "encoded block claims implausible element count {n}"
        ));
    }
    Ok((BlockMeta { phase, layer, n }, c.rest()))
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
// binary16 / bfloat16 conversion (manual — the workspace is
// dependency-free by design)
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

/// f32 → bfloat16 bits (the top 16 bits of the f32, round-to-nearest-
/// even). NaNs stay NaN, overflow saturates to ±inf.
pub fn f32_to_bf16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        // Force a mantissa bit so truncation cannot yield an infinity.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = 0x7fff + ((bits >> 16) & 1);
    ((bits.wrapping_add(round)) >> 16) as u16
}

/// bfloat16 bits → f32 (exact).
pub fn bf16_bits_to_f32(b: u16) -> f32 {
    f32::from_bits(u32::from(b) << 16)
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

// ----------------------------------------------------------------------
// delta: XOR against the previous block on the stream + zero-RLE
// ----------------------------------------------------------------------

/// Delta body modes: the first body byte.
const DELTA_RAW: u8 = 0;
const DELTA_XOR_RLE: u8 = 1;

/// RLE over the XOR bytes. Token `t`:
/// `0x00..=0x7f` — a literal run of `t + 1` bytes follows;
/// `0x80..=0xff` — a run of `t - 0x7f` zero bytes (nothing follows).
fn xor_rle_encode(prev: &[f32], cur: &[f32], out: &mut Vec<u8>) {
    let xor_byte = |i: usize| -> u8 {
        let p = prev[i / 4].to_le_bytes();
        let c = cur[i / 4].to_le_bytes();
        p[i % 4] ^ c[i % 4]
    };
    let total = cur.len() * 4;
    let mut i = 0usize;
    while i < total {
        if xor_byte(i) == 0 {
            let mut run = 1usize;
            while i + run < total && run < 128 && xor_byte(i + run) == 0 {
                run += 1;
            }
            out.push(0x7f + run as u8);
            i += run;
        } else {
            let start = i;
            let mut run = 1usize;
            while i + run < total && run < 128 && xor_byte(i + run) != 0 {
                run += 1;
            }
            out.push((run - 1) as u8);
            for k in 0..run {
                out.push(xor_byte(start + k));
            }
            i += run;
        }
    }
}

fn delta_encode(values: &[f32], prev: Option<&[f32]>, out: &mut Vec<u8>) {
    if let Some(p) = prev {
        if p.len() == values.len() && !values.is_empty() {
            let mut rle = Vec::with_capacity(values.len());
            xor_rle_encode(p, values, &mut rle);
            if rle.len() < values.len() * 4 {
                out.push(DELTA_XOR_RLE);
                out.extend_from_slice(&rle);
                return;
            }
        }
    }
    // No usable previous block (first epoch, or a stream whose shape
    // changed), or the delta did not compress: ship raw.
    out.push(DELTA_RAW);
    le::put_f32s(out, values);
}

fn delta_decode(n: usize, body: &[u8], prev: Option<&[f32]>) -> Result<Vec<f32>, String> {
    let Some((&mode, rest)) = body.split_first() else {
        return Err("delta body is empty (missing mode byte)".into());
    };
    match mode {
        DELTA_RAW => {
            expect_len(Codec::Delta, rest.len(), n * 4)?;
            Ok(Cursor::new(rest).f32s(n)?)
        }
        DELTA_XOR_RLE => {
            let p = match prev {
                Some(p) if p.len() == n => p,
                _ => {
                    return Err(format!(
                        "delta frame for {n} values has no matching previous block \
                         (stream desynchronized)"
                    ))
                }
            };
            let total = n * 4;
            let mut xor = Vec::with_capacity(total);
            let mut i = 0usize;
            while i < rest.len() {
                let t = rest[i];
                i += 1;
                if t >= 0x80 {
                    let run = (t - 0x7f) as usize;
                    if xor.len() + run > total {
                        return Err("delta zero run overflows the block".into());
                    }
                    xor.resize(xor.len() + run, 0);
                } else {
                    let run = t as usize + 1;
                    if i + run > rest.len() {
                        return Err("delta literal run is truncated".into());
                    }
                    if xor.len() + run > total {
                        return Err("delta literal run overflows the block".into());
                    }
                    xor.extend_from_slice(&rest[i..i + run]);
                    i += run;
                }
            }
            if xor.len() != total {
                return Err(format!(
                    "delta body decodes to {} bytes, expected {total}",
                    xor.len()
                ));
            }
            let mut out = Vec::with_capacity(n);
            for (k, pv) in p.iter().enumerate() {
                let pb = pv.to_le_bytes();
                out.push(f32::from_le_bytes([
                    pb[0] ^ xor[4 * k],
                    pb[1] ^ xor[4 * k + 1],
                    pb[2] ^ xor[4 * k + 2],
                    pb[3] ^ xor[4 * k + 3],
                ]));
            }
            Ok(out)
        }
        other => Err(format!("unknown delta mode byte {other}")),
    }
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

    fn round_trip(codec: Codec, values: &[f32], prev: Option<&[f32]>) -> Vec<f32> {
        let enc = codec.encode_block(Phase::ForwardFetch, Some(2), values, prev);
        let (meta, body) = parse_meta(&enc).expect("meta");
        assert_eq!(meta.phase, Phase::ForwardFetch);
        assert_eq!(meta.layer, Some(2));
        assert_eq!(meta.n, values.len());
        codec.decode_body(&meta, body, prev).expect("decode")
    }

    #[test]
    fn raw_round_trips_exactly_including_weird_bits() {
        let mut rng = Rng(1);
        for n in RAGGED {
            let v = rng.values(n);
            let d = round_trip(Codec::Raw, &v, None);
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
        let d = round_trip(Codec::Raw, &specials, None);
        assert!(specials
            .iter()
            .zip(&d)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn delta_round_trips_exactly_with_and_without_prev() {
        let mut rng = Rng(2);
        for n in RAGGED {
            let v = rng.values(n);
            // First block on a stream: raw mode.
            let d0 = round_trip(Codec::Delta, &v, None);
            assert!(v.iter().zip(&d0).all(|(a, b)| a.to_bits() == b.to_bits()));
            // Second block: XOR-RLE against a similar previous block.
            let mut prev = v.clone();
            for (i, p) in prev.iter_mut().enumerate() {
                if i % 7 == 0 {
                    *p += 0.5;
                }
            }
            let d1 = round_trip(Codec::Delta, &v, Some(&prev));
            assert!(v.iter().zip(&d1).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn delta_compresses_identical_and_similar_epochs() {
        let v: Vec<f32> = (0..1024).map(|i| i as f32 * 0.25).collect();
        let identical = Codec::Delta.encode_block(Phase::ForwardFetch, None, &v, Some(&v));
        // All-zero XOR: ~8 bytes of RLE per KiB.
        assert!(identical.len() < BLOCK_META_LEN + 1 + 64);
        // A mismatched-length prev must fall back to raw, not corrupt.
        let short = vec![1.0f32; 3];
        let enc = Codec::Delta.encode_block(Phase::ForwardFetch, None, &v, Some(&short));
        assert_eq!(enc.len(), BLOCK_META_LEN + 1 + v.len() * 4);
    }

    #[test]
    fn delta_without_matching_prev_is_a_named_error() {
        let v = vec![1.0f32; 16];
        let enc = Codec::Delta.encode_block(Phase::GradRouting, None, &v, Some(&v));
        let (meta, body) = parse_meta(&enc).unwrap();
        let err = Codec::Delta.decode_body(&meta, body, None).unwrap_err();
        assert!(err.contains("delta"), "{err}");
        assert!(err.contains("previous block"), "{err}");
    }

    #[test]
    fn f16_and_bf16_are_idempotent_and_preserve_specials() {
        let mut rng = Rng(3);
        for codec in [Codec::F16, Codec::Bf16] {
            for n in RAGGED {
                let v = rng.values(n);
                let once = round_trip(codec, &v, None);
                let twice = round_trip(codec, &once, None);
                // Re-encoding already-quantized values is exact.
                assert!(
                    once.iter().zip(&twice).all(|(a, b)| same(*a, *b)),
                    "{} double round-trip drifted",
                    codec.name()
                );
            }
            let specials = round_trip(
                codec,
                &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0],
                None,
            );
            assert!(specials[0].is_nan());
            assert_eq!(specials[1], f32::INFINITY);
            assert_eq!(specials[2], f32::NEG_INFINITY);
            assert_eq!(specials[3].to_bits(), 0);
            assert_eq!(specials[4].to_bits(), (-0.0f32).to_bits());
        }
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
            let d = round_trip(Codec::Int8, &v, None);
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
        let d = round_trip(Codec::Int8, &v, None);
        assert_eq!(d[0], 0.0); // NaN → 0
        assert!((d[1] - 2.0).abs() < 0.02); // +inf saturates to maxabs
        assert!((d[2] + 2.0).abs() < 0.02); // −inf saturates to −maxabs
        let zeros = round_trip(Codec::Int8, &[0.0; 70], None);
        assert!(zeros.iter().all(|&z| z == 0.0));
        // A block that is entirely non-finite has scale 0 and decodes to 0.
        let nf = round_trip(Codec::Int8, &[f32::NAN; 3], None);
        assert!(nf.iter().all(|&z| z == 0.0));
    }

    #[test]
    fn compression_ratios_are_as_documented() {
        let v: Vec<f32> = (0..4096).map(|i| (i as f32).sin()).collect();
        let raw = Codec::Raw
            .encode_block(Phase::ForwardFetch, None, &v, None)
            .len();
        let f16 = Codec::F16
            .encode_block(Phase::ForwardFetch, None, &v, None)
            .len();
        let int8 = Codec::Int8
            .encode_block(Phase::ForwardFetch, None, &v, None)
            .len();
        assert_eq!(raw - BLOCK_META_LEN, 4 * 4096);
        assert_eq!(f16 - BLOCK_META_LEN, 2 * 4096);
        assert_eq!(int8 - BLOCK_META_LEN, 4096 + 4 * (4096 / INT8_BLOCK));
    }

    #[test]
    fn corrupt_bodies_are_named_errors_not_panics() {
        let v = vec![1.0f32; 64];
        for codec in Codec::ALL {
            let enc = codec.encode_block(Phase::ForwardFetch, Some(1), &v, None);
            // Truncated body.
            let (meta, body) = parse_meta(&enc).unwrap();
            if !body.is_empty() {
                let err = codec
                    .decode_body(&meta, &body[..body.len() - 1], Some(&v))
                    .unwrap_err();
                assert!(err.contains(codec.name()) || codec == Codec::Delta, "{err}");
            }
            // Truncated meta.
            assert!(parse_meta(&enc[..BLOCK_META_LEN - 1]).is_err());
        }
        // Unknown phase code in the meta.
        let mut enc = Codec::Raw.encode_block(Phase::ForwardFetch, None, &v, None);
        enc[0] = 99;
        assert!(parse_meta(&enc).unwrap_err().contains("phase code"));
        // Unknown delta mode.
        let mut enc = Codec::Delta.encode_block(Phase::ForwardFetch, None, &v, None);
        enc[BLOCK_META_LEN] = 7;
        let (meta, body) = parse_meta(&enc).unwrap();
        assert!(Codec::Delta
            .decode_body(&meta, body, None)
            .unwrap_err()
            .contains("mode"));
    }

    #[test]
    fn codec_codes_and_names_round_trip() {
        for c in Codec::ALL {
            assert_eq!(Codec::from_code(c.code()), Some(c));
            assert_eq!(Codec::parse(c.name()), Some(c));
        }
        assert_eq!(Codec::from_code(250), None);
        assert_eq!(Codec::parse("zstd"), None);
        assert!(!Codec::Raw.is_lossy() && !Codec::Delta.is_lossy());
        assert!(Codec::F16.is_lossy() && Codec::Bf16.is_lossy() && Codec::Int8.is_lossy());
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
