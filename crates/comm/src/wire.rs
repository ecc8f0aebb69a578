//! The framed wire format shared by every transport backend.
//!
//! A frame is a fixed 32-byte header followed by the raw payload bytes:
//!
//! ```text
//!  offset  size  field
//!  ------  ----  -----------------------------------------------------
//!       0     4  magic  b"SAR1"
//!       4     1  kind   (0 = data, 1 = barrier, 2 = shutdown,
//!                        3 = request, 4 = response)
//!       5     1  dtype  (0 = empty, 1 = f32, 2 = u32, 3 = bytes,
//!                        4 = codec-encoded f32 block)
//!       6     1  codec  (for dtype 4: the wire codec id, see
//!                        [`Codec::code`]; zero otherwise)
//!       7     1  reserved (zero)
//!       8     4  src rank, u32 LE
//!      12     8  tag, u64 LE
//!      20     8  payload length in bytes, u64 LE
//!      28     4  CRC-32 (IEEE) of header bytes 0..28 + payload, u32 LE
//!      32     …  payload (little-endian scalars)
//! ```
//!
//! The header overhead is charged to *every* message by [`Payload::wire_len`],
//! so the simulated α–β cost model and the TCP byte ledgers agree exactly.
//! Integrity is end-to-end: the checksum covers the header fields as well as
//! the payload, so a corrupted tag or length is rejected, not misrouted.

use std::io::{self, IoSlice, Read, Write};

use crate::codec::Codec;
use crate::message::Payload;
use crate::{buffer, le};

/// Magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"SAR1";

/// Size of the fixed frame header, in bytes. Included in
/// [`Payload::wire_len`] so the cost model and the byte ledgers count
/// framing overhead identically on every backend.
pub const WIRE_HEADER_LEN: usize = 32;

/// Largest payload a frame may carry (a defence against decoding garbage
/// lengths after stream desynchronization): 1 GiB.
pub const WIRE_MAX_PAYLOAD: u64 = 1 << 30;

/// Frame kind: application data, transport-internal control traffic, or
/// client-facing serving traffic. The discriminant is the header's kind
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A tagged application message.
    Data = 0,
    /// A barrier announcement (`tag` carries the barrier sequence number).
    Barrier = 1,
    /// Clean-shutdown announcement: the peer will send nothing further.
    Shutdown = 2,
    /// A serving-tier request from a client to a front-end (`tag` carries
    /// the client-chosen request id, echoed back in the response).
    Request = 3,
    /// A serving-tier response from a front-end to a client (`tag` echoes
    /// the request id).
    Response = 4,
}

impl FrameKind {
    const ALL: [FrameKind; 5] = [
        FrameKind::Data,
        FrameKind::Barrier,
        FrameKind::Shutdown,
        FrameKind::Request,
        FrameKind::Response,
    ];

    fn code(self) -> u8 {
        self as u8
    }

    fn from_code(c: u8) -> Option<FrameKind> {
        Self::ALL.into_iter().find(|k| k.code() == c)
    }
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Data or control.
    pub kind: FrameKind,
    /// Sender rank as claimed by the header (verified against the
    /// connection's peer by the TCP backend).
    pub src: u32,
    /// Message tag (barrier sequence number for barrier frames).
    pub tag: u64,
    /// The payload.
    pub payload: Payload,
}

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended cleanly on a frame boundary.
    Eof,
    /// The stream ended (or errored) mid-frame.
    Io(io::Error),
    /// The header did not start with [`WIRE_MAGIC`] or used an unknown
    /// kind/dtype code — the stream is desynchronized or corrupt.
    BadHeader(String),
    /// The CRC-32 over header + payload did not match.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        expected: u32,
        /// Checksum computed from the received bytes.
        actual: u32,
        /// The wire codec the (untrusted) header claimed, if the frame
        /// was codec-encoded — so a corrupt compressed frame names the
        /// codec in its diagnostic.
        codec: Option<Codec>,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "end of stream"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadHeader(d) => write!(f, "bad frame header: {d}"),
            WireError::ChecksumMismatch {
                expected,
                actual,
                codec,
            } => {
                write!(
                    f,
                    "checksum mismatch: frame claims {expected:#010x}, computed {actual:#010x}"
                )?;
                if let Some(c) = codec {
                    write!(f, " ({}-coded frame)", c.name())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for WireError {}

// ----------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-16: sixteen bytes
// per step through sixteen 256-entry tables (16 KiB, L1-resident).
// ----------------------------------------------------------------------

/// `table[0][b]` is the CRC of the single byte `b` (the classic byte-at-a-
/// time table); `table[k][b]` is the CRC of `b` followed by `k` zero bytes,
/// which is what lets sixteen input bytes be folded in one step.
const fn crc32_table() -> [[u32; 256]; 16] {
    let mut table = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = table[k - 1][i];
            table[k][i] = table[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    table
}

static CRC32_TABLE: [[u32; 256]; 16] = crc32_table();

/// Streaming CRC-32 (IEEE): feed byte slices, then [`Crc32::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(0xffff_ffff)
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLE;
        let mut c = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            // The running CRC only reaches the first four bytes; byte `j`
            // of the block has `15 - j` bytes after it.
            let w0 = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ c;
            let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
            let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
            let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
            c = t[15][(w0 & 0xff) as usize]
                ^ t[14][((w0 >> 8) & 0xff) as usize]
                ^ t[13][((w0 >> 16) & 0xff) as usize]
                ^ t[12][(w0 >> 24) as usize]
                ^ t[11][(w1 & 0xff) as usize]
                ^ t[10][((w1 >> 8) & 0xff) as usize]
                ^ t[9][((w1 >> 16) & 0xff) as usize]
                ^ t[8][(w1 >> 24) as usize]
                ^ t[7][(w2 & 0xff) as usize]
                ^ t[6][((w2 >> 8) & 0xff) as usize]
                ^ t[5][((w2 >> 16) & 0xff) as usize]
                ^ t[4][(w2 >> 24) as usize]
                ^ t[3][(w3 & 0xff) as usize]
                ^ t[2][((w3 >> 8) & 0xff) as usize]
                ^ t[1][((w3 >> 16) & 0xff) as usize]
                ^ t[0][(w3 >> 24) as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The final checksum.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xffff_ffff
    }
}

/// CRC-32 of one buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ----------------------------------------------------------------------
// Frames
// ----------------------------------------------------------------------

/// The header's dtype and codec bytes (offsets 5 and 6) and the payload's
/// wire bytes — for scalar blocks the block's own memory, never a copy.
fn payload_view(p: &Payload) -> (u8, u8, &[u8]) {
    match p {
        Payload::Empty => (0, 0, &[]),
        Payload::F32(v) => (1, 0, le::scalar_bytes(v)),
        Payload::U32(v) => (2, 0, le::scalar_bytes(v)),
        Payload::Bytes(v) => (3, 0, v),
        Payload::Encoded { codec, bytes } => (4, codec.code(), bytes),
    }
}

/// Writes one frame to `w`: the checksum is computed over the header and
/// the payload where it lies, then both leave in one vectored submission
/// (so a small frame is one syscall and concurrent writers on distinct
/// streams never interleave partial frames); whatever a short write leaves
/// behind follows in further submissions.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    src: u32,
    tag: u64,
    payload: &Payload,
) -> io::Result<()> {
    let (dtype, codec_id, mut body) = payload_view(payload);
    let mut header = [0u8; WIRE_HEADER_LEN];
    header[..4].copy_from_slice(&WIRE_MAGIC);
    header[4..8].copy_from_slice(&[kind.code(), dtype, codec_id, 0]);
    header[8..12].copy_from_slice(&src.to_le_bytes());
    header[12..20].copy_from_slice(&tag.to_le_bytes());
    header[20..28].copy_from_slice(&(body.len() as u64).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&header[..28]);
    crc.update(body);
    header[28..].copy_from_slice(&crc.finish().to_le_bytes());

    let mut head = &header[..];
    while !(head.is_empty() && body.is_empty()) {
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                let of_head = n.min(head.len());
                head = &head[of_head..];
                body = &body[n - of_head..];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One frame as a contiguous buffer: [`write_frame`] into a `Vec`.
pub fn encode_frame(kind: FrameKind, src: u32, tag: u64, payload: &Payload) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.wire_len());
    write_frame(&mut buf, kind, src, tag, payload)
        .unwrap_or_else(|e| panic!("writing a frame into a Vec cannot fail: {e}"));
    buf
}

/// Fills `buf`, which starts `at` bytes into a frame of (as far as its
/// header says) `of` bytes. A stream that ends before a frame's first byte
/// ended cleanly; one that ends anywhere later was cut short.
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
    at: usize,
    of: usize,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if at + filled == 0 => return Err(WireError::Eof),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended mid-frame ({} of {of} bytes)", at + filled),
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads `n` scalars straight into `dst` — no intermediate byte buffer —
/// through the codec's bounded fill ([`le::fill_scalars`]: the header's
/// length field is a claim, up to [`WIRE_MAX_PAYLOAD`], and sizes nothing
/// ahead of the stream), checksumming each chunk in place as it lands.
fn read_body<T: le::Scalar>(
    r: &mut impl Read,
    dst: Vec<T>,
    n: usize,
    crc: &mut Crc32,
) -> Result<Vec<T>, WireError> {
    let frame_len = WIRE_HEADER_LEN + n * size_of::<T>();
    le::fill_scalars(dst, n, |chunk, at| {
        read_exact_or_eof(r, chunk, WIRE_HEADER_LEN + at, frame_len)?;
        crc.update(chunk);
        Ok(())
    })
}

/// Turns the body bytes of a non-scalar frame into its payload, rejecting
/// every dtype/codec/length combination the format does not define.
fn bytes_payload(dtype: u8, codec_id: u8, bytes: Vec<u8>) -> Result<Payload, WireError> {
    match dtype {
        0 if bytes.is_empty() => Ok(Payload::Empty),
        0 => Err(WireError::BadHeader(format!(
            "empty dtype with {} payload bytes",
            bytes.len()
        ))),
        1 | 2 => Err(WireError::BadHeader(format!(
            "scalar payload length {} not a multiple of 4",
            bytes.len()
        ))),
        3 => Ok(Payload::Bytes(bytes)),
        4 => {
            let codec = Codec::from_code(codec_id).ok_or_else(|| {
                WireError::BadHeader(format!("encoded frame carries unknown codec id {codec_id}"))
            })?;
            if codec == Codec::Raw {
                return Err(WireError::BadHeader(
                    "encoded frame claims the raw codec (raw payloads use dtype 1)".into(),
                ));
            }
            Ok(Payload::Encoded { codec, bytes })
        }
        other => Err(WireError::BadHeader(format!("unknown dtype code {other}"))),
    }
}

/// The header's integer fields at offsets 8..32: src rank, tag, payload
/// length, checksum. The header is a fixed array, so the reads cannot run
/// out.
fn header_ints(header: &[u8; WIRE_HEADER_LEN]) -> Result<(u32, u64, u64, u32), le::CursorError> {
    let mut c = le::Cursor::new(&header[8..]);
    Ok((c.u32()?, c.u64()?, c.u64()?, c.u32()?))
}

/// Reads and validates one frame from `r`. An `F32` body lands in a buffer
/// taken from [`crate::buffer`], which the block's consumer returns there.
///
/// # Errors
///
/// [`WireError::Eof`] on a clean end-of-stream between frames; the other
/// variants on truncation, corruption, or checksum mismatch.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; WIRE_HEADER_LEN];
    read_exact_or_eof(r, &mut header, 0, WIRE_HEADER_LEN)?;
    if header[..4] != WIRE_MAGIC {
        return Err(WireError::BadHeader(format!(
            "magic {:02x?} != {:02x?}",
            &header[..4],
            WIRE_MAGIC
        )));
    }
    let kind = FrameKind::from_code(header[4])
        .ok_or_else(|| WireError::BadHeader(format!("unknown frame kind {}", header[4])))?;
    let (dtype, codec_id) = (header[5], header[6]);
    let (src, tag, len, expected) =
        header_ints(&header).map_err(|e| WireError::BadHeader(e.to_string()))?;
    if len > WIRE_MAX_PAYLOAD {
        return Err(WireError::BadHeader(format!(
            "payload length {len} exceeds the {WIRE_MAX_PAYLOAD}-byte frame limit"
        )));
    }
    let len = len as usize;
    let mut crc = Crc32::new();
    crc.update(&header[..28]);
    // Scalar blocks are read into their typed destination; everything
    // else (including a scalar dtype with a ragged length, reported once
    // the checksum has vouched for the header) is read as bytes.
    let body = match dtype {
        1 if len.is_multiple_of(4) => {
            let pooled = buffer::take_f32(len / 4).unwrap_or_default();
            Payload::F32(read_body(r, pooled, len / 4, &mut crc)?)
        }
        2 if len.is_multiple_of(4) => Payload::U32(read_body(r, Vec::new(), len / 4, &mut crc)?),
        _ => Payload::Bytes(read_body(r, Vec::new(), len, &mut crc)?),
    };
    let actual = crc.finish();
    if actual != expected {
        return Err(WireError::ChecksumMismatch {
            expected,
            actual,
            codec: (dtype == 4).then(|| Codec::from_code(codec_id)).flatten(),
        });
    }
    if dtype != 4 && codec_id != 0 {
        return Err(WireError::BadHeader(format!(
            "codec byte {codec_id} set on a non-encoded frame (dtype {dtype})"
        )));
    }
    let payload = match body {
        Payload::Bytes(bytes) => bytes_payload(dtype, codec_id, bytes)?,
        scalars => scalars,
    };
    Ok(Frame {
        kind,
        src,
        tag,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// CRC-32 as its definition: the reflected polynomial divided one bit
    /// at a time. No table, nothing shared with [`Crc32::update`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = (c >> 1) ^ (0xedb8_8320 & (c & 1).wrapping_neg());
            }
        }
        !c
    }

    /// Every length around the 16-byte step (empty, tail only, 1–5 full
    /// steps with every tail) at every alignment of the first byte.
    #[test]
    fn crc32_equals_bitwise_division_at_every_length_and_offset() {
        let backing: Vec<u8> = (0..96u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
            .collect();
        for offset in 0..=15 {
            for len in 0..=80 {
                let bytes = &backing[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    /// One frame per dtype, byte for byte: header fields, CRC (checked
    /// against zlib's, not against this encoder) and body, so the format
    /// is pinned by literals rather than by the writer agreeing with the
    /// reader.
    #[test]
    fn golden_bytes_pin_the_format_for_every_dtype() {
        #[rustfmt::skip]
        let golden: [(FrameKind, u32, u64, Payload, &[u8]); 5] = [
            (FrameKind::Barrier, 1, 7, Payload::Empty, &[
                0x53, 0x41, 0x52, 0x31, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
                0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x96, 0x7e, 0x6a, 0x17,
            ]),
            (FrameKind::Data, 3, 42, Payload::F32(vec![1.5, -2.0]), &[
                0x53, 0x41, 0x52, 0x31, 0x00, 0x01, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
                0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x26, 0xec, 0x75, 0xa9,
                0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0x00, 0xc0,
            ]),
            (FrameKind::Data, 2, 0x0102_0304_0506_0708, Payload::U32(vec![1, 0xdead_beef]), &[
                0x53, 0x41, 0x52, 0x31, 0x00, 0x02, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
                0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
                0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc8, 0xde, 0xee, 0x24,
                0x01, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde,
            ]),
            (FrameKind::Request, 0, 17, Payload::Bytes(vec![1, 2, 3]), &[
                0x53, 0x41, 0x52, 0x31, 0x03, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0xff, 0xb9, 0x13,
                0x01, 0x02, 0x03,
            ]),
            (
                FrameKind::Data, 5, 9,
                Payload::Encoded { codec: Codec::Int8, bytes: vec![0xaa, 0xbb, 0xcc, 0xdd, 0xee] },
                &[
                    0x53, 0x41, 0x52, 0x31, 0x00, 0x04, 0x03, 0x00, 0x05, 0x00, 0x00, 0x00,
                    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x98, 0x2b, 0xab,
                    0xaa, 0xbb, 0xcc, 0xdd, 0xee,
                ],
            ),
        ];
        for (kind, src, tag, payload, bytes) in golden {
            let mut written = Vec::new();
            write_frame(&mut written, kind, src, tag, &payload).unwrap();
            assert_eq!(written, bytes, "writing {payload:?}");
            let frame = read_frame(&mut &bytes[..]).expect("golden frame decodes");
            let want = Frame {
                kind,
                src,
                tag,
                payload,
            };
            assert_eq!(frame, want);
        }
    }

    /// A `Write` that accepts whatever it is offered and counts the offers.
    #[derive(Default)]
    struct CountingWrite {
        submissions: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.submissions += 1;
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_small_frame_reaches_the_writer_in_one_submission() {
        for payload in [Payload::Empty, Payload::F32(vec![0.25; 256])] {
            let mut w = CountingWrite::default();
            write_frame(&mut w, FrameKind::Data, 1, 2, &payload).unwrap();
            assert_eq!(w.submissions, 1, "header and payload left separately");
            assert_eq!(w.bytes, encode_frame(FrameKind::Data, 1, 2, &payload));
        }
    }

    #[test]
    fn short_writes_are_resumed_mid_header_and_mid_payload() {
        /// Accepts at most 7 bytes per call, from the first non-empty slice.
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(7);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payload = Payload::U32((0..40).collect());
        let mut w = Dribble(Vec::new());
        write_frame(&mut w, FrameKind::Data, 1, 2, &payload).unwrap();
        assert_eq!(w.0, encode_frame(FrameKind::Data, 1, 2, &payload));
    }

    #[test]
    fn a_header_claiming_a_gigabyte_reserves_nothing_before_the_bytes_arrive() {
        /// Serves `data`, recording the largest buffer `read` was handed.
        struct Recording<'a> {
            data: &'a [u8],
            largest_request: usize,
        }
        impl Read for Recording<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest_request = self.largest_request.max(buf.len());
                self.data.read(buf)
            }
        }
        for dtype_payload in [
            Payload::F32(vec![]),
            Payload::U32(vec![]),
            Payload::Bytes(vec![]),
        ] {
            // A well-formed header whose length field lies, ten payload
            // bytes, then EOF. (The CRC is never reached.)
            let mut stream = encode_frame(FrameKind::Data, 1, 2, &dtype_payload);
            stream[20..28].copy_from_slice(&WIRE_MAX_PAYLOAD.to_le_bytes());
            stream.extend_from_slice(&[0xab; 10]);
            let mut r = Recording {
                data: &stream,
                largest_request: 0,
            };
            match read_frame(&mut r) {
                Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("expected UnexpectedEof, got {other:?}"),
            }
            assert!(
                r.largest_request <= le::READ_CHUNK,
                "read was handed a {}-byte buffer on the strength of a header",
                r.largest_request
            );
        }
        // The failed F32 read left no gigabyte buffer behind for the next
        // taker.
        let elems = WIRE_MAX_PAYLOAD as usize / 4;
        assert!(buffer::take_f32(elems).is_none());
    }

    fn round_trip(payload: Payload) {
        let buf = encode_frame(FrameKind::Data, 3, 42, &payload);
        assert_eq!(buf.len(), payload.wire_len());
        let frame = read_frame(&mut &buf[..]).expect("decode");
        assert_eq!(frame.kind, FrameKind::Data);
        assert_eq!(frame.src, 3);
        assert_eq!(frame.tag, 42);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn frames_round_trip_every_dtype() {
        round_trip(Payload::Empty);
        round_trip(Payload::F32(vec![1.5, -2.25, f32::MIN_POSITIVE]));
        round_trip(Payload::U32(vec![0, 1, u32::MAX]));
        round_trip(Payload::Bytes(vec![7u8; 13]));
        for codec in [Codec::F16, Codec::Bf16, Codec::Int8, Codec::Delta] {
            round_trip(Payload::Encoded {
                codec,
                bytes: vec![9u8; 21],
            });
        }
    }

    #[test]
    fn encoded_frames_carry_the_codec_id_in_header_byte_6() {
        let p = Payload::Encoded {
            codec: Codec::Int8,
            bytes: vec![1, 2, 3],
        };
        let buf = encode_frame(FrameKind::Data, 0, 5, &p);
        assert_eq!(buf[5], 4); // dtype: encoded block
        assert_eq!(buf[6], Codec::Int8.code());
        // Plain frames keep the byte zero (the seed wire format).
        let raw = encode_frame(FrameKind::Data, 0, 5, &Payload::F32(vec![1.0]));
        assert_eq!(raw[6], 0);
        assert_eq!(raw[7], 0);
    }

    #[test]
    fn unknown_or_raw_codec_id_is_a_bad_header_naming_the_codec_space() {
        let reseal = |buf: &mut Vec<u8>| {
            let mut c = Crc32::new();
            c.update(&buf[..28]);
            c.update(&buf[WIRE_HEADER_LEN..]);
            let crc = c.finish();
            buf[28..32].copy_from_slice(&crc.to_le_bytes());
        };
        let p = Payload::Encoded {
            codec: Codec::F16,
            bytes: vec![0u8; 4],
        };
        // Unknown codec id.
        let mut buf = encode_frame(FrameKind::Data, 0, 5, &p);
        buf[6] = 200;
        reseal(&mut buf);
        match read_frame(&mut &buf[..]) {
            Err(WireError::BadHeader(d)) => assert!(d.contains("codec id 200"), "{d}"),
            other => panic!("expected BadHeader, got {other:?}"),
        }
        // Codec byte set on a plain frame.
        let mut buf = encode_frame(FrameKind::Data, 0, 5, &Payload::F32(vec![1.0]));
        buf[6] = Codec::F16.code();
        reseal(&mut buf);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::BadHeader(_))
        ));
    }

    #[test]
    fn corrupted_encoded_frame_names_the_codec() {
        let p = Payload::Encoded {
            codec: Codec::Delta,
            bytes: vec![5u8; 16],
        };
        let mut buf = encode_frame(FrameKind::Data, 2, 9, &p);
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        match read_frame(&mut &buf[..]) {
            Err(e @ WireError::ChecksumMismatch { .. }) => {
                assert!(e.to_string().contains("delta"), "{e}");
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn serving_frame_kinds_round_trip() {
        for kind in [FrameKind::Request, FrameKind::Response] {
            let buf = encode_frame(kind, 0, 17, &Payload::Bytes(vec![1, 2, 3]));
            let frame = read_frame(&mut &buf[..]).expect("decode");
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.tag, 17);
            assert_eq!(frame.payload, Payload::Bytes(vec![1, 2, 3]));
        }
    }

    #[test]
    fn unknown_frame_kind_is_rejected() {
        let mut buf = encode_frame(FrameKind::Data, 0, 0, &Payload::Empty);
        buf[4] = 9;
        // Re-seal the checksum so only the kind byte is at fault.
        let crc = {
            let mut c = Crc32::new();
            c.update(&buf[..28]);
            c.finish()
        };
        buf[28..32].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::BadHeader(_))
        ));
    }

    #[test]
    fn consecutive_frames_parse_from_one_stream() {
        let mut buf = encode_frame(FrameKind::Data, 0, 1, &Payload::U32(vec![9]));
        buf.extend(encode_frame(FrameKind::Barrier, 0, 7, &Payload::Empty));
        let mut r = &buf[..];
        let a = read_frame(&mut r).unwrap();
        let b = read_frame(&mut r).unwrap();
        assert_eq!(a.payload, Payload::U32(vec![9]));
        assert_eq!(b.kind, FrameKind::Barrier);
        assert_eq!(b.tag, 7);
        assert!(matches!(read_frame(&mut r), Err(WireError::Eof)));
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let mut buf = encode_frame(FrameKind::Data, 1, 2, &Payload::F32(vec![1.0, 2.0]));
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        match read_frame(&mut &buf[..]) {
            Err(WireError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_tag_is_rejected() {
        // The checksum covers the header too: flipping a tag bit must fail.
        let mut buf = encode_frame(FrameKind::Data, 1, 2, &Payload::U32(vec![5]));
        buf[12] ^= 0x80;
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = encode_frame(FrameKind::Data, 1, 2, &Payload::Empty);
        buf[0] = b'X';
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::BadHeader(_))
        ));
    }

    #[test]
    fn truncated_frame_is_io_error_not_eof() {
        let buf = encode_frame(FrameKind::Data, 1, 2, &Payload::F32(vec![3.0; 8]));
        let cut = &buf[..buf.len() - 5];
        assert!(matches!(read_frame(&mut &cut[..]), Err(WireError::Io(_))));
    }
}
