//! The workspace's one little-endian byte codec, at the bottom of the
//! stack so that everything that lets a tensor leave the process — the
//! wire, the spill tier, dataset / graph / checkpoint files — goes out
//! through it: a bounds-checked [`Cursor`] over received bytes and the
//! `put_*` writers that produce what it reads (the rank-to-rank stats
//! gather, `sar-bench`'s per-rank result blob and `sar-serve`'s request,
//! response and control bodies are all this format), the in-place views
//! of a scalar block as its bytes ([`scalar_bytes`] to write,
//! [`scalar_bytes_mut`] to read into — an `f32`/`u32` block on the wire or
//! on disk *is* its in-memory bytes, which is what a little-endian host
//! stores anyway), and the bounded fill ([`fill_scalars`],
//! [`read_scalars`]) every reader of a length-prefixed block uses, so that
//! a length a peer or a file claims never sizes a buffer by itself.

use std::io::{self, Read};

#[cfg(not(target_endian = "little"))]
compile_error!("sar-tensor views scalar slices as their little-endian wire bytes in place");

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for f32 {}
}

/// Scalars whose slice can be viewed as wire bytes in place: no padding,
/// every bit pattern valid, little-endian in memory. Sealed, so `u8`,
/// `u32` and `f32` are the only ones the views ever see.
pub trait Scalar: sealed::Sealed + Copy + Default {}
impl<T: sealed::Sealed + Copy + Default> Scalar for T {}

/// The wire bytes of a scalar block — the block itself, not a copy.
pub fn scalar_bytes<T: Scalar>(v: &[T]) -> &[u8] {
    // SAFETY: `T` is u8, u32 or f32 (see `Scalar`): no padding, so all
    // `size_of_val(v)` bytes are initialised; `u8` has alignment 1; the
    // view borrows `v`, so it cannot outlive or alias a mutation of it.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// The wire bytes of a scalar block, writable: bytes read from a socket
/// or a file into the view *are* the decoded scalars.
pub fn scalar_bytes_mut<T: Scalar>(v: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `scalar_bytes`, plus: every bit pattern is a valid
    // u8, u32 and f32, so no write through the view can leave `v` invalid;
    // the view holds the only (mutable) borrow of `v`.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// Most bytes [`fill_scalars`] extends its destination by ahead of its
/// source. A length field is a claim — from a peer or serving client that
/// may send ten bytes and hang up, or from a file that may be ten bytes
/// long — so it sizes nothing in advance; a chunk is also still in cache
/// when the wire checksums it.
pub const READ_CHUNK: usize = 256 << 10;

/// Grows `dst` to `n` scalars one [`READ_CHUNK`] at a time, handing each
/// new chunk's bytes and its byte offset within the block to `fill`, which
/// reads into it (and may checksum what it read). The first error stops
/// the fill, so a block that claims a terabyte and delivers ten bytes
/// costs one chunk.
pub fn fill_scalars<T: Scalar, E>(
    mut dst: Vec<T>,
    n: usize,
    mut fill: impl FnMut(&mut [u8], usize) -> Result<(), E>,
) -> Result<Vec<T>, E> {
    let size = size_of::<T>();
    while dst.len() < n {
        let start = dst.len();
        dst.resize(n.min(start + READ_CHUNK / size), T::default());
        fill(scalar_bytes_mut(&mut dst[start..]), start * size)?;
    }
    Ok(dst)
}

/// `e` with the name of the field that was being read in front of it.
fn naming(what: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{what}: {e}"))
}

/// Reads one little-endian `u64` field from a file-like stream.
///
/// # Errors
///
/// The stream's error (`UnexpectedEof` if it ends first), naming `what`.
pub fn read_u64(r: &mut impl Read, what: &str) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(|e| naming(what, e))?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads the `n` scalars a file's length field claims through
/// [`fill_scalars`].
///
/// # Errors
///
/// `InvalidData` if `n` scalars cannot be addressed at all, the stream's
/// error (`UnexpectedEof` if it ends first) otherwise — both naming `what`.
pub fn read_scalars<T: Scalar>(r: &mut impl Read, n: u64, what: &str) -> io::Result<Vec<T>> {
    let n = usize::try_from(n)
        .ok()
        .filter(|n| n.checked_mul(size_of::<T>()).is_some())
        .ok_or_else(|| {
            let msg = format!("{what}: claimed length {n} is not addressable");
            io::Error::new(io::ErrorKind::InvalidData, msg)
        })?;
    fill_scalars(Vec::new(), n, |chunk, _| r.read_exact(chunk)).map_err(|e| naming(what, e))
}

/// Why a [`Cursor`] read failed. These bytes arrive from the network, so
/// a malformed buffer is an error value, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorError {
    /// A read ran past the end of the buffer.
    Truncated {
        /// Where the read started.
        offset: usize,
        /// Bytes the read needed.
        wanted: usize,
        /// Total buffer length.
        have: usize,
    },
    /// [`Cursor::finish`] found unread bytes.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CursorError::Truncated {
                offset,
                wanted,
                have,
            } => write!(
                f,
                "message truncated: wanted {wanted} bytes at offset {offset}, have {have}"
            ),
            CursorError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
        }
    }
}

impl std::error::Error for CursorError {}

impl From<CursorError> for String {
    fn from(e: CursorError) -> String {
        e.to_string()
    }
}

/// A bounds-checked little-endian reader over a received byte buffer.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a buffer.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CursorError::Truncated`] if fewer than `n` bytes remain — as for
    /// every read below.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CursorError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CursorError::Truncated {
                offset: self.pos,
                wanted: n,
                have: self.buf.len(),
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// `take(N)` as an array — the copy cannot fail because `take`
    /// returned exactly `N` bytes.
    fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], CursorError> {
        let mut arr = [0u8; N];
        arr.copy_from_slice(self.take(N)?);
        Ok(arr)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CursorError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CursorError> {
        Ok(u16::from_le_bytes(self.take_arr()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CursorError> {
        Ok(u32::from_le_bytes(self.take_arr()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CursorError> {
        Ok(u64::from_le_bytes(self.take_arr()?))
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, CursorError> {
        Ok(f32::from_le_bytes(self.take_arr()?))
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, CursorError> {
        Ok(f64::from_le_bytes(self.take_arr()?))
    }

    /// Reads `n` little-endian `u32`s. The length is checked against the
    /// buffer before anything is allocated.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, CursorError> {
        self.scalars(n)
    }

    /// Reads `n` little-endian `f32`s (bounded like [`Cursor::u32s`]).
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CursorError> {
        self.scalars(n)
    }

    fn scalars<T: Scalar>(&mut self, n: usize) -> Result<Vec<T>, CursorError> {
        let b = self.take(n.saturating_mul(std::mem::size_of::<T>()))?;
        let mut v = vec![T::default(); n];
        scalar_bytes_mut(&mut v).copy_from_slice(b);
        Ok(v)
    }

    /// The unread bytes.
    #[must_use]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Errors unless the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// [`CursorError::Trailing`] with the number of unread bytes.
    pub fn finish(&self) -> Result<(), CursorError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            extra => Err(CursorError::Trailing { extra }),
        }
    }
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f32`.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a run of little-endian `u32`s (no length prefix).
pub fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    out.extend_from_slice(scalar_bytes(vs));
}

/// Appends a run of little-endian `f32`s (no length prefix).
pub fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    out.extend_from_slice(scalar_bytes(vs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_and_cursor_round_trip_every_width() {
        let mut buf = vec![7u8];
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, -1.5);
        put_f64(&mut buf, 2.25);
        put_u32s(&mut buf, &[1, 2, 3]);
        put_f32s(&mut buf, &[0.5, -0.25]);
        buf.push(9);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.u16(), Ok(0xBEEF));
        assert_eq!(c.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(c.u64(), Ok(u64::MAX - 1));
        assert_eq!(c.f32(), Ok(-1.5));
        assert_eq!(c.f64(), Ok(2.25));
        assert_eq!(c.u32s(3), Ok(vec![1, 2, 3]));
        assert_eq!(c.f32s(2), Ok(vec![0.5, -0.25]));
        assert_eq!(c.finish(), Err(CursorError::Trailing { extra: 1 }));
        assert_eq!(c.rest(), &[9]);
        assert_eq!(c.u8(), Ok(9));
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn truncation_names_offset_wanted_and_have() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32(), Ok(0x0403_0201));
        let err = c.u32().unwrap_err();
        assert_eq!(
            err,
            CursorError::Truncated {
                offset: 4,
                wanted: 4,
                have: 5
            }
        );
        // A failed read consumes nothing, and an absurd count neither
        // overflows nor allocates.
        assert_eq!(c.u8(), Ok(5));
        assert!(matches!(
            c.f32s(usize::MAX),
            Err(CursorError::Truncated { .. })
        ));
        let text: String = err.into();
        assert!(
            text.contains("offset 4") && text.contains("wanted 4"),
            "{text}"
        );
    }

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

    #[test]
    fn stream_reads_round_trip_what_the_views_wrote() {
        let floats: Vec<f32> = (0..100_000).map(|i| i as f32 * 0.5).collect();
        let mut file = 7u64.to_le_bytes().to_vec();
        file.extend_from_slice(scalar_bytes(&floats));
        file.extend_from_slice(scalar_bytes(&[1u32, 2, 3]));
        file.extend_from_slice(&[9u8, 8]);
        let mut r = &file[..];
        assert_eq!(read_u64(&mut r, "count").unwrap(), 7);
        // More than one chunk, not a whole number of them.
        assert!(
            size_of_val(&floats[..]) > READ_CHUNK
                && !size_of_val(&floats[..]).is_multiple_of(READ_CHUNK)
        );
        assert_eq!(
            read_scalars::<f32>(&mut r, 100_000, "floats").unwrap(),
            floats
        );
        assert_eq!(read_scalars::<u32>(&mut r, 3, "ints").unwrap(), [1, 2, 3]);
        assert_eq!(read_scalars::<u8>(&mut r, 2, "bytes").unwrap(), [9, 8]);
        assert_eq!(read_scalars::<u8>(&mut r, 0, "nothing").unwrap(), [0u8; 0]);
        let err = read_u64(&mut r, "one field too many").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("one field too many"), "{err}");
    }

    #[test]
    fn a_claimed_length_sizes_nothing_ahead_of_the_bytes() {
        // Ten bytes that claim to be 2^40 scalars: the read ends at the
        // end of the stream having asked for one chunk, not four terabytes.
        let mut r = Recording {
            data: &[0xab; 10],
            largest_request: 0,
        };
        let err = read_scalars::<u32>(&mut r, 1 << 40, "indices").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("indices"), "{err}");
        assert!(r.largest_request <= READ_CHUNK, "{}", r.largest_request);
        // 2^62 four-byte scalars do not fit an address space: refused
        // before a single byte is read, not a `capacity overflow` panic.
        let err = read_scalars::<f32>(&mut r, 1 << 62, "features").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("features"), "{err}");
        assert!(read_scalars::<u8>(&mut r, u64::MAX, "mask").is_err());
    }

    #[test]
    fn fill_grows_chunk_by_chunk_and_stops_at_the_first_error() {
        let n = 3 * READ_CHUNK / 4 + 5; // u32s: three chunks and a tail
        let mut seen = Vec::new();
        let filled = fill_scalars(vec![7u32], n, |chunk, at| {
            seen.push((at, chunk.len()));
            chunk.fill(1);
            Ok::<(), ()>(())
        })
        .unwrap();
        // Appends after what `dst` already held; offsets are in bytes.
        assert_eq!(filled.len(), n);
        assert_eq!(
            (filled[0], filled[1], filled[n - 1]),
            (7, 0x0101_0101, 0x0101_0101)
        );
        assert_eq!(seen[0], (4, READ_CHUNK));
        assert_eq!(seen.len(), 4);
        assert_eq!(seen.iter().map(|&(_, len)| len).sum::<usize>(), (n - 1) * 4);
        let mut calls = 0;
        let failed = fill_scalars(Vec::<f32>::new(), usize::MAX / 8, |_, _| {
            calls += 1;
            Err("source ran dry")
        });
        assert_eq!((failed, calls), (Err("source ran dry"), 1));
    }
}
