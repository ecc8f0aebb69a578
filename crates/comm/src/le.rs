//! The workspace's one little-endian byte codec: a bounds-checked
//! [`Cursor`] over received bytes and the `put_*` writers that produce
//! what it reads. The rank-to-rank stats gather ([`CommStats::to_bytes`]),
//! `sar-bench`'s per-rank result blob and `sar-serve`'s request, response
//! and control bodies are all this format, so none of them carries its
//! own reader. Frame payloads skip the per-element form: on the wire an
//! `f32`/`u32` block *is* its in-memory bytes (`scalar_bytes` to write,
//! `scalar_bytes_mut` to read into — two views of the same memory),
//! which is what a little-endian host stores anyway.
//!
//! [`CommStats::to_bytes`]: crate::CommStats::to_bytes

#[cfg(not(target_endian = "little"))]
compile_error!("sar-comm views scalar slices as their little-endian wire bytes in place");

/// Scalars whose slice can be viewed as wire bytes in place: no padding,
/// every bit pattern valid, little-endian in memory. Crate-private, so
/// the three impls below are the only ones the views ever see.
pub(crate) trait Scalar: Copy + Default {}
impl Scalar for u8 {}
impl Scalar for u32 {}
impl Scalar for f32 {}

/// The wire bytes of a scalar block — the block itself, not a copy.
pub(crate) fn scalar_bytes<T: Scalar>(v: &[T]) -> &[u8] {
    // SAFETY: `T` is u8, u32 or f32 (see `Scalar`): no padding, so all
    // `size_of_val(v)` bytes are initialised; `u8` has alignment 1; the
    // view borrows `v`, so it cannot outlive or alias a mutation of it.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// The wire bytes of a scalar block, writable: bytes read from a socket
/// into the view *are* the decoded scalars.
pub(crate) fn scalar_bytes_mut<T: Scalar>(v: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `scalar_bytes`, plus: every bit pattern is a valid
    // u8, u32 and f32, so no write through the view can leave `v` invalid;
    // the view holds the only (mutable) borrow of `v`.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
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
}
