//! Message payloads exchanged between workers.

use crate::codec::Codec;
use crate::transport::TransportError;
use crate::wire::WIRE_HEADER_LEN;

/// A typed message payload.
///
/// Payloads carry raw buffers, never tensors: tensors are tied to their
/// creating thread's memory tracker, so senders detach data first (see
/// `sar_tensor::Tensor::into_data`) and receivers re-wrap it, which also
/// attributes the received bytes to the receiving worker's memory — exactly
/// how a real distributed runtime behaves.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A buffer of `f32` values (features, gradients).
    F32(Vec<f32>),
    /// A buffer of `u32` values (indices, labels).
    U32(Vec<u32>),
    /// An opaque byte buffer (serialized reports, control metadata).
    Bytes(Vec<u8>),
    /// A pure synchronization token.
    Empty,
    /// A codec-encoded `f32` block (see [`crate::codec`]): produced by
    /// the sending [`WorkerCtx`](crate::WorkerCtx) when a non-`raw`
    /// codec is active, carried through the transport as-is (both
    /// backends ship exactly these bytes), and decoded back to
    /// [`Payload::F32`] by the receiving context before delivery.
    Encoded {
        /// The codec that produced (and can decode) `bytes`.
        codec: Codec,
        /// The encoded block: stream header + codec body.
        bytes: Vec<u8>,
    },
}

impl Payload {
    /// Payload size in bytes, excluding framing.
    pub fn byte_len(&self) -> usize {
        match self {
            Payload::F32(v) => v.len() * 4,
            Payload::U32(v) => v.len() * 4,
            Payload::Bytes(v) => v.len(),
            Payload::Empty => 0,
            Payload::Encoded { bytes, .. } => bytes.len(),
        }
    }

    /// Size of this payload on the wire: the framed-message header plus
    /// [`Payload::byte_len`]. Every backend accounts traffic with this —
    /// the α–β cost model charges it and the TCP encoder emits exactly this
    /// many bytes — so the sim and TCP byte ledgers are directly comparable.
    pub fn wire_len(&self) -> usize {
        WIRE_HEADER_LEN + self.byte_len()
    }

    /// The dtype tag of this payload, as used in wire frames and error
    /// messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::F32(_) => "F32",
            Payload::U32(_) => "U32",
            Payload::Bytes(_) => "Bytes",
            Payload::Empty => "Empty",
            Payload::Encoded { .. } => "Encoded",
        }
    }

    /// Extracts an `f32` buffer, or reports the mismatch.
    ///
    /// # Errors
    ///
    /// [`TransportError::UnexpectedDtype`] if the payload is not
    /// [`Payload::F32`] — e.g. a misrouted TCP frame landed on a tag whose
    /// receiver expected feature data. Callers on the distributed recv path
    /// should propagate this so the rank exits cleanly instead of
    /// panicking mid-protocol.
    pub fn try_into_f32(self) -> Result<Vec<f32>, TransportError> {
        match self {
            Payload::F32(v) => Ok(v),
            other => Err(TransportError::UnexpectedDtype {
                expected: "F32",
                got: other.kind(),
            }),
        }
    }

    /// Extracts a `u32` buffer, or reports the mismatch.
    ///
    /// # Errors
    ///
    /// [`TransportError::UnexpectedDtype`] if the payload is not
    /// [`Payload::U32`].
    pub fn try_into_u32(self) -> Result<Vec<u32>, TransportError> {
        match self {
            Payload::U32(v) => Ok(v),
            other => Err(TransportError::UnexpectedDtype {
                expected: "U32",
                got: other.kind(),
            }),
        }
    }

    /// Extracts a raw byte buffer, or reports the mismatch.
    ///
    /// # Errors
    ///
    /// [`TransportError::UnexpectedDtype`] if the payload is not
    /// [`Payload::Bytes`].
    pub fn try_into_bytes(self) -> Result<Vec<u8>, TransportError> {
        match self {
            Payload::Bytes(v) => Ok(v),
            other => Err(TransportError::UnexpectedDtype {
                expected: "Bytes",
                got: other.kind(),
            }),
        }
    }

    /// Extracts an `f32` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not [`Payload::F32`]. Fallible callers
    /// should use [`Payload::try_into_f32`].
    pub fn into_f32(self) -> Vec<f32> {
        self.try_into_f32().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Extracts a `u32` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not [`Payload::U32`]. Fallible callers
    /// should use [`Payload::try_into_u32`].
    pub fn into_u32(self) -> Vec<u32> {
        self.try_into_u32().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Extracts a raw byte buffer.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not [`Payload::Bytes`]. Fallible callers
    /// should use [`Payload::try_into_bytes`].
    pub fn into_bytes(self) -> Vec<u8> {
        self.try_into_bytes().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// An addressed message in flight, as handed to
/// [`WorkerCtx`](crate::WorkerCtx) by a
/// [`Transport`](crate::Transport) backend.
#[derive(Debug)]
pub struct Message {
    /// Sender rank.
    pub src: u32,
    /// Message tag.
    pub tag: u64,
    /// The payload.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_len_counts_payload() {
        assert_eq!(Payload::F32(vec![0.0; 10]).byte_len(), 40);
        assert_eq!(Payload::U32(vec![1, 2]).byte_len(), 8);
        assert_eq!(Payload::Bytes(vec![0; 5]).byte_len(), 5);
        assert_eq!(Payload::Empty.byte_len(), 0);
    }

    #[test]
    fn wire_len_adds_the_frame_header() {
        assert_eq!(Payload::F32(vec![0.0; 10]).wire_len(), WIRE_HEADER_LEN + 40);
        assert_eq!(Payload::Empty.wire_len(), WIRE_HEADER_LEN);
    }

    #[test]
    fn into_f32_round_trips() {
        let v = vec![1.0, 2.0];
        assert_eq!(Payload::F32(v.clone()).into_f32(), v);
    }

    #[test]
    #[should_panic(expected = "expected F32")]
    fn into_f32_rejects_u32() {
        let _ = Payload::U32(vec![1]).into_f32();
    }

    #[test]
    fn try_into_reports_the_mismatch_instead_of_panicking() {
        let err = Payload::U32(vec![1]).try_into_f32().unwrap_err();
        assert_eq!(err.to_string(), "expected F32 payload, got U32");
        let err = Payload::Empty.try_into_u32().unwrap_err();
        assert_eq!(err.to_string(), "expected U32 payload, got Empty");
        let err = Payload::F32(vec![0.0]).try_into_bytes().unwrap_err();
        assert_eq!(err.to_string(), "expected Bytes payload, got F32");
        assert_eq!(Payload::Bytes(vec![7]).try_into_bytes().unwrap(), vec![7]);
    }
}
