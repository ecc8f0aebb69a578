//! Typed serving-tier errors.
//!
//! A resident server outlives any single request: everything a client or
//! an operator can get wrong (bad checkpoint, unsupported configuration,
//! malformed request, out-of-range node id) must surface as a value the
//! front-end can report back, never a panic that takes the rotation down.

use sar_comm::TransportError;
use sar_core::InferError;

/// Why a serving operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// The model configuration cannot be served (domain-parallel mode,
    /// batch normalization, zero layers).
    Unsupported(String),
    /// The checkpoint does not match the configured model.
    BadCheckpoint(InferError),
    /// The worker mesh failed underneath the engine.
    Comm(TransportError),
    /// A queried node id is outside the graph.
    QueryOutOfRange {
        /// The offending node id.
        id: u32,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// A filesystem or socket operation failed.
    Io(String),
    /// A peer or client violated the serving protocol (bad opcode,
    /// wrong payload size, mismatched response tag).
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Unsupported(what) => {
                write!(f, "configuration not servable: {what}")
            }
            ServeError::BadCheckpoint(e) => write!(f, "bad checkpoint: {e}"),
            ServeError::Comm(e) => write!(f, "worker mesh failure: {e}"),
            ServeError::QueryOutOfRange { id, nodes } => {
                write!(
                    f,
                    "queried node {id} out of range (graph has {nodes} nodes)"
                )
            }
            ServeError::Io(e) => write!(f, "i/o failure: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<InferError> for ServeError {
    fn from(e: InferError) -> Self {
        ServeError::BadCheckpoint(e)
    }
}

impl From<TransportError> for ServeError {
    fn from(e: TransportError) -> Self {
        ServeError::Comm(e)
    }
}

impl From<sar_comm::le::CursorError> for ServeError {
    fn from(e: sar_comm::le::CursorError) -> Self {
        ServeError::Protocol(e.to_string())
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}
