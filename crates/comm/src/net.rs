//! The α–β communication cost model and per-worker traffic statistics.

use crate::le::{put_f64, put_u16, put_u32, put_u64, Cursor};
use crate::phase::{FieldKind, Phase, PhaseEntry, PhaseLedger};

/// α–β model of a network link: transferring a `b`-byte message costs
/// `alpha_us + b / bytes_per_us` microseconds of simulated time, charged to
/// the receiving worker.
///
/// The default models the paper's 200 Gb/s InfiniBand HDR fabric
/// (≈25 GB/s ⇒ 25 000 bytes/µs, ≈1.5 µs latency). Benchmarks on scaled-down
/// graphs typically scale the bandwidth down by the same factor as the
/// graph so that compute/communication ratios match the paper's regime —
/// see `sar-bench`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency in microseconds.
    pub alpha_us: f64,
    /// Bandwidth in bytes per microsecond.
    pub bytes_per_us: f64,
}

impl CostModel {
    /// Simulated transfer time for one message, in microseconds.
    pub fn message_cost_us(&self, bytes: usize) -> f64 {
        self.alpha_us + bytes as f64 / self.bytes_per_us
    }

    /// A model with `factor`× less bandwidth (latency unchanged). Useful
    /// for matching a scaled-down graph to the paper's compute/comm ratio.
    pub fn scale_bandwidth(&self, factor: f64) -> CostModel {
        CostModel {
            alpha_us: self.alpha_us,
            bytes_per_us: self.bytes_per_us / factor,
        }
    }

    /// A model slowed down uniformly by `factor`: `factor`× higher latency
    /// *and* `factor`× less bandwidth. This is the right way to match this
    /// reproduction's single-thread compute rate to the paper's 36-core
    /// workers: both the per-message and per-byte costs grow relative to
    /// compute, preserving the paper's latency-bound regime at high worker
    /// counts (SAR's sequential rounds send N−1 small messages per layer).
    pub fn scale(&self, factor: f64) -> CostModel {
        CostModel {
            alpha_us: self.alpha_us * factor,
            bytes_per_us: self.bytes_per_us / factor,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alpha_us: 1.5,
            bytes_per_us: 25_000.0,
        }
    }
}

/// Communication statistics accumulated by one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct CommStats {
    /// Bytes this worker sent to each peer.
    pub sent_bytes: Vec<u64>,
    /// Number of messages sent.
    pub sent_messages: u64,
    /// Bytes received.
    pub recv_bytes: u64,
    /// Communication time charged to this worker, microseconds: α–β
    /// simulated time on the channel backend, measured wall-clock blocking
    /// time on the TCP backend (see [`Clock`](crate::Clock)).
    pub comm_us: f64,
    /// Per-phase / per-layer breakdown of the traffic above, plus CPU time
    /// and tensor-memory peaks recorded by phase scopes
    /// (see [`WorkerCtx::phase_scope`](crate::WorkerCtx::phase_scope)).
    pub ledger: PhaseLedger,
}

impl CommStats {
    /// Zeroed statistics for a `world`-rank cluster.
    pub fn new(world: usize) -> Self {
        CommStats {
            sent_bytes: vec![0; world],
            sent_messages: 0,
            recv_bytes: 0,
            comm_us: 0.0,
            ledger: PhaseLedger::default(),
        }
    }

    /// Total bytes sent to all peers.
    pub fn total_sent(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }

    /// Communication time in seconds.
    pub fn comm_secs(&self) -> f64 {
        self.comm_us / 1e6
    }

    /// Serializes the statistics to a self-contained little-endian byte
    /// buffer — the format used to gather per-rank results to rank 0 over
    /// the transport itself when workers live in separate processes. Each
    /// ledger cell is its `(phase, layer)` key followed by one 8-byte
    /// value per [`PhaseEntry::FIELDS`] row, in table order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let cell_len = 4 + 8 * PhaseEntry::FIELDS.len();
        let mut buf =
            Vec::with_capacity(32 + 8 * self.sent_bytes.len() + cell_len * self.ledger.len());
        put_u32(&mut buf, self.sent_bytes.len() as u32);
        for &b in &self.sent_bytes {
            put_u64(&mut buf, b);
        }
        put_u64(&mut buf, self.sent_messages);
        put_u64(&mut buf, self.recv_bytes);
        put_f64(&mut buf, self.comm_us);
        put_u32(&mut buf, self.ledger.len() as u32);
        for (phase, layer, entry) in self.ledger.rows() {
            buf.push(phase.code());
            buf.push(u8::from(layer.is_some()));
            put_u16(&mut buf, layer.unwrap_or(0));
            let mut entry = *entry;
            for field in &PhaseEntry::FIELDS {
                match field.kind {
                    FieldKind::Count(at) | FieldKind::Peak(at) => {
                        put_u64(&mut buf, *at(&mut entry))
                    }
                    FieldKind::Micros(at) => put_f64(&mut buf, *at(&mut entry)),
                }
            }
        }
        buf
    }

    /// Inverse of [`CommStats::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the buffer is truncated or structurally
    /// invalid (unknown phase code, impossible lengths).
    pub fn from_bytes(buf: &[u8]) -> Result<CommStats, String> {
        let mut cur = Cursor::new(buf);
        let world = cur.u32()? as usize;
        if world > 1 << 20 {
            return Err(format!("implausible world size {world}"));
        }
        let mut stats = CommStats::new(world);
        for slot in stats.sent_bytes.iter_mut() {
            *slot = cur.u64()?;
        }
        stats.sent_messages = cur.u64()?;
        stats.recv_bytes = cur.u64()?;
        stats.comm_us = cur.f64()?;
        let rows = cur.u32()? as usize;
        if rows > 1 << 20 {
            return Err(format!("implausible ledger size {rows}"));
        }
        for _ in 0..rows {
            let code = cur.u8()?;
            let phase =
                Phase::from_code(code).ok_or_else(|| format!("unknown phase code {code}"))?;
            let has_layer = cur.u8()? != 0;
            let layer_raw = cur.u16()?;
            let entry = stats
                .ledger
                .entry_mut(phase, has_layer.then_some(layer_raw));
            for field in &PhaseEntry::FIELDS {
                match field.kind {
                    FieldKind::Count(at) | FieldKind::Peak(at) => *at(entry) = cur.u64()?,
                    FieldKind::Micros(at) => *at(entry) = cur.f64()?,
                }
            }
        }
        cur.finish()?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_combines_latency_and_bandwidth() {
        let m = CostModel {
            alpha_us: 2.0,
            bytes_per_us: 100.0,
        };
        assert!((m.message_cost_us(1000) - 12.0).abs() < 1e-9);
        assert!((m.message_cost_us(0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scale_bandwidth_slows_transfers() {
        let m = CostModel::default().scale_bandwidth(10.0);
        assert!(m.message_cost_us(250_000) > CostModel::default().message_cost_us(250_000));
        assert_eq!(m.alpha_us, CostModel::default().alpha_us);
    }

    #[test]
    fn comm_stats_codec_rejects_truncation_and_garbage() {
        let s = CommStats::new(2);
        let bytes = s.to_bytes();
        assert!(CommStats::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(CommStats::from_bytes(&extra).is_err());
        assert!(CommStats::from_bytes(&[0xff; 8]).is_err());
    }
}
