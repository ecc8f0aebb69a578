//! The α–β communication cost model and per-worker traffic statistics.

use crate::phase::PhaseLedger;

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
}
