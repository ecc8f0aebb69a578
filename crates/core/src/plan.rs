//! Pure schedule planning for SAR's rotation exchanges.
//!
//! [`Worker::try_fetch_rounds`](crate::Worker::try_fetch_rounds) and
//! [`GradRouter`](crate::GradRouter) execute the step sequences produced
//! here; the `sar-check` protocol verifier
//! replays the same sequences symbolically for every rank at once and
//! proves send/recv matching, deadlock-freedom, and the `(K+2)/N`
//! residency bound. Keeping the planning *pure* (no tensors, no
//! transport, no `Worker` state) is the point: the schedule we verify is
//! byte-for-byte the schedule we run.
//!
//! Terminology follows the paper (Algorithms 1–2): worker `p` of `N`
//! processes remote partitions in the fixed rotation order
//! `p, p+1, …, p+N−1 (mod N)`. In round `r` it *serves* partition
//! `(p − r) mod N` (sends the rows that partition needs) and *fetches*
//! from partition `(p + r) mod N`. Round 0 is the local block — a gather
//! with no communication. With pipeline depth `k`, serves and fetches run
//! up to `k` rounds ahead of consumption, so at most `k + 1` fetched
//! blocks are resident besides the local partition — the `(k+2)/N`
//! memory bound (2/N at depth 0, the paper's 3/N at depth 1).

/// The partition worker `p` of `n` serves in round `r` of the rotation.
#[inline]
#[must_use]
pub fn serve_dst(p: usize, r: usize, n: usize) -> usize {
    (p + n - r % n) % n
}

/// The partition worker `p` of `n` fetches from in round `r`.
#[inline]
#[must_use]
pub fn fetch_src(p: usize, r: usize, n: usize) -> usize {
    (p + r) % n
}

/// One step of the pipelined rotation exchange (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchStep {
    /// Gather the local block (round 0) and stage it. No communication.
    GatherLocal,
    /// Non-blocking serve: send the rows partition `dst` needs from this
    /// worker (round `round` of the rotation).
    Serve {
        /// Rotation round (1-based; round 0 never serves).
        round: usize,
        /// Destination partition.
        dst: usize,
    },
    /// Blocking fetch: receive the block of rows this worker needs from
    /// partition `src`, and stage it behind any blocks already staged.
    Fetch {
        /// Rotation round (1-based; round 0 never fetches).
        round: usize,
        /// Source partition.
        src: usize,
    },
    /// Consume the oldest staged block — it must be partition `q`'s —
    /// then release (recycle) it.
    Consume {
        /// Partition whose block is consumed; blocks are always consumed
        /// in rotation order `p, p+1, …`, regardless of arrival order.
        q: usize,
    },
}

/// The depth-`k` pipelined fetch schedule of worker `p` in a world of
/// `n`: round 0's local gather, then every round's serve/fetch issued up
/// to `k` rounds ahead of its consumption.
///
/// Properties the `sar-check` protocol verifier proves over the full
/// `(n, k)` sweep, and that
/// [`Worker::try_fetch_rounds`](crate::Worker::try_fetch_rounds) inherits by
/// construction:
///
/// * every partition `q` is consumed exactly once, in rotation order;
/// * serve `r` of worker `p` matches fetch `r` of worker
///   `serve_dst(p, r, n)` — pairwise, with equal tags;
/// * at most `min(k, n−1) + 1` staged blocks are ever resident.
///
/// # Panics
///
/// Panics if `n == 0` or `p >= n` (a planning-time programming error).
#[must_use]
pub fn fetch_steps(n: usize, p: usize, k: usize) -> Vec<FetchStep> {
    assert!(n > 0 && p < n, "rank {p} out of range for world {n}");
    let mut steps = Vec::with_capacity(3 * n + 1);
    // Round 0: the local block, staged like any other so consumption is
    // uniform.
    steps.push(FetchStep::GatherLocal);
    // Fill: issue the first `k` rounds' serves and fetches before
    // consuming anything.
    let fill = k.min(n - 1);
    for r in 1..=fill {
        steps.push(FetchStep::Serve {
            round: r,
            dst: serve_dst(p, r, n),
        });
        steps.push(FetchStep::Fetch {
            round: r,
            src: fetch_src(p, r, n),
        });
    }
    steps.push(FetchStep::Consume { q: p });
    // Steady state: round `r`'s serve and fetch are issued while round
    // `r − k` is the oldest staged block; it is consumed immediately
    // after, keeping exactly `k` blocks staged.
    for r in (fill + 1)..n {
        steps.push(FetchStep::Serve {
            round: r,
            dst: serve_dst(p, r, n),
        });
        steps.push(FetchStep::Fetch {
            round: r,
            src: fetch_src(p, r, n),
        });
        steps.push(FetchStep::Consume {
            q: fetch_src(p, r - fill, n),
        });
    }
    // Drain the last `fill` staged blocks.
    for r in (n - fill)..n {
        steps.push(FetchStep::Consume {
            q: fetch_src(p, r, n),
        });
    }
    steps
}

/// One step of the gradient-routing exchange (Algorithm 2:
/// `send error E_{p→q} to worker q`, then `E_p = Σ_q E_{q→p}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradStep {
    /// Scatter-add the local gradient block (no communication).
    AccumulateLocal,
    /// Non-blocking send of the gradient block for the rows fetched from
    /// partition `dst` during the forward pass.
    Send {
        /// Peer the error block is routed to.
        dst: usize,
    },
    /// Blocking receive of the error block partition `src` routed here,
    /// scatter-added over the rows served to `src`.
    Recv {
        /// Peer whose error block is accumulated.
        src: usize,
    },
}

/// The gradient-routing schedule of worker `p` in a world of `n`: the
/// local contribution, then *all* sends (non-blocking), then receives in
/// the fixed rank order `(p + n − r) mod n` so the floating-point
/// accumulation order — and therefore the result — is independent of
/// arrival order.
///
/// Send-before-receive is what makes the exchange deadlock-free: no
/// worker's send waits on any other worker's progress.
///
/// # Panics
///
/// Panics if `n == 0` or `p >= n` (a planning-time programming error).
#[must_use]
pub fn grad_steps(n: usize, p: usize) -> Vec<GradStep> {
    assert!(n > 0 && p < n, "rank {p} out of range for world {n}");
    let mut steps = Vec::with_capacity(2 * n - 1);
    steps.push(GradStep::AccumulateLocal);
    for r in 1..n {
        steps.push(GradStep::Send { dst: (p + r) % n });
    }
    for r in 1..n {
        steps.push(GradStep::Recv {
            src: (p + n - r) % n,
        });
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_indices_are_inverse() {
        for n in 1..9 {
            for p in 0..n {
                for r in 0..n {
                    // Worker p fetches from q in round r ⇔ q serves p in
                    // round r.
                    let q = fetch_src(p, r, n);
                    assert_eq!(serve_dst(q, r, n), p);
                }
            }
        }
    }

    #[test]
    fn depth_zero_is_strictly_sequential() {
        let steps = fetch_steps(3, 1, 0);
        use FetchStep::*;
        assert_eq!(
            steps,
            vec![
                GatherLocal,
                Consume { q: 1 },
                Serve { round: 1, dst: 0 },
                Fetch { round: 1, src: 2 },
                Consume { q: 2 },
                Serve { round: 2, dst: 2 },
                Fetch { round: 2, src: 0 },
                Consume { q: 0 },
            ]
        );
    }

    #[test]
    fn every_partition_consumed_once_in_rotation_order() {
        for n in 1..8 {
            for p in 0..n {
                for k in 0..4 {
                    let consumed: Vec<usize> = fetch_steps(n, p, k)
                        .iter()
                        .filter_map(|s| match s {
                            FetchStep::Consume { q } => Some(*q),
                            _ => None,
                        })
                        .collect();
                    let expect: Vec<usize> = (0..n).map(|r| (p + r) % n).collect();
                    assert_eq!(consumed, expect, "n={n} p={p} k={k}");
                }
            }
        }
    }

    #[test]
    fn staged_blocks_never_exceed_depth_plus_one() {
        for n in 1..8 {
            for p in 0..n {
                for k in 0..4 {
                    let mut staged = 0usize;
                    let mut peak = 0usize;
                    for s in fetch_steps(n, p, k) {
                        match s {
                            FetchStep::GatherLocal | FetchStep::Fetch { .. } => {
                                staged += 1;
                                peak = peak.max(staged);
                            }
                            FetchStep::Consume { .. } => staged -= 1,
                            FetchStep::Serve { .. } => {}
                        }
                    }
                    assert_eq!(staged, 0);
                    assert_eq!(peak, k.min(n - 1) + 1, "n={n} p={p} k={k}");
                }
            }
        }
    }

    #[test]
    fn grad_plan_sends_all_before_receiving() {
        for n in 1..8 {
            for p in 0..n {
                let steps = grad_steps(n, p);
                assert_eq!(steps[0], GradStep::AccumulateLocal);
                assert_eq!(steps.len(), 2 * n - 1);
                let first_recv = steps
                    .iter()
                    .position(|s| matches!(s, GradStep::Recv { .. }))
                    .unwrap_or(steps.len());
                let last_send = steps
                    .iter()
                    .rposition(|s| matches!(s, GradStep::Send { .. }))
                    .unwrap_or(0);
                assert!(last_send < first_recv || n == 1);
            }
        }
    }
}
