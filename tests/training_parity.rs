//! Tier-1 coverage of the paper's exactness claim: on the sim transport,
//! training reports the same `parity_digest()` at every kernel thread
//! count and prefetch depth of a world, and the same losses (to float
//! summation order) at every world size.

use sar::bench::distrun::Workload;
use sar::bench::harness::{run_workload, Transport};
use sar::bench::smoke;

#[test]
fn training_is_exact_across_world_threads_and_prefetch_depth() {
    for arch in smoke::MODELS {
        let mut solo_losses: Option<Vec<f32>> = None;
        for world in 1..=3 {
            let mut baseline: Option<String> = None;
            for (threads, prefetch_depth) in [(1, 0), (2, 0), (1, 2), (2, 2)] {
                let wl = Workload {
                    epochs: 2,
                    layers: 2,
                    // The dropout mask is seeded per rank: the one
                    // world-dependent randomness.
                    dropout: 0.0,
                    threads,
                    prefetch_depth,
                    ..smoke::workload(arch, 160, 7).expect("smoke workload")
                };
                let cell = format!("{arch} world {world} threads {threads} depth {prefetch_depth}");
                let report = run_workload(&wl, world, Transport::Sim, "tier1-parity")
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert!(!report.has_non_finite_loss(), "{cell}: non-finite loss");
                let digest = report.parity_digest();
                let base = baseline.get_or_insert_with(|| digest.clone());
                if let Some(diff) = smoke::digest_diff(base, &digest) {
                    panic!("{cell}: digest diverges from threads 1 depth 0 — {diff}");
                }
                // Across worlds the partial sums associate differently, so
                // the losses agree to rounding, not bit for bit.
                let solo = solo_losses.get_or_insert_with(|| report.run.losses.clone());
                for (epoch, (a, b)) in solo.iter().zip(&report.run.losses).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-3 * a.abs().max(1.0),
                        "{cell}: epoch {epoch} loss {b} vs {a} on one rank"
                    );
                }
            }
        }
    }
}
