//! End-to-end determinism gate for the SIMD dispatch (DESIGN.md §11):
//! a full 4-worker simulated training run must produce the same
//! [`RunReport::parity_digest`](sar_bench::report::RunReport::parity_digest)
//! with the vector paths forced off (`--simd scalar`), capped at the AVX2
//! body (`--simd avx2`) and with runtime dispatch (`--simd auto`, the
//! AVX-512 body where the CPU has AVX-512F).
//!
//! The digest pins per-epoch losses and every worker's byte ledgers, so
//! a single differing bit anywhere in the model state would surface
//! here. Both architectures run so the SpMM family (sage) and the fused
//! attention family (gat / sar-fak) are each covered.
//!
//! The dispatch mode is process-global; everything lives in one test
//! function so concurrently running tests cannot interleave mode flips.

use sar_bench::harness::{run_workload, Transport};
use sar_bench::smoke;

#[test]
fn training_digest_is_identical_under_every_simd_mode() {
    for arch in smoke::MODELS {
        let mut wl = smoke::workload(arch, 400, 0).expect("smoke workload");
        let mut digest = |simd: &str| {
            wl.simd = simd.into();
            run_workload(&wl, smoke::WORLD, Transport::Sim, "simd-parity")
                .expect("sim run")
                .parity_digest()
        };
        let scalar = digest("scalar");
        for mode in ["avx2", "auto"] {
            if let Some(diff) = smoke::digest_diff(&scalar, &digest(mode)) {
                panic!("{arch}: --simd scalar vs {mode} digest divergence — {diff}");
            }
        }
    }
}
