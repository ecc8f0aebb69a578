//! Bitwise parity proof for the SIMD dispatch (DESIGN.md §11).
//!
//! Every kernel produces identical bits — compared via `f32::to_bits` so
//! that `-0.0`/`0.0` and NaN payload differences cannot hide behind `==` —
//! under `SimdMode::Auto` (AVX2 where available) and
//! `SimdMode::ForceScalar`, because the scalar fallback mirrors the vector
//! paths' fixed 8-lane accumulation tree exactly. Feature widths include
//! ragged tails (not a multiple of the 8-lane width) and the graphs
//! include isolated nodes (empty CSR rows).
//!
//! This pins the two paths to each other, not to what they should
//! compute: `spmm_sum` forward and backward equal a per-edge loop written
//! out in `proptests.rs`, and the primitives under them (`gather_sum`,
//! `panel_axpy`, `dot_block`) equal naive loops in `sar-tensor`'s
//! `dense_parity.rs`. (The walk has one traversal — a row's whole
//! neighbour list, in stored order — so there is no blocked variant left
//! for this file's name to refer to.)
//!
//! The dispatch mode is process-global, so everything that flips it lives
//! in ONE test function (tests in a binary run concurrently).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_graph::fused::{gat_fused_block_forward, gat_twostep_block_forward, OnlineAttnState};
use sar_graph::generators::erdos_renyi;
use sar_graph::ops;
use sar_graph::CsrGraph;
use sar_tensor::init::randn;
use sar_tensor::simd::{set_mode, SimdMode};
use sar_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Dense-ish graph plus a sparse one whose 96 rows outnumber its 50
/// edges, guaranteeing isolated destinations and isolated sources.
fn graphs() -> Vec<(CsrGraph, &'static str)> {
    let mut rng = StdRng::seed_from_u64(7);
    vec![
        (erdos_renyi(128, 1024, &mut rng).symmetrize(), "dense"),
        (erdos_renyi(96, 50, &mut rng), "isolated-nodes"),
    ]
}

/// Runs every SIMD-dispatched kernel once and returns all output bits,
/// labelled so a mismatch names the offending kernel.
fn run_all_kernels() -> Vec<(String, Vec<u32>)> {
    let mut out = Vec::new();
    for (g, gname) in graphs() {
        let n = g.num_rows();
        let c = g.num_cols();
        let e = g.num_edges();
        // 7 and 13 exercise the ragged scalar tail after the 8-lane body;
        // 32 exercises the pure vector path.
        for f in [7usize, 13, 32] {
            let mut rng = StdRng::seed_from_u64((f as u64) << 8 | 1);
            let x = randn(&[c, f], 1.0, &mut rng);
            let grad = randn(&[n, f], 1.0, &mut rng);
            let fwd = ops::spmm_sum(&g, &x);
            let bwd = ops::spmm_sum_backward(&g, &grad);
            out.push((format!("{gname}/spmm_sum/f{f}"), bits(&fwd)));
            out.push((format!("{gname}/spmm_sum_backward/f{f}"), bits(&bwd)));
        }
        // Head dims 5 (ragged) and 8 (full lane) per head.
        let heads = 4;
        for d in [5usize, 8] {
            let hd = heads * d;
            let mut rng = StdRng::seed_from_u64((d as u64) << 16 | 2);
            let x = randn(&[c, hd], 1.0, &mut rng);
            let a = randn(&[hd], 1.0, &mut rng);
            let s_dst = randn(&[n, heads], 1.0, &mut rng);
            let s_src = randn(&[c, heads], 1.0, &mut rng);
            let grad = randn(&[n, hd], 1.0, &mut rng);

            let proj = ops::head_project(&x, &a, heads);
            out.push((format!("{gname}/head_project/d{d}"), bits(&proj)));

            let scores = ops::gat_edge_scores(&g, &s_dst, &s_src, 0.2);
            assert_eq!(scores.rows(), e);
            out.push((format!("{gname}/gat_edge_scores/d{d}"), bits(&scores)));

            let alpha = ops::edge_softmax(&g, &scores);
            out.push((format!("{gname}/edge_softmax/d{d}"), bits(&alpha)));

            let mh = ops::spmm_multihead(&g, &alpha, &x);
            out.push((format!("{gname}/spmm_multihead/d{d}"), bits(&mh)));

            let (d_alpha, d_x) = ops::spmm_multihead_backward(&g, &alpha, &x, &grad);
            out.push((
                format!("{gname}/spmm_multihead_backward/alpha/d{d}"),
                bits(&d_alpha),
            ));
            out.push((
                format!("{gname}/spmm_multihead_backward/x/d{d}"),
                bits(&d_x),
            ));

            let mut fused = OnlineAttnState::new(n, heads, d);
            gat_fused_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut fused);
            out.push((format!("{gname}/gat_fused/d{d}"), bits(&fused.finalize())));

            let mut two = OnlineAttnState::new(n, heads, d);
            gat_twostep_block_forward(&g, &s_dst, &s_src, &x, 0.2, &mut two);
            out.push((format!("{gname}/gat_twostep/d{d}"), bits(&two.finalize())));
        }
    }
    // Odd matmul dims leave ragged tails in all three layouts.
    let (m, k, nn) = (13usize, 27, 9);
    let mut rng = StdRng::seed_from_u64(3);
    let a = randn(&[m, k], 1.0, &mut rng);
    let b = randn(&[k, nn], 1.0, &mut rng);
    let a_t = randn(&[k, m], 1.0, &mut rng);
    let b_nt = randn(&[nn, k], 1.0, &mut rng);
    out.push(("matmul".into(), bits(&a.matmul(&b))));
    out.push(("matmul_tn".into(), bits(&a_t.matmul_tn(&b))));
    out.push(("matmul_nt".into(), bits(&a.matmul_nt(&b_nt))));
    out
}

/// Identical bits with the vector paths forced off and on. One function
/// because `SimdMode` is process-global.
#[test]
fn simd_and_scalar_paths_agree_bitwise() {
    set_mode(SimdMode::ForceScalar);
    let scalar = run_all_kernels();
    set_mode(SimdMode::Auto);
    let auto = run_all_kernels();
    assert_eq!(scalar.len(), auto.len());
    for ((name_s, bits_s), (name_a, bits_a)) in scalar.iter().zip(auto.iter()) {
        assert_eq!(name_s, name_a);
        assert_eq!(bits_s, bits_a, "SIMD/scalar divergence in {name_s}");
    }
}
