//! Bitwise identities the unified kernel bodies rest on (DESIGN.md §18),
//! checked here against code that shares none of the bodies' structure:
//!
//! * a kernel reading its operand through a row map equals the plain
//!   kernel on `x.gather_rows(map)` — for the three `*_indexed` kernels
//!   the benchmark pins, with maps that permute, repeat and skip rows;
//! * `spmm_sum_backward` equals `spmm_sum` over [`CsrGraph::reverse`], a
//!   transpose built by `from_edges_bipartite` rather than by the reverse
//!   index the backward walk runs on.
//!
//! All comparisons are by `f32::to_bits`, at 1 and 4 pool threads, on
//! blocks with isolated rows and isolated columns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_graph::fused::{self, FusedBlockGrads, OnlineAttnState};
use sar_graph::{ops, CsrGraph};
use sar_tensor::{init, pool, Tensor};

const ROWS: usize = 61;
const COLS: usize = 45;
/// Rows of the resident tensor the maps select from.
const RESIDENT: usize = COLS + 6;

/// A bipartite block whose rows 0 and 1 receive no edge and whose last
/// column sends none.
fn block(seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..400)
        .map(|_| {
            (
                rng.random_range(0..COLS - 1) as u32,
                rng.random_range(2..ROWS) as u32,
            )
        })
        .collect();
    let g = CsrGraph::from_edges_bipartite(COLS, ROWS, &edges);
    assert!(g.is_isolated_row(0) && g.is_isolated_row(1));
    assert!(g.indices().iter().all(|&j| (j as usize) < COLS - 1));
    g
}

/// One entry per block column into a `RESIDENT`-row tensor: descending
/// (a permutation of the rows it touches), with column 1 repeating column
/// 0's row, so that row `RESIDENT - 2` and the first six rows are skipped.
fn row_map() -> Vec<u32> {
    let mut map: Vec<u32> = (0..COLS).map(|j| (RESIDENT - 1 - j) as u32).collect();
    map[1] = map[0];
    map
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` at 1 and at 4 pool threads.
fn at_thread_counts(f: impl Fn(usize)) {
    for threads in [1, 4] {
        pool::set_threads(threads);
        f(threads);
        pool::set_threads(1);
    }
}

#[test]
fn spmm_sum_through_a_map_equals_gather_then_spmm() {
    let g = block(1);
    let map = row_map();
    for f in [7usize, 13, 32] {
        let x = init::randn(&[RESIDENT, f], 1.0, &mut StdRng::seed_from_u64(f as u64));
        let gathered = x.gather_rows(&map);
        at_thread_counts(|threads| {
            // Non-zero accumulators: the kernels add into what is there.
            let mut indexed = Tensor::ones(&[ROWS, f]);
            let mut plain = Tensor::ones(&[ROWS, f]);
            ops::spmm_sum_into_indexed(&g, &x, &map, &mut indexed);
            ops::spmm_sum_into(&g, &gathered, &mut plain);
            assert_eq!(bits(&indexed), bits(&plain), "f={f} threads={threads}");
        });
    }
}

/// Forward and backward of the fused attention kernels over one block,
/// reading `x` through `map` when given. Returns every output.
fn attention_round_trip(
    g: &CsrGraph,
    (s_dst, s_src): (&Tensor, &Tensor),
    x: &Tensor,
    map: Option<&[u32]>,
    grad_out: &Tensor,
    (heads, d): (usize, usize),
) -> Vec<Tensor> {
    let mut state = OnlineAttnState::new(ROWS, heads, d);
    match map {
        Some(m) => fused::gat_fused_block_forward_indexed(g, s_dst, s_src, x, m, 0.2, &mut state),
        None => fused::gat_fused_block_forward(g, s_dst, s_src, x, 0.2, &mut state),
    }
    let (out, max, den) = state.finalize_into();
    let dot = fused::attn_grad_dot(grad_out, &out, heads);
    let mut d_s_dst = Tensor::zeros(&[ROWS, heads]);
    let dsd = &mut d_s_dst;
    let FusedBlockGrads { d_x_src, d_s_src } = match map {
        Some(m) => fused::gat_fused_block_backward_indexed(
            g, s_dst, s_src, x, m, 0.2, &max, &den, grad_out, &dot, dsd,
        ),
        None => fused::gat_fused_block_backward(
            g, s_dst, s_src, x, 0.2, &max, &den, grad_out, &dot, dsd,
        ),
    };
    vec![out, max, den, d_s_dst, d_x_src, d_s_src]
}

#[test]
fn attention_through_a_map_equals_gather_then_attention() {
    let g = block(2);
    let map = row_map();
    for (heads, d) in [(1usize, 7usize), (1, 13), (4, 8)] {
        let hd = heads * d;
        let mut rng = StdRng::seed_from_u64(100 + hd as u64);
        let x = init::randn(&[RESIDENT, hd], 1.0, &mut rng);
        let logits = (
            &init::randn(&[ROWS, heads], 1.0, &mut rng),
            &init::randn(&[COLS, heads], 1.0, &mut rng),
        );
        let grad_out = init::randn(&[ROWS, hd], 1.0, &mut rng);
        let gathered = x.gather_rows(&map);
        at_thread_counts(|threads| {
            let shape = (heads, d);
            let indexed = attention_round_trip(&g, logits, &x, Some(&map), &grad_out, shape);
            let plain = attention_round_trip(&g, logits, &gathered, None, &grad_out, shape);
            for (k, (a, b)) in indexed.iter().zip(&plain).enumerate() {
                assert_eq!(bits(a), bits(b), "hd={hd} threads={threads} output {k}");
            }
        });
    }
}

#[test]
fn spmm_sum_backward_is_the_forward_over_the_reversed_graph() {
    let mut rng = StdRng::seed_from_u64(3);
    let square = sar_graph::generators::erdos_renyi(128, 1024, &mut rng).symmetrize();
    for g in [block(4), square] {
        let reversed = g.reverse();
        for f in [7usize, 13, 32] {
            let grad = init::randn(
                &[g.num_rows(), f],
                1.0,
                &mut StdRng::seed_from_u64(f as u64),
            );
            at_thread_counts(|threads| {
                assert_eq!(
                    bits(&ops::spmm_sum_backward(&g, &grad)),
                    bits(&ops::spmm_sum(&reversed, &grad)),
                    "rows={} f={f} threads={threads}",
                    g.num_rows()
                );
            });
        }
    }
}
