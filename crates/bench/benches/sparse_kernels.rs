//! Microbenchmarks of the sparse message-passing kernels (the DGL
//! substitute): SpMM, the row gather under it, edge softmax and
//! multi-head weighted aggregation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_graph::{datasets, ops};
use sar_tensor::{init, simd};
use std::hint::black_box;

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm");
    group.sample_size(10);
    let d = datasets::products_like(5_000, 0);
    for &f in &[64usize, 256] {
        let mut rng = StdRng::seed_from_u64(0);
        let x = init::randn(&[5_000, f], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("sum", f), &f, |bench, _| {
            bench.iter(|| black_box(ops::spmm_sum(&d.graph, &x)))
        });
        group.bench_with_input(BenchmarkId::new("backward", f), &f, |bench, _| {
            bench.iter(|| black_box(ops::spmm_sum_backward(&d.graph, &x)))
        });
        // `sum` without the walker or the pool: the primitive alone.
        let mut acc = vec![0.0f32; 5_000 * f];
        group.bench_with_input(BenchmarkId::new("gather_sum", f), &f, |bench, _| {
            bench.iter(|| {
                for (i, row) in acc.chunks_exact_mut(f).enumerate() {
                    simd::gather_sum(row, x.data(), d.graph.neighbors(i));
                }
                black_box(acc[0])
            })
        });
    }
    group.finish();
}

fn bench_edge_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge_softmax");
    group.sample_size(10);
    let d = datasets::products_like(5_000, 1);
    let e = d.graph.num_edges();
    for &h in &[2usize, 8] {
        let mut rng = StdRng::seed_from_u64(1);
        let scores = init::randn(&[e, h], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("forward", h), &h, |bench, _| {
            bench.iter(|| black_box(ops::edge_softmax(&d.graph, &scores)))
        });
    }
    group.finish();
}

fn bench_spmm_multihead(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm_multihead");
    group.sample_size(10);
    let d = datasets::products_like(5_000, 2);
    let e = d.graph.num_edges();
    let heads = 4;
    let hd = heads * 32;
    let mut rng = StdRng::seed_from_u64(2);
    let alpha = init::randn(&[e, heads], 1.0, &mut rng).softmax_rows();
    let x = init::randn(&[5_000, hd], 1.0, &mut rng);
    group.bench_function("4heads_x32", |bench| {
        bench.iter(|| black_box(ops::spmm_multihead(&d.graph, &alpha, &x)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_spmm,
    bench_edge_softmax,
    bench_spmm_multihead
);
criterion_main!(benches);
