//! The layer tail's three tape nodes — `DistBatchNorm`, the Sage/GCN
//! epilogue and `cross_entropy_masked` — against the compositions of
//! `Var` primitives they replaced, rebuilt here as the oracle. Forward
//! values and every gradient the composition produced are compared by
//! `to_bits()` at world 1 and 2 on the sim cluster, 1 and 2 kernel
//! threads and widths 7, 13 and 64, on inputs with a zero-variance column,
//! pre-activations of exactly +0.0 and −0.0, a NaN row, an empty and a
//! full local mask and a label in the last class. `sar_nn::BatchNorm1d` is
//! the independent reference for batch norm at world 1.

use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_comm::{Cluster, CostModel};
use sar_core::{DistBatchNorm, DistGraph, Worker};
use sar_graph::CsrGraph;
use sar_nn::loss::cross_entropy_masked;
use sar_nn::tail::epilogue;
use sar_nn::BatchNorm1d;
use sar_partition::range;
use sar_tensor::{init, pool, Function, Tensor, Var};

/// Rows over all ranks.
const ROWS: usize = 37;
const EPS: f32 = 1e-5;

// ----------------------------------------------------------------------
// The compositions the nodes replaced
// ----------------------------------------------------------------------

/// `x̂` of the three-node batch norm (`x̂ → mul_row(γ) → add_bias(β)`).
struct OracleBnFn {
    parents: Vec<Var>,
    w: Rc<Worker>,
    inv_std: Tensor,
    n_global: f32,
}

impl Function for OracleBnFn {
    fn parents(&self) -> &[Var] {
        &self.parents
    }

    fn backward(&self, grad_output: &Tensor, output: &Tensor) -> Vec<Option<Tensor>> {
        let f = grad_output.cols();
        let mut buf = Vec::with_capacity(2 * f);
        buf.extend_from_slice(grad_output.sum_axis0().data());
        buf.extend_from_slice(grad_output.mul(output).sum_axis0().data());
        self.w.ctx.all_reduce_sum(&mut buf);
        let mean_g = Tensor::from_vec(&[f], buf[..f].to_vec()).scale(1.0 / self.n_global);
        let mean_gy = Tensor::from_vec(&[f], buf[f..].to_vec()).scale(1.0 / self.n_global);
        let centered = grad_output
            .add_row_broadcast(&mean_g.scale(-1.0))
            .sub(&output.mul_row_broadcast(&mean_gy));
        vec![Some(centered.mul_row_broadcast(&self.inv_std))]
    }
}

fn oracle_bn(w: &Rc<Worker>, x: &Var, gamma: &Var, beta: &Var) -> Var {
    let f = x.value().cols();
    let mut buf = Vec::with_capacity(2 * f + 1);
    {
        let xv = x.value();
        buf.extend_from_slice(xv.sum_axis0().data());
        buf.extend_from_slice(xv.mul(&xv).sum_axis0().data());
        buf.push(xv.rows() as f32);
    }
    w.ctx.all_reduce_sum(&mut buf);
    let n_global = buf[2 * f].max(1.0);
    let mean = Tensor::from_vec(&[f], buf[..f].to_vec()).scale(1.0 / n_global);
    let sq_mean = Tensor::from_vec(&[f], buf[f..2 * f].to_vec()).scale(1.0 / n_global);
    let var = sq_mean.zip_map(&mean, |sq, m| (sq - m * m).max(0.0));
    let inv_std = var.map(|v| 1.0 / (v + EPS).sqrt());
    let value = x
        .value()
        .add_row_broadcast(&mean.scale(-1.0))
        .mul_row_broadcast(&inv_std);
    let x_hat = Var::from_function(
        value,
        OracleBnFn {
            parents: vec![x.clone()],
            w: Rc::clone(w),
            inv_std,
            n_global,
        },
    );
    x_hat.mul_row(gamma).add_bias(beta)
}

/// `mul_col(s) → add(hw.add_bias(b)) → relu`, the tail of the old layers.
fn oracle_epilogue(agg: &Var, s: &Tensor, residual: Option<(&Var, &Var)>, relu: bool) -> Var {
    let mut out = agg.mul_col(&Var::constant(s.clone()));
    if let Some((hw, b)) = residual {
        out = out.add(&hw.add_bias(b));
    }
    if relu {
        out.relu()
    } else {
        out
    }
}

/// `log_softmax_rows → nll_masked` over every row.
fn oracle_loss(logits: &Var, labels: &[u32], mask: &[bool], norm: f32) -> Var {
    let lp_value = {
        let x = logits.value();
        let c = x.cols();
        let mut out = x.data().to_vec();
        for row in out.chunks_mut(c) {
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let log_denom = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
            for x in row.iter_mut() {
                *x = *x - max - log_denom;
            }
        }
        Tensor::from_vec(x.shape(), out)
    };
    let a = logits.clone();
    let lp = Var::from_op(lp_value, vec![logits.clone()], "log_softmax", move |g| {
        let s = a.value().softmax_rows();
        let rowsum = g.sum_axis1();
        let mut dx = g.clone();
        let c = s.cols();
        for (i, row) in dx.data_mut().chunks_mut(c).enumerate() {
            let r = rowsum.data()[i];
            for (x, &sv) in row.iter_mut().zip(s.row(i)) {
                *x -= sv * r;
            }
        }
        vec![Some(dx)]
    });
    let (n, c) = (labels.len(), lp.value().cols());
    let mut loss = 0.0f64;
    for i in (0..n).filter(|&i| mask[i]) {
        loss -= lp.value().at(&[i, labels[i] as usize]) as f64;
    }
    let value = Tensor::scalar((loss / norm as f64) as f32);
    let (labels, mask) = (labels.to_vec(), mask.to_vec());
    Var::from_op(value, vec![lp], "nll_masked", move |g| {
        let scale = g.item() / norm;
        let mut dx = Tensor::zeros(&[n, c]);
        for i in (0..n).filter(|&i| mask[i]) {
            dx.row_mut(i)[labels[i] as usize] = -scale;
        }
        vec![Some(dx)]
    })
}

// ----------------------------------------------------------------------
// Inputs and the per-rank comparison
// ----------------------------------------------------------------------

/// Global inputs for one width; every rank reads its own rows.
struct Inputs {
    f: usize,
    /// Batch-norm input: column 0 constant (zero variance), row 2 exact
    /// zeros; with `nan`, row 5 is NaN.
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    /// Epilogue: rows 3 / 4 pre-activate to exactly +0.0 / −0.0 (−0.0 in
    /// the columns where `b` is −0.0), row 2 has scale 0 (an isolated
    /// node); with `nan`, row 6 of `agg` is NaN.
    agg: Tensor,
    scale: Vec<f32>,
    hw: Tensor,
    b: Tensor,
    /// Upstream gradient for both `[ROWS, f]` nodes, of mixed sign.
    grad: Tensor,
    /// Loss: `f` classes, row 1 labelled with the last class; with `nan`,
    /// row 1 (masked) is NaN.
    logits: Tensor,
    labels: Vec<u32>,
    mask: Vec<bool>,
}

impl Inputs {
    fn new(f: usize, nan: bool, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = init::randn(&[ROWS, f], 2.0, &mut rng).add_scalar(1.5);
        for i in 0..ROWS {
            x.row_mut(i)[0] = 2.5;
        }
        x.row_mut(2).fill(0.0);
        let mut agg = init::randn(&[ROWS, f], 1.0, &mut rng);
        let mut hw = init::randn(&[ROWS, f], 1.0, &mut rng);
        let mut b = init::randn(&[f], 1.0, &mut rng);
        b.data_mut()[0] = -0.0;
        b.data_mut()[1] = 0.0;
        agg.row_mut(3).fill(0.0);
        for j in 0..f {
            hw.row_mut(3)[j] = -b.data()[j];
        }
        agg.row_mut(4).fill(-0.0);
        hw.row_mut(4).fill(-0.0);
        let mut scale: Vec<f32> = (0..ROWS).map(|_| rng.random_range(0.05..1.0)).collect();
        scale[2] = 0.0;
        let mut logits = init::randn(&[ROWS, f], 3.0, &mut rng);
        let mut labels: Vec<u32> = (0..ROWS).map(|_| rng.random_range(0..f as u32)).collect();
        let mut mask: Vec<bool> = (0..ROWS).map(|_| rng.random_bool(0.3)).collect();
        labels[1] = f as u32 - 1;
        mask[1] = true;
        if nan {
            x.row_mut(5).fill(f32::NAN);
            agg.row_mut(6).fill(f32::NAN);
            logits.row_mut(1).fill(f32::NAN);
        }
        Inputs {
            f,
            gamma: init::randn(&[f], 1.0, &mut rng),
            beta: init::randn(&[f], 1.0, &mut rng),
            grad: init::randn(&[ROWS, f], 1.0, &mut rng),
            x,
            agg,
            scale,
            hw,
            b,
            logits,
            labels,
            mask,
        }
    }
}

/// `(what, node bits, composition bits)` for one rank.
type Record = Vec<(String, Vec<u32>, Vec<u32>)>;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A variable's gradient bits; empty when it has none.
fn grad_bits(v: &Var) -> Vec<u32> {
    v.grad().as_ref().map_or_else(Vec::new, bits)
}

fn rows_of(t: &Tensor, rows: &Range<usize>) -> Tensor {
    t.slice_rows(rows.clone())
}

fn check_bn(w: &Rc<Worker>, inp: &Inputs, rows: &Range<usize>, out: &mut Record) {
    let (x, g) = (rows_of(&inp.x, rows), rows_of(&inp.grad, rows));
    let bn = DistBatchNorm::new(inp.f);
    let [gamma, beta] = <[Var; 2]>::try_from(bn.params()).unwrap();
    gamma.set_value(inp.gamma.clone());
    beta.set_value(inp.beta.clone());
    let xv = Var::parameter(x.clone());
    let y = bn.forward(w, &xv);
    y.backward_with(&g);
    let (xo, go, bo) = (
        Var::parameter(x),
        Var::parameter(inp.gamma.clone()),
        Var::parameter(inp.beta.clone()),
    );
    let yo = oracle_bn(w, &xo, &go, &bo);
    yo.backward_with(&g);
    out.push(("bn y".into(), bits(&y.value()), bits(&yo.value())));
    for (what, new, old) in [
        ("bn dx", &xv, &xo),
        ("bn dγ", &gamma, &go),
        ("bn dβ", &beta, &bo),
    ] {
        out.push((what.into(), grad_bits(new), grad_bits(old)));
    }
}

fn check_epilogue(inp: &Inputs, rows: &Range<usize>, out: &mut Record) {
    let s = {
        let s = &inp.scale[rows.clone()];
        Tensor::from_vec(&[s.len()], s.to_vec())
    };
    let g = rows_of(&inp.grad, rows);
    for residual in [true, false] {
        for relu in [true, false] {
            let tag = format!("epilogue residual={residual} relu={relu}");
            let leaves = || {
                (
                    Var::parameter(rows_of(&inp.agg, rows)),
                    Var::parameter(rows_of(&inp.hw, rows)),
                    Var::parameter(inp.b.clone()),
                )
            };
            let ((a, hw, b), (ao, hwo, bo)) = (leaves(), leaves());
            let y = epilogue(&a, s.clone(), residual.then_some((&hw, &b)), relu);
            let yo = oracle_epilogue(&ao, &s, residual.then_some((&hwo, &bo)), relu);
            y.backward_with(&g);
            yo.backward_with(&g);
            out.push((format!("{tag} out"), bits(&y.value()), bits(&yo.value())));
            for (what, new, old) in [("d_agg", &a, &ao), ("d_hw", &hw, &hwo), ("db", &b, &bo)] {
                out.push((format!("{tag} {what}"), grad_bits(new), grad_bits(old)));
            }
        }
    }
}

fn check_loss(inp: &Inputs, rows: &Range<usize>, out: &mut Record) {
    let logits = rows_of(&inp.logits, rows);
    let labels = &inp.labels[rows.clone()];
    let masks = [
        ("mask", inp.mask[rows.clone()].to_vec()),
        ("empty mask", vec![false; rows.len()]),
        ("full mask", vec![true; rows.len()]),
    ];
    for (what, mask) in masks {
        let norm = inp.mask.iter().filter(|&&m| m).count() as f32;
        let (x, xo) = (
            Var::parameter(logits.clone()),
            Var::parameter(logits.clone()),
        );
        let loss = cross_entropy_masked(&x, labels, &mask, Some(norm));
        let lo = oracle_loss(&xo, labels, &mask, norm);
        loss.backward();
        lo.backward();
        out.push((
            format!("{what} loss"),
            bits(&loss.value()),
            bits(&lo.value()),
        ));
        // Off the mask the node writes +0.0 where the composition's
        // `0 − softmax·0` is NaN on a non-finite row (the last test below).
        let finite_off_mask =
            (0..rows.len()).all(|i| mask[i] || logits.row(i).iter().all(|v| v.is_finite()));
        if finite_off_mask {
            out.push((format!("{what} d_logits"), grad_bits(&x), grad_bits(&xo)));
        }
    }
}

/// Runs `body(worker, own rows)` on every rank of a `world`-rank sim
/// cluster whose kernels use `threads` threads; rows split into ranges.
fn on_cluster<T: Send + 'static>(
    world: usize,
    threads: usize,
    body: impl Fn(&Rc<Worker>, Range<usize>) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let self_loops: Vec<(u32, u32)> = (0..ROWS as u32).map(|i| (i, i)).collect();
    let g = CsrGraph::from_edges(ROWS, &self_loops);
    let graphs: Vec<Arc<DistGraph>> = DistGraph::build_all(&g, &range(&g, world))
        .into_iter()
        .map(Arc::new)
        .collect();
    Cluster::new(world, CostModel::default())
        .run(move |ctx| {
            pool::set_threads(threads);
            let graph = Arc::clone(&graphs[ctx.rank()]);
            let ids = graph.local_nodes();
            let rows = ids[0] as usize..ids[ids.len() - 1] as usize + 1;
            let w = Worker::new(ctx, graph);
            let out = body(&w, rows);
            pool::set_threads(1);
            out
        })
        .into_iter()
        .map(|o| o.result)
        .collect()
}

#[test]
fn every_node_is_bitwise_its_composition() {
    for world in [1usize, 2] {
        for threads in [1usize, 2] {
            for f in [7usize, 13, 64] {
                for nan in [false, true] {
                    let records = on_cluster(world, threads, move |w, rows| {
                        // Seeded: every rank builds the same global inputs.
                        let inp = Inputs::new(f, nan, 7 * f as u64 + nan as u64);
                        let mut out = Record::new();
                        check_bn(w, &inp, &rows, &mut out);
                        check_epilogue(&inp, &rows, &mut out);
                        check_loss(&inp, &rows, &mut out);
                        out
                    });
                    for (rank, record) in records.into_iter().enumerate() {
                        for (what, new, old) in record {
                            let first = new.iter().zip(&old).position(|(a, b)| a != b);
                            assert!(
                                new == old,
                                "{what}: node differs from the composition at {first:?}: {:x?} vs {:x?} \
                                 (world {world}, rank {rank}, threads {threads}, f {f}, nan {nan})",
                                first.map(|k| new[k]), first.map(|k| old[k])
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn batch_norm_matches_the_single_machine_layer() {
    let inp = Inputs::new(13, false, 3);
    let mut reference = BatchNorm1d::new(inp.f);
    let [gamma, beta] = <[Var; 2]>::try_from(reference.params()).unwrap();
    gamma.set_value(inp.gamma.clone());
    beta.set_value(inp.beta.clone());
    let x = Var::parameter(inp.x.clone());
    let y = reference.forward(&x, true);
    y.backward_with(&inp.grad);
    let expect = [
        y.value_clone(),
        x.grad().unwrap(),
        gamma.grad().unwrap(),
        beta.grad().unwrap(),
    ];
    let got = on_cluster(1, 1, move |w, _| {
        let inp = Inputs::new(13, false, 3);
        let bn = DistBatchNorm::new(inp.f);
        let [gamma, beta] = <[Var; 2]>::try_from(bn.params()).unwrap();
        gamma.set_value(inp.gamma.clone());
        beta.set_value(inp.beta.clone());
        let x = Var::parameter(inp.x.clone());
        let y = bn.forward(w, &x);
        y.backward_with(&inp.grad);
        [
            y.value_clone(),
            x.grad().unwrap(),
            gamma.grad().unwrap(),
            beta.grad().unwrap(),
        ]
        .map(Tensor::into_data)
    })
    .remove(0);
    for ((what, e), g) in ["y", "dx", "dγ", "dβ"].iter().zip(&expect).zip(got) {
        let g = Tensor::from_vec(e.shape(), g);
        assert!(g.allclose(e, 1e-5), "{what}: {g} vs {e}");
    }
}

#[test]
fn an_unmasked_row_takes_a_zero_gradient_whatever_its_logits() {
    // The composition's `0 − softmax·0` is NaN on a non-finite row; the
    // node never reads the row, so its gradient there is the exact +0.0.
    let mut logits = init::randn(&[4, 5], 1.0, &mut StdRng::seed_from_u64(9));
    logits.row_mut(2).fill(f32::NAN);
    logits.row_mut(3)[0] = f32::INFINITY;
    let x = Var::parameter(logits);
    let loss = cross_entropy_masked(&x, &[1, 4, 0, 2], &[true, true, false, false], None);
    assert!(loss.value().item().is_finite());
    loss.backward();
    let g = x.grad().unwrap();
    for i in 2..4 {
        assert!(
            g.row(i).iter().all(|v| v.to_bits() == 0),
            "row {i}: {:?}",
            g.row(i)
        );
    }
}
