//! Tests of the extension features beyond the paper's two models: the GCN
//! architecture (another case-1 aggregation), checkpointed inference and
//! a spatially-parallel 1-D convolution.

use sar_comm::CostModel;
use sar_core::{train, Arch, Mode, ModelConfig, TrainConfig};
use sar_graph::datasets;
use sar_nn::LrSchedule;
use sar_partition::multilevel;

fn cfg(arch: Arch, mode: Mode, classes: usize) -> TrainConfig {
    TrainConfig {
        model: ModelConfig {
            arch,
            mode,
            layers: 2,
            in_dim: 0,
            num_classes: classes,
            dropout: 0.0,
            batch_norm: true,
            seed: 0,
        },
        epochs: 6,
        lr: 0.02,
        schedule: LrSchedule::Constant,
        label_aug: false,
        aug_frac: 0.0,
        cs: None,
        prefetch_depth: 0,
        seed: 0,
        threads: 1,
        protocol: Default::default(),
    }
}

#[test]
fn gcn_trains_and_is_exact_across_worker_counts() {
    let d = datasets::products_like(350, 0);
    let c = cfg(Arch::Gcn { hidden: 16 }, Mode::Sar, d.num_classes);
    let single = train(&d, &multilevel(&d.graph, 1, 0), CostModel::default(), &c);
    let multi = train(&d, &multilevel(&d.graph, 4, 0), CostModel::default(), &c);
    assert_eq!(multi.logits.shape(), &[350, d.num_classes]);
    for (e, (a, b)) in single.losses.iter().zip(&multi.losses).enumerate() {
        assert!(
            (a - b).abs() < 3e-3 * (1.0 + a.abs()),
            "epoch {e}: GCN loss {a} vs {b}"
        );
    }
    assert!(
        single.losses.last().unwrap() < &single.losses[0],
        "GCN must learn"
    );
}

#[test]
fn gcn_modes_agree() {
    let d = datasets::products_like(300, 1);
    let p = multilevel(&d.graph, 3, 1);
    let dp = train(
        &d,
        &p,
        CostModel::default(),
        &cfg(
            Arch::Gcn { hidden: 12 },
            Mode::DomainParallel,
            d.num_classes,
        ),
    );
    let sar = train(
        &d,
        &p,
        CostModel::default(),
        &cfg(Arch::Gcn { hidden: 12 }, Mode::Sar, d.num_classes),
    );
    assert!(
        dp.logits.allclose(&sar.logits, 5e-2),
        "GCN domain-parallel and SAR diverged"
    );
}

#[test]
fn checkpoint_then_infer_reproduces_training_logits() {
    use sar_core::{checkpoint, inference};
    let d = datasets::products_like(300, 7);
    let part = multilevel(&d.graph, 3, 7);
    let mut c = cfg(Arch::GraphSage { hidden: 12 }, Mode::Sar, d.num_classes);
    c.label_aug = true;
    c.aug_frac = 0.5;
    let run = train(&d, &part, CostModel::default(), &c);

    // Round-trip the trained parameters through the binary checkpoint.
    let mut buf = Vec::new();
    checkpoint::save_raw_params(&run.final_params, &mut buf).unwrap();
    let model_cfg = {
        let mut m = c.model.clone();
        m.in_dim = d.feat_dim() + d.num_classes;
        m
    };
    let model = sar_core::DistModel::new(&model_cfg);
    checkpoint::load_params(&model.params(), &buf[..]).unwrap();
    let restored: Vec<(Vec<usize>, Vec<f32>)> = model
        .params()
        .iter()
        .map(|p| (p.shape(), p.value().data().to_vec()))
        .collect();

    // Inference with restored params — on a *different* partitioning —
    // must reproduce the training-time evaluation logits.
    let other_part = multilevel(&d.graph, 2, 99);
    let logits = inference::infer(
        &d,
        &other_part,
        CostModel::default(),
        &c.model,
        &restored,
        true,
    );
    assert!(
        logits.allclose(&run.logits, 1e-3),
        "restored inference diverged from training-time logits"
    );
}

#[test]
fn spatial_conv1d_matches_single_machine_reference() {
    // The conclusion's generality claim: SAR drives a spatially-parallel
    // 1-D convolution. Compare against a dense single-machine reference,
    // forward and backward, on 3 workers with contiguous strips.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sar_comm::Cluster;
    use sar_core::spatial::{build_conv1d_graphs, shift_graph, DistConv1d};
    use sar_core::{View, Worker};
    use sar_graph::ops;
    use sar_partition::{range, Partitioning};
    use sar_tensor::{init, Tensor, Var};
    use std::sync::Arc;

    let len = 30usize;
    let (cin, cout, radius) = (3usize, 2usize, 1usize);
    let x = init::randn(&[len, cin], 1.0, &mut StdRng::seed_from_u64(0));
    let grad_out = init::randn(&[len, cout], 1.0, &mut StdRng::seed_from_u64(1));

    // Single-machine reference via shift graphs on the full domain.
    let conv_ref = DistConv1d::new(cin, cout, radius, &mut StdRng::seed_from_u64(42));
    let weights: Vec<Tensor> = conv_ref.params().iter().map(|p| p.value_clone()).collect();
    let mut expect = Tensor::zeros(&[len, cout]);
    for (t, k) in (-(radius as isize)..=radius as isize).enumerate() {
        let g = shift_graph(len, k);
        // params() order: [w0, w1, b1, w2] (only the center tap has bias).
        let w_idx = match t {
            0 => 0,
            1 => 1,
            _ => t + 1,
        };
        let z = x.matmul(&weights[w_idx]);
        expect.add_assign(&ops::spmm_sum(&g, &z));
    }
    // Center bias.
    let bias = &weights[2];
    expect = expect.add_row_broadcast(bias);

    // Distributed: contiguous strips over 3 workers.
    let dummy = shift_graph(len, 0);
    let part: Partitioning = range(&dummy, 3);
    let graphs = Arc::new(build_conv1d_graphs(len, radius, &part));
    let xs = Arc::new(x.data().to_vec());
    let gos = Arc::new(grad_out.data().to_vec());
    let members = Arc::new(part.part_members());

    let outcomes = Cluster::new(3, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let ids = members[rank].clone();
        // One worker (it holds the center tap's graph), 2r+1 views.
        let w = Worker::new(ctx, Arc::clone(&graphs[radius][rank]));
        let views: Vec<View> = graphs
            .iter()
            .map(|per_rank| -> View { per_rank[rank].clone() })
            .collect();
        let conv = DistConv1d::new(cin, cout, radius, &mut StdRng::seed_from_u64(42));
        let full_x = Tensor::from_vec(&[len, cin], xs.as_ref().clone());
        let full_g = Tensor::from_vec(&[len, cout], gos.as_ref().clone());
        let h = Var::parameter(full_x.gather_rows(&ids));
        let out = conv.forward(&w, &views, &h);
        let value = out.value_clone();
        out.backward_with(&full_g.gather_rows(&ids));
        (ids, value.into_data(), h.grad().unwrap().into_data())
    });

    let mut got = Tensor::zeros(&[len, cout]);
    let mut dx = Tensor::zeros(&[len, cin]);
    for o in &outcomes {
        let (ids, val, g) = &o.result;
        got.scatter_add_rows(ids, &Tensor::from_vec(&[ids.len(), cout], val.clone()));
        dx.scatter_add_rows(ids, &Tensor::from_vec(&[ids.len(), cin], g.clone()));
    }
    assert!(got.allclose(&expect, 1e-4), "spatial conv forward mismatch");

    // Backward reference: dx[j] = Σ_k grad[j - k] W_kᵀ.
    let mut dx_expect = Tensor::zeros(&[len, cin]);
    for (t, k) in (-(radius as isize)..=radius as isize).enumerate() {
        let g = shift_graph(len, k);
        let w_idx = match t {
            0 => 0,
            1 => 1,
            _ => t + 1,
        };
        let pushed = ops::spmm_sum_backward(&g, &grad_out);
        dx_expect.add_assign(&pushed.matmul_nt(&weights[w_idx]));
    }
    assert!(
        dx.allclose(&dx_expect, 1e-4),
        "spatial conv backward mismatch"
    );
}
