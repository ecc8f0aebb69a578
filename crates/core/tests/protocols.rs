//! Approximate-exchange protocol contract tests.
//!
//! `--protocol gradonly` and `--protocol stale:<r>` deliberately trade
//! training fidelity for wire volume; these tests pin down exactly what
//! each one skips (per the ledger, in whole passes of the exact
//! protocol), that training still completes on finite losses without
//! collapsing accuracy, and that the degenerate setting (`stale:1`)
//! collapses back to the paper's bitwise-exact behavior.

use sar_comm::{CostModel, Phase};
use sar_core::{train, Arch, Mode, ModelConfig, Protocol, RunReport, TrainConfig};
use sar_graph::{datasets, Dataset};
use sar_nn::LrSchedule;
use sar_partition::multilevel;

fn dataset() -> Dataset {
    datasets::products_like(300, 0)
}

fn config(arch: Arch, mode: Mode, d: &Dataset) -> TrainConfig {
    TrainConfig {
        model: ModelConfig {
            arch,
            mode,
            layers: 2,
            in_dim: 0, // set by the trainer
            num_classes: d.num_classes,
            dropout: 0.0,
            batch_norm: true,
            seed: 7,
        },
        epochs: 4,
        lr: 0.01,
        schedule: LrSchedule::Constant,
        label_aug: true,
        aug_frac: 0.5,
        cs: None,
        prefetch_depth: 0,
        seed: 7,
        threads: 1,
        protocol: Protocol::Exact,
    }
}

fn run(cfg: &TrainConfig, d: &Dataset, world: usize) -> RunReport {
    let part = multilevel(&d.graph, world, 0);
    train(d, &part, CostModel::default(), cfg)
}

fn phase_sent(report: &RunReport, phase: Phase) -> u64 {
    report
        .ranks
        .iter()
        .map(|(_, c)| c.ledger.phase_total(phase).sent_bytes)
        .sum()
}

fn loss_bits(report: &RunReport) -> Vec<u32> {
    report.losses.iter().map(|l| l.to_bits()).collect()
}

/// `stale:1` refreshes every epoch — it must be bitwise identical to the
/// exact protocol, losses and logits alike.
#[test]
fn stale_one_is_bitwise_identical_to_exact() {
    let d = dataset();
    let exact = run(
        &config(Arch::GraphSage { hidden: 16 }, Mode::Sar, &d),
        &d,
        4,
    );
    let mut cfg = config(Arch::GraphSage { hidden: 16 }, Mode::Sar, &d);
    cfg.protocol = Protocol::parse("stale:1").unwrap();
    let stale = run(&cfg, &d, 4);
    assert_eq!(loss_bits(&exact), loss_bits(&stale));
    assert_eq!(exact.logits.data(), stale.logits.data());
    assert_eq!(exact.val_acc, stale.val_acc);
}

/// How far an approximate protocol's validation accuracy may fall below
/// the exact run's. The validation split here is 5 nodes, so the floor
/// allows one node fewer right and only guards against collapse.
/// Accuracies are `f32` ratios, so they are compared in `f32`.
const ACC_FLOOR: f32 = 0.20;

/// The approximate protocols, each with the number of forward passes it
/// fetches remotely out of the exact protocol's 4 epochs + 1 evaluation:
/// gradonly fetches for the exact final evaluation only, `stale:<r>` on
/// every `r`-th epoch and for the evaluation.
const APPROXIMATE: [(&str, u64); 3] = [("gradonly", 1), ("stale:2", 3), ("stale:4", 2)];

/// One run's fetch, refetch and routing volumes, after checking that its
/// losses are finite and its accuracy within [`ACC_FLOOR`] of `exact`'s.
fn volumes(report: &RunReport, exact: &RunReport, protocol: &str) -> [u64; 3] {
    assert!(
        report.losses.iter().all(|l| l.is_finite()),
        "{protocol}: non-finite loss"
    );
    assert!(
        report.val_acc as f32 >= exact.val_acc as f32 - ACC_FLOOR,
        "{protocol}: val accuracy {} fell more than {ACC_FLOOR} below exact {}",
        report.val_acc,
        exact.val_acc
    );
    [
        Phase::ForwardFetch,
        Phase::BackwardRefetch,
        Phase::GradRouting,
    ]
    .map(|p| phase_sent(report, p))
}

/// Runs `cfg` under exact and every approximate protocol, and checks each
/// approximate run's ledger against the exact one: forward fetch in whole
/// passes of `fetch_unit` bytes, backward refetch (GAT only, one pass per
/// epoch) on the refresh epochs alone, and gradient routing either exact
/// (`stale:<r>`) or absent (gradonly).
fn protocols_move_whole_passes(cfg: &TrainConfig, d: &Dataset, fetch_unit: u64) {
    let exact = run(cfg, d, 4);
    let [fetch, refetch, routing] = volumes(&exact, &exact, "exact");
    assert_eq!(
        fetch,
        5 * fetch_unit,
        "exact fetches 4 epochs + 1 evaluation"
    );
    for (protocol, passes) in APPROXIMATE {
        let mut approx = cfg.clone();
        approx.protocol = Protocol::parse(protocol).unwrap();
        let report = run(&approx, d, 4);
        let [a_fetch, a_refetch, a_routing] = volumes(&report, &exact, protocol);
        assert_eq!(a_fetch, passes * fetch_unit, "{protocol} forward fetch");
        let (want_refetch, want_routing) = match approx.protocol {
            Protocol::Stale(r) => (refetch / r.get() as u64, routing),
            _ => (0, 0),
        };
        assert_eq!(a_refetch, want_refetch, "{protocol} backward refetch");
        assert_eq!(a_routing, want_routing, "{protocol} gradient routing");
    }
}

/// GraphSage (case 1) never refetches; its forward fetch is 218 496 B a
/// pass at this size.
#[test]
fn sage_protocols_fetch_whole_forward_passes() {
    let d = dataset();
    let cfg = config(Arch::GraphSage { hidden: 16 }, Mode::Sar, &d);
    protocols_move_whole_passes(&cfg, &d, 218_496);
}

/// GAT (case 2) also refetches in backward, and its hand-rolled gradient
/// routing loop must collapse to the local rank under gradonly — this
/// test deadlocks (and times out) if any worker waits on a peer's
/// never-sent block. Its forward fetch is 380 928 B a pass.
#[test]
fn gat_protocols_fetch_and_refetch_whole_passes() {
    let d = dataset();
    let gat = Arch::Gat {
        head_dim: 8,
        heads: 2,
    };
    let cfg = config(gat, Mode::SarFused, &d);
    protocols_move_whole_passes(&cfg, &d, 380_928);
}
