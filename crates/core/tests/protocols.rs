//! Approximate-exchange protocol contract tests.
//!
//! `--protocol gradonly` and `--protocol stale:<r>` deliberately trade
//! training fidelity for wire volume; these tests pin down exactly what
//! each one skips (per the ledger), that training still completes and
//! converges on finite losses, and that the degenerate settings
//! (`stale:1`, `raw` codec) collapse back to the paper's bitwise-exact
//! behavior.

use sar_comm::{Codec, CostModel, Phase};
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
            jumping_knowledge: false,
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
        codec: Codec::Raw,
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

/// gradonly must move zero fetch-phase and zero error-routing bytes
/// during training — the only cross-worker traffic that remains is the
/// collective parameter all-reduce (and the exact final evaluation).
#[test]
fn gradonly_moves_no_fetch_or_routing_bytes_during_training() {
    let d = dataset();
    let mut cfg = config(Arch::GraphSage { hidden: 16 }, Mode::Sar, &d);
    cfg.protocol = Protocol::GradOnly;
    let report = run(&cfg, &d, 4);
    assert!(report.losses.iter().all(|l| l.is_finite()));

    // The final evaluation runs the exact protocol, so the ledger's only
    // fetch-phase bytes come from that single forward pass; routing and
    // refetch never happen at all (no backward pass at eval).
    assert_eq!(
        phase_sent(&report, Phase::GradRouting),
        0,
        "gradonly must never route error blocks"
    );
    assert_eq!(
        phase_sent(&report, Phase::BackwardRefetch),
        0,
        "gradonly must never refetch"
    );
    // ForwardFetch bytes come only from the single exact eval pass: one
    // forward's worth, strictly less than an exact run of 4 epochs + eval.
    let exact = run(
        &config(Arch::GraphSage { hidden: 16 }, Mode::Sar, &d),
        &d,
        4,
    );
    let exact_fetch = phase_sent(&exact, Phase::ForwardFetch);
    let gradonly_fetch = phase_sent(&report, Phase::ForwardFetch);
    assert!(
        gradonly_fetch * 4 < exact_fetch,
        "gradonly fetch bytes ({gradonly_fetch}) must be a small fraction of \
         exact ({exact_fetch})"
    );
}

/// stale:2 fetches on epochs 0 and 2 only — fetch-phase traffic must be
/// roughly half the exact protocol's, and training must still converge
/// on finite losses.
#[test]
fn stale_halves_fetch_traffic() {
    let d = dataset();
    let exact = run(
        &config(Arch::GraphSage { hidden: 16 }, Mode::Sar, &d),
        &d,
        4,
    );
    let mut cfg = config(Arch::GraphSage { hidden: 16 }, Mode::Sar, &d);
    cfg.protocol = Protocol::parse("stale:2").unwrap();
    let stale = run(&cfg, &d, 4);
    assert!(stale.losses.iter().all(|l| l.is_finite()));
    let exact_fetch = phase_sent(&exact, Phase::ForwardFetch);
    let stale_fetch = phase_sent(&stale, Phase::ForwardFetch);
    // 4 epochs + 1 eval pass of fetches, vs 2 refresh epochs + 1 eval.
    assert!(
        stale_fetch < exact_fetch * 3 / 4,
        "stale:2 fetch bytes ({stale_fetch}) must undercut exact ({exact_fetch})"
    );
    // Error routing stays exact every epoch.
    assert_eq!(
        phase_sent(&stale, Phase::GradRouting),
        phase_sent(&exact, Phase::GradRouting),
        "staleness must not touch gradient routing"
    );
}

/// The GAT backward pass hand-rolls its gradient routing loop (case 2 of
/// Algorithm 2); under gradonly its receive set must collapse to the
/// local rank — this test deadlocks (and times out) if any worker waits
/// on a peer's never-sent block.
#[test]
fn gat_gradonly_completes_without_deadlock() {
    let d = dataset();
    let mut cfg = config(
        Arch::Gat {
            head_dim: 8,
            heads: 2,
        },
        Mode::SarFused,
        &d,
    );
    cfg.epochs = 2;
    let exact = run(&cfg, &d, 4);
    cfg.protocol = Protocol::GradOnly;
    let report = run(&cfg, &d, 4);
    assert!(report.losses.iter().all(|l| l.is_finite()));
    assert_eq!(phase_sent(&report, Phase::BackwardRefetch), 0);
    // The gradient router accumulates the local error block without a
    // message, so gradonly — whose refetch consumes only the local block —
    // routes nothing at all.
    let exact_routing = phase_sent(&exact, Phase::GradRouting);
    let gradonly_routing = phase_sent(&report, Phase::GradRouting);
    assert!(
        gradonly_routing * 2 < exact_routing,
        "gradonly routing ({gradonly_routing}) must collapse (exact: {exact_routing})"
    );
}

/// GAT under stale:2: the backward refetch replays the cached blocks too
/// (zero refetch traffic on stale epochs), while routing stays exact.
#[test]
fn gat_stale_skips_refetch_on_stale_epochs() {
    let d = dataset();
    let mut cfg = config(
        Arch::Gat {
            head_dim: 8,
            heads: 2,
        },
        Mode::SarFused,
        &d,
    );
    cfg.epochs = 4;
    let exact = run(&cfg, &d, 4);
    cfg.protocol = Protocol::parse("stale:2").unwrap();
    let stale = run(&cfg, &d, 4);
    assert!(stale.losses.iter().all(|l| l.is_finite()));
    assert!(
        phase_sent(&stale, Phase::BackwardRefetch) < phase_sent(&exact, Phase::BackwardRefetch),
        "stale epochs must not refetch"
    );
    assert_eq!(
        phase_sent(&stale, Phase::GradRouting),
        phase_sent(&exact, Phase::GradRouting)
    );
}

/// A lossy training codec halves fetch-phase *wire* bytes while the
/// logical ledger (and thus the parity digest's byte accounting) stays
/// at raw-f32 volume.
#[test]
fn f16_codec_halves_wire_bytes_in_training() {
    let d = dataset();
    let mut cfg = config(Arch::GraphSage { hidden: 16 }, Mode::Sar, &d);
    cfg.codec = Codec::F16;
    let report = run(&cfg, &d, 4);
    assert!(report.losses.iter().all(|l| l.is_finite()));
    for (_, comm) in &report.ranks {
        let fetch = comm.ledger.phase_total(Phase::ForwardFetch);
        assert!(
            fetch.wire_sent_bytes < fetch.sent_bytes,
            "wire bytes ({}) must undercut logical bytes ({})",
            fetch.wire_sent_bytes,
            fetch.sent_bytes
        );
        // Payload-only reduction ≈ 2× for f16: logical payload = 4n,
        // wire payload = 4-byte element count + 2n.
        let logical_payload = fetch.sent_bytes - 32 * fetch.sent_messages;
        let wire_payload = fetch.wire_sent_bytes - 32 * fetch.sent_messages;
        assert!(
            (logical_payload as f64) / (wire_payload as f64) > 1.9,
            "f16 payload reduction must approach 2x ({logical_payload} vs {wire_payload})"
        );
    }
}
