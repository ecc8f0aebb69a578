//! The two inverses the single run path rests on: workload flags
//! (`Workload::from_args` ∘ `Workload::to_args`) and run reports
//! (`RunReport::from_json` ∘ `RunReport::to_json`). A child process is
//! told its workload through the first and tells its parent the result
//! through the second, so both must be lossless.

use proptest::prelude::*;
use sar_bench::distrun::Workload;
use sar_bench::harness::{run_workload, Transport};
use sar_bench::report::{RankRecord, RunReport};
use sar_bench::smoke;
use sar_comm::buffer::PoolStats;
use sar_comm::{Codec, CommStats, Phase, PhaseEntry};
use sar_core::{EpochRecord, WorkerReport};

fn pick(options: &[&str], i: usize) -> String {
    options[i % options.len()].to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn workload_flags_round_trip(
        sizes in (0usize..100_000, 1usize..512, 1usize..9, 1usize..6),
        names in (0usize..64, 0usize..64, 0usize..64, 0usize..64),
        floats in (0.0f32..1.0, 0.0f32..1.0, 0.0f64..1.0),
        knobs in (0usize..50, 0usize..5, 1usize..9, 0u64..u64::MAX),
        bits in 0u32..8,
        stale in 1u64..9,
    ) {
        let wl = Workload {
            dataset: pick(&["products", "papers"], names.0),
            nodes: sizes.0,
            arch: pick(&["sage", "gcn", "gat"], names.1),
            hidden: sizes.1,
            heads: sizes.2,
            mode: pick(&["sar", "sar-fak", "dp"], names.2),
            layers: sizes.3,
            jk: bits & 1 != 0,
            epochs: knobs.0,
            lr: floats.0,
            dropout: floats.1,
            label_aug: bits & 2 != 0,
            aug_frac: floats.2,
            cs: bits & 4 != 0,
            prefetch_depth: knobs.1,
            partitioner: pick(&["ml", "random", "range", "bfs"], names.3),
            schedule: pick(&["constant", "step"], names.0 / 2),
            seed: knobs.3,
            threads: knobs.2,
            simd: pick(&["auto", "scalar"], names.1 / 3),
            codec: pick(&Codec::ALL.map(Codec::name), names.2 / 3),
            protocol: pick(&["exact", "gradonly", &format!("stale:{stale}")], names.3 / 4),
        };
        prop_assert_eq!(Workload::from_args(wl.to_args()), Ok(wl));
    }
}

#[test]
fn run_reports_round_trip_bit_for_bit_through_json() {
    for arch in smoke::MODELS {
        let mut wl = smoke::workload(arch, 300, 0).expect("smoke workload");
        wl.epochs = 2;
        let report = run_workload(&wl, 3, Transport::Sim, "roundtrip").expect("sim run");
        // The report must carry what the round trip is meant to protect:
        // f32 losses, per-layer rows and `layer: null` rows.
        let rows = || report.run.ranks.iter().flat_map(|(_, c)| c.ledger.rows());
        assert!(
            rows().any(|(_, layer, _)| layer.is_none()),
            "{arch}: no unlayered row"
        );
        assert!(
            rows().any(|(_, layer, _)| layer.is_some()),
            "{arch}: no per-layer row"
        );
        assert_eq!(report.run.losses.len(), 2);

        let back = RunReport::from_json(&report.to_json()).expect("own JSON reads back");
        assert_eq!(back.parity_digest(), report.parity_digest(), "{arch}");
        assert_eq!(back.to_json(), report.to_json(), "{arch}");
        let bits = |r: &RunReport| r.run.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&report), "{arch}");
        assert_eq!(back.run.ranks, report.run.ranks, "{arch}");
    }
}

/// `RunReport::to_json` output for [`golden_report`], byte for byte. Key
/// names and their order are the contract `BENCH_*.json` consumers (and
/// `from_json` in a parent process) read; each `workers` element is also
/// the body a rank ships in the multi-process gather.
const GOLDEN_JSON: &str = r#"{
  "experiment": "golden",
  "arch": "gat",
  "mode": "sar-fak",
  "world": 2,
  "losses": [1.5, 0.25],
  "epoch_times_secs": [0.5, 0.125],
  "val_acc": 0.75,
  "test_acc": 0.5,
  "test_acc_cs": 0.625,
  "buffer_pool": {
    "hits": 1,
    "misses": 2,
    "recycles": 3,
    "recycle_drops": 4
  },
  "workers": [
    {
      "rank": 0,
      "steady_peak_bytes": 4096,
      "steady_peak_site": "sar_gat_aggregate backward",
      "total_sent_bytes": 1000,
      "total_recv_bytes": 900,
      "comm_us": 12.5,
      "sent_bytes": [0, 1000],
      "sent_messages": 3,
      "val_acc": 0.75,
      "test_acc": 0.5,
      "test_acc_cs": 0.625,
      "epochs": [
        {"loss": 1.5, "compute_secs": 0.25, "comm_secs": 0.25, "sent_bytes": 600},
        {"loss": 0.25, "compute_secs": 0.0625, "comm_secs": 0.0625, "sent_bytes": 400}
      ],
      "phases": [
        {"phase": "forward_fetch", "layer": 0, "sent_bytes": 101, "recv_bytes": 102, "wire_sent_bytes": 103, "wire_recv_bytes": 104, "sent_messages": 105, "recv_messages": 106, "comm_us": 107.5, "cpu_us": 108.25, "wall_us": 109.125, "blocked_us": 110.5, "peak_tensor_bytes": 111},
        {"phase": "collective", "layer": null, "sent_bytes": 1, "recv_bytes": 2, "wire_sent_bytes": 3, "wire_recv_bytes": 4, "sent_messages": 5, "recv_messages": 6, "comm_us": 7.5, "cpu_us": 8.25, "wall_us": 9.125, "blocked_us": 10.5, "peak_tensor_bytes": 11}
      ]
    },
    {
      "rank": 1,
      "steady_peak_bytes": 2048,
      "steady_peak_site": "layer 1 forward",
      "total_sent_bytes": 900,
      "total_recv_bytes": 1000,
      "comm_us": 0,
      "sent_bytes": [900, 0],
      "sent_messages": 3,
      "val_acc": 0.75,
      "test_acc": 0.5,
      "test_acc_cs": 0.625,
      "epochs": [
        {"loss": 1.5, "compute_secs": 0.125, "comm_secs": 0.125, "sent_bytes": 500},
        {"loss": 0.25, "compute_secs": 0.03125, "comm_secs": 0.03125, "sent_bytes": 400}
      ],
      "phases": [
        {"phase": "grad_routing", "layer": 1, "sent_bytes": 201, "recv_bytes": 202, "wire_sent_bytes": 203, "wire_recv_bytes": 204, "sent_messages": 205, "recv_messages": 206, "comm_us": 207.5, "cpu_us": 208.25, "wall_us": 209.125, "blocked_us": 210.5, "peak_tensor_bytes": 211}
      ]
    }
  ]
}
"#;

fn golden_report() -> RunReport {
    // Field `i` (1-based, struct order) of a row holds `base + i`, plus a
    // distinct fraction on each float column.
    let row = |b: u64| PhaseEntry {
        sent_bytes: b + 1,
        recv_bytes: b + 2,
        wire_sent_bytes: b + 3,
        wire_recv_bytes: b + 4,
        sent_messages: b + 5,
        recv_messages: b + 6,
        comm_us: (b + 7) as f64 + 0.5,
        cpu_us: (b + 8) as f64 + 0.25,
        wall_us: (b + 9) as f64 + 0.125,
        blocked_us: (b + 10) as f64 + 0.5,
        peak_tensor_bytes: b + 11,
    };
    let epoch = |loss, secs, sent_bytes| EpochRecord {
        loss,
        compute_secs: secs,
        comm_secs: secs,
        sent_bytes,
    };
    let record = |epochs, peak: usize, site: &str, sent_bytes, recv_bytes, comm_us| {
        let report = WorkerReport {
            epochs,
            val_acc: 0.75,
            test_acc: 0.5,
            test_acc_cs: Some(0.625),
            steady_peak_bytes: peak,
            steady_peak_site: site.into(),
            ..WorkerReport::default()
        };
        let comm = CommStats {
            sent_bytes,
            sent_messages: 3,
            recv_bytes,
            comm_us,
            ..CommStats::new(2)
        };
        (report, comm)
    };
    let mut rank0: RankRecord = record(
        vec![epoch(1.5, 0.25, 600), epoch(0.25, 0.0625, 400)],
        4096,
        "sar_gat_aggregate backward",
        vec![0, 1000],
        900,
        12.5,
    );
    *rank0.1.ledger.entry_mut(Phase::ForwardFetch, Some(0)) = row(100);
    *rank0.1.ledger.entry_mut(Phase::Collective, None) = row(0);
    let mut rank1: RankRecord = record(
        vec![epoch(1.5, 0.125, 500), epoch(0.25, 0.03125, 400)],
        2048,
        "layer 1 forward",
        vec![900, 0],
        1000,
        0.0,
    );
    *rank1.1.ledger.entry_mut(Phase::GradRouting, Some(1)) = row(200);
    RunReport {
        experiment: "golden".into(),
        arch: "gat".into(),
        mode: "sar-fak".into(),
        buffer_pool: Some(PoolStats {
            hits: 1,
            misses: 2,
            recycles: 3,
            recycle_drops: 4,
        }),
        run: sar_core::RunReport::from_ranks(vec![rank0, rank1]),
    }
}

#[test]
fn run_report_json_text_is_pinned() {
    let report = golden_report();
    assert_eq!(report.to_json(), GOLDEN_JSON);
    let back = RunReport::from_json(GOLDEN_JSON).expect("golden text reads back");
    assert_eq!(back.run.ranks, report.run.ranks);
}
