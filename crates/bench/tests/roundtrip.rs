//! The two inverses the single run path rests on: workload flags
//! (`Workload::from_args` ∘ `Workload::to_args`) and run reports
//! (`RunReport::from_json` ∘ `RunReport::to_json`). A child process is
//! told its workload through the first and tells its parent the result
//! through the second, so both must be lossless.

use proptest::prelude::*;
use sar_bench::distrun::Workload;
use sar_bench::harness::{run_workload, Transport};
use sar_bench::report::RunReport;
use sar_bench::smoke;

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
            codec: pick(&["raw", "f16", "bf16", "int8", "delta"], names.2 / 3),
            protocol: pick(&["exact", "gradonly", &format!("stale:{stale}")], names.3 / 4),
            mem_budget: knobs.3 / 3,
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
        let rows = || report.workers.iter().flat_map(|w| &w.phases);
        assert!(
            rows().any(|r| r.layer.is_none()),
            "{arch}: no unlayered row"
        );
        assert!(
            rows().any(|r| r.layer.is_some()),
            "{arch}: no per-layer row"
        );
        assert_eq!(report.losses.len(), 2);

        let back = RunReport::from_json(&report.to_json()).expect("own JSON reads back");
        assert_eq!(back.parity_digest(), report.parity_digest(), "{arch}");
        assert_eq!(back.overlap_json(), report.overlap_json(), "{arch}");
        assert_eq!(back.to_json(), report.to_json(), "{arch}");
        let bits = |r: &RunReport| r.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&report), "{arch}");
    }
}
