//! The workspace has one JSON module (`sar::bench::json`); every
//! committed artifact and both gate families read through it.

use sar::bench::cli::GatedBench;
use sar::bench::json::{self, Value};
use sar::bench::kernelbench::{BenchReport, KernelResult};
use sar_check::{reportio, PassReport, Report};

const ARTIFACTS: [(&str, usize); 5] = [
    ("BENCH_compress.json", 2),
    ("BENCH_kernels.json", 2),
    ("BENCH_outofcore.json", 2),
    ("BENCH_serve.json", 2),
    ("PROOF_sarcheck.json", 4),
];

#[test]
fn committed_artifacts_round_trip_through_the_one_json_module() {
    for (name, break_depth) in ARTIFACTS {
        let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(matches!(doc, Value::Obj(_)), "{name} is not an object");
        for layout in [0, break_depth] {
            let again = json::parse(&doc.pretty(layout)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(again, doc, "{name} changed value at layout {layout}");
        }
    }
}

fn proof_report() -> Report {
    let mut pass = PassReport::new("lint");
    pass.bump("files_scanned", 1);
    Report { passes: vec![pass] }
}

fn kernel_report() -> BenchReport {
    BenchReport {
        simd: "scalar".into(),
        threads: 1,
        peak_gflops: 1.0,
        stream_gbs: 1.0,
        kernels: vec![KernelResult {
            name: "k".into(),
            iters: 3,
            wall_us: 1.0,
            cpu_us: 1.0,
            gflops: 1.0,
            ai: 1.0,
            roofline_gflops: 1.0,
            roofline_ratio: 1.0,
        }],
    }
}

/// Runs `text` through both gate families' committed-artifact readers:
/// the `sar-check --baseline` path and the `repro <bench> --check` path.
/// Each returns its parse failure, if any.
fn through_both_gates(text: &str) -> [Option<String>; 2] {
    let check = reportio::check_baseline(&proof_report(), text).err();
    let repro = kernel_report()
        .check_against(text)
        .into_iter()
        .find(|v| v.contains("parse error"));
    [check, repro]
}

#[test]
fn both_gate_paths_cap_nesting_instead_of_overflowing_the_stack() {
    for hostile in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        for err in through_both_gates(&hostile) {
            let err = err.expect("hostile nesting must be an error on both paths");
            assert!(err.contains("nesting"), "{err}");
        }
    }
}

#[test]
fn both_gate_paths_accept_every_json_escape() {
    for escape in [
        "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u00e9",
    ] {
        // Valid documents for both gates, each carrying the escape in a
        // string neither gate interprets.
        let proof = format!(
            "{{\"note\": \"x{escape}y\", \"passes\": [{{\"pass\": \"lint\", \
             \"stats\": {{\"files_scanned\": 1}}}}]}}"
        );
        assert_eq!(
            reportio::check_baseline(&proof_report(), &proof),
            Ok(Vec::new()),
            "sar-check baseline path rejected {escape}"
        );
        let bench =
            kernel_report()
                .to_json()
                .replacen('{', &format!("{{\"note\": \"x{escape}y\", "), 1);
        assert_eq!(
            kernel_report().check_against(&bench),
            Vec::<String>::new(),
            "repro --check path rejected {escape}"
        );
    }
    // ... and both reject the same malformed escape.
    for err in through_both_gates("{\"note\": \"\\x\"}") {
        assert!(err.expect("bad escape").contains("unknown escape"));
    }
}
