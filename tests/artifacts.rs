//! The workspace has one JSON module (`sar::bench::json`); every
//! committed artifact and both gate families read through it, and every
//! committed `BENCH_*.json` satisfies its bench's declaration without
//! running the bench.

use sar::bench::cli::{self, GatedBench};
use sar::bench::compressbench::CompressBench;
use sar::bench::json::{self, obj, Value};
use sar::bench::kernelbench::KernelBench;
use sar::bench::servebench::ServeBench;
use sar_check::{reportio, PassReport, Report};

const ARTIFACTS: [(&str, usize); 4] = [
    ("BENCH_compress.json", 2),
    ("BENCH_kernels.json", 2),
    ("BENCH_serve.json", 2),
    ("PROOF_sarcheck.json", 4),
];

fn read(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_artifacts_round_trip_through_the_one_json_module() {
    for (name, break_depth) in ARTIFACTS {
        let doc = json::parse(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(matches!(doc, Value::Obj(_)), "{name} is not an object");
        for layout in [0, break_depth] {
            let again = json::parse(&doc.pretty(layout)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(again, doc, "{name} changed value at layout {layout}");
        }
    }
}

/// The committed artifact carries `B`'s schema, identity fields, unique
/// record keys and pinned fields and satisfies `B`'s invariants; it gates
/// clean against itself; and a run of any other workload — one identity
/// field changed — does not gate against it.
fn satisfies_its_declaration<B: GatedBench>(name: &str) {
    let text = read(name);
    let doc = cli::parse_committed::<B>(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        cli::validate::<B>("committed", &doc),
        Vec::<String>::new(),
        "{name}"
    );
    assert_eq!(cli::check::<B>(&doc, &text), Vec::<String>::new(), "{name}");
    for field in B::IDENTITY {
        let Value::Obj(mut fields) = doc.clone() else {
            unreachable!("parsed above")
        };
        for (k, v) in &mut fields {
            if k == field {
                *v = "another workload".into();
            }
        }
        let violations = cli::check::<B>(&Value::Obj(fields), &text);
        assert!(
            violations.iter().any(|v| v.contains("different workload")),
            "{name}: changing {field} went unnoticed: {violations:?}"
        );
    }
}

#[test]
fn committed_bench_artifacts_satisfy_their_declarations() {
    satisfies_its_declaration::<CompressBench>("BENCH_compress.json");
    satisfies_its_declaration::<KernelBench>("BENCH_kernels.json");
    satisfies_its_declaration::<ServeBench>("BENCH_serve.json");
}

fn proof_report() -> Report {
    let mut pass = PassReport::new("lint");
    pass.bump("files_scanned", 1);
    Report { passes: vec![pass] }
}

fn kernel_doc() -> Value {
    cli::document::<KernelBench>(vec![
        ("simd", "scalar".into()),
        ("threads", 1usize.into()),
        (
            "calibration",
            obj([("peak_gflops", 1.0.into()), ("stream_gbs", 1.0.into())]),
        ),
        (
            "kernels",
            [obj([
                ("name", "k".into()),
                ("iters", 3usize.into()),
                ("wall_us", 1.0.into()),
                ("cpu_us", 1.0.into()),
                ("gflops", 1.0.into()),
                ("ai_flops_per_byte", 1.0.into()),
                ("roofline_gflops", 1.0.into()),
                ("roofline_ratio", 1.0.into()),
            ])]
            .into_iter()
            .collect(),
        ),
    ])
}

/// Runs `text` through both gate families' committed-artifact readers:
/// the `sar-check --baseline` path and the `repro <bench> --check` path.
/// Each returns its parse failure, if any.
fn through_both_gates(text: &str) -> [Option<String>; 2] {
    let check = reportio::check_baseline(&proof_report(), text).err();
    let repro = cli::check::<KernelBench>(&kernel_doc(), text)
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
            kernel_doc()
                .pretty(2)
                .replacen('{', &format!("{{\"note\": \"x{escape}y\", "), 1);
        assert_eq!(
            cli::check::<KernelBench>(&kernel_doc(), &bench),
            Vec::<String>::new(),
            "repro --check path rejected {escape}"
        );
    }
    // ... and both reject the same malformed escape.
    for err in through_both_gates("{\"note\": \"\\x\"}") {
        assert!(err.expect("bad escape").contains("unknown escape"));
    }
}
