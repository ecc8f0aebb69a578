//! The gate, applied to this workspace itself: all five passes must come
//! back clean on the code as committed, and no proof obligation of the
//! committed `PROOF_sarcheck.json` may have been dropped. `cargo test`
//! therefore enforces the same bar CI's `sar-check` job does.

use std::path::{Path, PathBuf};

use sar_check::ast::{lex, Workspace};
use sar_check::{reportio, PassReport};

fn workspace_root() -> PathBuf {
    // crates/check/../../ = the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn stat(report: &PassReport, key: &str) -> Option<u64> {
    report.stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

#[test]
fn the_workspace_is_clean_and_keeps_every_committed_obligation() {
    let root = workspace_root();
    let report = sar_check::run(&root);
    let findings: Vec<String> = report
        .passes
        .iter()
        .flat_map(|p| &p.findings)
        .map(|f| format!("  {f}"))
        .collect();
    assert!(
        report.clean(),
        "findings in the committed workspace:\n{}",
        findings.join("\n")
    );

    let baseline = std::fs::read_to_string(root.join("PROOF_sarcheck.json"))
        .expect("the committed proof report is readable");
    assert_eq!(
        reportio::check_baseline(&report, &baseline),
        Ok(Vec::new()),
        "proof obligations dropped against PROOF_sarcheck.json"
    );

    let pass = |name: &str| {
        report
            .passes
            .iter()
            .find(|p| p.pass == name)
            .expect("every pass ran")
    };
    // The ratchet only rejects a count that fell; these are exact, so a
    // configuration the sweep counts twice cannot hide one it dropped.
    let protocol = pass("protocol");
    assert_eq!(
        stat(protocol, "configs_verified"),
        Some(56),
        "7 world sizes × 4 depths × 2 case models"
    );
    // The training-protocol extension: gradonly + stale(2) + stale(3)
    // schedules across every (n, k, model) coordinate.
    assert_eq!(
        stat(protocol, "protocol_configs_verified"),
        Some(168),
        "7 world sizes × 4 depths × 2 case models × 3 protocols"
    );
    // Serve tier (ctrl broadcast / MFG build / forward / result gather /
    // drain-then-ack shutdown) and the rendezvous hello → roster exchange.
    assert_eq!(stat(protocol, "serve_configs_verified"), Some(7));
    assert_eq!(stat(protocol, "negotiations_verified"), Some(7));

    // Measurements the ratchet does not cover: a zero here means a root,
    // a waiver or an annotation went missing, not that the code is clean.
    assert!(
        stat(pass("lint"), "waivers_tracked").unwrap_or(0) >= 6,
        "the workspace's audited waivers went missing: {:?}",
        pass("lint").stats
    );
    let taint = pass("taint");
    assert!(
        stat(taint, "taint_roots").unwrap_or(0) >= 100,
        "suspiciously few taint roots: {:?}",
        taint.stats
    );
    assert!(
        stat(taint, "deterministic_annotations").unwrap_or(0) >= 15,
        "reviewed-determinism annotations went missing: {:?}",
        taint.stats
    );
}

#[test]
fn blanked_code_keeps_every_scanned_files_shape_and_hides_its_comments() {
    let ws = Workspace::load(&workspace_root());
    assert!(ws.files.len() >= 50, "is the root wrong?");
    for file in &ws.files {
        assert_eq!(file.code.len(), file.raw.len(), "{}", file.rel);
        let newlines = |s: &str| -> Vec<usize> { s.match_indices('\n').map(|(i, _)| i).collect() };
        assert_eq!(newlines(&file.code), newlines(&file.raw), "{}", file.rel);
        for (span, _) in lex(&file.raw)
            .into_iter()
            .filter(|(_, plain_comment)| *plain_comment)
        {
            assert!(
                file.code[span.clone()].bytes().all(|b| b == b' '),
                "{}: a plain comment survived blanking at byte {}",
                file.rel,
                span.start
            );
        }
    }
}
