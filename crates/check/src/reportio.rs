//! Proof-report IO: the committed-baseline diff.
//!
//! CI runs `sar-check --baseline PROOF_sarcheck.json`: the fresh
//! [`Report`] is compared against the committed baseline
//! and the gate fails if a whole pass disappeared or any *obligation
//! counter* decreased — the "silently dropped proof obligation" failure
//! mode, where a refactor quietly stops verifying configurations while
//! the remaining ones stay green. Measurement stats (peaks, annotation
//! tallies) may move freely; only counters whose name carries an
//! obligation suffix ([`OBLIGATION_SUFFIXES`]) are ratcheted.

use sar_bench::json::{self, Value};

use crate::Report;

/// Stat-name suffixes that denote proof obligations: these counters may
/// only grow (or hold) relative to the committed baseline.
pub const OBLIGATION_SUFFIXES: &[&str] = &[
    "_verified",
    "_scanned",
    "_matched",
    "_executed",
    "_explored",
    "_checked",
];

/// Whether `name` is an obligation counter.
#[must_use]
pub fn is_obligation_stat(name: &str) -> bool {
    OBLIGATION_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// Diffs `current` against the committed baseline report text. Returns
/// one message per dropped obligation; empty means the gate holds.
///
/// # Errors
///
/// Returns the parse error when the baseline is not valid JSON or lacks
/// the report shape.
pub fn check_baseline(current: &Report, baseline_text: &str) -> Result<Vec<String>, String> {
    let baseline = json::parse(baseline_text)?;
    let passes = baseline
        .get("passes")
        .and_then(Value::arr)
        .ok_or("baseline has no `passes` array")?;
    let mut drops = Vec::new();
    for pass in passes {
        let name = pass
            .get("pass")
            .and_then(Value::str)
            .ok_or("baseline pass entry has no `pass` name")?;
        let Some(cur) = current.passes.iter().find(|p| p.pass == name) else {
            drops.push(format!(
                "pass `{name}` is in the committed baseline but did not run — \
                 a whole proof surface was dropped"
            ));
            continue;
        };
        let Some(Value::Obj(stats)) = pass.get("stats") else {
            continue;
        };
        for (stat, value) in stats {
            if !is_obligation_stat(stat) {
                continue;
            }
            let Some(base) = value.num() else { continue };
            let now = cur
                .stats
                .iter()
                .find(|(n, _)| n == stat)
                .map(|(_, v)| *v as f64);
            match now {
                None => drops.push(format!(
                    "pass `{name}`: obligation counter `{stat}` vanished \
                     (baseline {base})"
                )),
                Some(now) if now < base => drops.push(format!(
                    "pass `{name}`: obligation counter `{stat}` decreased \
                     {base} -> {now} — proof coverage silently shrank"
                )),
                Some(_) => {}
            }
        }
    }
    Ok(drops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, PassReport};

    fn sample_report() -> Report {
        let mut protocol = PassReport::new("protocol");
        protocol.bump("configs_verified", 56);
        protocol.bump("peak_staged_blocks", 4);
        let mut lint = PassReport::new("lint");
        lint.bump("files_scanned", 60);
        lint.findings.push(Finding {
            rule: "no-panic-path".into(),
            location: "crates/comm/src/tcp.rs:12".into(),
            message: "bare `unwrap()` — with \"quotes\" and\nnewline".into(),
        });
        Report {
            passes: vec![protocol, lint],
        }
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        // The proof-report schema: what `to_json` writes, `parse` reads
        // back structurally intact — escapes included.
        let report = sample_report();
        let parsed = json::parse(&report.to_json()).expect("report JSON parses");
        assert_eq!(parsed.req_str("tool"), Ok("sar-check"));
        assert_eq!(parsed.get("clean"), Some(&Value::Bool(false)));
        let passes = parsed.items("passes");
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[0].req_str("pass"), Ok("protocol"));
        let stats = passes[0].get("stats").expect("stats");
        assert_eq!(stats.req_u64("configs_verified"), Ok(56));
        let findings = passes[1].items("findings");
        assert_eq!(
            findings[0].req_str("message"),
            Ok("bare `unwrap()` — with \"quotes\" and\nnewline")
        );
    }

    #[test]
    fn unchanged_baseline_passes_and_growth_is_allowed() {
        let report = sample_report();
        let baseline = report.to_json();
        assert_eq!(check_baseline(&report, &baseline), Ok(Vec::new()));

        let mut grown = sample_report();
        grown.passes[0].bump("configs_verified", 10);
        assert_eq!(check_baseline(&grown, &baseline), Ok(Vec::new()));
    }

    #[test]
    fn dropped_pass_and_shrunk_obligation_are_reported() {
        let report = sample_report();
        let baseline = report.to_json();

        // A whole pass dropped.
        let partial = Report {
            passes: vec![report.passes[1].clone()],
        };
        let drops = check_baseline(&partial, &baseline).expect("parses");
        assert_eq!(drops.len(), 1, "{drops:?}");
        assert!(drops[0].contains("pass `protocol`"));

        // An obligation counter shrunk; the measurement stat may move.
        let mut shrunk = sample_report();
        shrunk.passes[0].stats[0].1 = 40;
        shrunk.passes[0].stats[1].1 = 99;
        let drops = check_baseline(&shrunk, &baseline).expect("parses");
        assert_eq!(drops.len(), 1, "{drops:?}");
        assert!(drops[0].contains("configs_verified"));
        assert!(drops[0].contains("56 -> 40"));
    }

    #[test]
    fn obligation_suffix_classification() {
        assert!(is_obligation_stat("configs_verified"));
        assert!(is_obligation_stat("files_scanned"));
        assert!(is_obligation_stat("fns_checked"));
        assert!(!is_obligation_stat("peak_staged_blocks"));
        assert!(!is_obligation_stat("deterministic_annotations"));
    }
}
