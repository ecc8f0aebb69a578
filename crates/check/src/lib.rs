#![warn(missing_docs)]

//! `sar-check` — static analysis for the SAR workspace.
//!
//! Three passes, each independently runnable and combined by the
//! `sar-check` binary into a single CI gate:
//!
//! * [`protocol`] — replays the *pure* rotation/routing schedules from
//!   [`sar_core::plan`] for every rank at once and proves, per `(N, K)`
//!   and per communication model (Case 1 / Case 2 of the paper), that the
//!   send/recv schedule is matched (every send consumed exactly once,
//!   tags agree), deadlock-free, and within the `(K+2)/N` residency
//!   bound — and that the out-of-core stale replay of the same schedule
//!   against the disk tier keeps at most `min(K, N−1) + 2` blocks in RAM
//!   with the remainder spilled. Because [`Worker`](sar_core::Worker)
//!   executes those same plans step for step, the schedule proved here is
//!   the schedule run in production.
//! * [`sched`] — a loom-style deterministic scheduler that explores *all*
//!   interleavings (to a bounded depth, with visited-state pruning) of
//!   small models of the workspace's hand-rolled concurrency: the
//!   `sar_comm::buffer` recycle pool, the bounded TCP writer queue, and
//!   the `pool::SharedSlice` chunk-claiming discipline.
//! * [`lint`] — a token-level source pass (no external deps) enforcing
//!   project invariants the compiler cannot: no `unwrap`/`expect`/
//!   `assert!` on comm hot paths, `// SAFETY:` on every `unsafe` block,
//!   `WorkerCtx` comm calls only under a `phase_scope`, and no unbounded
//!   channel construction without an explicit waiver.
//!
//! Every pass reports through the same [`Finding`]/[`PassReport`] types,
//! and [`Report`] serializes the combined result as machine-readable JSON
//! through the workspace's one JSON module ([`sar_bench::json`]).

use sar_bench::json::obj;

pub mod ast;
pub mod ledgercheck;
pub mod lint;
pub mod protocol;
pub mod reportio;
pub mod sched;
pub mod taint;

/// One problem found by a pass. `location` is a file/line for the linter,
/// a `(n, k, model)` coordinate for the protocol verifier, or a model
/// name + interleaving trace for the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule / property identifier (e.g. `no-panic-path`,
    /// `deadlock-free`, `no-double-recycle`).
    pub rule: String,
    /// Where the problem is (file:line, or a model coordinate).
    pub location: String,
    /// Actionable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.location, self.message)
    }
}

/// The outcome of one pass: what was checked, how much of it, and every
/// violation found.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Pass name (`protocol`, `sched`, `lint`).
    pub pass: String,
    /// Pass-specific progress counters (e.g. `configs_verified`,
    /// `states_explored`, `files_scanned`), in insertion order.
    pub stats: Vec<(String, u64)>,
    /// Violations; empty means the pass proved its properties.
    pub findings: Vec<Finding>,
}

impl PassReport {
    /// New empty report for `pass`.
    #[must_use]
    pub fn new(pass: &str) -> PassReport {
        PassReport {
            pass: pass.to_string(),
            stats: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Adds (or bumps) a named counter.
    pub fn bump(&mut self, stat: &str, by: u64) {
        if let Some(entry) = self.stats.iter_mut().find(|(name, _)| name == stat) {
            entry.1 += by;
        } else {
            self.stats.push((stat.to_string(), by));
        }
    }

    /// True when the pass found nothing.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The combined proof report written as the CI artifact.
#[derive(Debug, Clone)]
pub struct Report {
    /// One entry per pass that ran.
    pub passes: Vec<PassReport>,
}

impl Report {
    /// True when every pass is clean.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.passes.iter().all(PassReport::clean)
    }

    /// Total findings across passes.
    #[must_use]
    pub fn total_findings(&self) -> usize {
        self.passes.iter().map(|p| p.findings.len()).sum()
    }

    /// Serializes the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let finding = |f: &Finding| {
            obj([
                ("rule", f.rule.as_str().into()),
                ("location", f.location.as_str().into()),
                ("message", f.message.as_str().into()),
            ])
        };
        let pass = |p: &PassReport| {
            obj([
                ("pass", p.pass.as_str().into()),
                ("clean", p.clean().into()),
                (
                    "stats",
                    obj(p.stats.iter().map(|(name, v)| (name.as_str(), (*v).into()))),
                ),
                ("findings", p.findings.iter().map(finding).collect()),
            ])
        };
        let doc = obj([
            ("tool", "sar-check".into()),
            ("clean", self.clean().into()),
            ("passes", self.passes.iter().map(pass).collect()),
        ]);
        // One stat and one finding per line: report, passes, pass, stats.
        doc.pretty(4) + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_round_trips_structure() {
        let mut pass = PassReport::new("lint");
        pass.bump("files_scanned", 3);
        pass.findings.push(Finding {
            rule: "no-panic-path".into(),
            location: "crates/comm/src/tcp.rs:12".into(),
            message: "bare `unwrap()` on a comm hot path".into(),
        });
        let report = Report { passes: vec![pass] };
        let json = report.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("no-panic-path"));
        assert!(!report.clean());
    }
}
