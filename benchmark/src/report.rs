//! What one run of one workload produced, and how it is printed: the
//! metric table for people, the one-line JSON object for the driver.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::result::RankResult;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::{json_string, self_times, Span, Tracer};

/// Set-up spans every rank records; a launch is as slow as its slowest rank.
const SETUP_SPANS: [&str; 5] = [
    "partition.multilevel_s",
    "graph.datagen_s",
    "comm.rendezvous_s",
    "core.distgraph_build_s",
    "core.shard_build_s",
];
/// What only rank 0 knows or every rank knows alike: the partition's
/// figures and the probes' results. A probe that did not run reads 0.
const RANK0_METRICS: [&str; 15] = [
    "partition.cut_frac",
    "partition.balance",
    "graph.spmm_fwd_ms",
    "graph.spmm_bwd_ms",
    "graph.gat_fused_fwd_ms",
    "graph.gat_fused_bwd_ms",
    "tensor.matmul_fwd_ms",
    "tensor.matmul_bwd_ms",
    "tensor.pool_speedup_t2",
    "comm.tcp_rtt_us",
    "comm.tcp_bulk_gbps",
    "comm.allreduce_ms",
    "core.mfg_slice_ms",
    "nn.optim_step_ms",
    "nn.loss_ms",
];

/// Largest value any rank reported under `key`.
pub fn max_over_ranks(results: &[RankResult], key: &str) -> f64 {
    results.iter().map(|r| r.get(key)).fold(0.0, f64::max)
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Result of one run (one workload, traced or not).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Metric name → value. An untraced run fills the end-to-end names, a
    /// traced run the per-layer names.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted: training epochs, or serving requests.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks, all of which must hold for `correct`.
    pub checks: Vec<Check>,
    /// Spans per process (driver first), traced runs only.
    pub spans: Vec<Vec<Span>>,
    /// Training only: the warm-up rep's per-epoch global losses.
    pub losses: Vec<f32>,
    /// Training only: validation accuracy after the warm-up rep.
    pub val_acc: f64,
    /// Training only: test accuracy after the warm-up rep.
    pub test_acc: f64,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &str, traced: bool) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            traced,
            ..Outcome::default()
        }
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// A metric's value; 0 when the run did not produce it.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// What a traced run of either kind takes from its ranks: the set-up
    /// spans, the partition's figures, the probes' results, the largest
    /// resident set of any rank, and every span (the driver's first).
    pub fn absorb_traced(&mut self, mut driver: Tracer, results: &[RankResult]) {
        for name in SETUP_SPANS {
            self.set(name, max_over_ranks(results, name));
        }
        self.set("proc.peak_rss_mib", max_over_ranks(results, "hwm_mib"));
        for name in RANK0_METRICS {
            self.set(name, results[0].get(name));
        }
        driver.end();
        self.spans = std::iter::once(driver.spans().to_vec())
            .chain(results.iter().map(|r| r.spans.clone()))
            .collect();
        self.set(
            "trace.spans",
            self.spans.iter().map(Vec::len).sum::<usize>() as f64,
        );
        // Set-up that none of the named spans covers, per rank.
        if let Some(&(count, _, own)) = self_times(&self.spans[1..]).get("setup") {
            self.set("trace.setup_unattributed_s", own / count as f64);
        }
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The metric names (with units) this run owes the driver.
    pub fn owed(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
        }
    }

    /// The driver's line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in self.owed().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = self.get(name);
            // JSON has no NaN or infinity; a value that is neither a
            // measurement nor a count reads 0 and fails `correct` upstream.
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                out,
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The table for people: every metric by name with its unit, the
    /// checks, and the operation counts.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let kind = if self.traced { "traced" } else { "untraced" };
        let _ = writeln!(out, "== {} ({kind}) ==", self.workload);
        for (name, unit) in self.owed() {
            let _ = writeln!(out, "  {name:<36} {:>16.6} {unit}", self.get(name));
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "  check {verdict} {}: {}", c.name, c.detail);
        }
        let _ = writeln!(
            out,
            "  ops_attempted {}  ops_failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_exactly_the_owed_metrics() {
        let mut o = Outcome::new("sage-tcp2", false);
        o.attempted = 5;
        o.set("op_p50_ms", 1234.5);
        o.set("not_owed", 1.0);
        o.set("setup_s", f64::NAN);
        let line = o.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0"));
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1234.5, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(!line.contains("not_owed"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));

        let traced = Outcome::new("sage-tcp2", true);
        assert_eq!(
            traced.json_line().matches("\"value\"").count(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut o = Outcome::new("x", false);
        assert!(!o.correct(), "nothing attempted");
        o.attempted = 3;
        assert!(o.correct());
        o.check("losses finite", false, "NaN at epoch 1".into());
        assert!(!o.correct());
        o.checks.clear();
        o.failed = 1;
        assert!(!o.correct());
    }
}
