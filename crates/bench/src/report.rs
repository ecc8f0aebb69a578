//! Plain-text table rendering and machine-readable run reports.
//!
//! [`Table`] renders the paper's tables/figures for human eyes;
//! [`RunReport`] serializes a full training run — per-worker, per-layer,
//! per-phase timings, communication volumes and tensor-memory peaks — to
//! JSON so CI can archive and gate on it, and reads it back
//! ([`RunReport::from_json`]) so a report gathered by another process
//! is the same type as one produced in this one. The schema is
//! documented on [`RunReport::to_json`].

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::{self, obj, Value};
use sar_comm::buffer::PoolStats;
use sar_comm::{FieldKind, Phase, PhaseEntry};

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. `"Figure 3a — epoch time (s)"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats bytes as mebibytes with two decimals.
pub fn mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats seconds with three decimals.
pub fn secs(s: f64) -> String {
    format!("{s:.3}")
}

/// Formats a probability as a percentage with one decimal.
pub fn pct(p: f64) -> String {
    format!("{:.1}%", p * 100.0)
}

// ----------------------------------------------------------------------
// Machine-readable run reports
// ----------------------------------------------------------------------

/// One `(phase, layer)` cell of a worker's observability ledger: the
/// key plus the ledger's own [`PhaseEntry`], so readers say
/// `row.entry.recv_bytes` and a new ledger field needs nothing here.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// The phase the cell belongs to.
    pub phase: Phase,
    /// GNN layer the traffic was attributed to, if any.
    pub layer: Option<u16>,
    /// The cell's measurements.
    pub entry: PhaseEntry,
}

/// One worker's profile: totals plus the per-phase ledger.
#[derive(Debug, Clone)]
pub struct WorkerProfile {
    /// Worker rank.
    pub rank: usize,
    /// Steady-state peak live tensor bytes (from the second epoch on).
    pub steady_peak_bytes: usize,
    /// Where that peak was reached (a layer's forward, or the backward of
    /// a named tape operation).
    pub steady_peak_site: String,
    /// Total bytes sent over the whole run.
    pub total_sent_bytes: u64,
    /// Total bytes received over the whole run.
    pub total_recv_bytes: u64,
    /// Total simulated communication time, microseconds.
    pub comm_us: f64,
    /// The per-phase / per-layer ledger rows, in ledger order.
    pub phases: Vec<PhaseRow>,
}

impl WorkerProfile {
    /// Lifts one worker's [`sar_comm::CommStats`] (plus its measured
    /// steady-state memory peak and where it was reached) into the
    /// serializable profile.
    pub fn from_stats(
        rank: usize,
        steady_peak_bytes: usize,
        steady_peak_site: String,
        comm: &sar_comm::CommStats,
    ) -> Self {
        WorkerProfile {
            rank,
            steady_peak_bytes,
            steady_peak_site,
            total_sent_bytes: comm.total_sent(),
            total_recv_bytes: comm.recv_bytes,
            comm_us: comm.comm_us,
            phases: comm
                .ledger
                .rows()
                .map(|(phase, layer, &entry)| PhaseRow {
                    phase,
                    layer,
                    entry,
                })
                .collect(),
        }
    }

    /// Sums `f` over this worker's ledger rows in the given phase.
    pub fn phase_sum(&self, phase: Phase, f: impl Fn(&PhaseEntry) -> u64) -> u64 {
        self.phases
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| f(&r.entry))
            .sum()
    }
}

/// A machine-readable record of one distributed training run.
///
/// [`RunReport::from_train`] is the only producer — in-process runs and
/// rank 0 of a multi-process launch both hand it the
/// [`sar_core::RunReport`] that [`sar_core::RunReport::from_ranks`]
/// aggregated. Serialize with [`RunReport::to_json`] /
/// [`RunReport::write_json`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Free-form experiment label (e.g. `"smoke-sage"`).
    pub experiment: String,
    /// Architecture label (e.g. `"sage"`, `"gat"`).
    pub arch: String,
    /// Execution-mode label (e.g. `"sar"`, `"sar-fak"`, `"dp"`).
    pub mode: String,
    /// Number of workers.
    pub world: usize,
    /// Global training loss per epoch.
    pub losses: Vec<f32>,
    /// Modeled epoch times (max compute + max comm), seconds.
    pub epoch_times: Vec<f64>,
    /// Validation accuracy.
    pub val_acc: f64,
    /// Test accuracy.
    pub test_acc: f64,
    /// Test accuracy after Correct & Smooth, if run.
    pub test_acc_cs: Option<f64>,
    /// Snapshot of the process-wide send-buffer pool counters at report
    /// time (the pool is shared by all in-process workers, so this is a
    /// run-level, not per-rank, statistic). `None` when not captured.
    pub buffer_pool: Option<sar_comm::buffer::PoolStats>,
    /// Per-worker profiles, indexed by rank.
    pub workers: Vec<WorkerProfile>,
}

impl RunReport {
    /// Lifts a [`sar_core::RunReport`] into the serializable form.
    pub fn from_train(
        experiment: impl Into<String>,
        arch: impl Into<String>,
        mode: impl Into<String>,
        run: &sar_core::RunReport,
    ) -> Self {
        let workers = run
            .worker_comm
            .iter()
            .enumerate()
            .map(|(rank, comm)| {
                WorkerProfile::from_stats(
                    rank,
                    run.peak_bytes.get(rank).copied().unwrap_or(0),
                    run.peak_sites.get(rank).cloned().unwrap_or_default(),
                    comm,
                )
            })
            .collect();
        RunReport {
            experiment: experiment.into(),
            arch: arch.into(),
            mode: mode.into(),
            world: run.world,
            losses: run.losses.clone(),
            epoch_times: run.epoch_times.clone(),
            val_acc: run.val_acc,
            test_acc: run.test_acc,
            test_acc_cs: run.test_acc_cs,
            buffer_pool: Some(sar_comm::buffer::pool_stats()),
            workers,
        }
    }

    /// `true` if any recorded epoch loss is NaN or infinite.
    pub fn has_non_finite_loss(&self) -> bool {
        self.losses.iter().any(|l| !l.is_finite())
    }

    /// Serializes to a self-contained JSON document:
    ///
    /// ```json
    /// {
    ///   "experiment": "...", "arch": "...", "mode": "...", "world": 4,
    ///   "losses": [...], "epoch_times_secs": [...],
    ///   "val_acc": 0.9, "test_acc": 0.9, "test_acc_cs": null,
    ///   "buffer_pool": {"hits": 0, "misses": 0, "recycles": 0,
    ///                   "recycle_drops": 0},
    ///   "workers": [
    ///     {"rank": 0, "steady_peak_bytes": 0,
    ///      "steady_peak_site": "layer 0 forward", "total_sent_bytes": 0,
    ///      "total_recv_bytes": 0, "comm_us": 0.0,
    ///      "phases": [
    ///        {"phase": "forward_fetch", "layer": 0, "sent_bytes": 0, ...}
    ///      ]}
    ///   ]
    /// }
    /// ```
    ///
    /// A phase row is its key followed by one member per
    /// [`PhaseEntry::FIELDS`] row, named and ordered as in that table.
    /// Non-finite floats serialize as `null` (JSON has no NaN).
    pub fn to_json(&self) -> String {
        let phase_row = |r: &PhaseRow| {
            let mut entry = r.entry;
            let cells = PhaseEntry::FIELDS.iter().map(|field| {
                let value = match field.kind {
                    FieldKind::Count(at) | FieldKind::Peak(at) => (*at(&mut entry)).into(),
                    FieldKind::Micros(at) => (*at(&mut entry)).into(),
                };
                (field.name, value)
            });
            let key = [
                ("phase", r.phase.name().into()),
                ("layer", r.layer.map(usize::from).into()),
            ];
            obj(key.into_iter().chain(cells))
        };
        let worker = |w: &WorkerProfile| {
            obj([
                ("rank", w.rank.into()),
                ("steady_peak_bytes", w.steady_peak_bytes.into()),
                ("steady_peak_site", w.steady_peak_site.as_str().into()),
                ("total_sent_bytes", w.total_sent_bytes.into()),
                ("total_recv_bytes", w.total_recv_bytes.into()),
                ("comm_us", w.comm_us.into()),
                ("phases", w.phases.iter().map(phase_row).collect()),
            ])
        };
        let pool = self.buffer_pool.map(|p| {
            obj([
                ("hits", p.hits.into()),
                ("misses", p.misses.into()),
                ("recycles", p.recycles.into()),
                ("recycle_drops", p.recycle_drops.into()),
            ])
        });
        let doc = obj([
            ("experiment", self.experiment.as_str().into()),
            ("arch", self.arch.as_str().into()),
            ("mode", self.mode.as_str().into()),
            ("world", self.world.into()),
            ("losses", self.losses.iter().copied().collect()),
            (
                "epoch_times_secs",
                self.epoch_times.iter().copied().collect(),
            ),
            ("val_acc", self.val_acc.into()),
            ("test_acc", self.test_acc.into()),
            ("test_acc_cs", self.test_acc_cs.into()),
            ("buffer_pool", pool.into()),
            ("workers", self.workers.iter().map(worker).collect()),
        ]);
        // One ledger row per line: top object, workers, worker, phases.
        doc.pretty(4) + "\n"
    }

    /// Reads a report back from [`RunReport::to_json`] output. Floats
    /// are written in shortest round-trip form, so every field — the
    /// f32 losses included — comes back bit-identical; a `null` float
    /// (written for a non-finite value) reads back as NaN.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing or mistyped field (named), or a phase
    /// name outside [`Phase::ALL`].
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = json::parse(text)?;
        // `null` is how a non-finite float was written.
        let nan_or_num = |v: &Value| match v {
            Value::Null => Some(f64::NAN),
            v => v.num(),
        };
        let float = |v: &Value, key: &str| {
            v.get(key)
                .and_then(nan_or_num)
                .ok_or_else(|| format!("missing numeric field \"{key}\""))
        };
        let floats = |key: &str| -> Result<Vec<f64>, String> {
            doc.req_arr(key)?
                .iter()
                .map(|v| nan_or_num(v).ok_or_else(|| format!("non-numeric entry in \"{key}\"")))
                .collect()
        };
        let phase_row = |r: &Value| -> Result<PhaseRow, String> {
            let name = r.req_str("phase")?;
            let phase = Phase::ALL
                .into_iter()
                .find(|p| p.name() == name)
                .ok_or_else(|| format!("unknown phase \"{name}\""))?;
            let layer = match r.get("layer") {
                None | Some(Value::Null) => None,
                Some(_) => Some(
                    u16::try_from(r.req_u64("layer")?)
                        .map_err(|_| "field \"layer\" out of range".to_string())?,
                ),
            };
            let mut entry = PhaseEntry::default();
            for field in &PhaseEntry::FIELDS {
                match field.kind {
                    FieldKind::Count(at) | FieldKind::Peak(at) => {
                        *at(&mut entry) = r.req_u64(field.name)?;
                    }
                    FieldKind::Micros(at) => *at(&mut entry) = float(r, field.name)?,
                }
            }
            Ok(PhaseRow {
                phase,
                layer,
                entry,
            })
        };
        let worker = |w: &Value| -> Result<WorkerProfile, String> {
            Ok(WorkerProfile {
                rank: w.req_u64("rank")? as usize,
                steady_peak_bytes: w.req_u64("steady_peak_bytes")? as usize,
                steady_peak_site: w.req_str("steady_peak_site")?.to_string(),
                total_sent_bytes: w.req_u64("total_sent_bytes")?,
                total_recv_bytes: w.req_u64("total_recv_bytes")?,
                comm_us: float(w, "comm_us")?,
                phases: w
                    .req_arr("phases")?
                    .iter()
                    .map(phase_row)
                    .collect::<Result<_, _>>()?,
            })
        };
        let buffer_pool = match doc.get("buffer_pool") {
            None | Some(Value::Null) => None,
            Some(p) => Some(PoolStats {
                hits: p.req_u64("hits")?,
                misses: p.req_u64("misses")?,
                recycles: p.req_u64("recycles")?,
                recycle_drops: p.req_u64("recycle_drops")?,
            }),
        };
        Ok(RunReport {
            experiment: doc.req_str("experiment")?.to_string(),
            arch: doc.req_str("arch")?.to_string(),
            mode: doc.req_str("mode")?.to_string(),
            world: doc.req_u64("world")? as usize,
            losses: floats("losses")?.into_iter().map(|l| l as f32).collect(),
            epoch_times: floats("epoch_times_secs")?,
            val_acc: float(&doc, "val_acc")?,
            test_acc: float(&doc, "test_acc")?,
            test_acc_cs: doc.get("test_acc_cs").and_then(Value::num),
            buffer_pool,
            workers: doc
                .req_arr("workers")?
                .iter()
                .map(worker)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// A determinism digest of everything that must be bitwise identical
    /// across intra-worker thread counts: the per-epoch losses (as exact
    /// f32 bit patterns) and every worker's per-`(phase, layer)` byte and
    /// message counters. Timings and memory peaks are deliberately
    /// excluded — they legitimately vary run to run — so two runs of the
    /// same workload at different `--threads` must produce identical
    /// digests (the CI thread-parity gate compares these strings).
    pub fn parity_digest(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = writeln!(s, "world {}", self.world);
        let _ = writeln!(
            s,
            "losses {}",
            join(self.losses.iter().map(|l| format!("{:08x}", l.to_bits())))
        );
        for w in &self.workers {
            for r in &w.phases {
                let _ = writeln!(
                    s,
                    "w{} {}/{} sent={} recv={} smsg={} rmsg={}",
                    w.rank,
                    r.phase.name(),
                    r.layer.map_or("-".to_string(), |l| l.to_string()),
                    r.entry.sent_bytes,
                    r.entry.recv_bytes,
                    r.entry.sent_messages,
                    r.entry.recv_messages,
                );
            }
        }
        s
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(mib(1024 * 1024), "1.00");
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(pct(0.801), "80.1%");
    }

    fn sample_report() -> RunReport {
        RunReport {
            experiment: "smoke \"quoted\"".into(),
            arch: "sage".into(),
            mode: "sar".into(),
            world: 2,
            losses: vec![1.5, f32::NAN],
            epoch_times: vec![0.25],
            val_acc: 0.5,
            test_acc: 0.75,
            test_acc_cs: None,
            buffer_pool: Some(PoolStats {
                hits: 10,
                misses: 4,
                recycles: 9,
                recycle_drops: 1,
            }),
            workers: vec![WorkerProfile {
                rank: 0,
                steady_peak_bytes: 1024,
                steady_peak_site: "layer 0 forward".into(),
                total_sent_bytes: 64,
                total_recv_bytes: 32,
                comm_us: 12.5,
                phases: vec![PhaseRow {
                    phase: Phase::ForwardFetch,
                    layer: Some(1),
                    entry: PhaseEntry {
                        sent_bytes: 64,
                        recv_bytes: 32,
                        wire_sent_bytes: 40,
                        wire_recv_bytes: 24,
                        sent_messages: 2,
                        recv_messages: 1,
                        comm_us: 12.5,
                        cpu_us: 3.0,
                        wall_us: 4.5,
                        blocked_us: 1.5,
                        peak_tensor_bytes: 512,
                        spill_bytes: 256,
                        fault_bytes: 128,
                        disk_blocked_us: 0.5,
                    },
                }],
            }],
        }
    }

    #[test]
    fn json_escapes_and_nulls() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.contains(r#""experiment": "smoke \"quoted\"""#));
        // NaN loss must serialize as null, not a bare NaN token.
        assert!(json.contains("\"losses\": [1.5, null]"));
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"test_acc_cs\": null"));
        assert!(json.contains(r#""phase": "forward_fetch", "layer": 1"#));
        assert!(json.contains(r#""blocked_us": 1.5"#));
        assert!(json.contains(r#""spill_bytes": 256"#));
        assert!(json.contains(r#""fault_bytes": 128"#));
        assert!(json.contains(r#""disk_blocked_us": 0.5"#));
        let doc = json::parse(&json).expect("own JSON must parse");
        let pool = doc.get("buffer_pool").expect("buffer_pool");
        assert_eq!(pool.req_u64("hits"), Ok(10));
        assert_eq!(pool.req_u64("recycle_drops"), Ok(1));
    }

    #[test]
    fn json_round_trips_as_a_type() {
        let r = sample_report();
        let back = RunReport::from_json(&r.to_json()).expect("own JSON reads back");
        assert_eq!(back.parity_digest(), r.parity_digest());
        assert_eq!(back.to_json(), r.to_json());
        assert_eq!(back.experiment, r.experiment);
        assert_eq!(back.epoch_times, r.epoch_times);
        assert_eq!(back.buffer_pool, r.buffer_pool);
        assert!(back.losses[1].is_nan(), "null reads back as NaN");
        // A `layer: null` row and an absent buffer pool survive too.
        let mut r = r;
        r.workers[0].phases[0].layer = None;
        r.buffer_pool = None;
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.workers[0].phases[0].layer, None);
        assert_eq!(back.buffer_pool, None);
        assert_eq!(back.parity_digest(), r.parity_digest());
    }

    /// The sentinels of `sar-comm`'s field-table test, through the JSON
    /// writer and reader: every [`PhaseEntry::FIELDS`] row is written
    /// under its own name and read back into its own slot.
    #[test]
    fn every_ledger_field_round_trips_through_json_by_name() {
        let mut entry = PhaseEntry::default();
        for (i, field) in PhaseEntry::FIELDS.iter().enumerate() {
            match field.kind {
                FieldKind::Count(at) | FieldKind::Peak(at) => *at(&mut entry) = 100 + i as u64,
                FieldKind::Micros(at) => *at(&mut entry) = 100.25 + i as f64,
            }
        }
        let mut r = sample_report();
        r.workers[0].phases[0].entry = entry;
        let text = r.to_json();
        let back = RunReport::from_json(&text).expect("own JSON reads back");
        assert_eq!(back.workers[0].phases, r.workers[0].phases);
        let doc = json::parse(&text).expect("own JSON parses");
        let row = &doc.items("workers")[0].items("phases")[0];
        for (i, field) in PhaseEntry::FIELDS.iter().enumerate() {
            let want = match field.kind {
                FieldKind::Micros(_) => 100.25 + i as f64,
                _ => 100.0 + i as f64,
            };
            assert_eq!(row.req_num(field.name), Ok(want), "{}", field.name);
        }
    }

    #[test]
    fn from_json_names_what_is_wrong() {
        let good = sample_report().to_json();
        let err = RunReport::from_json(&good.replace("forward_fetch", "sideways")).unwrap_err();
        assert!(err.contains("sideways"), "{err}");
        let err = RunReport::from_json(&good.replace("\"world\"", "\"wrld\"")).unwrap_err();
        assert!(err.contains("world"), "{err}");
        // A renamed array is an error, never a silently empty default.
        let err =
            RunReport::from_json(&good.replace("epoch_times_secs", "epoch_times")).unwrap_err();
        assert!(err.contains("epoch_times_secs"), "{err}");
        assert!(RunReport::from_json("{").is_err());
    }

    #[test]
    fn non_finite_loss_detected() {
        let mut r = sample_report();
        assert!(r.has_non_finite_loss());
        r.losses = vec![1.0, 0.5];
        assert!(!r.has_non_finite_loss());
    }

    #[test]
    fn parity_digest_ignores_timings_but_pins_bytes_and_losses() {
        let a = sample_report();
        let mut b = sample_report();
        // Timings and peaks vary run to run — the digest must not see them.
        b.workers[0].phases[0].entry.cpu_us = 999.0;
        b.workers[0].phases[0].entry.wall_us = 999.0;
        b.workers[0].phases[0].entry.blocked_us = 999.0;
        b.workers[0].phases[0].entry.comm_us = 999.0;
        b.workers[0].phases[0].entry.peak_tensor_bytes = 999;
        // Disk-tier traffic legitimately differs between spill-on and
        // spill-off runs of the same training — the digest must not see it.
        b.workers[0].phases[0].entry.spill_bytes = 999;
        b.workers[0].phases[0].entry.fault_bytes = 999;
        b.workers[0].phases[0].entry.disk_blocked_us = 999.0;
        b.buffer_pool = None;
        b.epoch_times = vec![9.0];
        assert_eq!(a.parity_digest(), b.parity_digest());
        // A single flipped loss bit or ledger byte must break the digest.
        let mut c = sample_report();
        c.losses[0] = f32::from_bits(c.losses[0].to_bits() ^ 1);
        assert_ne!(a.parity_digest(), c.parity_digest());
        let mut d = sample_report();
        d.workers[0].phases[0].entry.recv_bytes += 1;
        assert_ne!(a.parity_digest(), d.parity_digest());
    }

    #[test]
    fn phase_sums_filter_by_phase() {
        let r = sample_report();
        let w = &r.workers[0];
        assert_eq!(w.phase_sum(Phase::ForwardFetch, |e| e.recv_bytes), 32);
        assert_eq!(w.phase_sum(Phase::GradRouting, |e| e.recv_bytes), 0);
    }
}
