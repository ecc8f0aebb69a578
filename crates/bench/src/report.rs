//! Plain-text table rendering and machine-readable run reports.
//!
//! [`Table`] renders the paper's tables/figures for human eyes;
//! [`RunReport`] serializes a full training run — per-worker, per-layer,
//! per-phase timings, communication volumes and tensor-memory peaks — to
//! JSON so CI can archive and gate on it, and reads it back
//! ([`RunReport::from_json`]).
//!
//! This module owns the one encoding of a rank's record, the
//! [`RankRecord`] `run_worker` leaves behind: one JSON writer and one
//! reader. A report's `workers` array holds one record per rank, and a
//! multi-process run's gather ships each rank's record to rank 0 as the
//! same JSON ([`encode_rank`], [`gather`]). Both readers end in
//! [`sar_core::RunReport::from_ranks`], so a report read back from a TCP
//! run and one built in-process come out of the same constructor. The
//! schema is documented on [`RunReport::to_json`].

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::{self, obj, Value};
use sar_comm::buffer::PoolStats;
use sar_comm::{CommStats, FieldKind, Phase, PhaseEntry, PhaseLedger};
use sar_core::{EpochRecord, WorkerReport};

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

/// One rank's record: its [`WorkerReport`] and the [`CommStats`] snapshot
/// taken when `run_worker` returned.
pub type RankRecord = (WorkerReport, CommStats);

/// `key`'s float; `null`, which is how a non-finite value was written,
/// reads back as NaN.
fn float(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::Null) => Ok(f64::NAN),
        _ => v.req_num(key),
    }
}

/// Rank `rank`'s record as one JSON object: an element of
/// [`RunReport::to_json`]'s `workers` array, and the body of the gather
/// message. A phase row is its key followed by one member per
/// [`PhaseEntry::FIELDS`] row, named and ordered as in that table. Node
/// rows and parameters are not written.
fn record_json(rank: usize, (report, comm): &RankRecord) -> Value {
    let phase_row = |(phase, layer, entry): (Phase, Option<u16>, &PhaseEntry)| {
        let mut entry = *entry;
        let cells = PhaseEntry::FIELDS.iter().map(|field| {
            let value = match field.kind {
                FieldKind::Count(at) | FieldKind::Peak(at) => (*at(&mut entry)).into(),
                FieldKind::Micros(at) => (*at(&mut entry)).into(),
            };
            (field.name, value)
        });
        let key = [
            ("phase", phase.name().into()),
            ("layer", layer.map(usize::from).into()),
        ];
        obj(key.into_iter().chain(cells))
    };
    let epoch = |e: &EpochRecord| {
        obj([
            ("loss", e.loss.into()),
            ("compute_secs", e.compute_secs.into()),
            ("comm_secs", e.comm_secs.into()),
            ("sent_bytes", e.sent_bytes.into()),
        ])
    };
    obj([
        ("rank", rank.into()),
        ("steady_peak_bytes", report.steady_peak_bytes.into()),
        ("steady_peak_site", report.steady_peak_site.as_str().into()),
        // The sum of `sent_bytes`, for readers of the file; not read back.
        ("total_sent_bytes", comm.total_sent().into()),
        ("total_recv_bytes", comm.recv_bytes.into()),
        ("comm_us", comm.comm_us.into()),
        ("sent_bytes", comm.sent_bytes.iter().copied().collect()),
        ("sent_messages", comm.sent_messages.into()),
        ("val_acc", report.val_acc.into()),
        ("test_acc", report.test_acc.into()),
        ("test_acc_cs", report.test_acc_cs.into()),
        ("epochs", report.epochs.iter().map(epoch).collect()),
        ("phases", comm.ledger.rows().map(phase_row).collect()),
    ])
}

/// Inverse of [`record_json`] for the record in slot `rank`. Floats are
/// written in shortest round-trip form, so every field — the f32 losses
/// included — comes back bit-identical; node rows and parameters come
/// back empty.
///
/// # Errors
///
/// A missing or mistyped member (named), a phase name outside
/// [`Phase::ALL`], or a record labeled with another rank — each
/// prefixed with `rank {rank}`.
fn record_from_json(rank: usize, w: &Value) -> Result<RankRecord, String> {
    let read = || -> Result<RankRecord, String> {
        let labeled = w.req_u64("rank")?;
        if labeled != rank as u64 {
            return Err(format!("record is labeled rank {labeled}"));
        }
        let mut comm = CommStats {
            sent_bytes: w
                .req_arr("sent_bytes")?
                .iter()
                .map(|v| v.uint().ok_or("non-counter entry in \"sent_bytes\""))
                .collect::<Result<_, _>>()?,
            sent_messages: w.req_u64("sent_messages")?,
            recv_bytes: w.req_u64("total_recv_bytes")?,
            comm_us: float(w, "comm_us")?,
            ledger: PhaseLedger::default(),
        };
        for r in w.req_arr("phases")? {
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
            let entry = comm.ledger.entry_mut(phase, layer);
            for field in &PhaseEntry::FIELDS {
                match field.kind {
                    FieldKind::Count(at) | FieldKind::Peak(at) => {
                        *at(entry) = r.req_u64(field.name)?;
                    }
                    FieldKind::Micros(at) => *at(entry) = float(r, field.name)?,
                }
            }
        }
        let epoch = |e: &Value| -> Result<EpochRecord, String> {
            Ok(EpochRecord {
                loss: float(e, "loss")? as f32,
                compute_secs: float(e, "compute_secs")?,
                comm_secs: float(e, "comm_secs")?,
                sent_bytes: e.req_u64("sent_bytes")?,
            })
        };
        let report = WorkerReport {
            epochs: w
                .req_arr("epochs")?
                .iter()
                .map(epoch)
                .collect::<Result<_, _>>()?,
            val_acc: float(w, "val_acc")?,
            test_acc: float(w, "test_acc")?,
            test_acc_cs: match w.get("test_acc_cs") {
                Some(Value::Null) => None,
                _ => Some(float(w, "test_acc_cs")?),
            },
            steady_peak_bytes: w.req_u64("steady_peak_bytes")? as usize,
            steady_peak_site: w.req_str("steady_peak_site")?.to_string(),
            logits: Vec::new(),
            global_ids: Vec::new(),
            params: None,
        };
        Ok((report, comm))
    };
    read().map_err(|e| format!("rank {rank}: {e}"))
}

/// [`sar_core::RunReport::from_ranks`] over records read from another
/// process, after the checks it would otherwise panic on: at least one
/// record, and every record holding as many epochs as rank 0's.
fn aggregate(ranks: Vec<RankRecord>) -> Result<sar_core::RunReport, String> {
    let epochs = ranks.first().ok_or("no rank records")?.0.epochs.len();
    if let Some((rank, (r, _))) = ranks
        .iter()
        .enumerate()
        .find(|(_, (r, _))| r.epochs.len() != epochs)
    {
        return Err(format!(
            "rank {rank}: {} epochs, rank 0 has {epochs}",
            r.epochs.len()
        ));
    }
    Ok(sar_core::RunReport::from_ranks(ranks))
}

/// Rank `rank`'s record as the gather ships it to rank 0: its JSON text.
pub fn encode_rank(rank: usize, record: &RankRecord) -> Vec<u8> {
    record_json(rank, record).to_string().into_bytes()
}

/// Rank 0's side of the gather: its own record plus the bodies ranks
/// `1..` sent ([`encode_rank`]), in rank order, aggregated by
/// [`sar_core::RunReport::from_ranks`].
///
/// # Errors
///
/// A body that is not its rank's record — not UTF-8, malformed or
/// truncated JSON, trailing bytes, a missing or mistyped member, another
/// rank's label — or one whose epoch count differs from rank 0's. The
/// message names the rank.
pub fn gather(own: RankRecord, bodies: &[Vec<u8>]) -> Result<sar_core::RunReport, String> {
    let mut ranks = vec![own];
    for (i, body) in bodies.iter().enumerate() {
        let rank = i + 1;
        let text = std::str::from_utf8(body)
            .map_err(|e| format!("rank {rank}: record is not UTF-8: {e}"))?;
        let value = json::parse(text).map_err(|e| format!("rank {rank}: {e}"))?;
        ranks.push(record_from_json(rank, &value)?);
    }
    aggregate(ranks)
}

/// A machine-readable record of one distributed training run: labels
/// around the [`sar_core::RunReport`] that
/// [`sar_core::RunReport::from_ranks`] aggregated, in-process or on rank
/// 0 of a multi-process launch. Serialize with [`RunReport::to_json`] /
/// [`RunReport::write_json`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Free-form experiment label (e.g. `"smoke-sage"`).
    pub experiment: String,
    /// Architecture label (e.g. `"sage"`, `"gat"`).
    pub arch: String,
    /// Execution-mode label (e.g. `"sar"`, `"sar-fak"`, `"dp"`).
    pub mode: String,
    /// Snapshot of the process-wide send-buffer pool counters at report
    /// time (the pool is shared by all in-process workers, so this is a
    /// run-level, not per-rank, statistic). `None` when not captured.
    pub buffer_pool: Option<PoolStats>,
    /// The run: every rank's record ([`sar_core::RunReport::ranks`]) and
    /// the aggregates computed over them.
    pub run: sar_core::RunReport,
}

impl RunReport {
    /// Labels a finished run and snapshots the buffer-pool counters.
    pub fn from_train(
        experiment: impl Into<String>,
        arch: impl Into<String>,
        mode: impl Into<String>,
        run: sar_core::RunReport,
    ) -> Self {
        RunReport {
            experiment: experiment.into(),
            arch: arch.into(),
            mode: mode.into(),
            buffer_pool: Some(sar_comm::buffer::pool_stats()),
            run,
        }
    }

    /// `true` if any recorded epoch loss is NaN or infinite.
    pub fn has_non_finite_loss(&self) -> bool {
        self.run.losses.iter().any(|l| !l.is_finite())
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
    ///      "sent_bytes": [0, 0, 0, 0], "sent_messages": 0,
    ///      "val_acc": 0.9, "test_acc": 0.9, "test_acc_cs": null,
    ///      "epochs": [
    ///        {"loss": 1.5, "compute_secs": 0.1, "comm_secs": 0.0,
    ///         "sent_bytes": 0}
    ///      ],
    ///      "phases": [
    ///        {"phase": "forward_fetch", "layer": 0, "sent_bytes": 0, ...}
    ///      ]}
    ///   ]
    /// }
    /// ```
    ///
    /// Each `workers` element is one rank's record, the same JSON the
    /// gather ships ([`encode_rank`]). The members above it are
    /// aggregates over the records, written for readers of the file;
    /// [`RunReport::from_json`] recomputes them instead of reading them.
    /// Non-finite floats serialize as `null` (JSON has no NaN).
    pub fn to_json(&self) -> String {
        let run = &self.run;
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
            ("world", run.world.into()),
            ("losses", run.losses.iter().copied().collect()),
            (
                "epoch_times_secs",
                run.epoch_times.iter().copied().collect(),
            ),
            ("val_acc", run.val_acc.into()),
            ("test_acc", run.test_acc.into()),
            ("test_acc_cs", run.test_acc_cs.into()),
            ("buffer_pool", pool.into()),
            (
                "workers",
                run.ranks
                    .iter()
                    .enumerate()
                    .map(|(rank, record)| record_json(rank, record))
                    .collect(),
            ),
        ]);
        // One epoch or ledger row per line: top object, workers, worker,
        // its arrays.
        doc.pretty(4) + "\n"
    }

    /// Reads a report back from [`RunReport::to_json`] output: the labels
    /// and the buffer pool, and the `workers` records aggregated by
    /// [`sar_core::RunReport::from_ranks`].
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing or mistyped field (named), a `world`
    /// that is not the record count, or a bad record ([`gather`]'s
    /// errors, naming the rank).
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = json::parse(text)?;
        let ranks: Vec<RankRecord> = doc
            .req_arr("workers")?
            .iter()
            .enumerate()
            .map(|(rank, w)| record_from_json(rank, w))
            .collect::<Result<_, _>>()?;
        let world = doc.req_u64("world")?;
        if world != ranks.len() as u64 {
            return Err(format!(
                "field \"world\" is {world}, but \"workers\" holds {} records",
                ranks.len()
            ));
        }
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
            buffer_pool,
            run: aggregate(ranks)?,
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
        let losses: Vec<String> = self
            .run
            .losses
            .iter()
            .map(|l| format!("{:08x}", l.to_bits()))
            .collect();
        let _ = writeln!(s, "world {}", self.run.world);
        let _ = writeln!(s, "losses {}", losses.join(", "));
        for (rank, (_, comm)) in self.run.ranks.iter().enumerate() {
            for (phase, layer, e) in comm.ledger.rows() {
                let _ = writeln!(
                    s,
                    "w{rank} {}/{} sent={} recv={} smsg={} rmsg={}",
                    phase.name(),
                    layer.map_or("-".to_string(), |l| l.to_string()),
                    e.sent_bytes,
                    e.recv_bytes,
                    e.sent_messages,
                    e.recv_messages,
                );
            }
        }
        s
    }
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

    /// A distinct value in every [`PhaseEntry::FIELDS`] slot — slot `i`
    /// holds `base + i`, plus a quarter on the float columns — so a
    /// writer or reader that skips or swaps a column shows up as an
    /// inequality instead of passing on zeros.
    fn sentinel(base: u64) -> PhaseEntry {
        let mut e = PhaseEntry::default();
        for (i, field) in PhaseEntry::FIELDS.iter().enumerate() {
            match field.kind {
                FieldKind::Count(at) | FieldKind::Peak(at) => *at(&mut e) = base + i as u64,
                FieldKind::Micros(at) => *at(&mut e) = (base + i as u64) as f64 + 0.25,
            }
        }
        e
    }

    /// A rank record with every field away from its default, written
    /// with no `..`: a field added to `WorkerReport`, `EpochRecord` or
    /// `CommStats` does not compile here until the round trips below
    /// cover it.
    fn full_record() -> RankRecord {
        let mut ledger = PhaseLedger::default();
        *ledger.entry_mut(Phase::ForwardFetch, Some(2)) = sentinel(100);
        *ledger.entry_mut(Phase::GradRouting, None) = sentinel(1000);
        let report = WorkerReport {
            epochs: vec![
                EpochRecord {
                    loss: 1.25,
                    compute_secs: 0.5,
                    comm_secs: 0.25,
                    sent_bytes: 100,
                },
                EpochRecord {
                    loss: 0.75,
                    compute_secs: 0.4,
                    comm_secs: 0.2,
                    sent_bytes: 90,
                },
            ],
            val_acc: 0.5,
            test_acc: 0.625,
            test_acc_cs: Some(0.75),
            steady_peak_bytes: 4096,
            steady_peak_site: "sar_gat_aggregate \"backward\"".into(),
            logits: vec![1.0; 6],
            global_ids: vec![0, 1],
            params: Some(vec![(vec![2], vec![0.5, -0.5])]),
        };
        let comm = CommStats {
            sent_bytes: vec![10, 0, 99],
            sent_messages: 7,
            recv_bytes: 1234,
            comm_us: 42.5,
            ledger,
        };
        (report, comm)
    }

    /// What of a record travels: everything but node rows and parameters.
    fn travelled((report, comm): RankRecord) -> RankRecord {
        let report = WorkerReport {
            logits: Vec::new(),
            global_ids: Vec::new(),
            params: None,
            ..report
        };
        (report, comm)
    }

    fn sample_report() -> RunReport {
        let (mut report, comm) = travelled(full_record());
        report.epochs[1].loss = f32::NAN;
        report.test_acc_cs = None;
        RunReport {
            experiment: "smoke \"quoted\"".into(),
            arch: "sage".into(),
            mode: "sar".into(),
            buffer_pool: Some(PoolStats {
                hits: 10,
                misses: 4,
                recycles: 9,
                recycle_drops: 1,
            }),
            run: sar_core::RunReport::from_ranks(vec![(report, comm)]),
        }
    }

    #[test]
    fn a_rank_record_round_trips_every_field_through_the_gather_and_the_file() {
        let record = full_record();
        let want = travelled(record.clone());
        let run = gather(record.clone(), &[encode_rank(1, &record)]).expect("gather");
        assert_eq!(run.ranks[1], want);
        assert_eq!(run.ranks[0], record, "rank 0's own record is untouched");
        let report = RunReport::from_train("exp", "gat", "sar-fak", run);
        let text = report.to_json();
        let back = RunReport::from_json(&text).expect("own JSON reads back");
        assert_eq!(back.run.ranks, vec![want.clone(), want]);
        assert_eq!(back.to_json(), text);
        assert_eq!(back.parity_digest(), report.parity_digest());

        // Every `PhaseEntry::FIELDS` row is written under its own name.
        let doc = json::parse(&text).expect("own JSON parses");
        let row = &doc.items("workers")[1].items("phases")[0];
        assert_eq!(row.req_str("phase"), Ok("forward_fetch"));
        for (i, field) in PhaseEntry::FIELDS.iter().enumerate() {
            let want = match field.kind {
                FieldKind::Micros(_) => 100.25 + i as f64,
                _ => 100.0 + i as f64,
            };
            assert_eq!(row.req_num(field.name), Ok(want), "{}", field.name);
        }
    }

    #[test]
    fn the_gather_names_the_rank_of_a_bad_record() {
        let record = full_record();
        let body = encode_rank(1, &record);
        let err = |bodies: &[Vec<u8>]| gather(record.clone(), bodies).unwrap_err();
        let truncated = err(&[body[..body.len() - 1].to_vec()]);
        assert!(truncated.starts_with("rank 1: "), "{truncated}");
        let mut longer = body.clone();
        longer.extend_from_slice(b" 0");
        let trailing = err(&[longer]);
        assert!(trailing.starts_with("rank 1: ") && trailing.contains("trailing"));
        let binary = err(&[vec![0xff; 8]]);
        assert!(binary.starts_with("rank 1: "), "{binary}");
        let missing = err(&[String::from_utf8(body.clone())
            .unwrap()
            .replace("\"sent_messages\"", "\"sent_msgs\"")
            .into_bytes()]);
        assert!(missing.starts_with("rank 1: ") && missing.contains("sent_messages"));
        let relabeled = err(&[body.clone(), body]);
        assert_eq!(relabeled, "rank 2: record is labeled rank 1");
    }

    #[test]
    fn a_record_with_another_epoch_count_is_an_error_naming_the_rank() {
        let record = full_record();
        let mut short = record.clone();
        short.0.epochs.pop();
        let err = gather(record.clone(), &[encode_rank(1, &short)]).unwrap_err();
        assert_eq!(err, "rank 1: 1 epochs, rank 0 has 2");
        // The file reader runs the same check: here rank 0 is the short one
        // (which `from_ranks` itself would not notice).
        let run = sar_core::RunReport::from_ranks(vec![travelled(short), travelled(record)]);
        let text = RunReport::from_train("exp", "gat", "sar-fak", run).to_json();
        let err = RunReport::from_json(&text).unwrap_err();
        assert_eq!(err, "rank 1: 2 epochs, rank 0 has 1");
    }

    #[test]
    fn gathered_ranks_aggregate_like_in_process_ones() {
        let (mut a, comm_a) = full_record();
        let (mut b, comm_b) = full_record();
        a.epochs[0].compute_secs = 1.0;
        b.epochs[0].comm_secs = 2.0;
        b.val_acc = 0.0; // must be ignored: rank 0 wins
        let run = gather((a, comm_a), &[encode_rank(1, &(b, comm_b))]).unwrap();
        assert_eq!(run.world, 2);
        assert_eq!(run.epoch_times[0], 1.0 + 2.0);
        assert_eq!(run.val_acc, 0.5);
        assert_eq!(run.losses, vec![1.25, 0.75]);
        assert_eq!(run.total_sent_bytes(), 2 * 109);
        assert_eq!(run.max_peak_bytes(), 4096);
    }

    #[test]
    fn json_escapes_and_nulls() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.contains(r#""experiment": "smoke \"quoted\"""#));
        assert!(json.contains(r#""steady_peak_site": "sar_gat_aggregate \"backward\"""#));
        // NaN loss must serialize as null, not a bare NaN token.
        assert!(json.contains("\"losses\": [1.25, null]"));
        assert!(json.contains(r#"{"loss": null, "compute_secs": 0.4"#));
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"test_acc_cs\": null"));
        assert!(json.contains(r#""phase": "forward_fetch", "layer": 2"#));
        assert!(json.contains(r#""phase": "grad_routing", "layer": null"#));
        assert!(json.contains(r#""sent_bytes": [10, 0, 99]"#));
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
        assert_eq!(back.run.epoch_times, r.run.epoch_times);
        assert_eq!(back.buffer_pool, r.buffer_pool);
        assert!(back.run.losses[1].is_nan(), "null reads back as NaN");
        assert_eq!(back.run.test_acc_cs, None);
        // An absent buffer pool survives too.
        let mut r = r;
        r.buffer_pool = None;
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.buffer_pool, None);
    }

    #[test]
    fn from_json_names_what_is_wrong() {
        let good = sample_report().to_json();
        let err = RunReport::from_json(&good.replace("forward_fetch", "sideways")).unwrap_err();
        assert!(err.contains("rank 0") && err.contains("sideways"), "{err}");
        let err = RunReport::from_json(&good.replace("\"world\"", "\"wrld\"")).unwrap_err();
        assert!(err.contains("world"), "{err}");
        let err = RunReport::from_json(&good.replace("\"world\": 1", "\"world\": 2")).unwrap_err();
        assert!(err.contains("\"world\" is 2"), "{err}");
        // A renamed array is an error, never a silently empty default.
        let err = RunReport::from_json(&good.replace("\"epochs\"", "\"epoks\"")).unwrap_err();
        assert!(
            err.contains("rank 0") && err.contains("\"epochs\""),
            "{err}"
        );
        let empty = good
            .replace("\"world\": 1", "\"world\": 0")
            .replace("\"workers\": [", "\"workers\": [], \"x\": [");
        let err = RunReport::from_json(&empty).unwrap_err();
        assert!(err.contains("no rank records"), "{err}");
        assert!(RunReport::from_json("{").is_err());
    }

    #[test]
    fn non_finite_loss_detected() {
        let mut r = sample_report();
        assert!(r.has_non_finite_loss());
        r.run.losses = vec![1.0, 0.5];
        assert!(!r.has_non_finite_loss());
    }

    #[test]
    fn parity_digest_ignores_timings_but_pins_bytes_and_losses() {
        let a = sample_report();
        fn cell(r: &mut RunReport) -> &mut PhaseEntry {
            r.run.ranks[0]
                .1
                .ledger
                .entry_mut(Phase::ForwardFetch, Some(2))
        }
        let mut b = sample_report();
        // Timings and peaks vary run to run — the digest must not see them.
        let e = cell(&mut b);
        (e.cpu_us, e.wall_us, e.blocked_us, e.comm_us) = (999.0, 999.0, 999.0, 999.0);
        e.peak_tensor_bytes = 999;
        // Disk-tier traffic legitimately differs between spill-on and
        // spill-off runs of the same training — the digest must not see it.
        (e.spill_bytes, e.fault_bytes, e.disk_blocked_us) = (999, 999, 999.0);
        b.run.ranks[0].0.steady_peak_bytes = 999;
        b.buffer_pool = None;
        b.run.epoch_times = vec![9.0];
        assert_eq!(a.parity_digest(), b.parity_digest());
        // A single flipped loss bit or ledger byte must break the digest.
        let mut c = sample_report();
        c.run.losses[0] = f32::from_bits(c.run.losses[0].to_bits() ^ 1);
        assert_ne!(a.parity_digest(), c.parity_digest());
        let mut d = sample_report();
        cell(&mut d).recv_bytes += 1;
        assert_ne!(a.parity_digest(), d.parity_digest());
    }
}
