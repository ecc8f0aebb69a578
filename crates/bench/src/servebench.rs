//! `repro servebench` — closed-loop serving benchmark with a committed,
//! CI-gated `BENCH_serve.json`.
//!
//! Spawns a real `sar-serve` cluster (one OS process per rank over TCP
//! loopback), writes a seeded checkpoint for the workers to load, then
//! drives the rank-0 front-end from closed-loop client threads: each
//! client connects, issues its deterministic query sequence, and only
//! sends the next request after the previous answer lands. Per-request
//! wall latency is recorded client-side; p50/p99 and QPS are derived
//! from the union of all clients' samples. After the load, one control
//! connection fetches the engine's cumulative counters and requests the
//! graceful shutdown that lets every rank exit.
//!
//! Following the `BENCH_kernels.json` precedent, the committed artifact
//! is never compared on absolute numbers — latency and QPS are
//! machine-dependent. The gate checks *structure and invariants*
//! instead:
//!
//! * schema identity (a mismatch means the artifact is stale —
//!   regenerate with `repro servebench --out BENCH_serve.json`),
//! * run-set identity (the architecture list must match),
//! * per run, in both the fresh and the committed report: QPS positive
//!   and finite, `0 < p50 ≤ p99`, every issued query answered, and the
//!   paper-facing acceptance bound — cumulative measured MFG fetch
//!   bytes strictly below what full-graph rotation forwards over the
//!   same batches would have fetched.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_serve::ServeClient;

use crate::json::{fixed, obj, Value};

use crate::cli::{parse_committed, Args, GatedBench};
use crate::distrun::Workload;
use crate::launcher::RankChildren;

/// Schema tag written into (and required from) `BENCH_serve.json`.
/// Bump whenever the workload, the counters or the field layout change;
/// the gate refuses to compare across schema versions.
pub const SCHEMA: &str = "sar-servebench/v1";

/// The benchmark workload: everything needed to rebuild the cluster and
/// the client load deterministically.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Cluster size (OS processes).
    pub world: usize,
    /// Synthetic products-like node count.
    pub nodes: usize,
    /// Architectures to benchmark, one run per entry.
    pub archs: Vec<String>,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Requests each client issues.
    pub requests: usize,
    /// Node ids per query request.
    pub ids_per_request: usize,
    /// Front-end batch coalescing bound.
    pub max_batch: usize,
    /// Front-end batch coalescing delay, microseconds.
    pub max_delay_us: u64,
    /// Per-rank embedding-cache row budget.
    pub cache_rows: usize,
    /// Intra-rank kernel threads.
    pub threads: usize,
    /// SIMD dispatch mode the ranks run under.
    pub simd: String,
    /// Seed for the dataset, the parameters and the query streams.
    pub seed: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            world: 4,
            nodes: 900,
            archs: vec!["sage".into(), "gat".into()],
            clients: 3,
            requests: 20,
            ids_per_request: 8,
            max_batch: 16,
            max_delay_us: 1_000,
            cache_rows: 4096,
            threads: 1,
            simd: "auto".into(),
            seed: 0,
        }
    }
}

/// One architecture's measured serving run.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Architecture name (`"sage"`, `"gcn"`, `"gat"`).
    pub arch: String,
    /// Closed-loop clients driving the front-end.
    pub clients: usize,
    /// Total requests issued across clients.
    pub requests: usize,
    /// Node ids per request.
    pub ids_per_request: usize,
    /// Requests per second over the whole load window.
    pub qps: f64,
    /// Median per-request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: f64,
    /// Mean per-request latency, microseconds.
    pub mean_us: f64,
    /// Query batches the engine executed (coalescing merges requests).
    pub batches: u64,
    /// Individual node queries answered.
    pub queries: u64,
    /// Cumulative measured MFG fetch bytes across batches.
    pub fetch_bytes: u64,
    /// Per-batch full-graph forward fetch prediction — the ceiling
    /// `fetch_bytes` must stay strictly below `batches ×` this.
    pub full_forward_bytes: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
}

/// A full servebench run: the workload identity plus per-arch results.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Cluster size.
    pub world: usize,
    /// Dataset node count.
    pub nodes: usize,
    /// Kernel threads per rank.
    pub threads: usize,
    /// SIMD mode label the ranks ran under.
    pub simd: String,
    /// Per-architecture runs, in configured order.
    pub runs: Vec<ServeRun>,
}

// ----------------------------------------------------------------------
// Driving the cluster
// ----------------------------------------------------------------------

/// The deterministic id stream one client queries: uniform over the
/// node range, seeded per (run seed, client index) so re-runs replay
/// the exact same load.
fn client_ids(
    seed: u64,
    client: usize,
    requests: usize,
    per_req: usize,
    nodes: usize,
) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x5EED_C0DE + client as u64));
    (0..requests)
        .map(|_| {
            (0..per_req)
                .map(|_| rng.random_range(0..nodes as u32))
                .collect()
        })
        .collect()
}

/// A percentile over an ascending-sorted sample set (nearest-rank).
fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.saturating_sub(1).min(sorted_us.len() - 1)]
}

/// Runs the closed-loop load against a live front-end: `clients`
/// threads, each replaying its deterministic query stream, then one
/// control connection for stats + shutdown. Returns the per-request
/// latencies (microseconds), the load window in seconds (first connect
/// to last answer — the stats/shutdown exchange is outside it), and the
/// engine's final counters.
fn drive_load(
    addr: &str,
    cfg: &ServeBenchConfig,
) -> Result<(Vec<f64>, f64, sar_serve::StatsSnapshot), String> {
    let started = Instant::now();
    let mut handles = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let addr = addr.to_string();
        let ids = client_ids(cfg.seed, c, cfg.requests, cfg.ids_per_request, cfg.nodes);
        let expect_rows = cfg.ids_per_request;
        handles.push(std::thread::spawn(move || -> Result<Vec<f64>, String> {
            let mut client = ServeClient::connect(addr.as_str())
                .map_err(|e| format!("client {c}: connect: {e}"))?;
            client
                .set_timeout(Some(Duration::from_secs(120)))
                .map_err(|e| format!("client {c}: {e}"))?;
            let mut lat = Vec::with_capacity(ids.len());
            for req in &ids {
                let t = Instant::now();
                let logits = client
                    .query(req)
                    .map_err(|e| format!("client {c}: query: {e}"))?;
                lat.push(t.elapsed().as_secs_f64() * 1e6);
                if logits.rows() != expect_rows {
                    return Err(format!(
                        "client {c}: got {} logit rows for {expect_rows} queried ids",
                        logits.rows()
                    ));
                }
            }
            Ok(lat)
        }));
    }
    let mut latencies = Vec::with_capacity(cfg.clients * cfg.requests);
    let mut errors = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(lat)) => latencies.extend(lat),
            Ok(Err(e)) => errors.push(e),
            Err(_) => errors.push("a client thread panicked".into()),
        }
    }
    let wall = started.elapsed();

    // Stats + graceful shutdown go over their own connection, after the
    // load, so they never perturb the measured window. Shutdown must be
    // attempted even when clients failed — otherwise the cluster leaks.
    let control = (|| -> Result<sar_serve::StatsSnapshot, String> {
        let mut control =
            ServeClient::connect(addr).map_err(|e| format!("control connect: {e}"))?;
        control
            .set_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
        control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        Ok(stats)
    })();
    let stats = match control {
        Ok(s) => s,
        Err(e) => {
            errors.push(e);
            sar_serve::StatsSnapshot::default()
        }
    };
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    Ok((latencies, wall.as_secs_f64(), stats))
}

/// Benchmarks one architecture: spawn the cluster, drive the load, wait
/// for a clean exit, distill the run record.
fn bench_arch(exe: &Path, cfg: &ServeBenchConfig, arch: &str) -> Result<ServeRun, String> {
    let uniq = format!("{}-{arch}", std::process::id());
    let client_addr = std::env::temp_dir().join(format!("sar-servebench-{uniq}.client"));
    let ckpt = std::env::temp_dir().join(format!("sar-servebench-{uniq}.ckpt"));
    let _ = std::fs::remove_file(&client_addr);

    // Write the checkpoint the workers load: the seeded deterministic
    // initialization for this exact (dataset, arch) pair, saved through
    // the real checkpoint codec so the serving path exercises a genuine
    // load-from-disk.
    {
        let workload = serve_workload(cfg, arch);
        let (dataset, _part) = workload.build_data(cfg.world)?;
        let model_cfg = crate::serverun::serve_model_config(&workload, &dataset)?;
        let params =
            crate::serverun::load_or_init_params(&model_cfg, &dataset, workload.label_aug, None)?;
        let f = std::fs::File::create(&ckpt)
            .map_err(|e| format!("cannot create checkpoint {}: {e}", ckpt.display()))?;
        sar_core::checkpoint::save_raw_params(&params, std::io::BufWriter::new(f))
            .map_err(|e| format!("cannot write checkpoint {}: {e}", ckpt.display()))?;
    }

    // `sar-serve` parses the whole workload vocabulary and ignores the
    // training-only fields, so one flag list drives both binaries.
    let mut args = serve_workload(cfg, arch).to_args();
    args.extend([
        "--checkpoint".to_string(),
        ckpt.display().to_string(),
        "--client-addr-file".to_string(),
        client_addr.display().to_string(),
        "--max-batch".to_string(),
        cfg.max_batch.to_string(),
        "--max-delay-us".to_string(),
        cfg.max_delay_us.to_string(),
        "--cache-rows".to_string(),
        cfg.cache_rows.to_string(),
    ]);
    eprintln!(
        "[servebench] {arch}: spawning {} rank processes, {} clients × {} requests × {} ids ...",
        cfg.world, cfg.clients, cfg.requests, cfg.ids_per_request
    );
    // Spawned without waiting, so the load below runs against the live
    // front-end.
    let children = RankChildren::spawn(exe, cfg.world, &args)?;

    let result = (|| -> Result<ServeRun, String> {
        let addr = crate::launcher::read_rendezvous_addr(&client_addr, Duration::from_secs(60))
            .map_err(|e| format!("front-end never published its client address: {e}"))?;
        let (mut latencies, wall_secs, stats) = drive_load(&addr, cfg)?;
        latencies.sort_by(|a, b| a.total_cmp(b));
        let requests = latencies.len();
        let mean_us = latencies.iter().sum::<f64>() / requests.max(1) as f64;
        Ok(ServeRun {
            arch: arch.to_string(),
            clients: cfg.clients,
            requests,
            ids_per_request: cfg.ids_per_request,
            qps: requests as f64 / wall_secs.max(1e-9),
            p50_us: percentile(&latencies, 50.0),
            p99_us: percentile(&latencies, 99.0),
            mean_us,
            batches: stats.batches,
            queries: stats.queries,
            fetch_bytes: stats.fetch_bytes,
            full_forward_bytes: stats.full_forward_bytes,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
        })
    })();

    let exits = children.wait();
    let _ = std::fs::remove_file(&client_addr);
    let _ = std::fs::remove_file(&ckpt);
    match (result, exits) {
        (Ok(run), Ok(())) => Ok(run),
        (Ok(_), Err(failures)) => Err(format!("{arch}: {failures}")),
        (Err(e), Ok(())) => Err(format!("{arch}: {e}")),
        (Err(e), Err(failures)) => Err(format!("{arch}: {e}; {failures}")),
    }
}

/// The serving workload for one architecture (reuses the training
/// workload vocabulary; training-only fields are ignored by serving).
fn serve_workload(cfg: &ServeBenchConfig, arch: &str) -> Workload {
    Workload {
        dataset: "products".into(),
        nodes: cfg.nodes,
        arch: arch.to_string(),
        hidden: if arch == "gat" { 8 } else { 32 },
        heads: 4,
        mode: "sar".into(),
        layers: 2,
        seed: cfg.seed,
        threads: cfg.threads,
        simd: cfg.simd.clone(),
        ..Workload::default()
    }
}

// ----------------------------------------------------------------------
// The CI gate
// ----------------------------------------------------------------------

/// Invariants one run record must satisfy, fresh or committed. Latency
/// and QPS magnitudes are machine-dependent and never compared — only
/// their internal consistency is.
fn run_invariants(label: &str, run: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    let num = |k: &str| run.get(k).and_then(Value::num);
    let arch = run.get("arch").and_then(Value::str).unwrap_or("?");
    let ctx = format!("{label} run {arch}");
    let Some(qps) = num("qps") else {
        return vec![format!("{ctx}: missing qps")];
    };
    if !(qps.is_finite() && qps > 0.0) {
        violations.push(format!("{ctx}: qps {qps} is not positive and finite"));
    }
    match (num("p50_us"), num("p99_us")) {
        (Some(p50), Some(p99)) => {
            if !(p50 > 0.0 && p99 >= p50) {
                violations.push(format!(
                    "{ctx}: latency percentiles are inconsistent (p50={p50}, p99={p99})"
                ));
            }
        }
        _ => violations.push(format!("{ctx}: missing latency percentiles")),
    }
    match (
        num("queries"),
        num("requests"),
        num("ids_per_request"),
        num("batches"),
    ) {
        (Some(q), Some(r), Some(ipr), Some(b)) => {
            if q < r {
                violations.push(format!(
                    "{ctx}: {q} queries answered for {r} requests — requests were dropped"
                ));
            }
            if q != r * ipr {
                violations.push(format!(
                    "{ctx}: {q} queries ≠ {r} requests × {ipr} ids — the ledger is inconsistent"
                ));
            }
            if !(b > 0.0 && b <= r) {
                violations.push(format!(
                    "{ctx}: {b} batches for {r} requests — coalescing can only merge, not split"
                ));
            }
            match (num("fetch_bytes"), num("full_forward_bytes")) {
                (Some(fetch), Some(full)) => {
                    if fetch <= 0.0 {
                        violations.push(format!("{ctx}: no fetch traffic recorded"));
                    }
                    if fetch >= full * b {
                        violations.push(format!(
                            "{ctx}: MFG fetch bytes {fetch} are not strictly below the \
                             full-graph forward ceiling {} ({full} × {b} batches) — \
                             per-query compute is not restricted",
                            full * b
                        ));
                    }
                }
                _ => violations.push(format!("{ctx}: missing fetch-byte counters")),
            }
        }
        _ => violations.push(format!("{ctx}: missing request/query/batch counters")),
    }
    violations
}

// ----------------------------------------------------------------------
// The `repro servebench` subcommand: flags, artifact and CI gate
// ----------------------------------------------------------------------

impl ServeBenchReport {
    /// The run records as they appear in the artifact — the form the
    /// invariants are checked on, fresh and committed alike.
    fn run_records(&self) -> Vec<Value> {
        let record = |r: &ServeRun| {
            obj([
                ("arch", r.arch.as_str().into()),
                ("clients", r.clients.into()),
                ("requests", r.requests.into()),
                ("ids_per_request", r.ids_per_request.into()),
                ("qps", fixed(r.qps, 4)),
                ("p50_us", fixed(r.p50_us, 4)),
                ("p99_us", fixed(r.p99_us, 4)),
                ("mean_us", fixed(r.mean_us, 4)),
                ("batches", r.batches.into()),
                ("queries", r.queries.into()),
                ("fetch_bytes", r.fetch_bytes.into()),
                ("full_forward_bytes", r.full_forward_bytes.into()),
                ("cache_hits", r.cache_hits.into()),
                ("cache_misses", r.cache_misses.into()),
            ])
        };
        self.runs.iter().map(record).collect()
    }
}

impl GatedBench for ServeBenchReport {
    const NAME: &'static str = "servebench";
    type Config = ServeBenchConfig;

    fn apply_flag(cfg: &mut Self::Config, flag: &str, args: &mut Args) -> Result<bool, String> {
        let at_least_one = |args: &mut Args| args.parsed::<usize>(flag).map(|n| n.max(1));
        match flag {
            "--world" => cfg.world = at_least_one(args)?,
            "--nodes" => cfg.nodes = args.parsed(flag)?,
            "--archs" => cfg.archs = args.parsed_list(flag)?,
            "--clients" => cfg.clients = at_least_one(args)?,
            "--requests" => cfg.requests = at_least_one(args)?,
            "--ids-per-request" => cfg.ids_per_request = at_least_one(args)?,
            "--max-batch" => cfg.max_batch = at_least_one(args)?,
            "--max-delay-us" => cfg.max_delay_us = args.parsed(flag)?,
            "--cache-rows" => cfg.cache_rows = args.parsed(flag)?,
            "--threads" => cfg.threads = at_least_one(args)?,
            "--simd" => {
                cfg.simd = args.value(flag)?;
                if sar_tensor::simd::parse_mode(&cfg.simd).is_none() {
                    return Err(format!("--simd must be auto or scalar, not {}", cfg.simd));
                }
            }
            "--seed" => cfg.seed = args.parsed(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Runs the full benchmark: one `sar-serve` cluster per configured
    /// architecture.
    fn run(cfg: &Self::Config) -> Result<Self, String> {
        let exe = crate::launcher::sibling_binary("sar-serve")?;
        let mut runs = Vec::with_capacity(cfg.archs.len());
        for arch in &cfg.archs {
            runs.push(bench_arch(&exe, cfg, arch)?);
        }
        Ok(ServeBenchReport {
            world: cfg.world,
            nodes: cfg.nodes,
            threads: cfg.threads,
            simd: cfg.simd.clone(),
            runs,
        })
    }

    /// Pretty-prints the report as an aligned table on stderr.
    fn print(&self) {
        eprintln!(
            "[servebench] world={} nodes={} threads={} simd={}",
            self.world, self.nodes, self.threads, self.simd
        );
        eprintln!(
            "{:<6} {:>8} {:>9} {:>11} {:>11} {:>9} {:>12} {:>14} {:>7}",
            "arch",
            "requests",
            "qps",
            "p50_us",
            "p99_us",
            "batches",
            "fetch_B",
            "full_fwd_B",
            "hits"
        );
        for r in &self.runs {
            eprintln!(
                "{:<6} {:>8} {:>9.1} {:>11.1} {:>11.1} {:>9} {:>12} {:>14} {:>7}",
                r.arch,
                r.requests,
                r.qps,
                r.p50_us,
                r.p99_us,
                r.batches,
                r.fetch_bytes,
                r.full_forward_bytes * r.batches,
                r.cache_hits
            );
        }
    }

    /// The schema-versioned `BENCH_serve.json` document.
    fn to_json(&self) -> String {
        let doc = obj([
            ("schema", SCHEMA.into()),
            ("world", self.world.into()),
            ("nodes", self.nodes.into()),
            ("threads", self.threads.into()),
            ("simd", self.simd.as_str().into()),
            ("runs", Value::Arr(self.run_records())),
        ]);
        doc.pretty(2) + "\n"
    }

    /// Compares a fresh report against the committed `BENCH_serve.json`.
    /// Hard-fails on a schema or run-set mismatch (the artifact is stale
    /// — regenerate it); both the fresh and the committed records must
    /// satisfy the per-run invariants listed in the module docs.
    fn check_against(&self, committed_text: &str) -> Vec<String> {
        let committed = match parse_committed::<Self>(committed_text, SCHEMA) {
            Ok(doc) => doc,
            Err(e) => return vec![e],
        };
        let mut violations = Vec::new();
        let committed_runs = committed.items("runs");
        let committed_archs: Vec<&str> = committed_runs
            .iter()
            .filter_map(|r| r.get("arch").and_then(Value::str))
            .collect();
        let current_archs: Vec<&str> = self.runs.iter().map(|r| r.arch.as_str()).collect();
        for arch in &committed_archs {
            if !current_archs.contains(arch) {
                violations.push(format!(
                    "run \"{arch}\" is committed but was not produced — the workload changed; \
                     regenerate BENCH_serve.json"
                ));
            }
        }
        for arch in &current_archs {
            if !committed_archs.contains(arch) {
                violations.push(format!(
                    "run \"{arch}\" is new (not committed) — regenerate BENCH_serve.json"
                ));
            }
        }
        for run in committed_runs {
            violations.extend(run_invariants("committed", run));
        }
        // The fresh report is validated through its artifact records so
        // both sides go through the identical field checks.
        for run in &self.run_records() {
            violations.extend(run_invariants("current", run));
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_report() -> ServeBenchReport {
        ServeBenchReport {
            world: 4,
            nodes: 900,
            threads: 1,
            simd: "auto".into(),
            runs: vec![
                ServeRun {
                    arch: "sage".into(),
                    clients: 3,
                    requests: 60,
                    ids_per_request: 8,
                    qps: 250.0,
                    p50_us: 1500.0,
                    p99_us: 9000.0,
                    mean_us: 2000.0,
                    batches: 40,
                    queries: 480,
                    fetch_bytes: 100_000,
                    full_forward_bytes: 50_000,
                    cache_hits: 12,
                    cache_misses: 300,
                },
                ServeRun {
                    arch: "gat".into(),
                    clients: 3,
                    requests: 60,
                    ids_per_request: 8,
                    qps: 120.0,
                    p50_us: 3000.0,
                    p99_us: 15000.0,
                    mean_us: 4000.0,
                    batches: 35,
                    queries: 480,
                    fetch_bytes: 220_000,
                    full_forward_bytes: 90_000,
                    cache_hits: 4,
                    cache_misses: 400,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_and_passes_against_itself() {
        let r = sample_report();
        let doc = json::parse(&r.to_json()).expect("own JSON must parse");
        assert_eq!(doc.req_str("schema"), Ok(SCHEMA));
        assert_eq!(doc.items("runs").len(), 2);
        assert!(r.check_against(&r.to_json()).is_empty());
    }

    #[test]
    fn timings_may_drift_but_structure_may_not() {
        let r = sample_report();
        let committed = r.to_json();
        // Latency and QPS drift freely.
        let mut fast = r.clone();
        fast.runs[0].qps *= 50.0;
        fast.runs[0].p50_us /= 30.0;
        fast.runs[0].p99_us /= 30.0;
        assert!(fast.check_against(&committed).is_empty());
        // A missing run is structural drift.
        let mut fewer = r.clone();
        fewer.runs.pop();
        assert!(fewer
            .check_against(&committed)
            .iter()
            .any(|v| v.contains("not produced")));
        // A new run needs a regenerated artifact.
        let mut extra = r.clone();
        extra.runs.push(ServeRun {
            arch: "gcn".into(),
            ..r.runs[0].clone()
        });
        assert!(extra
            .check_against(&committed)
            .iter()
            .any(|v| v.contains("new")));
        // Schema identity is hard.
        let stale = committed.replace(SCHEMA, "sar-servebench/v0");
        assert!(r.check_against(&stale)[0].contains("schema"));
    }

    #[test]
    fn gate_rejects_unrestricted_compute_and_dropped_requests() {
        let r = sample_report();
        let committed = r.to_json();
        // MFG fetch at (or above) the full-forward ceiling = the
        // restriction is gone.
        let mut unrestricted = r.clone();
        unrestricted.runs[0].fetch_bytes =
            unrestricted.runs[0].full_forward_bytes * unrestricted.runs[0].batches;
        assert!(unrestricted
            .check_against(&committed)
            .iter()
            .any(|v| v.contains("not restricted")));
        // Dropped queries are a correctness failure, not noise.
        let mut dropped = r.clone();
        dropped.runs[1].queries -= 8;
        assert!(dropped
            .check_against(&committed)
            .iter()
            .any(|v| v.contains("inconsistent") || v.contains("dropped")));
        // A corrupt committed artifact must also fail.
        let corrupt = committed.replace("\"batches\": 40", "\"batches\": 0");
        assert!(r
            .check_against(&corrupt)
            .iter()
            .any(|v| v.contains("coalescing")));
    }

    #[test]
    fn client_id_streams_are_deterministic_and_in_range() {
        let a = client_ids(7, 2, 5, 4, 100);
        let b = client_ids(7, 2, 5, 4, 100);
        assert_eq!(a, b);
        assert_ne!(a, client_ids(7, 3, 5, 4, 100));
        assert!(a.iter().flatten().all(|&id| id < 100));
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|req| req.len() == 4));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
