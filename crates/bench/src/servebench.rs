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
//! machine-dependent. [`crate::cli::check`] compares the workload
//! identity, the architecture set and the pinned load shape, and both the
//! fresh and the committed document must satisfy [`ServeBench`]'s
//! invariants: QPS positive and finite, `0 < p50 ≤ p99`, every issued
//! query answered, coalescing that only merges, and the paper-facing
//! acceptance bound — cumulative measured MFG fetch bytes strictly below
//! what full-graph rotation forwards over the same batches would have
//! fetched. How many batches a load coalesces into depends on arrival
//! times inside the `MAX_DELAY_US` window, so `batches`, `fetch_bytes`
//! and the cache counters are record-only.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_serve::ServeClient;

use crate::json::{fixed, obj, Value};

use crate::cli::{rules, Args, Fields, GatedBench, Records};
use crate::distrun::Workload;
use crate::launcher::RankChildren;

/// Cluster size (OS processes).
const WORLD: usize = 4;
/// Synthetic products-like node count.
const NODES: usize = 900;
/// Architectures benchmarked, one run each.
const ARCHS: [&str; 2] = ["sage", "gat"];
/// Closed-loop client connections.
const CLIENTS: usize = 3;
/// Requests each client issues.
const REQUESTS: usize = 20;
/// Node ids per query request.
const IDS_PER_REQUEST: usize = 8;
/// Front-end batch coalescing bound.
const MAX_BATCH: usize = 16;
/// Front-end batch coalescing delay, microseconds.
const MAX_DELAY_US: u64 = 1_000;
/// Per-rank embedding-cache row budget.
const CACHE_ROWS: usize = 4096;
/// Intra-rank kernel threads.
const THREADS: usize = 1;
/// SIMD dispatch mode the ranks run under.
const SIMD: &str = "auto";
/// Seed for the dataset, the parameters and the query streams.
const SEED: u64 = 0;

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

/// Runs the closed-loop load against a live front-end: [`CLIENTS`]
/// threads, each replaying its deterministic query stream, then one
/// control connection for stats + shutdown. Returns the per-request
/// latencies (microseconds), the load window in seconds (first connect
/// to last answer — the stats/shutdown exchange is outside it), and the
/// engine's final counters.
fn drive_load(addr: &str) -> Result<(Vec<f64>, f64, sar_serve::StatsSnapshot), String> {
    let started = Instant::now();
    let mut handles = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let addr = addr.to_string();
        let ids = client_ids(SEED, c, REQUESTS, IDS_PER_REQUEST, NODES);
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
                if logits.rows() != IDS_PER_REQUEST {
                    return Err(format!(
                        "client {c}: got {} logit rows for {IDS_PER_REQUEST} queried ids",
                        logits.rows()
                    ));
                }
            }
            Ok(lat)
        }));
    }
    let mut latencies = Vec::with_capacity(CLIENTS * REQUESTS);
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
fn bench_arch(exe: &Path, arch: &str) -> Result<Value, String> {
    let uniq = format!("{}-{arch}", std::process::id());
    let client_addr = std::env::temp_dir().join(format!("sar-servebench-{uniq}.client"));
    let ckpt = std::env::temp_dir().join(format!("sar-servebench-{uniq}.ckpt"));
    let _ = std::fs::remove_file(&client_addr);

    // Write the checkpoint the workers load: the seeded deterministic
    // initialization for this exact (dataset, arch) pair, saved through
    // the real checkpoint codec so the serving path exercises a genuine
    // load-from-disk.
    {
        let workload = serve_workload(arch);
        let (dataset, _part) = workload.build_data(WORLD)?;
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
    let mut args = serve_workload(arch).to_args();
    args.extend([
        "--checkpoint".to_string(),
        ckpt.display().to_string(),
        "--client-addr-file".to_string(),
        client_addr.display().to_string(),
        "--max-batch".to_string(),
        MAX_BATCH.to_string(),
        "--max-delay-us".to_string(),
        MAX_DELAY_US.to_string(),
        "--cache-rows".to_string(),
        CACHE_ROWS.to_string(),
    ]);
    eprintln!(
        "[servebench] {arch}: spawning {WORLD} rank processes, {CLIENTS} clients × \
         {REQUESTS} requests × {IDS_PER_REQUEST} ids ..."
    );
    // Spawned without waiting, so the load below runs against the live
    // front-end.
    let children = RankChildren::spawn(exe, WORLD, &args)?;

    let result = (|| -> Result<Value, String> {
        let addr = crate::launcher::read_rendezvous_addr(&client_addr, Duration::from_secs(60))
            .map_err(|e| format!("front-end never published its client address: {e}"))?;
        let (mut latencies, wall_secs, stats) = drive_load(&addr)?;
        latencies.sort_by(|a, b| a.total_cmp(b));
        let requests = latencies.len();
        let mean_us = latencies.iter().sum::<f64>() / requests.max(1) as f64;
        Ok(obj([
            ("arch", arch.into()),
            ("clients", CLIENTS.into()),
            ("requests", requests.into()),
            ("ids_per_request", IDS_PER_REQUEST.into()),
            ("qps", fixed(requests as f64 / wall_secs.max(1e-9), 4)),
            ("p50_us", fixed(percentile(&latencies, 50.0), 4)),
            ("p99_us", fixed(percentile(&latencies, 99.0), 4)),
            ("mean_us", fixed(mean_us, 4)),
            ("batches", stats.batches.into()),
            ("queries", stats.queries.into()),
            ("fetch_bytes", stats.fetch_bytes.into()),
            ("full_forward_bytes", stats.full_forward_bytes.into()),
            ("cache_hits", stats.cache_hits.into()),
            ("cache_misses", stats.cache_misses.into()),
        ]))
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
fn serve_workload(arch: &str) -> Workload {
    Workload {
        dataset: "products".into(),
        nodes: NODES,
        arch: arch.to_string(),
        hidden: if arch == "gat" { 8 } else { 32 },
        heads: 4,
        mode: "sar".into(),
        layers: 2,
        seed: SEED,
        threads: THREADS,
        simd: SIMD.into(),
        ..Workload::default()
    }
}

// ----------------------------------------------------------------------
// The `repro servebench` subcommand and its gate
// ----------------------------------------------------------------------

/// `repro servebench` and its `BENCH_serve.json` declaration: every
/// constant that shapes the cluster and the load is an identity field;
/// runs are named by `arch`, and the load shape, the answered queries and
/// the per-batch full-graph prediction are pinned.
#[derive(Debug)]
pub struct ServeBench;

impl GatedBench for ServeBench {
    const NAME: &'static str = "servebench";
    /// v2: the artifact records `max_batch`, `max_delay_us`, `cache_rows`
    /// and `seed`.
    const SCHEMA: &'static str = "sar-servebench/v2";
    const IDENTITY: &'static [&'static str] = &[
        "world",
        "nodes",
        "threads",
        "simd",
        "max_batch",
        "max_delay_us",
        "cache_rows",
        "seed",
    ];
    const TABLES: &'static [Records] = &[Records {
        table: "runs",
        key: &["arch"],
        pinned: &[
            "clients",
            "requests",
            "ids_per_request",
            "queries",
            "full_forward_bytes",
        ],
    }];
    type Config = ();

    fn apply_flag(_: &mut (), _: &str, _: &mut Args) -> Result<bool, String> {
        Ok(false)
    }

    /// One `sar-serve` cluster per architecture.
    fn run(_: &()) -> Result<Fields, String> {
        let exe = crate::launcher::sibling_binary("sar-serve")?;
        let runs = ARCHS.iter().map(|arch| bench_arch(&exe, arch));
        Ok(vec![
            ("world", WORLD.into()),
            ("nodes", NODES.into()),
            ("threads", THREADS.into()),
            ("simd", SIMD.into()),
            ("max_batch", MAX_BATCH.into()),
            ("max_delay_us", MAX_DELAY_US.into()),
            ("cache_rows", CACHE_ROWS.into()),
            ("seed", SEED.into()),
            ("runs", Value::Arr(runs.collect::<Result<_, _>>()?)),
        ])
    }

    /// Latency and QPS magnitudes are never compared — only their
    /// internal consistency is.
    fn invariants(label: &str, doc: &Value) -> Vec<String> {
        rules(label, |v| {
            for run in doc.req_arr("runs")? {
                let ctx = format!("{label} run {}", run.req_str("arch")?);
                let num = |k: &str| run.req_num(k);
                let qps = num("qps")?;
                if !(qps.is_finite() && qps > 0.0) {
                    v.push(format!("{ctx}: qps {qps} is not positive and finite"));
                }
                let (p50, p99) = (num("p50_us")?, num("p99_us")?);
                if !(p50 > 0.0 && p99 >= p50) {
                    v.push(format!(
                        "{ctx}: latency percentiles are inconsistent (p50={p50}, p99={p99})"
                    ));
                }
                let (q, r, ipr) = (num("queries")?, num("requests")?, num("ids_per_request")?);
                if q < r {
                    v.push(format!(
                        "{ctx}: {q} queries answered for {r} requests — requests were dropped"
                    ));
                }
                if q != r * ipr {
                    v.push(format!(
                        "{ctx}: {q} queries ≠ {r} requests × {ipr} ids — the ledger is inconsistent"
                    ));
                }
                let b = num("batches")?;
                if !(b > 0.0 && b <= r) {
                    v.push(format!(
                        "{ctx}: {b} batches for {r} requests — coalescing can only merge, not split"
                    ));
                }
                let (fetch, full) = (num("fetch_bytes")?, num("full_forward_bytes")?);
                if fetch <= 0.0 {
                    v.push(format!("{ctx}: no fetch traffic recorded"));
                }
                if fetch >= full * b {
                    v.push(format!(
                        "{ctx}: MFG fetch bytes {fetch} are not strictly below the full-graph \
                         forward ceiling {} ({full} × {b} batches) — per-query compute is not \
                         restricted",
                        full * b
                    ));
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::tests::set;
    use crate::cli::{check, document};

    fn run(arch: &str, batches: u64, fetch_bytes: u64, full_forward_bytes: u64) -> Value {
        obj([
            ("arch", arch.into()),
            ("clients", 3usize.into()),
            ("requests", 60usize.into()),
            ("ids_per_request", 8usize.into()),
            ("qps", 250.0.into()),
            ("p50_us", 1500.0.into()),
            ("p99_us", 9000.0.into()),
            ("mean_us", 2000.0.into()),
            ("batches", batches.into()),
            ("queries", 480u64.into()),
            ("fetch_bytes", fetch_bytes.into()),
            ("full_forward_bytes", full_forward_bytes.into()),
            ("cache_hits", 12u64.into()),
            ("cache_misses", 300u64.into()),
        ])
    }

    fn sample(runs: Vec<Value>) -> Value {
        document::<ServeBench>(vec![
            ("world", 4usize.into()),
            ("nodes", 900usize.into()),
            ("threads", 1usize.into()),
            ("simd", "auto".into()),
            ("max_batch", 16usize.into()),
            ("max_delay_us", 1000u64.into()),
            ("cache_rows", 4096usize.into()),
            ("seed", 0u64.into()),
            ("runs", Value::Arr(runs)),
        ])
    }

    fn clean() -> Vec<Value> {
        vec![
            run("sage", 40, 100_000, 50_000),
            run("gat", 35, 220_000, 90_000),
        ]
    }

    #[test]
    fn timings_and_coalescing_may_drift() {
        let committed = sample(clean()).pretty(2);
        let mut runs = clean();
        set(&mut runs[0], "qps", 12_500.0);
        set(&mut runs[0], "p50_us", 50.0);
        set(&mut runs[0], "p99_us", 300.0);
        // Fewer, larger batches: the fetch and cache ledgers move with them.
        set(&mut runs[1], "batches", 20u64);
        set(&mut runs[1], "fetch_bytes", 150_000u64);
        set(&mut runs[1], "cache_hits", 40u64);
        assert_eq!(
            check::<ServeBench>(&sample(runs), &committed),
            Vec::<String>::new()
        );
    }

    #[test]
    fn gate_rejects_unrestricted_compute_and_dropped_requests() {
        let committed = sample(clean()).pretty(2);
        let violations = |runs| check::<ServeBench>(&sample(runs), &committed);
        let any = |v: Vec<String>, needle: &str| v.iter().any(|m| m.contains(needle));
        // MFG fetch at (or above) the full-forward ceiling = the
        // restriction is gone.
        let mut runs = clean();
        set(&mut runs[0], "fetch_bytes", 50_000u64 * 40);
        assert!(any(violations(runs), "not restricted"));
        // Dropped queries are a correctness failure, not noise.
        let mut runs = clean();
        set(&mut runs[1], "queries", 472u64);
        assert!(any(violations(runs), "inconsistent"));
        let mut runs = clean();
        set(&mut runs[1], "queries", 40u64);
        assert!(any(violations(runs), "dropped"));
        // Inconsistent percentiles and a zero QPS are not timings that
        // drifted.
        let mut runs = clean();
        set(&mut runs[0], "p99_us", 1000.0);
        assert!(any(violations(runs), "percentiles"));
        let mut runs = clean();
        set(&mut runs[0], "qps", 0.0);
        assert!(any(violations(runs), "qps"));
        // A corrupt committed artifact must also fail.
        let corrupt = committed.replace("\"batches\": 40", "\"batches\": 0");
        let v = check::<ServeBench>(&sample(clean()), &corrupt);
        assert!(any(v, "coalescing"));
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
