//! Driver side of a serving workload: launch the resident cluster, drive it
//! from this one process over [`CONNECTIONS`] connections — first closed
//! loop (throughput at saturation), then open loop on a fixed arrival
//! schedule (latency below saturation, timed from when each request was
//! due) — and check what came back.

use std::path::Path;
use std::time::{Duration, Instant};

use sar_serve::{ServeClient, StatsSnapshot};
use sar_tensor::Tensor;

use crate::cluster::{Launch, LaunchSpec};
use crate::procfs;
use crate::rank::{client_addr_path, LaunchMode};
use crate::report::{max_over_ranks, Outcome};
use crate::result::RankResult;
use crate::spec::{
    Spec, CLOSED_SHARE, CONNECTIONS, HOT_SET, HOT_SHARE, IDS_PER_REQUEST, RATE_RPS, SLO_MS,
    TRACE_OVERHEAD_LIMIT, WRITE_EVERY,
};
use crate::stats::{median, percentile, tail_percentile, SplitMix64};
use crate::trace::Tracer;
use crate::train::EXTRA_SETUPS;

/// How long the driver waits for a launch to answer its first query.
const READY_DEADLINE: Duration = Duration::from_secs(30);
/// How long a launch may take to leave after the shutdown request.
const EXIT_DEADLINE: Duration = Duration::from_secs(15);
/// Receive timeout of every client call: a dead front-end fails requests
/// instead of hanging the run.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);
/// Failures in a row after which a load connection is given up.
const MAX_STRIKES: u32 = 3;
/// Untimed closed-loop traffic before the closed phase: the first requests
/// of a cluster's life pay its page faults.
const WARMUP: Duration = Duration::from_millis(500);
/// Consecutive windows the closed phase's throughput is taken over.
const RATE_WINDOWS: usize = 4;
/// `stats()` round trips timed for `serve.ctl_rtt_us`.
const CTL_RTT_ITERS: usize = 50;
/// Generator stream ids, so that the hot set, the probe and each
/// connection's phase draw from unrelated sequences.
const STREAM_HOT: u64 = 1;
const STREAM_PROBE: u64 = 2;
const STREAM_CHECK: u64 = 3;
const STREAM_CONN: u64 = 16;

/// One request of the load.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// Logits for these node ids.
    Query(Vec<u32>),
    /// Overwrite one node's feature row.
    Update {
        /// Global node id.
        node: u32,
        /// The new row, `feat_dim` values.
        values: Vec<f32>,
    },
}

/// The fixed hot set of `serve-hot-rw` for `seed`: [`HOT_SET`] distinct
/// node ids, ascending.
pub fn hot_set(seed: u64, nodes: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed, STREAM_HOT);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < HOT_SET.min(nodes) {
        set.insert(rng.below(nodes as u64) as u32);
    }
    set.into_iter().collect()
}

/// The deterministic request stream of one connection in one phase.
pub struct RequestGen {
    rng: SplitMix64,
    nodes: usize,
    feat_dim: usize,
    /// `Some` for `serve-hot-rw`.
    hot: Option<Vec<u32>>,
    issued: usize,
}

impl RequestGen {
    /// The stream of connection `conn` in phase `phase` (0 closed, 1
    /// open, 2 warm-up) of `spec` under `seed`.
    pub fn new(spec: &Spec, seed: u64, feat_dim: usize, conn: usize, phase: usize) -> RequestGen {
        RequestGen {
            rng: SplitMix64::new(seed, STREAM_CONN + (phase * CONNECTIONS + conn) as u64),
            nodes: spec.nodes,
            feat_dim,
            hot: spec.hot_rw.then(|| hot_set(seed, spec.nodes)),
            issued: 0,
        }
    }

    fn uniform(&mut self) -> u32 {
        self.rng.below(self.nodes as u64) as u32
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        self.issued += 1;
        if self.hot.is_some() && self.issued.is_multiple_of(WRITE_EVERY) {
            let node = self.uniform();
            let values = (0..self.feat_dim)
                .map(|_| self.rng.unit() as f32 - 0.5)
                .collect();
            return Req::Update { node, values };
        }
        let ids = (0..IDS_PER_REQUEST)
            .map(|_| {
                if self.hot.is_some() && self.rng.unit() < HOT_SHARE {
                    let i = self.rng.below(self.hot.as_ref().map_or(1, Vec::len) as u64);
                    self.hot.as_ref().map_or(0, |h| h[i as usize])
                } else {
                    self.uniform()
                }
            })
            .collect();
        Req::Query(ids)
    }
}

/// One request as the load generator saw it; times are offsets from the
/// phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Request id, unique within the phase.
    pub id: u64,
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub due: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// When the answer arrived (or the call failed).
    pub done: Duration,
    /// Whether the answer was good.
    pub ok: bool,
    /// Whether it was a feature update.
    pub write: bool,
}

impl Sample {
    /// Milliseconds from due time to answer: what a user who arrived on
    /// schedule waited.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// Milliseconds the generator sent it late.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// Milliseconds from send to answer.
    pub fn service_ms(&self) -> f64 {
        self.done.saturating_sub(self.sent).as_secs_f64() * 1e3
    }
}

/// Open loop, one connection's share: sends each request at its due time
/// (or at once, if the previous answer came back after it), whatever the
/// server's speed. `call` returns `(answer good, was a write)`, or `None`
/// once the connection has been given up: the rest of the schedule then
/// fails at once.
pub fn drive_open<R>(
    start: Instant,
    schedule: &[(u64, Duration, R)],
    mut call: impl FnMut(&R) -> Option<(bool, bool)>,
) -> Vec<Sample> {
    let mut given_up = false;
    schedule
        .iter()
        .map(|(id, due, req)| {
            if let Some(wait) = due.checked_sub(start.elapsed()).filter(|_| !given_up) {
                std::thread::sleep(wait);
            }
            let sent = start.elapsed();
            let (ok, write) = call(req).unwrap_or_else(|| {
                given_up = true;
                (false, false)
            });
            Sample {
                id: *id,
                due: *due,
                sent,
                done: start.elapsed(),
                ok,
                write,
            }
        })
        .collect()
}

/// Closed loop, one connection: the next request goes out when the
/// previous answer is in, until `window` has passed or `call` gives the
/// connection up (`None`).
pub fn drive_closed(
    start: Instant,
    window: Duration,
    conn: usize,
    mut next: impl FnMut() -> Req,
    mut call: impl FnMut(&Req) -> Option<(bool, bool)>,
) -> Vec<Sample> {
    let mut out = Vec::new();
    while start.elapsed() < window {
        let req = next();
        let sent = start.elapsed();
        let Some((ok, write)) = call(&req) else {
            break;
        };
        out.push(Sample {
            id: (out.len() * CONNECTIONS + conn) as u64,
            due: sent,
            sent,
            done: start.elapsed(),
            ok,
            write,
        });
    }
    out
}

/// Good answers per second of a closed-loop phase: the answers in arrival
/// order are cut into [`RATE_WINDOWS`] equal consecutive blocks, each
/// block's rate is its size over the time from the previous block's last
/// answer to its own, and the median block is reported, so that one stall
/// of the host costs one block, not the figure.
pub fn windowed_rate(samples: &[Sample]) -> f64 {
    let mut done: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.done.as_secs_f64())
        .collect();
    done.sort_by(f64::total_cmp);
    let blocks = RATE_WINDOWS.min(done.len());
    let rates: Vec<f64> = (0..blocks)
        .map(|b| {
            let (lo, hi) = (b * done.len() / blocks, (b + 1) * done.len() / blocks);
            let from = if lo == 0 { 0.0 } else { done[lo - 1] };
            ratio((hi - lo) as f64, done[hi - 1] - from)
        })
        .collect();
    median(&rates)
}

/// Most requests that were due but not yet sent at any send: how far
/// behind its schedule the generator fell.
pub fn max_backlog(samples: &[Sample]) -> usize {
    samples
        .iter()
        .map(|s| {
            samples
                .iter()
                .filter(|o| o.due <= s.sent && o.sent > s.sent)
                .count()
        })
        .max()
        .unwrap_or(0)
}

/// One load connection. After [`MAX_STRIKES`] failures in a row it is
/// given up, so that a dead front-end costs a few timeouts, not one per
/// remaining request.
struct Conn {
    client: ServeClient,
    strikes: u32,
}

impl Conn {
    /// Sends one request; `(answer good, was a write)`, or `None` once
    /// the connection is given up.
    fn call(&mut self, req: &Req) -> Option<(bool, bool)> {
        if self.strikes >= MAX_STRIKES {
            return None;
        }
        let (ok, write) = match req {
            // `query` itself rejects a reply without one row per id.
            Req::Query(ids) => (self.client.query(ids).is_ok(), false),
            Req::Update { node, values } => {
                (self.client.update_feature(*node, values).is_ok(), true)
            }
        };
        self.strikes = if ok { 0 } else { self.strikes + 1 };
        Some((ok, write))
    }
}

fn connect(addr: &str) -> Result<ServeClient, String> {
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    client
        .set_timeout(Some(CALL_TIMEOUT))
        .map_err(|e| format!("cannot set client timeout: {e}"))?;
    Ok(client)
}

/// Waits until the launch's front-end answers `probe`; returns the
/// address and the logits.
fn wait_ready(
    launch: &mut Launch,
    probe: &[u32],
    deadline: Instant,
) -> Result<(String, Tensor), String> {
    let deadline = deadline.min(Instant::now() + READY_DEADLINE);
    let path = client_addr_path(launch.dir());
    loop {
        if let Some(failure) = launch.failed_rank() {
            return Err(failure);
        }
        if let Some(addr) = read_addr(&path) {
            let mut client = connect(&addr)?;
            let logits = client
                .query(probe)
                .map_err(|e| format!("first probe query failed: {e}"))?;
            return Ok((addr, logits));
        }
        if Instant::now() >= deadline {
            return Err("front-end did not come up before the deadline".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn read_addr(path: &Path) -> Option<String> {
    let s = std::fs::read_to_string(path).ok()?;
    let s = s.trim();
    (!s.is_empty()).then(|| s.to_string())
}

/// Asks the cluster to leave and waits for every rank.
fn shut_down(launch: &mut Launch, addr: &str) -> Result<Vec<RankResult>, String> {
    connect(addr)?
        .shutdown()
        .map_err(|e| format!("shutdown request failed: {e}"))?;
    launch.wait(Instant::now() + EXIT_DEADLINE)?;
    launch.results()
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Opens the load connections to the front-end at `addr` and sends
/// [`WARMUP`] of untimed closed-loop traffic over them, so that neither the
/// timed phases nor the counters read around them see a cold cluster.
fn warmed_connections(
    spec: &Spec,
    seed: u64,
    feat_dim: usize,
    addr: &str,
) -> Result<Vec<Conn>, String> {
    let mut clients: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| connect(addr).map(|client| Conn { client, strikes: 0 }))
        .collect::<Result<_, _>>()?;
    std::thread::scope(|s| {
        for (conn, client) in clients.iter_mut().enumerate() {
            let mut gen = RequestGen::new(spec, seed, feat_dim, conn, 2);
            s.spawn(move || {
                let start = Instant::now();
                drive_closed(start, WARMUP, conn, || gen.next_req(), |r| client.call(r));
            });
        }
    });
    Ok(clients)
}

/// Runs both load phases over `clients`. Returns the closed-phase samples
/// and rate, and the open-phase samples.
fn drive(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    feat_dim: usize,
    clients: &mut [Conn],
    tr: &mut Tracer,
) -> (Vec<Sample>, f64, Vec<Sample>) {
    // Closed loop: throughput with both connections always busy.
    let window = Duration::from_secs_f64(seconds * CLOSED_SHARE);
    tr.begin("load.closed", 0);
    let start = Instant::now();
    let closed: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let mut gen = RequestGen::new(spec, seed, feat_dim, conn, 0);
                s.spawn(move || {
                    drive_closed(start, window, conn, || gen.next_req(), |r| client.call(r))
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let closed_rate = windowed_rate(&closed);
    record_requests(tr, start, &closed);
    tr.end();

    // Open loop: a fixed schedule at RATE_RPS, dealt round-robin to the
    // connections.
    let total = (RATE_RPS * seconds * (1.0 - CLOSED_SHARE)).round() as usize;
    let mut gens: Vec<RequestGen> = (0..CONNECTIONS)
        .map(|conn| RequestGen::new(spec, seed, feat_dim, conn, 1))
        .collect();
    let mut schedules: Vec<Vec<(u64, Duration, Req)>> = vec![Vec::new(); CONNECTIONS];
    for k in 0..total {
        let conn = k % CONNECTIONS;
        let due = Duration::from_secs_f64(k as f64 / RATE_RPS);
        schedules[conn].push((k as u64, due, gens[conn].next_req()));
    }
    tr.begin("load.open", 0);
    let start = Instant::now();
    let open: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&schedules)
            .map(|(client, schedule)| {
                s.spawn(move || drive_open(start, schedule, |r| client.call(r)))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    });
    record_requests(tr, start, &open);
    tr.end();
    (closed, closed_rate, open)
}

/// One `request` span per sample under the phase's span.
fn record_requests(tr: &mut Tracer, start: Instant, samples: &[Sample]) {
    if tr.enabled() {
        for s in samples {
            tr.record("request", s.id, start + s.sent, start + s.done);
        }
    }
}

/// The output checks a serving workload makes on a quiet cluster, after
/// the load.
fn output_checks(
    out: &mut Outcome,
    spec: &Spec,
    seed: u64,
    feat_dim: usize,
    control: &mut ServeClient,
    probe: &[u32],
    before: &Tensor,
) {
    if spec.hot_rw {
        // Reads repeat until a write lands; the write then shows.
        let mut rng = SplitMix64::new(seed, STREAM_CHECK);
        let node = rng.below(spec.nodes as u64) as u32;
        let values: Vec<f32> = (0..feat_dim).map(|_| 4.0 + rng.unit() as f32).collect();
        let verdict = (|| -> Result<(bool, bool), String> {
            let first = control.query(&[node]).map_err(|e| e.to_string())?;
            let second = control.query(&[node]).map_err(|e| e.to_string())?;
            control
                .update_feature(node, &values)
                .map_err(|e| e.to_string())?;
            let third = control.query(&[node]).map_err(|e| e.to_string())?;
            Ok((bits_equal(&first, &second), !bits_equal(&first, &third)))
        })();
        match verdict {
            Ok((stable, moved)) => {
                out.check(
                    "reads with no write between them are bitwise equal",
                    stable,
                    format!("node {node}"),
                );
                out.check(
                    "a read after update_feature sees the write",
                    moved,
                    format!("node {node}"),
                );
            }
            Err(e) => out.check("read-your-write sequence", false, e),
        }
    } else {
        match control.query(probe) {
            Ok(after) => out.check(
                "probe logits are bitwise equal before and after the read-only load",
                bits_equal(before, &after),
                format!("{} ids", probe.len()),
            ),
            Err(e) => out.check("probe query after the load", false, e.to_string()),
        }
    }
}

/// Difference of two stats snapshots, field by field.
fn stats_delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        batches: after.batches - before.batches,
        queries: after.queries - before.queries,
        fetch_bytes: after.fetch_bytes - before.fetch_bytes,
        full_forward_bytes: after.full_forward_bytes,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_inserts: after.cache_inserts - before.cache_inserts,
        cache_invalidations: after.cache_invalidations - before.cache_invalidations,
        world: after.world,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the load generator saw in both phases, and the counters read
/// around them.
struct Load {
    closed: Vec<Sample>,
    closed_rate: f64,
    /// In schedule order.
    open: Vec<Sample>,
    /// Front-end counters over both phases.
    stats: StatsSnapshot,
    /// `(user s, sys s, voluntary context switches)` of the rank processes
    /// over both phases.
    cpu: (f64, f64, f64),
    /// Share of both phases' wall the driver spent keeping spans.
    trace_frac: f64,
}

impl Load {
    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.closed.iter().chain(&self.open)
    }

    /// Due-time latencies of the open phase's answered queries. A failed
    /// request has no latency; it counts in `failed` and as a missed limit.
    fn open_reads(&self) -> Vec<f64> {
        self.open
            .iter()
            .filter(|s| s.ok && !s.write)
            .map(Sample::latency_ms)
            .collect()
    }

    fn end_to_end_metrics(&self, out: &mut Outcome) {
        out.set("op_p50_ms", median(&self.open_reads()));
        out.set("ops_per_s", self.closed_rate);
    }

    fn per_layer_metrics(&self, out: &mut Outcome, control: &mut ServeClient) {
        let d = &self.stats;
        let reads = self.all().filter(|s| !s.write).count() as f64;
        out.set("serve.batch_size_mean", ratio(reads, d.batches as f64));
        out.set(
            "serve.cache_hit_rate",
            ratio(d.cache_hits as f64, (d.cache_hits + d.cache_misses) as f64),
        );
        out.set("serve.cache_invalidations", d.cache_invalidations as f64);
        out.set(
            "serve.fetch_kib_per_query",
            ratio(d.fetch_bytes as f64, reads) / 1024.0,
        );
        out.set(
            "serve.mfg_fetch_ratio",
            ratio(
                d.fetch_bytes as f64,
                d.batches as f64 * d.full_forward_bytes as f64,
            ),
        );
        let service_ms = |samples: &mut dyn Iterator<Item = &Sample>| -> f64 {
            median(&samples.map(Sample::service_ms).collect::<Vec<_>>())
        };
        out.set(
            "serve.closed_p50_ms",
            service_ms(&mut self.closed.iter().filter(|s| s.ok)),
        );
        out.set(
            "serve.update_p50_ms",
            service_ms(&mut self.all().filter(|s| s.ok && s.write)),
        );
        out.set(
            "serve.gen_lateness_p95_ms",
            percentile(
                &self
                    .open
                    .iter()
                    .map(Sample::lateness_ms)
                    .collect::<Vec<_>>(),
                95.0,
            ),
        );
        out.set("serve.gen_backlog_max", max_backlog(&self.open) as f64);
        out.set(
            "serve.slo_miss_frac",
            ratio(
                self.open
                    .iter()
                    .filter(|s| !s.ok || s.latency_ms() > SLO_MS)
                    .count() as f64,
                self.open.len() as f64,
            ),
        );
        let rtts: Vec<f64> = (0..CTL_RTT_ITERS)
            .filter_map(|_| {
                let t = Instant::now();
                control
                    .stats()
                    .is_ok()
                    .then(|| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        out.set("serve.ctl_rtt_us", median(&rtts));
        let ops = self.all().count() as f64;
        let (user, sys, vol_ctx) = self.cpu;
        out.set("proc.cpu_s_per_op", ratio(user + sys, ops));
        out.set("proc.sys_frac", ratio(sys, user + sys));
        out.set("proc.vol_ctx_switches_per_op", ratio(vol_ctx, ops));
        let open_reads = self.open_reads();
        // The highest percentile the sample supports; none under 100 reads.
        out.set(
            "op_tail_ms",
            tail_percentile(open_reads.len()).map_or(0.0, |p| percentile(&open_reads, p)),
        );
        out.set("trace.op_p50_ms", median(&open_reads));
        out.set("trace.ops_per_s", self.closed_rate);
        out.set("trace_overhead_frac", self.trace_frac);
        out.check(
            "tracing overhead within its limit",
            self.trace_frac <= TRACE_OVERHEAD_LIMIT,
            format!(
                "{:.2e} of the load phases, limit {TRACE_OVERHEAD_LIMIT}",
                self.trace_frac
            ),
        );
    }
}

/// One launch that only measures set-up: spawn → first probe answered →
/// shutdown.
fn setup_only(what: &LaunchSpec, probe: &[u32], deadline: Instant) -> Result<f64, String> {
    let mut launch = Launch::spawn(what)?;
    let (addr, _) = wait_ready(&mut launch, probe, deadline)?;
    let setup_s = launch.spawned().elapsed().as_secs_f64();
    shut_down(&mut launch, &addr)?;
    Ok(setup_s)
}

/// Runs one serving workload end to end; no launch is waited for beyond
/// `deadline` (plus the short exit deadline of a shutdown).
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    epoch_unix_us: u64,
    deadline: Instant,
) -> Outcome {
    let mut out = Outcome::new(spec.name, trace);
    let mut tr = Tracer::new(crate::trace::DRIVER, epoch_unix_us, trace);
    tr.begin("bench", 0);
    // The program fixes the feature width; a tiny dataset of the same
    // family tells it without building the real one here.
    let feat_dim = sar_graph::datasets::products_like(256, 0).feat_dim();
    let probe: Vec<u32> = {
        let mut rng = SplitMix64::new(seed, STREAM_PROBE);
        (0..IDS_PER_REQUEST)
            .map(|_| rng.below(spec.nodes as u64) as u32)
            .collect()
    };
    let what = LaunchSpec {
        spec: *spec,
        solo: false,
        seed,
        mode: LaunchMode::Measure,
        trace,
        seconds,
        epoch_unix_us,
    };

    let mut setups = Vec::new();
    for i in 0..if trace { 0 } else { EXTRA_SETUPS } {
        let (r, _) = tr.scope("launch.setup", i as u64, || {
            setup_only(&what, &probe, deadline)
        });
        match r {
            Ok(s) => setups.push(s),
            Err(e) => out.check("set-up launch", false, e),
        }
    }

    let planned = (RATE_RPS * seconds).round() as u64;
    let fail = |out: &mut Outcome, name: &str, e: String| {
        out.check(name, false, e);
        out.attempted = out.attempted.max(planned);
        out.failed = out.attempted;
    };
    let mut launch = match Launch::spawn(&what) {
        Ok(l) => l,
        Err(e) => {
            fail(&mut out, "measured launch", e);
            return out;
        }
    };
    let (ready, _) = tr.scope("launch.measure", 0, || {
        wait_ready(&mut launch, &probe, deadline)
    });
    let (addr, probe_before) = match ready {
        Ok(r) => r,
        Err(e) => {
            fail(&mut out, "measured launch", e);
            return out;
        }
    };
    setups.push(launch.spawned().elapsed().as_secs_f64());

    let measured = (|| -> Result<(), String> {
        let mut control = connect(&addr)?;
        let stats = |c: &mut ServeClient| c.stats().map_err(|e| format!("stats failed: {e}"));
        let pids = launch.pids();
        let cpu = |pids: &[u32]| -> (f64, f64, f64) {
            pids.iter()
                .map(|p| procfs::snapshot(&p.to_string()))
                .fold((0.0, 0.0, 0.0), |a, s| {
                    (a.0 + s.user_s, a.1 + s.sys_s, a.2 + s.vol_ctx)
                })
        };
        let mut clients = warmed_connections(spec, seed, feat_dim, &addr)?;
        let s0 = stats(&mut control)?;
        let cpu0 = cpu(&pids);
        let (began, traced_before) = (Instant::now(), tr.spent_s());
        let (closed, closed_rate, open) =
            drive(spec, seed, seconds, feat_dim, &mut clients, &mut tr);
        let trace_frac = (tr.spent_s() - traced_before) / began.elapsed().as_secs_f64();
        let cpu1 = cpu(&pids);
        let s1 = stats(&mut control)?;

        // In schedule order, so that consecutive windows are consecutive
        // in time.
        let mut open = open;
        open.sort_by_key(|s| s.id);
        let load = Load {
            closed,
            closed_rate,
            open,
            stats: stats_delta(&s1, &s0),
            cpu: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1, cpu1.2 - cpu0.2),
            trace_frac,
        };
        out.attempted = load.all().count() as u64;
        out.failed = load.all().filter(|s| !s.ok).count() as u64;
        out.check(
            "every request was answered with one row per id",
            out.failed == 0,
            format!("{} of {} failed", out.failed, out.attempted),
        );
        output_checks(
            &mut out,
            spec,
            seed,
            feat_dim,
            &mut control,
            &probe,
            &probe_before,
        );
        if trace {
            load.per_layer_metrics(&mut out, &mut control);
        } else {
            load.end_to_end_metrics(&mut out);
        }
        Ok(())
    })();
    if let Err(e) = measured {
        fail(&mut out, "load", e);
    }

    let (results, _) = tr.scope("launch.shutdown", 0, || shut_down(&mut launch, &addr));
    let results = match results {
        Ok(r) => r,
        Err(e) => {
            fail(&mut out, "shutdown", e);
            return out;
        }
    };
    if trace {
        out.absorb_traced(tr, &results);
    } else {
        out.set(
            "peak_tensor_mib",
            max_over_ranks(&results, "life.peak_tensor_bytes") / (1024.0 * 1024.0),
        );
        out.set("setup_s", median(&setups));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn hot_spec() -> Spec {
        *WORKLOADS.iter().find(|s| s.hot_rw).unwrap()
    }

    #[test]
    fn request_streams_repeat_per_seed_and_differ_per_connection() {
        let spec = hot_spec();
        let take = |seed, conn| -> Vec<Req> {
            let mut g = RequestGen::new(&spec, seed, 100, conn, 1);
            (0..250).map(|_| g.next_req()).collect()
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(3, 1));
        assert_ne!(take(3, 0), take(4, 0));
        assert_eq!(hot_set(3, spec.nodes), hot_set(3, spec.nodes));
        assert_eq!(hot_set(3, spec.nodes).len(), HOT_SET);
    }

    #[test]
    fn hot_stream_is_mostly_hot_and_writes_every_hundredth() {
        let spec = hot_spec();
        let hot = hot_set(5, spec.nodes);
        let mut g = RequestGen::new(&spec, 5, 100, 0, 0);
        let reqs: Vec<Req> = (0..1000).map(|_| g.next_req()).collect();
        let writes = reqs
            .iter()
            .filter(|r| matches!(r, Req::Update { .. }))
            .count();
        assert_eq!(writes, 1000 / WRITE_EVERY);
        assert!(
            matches!(&reqs[WRITE_EVERY - 1], Req::Update { values, .. } if values.len() == 100)
        );
        let ids: Vec<u32> = reqs
            .iter()
            .filter_map(|r| match r {
                Req::Query(ids) => Some(ids.clone()),
                Req::Update { .. } => None,
            })
            .flatten()
            .collect();
        assert!(ids.iter().all(|&i| (i as usize) < spec.nodes));
        let share =
            ids.iter().filter(|i| hot.binary_search(i).is_ok()).count() as f64 / ids.len() as f64;
        assert!((0.87..0.94).contains(&share), "hot share {share}");

        // The uniform workload never writes and ignores the hot set.
        let uniform = *WORKLOADS
            .iter()
            .find(|s| s.name == "serve-uniform")
            .unwrap();
        let mut g = RequestGen::new(&uniform, 5, 100, 0, 0);
        assert!((0..500)
            .all(|_| matches!(g.next_req(), Req::Query(ids) if ids.len() == IDS_PER_REQUEST)));
    }

    #[test]
    fn open_loop_times_from_due_and_falls_behind_a_slow_server() {
        // Ten requests due 2 ms apart against a stub that takes 10 ms:
        // the connection falls further behind with every request. Sleeps
        // only ever overshoot, so every bound asserted here is a lower one.
        let schedule: Vec<(u64, Duration, ())> = (0..10)
            .map(|k| (k, Duration::from_millis(2 * k), ()))
            .collect();
        let start = Instant::now();
        let samples = drive_open(start, &schedule, |()| {
            std::thread::sleep(Duration::from_millis(10));
            Some((true, false))
        });
        assert_eq!(samples.len(), 10);
        assert!(samples.iter().all(|s| s.sent >= s.due && s.done >= s.sent));
        assert!(samples[0].latency_ms() >= 10.0);
        // The last was due at 18 ms but could not be sent before the nine
        // ahead of it were served (≥ 90 ms): due-time latency includes
        // that wait, service time does not.
        let last = samples[9];
        assert!(
            last.lateness_ms() >= 70.0,
            "lateness {}",
            last.lateness_ms()
        );
        assert!(last.latency_ms() >= last.lateness_ms() + 10.0);
        assert!(samples.windows(2).all(|w| w[0].sent <= w[1].sent));
        // When the second request was sent (≥ 10 ms), those due at
        // 4, 6, 8, 10 ms were already waiting.
        assert!(
            max_backlog(&samples) >= 4,
            "backlog {}",
            max_backlog(&samples)
        );

        // A connection given up fails the rest of its schedule at once,
        // without waiting for the due times (the last is 9 s away).
        let schedule: Vec<(u64, Duration, ())> =
            (0..10).map(|k| (k, Duration::from_secs(k), ())).collect();
        let start = Instant::now();
        let samples = drive_open(start, &schedule, |()| None);
        assert_eq!(samples.len(), 10);
        assert!(samples.iter().all(|s| !s.ok));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn lateness_latency_and_backlog_of_hand_built_samples() {
        let ms = Duration::from_millis;
        let sample = |id: u64, due: u64, sent: u64, done: u64| Sample {
            id,
            due: ms(due),
            sent: ms(sent),
            done: ms(done),
            ok: true,
            write: false,
        };
        // On schedule: sent when due, nothing waiting at any send.
        let on_time: Vec<Sample> = (0..5)
            .map(|k| sample(k, 20 * k, 20 * k, 20 * k + 5))
            .collect();
        assert!(on_time.iter().all(|s| s.lateness_ms() == 0.0));
        assert!(on_time.iter().all(|s| s.latency_ms() == 5.0));
        assert_eq!(max_backlog(&on_time), 0);
        assert_eq!(max_backlog(&[]), 0);

        // A 50 ms stall on the first request: the next two were due while
        // it was out and go out late, one after the other.
        let stalled = [
            sample(0, 0, 0, 50),
            sample(1, 20, 50, 55),
            sample(2, 40, 55, 60),
            sample(3, 60, 60, 65),
        ];
        assert_eq!(stalled[1].lateness_ms(), 30.0);
        assert_eq!(stalled[1].latency_ms(), 35.0);
        assert_eq!(stalled[1].service_ms(), 5.0);
        assert_eq!(stalled[2].lateness_ms(), 15.0);
        assert_eq!(stalled[3].lateness_ms(), 0.0);
        // When request 1 was sent at 50 ms, request 2 (due at 40) waited.
        assert_eq!(max_backlog(&stalled), 1);
    }

    #[test]
    fn windowed_rate_is_the_median_block_and_ignores_failures() {
        let at = |ms: u64, ok: bool| Sample {
            id: 0,
            due: Duration::ZERO,
            sent: Duration::ZERO,
            done: Duration::from_millis(ms),
            ok,
            write: false,
        };
        // 40 answers 100 ms apart (10/s), with a 2 s stall before the
        // 15th: only the second block of ten sees it. The plain rate over
        // the whole phase would have been 40 / 6 s.
        let samples: Vec<Sample> = (1..=40u64)
            .map(|k| at(k * 100 + if k >= 15 { 2000 } else { 0 }, true))
            .chain([at(50, false), at(6050, false)])
            .collect();
        let rate = windowed_rate(&samples);
        assert!((rate - 10.0).abs() < 1e-9, "rate {rate}");
        assert_eq!(windowed_rate(&[]), 0.0);
        assert!((windowed_rate(&samples[..2]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_sends_back_to_back_until_the_window_ends() {
        let start = Instant::now();
        let mut n = 0u32;
        // A 200 ms window of 2 ms calls: at most 100 fit (the last may
        // start just inside the window), and five would need 40 ms each.
        let samples = drive_closed(
            start,
            Duration::from_millis(200),
            1,
            || Req::Query(vec![0]),
            |_| {
                n += 1;
                std::thread::sleep(Duration::from_millis(2));
                Some((!n.is_multiple_of(5), false))
            },
        );
        assert!(
            samples.len() >= 5 && samples.len() <= 101,
            "{}",
            samples.len()
        );
        assert!(samples.iter().all(|s| s.due == s.sent && s.done >= s.sent));
        assert!(samples.iter().any(|s| !s.ok));
        assert!(samples.iter().all(|s| s.id % CONNECTIONS as u64 == 1));
        // A connection given up ends the phase early.
        let start = Instant::now();
        let samples = drive_closed(
            start,
            Duration::from_secs(5),
            0,
            || Req::Query(vec![0]),
            |_| None,
        );
        assert!(samples.is_empty() && start.elapsed() < Duration::from_secs(1));
    }
}
