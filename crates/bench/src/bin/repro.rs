//! Regenerates every table and figure of the SAR paper.
//!
//! ```text
//! repro <experiment> [flags]
//!
//! experiments:
//!   table1              dataset stats + final accuracies
//!   fig2                single-host fused attention kernels
//!   fig3 | fig4         GraphSage | GAT scaling on products-like
//!   fig5 | fig6         GraphSage | GAT scaling on papers-like
//!   ablation-prefetch   2/N vs 3/N memory (§3.4)
//!   ablation-softmax    stable vs naive online softmax (§3.4)
//!   ablation-partition  partitioner quality vs comm volume
//!   exactness           SAR results independent of worker count
//!   smoke               CI gate: scaled-down 4-worker Sage + GAT runs;
//!                       writes per-worker RunReport JSON (--out DIR) and
//!                       exits non-zero on NaN loss or a ledger-invariant
//!                       violation (Sage backward must add zero fetch
//!                       bytes; GAT must re-fetch what the forward fetched).
//!                       With --transport tcp the same workloads run as 4
//!                       real OS processes over TCP loopback (spawned via
//!                       the sar-worker binary) and are gated on the same
//!                       invariants, from the same gathered report
//!   kernelbench | servebench | compressbench | outofcorebench
//!                       the CI-gated benchmarks. Each runs, prints a
//!                       table, writes its schema-versioned artifact
//!                       (--out PATH) and/or diffs it against the
//!                       committed BENCH_*.json (--check PATH; exit 1 on
//!                       any violation). The gates compare structure,
//!                       ledgers, digests and invariants — never timing
//!                       magnitudes. Own flags:
//!     kernelbench       kernel micro-benchmarks over a fixed seeded
//!                       matrix, gated on roofline ratios:
//!                       --simd auto|scalar, --threads N, --quick
//!     servebench        a real 4-process sar-serve cluster under
//!                       closed-loop client load (p50/p99 + QPS; every
//!                       query answered, MFG fetch below the full-graph
//!                       ceiling): --world N, --nodes N, --archs a,b,
//!                       --clients N, --requests N, --ids-per-request N,
//!                       --max-batch N, --max-delay-us N, --cache-rows N,
//!                       --threads N, --simd auto|scalar, --seed N
//!     compressbench     the smoke workloads across the {codec ×
//!                       protocol} grid on sim plus a TCP subset (raw
//!                       moves wire == logical, lossy codecs clear the
//!                       payload bar, gradonly/stale skip what they
//!                       claim, raw/exact digests agree across
//!                       transports, accuracy floor): --transport
//!                       sim,tcp, --world N, --nodes N, --epochs N,
//!                       --seed N, --quick
//!     outofcorebench    the disk tier: a sweep whose graph grows 8x
//!                       under a fixed budget (flat peak resident bytes,
//!                       digests equal to a never-spilling baseline) and
//!                       --mem-budget on/off training parity across
//!                       {sim,tcp} x {threads} x {prefetch-depth}:
//!                       --transport sim,tcp, --nodes N,
//!                       --train-budget BYTES, --seed N, --quick
//!   all                 every table, figure and ablation above (not smoke
//!                       or the gated benchmarks)
//!
//! flags:
//!   --transport sim|tcp  smoke backend: in-process simulated cluster or
//!                        one OS process per rank over TCP    (sim)
//!   --products-nodes N   products-like size     (default 4000)
//!   --papers-nodes N     papers-like size       (default 8000)
//!   --epochs N           accuracy-run epochs    (default 40)
//!   --timing-epochs N    timing-run epochs      (default 3)
//!   --bw-scale X         bandwidth down-scale   (default 100)
//!   --mem-budget-products-mib X  OOM budget, Figs. 3/4 (default 512)
//!   --mem-budget-papers-mib X    OOM budget, Figs. 5/6 (default 48)
//!   --worlds A,B,C       worker counts override
//!   --out DIR            RunReport JSON output directory (smoke only)
//!   --model sage|gat|all smoke model selection (default all); validated
//!                        against the supported model list at parse time
//!   --threads A,B        smoke intra-worker thread counts (default 1).
//!                        With more than one count, the same workload runs
//!                        once per count and the gate fails unless every
//!                        run's losses and byte ledgers are identical —
//!                        the kernels' determinism contract (DESIGN.md §8)
//!   --prefetch-depth A,B smoke fetch-pipeline depths (default 0). With
//!                        more than one depth, the same workload runs once
//!                        per depth and the gate fails unless every run's
//!                        losses and byte ledgers are identical — the
//!                        pipelined exchange's deterministic-accumulation
//!                        contract (DESIGN.md §9). Crosses with --threads.
//!   --simd A,B           smoke SIMD dispatch modes (default auto). With
//!                        more than one mode (auto,scalar), the same
//!                        workload runs once per mode and the gate fails
//!                        unless every run's parity digest is identical —
//!                        the SIMD paths' bitwise-determinism contract
//!                        (DESIGN.md §11). Crosses with --threads and
//!                        --prefetch-depth.
//!   --mem-budget BYTES   smoke resident-tensor budget for the disk
//!                        tier (0 = spilling disabled). The ledger
//!                        invariants and cross-combination digests must
//!                        hold unchanged — spilling is invisible to
//!                        training                        (default 0)
//!   --seed N             RNG seed               (default 0)
//! ```

use sar_bench::cli::{Args, GatedBench};
use sar_bench::compressbench::CompressBenchReport;
use sar_bench::experiments::{
    ablation_partition, ablation_prefetch, ablation_softmax, exactness, fig2, scaling, table1,
    ExpConfig, Workload,
};
use sar_bench::harness::{run_workload, Transport};
use sar_bench::kernelbench::BenchReport;
use sar_bench::outofcorebench::OocBenchReport;
use sar_bench::servebench::ServeBenchReport;
use sar_bench::smoke;
use sar_core::Arch;

struct Flags {
    cfg: ExpConfig,
    worlds: Option<Vec<usize>>,
    out: Option<String>,
    transport: Transport,
    /// Intra-worker thread counts the smoke gate runs (and cross-checks).
    threads: Vec<usize>,
    /// Fetch-pipeline depths the smoke gate runs (and cross-checks).
    depths: Vec<usize>,
    /// SIMD dispatch modes the smoke gate runs (and cross-checks).
    simds: Vec<String>,
    /// Smoke model selection: `"all"` or one of [`smoke::MODELS`].
    model: String,
    /// Smoke `--mem-budget` (bytes; 0 = spilling disabled).
    mem_budget: u64,
}

fn parse_flags(mut args: Args) -> Result<Flags, String> {
    let mut f = Flags {
        cfg: ExpConfig::default(),
        worlds: None,
        out: None,
        transport: Transport::Sim,
        threads: vec![1],
        depths: vec![0],
        simds: vec!["auto".to_string()],
        model: "all".to_string(),
        mem_budget: 0,
    };
    while let Some(flag) = args.next_flag() {
        let flag = flag.as_str();
        match flag {
            "--products-nodes" => f.cfg.products_nodes = args.parsed(flag)?,
            "--papers-nodes" => f.cfg.papers_nodes = args.parsed(flag)?,
            "--epochs" => f.cfg.epochs = args.parsed(flag)?,
            "--timing-epochs" => f.cfg.timing_epochs = args.parsed(flag)?,
            "--bw-scale" => f.cfg.bandwidth_scale = args.parsed(flag)?,
            "--mem-budget-products-mib" => f.cfg.mem_budget_products_mib = args.parsed(flag)?,
            "--mem-budget-papers-mib" => f.cfg.mem_budget_papers_mib = args.parsed(flag)?,
            "--worlds" => f.worlds = Some(args.parsed_list(flag)?),
            "--out" => f.out = Some(args.value(flag)?),
            "--transport" => f.transport = Transport::parse(&args.value(flag)?)?,
            "--threads" => {
                f.threads = args.parsed_list(flag)?;
                if f.threads.contains(&0) {
                    return Err("--threads takes a comma list of counts >= 1, e.g. 1,4".into());
                }
            }
            "--prefetch-depth" => f.depths = args.parsed_list(flag)?,
            "--simd" => {
                f.simds = args.parsed_list(flag)?;
                if f.simds
                    .iter()
                    .any(|s| sar_tensor::simd::parse_mode(s).is_none())
                {
                    return Err("--simd takes a comma list of modes from: auto, scalar".into());
                }
            }
            "--model" => {
                f.model = args.value(flag)?;
                if f.model != "all" && !smoke::MODELS.contains(&f.model.as_str()) {
                    return Err(format!(
                        "unknown --model {}; supported models: {}, all",
                        f.model,
                        smoke::MODELS.join(", ")
                    ));
                }
            }
            "--mem-budget" => f.mem_budget = args.parsed(flag)?,
            "--seed" => f.cfg.seed = args.parsed(flag)?,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(f)
}

// ----------------------------------------------------------------------
// `smoke` — the CI gate
// ----------------------------------------------------------------------

/// Scaled-down 4-worker GraphSage and GAT training runs whose
/// observability ledgers are checked against the paper's communication
/// claims. The workloads and the invariants live in [`sar_bench::smoke`]
/// and every run goes through [`run_workload`], so the simulated and the
/// TCP backend gate on the same program and the same rules. The
/// `(simd, prefetch-depth, threads)` grid runs in a deterministic order
/// with the baseline combination first; every other combination's
/// `parity_digest` must match it exactly — the parallel kernels' and the
/// pipelined exchange's bitwise-determinism contracts. Returns the
/// violations found (empty = gate passes).
fn smoke(flags: &Flags) -> Vec<String> {
    let out_dir = flags.out.as_deref();
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return vec![format!("cannot create {dir}: {e}")];
        }
    }
    let models: Vec<&str> = if flags.model == "all" {
        smoke::MODELS.to_vec()
    } else {
        vec![flags.model.as_str()]
    };
    let nodes = flags.cfg.products_nodes.min(1500);
    let mut violations = Vec::new();
    for arch_name in models {
        let exp = format!("smoke-{arch_name}");
        let mut wl = match smoke::workload(arch_name, nodes, flags.cfg.seed) {
            Ok(w) => w,
            Err(e) => {
                violations.push(format!("{exp}: {e}"));
                continue;
            }
        };
        wl.mem_budget = flags.mem_budget;
        let mut first_digest: Option<String> = None;
        let (threads, depths) = (&flags.threads, &flags.depths);
        let combos = flags.simds.iter().flat_map(|s| {
            depths
                .iter()
                .flat_map(move |&d| threads.iter().map(move |&t| (t, d, s)))
        });
        for (t, d, s) in combos {
            wl.threads = t;
            wl.prefetch_depth = d;
            wl.simd = s.clone();
            eprintln!(
                "[repro] smoke: training {arch_name}/{} on {} {} workers \
                 (threads={t}, prefetch-depth={d}, simd={s}) ...",
                wl.mode,
                smoke::WORLD,
                flags.transport.name()
            );
            let report = match run_workload(&wl, smoke::WORLD, flags.transport, &exp) {
                Ok(r) => r,
                Err(e) => {
                    violations.push(format!("{exp}: {e}"));
                    continue;
                }
            };
            smoke::ledger_table(&report).print();
            violations.extend(smoke::violations(&report, wl.epochs));
            let digest = report.parity_digest();
            // The baseline keeps the bare `{exp}.json` name CI has always
            // archived; variants get suffixes.
            let file = match &first_digest {
                None => format!("{exp}.json"),
                Some(d0) => {
                    if let Some(diff) = smoke::digest_diff(d0, &digest) {
                        violations.push(format!(
                            "{exp}: --threads {t} --prefetch-depth {d} --simd {s} \
                             diverged from the baseline combination — {diff}"
                        ));
                    }
                    format!("{exp}-t{t}-d{d}-{s}.json")
                }
            };
            first_digest.get_or_insert(digest);
            if let Some(dir) = out_dir {
                let path = format!("{dir}/{file}");
                match report.write_json(&path) {
                    Ok(()) => eprintln!("[repro] wrote {path}"),
                    Err(e) => violations.push(format!("{exp}: cannot write {path}: {e}")),
                }
            }
        }
    }
    violations
}

fn run(name: &str, cfg: &ExpConfig, worlds: Option<&[usize]>) {
    let products_worlds = worlds.unwrap_or(&[4, 8, 16]).to_vec();
    let papers_worlds = worlds.unwrap_or(&[32, 64, 128]).to_vec();
    let tables = match name {
        "table1" => table1(cfg),
        "fig2" => fig2(cfg),
        "fig3" => scaling(
            Arch::GraphSage { hidden: 256 },
            Workload::Products,
            &products_worlds,
            cfg,
        ),
        "fig4" => scaling(
            Arch::Gat {
                head_dim: 128,
                heads: 4,
            },
            Workload::Products,
            &products_worlds,
            cfg,
        ),
        "fig5" => scaling(
            Arch::GraphSage { hidden: 256 },
            Workload::Papers,
            &papers_worlds,
            cfg,
        ),
        "fig6" => scaling(
            Arch::Gat {
                head_dim: 128,
                heads: 4,
            },
            Workload::Papers,
            &papers_worlds,
            cfg,
        ),
        "ablation-prefetch" => vec![ablation_prefetch(cfg)],
        "ablation-softmax" => vec![ablation_softmax(cfg)],
        "ablation-partition" => vec![ablation_partition(cfg)],
        "exactness" => vec![exactness(cfg)],
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    };
    for t in tables {
        t.print();
    }
}

// ----------------------------------------------------------------------
// The gated benchmarks — one driver, one instantiation per artifact
// ----------------------------------------------------------------------

/// `repro <B::NAME> [--out PATH] [--check PATH] [the bench's own flags]`:
/// run the benchmark, print it, write the schema-versioned artifact
/// and/or gate it against the committed copy. Exit status 0 = the gate
/// holds, 1 = the run failed or the gate found violations, 2 = usage.
fn gated_bench_cmd<B: GatedBench>(mut args: Args) -> i32 {
    let name = B::NAME;
    let mut cfg = B::Config::default();
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    while let Some(flag) = args.next_flag() {
        let applied = match flag.as_str() {
            "--out" => args.value(&flag).map(|v| out = Some(v)),
            "--check" => args.value(&flag).map(|v| check = Some(v)),
            _ => B::apply_flag(&mut cfg, &flag, &mut args).and_then(|known| {
                known
                    .then_some(())
                    .ok_or_else(|| format!("unknown {name} flag: {flag}"))
            }),
        };
        if let Err(e) = applied {
            eprintln!("{e}");
            return 2;
        }
    }
    let report = match B::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[repro] {name} FAIL: {e}");
            return 1;
        }
    };
    report.print();
    if let Some(path) = &out {
        let written = match std::path::Path::new(path).parent() {
            Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
            _ => Ok(()),
        }
        .and_then(|()| std::fs::write(path, report.to_json()));
        match written {
            Ok(()) => eprintln!("[repro] wrote {path}"),
            Err(e) => {
                eprintln!("[repro] cannot write {path}: {e}");
                return 2;
            }
        }
    }
    if let Some(path) = &check {
        let committed = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!(
                    "[repro] {name} FAIL: no committed artifact at {path}: {e} — \
                     generate one with `repro {name} --out {path}`"
                );
                return 1;
            }
        };
        let violations = report.check_against(&committed);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("[repro] {name} VIOLATION: {v}");
            }
            return 1;
        }
        eprintln!("[repro] {name}: structure and invariants consistent with {path}");
    }
    0
}

fn main() {
    let mut args = Args::from_env();
    let Some(experiment) = args.next_flag() else {
        eprintln!("usage: repro <experiment|all> [flags] — see crate docs");
        std::process::exit(2);
    };
    match experiment.as_str() {
        "kernelbench" => std::process::exit(gated_bench_cmd::<BenchReport>(args)),
        "servebench" => std::process::exit(gated_bench_cmd::<ServeBenchReport>(args)),
        "compressbench" => std::process::exit(gated_bench_cmd::<CompressBenchReport>(args)),
        "outofcorebench" => std::process::exit(gated_bench_cmd::<OocBenchReport>(args)),
        _ => {}
    }
    let flags = parse_flags(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let (cfg, worlds) = (&flags.cfg, &flags.worlds);
    eprintln!(
        "[repro] products-like n={}, papers-like n={}, epochs={}, timing-epochs={}, bw-scale={}",
        cfg.products_nodes, cfg.papers_nodes, cfg.epochs, cfg.timing_epochs, cfg.bandwidth_scale
    );
    if experiment == "smoke" {
        let violations = smoke(&flags);
        if violations.is_empty() {
            eprintln!(
                "[repro] smoke ({}): all ledger invariants hold",
                flags.transport.name()
            );
        } else {
            for v in &violations {
                eprintln!("[repro] smoke VIOLATION: {v}");
            }
            std::process::exit(1);
        }
        return;
    }
    if experiment == "all" {
        for name in [
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "ablation-prefetch",
            "ablation-softmax",
            "ablation-partition",
            "exactness",
        ] {
            eprintln!("[repro] running {name} ...");
            run(name, cfg, worlds.as_deref());
        }
    } else {
        run(&experiment, cfg, worlds.as_deref());
    }
}
