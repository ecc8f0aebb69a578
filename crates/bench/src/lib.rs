#![warn(missing_docs)]

//! Benchmark harness reproducing every table and figure of the SAR paper.
//!
//! Each experiment in [`experiments`] regenerates one table or figure of
//! the paper's evaluation section on the synthetic OGB stand-in datasets
//! (see the workspace DESIGN.md §2 for the substitution rationale):
//!
//! | Paper artifact | Function | `repro` subcommand |
//! |---|---|---|
//! | Table 1 (accuracies) | [`experiments::table1`] | `table1` |
//! | Fig. 2 (fused kernels) | [`experiments::fig2`] | `fig2` |
//! | Fig. 3 (Sage/products) | [`experiments::scaling`] | `fig3` |
//! | Fig. 4 (GAT/products) | [`experiments::scaling`] | `fig4` |
//! | Fig. 5 (Sage/papers) | [`experiments::scaling`] | `fig5` |
//! | Fig. 6 (GAT/papers) | [`experiments::scaling`] | `fig6` |
//! | §3.4 prefetching | [`experiments::ablation_prefetch`] | `ablation-prefetch` |
//! | §3.4 stable softmax | [`experiments::ablation_softmax`] | `ablation-softmax` |
//! | §4.2 METIS choice | [`experiments::ablation_partition`] | `ablation-partition` |
//! | §2 exactness claim | [`experiments::exactness`] | `exactness` |
//!
//! Run everything with `cargo run --release -p sar-bench --bin repro -- all`.
//!
//! Epoch times are modeled as `max_p(compute CPU-seconds) +
//! max_p(simulated α–β communication seconds)`; peak memory is the real
//! per-worker-thread live tensor high-water mark. Default sizes target a
//! small CI machine; scale up with `--nodes`.
//!
//! Beyond the training experiments, three benchmarks gate CI on a
//! committed `BENCH_*.json` artifact: [`kernelbench`] (the kernel perf
//! trajectory), [`servebench`] and [`compressbench`] (codec × protocol).
//!
//! Besides the simulated in-process cluster, the harness can run real
//! multi-process training over TCP loopback: [`launcher`] owns the rank
//! flags, the mesh join and the one-OS-process-per-rank children that
//! `sar-worker` and `sar-serve` share, [`distrun`] is the workload flag
//! vocabulary plus the per-rank lifecycle (rebuild state from flags →
//! rendezvous → train → gather), [`harness::run_workload`] is the one
//! entry point that runs a workload on either backend and hands back the
//! same typed report, and [`smoke`] holds the CI gate's workloads and
//! ledger invariants, shared verbatim between both backends.
//!
//! The serving tier gets the same treatment: [`serverun`] is the
//! per-rank lifecycle of a resident `sar-serve` cluster (rebuild state →
//! load checkpoint → rendezvous → front-end/worker loop), and
//! [`servebench`] drives it with a closed-loop client load, writing the
//! committed, CI-gated `BENCH_serve.json` latency/throughput artifact
//! (`repro servebench`).
//!
//! Each gated benchmark implements [`cli::GatedBench`]: a `run` that
//! emits its artifact as [`json::Value`] records, plus a declaration —
//! the schema tag, the top-level fields that identify the workload, per
//! record array the key fields and the pinned fields a fresh run must
//! reproduce, and one `invariants` function applied to the fresh and the
//! committed document alike. Everything else — schema, identity, run-set
//! and pin checks, the printed table and the `--out`/`--check` files — is
//! [`cli::gated_bench_cmd`], once for all three.

pub mod cli;
pub mod compressbench;
pub mod distrun;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod kernelbench;
pub mod launcher;
pub mod report;
pub mod servebench;
pub mod serverun;
pub mod smoke;
