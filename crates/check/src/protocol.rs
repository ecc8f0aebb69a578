//! Pass 1: the protocol verifier.
//!
//! Builds, for every rank at once, the full symbolic send/recv/barrier
//! program of one training step — forward fetch rounds plus backward
//! gradient routing, in both of the paper's communication models — from
//! the *same* pure schedules ([`sar_core::plan`]) that
//! [`Worker`](sar_core::Worker) executes, then proves three properties by
//! exhaustive symbolic execution:
//!
//! * **Matching** — every send is consumed by exactly one receive with
//!   the same `(src, dst, tag)`; nothing is left in flight at the end.
//! * **Deadlock-freedom** — the program set runs to completion. Sends are
//!   non-blocking (both transports queue them without waiting) and each
//!   `(src, dst, tag)` triple is unique within an exchange, so the
//!   simulation is confluent: one maximal run completing proves *every*
//!   schedule completes, and a stall identifies a genuine wait-cycle,
//!   which is reported rank by rank.
//! * **Residency** — at most `min(K, N−1) + 1 ≤ K + 1` fetched blocks are
//!   staged per worker at any step; with the local partition that is the
//!   paper's `(K+2)/N` memory bound.

use std::collections::HashMap;

use sar_core::plan::{self, FetchStep, GradStep};

use crate::{Finding, PassReport};

/// Which of the paper's two communication models the backward pass uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseModel {
    /// Case 1 (GraphSage): the backward pass routes gradients only — no
    /// refetch of remote features.
    Case1,
    /// Case 2 (GAT): the backward pass refetches remote features (to
    /// rematerialize attention) *and* routes gradients.
    Case2,
}

impl CaseModel {
    /// Stable name used in report locations.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CaseModel::Case1 => "case1",
            CaseModel::Case2 => "case2",
        }
    }
}

/// One symbolic operation of a rank's communication program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Non-blocking send to `dst` under `tag`.
    Send {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u64,
    },
    /// Blocking receive from `src` under `tag`. Whether the received
    /// payload counts against residency is expressed by a following
    /// [`Op::Stage`] — fetched feature blocks are staged, routed gradient
    /// blocks are accumulated immediately and are not.
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: u64,
    },
    /// Stage a block (the round-0 local gather, or a just-fetched remote
    /// block) — residency +1.
    Stage,
    /// Consume the oldest staged block — residency −1.
    Consume,
    /// Synchronize with all ranks (epoch boundary).
    Barrier {
        /// Barrier sequence number; must agree across ranks.
        id: u64,
    },
}

/// One rank's complete program for a training step.
#[derive(Debug, Clone)]
pub struct Program {
    /// The rank executing `ops`.
    pub rank: usize,
    /// Operations in program order.
    pub ops: Vec<Op>,
}

/// Appends the ops of one walk of the pipelined rotation schedule
/// (Algorithm 1), translating the pure plan one step at a time exactly as
/// `Worker::try_fetch_rounds` binds it:
///
/// * `wire = Some(tag)` — blocks come off the wire: `Serve` sends, `Fetch`
///   receives and stages. `wire = None` — a stale epoch replaying the
///   worker's stale-block cache: nothing is served, `Fetch` only stages.
/// * `route = Some(tag)` — a rematerializing refetch (case 2): the
///   gradient router sends partition `q`'s error block under `tag` right
///   after `q`'s block is consumed. The local block needs no message.
fn push_fetch_walk(
    ops: &mut Vec<Op>,
    n: usize,
    p: usize,
    k: usize,
    wire: Option<u64>,
    route: Option<u64>,
) {
    for step in plan::fetch_steps(n, p, k) {
        match step {
            FetchStep::GatherLocal => ops.push(Op::Stage),
            FetchStep::Serve { dst, .. } => {
                if let Some(tag) = wire {
                    ops.push(Op::Send { dst, tag });
                }
            }
            FetchStep::Fetch { src, .. } => {
                if let Some(tag) = wire {
                    ops.push(Op::Recv { src, tag });
                }
                ops.push(Op::Stage);
            }
            FetchStep::Consume { q } => {
                ops.push(Op::Consume);
                if let (Some(tag), true) = (route, q != p) {
                    ops.push(Op::Send { dst: q, tag });
                }
            }
        }
    }
}

/// Appends the ops of one pipelined fetch exchange over the wire.
fn push_fetch_exchange(ops: &mut Vec<Op>, n: usize, p: usize, k: usize, tag: u64) {
    push_fetch_walk(ops, n, p, k, Some(tag), None);
}

/// Appends the gradient router's ops (Algorithm 2) in
/// [`plan::grad_steps`] order. `sends = false` is the router's `finish()`
/// alone — the receives after a refetch walk already pushed every block.
fn push_grad_exchange(ops: &mut Vec<Op>, n: usize, p: usize, tag: u64, sends: bool) {
    for step in plan::grad_steps(n, p) {
        match step {
            GradStep::Send { dst } if sends => ops.push(Op::Send { dst, tag }),
            GradStep::Recv { src } => ops.push(Op::Recv { src, tag }),
            GradStep::AccumulateLocal | GradStep::Send { .. } => {}
        }
    }
}

/// Builds every rank's program for one `layers`-layer training step in
/// the given communication model, with pipeline depth `k`. Tags are
/// allocated the way [`Worker`](sar_core::Worker) allocates them — one
/// fresh tag per exchange, in SPMD order, so all ranks agree.
#[must_use]
pub fn build_programs(n: usize, k: usize, model: CaseModel, layers: usize) -> Vec<Program> {
    (0..n)
        .map(|p| build_protocol_program(n, p, k, model, layers, ProtoSpec::Exact, 1))
        .collect()
}

/// What the symbolic execution measured on a clean run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProofStats {
    /// Total sends executed across ranks.
    pub sends: u64,
    /// Total receives executed across ranks.
    pub recvs: u64,
    /// Maximum staged blocks resident on any rank at any step.
    pub peak_staged: usize,
    /// Total operations executed.
    pub steps: u64,
}

/// Symbolically executes `programs` and checks matching, deadlock-freedom
/// and the staged-block bound (`peak ≤ staged_bound`). Returns the run's
/// measurements plus every violated property.
///
/// Accepts *arbitrary* programs — not just ones from [`build_programs`] —
/// so seeding a violation (dropping a recv, say) demonstrably fails.
#[must_use]
pub fn verify(n: usize, programs: &[Program], staged_bound: usize) -> (ProofStats, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut stats = ProofStats::default();
    let mut pc = vec![0usize; programs.len()];
    let mut staged = vec![0usize; programs.len()];
    // In-flight (src, dst, tag) → multiplicity.
    let mut inflight: HashMap<(usize, usize, u64), u64> = HashMap::new();

    let location = |p: usize, i: usize| format!("rank {p} op {i}");

    loop {
        let mut progressed = false;
        for (idx, prog) in programs.iter().enumerate() {
            let p = prog.rank;
            // Run this rank to its next blocking point.
            while let Some(&op) = prog.ops.get(pc[idx]) {
                match op {
                    Op::Send { dst, tag } => {
                        if dst >= n {
                            findings.push(Finding {
                                rule: "matched-send-recv".into(),
                                location: location(p, pc[idx]),
                                message: format!("send to rank {dst} outside world of {n}"),
                            });
                        }
                        *inflight.entry((p, dst, tag)).or_insert(0) += 1;
                        stats.sends += 1;
                    }
                    Op::Recv { src, tag } => {
                        match inflight.get_mut(&(src, p, tag)) {
                            Some(count) => {
                                *count -= 1;
                                if *count == 0 {
                                    inflight.remove(&(src, p, tag));
                                }
                                stats.recvs += 1;
                            }
                            // Message not in flight yet: block here.
                            None => break,
                        }
                    }
                    Op::Stage => {
                        staged[idx] += 1;
                        stats.peak_staged = stats.peak_staged.max(staged[idx]);
                    }
                    Op::Consume => {
                        if staged[idx] == 0 {
                            findings.push(Finding {
                                rule: "residency-bound".into(),
                                location: location(p, pc[idx]),
                                message: "consume with no staged block (pipeline underrun)".into(),
                            });
                        } else {
                            staged[idx] -= 1;
                        }
                    }
                    // Barriers are resolved globally below.
                    Op::Barrier { .. } => break,
                }
                pc[idx] += 1;
                stats.steps += 1;
                progressed = true;
                if staged[idx] > staged_bound {
                    findings.push(Finding {
                        rule: "residency-bound".into(),
                        location: location(p, pc[idx]),
                        message: format!(
                            "{} staged blocks resident, bound is {staged_bound} \
                             (min(K, N-1) + 1)",
                            staged[idx]
                        ),
                    });
                }
            }
        }

        // Barrier resolution: all ranks waiting at a barrier with one id
        // advance together.
        let at_barrier: Vec<Option<u64>> = programs
            .iter()
            .enumerate()
            .map(|(idx, prog)| match prog.ops.get(pc[idx]) {
                Some(Op::Barrier { id }) => Some(*id),
                _ => None,
            })
            .collect();
        if at_barrier.iter().all(Option::is_some) && !at_barrier.is_empty() {
            let ids: Vec<u64> = at_barrier.iter().map(|id| id.expect("checked")).collect();
            if ids.windows(2).all(|w| w[0] == w[1]) {
                for (idx, _) in programs.iter().enumerate() {
                    pc[idx] += 1;
                    stats.steps += 1;
                }
                progressed = true;
            } else {
                findings.push(Finding {
                    rule: "deadlock-free".into(),
                    location: "barrier".into(),
                    message: format!("ranks wait at different barriers: ids {ids:?}"),
                });
                return (stats, findings);
            }
        }

        let done = programs
            .iter()
            .enumerate()
            .all(|(idx, prog)| pc[idx] >= prog.ops.len());
        if done {
            break;
        }
        if !progressed {
            // Global stall: reconstruct the wait graph for the report.
            for (idx, prog) in programs.iter().enumerate() {
                if let Some(&op) = prog.ops.get(pc[idx]) {
                    let why = match op {
                        Op::Recv { src, tag } => {
                            let peer_state = programs
                                .iter()
                                .enumerate()
                                .find(|(_, q)| q.rank == src)
                                .map(|(qidx, q)| {
                                    if pc[qidx] >= q.ops.len() {
                                        format!("rank {src} already terminated")
                                    } else {
                                        format!("rank {src} is blocked at op {}", pc[qidx])
                                    }
                                })
                                .unwrap_or_else(|| format!("rank {src} has no program"));
                            format!(
                                "blocked on recv(src={src}, tag={tag}) — never sent; {peer_state}"
                            )
                        }
                        Op::Barrier { id } => {
                            format!("blocked at barrier {id} while some rank never arrives")
                        }
                        other => format!("stuck before {other:?}"),
                    };
                    findings.push(Finding {
                        rule: "deadlock-free".into(),
                        location: location(prog.rank, pc[idx]),
                        message: why,
                    });
                }
            }
            return (stats, findings);
        }
    }

    // Completion with messages still in flight = unmatched sends.
    let mut leftover: Vec<(&(usize, usize, u64), &u64)> = inflight.iter().collect();
    leftover.sort();
    for (&(src, dst, tag), &count) in leftover {
        findings.push(Finding {
            rule: "matched-send-recv".into(),
            location: format!("rank {src} -> rank {dst}"),
            message: format!(
                "{count} message(s) with tag {tag} sent by rank {src} but never \
                 received by rank {dst}"
            ),
        });
    }

    for (idx, prog) in programs.iter().enumerate() {
        if staged[idx] != 0 {
            findings.push(Finding {
                rule: "residency-bound".into(),
                location: format!("rank {}", prog.rank),
                message: format!("{} staged block(s) never consumed", staged[idx]),
            });
        }
    }

    (stats, findings)
}

/// Which exchange protocol a multi-epoch training program runs — the
/// symbolic mirror of `sar_core::Protocol`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoSpec {
    /// Every epoch runs the full rotation exchange.
    Exact,
    /// Local-subgraph training: no remote fetch, no gradient routing.
    /// Every rank skips the same messages, so nothing is ever in flight.
    GradOnly,
    /// Refresh every `r` epochs (`r ≥ 1`); stale epochs in between replay
    /// the cached blocks with zero fetch-phase traffic.
    Stale(usize),
}

impl ProtoSpec {
    /// Stable name used in report locations (`gradonly`, `stale:2`, …).
    #[must_use]
    pub fn name(self) -> String {
        match self {
            ProtoSpec::Exact => "exact".to_string(),
            ProtoSpec::GradOnly => "gradonly".to_string(),
            ProtoSpec::Stale(r) => format!("stale:{r}"),
        }
    }
}

/// Appends one rotation walk under `proto` — and bumps the tag
/// *unconditionally*, exactly as `Worker::next_tag` does: approximate
/// protocols skip messages, not tags, so the SPMD tag streams stay
/// aligned across protocol phases (a stale epoch followed by a refresh).
/// `route` is the gradient tag of a rematerializing refetch (case 2).
#[allow(clippy::too_many_arguments)]
fn push_protocol_walk(
    ops: &mut Vec<Op>,
    n: usize,
    p: usize,
    k: usize,
    proto: ProtoSpec,
    fresh: bool,
    route: Option<u64>,
    tag: &mut u64,
) {
    match proto {
        // Local round only: gather, consume, no traffic, nothing routed.
        ProtoSpec::GradOnly => {
            ops.push(Op::Stage);
            ops.push(Op::Consume);
        }
        // A stale epoch walks the same depth-k schedule out of its cache;
        // routing stays exact.
        ProtoSpec::Stale(_) if !fresh => push_fetch_walk(ops, n, p, k, None, route),
        ProtoSpec::Exact | ProtoSpec::Stale(_) => push_fetch_walk(ops, n, p, k, Some(*tag), route),
    }
    *tag += 1;
}

/// Builds rank `p`'s program for `epochs` training epochs under an
/// exchange protocol, mirroring the trainer's epoch loop: `Stale(r)`
/// refreshes when `epoch % r == 0` and replays otherwise; `GradOnly`
/// never exchanges; tags advance unconditionally on every walk and
/// gradient exchange so ranks stay aligned through skipped phases. Each
/// epoch ends at a barrier carrying the epoch number, as the trainer's
/// epoch boundary does.
///
/// The backward pass is what the runtime does, not a summary of it. Case
/// 1 (`Worker::exchange_grads`): the router pushes every block, then
/// finishes. Case 2 (`GatAggFn::backward`): the router is opened first
/// (its tag precedes the refetch's), each consumed block's gradient is
/// sent from inside the refetch walk, and the receives follow the walk.
#[must_use]
pub fn build_protocol_program(
    n: usize,
    p: usize,
    k: usize,
    model: CaseModel,
    layers: usize,
    proto: ProtoSpec,
    epochs: usize,
) -> Program {
    let mut ops = Vec::new();
    let mut tag = 0u64;
    let routed = proto != ProtoSpec::GradOnly;
    for epoch in 0..epochs {
        let fresh = match proto {
            ProtoSpec::Stale(r) => r == 0 || epoch % r == 0,
            _ => true,
        };
        // Forward: one walk per layer.
        for _ in 0..layers {
            push_protocol_walk(&mut ops, n, p, k, proto, fresh, None, &mut tag);
        }
        // Backward, deepest layer first. The router's tag is allocated
        // unconditionally, like the walk's.
        for _ in 0..layers {
            let grad_tag = tag;
            tag += 1;
            if model == CaseModel::Case2 {
                // Rematerialization refetch — same protocol dispatch (a
                // stale epoch replays it from cache too).
                let route = Some(grad_tag);
                push_protocol_walk(&mut ops, n, p, k, proto, fresh, route, &mut tag);
            }
            if routed {
                push_grad_exchange(&mut ops, n, p, grad_tag, model == CaseModel::Case1);
            }
        }
        ops.push(Op::Barrier { id: epoch as u64 });
    }
    Program { rank: p, ops }
}

// ----------------------------------------------------------------------
// Serve-tier control plane
// ----------------------------------------------------------------------

/// Per-batch tag window of the symbolic serve model (scaled-down mirror
/// of the engine's `batch_base`).
fn serve_base(seq: u64) -> u64 {
    seq * 0x1000
}
/// Control broadcast slot within a batch window.
const SERVE_OFF_CTRL: u64 = 0;
/// MFG build-exchange slots (`+ level`).
const SERVE_OFF_BUILD: u64 = 0x100;
/// Base of the engine worker's own tag stream (scaled-down mirror of the
/// rotation's point-to-point tag base): the per-level forward walks draw
/// their tags from it, one per level, across batches.
const SERVE_WALK_TAG_BASE: u64 = 1 << 40;
/// Result-gather position stream to rank 0.
const SERVE_OFF_RES_POS: u64 = 0x300;
/// Result-gather value stream to rank 0.
const SERVE_OFF_RES_VAL: u64 = 0x301;
/// Barrier id of the drain-then-ack shutdown.
const SERVE_QUIESCE_ID: u64 = u64::MAX;

/// Builds every rank's program for `batches` serve query batches followed
/// by a shutdown, mirroring `sar-serve`'s engine: rank 0 broadcasts a
/// seq-numbered control message per batch (tag `batch_base(seq) +
/// OFF_CTRL`); every batch runs `layers` send-all-then-recv-all MFG build
/// exchanges, then `layers` forward walks — the training walker itself at
/// depth `n − 1` (every serve before the first consume), so serving
/// inherits the matching, deadlock and residency proofs of the rotation
/// instead of a hand-written mirror; workers ship results to
/// rank 0 as a position stream plus a value stream; shutdown is one more
/// control broadcast followed by the drain barrier (`quiesce`), so no
/// rank exits while a peer still expects service.
#[must_use]
pub fn build_serve_programs(n: usize, layers: usize, batches: usize) -> Vec<Program> {
    (0..n)
        .map(|p| {
            let mut ops = Vec::new();
            let mut walk_tag = SERVE_WALK_TAG_BASE;
            for seq in 0..batches as u64 {
                let base = serve_base(seq);
                // Seq-numbered control broadcast.
                if p == 0 {
                    for q in 1..n {
                        ops.push(Op::Send {
                            dst: q,
                            tag: base + SERVE_OFF_CTRL,
                        });
                    }
                } else {
                    ops.push(Op::Recv {
                        src: 0,
                        tag: base + SERVE_OFF_CTRL,
                    });
                }
                // MFG build: top level down, all-to-all, send-all first.
                for k in (1..=layers).rev() {
                    let tag = base + SERVE_OFF_BUILD + k as u64;
                    for q in (0..n).filter(|&q| q != p) {
                        ops.push(Op::Send { dst: q, tag });
                    }
                    for q in (0..n).filter(|&q| q != p) {
                        ops.push(Op::Recv { src: q, tag });
                    }
                }
                // Restricted rotation forward, bottom level up: one walk
                // of the rotation per level under the worker's next tag.
                for _ in 0..layers {
                    push_fetch_exchange(&mut ops, n, p, n - 1, walk_tag);
                    walk_tag += 1;
                }
                // Result gather: two streams per worker to rank 0.
                if p == 0 {
                    for q in 1..n {
                        ops.push(Op::Recv {
                            src: q,
                            tag: base + SERVE_OFF_RES_POS,
                        });
                        ops.push(Op::Recv {
                            src: q,
                            tag: base + SERVE_OFF_RES_VAL,
                        });
                    }
                } else {
                    ops.push(Op::Send {
                        dst: 0,
                        tag: base + SERVE_OFF_RES_POS,
                    });
                    ops.push(Op::Send {
                        dst: 0,
                        tag: base + SERVE_OFF_RES_VAL,
                    });
                }
            }
            // Shutdown: one more seq-numbered broadcast, then drain.
            let base = serve_base(batches as u64);
            if p == 0 {
                for q in 1..n {
                    ops.push(Op::Send {
                        dst: q,
                        tag: base + SERVE_OFF_CTRL,
                    });
                }
            } else {
                ops.push(Op::Recv {
                    src: 0,
                    tag: base + SERVE_OFF_CTRL,
                });
            }
            ops.push(Op::Barrier {
                id: SERVE_QUIESCE_ID,
            });
            Program { rank: p, ops }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Rendezvous: hello → roster
// ----------------------------------------------------------------------

/// Hello stream base tag (`+ worker rank`).
const NEG_HELLO: u64 = 1 << 32;
/// Reply stream base tag (`+ worker rank`).
const NEG_REPLY: u64 = (1 << 32) + 0x100;

/// Builds the rendezvous exchange: every worker sends its hello (its rank
/// and its data listener address) to rank 0 and blocks on the reply;
/// rank 0 collects all hellos, then answers each one with the roster. A
/// rejected hello (out-of-range or duplicate rank) does not change this
/// shape — rank 0 rejects by erroring out of the rendezvous, and the
/// connection teardown unblocks a blocked reader just as a frame does, so
/// the reject is modeled as a reply message. Either way every worker is
/// answered and no rank hangs.
#[must_use]
pub fn build_negotiation_programs(n: usize) -> Vec<Program> {
    (0..n)
        .map(|p| {
            let mut ops = Vec::new();
            if p == 0 {
                for q in 1..n {
                    ops.push(Op::Recv {
                        src: q,
                        tag: NEG_HELLO + q as u64,
                    });
                }
                for q in 1..n {
                    ops.push(Op::Send {
                        dst: q,
                        tag: NEG_REPLY + q as u64,
                    });
                }
            } else {
                ops.push(Op::Send {
                    dst: 0,
                    tag: NEG_HELLO + p as u64,
                });
                ops.push(Op::Recv {
                    src: 0,
                    tag: NEG_REPLY + p as u64,
                });
            }
            Program { rank: p, ops }
        })
        .collect()
}

/// Runs the full CI sweep — every `(N, K)` in `ns × ks`, both
/// communication models, `layers` layers — and folds the results into one
/// [`PassReport`]. A clean report is a machine-checked proof that the
/// schedule [`Worker`](sar_core::Worker) executes is matched,
/// deadlock-free and within the `(K+2)/N` residency bound at every swept
/// scale.
///
/// Beyond the exact single-step schedules, the sweep covers the
/// approximate-exchange protocols (`gradonly`, `stale:2`, `stale:3` over
/// four epochs, proving the symmetric skips and unconditional tag bumps
/// keep mixed protocol phases aligned), the serve tier's seq-numbered
/// control broadcast / MFG exchanges / drain-then-ack shutdown, and the
/// rendezvous hello → roster exchange — each a distinct obligation
/// counter in the proof report.
#[must_use]
pub fn sweep(ns: &[usize], ks: &[usize], layers: usize) -> PassReport {
    let mut report = PassReport::new("protocol");
    let mut peak_overall = 0usize;
    for &n in ns {
        for &k in ks {
            let bound = k.min(n - 1) + 1;
            for model in [CaseModel::Case1, CaseModel::Case2] {
                let programs = build_programs(n, k, model, layers);
                let here = format!("N={n} K={k} model={}", model.name());
                let peak = sweep_step(&mut report, "configs_verified", &here, &programs, bound);
                peak_overall = peak_overall.max(peak);
            }
        }
    }
    // Approximate-exchange protocols: gradonly and stale replay with
    // refresh epochs interleaved, four epochs so every Stale(r) swept
    // both refreshes and replays — proving the unconditional tag bumps
    // keep mixed protocol phases matched and deadlock-free.
    const PROTO_EPOCHS: usize = 4;
    for &n in ns {
        for &k in ks {
            let bound = k.min(n - 1) + 1;
            for model in [CaseModel::Case1, CaseModel::Case2] {
                for proto in [
                    ProtoSpec::GradOnly,
                    ProtoSpec::Stale(2),
                    ProtoSpec::Stale(3),
                ] {
                    let programs: Vec<Program> = (0..n)
                        .map(|p| {
                            build_protocol_program(n, p, k, model, layers, proto, PROTO_EPOCHS)
                        })
                        .collect();
                    let here = format!("N={n} K={k} model={} proto={}", model.name(), proto.name());
                    let counter = "protocol_configs_verified";
                    let peak = sweep_step(&mut report, counter, &here, &programs, bound);
                    peak_overall = peak_overall.max(peak);
                }
            }
        }
    }
    for &n in ns {
        // Serve tier: seq-numbered control broadcasts, MFG build
        // all-to-alls, depth-(N−1) forward walks (staging all N blocks of
        // a level is the bound there), result gather, drain-then-ack
        // shutdown.
        let programs = build_serve_programs(n, layers, 3);
        let here = format!("N={n} model=serve");
        sweep_step(&mut report, "serve_configs_verified", &here, &programs, n);
    }
    for &n in ns {
        // Rendezvous: every worker's hello is answered — by the roster or
        // by the teardown a reject causes — so neither outcome can hang a
        // rank.
        let programs = build_negotiation_programs(n);
        let here = format!("N={n} model=negotiation");
        sweep_step(&mut report, "negotiations_verified", &here, &programs, 0);
    }
    report.bump("peak_staged_blocks", peak_overall as u64);
    report
}

/// One configuration of the sweep: verifies `programs` (one per rank),
/// counts it under `counter`, adds its sends and steps to the sweep's
/// totals and its findings, located at `here`, to `report`. Returns its
/// peak staged blocks.
fn sweep_step(
    report: &mut PassReport,
    counter: &str,
    here: &str,
    programs: &[Program],
    staged_bound: usize,
) -> usize {
    let (stats, findings) = verify(programs.len(), programs, staged_bound);
    report.bump(counter, 1);
    report.bump("sends_matched", stats.sends);
    report.bump("ops_executed", stats.steps);
    locate(report, here, findings);
    stats.peak_staged
}

/// Adds `findings` to `report`, each location prefixed with the sweep
/// coordinate `here`.
fn locate(report: &mut PassReport, here: &str, findings: Vec<Finding>) {
    for mut finding in findings {
        finding.location = format!("{here} {}", finding.location);
        report.findings.push(finding);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_is_clean() {
        let report = sweep(&[2, 3, 4, 5, 6, 7, 8], &[0, 1, 2, 3], 2);
        assert!(
            report.clean(),
            "protocol sweep found: {:#?}",
            report.findings
        );
        // 7 world sizes × 4 depths × 2 models.
        assert_eq!(report.stats[0], ("configs_verified".into(), 56));
    }

    #[test]
    fn dropped_recv_is_reported_as_unmatched_send() {
        let mut programs = build_programs(4, 1, CaseModel::Case1, 1);
        // Seed the violation: rank 2 forgets one fetch receive (and its
        // consume, to keep residency accounting separate).
        let drop_at = programs[2]
            .ops
            .iter()
            .position(|op| matches!(op, Op::Recv { .. }))
            .expect("fetch plan has receives");
        programs[2].ops.remove(drop_at);
        let consume_at = programs[2]
            .ops
            .iter()
            .rposition(|op| matches!(op, Op::Consume))
            .expect("fetch plan has consumes");
        programs[2].ops.remove(consume_at);
        let (_, findings) = verify(4, &programs, 2);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "matched-send-recv" && f.message.contains("never received")),
            "expected an unmatched-send finding, got {findings:#?}"
        );
    }

    #[test]
    fn dropped_send_is_reported_as_deadlock_naming_both_ranks() {
        let mut programs = build_programs(3, 0, CaseModel::Case1, 1);
        let drop_at = programs[1]
            .ops
            .iter()
            .position(|op| matches!(op, Op::Send { .. }))
            .expect("fetch plan has sends");
        programs[1].ops.remove(drop_at);
        let (_, findings) = verify(3, &programs, 1);
        let deadlock = findings
            .iter()
            .find(|f| f.rule == "deadlock-free")
            .expect("expected a deadlock finding");
        assert!(
            deadlock.message.contains("blocked on recv"),
            "unexpected message: {}",
            deadlock.message
        );
    }

    #[test]
    fn residency_peak_matches_depth() {
        for k in 0..4usize {
            let programs = build_programs(5, k, CaseModel::Case2, 2);
            let (stats, findings) = verify(5, &programs, k.min(4) + 1);
            assert!(findings.is_empty(), "k={k}: {findings:#?}");
            assert_eq!(stats.peak_staged, k.min(4) + 1, "k={k}");
        }
    }

    #[test]
    fn approximate_protocols_are_matched_and_deadlock_free() {
        for n in 2..=8usize {
            for proto in [
                ProtoSpec::GradOnly,
                ProtoSpec::Stale(2),
                ProtoSpec::Stale(3),
            ] {
                for model in [CaseModel::Case1, CaseModel::Case2] {
                    let programs: Vec<Program> = (0..n)
                        .map(|p| build_protocol_program(n, p, 1, model, 2, proto, 4))
                        .collect();
                    let (_, findings) = verify(n, &programs, 1.min(n - 1) + 1);
                    assert!(
                        findings.is_empty(),
                        "n={n} proto={} model={}: {findings:#?}",
                        proto.name(),
                        model.name()
                    );
                }
            }
        }
    }

    #[test]
    fn case2_backward_routes_each_block_from_inside_the_refetch() {
        // What `GatAggFn::backward` does: the router's tag is allocated
        // before the refetch's, every remote block's gradient leaves right
        // after that block is consumed, the local block sends nothing, and
        // the receives run after the walk.
        let (n, p) = (4, 1);
        let prog = &build_programs(n, 0, CaseModel::Case2, 1)[p];
        let (fwd_tag, grad_tag, refetch_tag) = (0u64, 1u64, 2u64);
        let backward: Vec<Op> = prog
            .ops
            .iter()
            .copied()
            .skip_while(
                |op| !matches!(op, Op::Send { tag, .. } | Op::Recv { tag, .. } if *tag != fwd_tag),
            )
            .collect();
        let routed: Vec<usize> = backward
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::Send { tag, .. } if *tag == grad_tag))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(routed.len(), n - 1, "one routed block per remote partition");
        for &i in &routed {
            assert_eq!(backward[i - 1], Op::Consume, "route follows its consume");
            assert!(
                !matches!(backward[i], Op::Send { dst, .. } if dst == p),
                "no self-send"
            );
        }
        let last_walk_op = backward
            .iter()
            .rposition(|op| matches!(op, Op::Consume | Op::Send { .. }))
            .expect("walk ops");
        let first_grad_recv = backward
            .iter()
            .position(|op| matches!(op, Op::Recv { tag, .. } if *tag == grad_tag))
            .expect("grad recvs");
        assert!(first_grad_recv > last_walk_op, "receives follow the walk");
        assert!(backward
            .iter()
            .any(|op| matches!(op, Op::Recv { tag, .. } if *tag == refetch_tag)));
    }

    #[test]
    fn stale_replay_walks_the_depth_k_schedule_without_messages() {
        // Epoch 1 of stale:2 replays the cache through the same staging
        // as a wire walk: residency peaks at min(K, N−1) + 1, no fetch
        // traffic, while case-2 routing stays exact.
        let (n, k) = (5, 2);
        let programs: Vec<Program> = (0..n)
            .map(|p| build_protocol_program(n, p, k, CaseModel::Case2, 1, ProtoSpec::Stale(2), 2))
            .collect();
        let (stats, findings) = verify(n, &programs, k + 1);
        assert!(findings.is_empty(), "{findings:#?}");
        assert_eq!(stats.peak_staged, k + 1);
        // Fresh epoch: 2 walks + routing = 3(n−1) sends per rank; stale
        // epoch: routing only.
        assert_eq!(stats.sends, (n * (n - 1) * 4) as u64);
    }

    #[test]
    fn conditional_tag_bump_on_one_rank_breaks_matching() {
        // Seed the bug the unconditional-bump rule prevents: rank 0
        // forgets to advance its tag for the skipped fetch of a stale
        // epoch, so its epoch-1 gradient exchange runs under tag 2 while
        // every peer expects tag 3.
        let n = 3;
        let mut programs: Vec<Program> = (0..n)
            .map(|p| build_protocol_program(n, p, 0, CaseModel::Case1, 1, ProtoSpec::Stale(2), 2))
            .collect();
        for op in &mut programs[0].ops {
            match op {
                Op::Send { tag, .. } | Op::Recv { tag, .. } if *tag == 3 => *tag = 2,
                _ => {}
            }
        }
        let (_, findings) = verify(n, &programs, 1);
        assert!(
            findings.iter().any(|f| f.rule == "deadlock-free")
                || findings.iter().any(|f| f.rule == "matched-send-recv"),
            "expected misaligned tag streams to be caught, got {findings:#?}"
        );
    }

    #[test]
    fn serve_control_plane_is_matched_and_deadlock_free() {
        for n in 2..=8usize {
            let programs = build_serve_programs(n, 2, 3);
            let (stats, findings) = verify(n, &programs, n);
            assert!(findings.is_empty(), "n={n}: {findings:#?}");
            // The forward walks run the rotation at depth n−1: all n
            // blocks of a level are staged before the first consume.
            assert_eq!(stats.peak_staged, n, "n={n}");
            // Per batch: ctrl (n−1) + 2·layers all-to-alls (n(n−1)) +
            // results (2(n−1)); shutdown adds one more ctrl broadcast.
            let per_batch = (n - 1) + 4 * n * (n - 1) + 2 * (n - 1);
            assert_eq!(stats.sends, (3 * per_batch + (n - 1)) as u64, "n={n}");
            assert_eq!(stats.sends, stats.recvs, "n={n}");
        }
    }

    #[test]
    fn worker_skipping_the_quiesce_barrier_is_reported() {
        // Seed the shutdown bug quiesce() exists to prevent: rank 2 acks
        // the shutdown but exits without draining. The barrier can then
        // never resolve and every parked rank is named.
        let mut programs = build_serve_programs(4, 2, 1);
        let barrier_at = programs[2]
            .ops
            .iter()
            .position(|op| matches!(op, Op::Barrier { .. }))
            .expect("serve program ends at the quiesce barrier");
        programs[2].ops.remove(barrier_at);
        let (_, findings) = verify(4, &programs, 4);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "deadlock-free" && f.message.contains("barrier")),
            "expected a quiesce deadlock, got {findings:#?}"
        );
    }

    #[test]
    fn stale_seq_number_is_reported_as_deadlock() {
        // Seed a seq-counter bug: rank 1 forgets to advance its batch
        // sequence after batch 0 and listens for batch 1's control
        // message on batch 0's tag, which was already consumed.
        let mut programs = build_serve_programs(3, 1, 2);
        let stale_tag = serve_base(0) + SERVE_OFF_CTRL;
        let fresh_tag = serve_base(1) + SERVE_OFF_CTRL;
        let mut seen = 0;
        for op in &mut programs[1].ops {
            if let Op::Recv { src: 0, tag } = op {
                if *tag == fresh_tag {
                    *tag = stale_tag;
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, 1, "expected exactly one batch-1 ctrl recv");
        let (_, findings) = verify(3, &programs, 3);
        assert!(
            findings.iter().any(|f| f.rule == "deadlock-free"),
            "expected the stale seq to deadlock, got {findings:#?}"
        );
    }

    #[test]
    fn negotiation_answers_every_worker_for_both_outcomes() {
        // Accept and reject produce the same message shape (a reject's
        // connection teardown unblocks the reader like a frame), so one
        // clean verification covers both outcomes.
        for n in 2..=8usize {
            let programs = build_negotiation_programs(n);
            let (stats, findings) = verify(n, &programs, 0);
            assert!(findings.is_empty(), "n={n}: {findings:#?}");
            assert_eq!(stats.sends, 2 * (n as u64 - 1), "n={n}");
        }
    }

    #[test]
    fn negotiation_silent_reject_is_reported_as_deadlock() {
        // Seed the bug the reply-to-everyone rule prevents: rank 0 drops
        // the mismatched worker's reply without tearing the connection
        // down, leaving that worker blocked in the rendezvous forever.
        let mut programs = build_negotiation_programs(4);
        let reply_at = programs[0]
            .ops
            .iter()
            .position(|op| matches!(op, Op::Send { dst: 2, .. }))
            .expect("rank 0 replies to worker 2");
        programs[0].ops.remove(reply_at);
        let (_, findings) = verify(4, &programs, 0);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "deadlock-free" && f.message.contains("blocked on recv")),
            "expected the unanswered worker to be reported, got {findings:#?}"
        );
    }
}
