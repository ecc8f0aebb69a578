//! The per-phase / per-layer observability ledger.
//!
//! SAR's cost story is told per *phase* of Algorithms 1 and 2: the
//! sequential forward fetch, the backward re-fetch (case 2 only — the
//! paper's 50% communication overhead), the error routing back to owners,
//! and the parameter/loss collectives. The [`PhaseLedger`] splits every
//! byte, message, communication microsecond, CPU microsecond and tensor-memory
//! high-water mark along those phases (and, when a layer scope is active,
//! along model layers), so a run can *verify* the paper's claims — e.g.
//! that GraphSage's backward pass fetches zero bytes, or that prefetching
//! raises the resident-block peak from 2/N to 3/N.

use std::collections::BTreeMap;

/// A phase of the distributed training loop, in the paper's terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Phase {
    /// Algorithm 1's sequential rotation fetch during the forward pass
    /// (plus the aggregation compute consuming each fetched block).
    ForwardFetch,
    /// Algorithm 2's re-fetch of remote features during the backward pass
    /// of attention-style layers (case 2) — the paper's 50% extra volume.
    BackwardRefetch,
    /// Routing error blocks back to the workers that own the features
    /// (`E_{p→q}` sends and the `E_p = Σ_q E_{q→p}` accumulation).
    GradRouting,
    /// Collectives: gradient all-reduce, loss/accuracy reductions,
    /// distributed batch-norm statistics. Classified automatically from
    /// the collective tag range.
    Collective,
    /// Anything not inside an explicit phase scope (dense layer compute,
    /// optimizer steps, evaluation).
    #[default]
    Other,
}

impl Phase {
    /// All phases, in ledger order.
    pub const ALL: [Phase; 5] = [
        Phase::ForwardFetch,
        Phase::BackwardRefetch,
        Phase::GradRouting,
        Phase::Collective,
        Phase::Other,
    ];

    /// Stable snake_case name, used as the JSON key in run reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ForwardFetch => "forward_fetch",
            Phase::BackwardRefetch => "backward_refetch",
            Phase::GradRouting => "grad_routing",
            Phase::Collective => "collective",
            Phase::Other => "other",
        }
    }
}

/// Accumulated measurements for one `(phase, layer)` cell of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseEntry {
    /// Bytes sent while in this phase (self-sends included, mirroring
    /// [`CommStats::sent_bytes`](crate::CommStats::sent_bytes)).
    pub sent_bytes: u64,
    /// Bytes received from *remote* peers while in this phase.
    pub recv_bytes: u64,
    /// Bytes sent *as encoded for the wire* — frame header plus the
    /// codec-compressed payload. Equal to [`PhaseEntry::sent_bytes`]
    /// under the `raw` codec (and for self-sends, which never hit the
    /// network); smaller under any compressing codec. The logical
    /// counters above are the protocol-semantics ledger the parity
    /// digest pins; this pair is what actually crossed the network.
    pub wire_sent_bytes: u64,
    /// Bytes received from remote peers as encoded for the wire.
    pub wire_recv_bytes: u64,
    /// Messages sent.
    pub sent_messages: u64,
    /// Messages received from remote peers.
    pub recv_messages: u64,
    /// Communication time charged in this phase, µs: α–β simulated on a
    /// [`Clock::Simulated`](crate::Clock::Simulated) backend, measured
    /// wall-clock blocking time on a
    /// [`Clock::Wall`](crate::Clock::Wall) backend.
    pub comm_us: f64,
    /// Thread CPU time spent while this phase was active, µs (exclusive:
    /// a nested phase's time is charged to the nested phase only). Includes
    /// CPU burned by intra-worker pool helper threads
    /// (`sar_tensor::pool`), so with `--threads N` this can exceed
    /// [`PhaseEntry::wall_us`] — the ratio `cpu_us / wall_us` reads as the
    /// phase's parallel speedup.
    pub cpu_us: f64,
    /// Wall-clock time elapsed while this phase was active, µs (exclusive,
    /// like [`PhaseEntry::cpu_us`]). Unlike CPU time this includes time
    /// blocked on the network or on peers.
    pub wall_us: f64,
    /// Wall-clock time spent *parked* inside a blocking receive while this
    /// phase was active, µs — the slice of [`PhaseEntry::wall_us`] during
    /// which the worker had nothing to do but wait for the network. The
    /// ratio `blocked_us / wall_us` is the phase's un-overlapped fraction:
    /// a pipelined fetch that truly overlaps communication with
    /// aggregation drives it toward zero.
    pub blocked_us: f64,
    /// Highest live tensor bytes observed during any scope of this phase.
    pub peak_tensor_bytes: u64,
}

/// How one [`PhaseEntry`] field folds, with the accessor ("slot") that
/// reaches it. The variant fixes the field's type: counts and peaks are
/// `u64`, microseconds are `f64`.
#[derive(Debug, Clone, Copy)]
pub enum FieldKind {
    /// A `u64` counter; folding adds.
    Count(fn(&mut PhaseEntry) -> &mut u64),
    /// An `f64` microsecond total; folding adds.
    Micros(fn(&mut PhaseEntry) -> &mut f64),
    /// A `u64` high-water mark; folding takes the max.
    Peak(fn(&mut PhaseEntry) -> &mut u64),
}

/// One row of [`PhaseEntry::FIELDS`].
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// The field's name — also its key in run-report JSON.
    pub name: &'static str,
    /// How it folds, and where it lives.
    pub kind: FieldKind,
}

impl PhaseEntry {
    /// The one list of this struct's fields, in JSON order.
    /// [`PhaseEntry::absorb`] and `sar-bench`'s rank-record JSON writer
    /// and reader iterate it, so a new ledger field is one struct field
    /// plus one row here. Slots take `&mut`; readers go through a copy (the struct is
    /// `Copy`).
    pub const FIELDS: [Field; 11] = {
        use FieldKind::{Count, Micros, Peak};
        const fn row(name: &'static str, kind: FieldKind) -> Field {
            Field { name, kind }
        }
        [
            row("sent_bytes", Count(|e| &mut e.sent_bytes)),
            row("recv_bytes", Count(|e| &mut e.recv_bytes)),
            row("wire_sent_bytes", Count(|e| &mut e.wire_sent_bytes)),
            row("wire_recv_bytes", Count(|e| &mut e.wire_recv_bytes)),
            row("sent_messages", Count(|e| &mut e.sent_messages)),
            row("recv_messages", Count(|e| &mut e.recv_messages)),
            row("comm_us", Micros(|e| &mut e.comm_us)),
            row("cpu_us", Micros(|e| &mut e.cpu_us)),
            row("wall_us", Micros(|e| &mut e.wall_us)),
            row("blocked_us", Micros(|e| &mut e.blocked_us)),
            row("peak_tensor_bytes", Peak(|e| &mut e.peak_tensor_bytes)),
        ]
    };

    /// Folds `other` into `self`: counters add, the peak takes the max.
    pub fn absorb(&mut self, other: &PhaseEntry) {
        let mut other = *other;
        for field in &PhaseEntry::FIELDS {
            match field.kind {
                FieldKind::Count(at) => *at(self) += *at(&mut other),
                FieldKind::Micros(at) => *at(self) += *at(&mut other),
                FieldKind::Peak(at) => *at(self) = (*at(self)).max(*at(&mut other)),
            }
        }
    }
}

/// Per-phase, per-layer ledger of one worker's communication, compute and
/// memory. Lives inside [`CommStats`](crate::CommStats), so it travels
/// with it from [`WorkerCtx::stats`](crate::WorkerCtx::stats) to the
/// run report untouched.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseLedger {
    entries: BTreeMap<(Phase, Option<u16>), PhaseEntry>,
}

impl PhaseLedger {
    /// The mutable cell for `(phase, layer)`, created zeroed on first use.
    pub fn entry_mut(&mut self, phase: Phase, layer: Option<u16>) -> &mut PhaseEntry {
        self.entries.entry((phase, layer)).or_default()
    }

    /// A copy of the `(phase, layer)` cell (zeros if never touched).
    pub fn get(&self, phase: Phase, layer: Option<u16>) -> PhaseEntry {
        self.entries
            .get(&(phase, layer))
            .copied()
            .unwrap_or_default()
    }

    /// The phase's totals across all layers (peaks take the max).
    pub fn phase_total(&self, phase: Phase) -> PhaseEntry {
        let mut total = PhaseEntry::default();
        for ((p, _), e) in &self.entries {
            if *p == phase {
                total.absorb(e);
            }
        }
        total
    }

    /// Iterates every populated `(phase, layer)` cell in ledger order.
    pub fn rows(&self) -> impl Iterator<Item = (Phase, Option<u16>, &PhaseEntry)> {
        self.entries.iter().map(|(&(p, l), e)| (p, l, e))
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no cell has been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_accumulate_and_total() {
        let mut ledger = PhaseLedger::default();
        ledger.entry_mut(Phase::ForwardFetch, Some(0)).sent_bytes += 100;
        ledger.entry_mut(Phase::ForwardFetch, Some(1)).sent_bytes += 50;
        ledger
            .entry_mut(Phase::ForwardFetch, Some(0))
            .peak_tensor_bytes = 7;
        ledger
            .entry_mut(Phase::ForwardFetch, Some(1))
            .peak_tensor_bytes = 9;
        ledger.entry_mut(Phase::GradRouting, None).recv_bytes += 30;

        let total = ledger.phase_total(Phase::ForwardFetch);
        assert_eq!(total.sent_bytes, 150);
        assert_eq!(total.peak_tensor_bytes, 9); // max, not sum
        assert_eq!(ledger.phase_total(Phase::GradRouting).recv_bytes, 30);
        assert_eq!(
            ledger.phase_total(Phase::BackwardRefetch),
            PhaseEntry::default()
        );
        assert_eq!(ledger.len(), 3);
    }

    /// A distinct value in every [`PhaseEntry::FIELDS`] slot: a row that
    /// is missing from the table shows up as an inequality instead of
    /// passing on zeros.
    fn sentinel_entry(base: u64) -> PhaseEntry {
        let mut e = PhaseEntry::default();
        for (i, field) in PhaseEntry::FIELDS.iter().enumerate() {
            let v = base + i as u64;
            match field.kind {
                FieldKind::Count(at) | FieldKind::Peak(at) => *at(&mut e) = v,
                FieldKind::Micros(at) => *at(&mut e) = v as f64 + 0.25,
            }
        }
        e
    }

    #[test]
    fn field_table_covers_the_struct_and_drives_absorb() {
        // Every byte of the struct is reached through the table: a field
        // added to `PhaseEntry` without a row fails here.
        assert_eq!(
            std::mem::size_of::<PhaseEntry>(),
            8 * PhaseEntry::FIELDS.len()
        );
        let (a, b) = (sentinel_entry(100), sentinel_entry(1000));
        // The slots are the named fields, in struct order.
        assert_eq!((a.sent_bytes, a.wire_recv_bytes), (100, 103));
        assert_eq!((a.blocked_us, a.peak_tensor_bytes), (109.25, 110));

        // absorb: counts and micros add, the peak takes the max.
        let mut sum = a;
        sum.absorb(&b);
        let mut want = PhaseEntry::default();
        for (i, field) in PhaseEntry::FIELDS.iter().enumerate() {
            let added = 1100 + 2 * i as u64;
            match field.kind {
                FieldKind::Count(at) => *at(&mut want) = added,
                FieldKind::Micros(at) => *at(&mut want) = added as f64 + 0.5,
                FieldKind::Peak(at) => *at(&mut want) = 1000 + i as u64,
            }
        }
        assert_eq!(sum, want);
    }

    #[test]
    fn untouched_cells_read_as_zero() {
        let ledger = PhaseLedger::default();
        assert!(ledger.is_empty());
        assert_eq!(ledger.get(Phase::Collective, None), PhaseEntry::default());
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "forward_fetch",
                "backward_refetch",
                "grad_routing",
                "collective",
                "other"
            ]
        );
    }
}
