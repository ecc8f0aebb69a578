//! Out-of-core memory tiering: a file-backed spill arena and a
//! budget-driven tiered block store.
//!
//! SAR bounds per-worker *working set* at `(K+2)/N` of the graph, but the
//! reproduction still kept every resident partition block, every cached
//! `stale:<r>` protocol block, and every rematerialization input in RAM.
//! This module adds the disk tier beneath them: [`SpillArena`] hands out
//! byte-exact segments of one unlinked temp file and moves blocks with
//! positioned reads and writes of the block's own memory
//! ([`le::scalar_bytes`]); [`TieredStore`] keeps the hottest blocks
//! resident as [`Tensor`]s up to a byte budget and spills the coldest to
//! the arena, faulting them back on demand.
//!
//! Determinism is the load-bearing invariant: a spill is a bitwise copy of
//! the tensor's `f32` payload and a fault is a bitwise copy back, so every
//! consumer observes exactly the bytes it would have observed had nothing
//! spilled — `parity_digest()` is identical at any budget. Eviction order
//! is a deterministic queue (coldest-first insertion order refreshed on
//! access), never a hash-map iteration.
//!
//! The spill/fault traffic is metered through thread-local counters that
//! the observability ledger drains per phase via [`take_tier_counters`],
//! mirroring how helper CPU time flows through
//! [`pool::take_helper_cpu_us`](crate::pool::take_helper_cpu_us).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::{le, Tensor};

// ----------------------------------------------------------------------
// Counters
// ----------------------------------------------------------------------

thread_local! {
    /// Bytes written to the disk tier since the last drain.
    static SPILL_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes faulted back from the disk tier since the last drain.
    static FAULT_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Nanoseconds the thread spent blocked on disk-tier IO since the
    /// last drain.
    static DISK_BLOCKED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Spill files get a process-wide unique name for the instant they have
/// one, so concurrent worker threads (and re-entrant tests) never collide.
static NEXT_ARENA_ID: AtomicU64 = AtomicU64::new(0);

/// Drains the calling thread's disk-tier counters accumulated since the
/// previous call: `(spill_bytes, fault_bytes, disk_blocked_us)`.
///
/// The observability ledger calls this at phase boundaries and attributes
/// the totals to the phase that just ended, exactly like helper CPU time.
pub fn take_tier_counters() -> (u64, u64, f64) {
    let spill = SPILL_BYTES.with(|c| c.replace(0));
    let fault = FAULT_BYTES.with(|c| c.replace(0));
    let blocked_us = DISK_BLOCKED_NS.with(|c| c.replace(0)) as f64 / 1e3;
    (spill, fault, blocked_us)
}

// ----------------------------------------------------------------------
// Errors
// ----------------------------------------------------------------------

/// Failure of a disk-tier operation.
///
/// The spill path never panics, and a full disk is an `io::Error` like any
/// other (`ErrorKind::StorageFull` from the write that did not fit): every
/// fallible step reports through this type so a worker can surface the
/// failure with its rank attached.
#[derive(Debug)]
pub enum TierError {
    /// Creating, writing or reading the spill file failed.
    Io {
        /// What the arena was doing when the error occurred.
        op: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// A block id was requested that the store does not hold.
    MissingBlock(u64),
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::Io { op, source } => write!(f, "spill arena {op}: {source}"),
            TierError::MissingBlock(id) => write!(f, "tiered store has no block {id:#x}"),
        }
    }
}

impl std::error::Error for TierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TierError::Io { source, .. } => Some(source),
            TierError::MissingBlock(_) => None,
        }
    }
}

// ----------------------------------------------------------------------
// SpillArena
// ----------------------------------------------------------------------

/// A segment of the arena holding one spilled payload.
///
/// Deliberately neither `Clone` nor `Copy`: a segment is a linear token —
/// loading it frees the underlying bytes, and dropping it without loading
/// leaks them until the arena is [reset](SpillArena::reset) or dropped.
#[derive(Debug, PartialEq, Eq)]
pub struct Segment {
    offset: u64,
    bytes: usize,
}

/// Segment offsets are aligned so free-list reuse keeps payloads
/// cache-line (and, for uniform blocks, sector) aligned in the file.
const SEGMENT_ALIGN: u64 = 64;

/// An append/free block file: the disk tier's storage.
///
/// One temp file, created on the first spill and unlinked before anything
/// is written to it — from then on it has no name, so nothing can leak:
/// the kernel reclaims its blocks when the descriptor closes, whether the
/// arena is dropped, the thread unwinds or the process is killed, and no
/// `Drop` here has anything to clean up. An arena that never spills
/// touches no filesystem at all. Blocks move with positioned IO
/// (`write_all_at` / `read_exact_at` on the block's own bytes): a write
/// that does not fit is an `Err` from the call that made it, where a store
/// into a mapping of a full filesystem is a `SIGBUS`. Allocation is
/// append-first with an exact-size free list (spilled blocks are almost
/// always uniform, so freed segments are reused immediately).
///
/// All operations are fallible and return [`TierError`]; nothing on this
/// path unwraps or panics. `SpillArena::default()` is the empty arena.
#[derive(Debug, Default)]
pub struct SpillArena {
    /// `None` until the first spill.
    file: Option<File>,
    /// End of the appended region.
    head: u64,
    /// Exact aligned-size free list: `aligned_bytes -> offsets`.
    free: BTreeMap<u64, Vec<u64>>,
}

fn align_up(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(SEGMENT_ALIGN) * SEGMENT_ALIGN
}

fn io_err(op: &'static str) -> impl FnOnce(io::Error) -> TierError {
    move |source| TierError::Io { op, source }
}

/// A fresh read/write file in the temp directory with no name left: it is
/// `create_new`ed (never somebody else's file) and unlinked at once.
fn unlinked_temp_file() -> Result<File, TierError> {
    loop {
        let id = NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("sar-spill-{}-{id}", std::process::id()));
        let mut options = OpenOptions::new();
        match options.read(true).write(true).create_new(true).open(&path) {
            Ok(file) => {
                std::fs::remove_file(&path).map_err(io_err("unlink spill file"))?;
                return Ok(file);
            }
            // A name some dead process with this pid left behind: skip it.
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(io_err("create spill file")(e)),
        }
    }
}

impl SpillArena {
    fn file(&mut self) -> Result<&File, TierError> {
        let file = match self.file.take() {
            Some(file) => file,
            None => unlinked_temp_file()?,
        };
        Ok(self.file.insert(file))
    }

    /// Writes `data` to the arena and returns the owning [`Segment`].
    ///
    /// The copy is bitwise: `f32` payloads round-trip exactly, which is
    /// what keeps runs digest-identical at any budget.
    ///
    /// # Errors
    ///
    /// [`TierError::Io`] if the file cannot be created or the write fails
    /// (a full disk is `ErrorKind::StorageFull`); the arena holds nothing
    /// of `data` then and stays usable.
    pub fn store(&mut self, data: &[f32]) -> Result<Segment, TierError> {
        let bytes = std::mem::size_of_val(data);
        let offset = self.alloc(bytes);
        // sar-check: deterministic(metering: spill-blocked time feeds the
        // spill counters only; the stored bytes are byte-identical)
        let begin = Instant::now();
        let written = self.file().and_then(|f| {
            f.write_all_at(le::scalar_bytes(data), offset)
                .map_err(io_err("write"))
        });
        DISK_BLOCKED_NS.with(|c| c.set(c.get() + begin.elapsed().as_nanos() as u64));
        let seg = Segment { offset, bytes };
        if let Err(e) = written {
            self.free(seg);
            return Err(e);
        }
        SPILL_BYTES.with(|c| c.set(c.get() + bytes as u64));
        Ok(seg)
    }

    /// Reads a segment's payload back out as `f32`s and frees the segment
    /// for reuse.
    ///
    /// # Errors
    ///
    /// [`TierError::Io`] if the read fails or comes up short; the segment
    /// is freed either way.
    pub fn load(&mut self, seg: Segment) -> Result<Vec<f32>, TierError> {
        let mut out = vec![0.0f32; seg.bytes / std::mem::size_of::<f32>()];
        // sar-check: deterministic(metering: disk-blocked time feeds the
        // fault counters only; the loaded bytes are byte-identical)
        let begin = Instant::now();
        let read = self.file().and_then(|f| {
            f.read_exact_at(le::scalar_bytes_mut(&mut out), seg.offset)
                .map_err(io_err("read"))
        });
        DISK_BLOCKED_NS.with(|c| c.set(c.get() + begin.elapsed().as_nanos() as u64));
        FAULT_BYTES.with(|c| c.set(c.get() + seg.bytes as u64));
        self.free(seg);
        read.map(|()| out)
    }

    /// Frees a segment for reuse without reading it.
    pub fn free(&mut self, seg: Segment) {
        let Segment { offset, bytes } = seg;
        self.free.entry(align_up(bytes)).or_default().push(offset);
    }

    /// Forgets every segment at once — dropping everything is resetting
    /// the allocator, not reading blocks back to free them one by one. The
    /// file keeps its length and is overwritten from the start.
    pub fn reset(&mut self) {
        self.head = 0;
        self.free.clear();
    }

    fn alloc(&mut self, bytes: usize) -> u64 {
        let aligned = align_up(bytes);
        if let Some(off) = self.free.get_mut(&aligned).and_then(Vec::pop) {
            return off;
        }
        let off = self.head;
        self.head += aligned;
        off
    }
}

// ----------------------------------------------------------------------
// TieredStore
// ----------------------------------------------------------------------

#[derive(Debug)]
struct SpilledBlock {
    seg: Segment,
    shape: Vec<usize>,
}

/// A two-tier block store: RAM up to a byte budget, disk beyond it.
///
/// Blocks are keyed by caller-chosen `u64` ids. [`TieredStore::put`]
/// inserts a block at the hot end of a deterministic eviction queue and
/// spills coldest-first until resident bytes fit the budget;
/// [`TieredStore::take`] removes a block, faulting it back from the
/// arena if it was spilled. Both directions are bitwise copies, so
/// consumers cannot distinguish a faulted block from one that stayed
/// resident — the determinism argument in DESIGN.md §14.
///
/// With `budget == u64::MAX` nothing ever spills, no file is ever opened
/// and the store is an in-RAM map — which is how the worker's one block
/// store serves `--mem-budget 0` / flag-absent runs.
#[derive(Debug)]
pub struct TieredStore {
    arena: SpillArena,
    budget: u64,
    /// Front = coldest. Deterministic: refreshed only by put/take order.
    resident: VecDeque<(u64, Tensor)>,
    resident_bytes: u64,
    /// Lookup-only map (never iterated), so hashing cannot perturb
    /// determinism.
    spilled: HashMap<u64, SpilledBlock>,
}

impl TieredStore {
    /// Creates an empty store. Its spill file is opened by the first
    /// block that does not fit the budget, not here.
    pub fn new(budget_bytes: u64) -> TieredStore {
        TieredStore {
            arena: SpillArena::default(),
            budget: budget_bytes,
            resident: VecDeque::new(),
            resident_bytes: 0,
            spilled: HashMap::new(),
        }
    }

    /// Number of blocks currently spilled to disk.
    pub fn spilled_len(&self) -> usize {
        self.spilled.len()
    }

    /// Number of blocks currently resident in RAM.
    pub fn resident_len(&self) -> usize {
        self.resident.len()
    }

    /// True when the store holds no blocks in either tier.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty() && self.spilled.is_empty()
    }

    /// Inserts `t` under `id` at the hot end of the eviction queue, then
    /// spills coldest blocks until resident bytes fit the budget.
    ///
    /// An `id` already present is a caller bug; the old block is replaced
    /// (resident) or leaked to the arena until the next
    /// [`TieredStore::clear`] (spilled), and a `debug_assert` trips in dev
    /// builds.
    ///
    /// # Errors
    ///
    /// [`TierError::Io`] if a spill fails. Nothing is lost: the block that
    /// could not be written stays resident (over budget) with every other
    /// block, so the caller can still take what it put.
    pub fn put(&mut self, id: u64, t: Tensor) -> Result<(), TierError> {
        debug_assert!(
            !self.spilled.contains_key(&id) && self.resident.iter().all(|(k, _)| *k != id),
            "tiered store already holds block {id:#x}"
        );
        self.resident_bytes += tensor_bytes(&t);
        self.resident.push_back((id, t));
        while self.resident_bytes > self.budget && self.spill_coldest()? {}
        Ok(())
    }

    /// Removes and returns block `id`, faulting from disk if it was
    /// spilled. The fault allocates through the normal tensor path, so
    /// memory accounting sees it exactly like a network arrival.
    pub fn take(&mut self, id: u64) -> Result<Tensor, TierError> {
        if let Some(t) = self.take_resident(id) {
            return Ok(t);
        }
        let block = self
            .spilled
            .remove(&id)
            .ok_or(TierError::MissingBlock(id))?;
        Ok(Tensor::from_vec(&block.shape, self.arena.load(block.seg)?))
    }

    /// Drops block `id` if either tier holds it (the cleanup of a block
    /// nobody will take); a spilled block's segment is freed unread.
    pub fn discard(&mut self, id: u64) {
        if self.take_resident(id).is_none() {
            if let Some(block) = self.spilled.remove(&id) {
                self.arena.free(block.seg);
            }
        }
    }

    /// Drops every block in both tiers. Nothing is read back: the arena
    /// is reset and overwritten from its start (its disk space is
    /// reclaimed when the store drops).
    pub fn clear(&mut self) {
        self.resident.clear();
        self.resident_bytes = 0;
        self.spilled.clear();
        self.arena.reset();
    }

    fn take_resident(&mut self, id: u64) -> Option<Tensor> {
        let i = self.resident.iter().position(|(k, _)| *k == id)?;
        // Disambiguated remove keeps queue order for the others.
        let (_, t) = self.resident.remove(i)?;
        self.resident_bytes -= tensor_bytes(&t);
        Some(t)
    }

    /// Spills the coldest resident block; `false` when none is resident.
    /// The block leaves the queue only once its bytes are on disk.
    fn spill_coldest(&mut self) -> Result<bool, TierError> {
        let Some((_, t)) = self.resident.front() else {
            return Ok(false);
        };
        let seg = self.arena.store(t.data())?;
        if let Some((id, t)) = self.resident.pop_front() {
            self.resident_bytes -= tensor_bytes(&t);
            let shape = t.shape().to_vec();
            self.spilled.insert(id, SpilledBlock { seg, shape });
        }
        Ok(true)
    }
}

fn tensor_bytes(t: &Tensor) -> u64 {
    std::mem::size_of_val(t.data()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryTracker;

    fn block(seed: f32) -> Tensor {
        Tensor::from_vec(
            &[64, 4],
            (0..256).map(|i| seed + i as f32 * 0.5).collect::<Vec<_>>(),
        )
    }
    const BLOCK_BYTES: u64 = 64 * 4 * 4;

    /// Names under the temp directory that this process's spill files
    /// go by for the instant they have one.
    fn spill_paths() -> Vec<std::ffi::OsString> {
        let ours = format!("sar-spill-{}-", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .expect("temp dir")
            .filter_map(|e| Some(e.ok()?.file_name()))
            .filter(|n| n.to_string_lossy().starts_with(&ours))
            .collect()
    }

    #[test]
    fn arena_round_trips_bit_patterns() {
        let mut arena = SpillArena::default();
        // NaNs, infinities, -0.0: a bitwise copy must preserve them all.
        let weird = vec![f32::NAN, f32::INFINITY, -0.0, 1.5e-42, -3.25];
        let seg = arena.store(&weird).expect("store");
        let back = arena.load(seg).expect("load");
        let a: Vec<u32> = weird.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn arena_round_trips_blocks_of_several_megabytes() {
        let mut arena = SpillArena::default();
        let big: Vec<f32> = (0..(3 << 18)).map(|i| i as f32).collect();
        let a = arena.store(&big).expect("store a");
        let b = arena.store(&big[1..]).expect("store b");
        assert_eq!(arena.load(b).expect("load b"), big[1..]);
        assert_eq!(arena.load(a).expect("load a"), big);
    }

    #[test]
    fn arena_reuses_freed_segments() {
        let mut arena = SpillArena::default();
        let data = vec![1.0f32; 1000];
        let seg = arena.store(&data).expect("store");
        let head_after_first = arena.head;
        let _ = arena.load(seg).expect("load");
        let seg2 = arena.store(&data).expect("store again");
        assert_eq!(arena.head, head_after_first, "freed segment reused");
        arena.free(seg2);
        let seg3 = arena.store(&data).expect("store a third time");
        assert_eq!(arena.head, head_after_first, "unread segment reused too");
        assert_eq!(arena.load(seg3).expect("load 3"), data);
    }

    #[test]
    fn store_spills_coldest_and_faults_back_identically() {
        let mut store = TieredStore::new(2 * BLOCK_BYTES);
        let _ = take_tier_counters();
        store.put(1, block(1.0)).expect("put 1");
        store.put(2, block(2.0)).expect("put 2");
        assert_eq!(store.spilled_len(), 0);
        store.put(3, block(3.0)).expect("put 3");
        // Block 1 (coldest) spilled.
        assert_eq!(store.spilled_len(), 1);
        assert_eq!(store.resident_bytes, 2 * BLOCK_BYTES);
        let t1 = store.take(1).expect("fault 1");
        assert_eq!(t1.data(), block(1.0).data());
        let (spill, fault, _) = take_tier_counters();
        assert_eq!(spill, BLOCK_BYTES);
        assert_eq!(fault, BLOCK_BYTES);
        let t2 = store.take(2).expect("take 2 (resident)");
        assert_eq!(t2.data(), block(2.0).data());
    }

    #[test]
    fn spill_lowers_tracked_resident_memory() {
        let mut store = TieredStore::new(0);
        let before = MemoryTracker::stats().current_bytes;
        store
            .put(7, Tensor::zeros(&[1024, 16]))
            .expect("put evicts immediately at budget 0");
        // Budget 0: block must not stay resident.
        assert_eq!(MemoryTracker::stats().current_bytes, before);
        assert_eq!(store.resident_len(), 0);
        assert_eq!(store.spilled_len(), 1);
        let t = store.take(7).expect("fault");
        assert_eq!(MemoryTracker::stats().current_bytes, before + 1024 * 16 * 4);
        drop(t);
    }

    #[test]
    fn missing_block_is_a_typed_error() {
        let mut store = TieredStore::new(u64::MAX);
        match store.take(99) {
            Err(TierError::MissingBlock(99)) => {}
            other => panic!("expected MissingBlock, got {other:?}"),
        }
    }

    #[test]
    fn an_unbounded_store_is_a_ram_map_that_opens_no_file() {
        let mut store = TieredStore::new(u64::MAX);
        for id in 0..8u64 {
            store.put(id, block(id as f32)).expect("put");
        }
        store.discard(3);
        store.discard(3);
        for id in (0..8u64).filter(|&id| id != 3) {
            assert_eq!(
                store.take(id).expect("take").data(),
                block(id as f32).data()
            );
        }
        assert!(store.is_empty());
        assert!(
            store.arena.file.is_none(),
            "nothing spilled, so nothing opened"
        );
    }

    #[test]
    fn full_disk_is_a_typed_error_and_the_store_stays_usable() {
        // Every write to /dev/full fails with ENOSPC — a full filesystem
        // without needing one.
        let mut options = OpenOptions::new();
        let Ok(full) = options.read(true).write(true).open("/dev/full") else {
            eprintln!("skipping: /dev/full is not available here");
            return;
        };
        let is_storage_full = |e: &TierError| matches!(e, TierError::Io { source, .. } if source.kind() == io::ErrorKind::StorageFull);
        let mut arena = SpillArena {
            file: Some(full.try_clone().expect("clone /dev/full")),
            ..SpillArena::default()
        };
        let err = arena.store(&[1.0, 2.0]).expect_err("no space");
        assert!(is_storage_full(&err), "{err:?}");
        assert_eq!(arena.free.len(), 1, "a failed store gives its segment back");

        // The same failure through the store: `put` reports it, and no
        // block is lost — not even the one that could not be written.
        let mut store = TieredStore::new(BLOCK_BYTES);
        store.arena.file = Some(full);
        store.put(1, block(1.0)).expect("fits the budget");
        let err = store.put(2, block(2.0)).expect_err("block 1 cannot spill");
        assert!(is_storage_full(&err), "{err:?}");
        assert!(err.to_string().contains("spill arena write"), "{err}");
        assert_eq!(store.spilled_len(), 0);
        assert_eq!(store.take(2).expect("take 2").data(), block(2.0).data());
        assert_eq!(store.take(1).expect("take 1").data(), block(1.0).data());
        assert!(store.is_empty());
    }

    #[test]
    fn a_spilling_store_has_no_path_in_the_temp_dir() {
        let mut store = TieredStore::new(0);
        for id in 0..4u64 {
            store.put(id, block(id as f32)).expect("put");
        }
        assert_eq!(store.spilled_len(), 4);
        // A concurrent test's file has a name for the instant between its
        // creation and its unlink; a leak is there both times we look.
        let first = spill_paths();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let leaked: Vec<_> = spill_paths()
            .into_iter()
            .filter(|n| first.contains(n))
            .collect();
        assert!(leaked.is_empty(), "spill paths on disk: {leaked:?}");
        assert_eq!(store.take(2).expect("fault").data(), block(2.0).data());
    }

    #[test]
    fn clear_and_discard_drop_spilled_blocks_without_reading_them() {
        let mut store = TieredStore::new(0);
        for id in 0..4u64 {
            store.put(id, block(id as f32)).expect("put");
        }
        let (spill, _, _) = take_tier_counters();
        assert_eq!(spill, 4 * BLOCK_BYTES);
        store.discard(1);
        assert_eq!(store.arena.free[&BLOCK_BYTES].len(), 1, "freed, not read");
        store.clear();
        assert!(store.is_empty());
        let (_, fault, _) = take_tier_counters();
        assert_eq!(fault, 0, "dropping a block must not read it back");
        // Dropping everything is resetting the allocator.
        assert_eq!((store.arena.head, store.arena.free.len()), (0, 0));
        store.put(9, block(9.0)).expect("put after clear");
        assert_eq!(store.arena.head, BLOCK_BYTES, "the file is reused from 0");
        assert_eq!(store.take(9).expect("fault").data(), block(9.0).data());
    }
}
