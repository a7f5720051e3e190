//! Durable storage: a checksummed write-ahead log with snapshot compaction
//! and crash recovery, behind an injectable I/O layer.
//!
//! ## Architecture
//!
//! ```text
//!   ProvDb ──journal (Vec<WalOp>)──▶ WalStorage (group buffer ▶ flush)
//!                                        │
//!                                        ├─ wal.rs       record framing + recovery scan
//!                                        ├─ column.rs    snapshot image: segmented encode, eager/lazy decode
//!                                        ├─ codec.rs     LE primitives + CRC-32
//!                                        └─ dyn Io ──▶ StdIo (real fs) | MemIo | FailpointIo
//! ```
//!
//! ## Commit protocol
//!
//! Every mutation batch drains the graph's op journal into
//! [`WalStorage::commit`], which frames it as one `[ops record][commit
//! marker]` pair carrying the next sequence number and puts it in the
//! engine's group buffer; [`WalStorage::flush`] writes the buffer as **one**
//! contiguous append to the current WAL file and (by default) one fsync. A
//! batch is durable iff its commit marker is intact on disk; commit sequence
//! numbers increase by exactly 1 and survive compaction, so a spliced or
//! replayed log is detected, never folded in.
//!
//! `commit` flushes by itself once the buffer holds
//! [`DurabilityPolicy::group_max_batches`] batches. With the default window
//! of 1 that is every commit: the batch is appended and fsynced before
//! `commit` returns. With a larger window a batch is *accepted* when `commit`
//! returns and *durable* once the flush covering it returns (window full,
//! explicit `flush`, or a compaction, which flushes first). Each batch keeps
//! its own commit marker, so a group's bytes are exactly those of the same
//! batches committed one by one and recovery is the same scan. A crash
//! mid-group tears at most the tail of the group append; recovery truncates
//! back to the last intact commit marker, which can only drop batches whose
//! flush never returned. Nothing flushes on drop: batches still buffered when
//! the engine is dropped are discarded.
//!
//! The engine has a single writer by construction: every mutating method
//! takes `&mut self`, so there is no lock and no concurrent submitter.
//!
//! ## On-disk layout
//!
//! One directory, generation-numbered files:
//!
//! ```text
//!   wal-0000000000                       generation 0: log only, empty base
//!   snapshot-0000000003  wal-0000000003  generation 3: image + log suffix
//!   snapshot.tmp                         in-flight compaction (ignored)
//! ```
//!
//! Compaction writes `snapshot.tmp`, fsyncs, atomically renames it to
//! `snapshot-{g+1}`, creates an empty `wal-{g+1}`, then deletes the old
//! generation. The rename is the commit point of a compaction: before it the
//! old generation is authoritative, after it the new one is. Recovery makes
//! every intermediate crash state well-defined (stale files are swept, a
//! missing `wal-{g+1}` is created empty).
//!
//! ## Recovery invariants
//!
//! Opening a directory yields a graph equal to some committed-batch prefix of
//! the pre-crash history — never a partial batch, never silently less than
//! the committed prefix:
//!
//! 1. torn tails (structurally damaged suffix of the WAL) are truncated back
//!    to the last intact commit marker;
//! 2. CRC-valid bytes that decode to garbage or commit out of sequence are
//!    **corruption** and fail the open with
//!    [`StoreError::CorruptLog`](crate::StoreError) — corruption is loud,
//!    truncation is only for torn writes;
//! 3. replay drives the ordinary graph mutators, and the recovered secondary
//!    index is caught up with `ProvIndex::refresh_in_place`, so recovered
//!    state is bit-for-bit the state the mutators would rebuild.
//!
//! After any I/O error the engine is *poisoned*: in-memory state may be ahead
//! of durable state, so every later commit fails with
//! [`StoreError::StorageUnavailable`](crate::StoreError) until the process
//! reopens the directory.

pub mod codec;
pub mod column;
pub mod failpoint;
pub mod io;
pub mod wal;

pub use column::LazyStats;
pub use failpoint::{FailpointIo, FaultPlan};
pub use io::{ColumnSource, Io, IoError, IoResult, MemIo, StdIo};
pub use wal::WalScan;

use crate::error::{StoreError, StoreResult};
use crate::graph::{ProvGraph, WalOp};
use crate::snapshot::ProvIndex;
use serde::{Deserialize, Serialize};

/// Name of the in-flight compaction temp file.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// WAL file name for generation `gen`.
pub fn wal_file_name(gen: u64) -> String {
    format!("wal-{gen:010}")
}

/// Snapshot file name for generation `gen`.
pub fn snapshot_file_name(gen: u64) -> String {
    format!("snapshot-{gen:010}")
}

fn parse_gen(name: &str, prefix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?;
    if digits.len() == 10 && digits.bytes().all(|b| b.is_ascii_digit()) {
        digits.parse().ok()
    } else {
        None
    }
}

/// How `recover()` materializes the snapshot base image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotDecode {
    /// Decode every column at open — full integrity check up front
    /// (default).
    #[default]
    Eager,
    /// Decode only the structural columns at open; defer the property
    /// columns behind a [`ColumnSource`] until first touch. Cold start is
    /// O(structural columns); corruption inside a deferred column surfaces
    /// at first touch instead of at open.
    Lazy,
}

/// When to fsync, when to compact, how to group commits, how to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Fsync the WAL before acknowledging each commit (default `true`).
    /// Turning this off trades the durability of the latest commits for
    /// throughput; recovery still yields a committed prefix.
    pub fsync_on_commit: bool,
    /// Compact (snapshot + truncate the log) once the WAL exceeds this many
    /// bytes (default 1 MiB). `u64::MAX` disables automatic compaction.
    /// Buffered-but-unflushed group bytes count toward the threshold.
    pub compact_after_wal_bytes: u64,
    /// Group up to this many op-batches into one WAL append + one fsync
    /// (default 1 — every batch flushes immediately, exactly the ungrouped
    /// protocol). With a larger window, a batch is *accepted* when
    /// [`WalStorage::commit`] returns and *durable* once the flush covering
    /// it returns (window full, compaction, or explicit
    /// [`WalStorage::flush`]). Dropping the engine does not flush.
    pub group_max_batches: u32,
    /// Snapshot decode mode at open (default [`SnapshotDecode::Eager`]).
    pub decode: SnapshotDecode,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            fsync_on_commit: true,
            compact_after_wal_bytes: 1 << 20,
            group_max_batches: 1,
            decode: SnapshotDecode::Eager,
        }
    }
}

impl DurabilityPolicy {
    /// A policy that never auto-compacts (explicit [`WalStorage::compact`] only).
    pub fn never_compact() -> DurabilityPolicy {
        DurabilityPolicy { compact_after_wal_bytes: u64::MAX, ..DurabilityPolicy::default() }
    }

    /// Group up to `n` batches per WAL flush (clamped to at least 1). With
    /// `n > 1` the caller owns the durability barrier: batches accepted since
    /// the last flush are lost if the engine is dropped without
    /// [`WalStorage::flush`] — there is no flush-on-drop.
    pub fn with_group_batches(mut self, n: u32) -> DurabilityPolicy {
        self.group_max_batches = n.max(1);
        self
    }

    /// Defer property-column decode until first touch at recovery.
    pub fn with_lazy_decode(mut self) -> DurabilityPolicy {
        self.decode = SnapshotDecode::Lazy;
        self
    }
}

/// Monotone counters describing the durability subsystem's activity.
/// Cumulative since the database was opened. Serialized as-is into the
/// service `Stats` envelope (field names and order are wire format):
/// all-zero for an in-memory database, and `recoveries` is at least 1
/// whenever durability is actually on, so clients can tell the two apart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityCounters {
    /// Batches appended to the WAL.
    pub wal_appends: u64,
    /// Fsync calls issued (commits, snapshot writes).
    pub fsyncs: u64,
    /// Cold-start recoveries performed.
    pub recoveries: u64,
    /// Torn-tail bytes truncated during recovery.
    pub truncated_tail_bytes: u64,
    /// Snapshot images written by compaction.
    pub snapshots_written: u64,
    /// Committed batches replayed from the WAL during recovery.
    pub batches_replayed: u64,
    /// WAL flushes performed (one contiguous append each, whatever the
    /// group window). Absent on old wires: deserializes to 0.
    #[serde(default)]
    pub group_flushes: u64,
    /// Batches covered by those flushes. Absent on old wires: 0.
    #[serde(default)]
    pub group_flushed_batches: u64,
    /// Property segments whose decode was deferred at open (lazy mode).
    /// Absent on old wires: 0.
    #[serde(default)]
    pub lazy_segments_deferred: u64,
    /// Bytes of snapshot payload not read at open (lazy mode). Absent on
    /// old wires: 0.
    #[serde(default)]
    pub lazy_deferred_bytes: u64,
    /// Deferred segments loaded on first touch. Absent on old wires: 0.
    #[serde(default)]
    pub lazy_segment_loads: u64,
    /// Bytes range-read by first-touch loads. Absent on old wires: 0.
    #[serde(default)]
    pub lazy_bytes_loaded: u64,
}

/// What a cold-start recovery produced.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered graph: snapshot base + committed WAL suffix.
    pub graph: ProvGraph,
    /// A secondary index over `graph`, built from the snapshot base and
    /// caught up with `refresh_in_place` over the replayed suffix.
    pub index: ProvIndex,
}

/// The WAL + snapshot storage engine. See the module docs for the protocol.
#[derive(Debug)]
pub struct WalStorage {
    io: Box<dyn Io>,
    policy: DurabilityPolicy,
    /// Current file generation (`wal-{gen}` is the live log).
    gen: u64,
    /// Sequence number of the last accepted batch (0 = none ever); the last
    /// `pending_batches` of them are still in `pending`.
    seq: u64,
    /// Bytes accepted into the current WAL generation, `pending` included.
    wal_bytes: u64,
    /// The group buffer: concatenated `[ops record][commit marker]` frames
    /// accepted by `commit` and not yet written by `flush`.
    pending: Vec<u8>,
    /// Batches currently in `pending`.
    pending_batches: u64,
    counters: DurabilityCounters,
    /// Lazy-decode activity, shared with the deferred loader attached to the
    /// recovered graph (which outlives `recover()` and loads on first touch).
    lazy_stats: std::sync::Arc<LazyStats>,
    poisoned: Option<String>,
}

impl WalStorage {
    /// Open (or create) a storage directory behind `io`, recovering whatever
    /// committed state it holds.
    pub fn open(io: Box<dyn Io>, policy: DurabilityPolicy) -> StoreResult<(WalStorage, Recovered)> {
        let mut engine = WalStorage {
            io,
            policy,
            gen: 0,
            seq: 0,
            wal_bytes: 0,
            pending: Vec::new(),
            pending_batches: 0,
            counters: DurabilityCounters::default(),
            lazy_stats: std::sync::Arc::default(),
            poisoned: None,
        };
        let recovered = engine.recover()?;
        Ok((engine, recovered))
    }

    fn io_err(e: IoError) -> StoreError {
        StoreError::StorageUnavailable(e.to_string())
    }

    fn recover(&mut self) -> StoreResult<Recovered> {
        // Survey the directory.
        let names = self.io.list().map_err(Self::io_err)?;
        let mut wal_gens = Vec::new();
        let mut snap_gens = Vec::new();
        let mut had_tmp = false;
        for name in &names {
            if let Some(g) = parse_gen(name, "wal-") {
                wal_gens.push(g);
            } else if let Some(g) = parse_gen(name, "snapshot-") {
                snap_gens.push(g);
            } else if name == SNAPSHOT_TMP {
                had_tmp = true;
            }
            // Unknown names are left alone (foreign files in the directory).
        }
        if had_tmp {
            // An interrupted compaction that never reached its rename commit
            // point — the old generation is authoritative.
            self.io.remove(SNAPSHOT_TMP).map_err(Self::io_err)?;
        }

        // Pick the generation: the newest snapshot wins (renames are atomic,
        // so a present snapshot is complete — decode failures below are real
        // corruption, not crash artifacts).
        let snap_gen = snap_gens.iter().copied().max();
        let gen = snap_gen.unwrap_or(0);
        if let Some(&orphan) = wal_gens.iter().find(|&&g| g > gen) {
            return Err(StoreError::CorruptLog(format!(
                "wal generation {orphan} has no snapshot (newest snapshot generation: {gen})",
            )));
        }

        // Load the base image through a column source: eager mode reads the
        // whole image, lazy mode decodes only the structural segments and
        // leaves the property columns addressable behind the source.
        let (mut graph, base_seq) = match snap_gen {
            Some(g) => {
                let source = column::source_for(self.io.as_ref(), &snapshot_file_name(g))
                    .map_err(Self::io_err)?
                    .ok_or_else(|| {
                        StoreError::StorageUnavailable(format!(
                            "snapshot generation {g} vanished during recovery"
                        ))
                    })?;
                column::recover_snapshot(source, self.policy.decode, &self.lazy_stats)
                    .map_err(|e| StoreError::CorruptLog(format!("snapshot generation {g}: {e}")))?
            }
            None => (ProvGraph::new(), 0),
        };

        // Index over the base, *before* replay: the replayed suffix is then
        // folded in with `refresh_in_place`, exactly as a live process would.
        let mut index = ProvIndex::build(&graph);

        // Scan the live WAL, replaying each committed batch the moment its
        // commit marker validates (a batch is never applied before its
        // marker, so invariant 2 below holds; a later corruption fails the
        // open and the partly replayed graph is dropped with it). Neither
        // the decoded batches nor, past the scan, the log's bytes stay
        // alive while the index catches up.
        let wal_name = wal_file_name(gen);
        let bytes = match self.io.read(&wal_name).map_err(Self::io_err)? {
            Some(bytes) => bytes,
            None => {
                // Crash window between a compaction's rename and its fresh
                // WAL creation — finish the job.
                self.io.write(&wal_name, &[]).map_err(Self::io_err)?;
                Vec::new()
            }
        };
        let scan = wal::scan_with(&bytes, base_seq + 1, |seq, batch| {
            for op in &batch {
                graph.apply_wal_op(op).map_err(|e| {
                    format!("batch {} (seq {seq}) does not replay: {e}", seq - base_seq - 1)
                })?;
            }
            Ok(())
        })
        .map_err(|e| StoreError::CorruptLog(format!("{wal_name}: {e}")))?;
        let wal_len = bytes.len();
        drop(bytes);
        if scan.committed_len < wal_len {
            let torn = (wal_len - scan.committed_len) as u64;
            self.io.truncate(&wal_name, scan.committed_len as u64).map_err(Self::io_err)?;
            self.io.sync(&wal_name).map_err(Self::io_err)?;
            self.counters.truncated_tail_bytes += torn;
        }
        self.counters.batches_replayed += scan.commit_offsets.len() as u64;
        index.refresh_in_place(&graph);

        // Sweep stale older generations (crash window after a compaction's
        // rename, before its deletes).
        for &g in wal_gens.iter().filter(|&&g| g < gen) {
            self.io.remove(&wal_file_name(g)).map_err(Self::io_err)?;
        }
        for &g in snap_gens.iter().filter(|&&g| g < gen) {
            self.io.remove(&snapshot_file_name(g)).map_err(Self::io_err)?;
        }

        self.gen = gen;
        self.seq = scan.last_seq;
        self.wal_bytes = scan.committed_len as u64;
        self.counters.recoveries += 1;
        Ok(Recovered { graph, index })
    }

    /// Fails every future commit with the given reason; recovery by reopen.
    fn poison<T>(&mut self, err: StoreError) -> StoreResult<T> {
        self.poisoned = Some(err.to_string());
        Err(err)
    }

    fn check_poisoned(&self) -> StoreResult<()> {
        match &self.poisoned {
            Some(msg) => Err(StoreError::StorageUnavailable(format!(
                "storage poisoned by an earlier failure ({msg}); reopen to recover"
            ))),
            None => Ok(()),
        }
    }

    /// True once an I/O failure has poisoned the engine.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Current file generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Sequence number of the last accepted batch (durable once the flush
    /// covering it has returned).
    pub fn last_seq(&self) -> u64 {
        self.seq
    }

    /// The engine's durability policy.
    pub fn policy(&self) -> &DurabilityPolicy {
        &self.policy
    }

    /// Accept one batch of ops (one mutation call's journal): frame it with
    /// the next commit sequence number into the group buffer, and flush once
    /// the buffer holds `group_max_batches` batches. With the default window
    /// of 1 the batch is durable when this returns; with a larger one it is
    /// only accepted until the covering [`WalStorage::flush`] returns.
    pub fn commit(&mut self, ops: &[WalOp]) -> StoreResult<()> {
        self.check_poisoned()?;
        let frame = match wal::encode_batch(ops, self.seq + 1) {
            Ok(frame) => frame,
            // The mutation is already applied in memory and cannot be made
            // durable: same state as a failed append.
            Err(e) => return self.poison(e),
        };
        self.seq += 1;
        self.wal_bytes += frame.len() as u64;
        self.pending.extend_from_slice(&frame);
        self.pending_batches += 1;
        if self.pending_batches >= u64::from(self.policy.group_max_batches.max(1)) {
            return self.flush();
        }
        Ok(())
    }

    /// Durably write every accepted batch: the whole group buffer as **one**
    /// contiguous append and at most one fsync. A no-op with nothing
    /// buffered.
    pub fn flush(&mut self) -> StoreResult<()> {
        self.check_poisoned()?;
        if self.pending_batches == 0 {
            return Ok(());
        }
        let wal_name = wal_file_name(self.gen);
        if let Err(e) = self.io.append(&wal_name, &self.pending) {
            // The append may have partially landed (short write). That tears
            // at most the group's tail, which recovery truncates back to the
            // last intact commit marker — dropping only batches whose flush
            // was never acknowledged. Until then, nothing more may be.
            return self.poison(Self::io_err(e));
        }
        if self.policy.fsync_on_commit {
            if let Err(e) = self.io.sync(&wal_name) {
                // The group is written but not durable; acknowledging it
                // would lie, so the engine poisons itself.
                return self.poison(Self::io_err(e));
            }
            self.counters.fsyncs += 1;
        }
        self.counters.wal_appends += self.pending_batches;
        self.counters.group_flushes += 1;
        self.counters.group_flushed_batches += self.pending_batches;
        self.pending.clear();
        self.pending_batches = 0;
        Ok(())
    }

    /// Compact if the policy says the WAL (buffered batches included) has
    /// grown past its threshold. Returns whether a compaction ran. `graph`
    /// must reflect every batch accepted so far.
    pub fn maybe_compact(&mut self, graph: &ProvGraph) -> StoreResult<bool> {
        if self.wal_bytes < self.policy.compact_after_wal_bytes {
            return Ok(false);
        }
        self.compact(graph)?;
        Ok(true)
    }

    /// Unconditionally compact: write a snapshot of `graph`, start a fresh
    /// WAL generation, delete the old one.
    pub fn compact(&mut self, graph: &ProvGraph) -> StoreResult<()> {
        // Flush first: the snapshot's seq must cover every batch folded into
        // `graph`, or the buffered batches would later land in the fresh WAL
        // at or below the snapshot's seq and fail replay as spliced history.
        self.flush()?;
        let old_gen = self.gen;
        let new_gen = old_gen + 1;
        let image = match column::encode(graph, self.seq) {
            Ok(image) => image,
            // The log is intact, but it can no longer be compacted and every
            // later `maybe_compact` would fail the same way after its commit.
            Err(e) => return self.poison(e),
        };
        let result = (|| -> Result<(), IoError> {
            self.io.write(SNAPSHOT_TMP, &image)?;
            self.io.sync(SNAPSHOT_TMP)?;
            // The commit point: after this rename the new generation is
            // authoritative; before it, a crash leaves only a tmp file that
            // recovery sweeps.
            self.io.rename(SNAPSHOT_TMP, &snapshot_file_name(new_gen))?;
            self.io.write(&wal_file_name(new_gen), &[])?;
            self.io.sync(&wal_file_name(new_gen))?;
            self.io.remove(&wal_file_name(old_gen))?;
            // Generation 0 has no snapshot; remove is idempotent either way.
            self.io.remove(&snapshot_file_name(old_gen))?;
            Ok(())
        })();
        if let Err(e) = result {
            return self.poison(Self::io_err(e));
        }
        self.counters.fsyncs += 2; // tmp + fresh wal
        self.counters.snapshots_written += 1;
        self.gen = new_gen;
        self.wal_bytes = 0;
        Ok(())
    }

    /// Activity counters (monotone since open).
    pub fn counters(&self) -> DurabilityCounters {
        use std::sync::atomic::Ordering;
        let mut c = self.counters;
        c.lazy_segments_deferred = self.lazy_stats.segments_deferred.load(Ordering::Relaxed);
        c.lazy_deferred_bytes = self.lazy_stats.deferred_bytes.load(Ordering::Relaxed);
        c.lazy_segment_loads = self.lazy_stats.segment_loads.load(Ordering::Relaxed);
        c.lazy_bytes_loaded = self.lazy_stats.bytes_loaded.load(Ordering::Relaxed);
        c
    }

    /// Bytes in the current WAL generation, accepted-but-unflushed batches
    /// included.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::VertexKind;

    /// Run `n` mutation batches against `graph` (journaling on), committing
    /// each drained journal through `storage`. Mirrors what ProvDb does.
    fn ingest(graph: &mut ProvGraph, storage: &mut WalStorage, n: usize, tag: &str) {
        graph.set_journaling(true);
        for i in 0..n {
            let v = graph.add_entity(&format!("{tag}-{i}"));
            graph.set_vprop(v, "version", i as i64);
            if i % 3 == 0 {
                graph.create_vprop_index(VertexKind::Entity, "version");
            }
            let ops = graph.take_journal();
            storage.commit(&ops).unwrap();
        }
    }

    fn open_mem(disk: &MemIo) -> (WalStorage, Recovered) {
        open_with(disk, DurabilityPolicy::never_compact())
    }

    fn open_with(disk: &MemIo, policy: DurabilityPolicy) -> (WalStorage, Recovered) {
        WalStorage::open(Box::new(disk.clone()), policy).unwrap()
    }

    #[test]
    fn commit_reopen_recovers_the_exact_graph_and_index() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        assert_eq!(rec.graph, ProvGraph::new());
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 7, "e");
        assert_eq!(storage.last_seq(), 7);
        assert_eq!(storage.counters().wal_appends, 7);
        assert_eq!(storage.counters().fsyncs, 7);

        let (storage2, rec2) = open_mem(&disk);
        assert_eq!(rec2.graph, graph);
        rec2.graph.validate().unwrap();
        rec2.index.validate().unwrap();
        assert_eq!(rec2.index, ProvIndex::build(&rec2.graph), "refresh == rebuild");
        assert_eq!(storage2.last_seq(), 7);
        assert_eq!(storage2.counters().recoveries, 1);
        assert_eq!(storage2.counters().batches_replayed, 7);
        assert_eq!(storage2.counters().truncated_tail_bytes, 0);
    }

    #[test]
    fn torn_tails_truncate_and_recover_a_committed_prefix() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 3, "e");
        let wal = wal_file_name(storage.generation());
        let full = disk.file(&wal).unwrap();
        // Simulate a crash mid-append of a 4th batch: stray trailing bytes
        // are a torn tail.
        let torn = disk.fork();
        torn.set_file(&wal, [full.as_slice(), &[0x55; 11]].concat());
        let (storage2, rec2) = open_mem(&torn);
        assert_eq!(rec2.graph, graph);
        assert_eq!(storage2.counters().truncated_tail_bytes, 11);
        assert_eq!(torn.file(&wal).unwrap(), full, "tail physically truncated");

        // Reopening the truncated disk again finds nothing left to truncate.
        let (storage3, rec3) = open_mem(&torn);
        assert_eq!(storage3.counters().truncated_tail_bytes, 0);
        assert_eq!(rec3.graph, graph);
    }

    #[test]
    fn crc_valid_garbage_is_corruption_not_truncation() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 2, "e");
        let wal = wal_file_name(storage.generation());
        // Splice a batch whose commit seq skips ahead — every frame is
        // CRC-clean, so this must fail loudly, not truncate silently.
        let mut bytes = disk.file(&wal).unwrap();
        bytes.extend_from_slice(&wal::encode_batch(&[], 9).unwrap());
        disk.set_file(&wal, bytes);
        let err =
            WalStorage::open(Box::new(disk.clone()), DurabilityPolicy::default()).unwrap_err();
        assert!(matches!(&err, StoreError::CorruptLog(m) if m.contains("commit seq 9")), "{err}");
    }

    #[test]
    fn a_batch_that_does_not_replay_fails_the_open_naming_it() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 2, "a");
        storage.compact(&graph).unwrap();
        ingest(&mut graph, &mut storage, 2, "b");
        // Batch 2 of this generation (seq 5) is CRC-clean and committed, but
        // its edge names a vertex that does not exist; a torn tail follows.
        let wal = wal_file_name(storage.generation());
        let bad = WalOp::AddEdge {
            kind: prov_model::EdgeKind::WasDerivedFrom,
            src: prov_model::VertexId::new(0),
            dst: prov_model::VertexId::new(999),
        };
        let mut bytes = disk.file(&wal).unwrap();
        bytes.extend_from_slice(&wal::encode_batch(&[bad], 5).unwrap());
        bytes.extend_from_slice(&[0x55; 7]);
        disk.set_file(&wal, bytes.clone());
        let err =
            WalStorage::open(Box::new(disk.clone()), DurabilityPolicy::default()).unwrap_err();
        assert!(
            matches!(&err, StoreError::CorruptLog(m) if m.contains("batch 2 (seq 5) does not replay")),
            "{err}"
        );
        assert_eq!(disk.file(&wal).unwrap(), bytes, "a refused open leaves the log as it was");
    }

    #[test]
    fn corrupt_snapshots_fail_loudly() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 4, "e");
        storage.compact(&graph).unwrap();
        let snap = snapshot_file_name(storage.generation());
        let mut bytes = disk.file(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        disk.set_file(&snap, bytes);
        let err =
            WalStorage::open(Box::new(disk.clone()), DurabilityPolicy::default()).unwrap_err();
        assert!(matches!(err, StoreError::CorruptLog(_)), "{err}");
    }

    #[test]
    fn compaction_starts_a_fresh_generation_and_recovers_identically() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 5, "a");
        storage.compact(&graph).unwrap();
        assert_eq!(storage.generation(), 1);
        assert_eq!(storage.wal_bytes(), 0);
        assert_eq!(storage.counters().snapshots_written, 1);
        // Old generation files are gone; new snapshot + empty wal exist.
        assert_eq!(disk.file(&wal_file_name(0)), None);
        assert!(disk.file(&snapshot_file_name(1)).is_some());
        assert_eq!(disk.file(&wal_file_name(1)).unwrap(), b"");

        // Keep committing into the new generation; seq continues monotone.
        ingest(&mut graph, &mut storage, 3, "b");
        assert_eq!(storage.last_seq(), 8);

        let (storage2, rec2) = open_mem(&disk);
        assert_eq!(rec2.graph, graph);
        assert_eq!(rec2.index, ProvIndex::build(&rec2.graph));
        assert_eq!(storage2.last_seq(), 8);
        assert_eq!(storage2.generation(), 1);
        assert_eq!(storage2.counters().batches_replayed, 3, "only the suffix replays");
    }

    #[test]
    fn maybe_compact_honors_the_policy_threshold() {
        let disk = MemIo::new();
        let (mut storage, rec) = WalStorage::open(
            Box::new(disk.clone()),
            DurabilityPolicy { compact_after_wal_bytes: 64, ..DurabilityPolicy::default() },
        )
        .unwrap();
        let mut graph = rec.graph;
        graph.set_journaling(true);
        graph.add_entity("tiny");
        let ops = graph.take_journal();
        storage.commit(&ops).unwrap();
        assert!(!storage.maybe_compact(&graph).unwrap(), "below threshold");
        while storage.wal_bytes() < 64 {
            graph.add_entity("more");
            let ops = graph.take_journal();
            storage.commit(&ops).unwrap();
        }
        assert!(storage.maybe_compact(&graph).unwrap(), "above threshold");
        assert_eq!(storage.wal_bytes(), 0);
        let (_, rec2) = open_mem(&disk);
        assert_eq!(rec2.graph, graph);
    }

    #[test]
    fn every_compaction_crash_window_recovers() {
        // Build a disk mid-history, compact it for real, then reconstruct
        // each intermediate crash state by rewinding the final disk.
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 4, "e");
        let before = disk.fork(); // state before compaction started
        let old_wal = before.file(&wal_file_name(0)).unwrap();
        storage.compact(&graph).unwrap();
        let after = disk.fork(); // state after a complete compaction
        let image = after.file(&snapshot_file_name(1)).unwrap();

        // Window A: crashed after writing snapshot.tmp, before the rename.
        // The old generation is authoritative; the tmp is swept.
        let a = before.fork();
        a.set_file(SNAPSHOT_TMP, image.clone());
        let (sa, ra) = open_mem(&a);
        assert_eq!(ra.graph, graph);
        assert_eq!(sa.generation(), 0);
        assert!(a.file(SNAPSHOT_TMP).is_none(), "tmp swept");

        // Window B: crashed after the rename, before creating wal-1 or
        // deleting generation 0. The new snapshot is authoritative.
        let b = before.fork();
        b.set_file(&snapshot_file_name(1), image.clone());
        let (sb, rb) = open_mem(&b);
        assert_eq!(rb.graph, graph);
        assert_eq!(sb.generation(), 1);
        assert_eq!(sb.last_seq(), 4);
        assert!(b.file(&wal_file_name(0)).is_none(), "stale wal swept");
        assert_eq!(b.file(&wal_file_name(1)), Some(Vec::new()), "fresh wal created");

        // Window C: crashed after creating wal-1, before deleting gen 0.
        let c = after.fork();
        c.set_file(&wal_file_name(0), old_wal.clone());
        let (sc, rc) = open_mem(&c);
        assert_eq!(rc.graph, graph);
        assert_eq!(sc.generation(), 1);
        assert!(c.file(&wal_file_name(0)).is_none(), "stale wal swept");

        // And a second compaction from a recovered window still works.
        let (mut sd, rd) = open_mem(&b);
        let mut g2 = rd.graph;
        ingest(&mut g2, &mut sd, 2, "later");
        sd.compact(&g2).unwrap();
        assert_eq!(sd.generation(), 2);
        let (_, re) = open_mem(&b);
        assert_eq!(re.graph, g2);
    }

    #[test]
    fn orphan_wal_generations_are_corruption() {
        let disk = MemIo::new();
        disk.set_file(&wal_file_name(3), Vec::new());
        let err =
            WalStorage::open(Box::new(disk.clone()), DurabilityPolicy::default()).unwrap_err();
        assert!(matches!(&err, StoreError::CorruptLog(m) if m.contains("generation 3")), "{err}");
    }

    #[test]
    fn fsync_failure_poisons_until_reopen() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 2, "e"); // syncs #0, #1
        let committed = graph.clone();

        // Rebuild the engine over a failpoint io whose next sync fails.
        let fp = FailpointIo::new(disk.clone(), FaultPlan::fail_sync(0));
        let (mut storage, rec) =
            WalStorage::open(Box::new(fp), DurabilityPolicy::never_compact()).unwrap();
        let mut graph = rec.graph;
        graph.set_journaling(true);
        graph.add_entity("doomed");
        let ops = graph.take_journal();
        let err = storage.commit(&ops).unwrap_err();
        assert!(matches!(err, StoreError::StorageUnavailable(_)), "{err}");
        assert!(storage.is_poisoned());
        // Every later commit fails too, even though later syncs would work.
        graph.add_entity("also-doomed");
        let ops = graph.take_journal();
        let err = storage.commit(&ops).unwrap_err();
        assert!(
            matches!(&err, StoreError::StorageUnavailable(m) if m.contains("poisoned")),
            "{err}"
        );
        // Compaction is refused as well.
        assert!(storage.compact(&graph).is_err());

        // Reopen: the unacknowledged batch is on disk but recovery keeps it
        // only because it is structurally complete — either way the result
        // is a committed prefix plus nothing torn.
        let (_, rec2) = open_mem(&disk);
        rec2.graph.validate().unwrap();
        assert!(
            rec2.graph == committed || rec2.graph.vertex_count() == committed.vertex_count() + 1
        );
    }

    #[test]
    fn crash_mid_append_recovers_the_prior_prefix() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 2, "e");
        let committed = graph.clone();

        // Engine whose disk dies 5 bytes into the next append (the budget
        // counts bytes appended through this handle; recovery appends none).
        let fp = FailpointIo::new(disk.fork(), FaultPlan::crash_after(5));
        let crashed_disk = fp.disk();
        let (mut storage, rec) =
            WalStorage::open(Box::new(fp), DurabilityPolicy::never_compact()).unwrap();
        let mut graph = rec.graph;
        graph.set_journaling(true);
        graph.add_entity("lost");
        let ops = graph.take_journal();
        assert!(storage.commit(&ops).is_err());
        assert!(storage.is_poisoned());

        // Reboot from the crashed disk: the 5 stray bytes are a torn tail.
        let (s2, rec2) = open_mem(&crashed_disk);
        assert_eq!(rec2.graph, committed);
        assert_eq!(s2.counters().truncated_tail_bytes, 5);
        assert_eq!(s2.last_seq(), 2);
    }

    #[test]
    fn default_policy_flushes_every_commit() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 3, "e");
        let c = storage.counters();
        assert_eq!(c.wal_appends, 3);
        assert_eq!(c.fsyncs, 3);
        assert_eq!(c.group_flushes, 3);
        assert_eq!(c.group_flushed_batches, 3);
        assert_eq!(storage.pending_batches, 0);
        assert_eq!(storage.last_seq(), 3);
        assert_eq!(disk.file(&wal_file_name(0)).unwrap().len() as u64, storage.wal_bytes());
    }

    #[test]
    fn grouped_policy_amortizes_fsyncs_across_batches() {
        let disk = MemIo::new();
        let policy = DurabilityPolicy::never_compact().with_group_batches(4);
        let (mut storage, rec) = open_with(&disk, policy);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 8, "e");
        let c = storage.counters();
        assert_eq!(c.wal_appends, 8, "every batch reaches the WAL");
        assert_eq!(c.fsyncs, 2, "two full groups, one fsync each");
        assert_eq!(c.group_flushes, 2);
        assert_eq!(c.group_flushed_batches, 8);
        // Recovery replays all 8 batches through the unchanged scan.
        let (_, rec2) = open_mem(&disk);
        assert_eq!(rec2.graph, graph);
        assert_eq!(rec2.index, ProvIndex::build(&rec2.graph));
    }

    #[test]
    fn a_groups_bytes_equal_the_same_batches_committed_one_by_one() {
        // The same scripted history under three windows (+ a final flush for
        // the partial group) leaves the same WAL file, byte for byte.
        let run = |window: u32| {
            let disk = MemIo::new();
            let policy = DurabilityPolicy::never_compact().with_group_batches(window);
            let (mut storage, rec) = open_with(&disk, policy);
            let mut graph = rec.graph;
            ingest(&mut graph, &mut storage, 10, "e");
            storage.flush().unwrap();
            let wal = disk.file(&wal_file_name(0)).unwrap();
            assert_eq!(storage.wal_bytes(), wal.len() as u64);
            (wal, storage.counters())
        };
        let (one_by_one, c1) = run(1);
        assert_eq!((c1.wal_appends, c1.group_flushed_batches), (10, 10));
        assert_eq!((c1.group_flushes, c1.fsyncs), (10, 10));
        for (window, flushes) in [(4, 3), (100, 1)] {
            let (bytes, c) = run(window);
            assert_eq!(bytes, one_by_one, "window {window}");
            assert_eq!((c.wal_appends, c.group_flushed_batches), (10, 10), "window {window}");
            assert_eq!((c.group_flushes, c.fsyncs), (flushes, flushes), "window {window}");
        }
    }

    #[test]
    fn partial_group_is_accepted_but_not_durable_until_flush() {
        let disk = MemIo::new();
        let policy = DurabilityPolicy::never_compact().with_group_batches(8);
        let (mut storage, rec) = open_with(&disk, policy);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 3, "e");
        assert_eq!(storage.pending_batches, 3);
        assert_eq!(storage.counters().fsyncs, 0);
        assert_eq!(storage.counters().wal_appends, 0);
        assert_eq!(storage.last_seq(), 3, "accepted");
        // Nothing reached the disk yet: a crash here loses only
        // unacknowledged batches.
        assert_eq!(disk.file(&wal_file_name(0)).unwrap(), b"");
        let (_, before) = open_mem(&disk.fork());
        assert_eq!(before.graph, ProvGraph::new());
        // Explicit flush makes the partial group durable: one append, one
        // fsync, three commit markers.
        storage.flush().unwrap();
        assert_eq!(storage.pending_batches, 0);
        let c = storage.counters();
        assert_eq!((c.fsyncs, c.group_flushes, c.group_flushed_batches), (1, 1, 3));
        let (_, after) = open_mem(&disk);
        assert_eq!(after.graph, graph);
        // Flushing with nothing buffered is a no-op.
        storage.flush().unwrap();
        assert_eq!(storage.counters().fsyncs, 1);
    }

    #[test]
    fn fsync_failure_mid_group_poisons_with_nothing_acknowledged() {
        let disk = MemIo::new();
        let fp = FailpointIo::new(disk.clone(), FaultPlan::fail_sync(0));
        let policy = DurabilityPolicy::never_compact().with_group_batches(4);
        let (mut storage, rec) = WalStorage::open(Box::new(fp), policy).unwrap();
        let mut graph = rec.graph;
        graph.set_journaling(true);
        for i in 0..3 {
            graph.add_entity(&format!("e-{i}"));
            let ops = graph.take_journal();
            storage.commit(&ops).unwrap(); // accepted, not yet durable
        }
        let err = storage.flush().unwrap_err();
        assert!(matches!(err, StoreError::StorageUnavailable(_)), "{err}");
        assert!(storage.is_poisoned());
        let c = storage.counters();
        assert_eq!((c.wal_appends, c.group_flushes), (0, 0), "no batch was ever acknowledged");
        // Every later commit, flush and compaction refuses.
        graph.add_entity("doomed");
        let ops = graph.take_journal();
        let err = storage.commit(&ops).unwrap_err();
        assert!(
            matches!(&err, StoreError::StorageUnavailable(m) if m.contains("poisoned")),
            "{err}"
        );
        assert!(storage.flush().is_err());
        assert!(storage.compact(&graph).is_err());
        // Reopen: the appended-but-unsynced group is structurally complete
        // on the MemIo image, so recovery may keep it — either way it is a
        // committed prefix and no *acknowledged* batch is lost (none were).
        let (_, rec2) = open_mem(&disk);
        rec2.graph.validate().unwrap();
        assert!(rec2.graph.vertex_count() == 0 || rec2.graph.vertex_count() == 3);
    }

    #[test]
    fn compaction_flushes_the_buffered_group_first() {
        let disk = MemIo::new();
        let policy = DurabilityPolicy {
            compact_after_wal_bytes: 64,
            ..DurabilityPolicy::default().with_group_batches(1000)
        };
        let (mut storage, rec) = open_with(&disk, policy);
        let mut graph = rec.graph;
        graph.set_journaling(true);
        // Fill the buffer past the compaction threshold without a single
        // flush: every threshold byte is buffered, none is on disk.
        while storage.wal_bytes() < 64 {
            graph.add_entity("buffered");
            let ops = graph.take_journal();
            storage.commit(&ops).unwrap();
        }
        assert!(storage.pending.len() >= 64, "all of it buffered");
        assert_eq!(storage.counters().fsyncs, 0);
        // maybe_compact sees buffered bytes, flushes, then compacts.
        assert!(storage.maybe_compact(&graph).unwrap());
        let c = storage.counters();
        assert_eq!(c.group_flushes, 1, "compaction forced the flush");
        assert_eq!(c.snapshots_written, 1);
        assert_eq!(storage.pending_batches, 0);
        assert_eq!(storage.wal_bytes(), 0);
        // The snapshot covers every buffered batch; recovery needs no WAL.
        let (reopened, rec2) = open_mem(&disk);
        assert_eq!(rec2.graph, graph);
        assert_eq!(reopened.last_seq(), storage.last_seq());
        assert_eq!(reopened.counters().batches_replayed, 0, "all folded into the snapshot");
        // And committing through the new generation still works.
        graph.add_entity("after");
        let ops = graph.take_journal();
        storage.commit(&ops).unwrap();
        storage.flush().unwrap();
        let (_, rec3) = open_mem(&disk);
        assert_eq!(rec3.graph, graph);
    }

    #[test]
    fn explicit_compact_with_a_nonempty_buffer_is_safe() {
        let disk = MemIo::new();
        let policy = DurabilityPolicy::never_compact().with_group_batches(100);
        let (mut storage, rec) = open_with(&disk, policy);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 5, "e");
        assert_eq!(storage.pending_batches, 5);
        storage.compact(&graph).unwrap();
        assert_eq!(storage.pending_batches, 0);
        let (reopened, rec2) = open_mem(&disk);
        assert_eq!(rec2.graph, graph);
        assert_eq!(reopened.last_seq(), 5, "snapshot seq covers the flushed group");
    }

    #[test]
    fn policy_defaults_are_as_documented() {
        let p = DurabilityPolicy::default();
        assert!(p.fsync_on_commit);
        assert_eq!(p.compact_after_wal_bytes, 1 << 20);
        assert_eq!(p.group_max_batches, 1, "ungrouped by default");
        assert_eq!(p.decode, SnapshotDecode::Eager);
        assert_eq!(DurabilityPolicy::never_compact().compact_after_wal_bytes, u64::MAX);
        assert_eq!(p.clone().with_group_batches(0).group_max_batches, 1, "clamped");
        assert_eq!(p.clone().with_group_batches(8).group_max_batches, 8);
        assert_eq!(p.clone().with_lazy_decode().decode, SnapshotDecode::Lazy);
        assert_eq!(wal_file_name(3), "wal-0000000003");
        assert_eq!(snapshot_file_name(12), "snapshot-0000000012");
        assert_eq!(parse_gen("wal-0000000003", "wal-"), Some(3));
        assert_eq!(parse_gen("wal-3", "wal-"), None);
        assert_eq!(parse_gen("snapshot.tmp", "snapshot-"), None);
    }

    #[test]
    fn no_fsync_policy_skips_syncs_but_still_recovers() {
        let disk = MemIo::new();
        let (mut storage, rec) = WalStorage::open(
            Box::new(disk.clone()),
            DurabilityPolicy { fsync_on_commit: false, ..DurabilityPolicy::never_compact() },
        )
        .unwrap();
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 3, "e");
        assert_eq!(storage.counters().fsyncs, 0);
        let (_, rec2) = open_mem(&disk);
        assert_eq!(rec2.graph, graph);
    }
}
