//! Durable storage: a checksummed write-ahead log compacted into immutable
//! column runs, with crash recovery, behind an injectable I/O layer.
//!
//! ## Architecture
//!
//! ```text
//!   ProvDb ──journal (Vec<WalOp>)──▶ WalStorage (group buffer ▶ flush)
//!                                        │
//!                                        ├─ wal.rs       record framing + recovery scan
//!                                        ├─ column.rs    runs: segmented delta encode, merge, eager/lazy decode
//!                                        ├─ manifest.rs  the CRC'd run list a compaction commits
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
//! One directory: generation-numbered manifests and WALs, id-numbered runs.
//!
//! ```text
//!   wal-0000000000                       generation 0: log only, empty base
//!   manifest-0000000003  wal-0000000003  generation 3: run list + log suffix
//!   run-0000000001  run-0000000003 ...   the runs manifest 3 lists, in order
//!   run.tmp  manifest.tmp                in-flight compaction (swept)
//! ```
//!
//! A compaction seals only what changed since the previous one into a new
//! run (`column.rs`): it writes `run.tmp`, fsyncs and renames it to
//! `run-{id}`; when the list then holds more than
//! [`manifest::MAX_RUNS`] runs it merges one adjacent pair the same way;
//! then it writes `manifest.tmp` (the new run list), fsyncs and renames it
//! to `manifest-{g+1}`, creates an empty `wal-{g+1}`, and deletes
//! `wal-{g}`, `manifest-{g}` and every run the new list dropped. The
//! manifest rename is the commit point: before it the old generation is
//! authoritative, after it the new one is. Recovery makes every
//! intermediate crash state well-defined (temp files and unlisted runs are
//! swept, a missing `wal-{g+1}` is created empty).
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
//!    index is one `ProvIndex::build` over the replayed graph, so recovered
//!    state is bit-for-bit the state the mutators would rebuild;
//! 4. property writes replayed from the WAL tail onto ids below the last
//!    run's end are kept for the next run's overwrite segment, exactly as
//!    [`WalStorage::commit`] keeps them live — the next run's columns start
//!    at that end and cannot carry them.
//!
//! After any I/O error the engine is *poisoned*: in-memory state may be ahead
//! of durable state, so every later commit fails with
//! [`StoreError::StorageUnavailable`](crate::StoreError) until the process
//! reopens the directory.

pub mod codec;
pub mod column;
pub mod failpoint;
pub mod io;
pub mod manifest;
pub mod wal;

pub use column::{LazyStats, Watermark};
pub use failpoint::{FailpointIo, FaultPlan};
pub use io::{ColumnSource, Io, IoError, IoResult, MemIo, StdIo};
pub use manifest::{Manifest, RunEntry, MAX_RUNS};
pub use wal::WalScan;

use crate::csr::ProvIndex;
use crate::error::{StoreError, StoreResult};
use crate::graph::{ProvGraph, WalOp};
use serde::{Deserialize, Serialize};

/// Name of the temp file an in-flight run (or merge) is written to.
pub const RUN_TMP: &str = "run.tmp";
/// Name of the temp file an in-flight manifest is written to.
pub const MANIFEST_TMP: &str = "manifest.tmp";

/// WAL file name for generation `gen`.
pub fn wal_file_name(gen: u64) -> String {
    format!("wal-{gen:010}")
}

/// Manifest file name for generation `gen`.
pub fn manifest_file_name(gen: u64) -> String {
    format!("manifest-{gen:010}")
}

/// File name of run `id`.
pub fn run_file_name(id: u64) -> String {
    format!("run-{id:010}")
}

fn parse_gen(name: &str, prefix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?;
    if digits.len() == 10 && digits.bytes().all(|b| b.is_ascii_digit()) {
        digits.parse().ok()
    } else {
        None
    }
}

/// How `recover()` materializes the runs the manifest lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotDecode {
    /// Decode every column of every run at open — full integrity check up
    /// front (default).
    #[default]
    Eager,
    /// Decode only the structural columns at open; defer every run's
    /// property columns behind its [`ColumnSource`] until first touch. Cold
    /// start is O(structural columns); corruption inside a deferred column
    /// surfaces at first touch instead of at open.
    Lazy,
}

/// When to fsync, when to compact, how to group commits, how to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Fsync the WAL before acknowledging each commit (default `true`).
    /// Turning this off trades the durability of the latest commits for
    /// throughput; recovery still yields a committed prefix.
    pub fsync_on_commit: bool,
    /// Compact (seal a run + start a fresh log) once the WAL exceeds this
    /// many bytes (default 1 MiB). `u64::MAX` disables automatic
    /// compaction. Buffered-but-unflushed group bytes count toward the
    /// threshold.
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
    /// Fsync calls issued (commits, run and manifest writes).
    pub fsyncs: u64,
    /// Cold-start recoveries performed.
    pub recoveries: u64,
    /// Torn-tail bytes truncated during recovery.
    pub truncated_tail_bytes: u64,
    /// Compactions committed (one manifest, one new run each).
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
    /// Bytes of run payload not read at open (lazy mode). Absent on
    /// old wires: 0.
    #[serde(default)]
    pub lazy_deferred_bytes: u64,
    /// Deferred segments loaded on first touch. Absent on old wires: 0.
    #[serde(default)]
    pub lazy_segment_loads: u64,
    /// Bytes range-read by first-touch loads. Absent on old wires: 0.
    #[serde(default)]
    pub lazy_bytes_loaded: u64,
    /// Adjacent run pairs merged by compactions. Absent on old wires: 0.
    #[serde(default)]
    pub runs_merged: u64,
}

/// What a cold-start recovery produced.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered graph: the manifest's runs + committed WAL suffix.
    pub graph: ProvGraph,
    /// A secondary index over `graph`: one packed `ProvIndex::build` after
    /// the replay.
    pub index: ProvIndex,
}

/// The WAL + run storage engine. See the module docs for the protocol.
#[derive(Debug)]
pub struct WalStorage {
    io: Box<dyn Io>,
    policy: DurabilityPolicy,
    /// Current file generation (`wal-{gen}` is the live log, `manifest-{gen}`
    /// its base when `gen > 0`).
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
    /// The committed run list (empty in generation 0).
    manifest: Manifest,
    /// Id the next run file gets: past every run id ever seen here.
    next_run: u64,
    /// Property writes on ids below the last run's end, accepted since that
    /// run was sealed — the next run's overwrite segment.
    overwrites: column::Overwrites,
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
            manifest: Manifest::default(),
            next_run: 1,
            overwrites: column::Overwrites::default(),
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
        let mut manifest_gens = Vec::new();
        let mut run_ids = Vec::new();
        for name in &names {
            if let Some(g) = parse_gen(name, "wal-") {
                wal_gens.push(g);
            } else if let Some(g) = parse_gen(name, "manifest-") {
                manifest_gens.push(g);
            } else if let Some(id) = parse_gen(name, "run-") {
                run_ids.push(id);
            } else if name == RUN_TMP || name == MANIFEST_TMP {
                // An interrupted compaction that never reached its manifest
                // rename — the old generation is authoritative.
                self.io.remove(name).map_err(Self::io_err)?;
            }
            // Unknown names are left alone (foreign files in the directory).
        }

        // Pick the generation: the newest manifest wins (renames are atomic,
        // so a present manifest and the runs it lists are complete — decode
        // failures below are real corruption, not crash artifacts).
        let gen = manifest_gens.iter().copied().max().unwrap_or(0);
        if let Some(&orphan) = wal_gens.iter().find(|&&g| g > gen) {
            return Err(StoreError::CorruptLog(format!(
                "wal generation {orphan} has no manifest (newest manifest generation: {gen})",
            )));
        }
        let corrupt = |e: String| StoreError::CorruptLog(format!("manifest generation {gen}: {e}"));
        let mut graph = if gen == 0 {
            ProvGraph::new()
        } else {
            let bytes =
                self.io.read(&manifest_file_name(gen)).map_err(Self::io_err)?.ok_or_else(|| {
                    StoreError::StorageUnavailable(format!(
                        "manifest generation {gen} vanished during recovery"
                    ))
                })?;
            self.manifest = Manifest::decode(&bytes).map_err(corrupt)?;
            // Eager mode reads every run whole; lazy mode decodes only the
            // structural segments and leaves each run's property columns
            // addressable behind its column source.
            column::recover_runs(
                self.io.as_ref(),
                &self.manifest.runs,
                self.policy.decode,
                &self.lazy_stats,
            )
            .map_err(corrupt)?
        };
        let base_seq = self.manifest.seq;
        let base = self.manifest.end();

        // Scan the live WAL, replaying each committed batch the moment its
        // commit marker validates (a batch is never applied before its
        // marker, so invariant 2 below holds; a later corruption fails the
        // open and the partly replayed graph is dropped with it). Neither
        // the decoded batches nor, past the scan, the log's bytes stay
        // alive while the index is built. Property writes below the last
        // run's end belong to the next run, exactly as if committed live.
        let wal_name = wal_file_name(gen);
        let bytes = match self.io.read(&wal_name).map_err(Self::io_err)? {
            Some(bytes) => bytes,
            None => {
                // Crash window between a compaction's manifest rename and
                // its fresh WAL creation — finish the job.
                self.io.write(&wal_name, &[]).map_err(Self::io_err)?;
                Vec::new()
            }
        };
        let overwrites = &mut self.overwrites;
        let scan = wal::scan_with(&bytes, base_seq + 1, |seq, batch| {
            for op in &batch {
                graph.apply_wal_op(op).map_err(|e| {
                    format!("batch {} (seq {seq}) does not replay: {e}", seq - base_seq - 1)
                })?;
                overwrites.keep_if_below(op, base).map_err(|e| e.to_string())?;
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
        // One build over the replayed graph, not a build over the runs plus a
        // refresh over the tail: the index starts packed, with no headroom
        // for a read-only store to carry.
        let index = ProvIndex::build(&graph);

        // Sweep what the chosen generation does not use (crash windows after
        // a manifest rename, before its deletes; runs written by a
        // compaction that never committed).
        for &g in wal_gens.iter().filter(|&&g| g < gen) {
            self.io.remove(&wal_file_name(g)).map_err(Self::io_err)?;
        }
        for &g in manifest_gens.iter().filter(|&&g| g < gen) {
            self.io.remove(&manifest_file_name(g)).map_err(Self::io_err)?;
        }
        for &id in &run_ids {
            if !self.manifest.runs.iter().any(|r| r.id == id) {
                self.io.remove(&run_file_name(id)).map_err(Self::io_err)?;
            }
        }

        self.gen = gen;
        self.seq = scan.last_seq;
        self.wal_bytes = scan.committed_len as u64;
        self.next_run = run_ids.iter().copied().max().map_or(1, |id| id + 1);
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

    /// The committed run list (empty before the first compaction).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Accept one batch of ops (one mutation call's journal): frame it with
    /// the next commit sequence number into the group buffer, and flush once
    /// the buffer holds `group_max_batches` batches. With the default window
    /// of 1 the batch is durable when this returns; with a larger one it is
    /// only accepted until the covering [`WalStorage::flush`] returns.
    pub fn commit(&mut self, ops: &[WalOp]) -> StoreResult<()> {
        self.check_poisoned()?;
        let start = self.pending.len();
        let base = self.manifest.end();
        let kept = wal::encode_batch(&mut self.pending, ops, self.seq + 1)
            .and_then(|()| ops.iter().try_for_each(|op| self.overwrites.keep_if_below(op, base)));
        if let Err(e) = kept {
            // The mutation is already applied in memory and cannot be made
            // durable: same state as a failed append.
            return self.poison(e);
        }
        self.seq += 1;
        self.wal_bytes += (self.pending.len() - start) as u64;
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

    /// Unconditionally compact: seal everything `graph` gained since the
    /// last run into a new run (merging one adjacent pair when the list
    /// outgrows [`MAX_RUNS`]), commit the new run list by manifest rename,
    /// start a fresh WAL generation and delete what the old one used alone.
    pub fn compact(&mut self, graph: &ProvGraph) -> StoreResult<()> {
        // Flush first: the manifest's seq must cover every batch folded into
        // `graph`, or the buffered batches would later land in the fresh WAL
        // at or below that seq and fail replay as spliced history.
        self.flush()?;
        let base = self.manifest.end();
        let (image, end) = match column::encode_run(graph, base, &self.overwrites) {
            Ok(run) => run,
            // The log is intact, but it can no longer be compacted and every
            // later `maybe_compact` would fail the same way after its commit.
            Err(e) => return self.poison(e),
        };
        match self.seal(graph, &image, base, end) {
            Ok(next) => {
                self.manifest = next;
                self.overwrites.clear();
                self.gen += 1;
                self.wal_bytes = 0;
                self.counters.snapshots_written += 1;
                Ok(())
            }
            Err(e) => self.poison(e),
        }
    }

    /// The file protocol of one compaction (module docs): write the run,
    /// merge once if the list outgrew [`MAX_RUNS`], commit by manifest
    /// rename, then retire the old generation. Returns the committed list.
    fn seal(
        &mut self,
        graph: &ProvGraph,
        image: &[u8],
        base: Watermark,
        end: Watermark,
    ) -> StoreResult<Manifest> {
        let mut next = Manifest { seq: self.seq, runs: self.manifest.runs.clone() };
        next.runs.push(self.write_run(image, base, end)?);
        // The pair a merge replaces, deleted once the new list commits.
        let mut merged_away = None;
        if let Some(i) = next.merge_candidate() {
            let (a, b) = (next.runs[i], next.runs[i + 1]);
            let merged = column::merge_runs(self.io.as_ref(), &a, &b).map_err(|e| {
                StoreError::CorruptLog(format!("merging runs {} and {}: {e}", a.id, b.id))
            })?;
            let entry = self.write_run(&merged, a.base, b.end)?;
            next.runs.splice(i..=i + 1, [entry]);
            self.counters.runs_merged += 1;
            merged_away = Some([a.id, b.id]);
        }
        let (old_gen, new_gen) = (self.gen, self.gen + 1);
        let manifest = next.encode()?;
        let io = self.io.as_mut();
        io.write(MANIFEST_TMP, &manifest).map_err(Self::io_err)?;
        io.sync(MANIFEST_TMP).map_err(Self::io_err)?;
        // The commit point: after this rename the new generation is
        // authoritative; before it, a crash leaves only temp files and
        // unlisted runs, which recovery sweeps.
        io.rename(MANIFEST_TMP, &manifest_file_name(new_gen)).map_err(Self::io_err)?;
        io.write(&wal_file_name(new_gen), &[]).map_err(Self::io_err)?;
        io.sync(&wal_file_name(new_gen)).map_err(Self::io_err)?;
        self.counters.fsyncs += 2; // manifest + fresh wal
        io.remove(&wal_file_name(old_gen)).map_err(Self::io_err)?;
        // Generation 0 has no manifest; remove is idempotent either way.
        io.remove(&manifest_file_name(old_gen)).map_err(Self::io_err)?;
        if let Some(ids) = merged_away {
            // A lazily decoded graph may still read a merged-away run on
            // first touch; load its deferred columns while the files exist.
            graph.load_deferred_props();
            for id in ids {
                io.remove(&run_file_name(id)).map_err(Self::io_err)?;
            }
        }
        Ok(next)
    }

    /// Write `image` as the next run file — temp file, fsync, rename — and
    /// return its manifest entry.
    fn write_run(
        &mut self,
        image: &[u8],
        base: Watermark,
        end: Watermark,
    ) -> StoreResult<RunEntry> {
        let id = self.next_run;
        self.io.write(RUN_TMP, image).map_err(Self::io_err)?;
        self.io.sync(RUN_TMP).map_err(Self::io_err)?;
        self.io.rename(RUN_TMP, &run_file_name(id)).map_err(Self::io_err)?;
        self.counters.fsyncs += 1;
        self.next_run += 1;
        Ok(RunEntry { id, base, end, len: image.len() as u64 })
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
        wal::encode_batch(&mut bytes, &[], 9).unwrap();
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
        wal::encode_batch(&mut bytes, &[bad], 5).unwrap();
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
    fn corrupt_runs_and_manifests_fail_loudly() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 4, "a");
        storage.compact(&graph).unwrap();
        ingest(&mut graph, &mut storage, 3, "b");
        storage.compact(&graph).unwrap();
        let runs = storage.manifest().runs.clone();
        assert_eq!(runs.len(), 2);
        let manifest = manifest_file_name(storage.generation());
        for name in [run_file_name(runs[0].id), run_file_name(runs[1].id), manifest] {
            let bad = disk.fork();
            let mut bytes = bad.file(&name).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            bad.set_file(&name, bytes);
            let err = WalStorage::open(Box::new(bad), DurabilityPolicy::default()).unwrap_err();
            assert!(matches!(err, StoreError::CorruptLog(_)), "{name}: {err}");
        }
        // A listed run that is missing is corruption, not an empty base.
        let mut missing = disk.fork();
        missing.remove(&run_file_name(runs[1].id)).unwrap();
        let err = WalStorage::open(Box::new(missing), DurabilityPolicy::default()).unwrap_err();
        assert!(matches!(&err, StoreError::CorruptLog(m) if m.contains("missing")), "{err}");
        // A whole-graph image of the retired format is refused by name.
        let retired = disk.fork();
        let mut bytes = retired.file(&run_file_name(runs[0].id)).unwrap();
        bytes[..8].copy_from_slice(b"PROVSEG1");
        retired.set_file(&run_file_name(runs[0].id), bytes);
        let err = WalStorage::open(Box::new(retired), DurabilityPolicy::default()).unwrap_err();
        assert!(matches!(&err, StoreError::CorruptLog(m) if m.contains("PROVSEG1")), "{err}");
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
        // Old generation files are gone; manifest + run + empty wal exist.
        assert_eq!(
            disk.list().unwrap(),
            [manifest_file_name(1), run_file_name(1), wal_file_name(1)],
        );
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
    fn a_compaction_writes_the_delta_not_the_graph() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        ingest(&mut graph, &mut storage, 200, "big");
        storage.compact(&graph).unwrap();
        ingest(&mut graph, &mut storage, 5, "small");
        storage.compact(&graph).unwrap();
        let runs = &storage.manifest().runs;
        assert_eq!((runs[0].base, runs[1].base), (Watermark::default(), runs[0].end));
        assert_eq!(runs[1].end, Watermark::of(&graph));
        assert!(
            runs[1].len * 10 < runs[0].len,
            "second run {} bytes, first {}",
            runs[1].len,
            runs[0].len
        );
        let (_, rec2) = open_mem(&disk);
        assert_eq!(rec2.graph, graph);
    }

    /// A policy per decode mode, never compacting on its own.
    fn both_modes() -> [DurabilityPolicy; 2] {
        [DurabilityPolicy::never_compact(), DurabilityPolicy::never_compact().with_lazy_decode()]
    }

    /// Commit one write to a property of vertex 0 (sealed by the first run).
    fn touch_old(graph: &mut ProvGraph, storage: &mut WalStorage, value: i64) {
        graph.set_vprop(prov_model::VertexId::new(0), "version", value);
        graph.unset_vprop(prov_model::VertexId::new(1), "version");
        let ops = graph.take_journal();
        storage.commit(&ops).unwrap();
    }

    #[test]
    fn an_old_vertex_write_replayed_from_the_wal_tail_survives_the_next_compaction() {
        for policy in both_modes() {
            let disk = MemIo::new();
            let (mut storage, rec) = open_with(&disk, policy.clone());
            let mut graph = rec.graph;
            ingest(&mut graph, &mut storage, 4, "e");
            storage.compact(&graph).unwrap();
            // Writes to vertices the run already sealed, then a crash: the
            // ops live only in the WAL tail.
            touch_old(&mut graph, &mut storage, 99);
            drop(storage);
            let (mut storage, rec) = open_with(&disk, policy.clone());
            assert_eq!(rec.graph, graph);
            // Recovery must hand the replayed ops to this run's overwrite
            // segment: its columns start past vertex 3.
            storage.compact(&rec.graph).unwrap();
            drop(storage);
            let (storage, rec) = open_with(&disk, policy);
            assert_eq!(storage.counters().batches_replayed, 0);
            let v = |i| prov_model::VertexId::new(i);
            assert_eq!(rec.graph.vprop(v(0), "version"), Some(&prov_model::PropValue::Int(99)));
            assert_eq!(rec.graph.vprop(v(1), "version"), None);
            assert_eq!(rec.graph, graph);
        }
    }

    #[test]
    fn runs_merge_past_max_runs_and_every_decode_mode_agrees() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        for round in 0..20i64 {
            ingest(&mut graph, &mut storage, 2 + (round % 3) as usize, &format!("r{round}"));
            touch_old(&mut graph, &mut storage, round);
            storage.compact(&graph).unwrap();
            assert!(storage.manifest().runs.len() <= MAX_RUNS);
            let (_, rec2) = open_mem(&disk.fork());
            assert_eq!(rec2.graph, graph, "after compaction {round}");
        }
        let c = storage.counters();
        assert_eq!((c.snapshots_written, c.runs_merged), (20, 20 - MAX_RUNS as u64));
        ingest(&mut graph, &mut storage, 2, "tail");
        for policy in both_modes() {
            let (reopened, rec) = open_with(&disk.fork(), policy);
            assert_eq!(rec.graph, graph);
            assert_eq!(rec.index, ProvIndex::build(&rec.graph));
            assert_eq!(reopened.manifest(), storage.manifest());
        }
        // Only the listed runs are on disk.
        let runs = disk.list().unwrap().into_iter().filter(|n| n.starts_with("run-")).count();
        assert_eq!(runs, MAX_RUNS);
    }

    #[test]
    fn a_lazy_graph_loads_its_columns_before_a_merge_deletes_their_run() {
        let disk = MemIo::new();
        let (mut storage, rec) = open_mem(&disk);
        let mut graph = rec.graph;
        for round in 0..MAX_RUNS {
            ingest(&mut graph, &mut storage, 3, &format!("r{round}"));
            storage.compact(&graph).unwrap();
        }
        drop(storage);
        let lazy = DurabilityPolicy::never_compact().with_lazy_decode();
        let (mut storage, rec) = open_with(&disk, lazy);
        assert!(rec.graph.deferred_props_untouched());
        // An empty delta reads no property, so only the merge's own guard
        // loads the columns before the merged-away runs are deleted.
        storage.compact(&rec.graph).unwrap();
        assert_eq!(storage.counters().runs_merged, 1);
        assert!(!rec.graph.deferred_props_untouched());
        assert_eq!(rec.graph, graph);
    }

    /// An [`Io`] over a [`MemIo`] disk that forks the disk after every call
    /// that may change it: each fork is a state a crash at that point
    /// leaves behind.
    #[derive(Debug)]
    struct StepIo {
        disk: MemIo,
        steps: std::sync::Arc<std::sync::Mutex<Vec<(String, MemIo)>>>,
    }

    impl StepIo {
        fn step(&self, what: String) -> IoResult<()> {
            self.steps.lock().expect("steps lock").push((what, self.disk.fork()));
            Ok(())
        }
    }

    impl Io for StepIo {
        fn list(&self) -> IoResult<Vec<String>> {
            self.disk.list()
        }
        fn read(&self, name: &str) -> IoResult<Option<Vec<u8>>> {
            self.disk.read(name)
        }
        fn column_source(&self, name: &str) -> IoResult<Option<Box<dyn ColumnSource>>> {
            self.disk.column_source(name)
        }
        fn append(&mut self, name: &str, data: &[u8]) -> IoResult<()> {
            self.disk.append(name, data)?;
            self.step(format!("append {name}"))
        }
        fn write(&mut self, name: &str, data: &[u8]) -> IoResult<()> {
            self.disk.write(name, data)?;
            self.step(format!("write {name}"))
        }
        fn truncate(&mut self, name: &str, len: u64) -> IoResult<()> {
            self.disk.truncate(name, len)?;
            self.step(format!("truncate {name}"))
        }
        fn sync(&mut self, name: &str) -> IoResult<()> {
            self.disk.sync(name)?;
            self.step(format!("sync {name}"))
        }
        fn rename(&mut self, from: &str, to: &str) -> IoResult<()> {
            self.disk.rename(from, to)?;
            self.step(format!("rename {from} {to}"))
        }
        fn remove(&mut self, name: &str) -> IoResult<()> {
            self.disk.remove(name)?;
            self.step(format!("remove {name}"))
        }
    }

    #[test]
    fn every_compaction_crash_window_recovers() {
        // Record the disk after every step of real compactions — the first
        // one (no manifest before it) and the one that first merges — and
        // recover from each recorded state.
        let disk = MemIo::new();
        let steps = std::sync::Arc::default();
        let io = StepIo { disk: disk.clone(), steps: std::sync::Arc::clone(&steps) };
        let (mut storage, rec) =
            WalStorage::open(Box::new(io), DurabilityPolicy::never_compact()).unwrap();
        let mut graph = rec.graph;
        for round in 0..=MAX_RUNS {
            ingest(&mut graph, &mut storage, 3, &format!("r{round}"));
            touch_old(&mut graph, &mut storage, round as i64);
            let old_gen = storage.generation();
            steps.lock().unwrap().clear();
            storage.compact(&graph).unwrap();
            if round != 0 && round != MAX_RUNS {
                continue;
            }
            let states = std::mem::take(&mut *steps.lock().unwrap());
            let labels: Vec<&str> = states.iter().map(|(l, _)| l.as_str()).collect();
            let new_manifest = manifest_file_name(old_gen + 1);
            let commit = labels
                .iter()
                .position(|l| *l == format!("rename {MANIFEST_TMP} {new_manifest}"))
                .expect("the manifest rename is a step");
            let run_writes = labels.iter().filter(|l| **l == format!("write {RUN_TMP}")).count();
            assert_eq!(run_writes, if round == 0 { 1 } else { 2 }, "{labels:?}");
            // Before the commit point: temp files and runs only.
            assert!(labels[..commit].iter().all(|l| l.contains(".tmp")), "{labels:?}");
            for (i, (label, state)) in states.iter().enumerate() {
                let committed = i >= commit;
                let after = state.fork();
                let (mut s, r) = open_mem(&after);
                let at = format!("crash after step {i} ({label})");
                assert_eq!(r.graph, graph, "{at}");
                assert_eq!(r.index, ProvIndex::build(&r.graph), "{at}");
                let gen = if committed { old_gen + 1 } else { old_gen };
                assert_eq!(s.generation(), gen, "{at}");
                // Recovery left exactly the chosen generation's files.
                let mut expect: Vec<String> =
                    s.manifest().runs.iter().map(|r| run_file_name(r.id)).collect();
                expect.push(wal_file_name(gen));
                if gen > 0 {
                    expect.push(manifest_file_name(gen));
                }
                expect.sort();
                assert_eq!(after.list().unwrap(), expect, "{at}");
                // And compacting again from the recovered state works.
                let mut g = r.graph;
                ingest(&mut g, &mut s, 1, "later");
                s.compact(&g).unwrap();
                let (_, again) = open_mem(&after);
                assert_eq!(again.graph, g, "{at}");
            }
        }
        assert_eq!(storage.counters().runs_merged, 1);
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
        // The run covers every buffered batch; recovery needs no WAL.
        let (reopened, rec2) = open_mem(&disk);
        assert_eq!(rec2.graph, graph);
        assert_eq!(reopened.last_seq(), storage.last_seq());
        assert_eq!(reopened.counters().batches_replayed, 0, "all folded into the run");
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
        assert_eq!(reopened.last_seq(), 5, "manifest seq covers the flushed group");
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
        assert_eq!(manifest_file_name(12), "manifest-0000000012");
        assert_eq!(run_file_name(7), "run-0000000007");
        assert_eq!(parse_gen("wal-0000000003", "wal-"), Some(3));
        assert_eq!(parse_gen("wal-3", "wal-"), None);
        assert_eq!(parse_gen(RUN_TMP, "run-"), None);
        assert_eq!(parse_gen(MANIFEST_TMP, "manifest-"), None);
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
