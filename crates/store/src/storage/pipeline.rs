//! Group commit: a pipeline in front of [`WalStorage`] that accumulates
//! encoded op-batches and flushes several of them as **one** contiguous WAL
//! append + one fsync.
//!
//! ## Protocol
//!
//! [`CommitPipeline::submit`] frames the batch with its commit sequence
//! number (`wal::encode_batch` — every batch keeps its own commit marker, so
//! the on-disk format and every recovery invariant are byte-for-byte those
//! of ungrouped commits) and appends it to an in-memory group buffer. The
//! batch is *accepted* at that point and *durable* once a flush covering its
//! sequence number returns; flushes happen when the batch window fills
//! (`group_max_batches`), when the byte window fills (`group_window_bytes`),
//! or on explicit [`CommitPipeline::flush`]. With the default policy
//! (`group_max_batches = 1`) every submit flushes before returning —
//! exactly the ungrouped ack-after-fsync protocol.
//!
//! ## Leader/waiter
//!
//! Concurrent callers coordinate through one mutex + condvar: the first
//! thread that needs its sequence flushed becomes the **leader**, takes the
//! whole buffered group, and performs the append + fsync with the state
//! lock *released* (so submitters keep filling the next group). Everyone
//! else **waits** on the condvar; when the leader publishes the new
//! `flushed_seq` they either return (their batch made the group) or lead
//! the next flush themselves.
//!
//! ## Crash + failure windows
//!
//! A crash mid-group tears at most the *tail* of the group append; recovery
//! truncates back to the last intact commit marker, which can only drop
//! batches whose flush never returned — accepted-but-unflushed batches were
//! never acknowledged as durable, so no acknowledged batch is ever lost. A
//! failed append or fsync poisons the engine *and* the pipeline: the flush
//! that observed the failure reports it, and every later submit/flush fails
//! with [`StoreError::StorageUnavailable`] until the process reopens.
//!
//! ## Compaction interplay
//!
//! `compact_after_wal_bytes` is checked against engine WAL bytes **plus**
//! buffered group bytes, and both [`Storage::compact`] and the policy-driven
//! `maybe_compact` force a flush before the snapshot is written: the
//! snapshot's sequence number must cover every batch folded into the graph,
//! otherwise the buffered batches would later land in the fresh WAL with
//! sequence numbers at or below the snapshot's and fail replay as spliced.

use super::wal;
use super::{DurabilityCounters, DurabilityPolicy, Storage, WalStorage};
use crate::error::{StoreError, StoreResult};
use crate::graph::{ProvGraph, WalOp};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The group-commit front end. Cloning yields another handle onto the same
/// pipeline (for concurrent submitters); the database layer owns one as its
/// `Box<dyn Storage>`.
#[derive(Debug, Clone)]
pub struct CommitPipeline {
    shared: Arc<PipeShared>,
}

#[derive(Debug)]
struct PipeShared {
    state: Mutex<PipeState>,
    /// Signaled every time a flush completes (or fails).
    flushed: Condvar,
    engine: Mutex<WalStorage>,
    policy: DurabilityPolicy,
}

#[derive(Debug)]
struct PipeState {
    /// Concatenated `[ops record][commit marker]` frames awaiting flush.
    buf: Vec<u8>,
    /// Batches currently in `buf`.
    buffered_batches: u64,
    /// Sequence number of the last accepted (buffered or flushed) batch.
    next_seq: u64,
    /// Sequence number of the last durably flushed batch.
    flushed_seq: u64,
    /// A leader is currently appending/fsyncing with the lock released.
    flushing: bool,
    poisoned: Option<String>,
}

impl CommitPipeline {
    /// Wrap `engine` (already recovered) in a group-commit pipeline driven
    /// by the engine's own [`DurabilityPolicy`].
    pub fn new(engine: WalStorage) -> CommitPipeline {
        let policy = engine.policy().clone();
        let seq = engine.last_seq();
        CommitPipeline {
            shared: Arc::new(PipeShared {
                state: Mutex::new(PipeState {
                    buf: Vec::new(),
                    buffered_batches: 0,
                    next_seq: seq,
                    flushed_seq: seq,
                    flushing: false,
                    poisoned: None,
                }),
                flushed: Condvar::new(),
                engine: Mutex::new(engine),
                policy,
            }),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, PipeState> {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_engine(&self) -> MutexGuard<'_, WalStorage> {
        self.shared.engine.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn check_poisoned(st: &PipeState) -> StoreResult<()> {
        match &st.poisoned {
            Some(msg) => Err(StoreError::StorageUnavailable(format!(
                "storage poisoned by an earlier failure ({msg}); reopen to recover"
            ))),
            None => Ok(()),
        }
    }

    /// True once a flush failure has poisoned the pipeline.
    pub fn is_poisoned(&self) -> bool {
        self.lock_state().poisoned.is_some()
    }

    /// Batches accepted but not yet durably flushed.
    pub fn buffered_batches(&self) -> u64 {
        self.lock_state().buffered_batches
    }

    /// Encoded bytes accepted but not yet durably flushed.
    pub fn buffered_bytes(&self) -> u64 {
        self.lock_state().buf.len() as u64
    }

    /// Sequence number of the last durably flushed batch.
    pub fn flushed_seq(&self) -> u64 {
        self.lock_state().flushed_seq
    }

    /// Accept one op-batch into the current group. Flushes (append + fsync
    /// for the whole group) when the batch or byte window fills; otherwise
    /// returns immediately with the batch accepted-but-not-yet-durable.
    pub fn submit(&self, ops: &[WalOp]) -> StoreResult<()> {
        let mut st = self.lock_state();
        Self::check_poisoned(&st)?;
        let seq = st.next_seq + 1;
        let frame = match wal::encode_batch(ops, seq) {
            Ok(frame) => frame,
            Err(e) => {
                // Applied in memory but unencodable: memory is ahead of disk
                // exactly as after a failed flush.
                st.poisoned = Some(e.to_string());
                return Err(e);
            }
        };
        st.next_seq = seq;
        st.buf.extend_from_slice(&frame);
        st.buffered_batches += 1;
        let p = &self.shared.policy;
        let window_full = st.buffered_batches >= u64::from(p.group_max_batches.max(1))
            || (p.group_window_bytes > 0 && st.buf.len() as u64 >= p.group_window_bytes);
        if window_full {
            return self.flush_to(st, seq);
        }
        Ok(())
    }

    /// Durably flush every accepted batch, becoming leader or waiting on one.
    pub fn flush(&self) -> StoreResult<()> {
        let st = self.lock_state();
        let target = st.next_seq;
        self.flush_to(st, target)
    }

    /// Wait until `target` is durably flushed, leading flushes as needed.
    fn flush_to<'a>(&'a self, mut st: MutexGuard<'a, PipeState>, target: u64) -> StoreResult<()> {
        loop {
            Self::check_poisoned(&st)?;
            if st.flushed_seq >= target {
                return Ok(());
            }
            if st.flushing {
                // Waiter: a leader is mid-flush with the lock released. When
                // it publishes, either our seq made its group or we lead the
                // next one.
                st = self.shared.flushed.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Leader: take the whole buffered group and flush it with the
            // state lock released so submitters keep filling the next group.
            st.flushing = true;
            let buf = std::mem::take(&mut st.buf);
            let batches = st.buffered_batches;
            st.buffered_batches = 0;
            let last = st.next_seq;
            drop(st);
            debug_assert!(batches > 0, "unflushed seqs imply a non-empty buffer");
            let result = self.lock_engine().append_group(&buf, batches, last);
            st = self.lock_state();
            st.flushing = false;
            match result {
                Ok(()) => {
                    st.flushed_seq = last;
                    self.shared.flushed.notify_all();
                }
                Err(e) => {
                    // The group's durability is unknown (and the engine is
                    // poisoned): nothing in it was acknowledged, and nothing
                    // later may be.
                    st.poisoned = Some(e.to_string());
                    self.shared.flushed.notify_all();
                    return Err(e);
                }
            }
        }
    }

    fn poison_from_engine(&self, err: StoreError) -> StoreError {
        let mut st = self.lock_state();
        if st.poisoned.is_none() {
            st.poisoned = Some(err.to_string());
            self.shared.flushed.notify_all();
        }
        err
    }
}

impl Storage for CommitPipeline {
    fn commit(&mut self, ops: &[WalOp]) -> StoreResult<()> {
        self.submit(ops)
    }

    fn maybe_compact(&mut self, graph: &ProvGraph) -> StoreResult<bool> {
        // Buffered group bytes count toward the threshold: they are WAL
        // bytes in every sense but residency.
        let combined = self.wal_bytes();
        if combined < self.shared.policy.compact_after_wal_bytes {
            return Ok(false);
        }
        Storage::compact(self, graph)?;
        Ok(true)
    }

    fn compact(&mut self, graph: &ProvGraph) -> StoreResult<()> {
        // Flush first: the snapshot's seq must cover every batch folded into
        // `graph`, or the buffered batches would replay as spliced history.
        self.flush()?;
        self.lock_engine().compact(graph).map_err(|e| self.poison_from_engine(e))
    }

    fn flush(&mut self) -> StoreResult<()> {
        CommitPipeline::flush(self)
    }

    fn counters(&self) -> DurabilityCounters {
        self.lock_engine().counters()
    }

    fn wal_bytes(&self) -> u64 {
        let buffered = self.buffered_bytes();
        self.lock_engine().wal_bytes() + buffered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{wal_file_name, FailpointIo, FaultPlan, MemIo, Recovered};

    fn open_pipeline(disk: &MemIo, policy: DurabilityPolicy) -> (CommitPipeline, Recovered) {
        let (engine, rec) = WalStorage::open(Box::new(disk.clone()), policy).unwrap();
        (CommitPipeline::new(engine), rec)
    }

    /// Run `n` mutation batches through the pipeline, like ProvDb does.
    fn ingest(graph: &mut ProvGraph, pipe: &CommitPipeline, n: usize, tag: &str) {
        graph.set_journaling(true);
        for i in 0..n {
            let v = graph.add_entity(&format!("{tag}-{i}"));
            graph.set_vprop(v, "version", i as i64);
            let ops = graph.take_journal();
            pipe.submit(&ops).unwrap();
        }
    }

    #[test]
    fn default_policy_flushes_every_submit() {
        let disk = MemIo::new();
        let (pipe, rec) = open_pipeline(&disk, DurabilityPolicy::never_compact());
        let mut graph = rec.graph;
        ingest(&mut graph, &pipe, 3, "e");
        let c = pipe.counters();
        assert_eq!(c.wal_appends, 3);
        assert_eq!(c.fsyncs, 3);
        assert_eq!(c.group_flushes, 3);
        assert_eq!(c.group_flushed_batches, 3);
        assert_eq!(pipe.buffered_batches(), 0);
        assert_eq!(pipe.flushed_seq(), 3);
    }

    #[test]
    fn grouped_policy_amortizes_fsyncs_across_batches() {
        let disk = MemIo::new();
        let policy = DurabilityPolicy::never_compact().with_group_batches(4);
        let (pipe, rec) = open_pipeline(&disk, policy);
        let mut graph = rec.graph;
        ingest(&mut graph, &pipe, 8, "e");
        let c = pipe.counters();
        assert_eq!(c.wal_appends, 8, "every batch reaches the WAL");
        assert_eq!(c.fsyncs, 2, "two full groups, one fsync each");
        assert_eq!(c.group_flushes, 2);
        assert_eq!(c.group_flushed_batches, 8);
        // On-disk bytes are identical to 8 ungrouped commits: recovery
        // replays all 8 batches through the unchanged scan.
        let (_, rec2) = open_pipeline(&disk, DurabilityPolicy::never_compact());
        assert_eq!(rec2.graph, graph);
        assert_eq!(rec2.index, crate::snapshot::ProvIndex::build(&rec2.graph));
    }

    #[test]
    fn byte_window_triggers_flush_too() {
        let disk = MemIo::new();
        let policy =
            DurabilityPolicy::never_compact().with_group_batches(1000).with_group_window_bytes(64);
        let (pipe, rec) = open_pipeline(&disk, policy);
        let mut graph = rec.graph;
        ingest(&mut graph, &pipe, 6, "entity-with-a-longish-name");
        assert!(pipe.counters().group_flushes >= 1, "byte window forced flushes");
        assert!(pipe.buffered_bytes() < 64 + 200, "buffer drains at the window");
    }

    #[test]
    fn partial_group_is_accepted_but_not_durable_until_flush() {
        let disk = MemIo::new();
        let policy = DurabilityPolicy::never_compact().with_group_batches(8);
        let (pipe, rec) = open_pipeline(&disk, policy);
        let mut graph = rec.graph;
        ingest(&mut graph, &pipe, 3, "e");
        assert_eq!(pipe.buffered_batches(), 3);
        assert_eq!(pipe.counters().fsyncs, 0);
        assert_eq!(pipe.flushed_seq(), 0);
        // Nothing reached the disk yet: a crash here loses only
        // unacknowledged batches.
        assert_eq!(disk.file(&wal_file_name(0)).unwrap(), b"");
        let (_, before) = open_pipeline(&disk.fork(), DurabilityPolicy::never_compact());
        assert_eq!(before.graph, ProvGraph::new());
        // Explicit flush makes the partial group durable: one append, one
        // fsync, three commit markers.
        pipe.flush().unwrap();
        assert_eq!(pipe.buffered_batches(), 0);
        let c = pipe.counters();
        assert_eq!((c.fsyncs, c.group_flushes, c.group_flushed_batches), (1, 1, 3));
        let (_, after) = open_pipeline(&disk, DurabilityPolicy::never_compact());
        assert_eq!(after.graph, graph);
        // Flushing with nothing buffered is a no-op.
        pipe.flush().unwrap();
        assert_eq!(pipe.counters().fsyncs, 1);
    }

    #[test]
    fn concurrent_submitters_share_flushes_leader_waiter() {
        let disk = MemIo::new();
        let policy = DurabilityPolicy::never_compact().with_group_batches(4);
        let (pipe, _) = open_pipeline(&disk, policy);
        let pipe = Arc::new(pipe);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pipe = Arc::clone(&pipe);
                // lint-ok(thread-spawn): OS threads on purpose — the leader/waiter protocol is under test.
                std::thread::spawn(move || {
                    // Empty batches: valid frames whose replay is
                    // order-independent, so interleaving doesn't matter.
                    for _ in 0..25 {
                        pipe.submit(&[]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        pipe.flush().unwrap();
        let c = pipe.counters();
        assert_eq!(c.wal_appends, 100, "every batch durably appended");
        assert_eq!(c.group_flushed_batches, 100);
        assert!(c.fsyncs <= 25 + 1, "grouping held under contention: {} fsyncs", c.fsyncs);
        assert_eq!(pipe.flushed_seq(), 100);
        // The interleaved log replays clean: 100 gapless commit markers.
        let (engine, rec) =
            WalStorage::open(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap();
        assert_eq!(engine.last_seq(), 100);
        assert_eq!(rec.graph, ProvGraph::new());
    }

    #[test]
    fn fsync_failure_mid_group_poisons_with_nothing_acknowledged() {
        let disk = MemIo::new();
        let fp = FailpointIo::new(disk.clone(), FaultPlan::fail_sync(0));
        let policy = DurabilityPolicy::never_compact().with_group_batches(4);
        let (engine, rec) = WalStorage::open(Box::new(fp), policy).unwrap();
        let pipe = CommitPipeline::new(engine);
        let mut graph = rec.graph;
        graph.set_journaling(true);
        for i in 0..3 {
            graph.add_entity(&format!("e-{i}"));
            let ops = graph.take_journal();
            pipe.submit(&ops).unwrap(); // accepted, not yet durable
        }
        let err = pipe.flush().unwrap_err();
        assert!(matches!(err, StoreError::StorageUnavailable(_)), "{err}");
        assert!(pipe.is_poisoned());
        assert_eq!(pipe.flushed_seq(), 0, "no batch was ever acknowledged as durable");
        // Every later submit and flush refuses.
        graph.add_entity("doomed");
        let ops = graph.take_journal();
        let err = pipe.submit(&ops).unwrap_err();
        assert!(
            matches!(&err, StoreError::StorageUnavailable(m) if m.contains("poisoned")),
            "{err}"
        );
        assert!(pipe.flush().is_err());
        // Reopen: the appended-but-unsynced group is structurally complete
        // on the MemIo image, so recovery may keep it — either way it is a
        // committed prefix and no *acknowledged* batch is lost (none were).
        let (_, rec2) =
            WalStorage::open(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap();
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
        let (mut pipe, rec) = open_pipeline(&disk, policy);
        let mut graph = rec.graph;
        graph.set_journaling(true);
        // Fill the pipeline past the compaction threshold without a single
        // flush: every threshold byte is buffered, none is in the engine.
        while pipe.wal_bytes() < 64 {
            graph.add_entity("buffered");
            let ops = graph.take_journal();
            pipe.submit(&ops).unwrap();
        }
        assert!(pipe.buffered_bytes() >= 64, "all of it buffered");
        assert_eq!(pipe.counters().fsyncs, 0);
        // maybe_compact sees buffered bytes, flushes, then compacts.
        assert!(pipe.maybe_compact(&graph).unwrap());
        let c = pipe.counters();
        assert_eq!(c.group_flushes, 1, "compaction forced the flush");
        assert_eq!(c.snapshots_written, 1);
        assert_eq!(pipe.buffered_batches(), 0);
        assert_eq!(Storage::wal_bytes(&pipe), 0);
        // The snapshot covers every buffered batch; recovery needs no WAL.
        let (engine, rec2) =
            WalStorage::open(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap();
        assert_eq!(rec2.graph, graph);
        assert_eq!(engine.last_seq(), pipe.flushed_seq());
        assert_eq!(engine.counters().batches_replayed, 0, "all folded into the snapshot");
        // And committing through the new generation still works.
        graph.add_entity("after");
        let ops = graph.take_journal();
        pipe.submit(&ops).unwrap();
        pipe.flush().unwrap();
        let (_, rec3) =
            WalStorage::open(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap();
        assert_eq!(rec3.graph, graph);
    }

    #[test]
    fn explicit_compact_with_nonempty_pipeline_is_safe() {
        let disk = MemIo::new();
        let policy = DurabilityPolicy::never_compact().with_group_batches(100);
        let (mut pipe, rec) = open_pipeline(&disk, policy);
        let mut graph = rec.graph;
        ingest(&mut graph, &pipe, 5, "e");
        assert_eq!(pipe.buffered_batches(), 5);
        Storage::compact(&mut pipe, &graph).unwrap();
        assert_eq!(pipe.buffered_batches(), 0);
        let (engine, rec2) =
            WalStorage::open(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap();
        assert_eq!(rec2.graph, graph);
        assert_eq!(engine.last_seq(), 5, "snapshot seq covers the flushed group");
    }
}
