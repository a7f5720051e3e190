//! The kill-point sweep: crash the durable database at EVERY byte offset of
//! the write-ahead log and prove recovery lands on a committed-batch prefix.
//!
//! The crash model: with fsync-on-commit, a crash leaves some prefix of the
//! WAL's bytes durable (a torn append can stop at any byte). Sweeping every
//! `K in 0..=wal_len` with [`MemIo::fork_truncated`] therefore covers a
//! superset of reachable crash states. For each one, recovery must produce:
//!
//! 1. a `validate()`-clean graph,
//! 2. **exactly** the in-memory reference prefix after the last batch whose
//!    commit marker survived ([`wal::scan`]'s `commit_offsets` predicts
//!    which) — never a partial batch, never one batch fewer,
//! 3. a recovered index (built once, after replay) equal to a from-scratch
//!    `ProvIndex::build` and `validate()`-clean.

use prov_core::{ActivityRecord, DurabilityPolicy, OutputSpec, ProvDb};
use prov_store::storage::{wal, wal_file_name, FailpointIo, FaultPlan, MemIo, MAX_RUNS};
use prov_store::{ProvGraph, ProvIndex, StoreError};

fn open_mem(disk: &MemIo) -> ProvDb {
    ProvDb::open_with_io(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap()
}

/// One scripted mutation per step, exercising every WAL op kind: vertices
/// with and without names, all edge shapes `record_activity` emits, property
/// sets, unsets, edge props, and index declarations. Pushes the post-state
/// after each committed batch into `prefixes`.
fn scripted_ingest(db: &mut ProvDb, prefixes: &mut Vec<ProvGraph>) {
    let step = |db: &mut ProvDb, prefixes: &mut Vec<ProvGraph>| {
        prefixes.push(db.graph().clone());
    };
    let alice = db.add_agent("alice").unwrap();
    step(db, prefixes);
    let data = db.add_artifact_version("dataset", Some(alice)).unwrap();
    step(db, prefixes);
    let out = db
        .record_activity(ActivityRecord {
            command: "train".into(),
            agent: Some(alice),
            inputs: vec![data],
            outputs: vec![OutputSpec::named("weights").with("acc", 0.7), OutputSpec::named("log")],
            props: vec![("opt".into(), "-gpu".into())],
        })
        .unwrap();
    step(db, prefixes);
    let weights = out.outputs[0];
    db.record_activity(ActivityRecord {
        command: "eval".into(),
        agent: None,
        inputs: vec![weights, data],
        outputs: vec![OutputSpec::named("report").with("pass", true)],
        props: vec![("seed".into(), 42i64.into())],
    })
    .unwrap();
    step(db, prefixes);
    db.try_with_graph_mut(|g| {
        let t = g.add_activity("annotate");
        let edge = g.add_edge(prov_model::EdgeKind::Used, t, data).expect("valid use edge");
        g.set_eprop(edge, "role", "input");
        g.set_vprop(weights, "acc", 0.75); // overwrite
        g.unset_vprop(weights, "acc");
        g.create_vprop_index(prov_model::VertexKind::Entity, "filename");
    })
    .unwrap();
    step(db, prefixes);
    db.add_artifact_version("dataset", None).unwrap();
    step(db, prefixes);
}

/// Sweep every byte offset of generation-`generation` WAL on `disk`,
/// asserting recovery yields exactly the predicted committed prefix.
/// `prefixes[i]` is the reference state after `base_seq + i` total batches.
fn sweep(disk: &MemIo, generation: u64, base_seq: u64, prefixes: &[ProvGraph]) {
    let wal_name = wal_file_name(generation);
    let bytes = disk.file(&wal_name).unwrap();
    let scan = wal::scan(&bytes, base_seq + 1).unwrap();
    assert_eq!(
        scan.commit_offsets.len(),
        prefixes.len() - 1,
        "one reference prefix per committed batch"
    );
    assert_eq!(scan.committed_len, bytes.len(), "the live log has no torn tail");
    for k in 0..=bytes.len() {
        let crashed = disk.fork_truncated(&wal_name, k);
        let db = open_mem(&crashed);
        let surviving = scan.commit_offsets.iter().filter(|&&o| o <= k).count();
        db.graph().validate().unwrap_or_else(|e| panic!("crash at byte {k}: invalid graph: {e}"));
        assert_eq!(
            db.graph(),
            &prefixes[surviving],
            "crash at byte {k}: expected exactly {surviving} surviving batches"
        );
        // The recovered index (one build after the replay) must equal a
        // from-scratch rebuild.
        let snap = db.snapshot();
        snap.validate().unwrap_or_else(|e| panic!("crash at byte {k}: invalid index: {e}"));
        assert_eq!(*snap, ProvIndex::build(db.graph()), "crash at byte {k}: refresh != rebuild");
        // The engine reports the truncation it performed.
        let truncated = db.durability_counters().unwrap().truncated_tail_bytes;
        let expected_cut = k as u64
            - scan.commit_offsets.iter().filter(|&&o| o <= k).max().copied().unwrap_or(0) as u64;
        assert_eq!(truncated, expected_cut, "crash at byte {k}: torn-tail accounting");
    }
}

#[test]
fn recovery_at_every_wal_byte_yields_a_committed_prefix() {
    let disk = MemIo::new();
    let mut db = open_mem(&disk);
    let mut prefixes = vec![db.graph().clone()]; // [0] = empty
    scripted_ingest(&mut db, &mut prefixes);
    drop(db);
    sweep(&disk, 0, 0, &prefixes);
}

#[test]
fn recovery_at_every_wal_byte_after_compaction() {
    let disk = MemIo::new();
    let mut db = open_mem(&disk);
    let mut pre = vec![db.graph().clone()];
    scripted_ingest(&mut db, &mut pre);
    let base_seq = (pre.len() - 1) as u64;
    assert!(db.compact().unwrap());

    // Post-compaction history: the sweep prefixes restart at the snapshot.
    let mut prefixes = vec![db.graph().clone()];
    let alice = db.entity("dataset-v1").unwrap(); // any anchor for inputs
    db.add_agent("bob").unwrap();
    prefixes.push(db.graph().clone());
    db.record_activity(ActivityRecord {
        command: "publish".into(),
        agent: None,
        inputs: vec![alice],
        outputs: vec![OutputSpec::named("site")],
        props: vec![],
    })
    .unwrap();
    prefixes.push(db.graph().clone());
    drop(db);
    sweep(&disk, 1, base_seq, &prefixes);
}

#[test]
fn recovery_at_every_wal_byte_after_runs_merge() {
    // Enough compactions that the run list outgrows MAX_RUNS and merges,
    // each generation also rewriting properties of vertices older runs
    // sealed (the overwrite segments), then the full per-byte sweep of the
    // live generation's log.
    let disk = MemIo::new();
    let mut db = open_mem(&disk);
    let mut pre = vec![db.graph().clone()];
    scripted_ingest(&mut db, &mut pre);
    let mut base_seq = (pre.len() - 1) as u64;
    let weights = db.entity("weights-v1").unwrap();
    for round in 0..=MAX_RUNS as i64 {
        assert!(db.compact().unwrap());
        db.add_artifact_version("dataset", None).unwrap();
        db.try_with_graph_mut(|g| {
            g.set_vprop(weights, "acc", round);
            g.set_vprop(prov_model::VertexId::new(0), "round", round);
        })
        .unwrap();
        base_seq += 2;
    }
    assert!(db.compact().unwrap());
    let c = db.durability_counters().unwrap();
    assert!(c.snapshots_written > MAX_RUNS as u64 && c.runs_merged >= 1, "{c:?}");

    let mut prefixes = vec![db.graph().clone()];
    db.try_with_graph_mut(|g| g.unset_vprop(weights, "acc")).unwrap();
    prefixes.push(db.graph().clone());
    db.add_artifact_version("dataset", None).unwrap();
    prefixes.push(db.graph().clone());
    db.try_with_graph_mut(|g| g.set_vprop(prov_model::VertexId::new(0), "round", -1i64)).unwrap();
    prefixes.push(db.graph().clone());
    let generation = c.snapshots_written;
    drop(db);
    sweep(&disk, generation, base_seq, &prefixes);
}

#[test]
fn recovery_at_every_byte_of_a_multi_batch_group_append() {
    // Group commit: the whole scripted history is accepted into one group
    // and flushed as ONE contiguous WAL append + one fsync. Because every
    // batch keeps its own commit marker, crashing at any byte of that group
    // append must recover exactly the batches whose markers survived — the
    // same committed-prefix property as ungrouped commits, byte for byte.
    let disk = MemIo::new();
    let policy = DurabilityPolicy::never_compact().with_group_batches(100);
    let mut db = ProvDb::open_with_io(Box::new(disk.clone()), policy).unwrap();
    let mut prefixes = vec![db.graph().clone()]; // [0] = empty
    scripted_ingest(&mut db, &mut prefixes);
    // Nothing flushed yet: every batch is accepted-but-unacknowledged.
    let c = db.durability_counters().unwrap();
    assert_eq!((c.wal_appends, c.fsyncs, c.group_flushes), (0, 0, 0));
    assert_eq!(disk.file(&wal_file_name(0)).unwrap(), b"", "group still buffered");
    db.flush().unwrap();
    let c = db.durability_counters().unwrap();
    assert_eq!(c.wal_appends, (prefixes.len() - 1) as u64);
    assert_eq!(c.fsyncs, 1, "the whole group cost one fsync");
    assert_eq!(c.group_flushes, 1);
    assert_eq!(c.group_flushed_batches, (prefixes.len() - 1) as u64);
    drop(db);
    // The on-disk log is indistinguishable from per-batch commits, so the
    // full per-byte sweep applies unchanged.
    sweep(&disk, 0, 0, &prefixes);
}

#[test]
fn fsync_failure_mid_group_poisons_with_no_acknowledged_batch_lost() {
    let disk = MemIo::new();
    let fp = FailpointIo::new(disk.clone(), FaultPlan::fail_sync(0));
    let policy = DurabilityPolicy::never_compact().with_group_batches(100);
    let mut db = ProvDb::open_with_io(Box::new(fp), policy).unwrap();
    let alice = db.add_agent("alice").unwrap();
    db.add_artifact_version("dataset", Some(alice)).unwrap();
    // Both batches accepted, neither acknowledged as durable.
    assert_eq!(db.durability_counters().unwrap().fsyncs, 0);
    // The flush's fsync fails mid-group: the error surfaces here, before
    // anything was acknowledged, and the pipeline poisons.
    let err = db.flush().unwrap_err();
    assert!(matches!(err, StoreError::StorageUnavailable(_)), "{err}");
    // Every later mutation refuses instead of pretending durability.
    let err = db.add_agent("bob").unwrap_err();
    assert!(matches!(&err, StoreError::StorageUnavailable(m) if m.contains("poisoned")), "{err}");
    drop(db);
    // Reopen the underlying disk: the group's bytes landed (only the fsync
    // failed), so recovery may keep all of it or none — both are committed
    // prefixes of unacknowledged work. No acknowledged batch existed to lose.
    let db =
        ProvDb::open_with_io(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap();
    db.graph().validate().unwrap();
    let n = db.graph().vertex_count();
    assert!(n == 0 || n == 2, "committed prefix only, got {n} vertices");
}

#[test]
fn post_recovery_ingest_continues_versions_and_durability() {
    // Crash mid-log, recover, keep working, reopen again: the generation
    // survives, version counters continue without collisions, and the final
    // state is durable.
    let disk = MemIo::new();
    let mut db = open_mem(&disk);
    let mut prefixes = vec![db.graph().clone()];
    scripted_ingest(&mut db, &mut prefixes);
    drop(db);

    let wal_name = wal_file_name(0);
    let bytes = disk.file(&wal_name).unwrap();
    let scan = wal::scan(&bytes, 1).unwrap();
    // Crash just before the last batch's commit marker lands.
    let k = scan.commit_offsets[scan.commit_offsets.len() - 2] + 3;
    let crashed = disk.fork_truncated(&wal_name, k);
    let mut db = open_mem(&crashed);
    let surviving = scan.commit_offsets.iter().filter(|&&o| o <= k).count();
    assert_eq!(db.graph(), &prefixes[surviving]);

    // "dataset" reached v1 in the surviving prefix (the v2 batch was the one
    // torn off) — the next version must be v2 again, not v3.
    let v = db.add_artifact_version("dataset", None).unwrap();
    assert_eq!(db.graph().vertex_name(v), Some("dataset-v2"));
    let reference = db.graph().clone();
    drop(db);

    let db = open_mem(&crashed);
    assert_eq!(db.graph(), &reference);
    assert_eq!(db.durability_counters().unwrap().recoveries, 1);
}
