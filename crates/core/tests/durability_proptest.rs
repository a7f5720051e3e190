//! Differential fault-injection property tests for the durable engine.
//!
//! Each case interprets a random program of ingest / compact / crash /
//! restart / query ops against TWO databases at once:
//!
//! * a durable [`ProvDb`] over a [`MemIo`] disk, and
//! * an in-memory twin fed the identical op stream.
//!
//! While no crash happens the two must stay **byte-identical** (full
//! [`ProvGraph`] equality, every column). A `CrashRestart` op truncates the
//! live WAL at a random byte offset — [`wal::scan`]'s commit offsets predict
//! exactly which committed-batch prefix must survive, and recovery is checked
//! against a recorded clone of that prefix, not against anything recovery
//! itself produced. Queries (lineage, property lookup) are then run
//! differentially against a fresh in-memory database wrapping the predicted
//! prefix, and a PgSeg session pinned *before* the crash must still validate
//! and answer unchanged afterwards (sessions pin their snapshot epoch; losing
//! the db's tail must not touch them).
//!
//! Runs unmodified under `--features paranoid` (the CI matrix does both).
//!
//! Each case also draws a random [`DurabilityPolicy`]: fsync on or off,
//! group-commit windows of 1–5 batches per flush, eager or lazy decode, and
//! an automatic compaction threshold of 128–512 B (or none), so a program
//! seals many runs — and, past `MAX_RUNS`, merges them — on top of its
//! explicit `Compact` ops. The twin differential must hold across group
//! flush points (an accepted-but-unflushed batch is visible in memory and
//! absent from disk), a crash at `frac·wal_len` must still recover a
//! committed-batch prefix of the *flushed* log, and a clean shutdown
//! flushes before reopening.

use proptest::prelude::*;
use prov_core::segment::{PgSegOptions, PgSegQuery, PgSegSession};
use prov_core::{ActivityRecord, DurabilityPolicy, OutputSpec, ProvDb};
use prov_model::{PropValue, VertexKind};
use prov_store::storage::{wal, wal_file_name, MemIo};
use prov_store::{ProvGraph, ProvIndex};

#[derive(Debug, Clone)]
enum Op {
    /// Add a fresh agent.
    AddAgent,
    /// New version of one of a small pool of artifact names, maybe attributed.
    AddArtifact { name: u8, by_agent: bool },
    /// Activity with up to two existing entities as inputs and one output.
    Record { input_sel: u8, out_name: u8 },
    /// Raw graph batch: set/unset a property, maybe declare an index.
    Mutate { vertex_sel: u8, unset: bool, declare_index: bool },
    /// Snapshot + fresh WAL generation.
    Compact,
    /// Kill the process with the WAL torn at `frac/255` of its length,
    /// then recover and check the surviving prefix.
    CrashRestart { frac: u8 },
    /// Explicit durability barrier: flush any group-buffered batches.
    Flush,
    /// Clean shutdown (flush) + reopen: nothing may be lost.
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::AddAgent),
        4 => (any::<u8>(), any::<bool>())
            .prop_map(|(name, by_agent)| Op::AddArtifact { name, by_agent }),
        4 => (any::<u8>(), any::<u8>())
            .prop_map(|(input_sel, out_name)| Op::Record { input_sel, out_name }),
        2 => (any::<u8>(), any::<bool>(), any::<bool>())
            .prop_map(|(vertex_sel, unset, declare_index)| Op::Mutate {
                vertex_sel,
                unset,
                declare_index,
            }),
        1 => Just(Op::Compact),
        3 => any::<u8>().prop_map(|frac| Op::CrashRestart { frac }),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen),
    ]
}

/// The policy space under test: every combination of fsync on/off, group
/// windows 1–5 batches/flush, eager/lazy decode, and automatic compaction
/// after 128, 256 or 512 B of WAL, or never.
fn policy_strategy() -> impl Strategy<Value = DurabilityPolicy> {
    (any::<bool>(), any::<u8>(), any::<bool>(), any::<u8>()).prop_map(
        |(fsync, group, lazy, compact)| {
            let mut p =
                DurabilityPolicy::never_compact().with_group_batches(1 + u32::from(group) % 5);
            p.fsync_on_commit = fsync;
            if compact % 4 != 3 {
                p.compact_after_wal_bytes = 128 << (compact % 4);
            }
            if lazy {
                p = p.with_lazy_decode();
            }
            p
        },
    )
}

/// The interpreter. `gen_prefixes[i]` is a clone of the graph after `i`
/// committed batches of the current WAL generation — the oracle the crash
/// check compares against.
struct Harness {
    disk: MemIo,
    db: ProvDb,
    twin: ProvDb,
    /// The randomly drawn durability policy every (re)open uses.
    policy: DurabilityPolicy,
    generation: u64,
    /// Batches committed before the current generation started (= the seq of
    /// the manifest the generation's WAL replays on top of).
    base_seq: u64,
    /// Compactions the current database handle has reported so far.
    compactions_seen: u64,
    gen_prefixes: Vec<ProvGraph>,
    /// Versioned entity names known to exist (pruned after crashes).
    entities: Vec<String>,
    agents: u32,
}

fn open_disk(disk: &MemIo, policy: &DurabilityPolicy) -> ProvDb {
    ProvDb::open_with_io(Box::new(disk.clone()), policy.clone()).unwrap()
}

impl Harness {
    fn new(policy: DurabilityPolicy) -> Harness {
        let disk = MemIo::new();
        let db = open_disk(&disk, &policy);
        let empty = db.graph().clone();
        Harness {
            disk,
            db,
            twin: ProvDb::new(),
            policy,
            generation: 0,
            base_seq: 0,
            compactions_seen: 0,
            gen_prefixes: vec![empty],
            entities: Vec::new(),
            agents: 0,
        }
    }

    fn reopen(&self) -> ProvDb {
        open_disk(&self.disk, &self.policy)
    }

    /// Record a committed batch: twin must match exactly, oracle grows —
    /// or, when the batch crossed the compaction threshold, restarts at the
    /// new generation, whose base covers every batch so far.
    fn committed(&mut self) {
        assert_eq!(self.db.graph(), self.twin.graph(), "durable db diverged from in-memory twin");
        self.gen_prefixes.push(self.db.graph().clone());
        if self.sync_compactions() {
            assert_eq!(self.db.wal_bytes(), Some(0), "a compaction starts an empty log");
        }
    }

    /// Start a new oracle generation for every compaction the database ran
    /// since the last call; returns whether there was one.
    fn sync_compactions(&mut self) -> bool {
        let c = self.db.durability_counters().unwrap();
        assert!(c.runs_merged <= c.snapshots_written);
        let new = c.snapshots_written - self.compactions_seen;
        self.compactions_seen = c.snapshots_written;
        if new > 0 {
            self.generation += new;
            self.base_seq += self.gen_prefixes.len() as u64 - 1;
            self.gen_prefixes = vec![self.db.graph().clone()];
        }
        new > 0
    }

    fn pick_entity(&self, sel: u8) -> Option<&str> {
        if self.entities.is_empty() {
            None
        } else {
            Some(self.entities[sel as usize % self.entities.len()].as_str())
        }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::AddAgent => {
                let name = format!("agent-{}", self.agents);
                self.agents += 1;
                self.db.add_agent(&name).unwrap();
                self.twin.add_agent(&name).unwrap();
                self.committed();
            }
            Op::AddArtifact { name, by_agent } => {
                let base = format!("art-{}", name % 5);
                // Attribute to the most recent agent, if any exists.
                let agent = if by_agent && self.agents > 0 {
                    self.db.graph().vertex_by_name(&format!("agent-{}", self.agents - 1))
                } else {
                    None
                };
                let v = self.db.add_artifact_version(&base, agent).unwrap();
                self.twin.add_artifact_version(&base, agent).unwrap();
                self.entities.push(self.db.graph().vertex_name(v).unwrap().to_string());
                self.committed();
            }
            Op::Record { input_sel, out_name } => {
                let mut inputs = Vec::new();
                if let Some(n) = self.pick_entity(input_sel) {
                    inputs.push(self.db.entity(n).unwrap());
                }
                if let Some(n) = self.pick_entity(input_sel.wrapping_mul(7)) {
                    let v = self.db.entity(n).unwrap();
                    if !inputs.contains(&v) {
                        inputs.push(v);
                    }
                }
                let out_base = format!("out-{}", out_name % 4);
                let record = ActivityRecord {
                    command: format!("cmd-{}", out_name % 3),
                    agent: None,
                    inputs,
                    outputs: vec![OutputSpec::named(&out_base).with("score", out_name as i64)],
                    props: vec![("tool".into(), "prov".into())],
                };
                let out = self.db.record_activity(record.clone()).unwrap();
                self.twin.record_activity(record).unwrap();
                self.entities
                    .push(self.db.graph().vertex_name(out.outputs[0]).unwrap().to_string());
                self.committed();
            }
            Op::Mutate { vertex_sel, unset, declare_index } => {
                let Some(name) = self.pick_entity(vertex_sel).map(str::to_string) else {
                    return; // nothing to mutate yet
                };
                let apply = |db: &mut ProvDb| {
                    let v = db.entity(&name).unwrap();
                    db.try_with_graph_mut(|g| {
                        g.set_vprop(v, "grade", i64::from(vertex_sel));
                        if unset {
                            g.unset_vprop(v, "grade");
                        }
                        if declare_index {
                            g.create_vprop_index(VertexKind::Entity, "score");
                        }
                    })
                    .unwrap();
                };
                apply(&mut self.db);
                apply(&mut self.twin);
                self.committed();
            }
            Op::Compact => {
                assert!(self.db.compact().unwrap(), "durable db must compact");
                assert!(self.sync_compactions());
                assert_eq!(self.db.graph(), self.twin.graph());
            }
            Op::CrashRestart { frac } => self.crash_restart(frac),
            Op::Flush => {
                // A durability barrier: afterwards every accepted batch is on
                // disk. In-memory state never moves.
                let before = self.db.graph().clone();
                self.db.flush().unwrap();
                assert_eq!(self.db.graph(), &before, "flush mutated the graph");
                assert_eq!(self.db.graph(), self.twin.graph());
            }
            Op::Reopen => {
                // A clean shutdown flushes group-buffered batches first; only
                // then may "nothing is lost" be demanded of the reopen.
                self.db.flush().unwrap();
                let before = self.db.graph().clone();
                self.db = self.reopen();
                self.compactions_seen = 0;
                assert_eq!(self.db.graph(), &before, "clean reopen lost data");
                assert_eq!(self.db.graph(), self.twin.graph());
                assert_eq!(self.db.durability_counters().unwrap().recoveries, 1);
            }
        }
    }

    fn crash_restart(&mut self, frac: u8) {
        // Only *flushed* bytes are on disk: with a group window open, the
        // buffered tail of accepted batches dies with the process, and the
        // scan below naturally predicts the surviving prefix of the flushed
        // log. Unflushed batches were never acknowledged as durable.
        let wal_name = wal_file_name(self.generation);
        let bytes = self.disk.file(&wal_name).unwrap();
        let cut = bytes.len() * frac as usize / 255;
        let scan = wal::scan(&bytes, self.base_seq + 1).unwrap();
        let surviving = scan.commit_offsets.iter().filter(|&&o| o <= cut).count();

        // Pin a session on the pre-crash database; it must outlive the crash
        // untouched (sessions own their snapshot epoch).
        let session = self.pinned_session();
        let pinned_vertices = session.as_ref().map(|s| s.segment().vertices.clone());

        // The crash destroys the tail for good: the truncated fork IS the
        // disk from now on.
        self.disk = self.disk.fork_truncated(&wal_name, cut);
        self.db = self.reopen();
        self.compactions_seen = 0;

        let predicted = self.gen_prefixes[surviving].clone();
        let predicted = &predicted;
        self.db.graph().validate().unwrap();
        assert_eq!(self.db.graph(), predicted, "crash at byte {cut}: wrong surviving prefix");
        let snap = self.db.snapshot();
        assert_eq!(*snap, ProvIndex::build(self.db.graph()), "refresh != rebuild after crash");

        // Query differential: recovered answers == a fresh in-memory database
        // wrapping the predicted prefix.
        let reference = ProvDb::from_graph(predicted.clone());
        self.entities.retain(|n| reference.entity(n).is_some());
        for name in &self.entities {
            let a = self.db.entity(name).unwrap();
            let b = reference.entity(name).unwrap();
            assert_eq!(a, b, "entity {name} resolved differently after recovery");
            assert_eq!(
                self.db.ancestors_of(a),
                reference.ancestors_of(b),
                "lineage of {name} diverged after recovery"
            );
        }
        assert_eq!(
            self.db.find_by_prop(VertexKind::Entity, "score", &PropValue::from(0i64)),
            reference.find_by_prop(VertexKind::Entity, "score", &PropValue::from(0i64)),
        );

        // The pinned session still validates and answers from its own epoch.
        if let Some(s) = session {
            s.index().validate().unwrap();
            assert_eq!(s.segment().vertices, pinned_vertices.unwrap(), "pinned session changed");
        }

        // Rebase the oracle and the twin on the surviving state.
        self.gen_prefixes.truncate(surviving + 1);
        self.twin = ProvDb::from_graph(predicted.clone());
    }

    /// A PgSeg session over the first known entity, if the graph has one.
    fn pinned_session(&self) -> Option<PgSegSession> {
        let name = self.entities.first()?;
        let v = self.db.entity(name)?;
        self.db
            .segment_session(PgSegQuery::between(vec![v], vec![v]), &PgSegOptions::default())
            .ok()
    }

    /// End-of-program check: one last clean shutdown + reopen loses nothing.
    fn finish(mut self) {
        assert_eq!(self.db.graph(), self.twin.graph());
        self.db.flush().unwrap();
        let last = self.db.graph().clone();
        self.db = self.reopen();
        self.db.graph().validate().unwrap();
        assert_eq!(self.db.graph(), &last, "final reopen lost data");
        assert_eq!(*self.db.snapshot(), ProvIndex::build(self.db.graph()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_ingest_crash_restart_query_interleavings(
        policy in policy_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..48)
    ) {
        let mut h = Harness::new(policy);
        for op in &ops {
            h.apply(op);
        }
        h.finish();
    }
}
