//! ColumnSource differential: lazy decode must be observationally identical
//! to eager decode on randomized multi-run stores — full [`ProvGraph`]
//! equality and [`ProvIndex::build`] equivalence — while [`MemIo`]'s
//! byte-range accounting proves the lazy open never reads a single byte of
//! any run's property columns it claims to defer.
//!
//! Each case drives a random op stream through a journaling graph committed
//! batch-by-batch into a [`WalStorage`], compacting between 1 and 11 times
//! along the way (so the manifest lists several runs, whose overwrite
//! segments carry property writes on older ids, and past
//! [`prov_store::storage::MAX_RUNS`] a merge happens), then commits a random
//! WAL tail on top (so recovery replays prop ops *onto* a lazy base,
//! exercising the queue protocol). The frozen disk is then opened twice —
//! eager and lazy — and compared.

use proptest::prelude::*;
use prov_model::{EdgeKind, VertexKind};
use prov_store::storage::{column, run_file_name, ColumnSource, SnapshotDecode};
use prov_store::{DurabilityPolicy, MemIo, ProvGraph, ProvIndex, WalStorage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pick(g: &ProvGraph, rng: &mut StdRng, kind: VertexKind) -> Option<prov_model::VertexId> {
    let of_kind = g.vertices_of_kind(kind);
    if of_kind.is_empty() {
        None
    } else {
        Some(of_kind[rng.gen_range(0..of_kind.len())])
    }
}

/// One random journaled mutation; mirrors the op mix of `paranoid_ops` plus
/// edge properties and unsets so both property columns get populated.
fn mutate(g: &mut ProvGraph, rng: &mut StdRng, step: usize) {
    match rng.gen_range(0..10u32) {
        0 => {
            g.add_entity(&format!("e{step}"));
        }
        1 => {
            g.add_activity(&format!("a{step}"));
        }
        2 => {
            g.add_agent(&format!("u{step}"));
        }
        3 => {
            if let (Some(a), Some(e)) =
                (pick(g, rng, VertexKind::Activity), pick(g, rng, VertexKind::Entity))
            {
                g.add_edge(EdgeKind::Used, a, e).unwrap();
            }
        }
        4 => {
            if let (Some(e), Some(a)) =
                (pick(g, rng, VertexKind::Entity), pick(g, rng, VertexKind::Activity))
            {
                g.add_edge(EdgeKind::WasGeneratedBy, e, a).unwrap();
            }
        }
        5 => {
            if let Some(v) = pick(g, rng, VertexKind::Entity) {
                match rng.gen_range(0..4u32) {
                    0 => g.set_vprop(v, "tag", format!("t{step}")),
                    1 => g.set_vprop(v, "score", rng.gen_range(-9i64..9)),
                    2 => g.set_vprop(v, "ok", rng.gen_bool(0.5)),
                    _ => g.set_vprop(v, "w", f64::from(rng.gen_range(0u32..100)) / 7.0),
                }
            }
        }
        6 => {
            if let Some(v) = pick(g, rng, VertexKind::Entity) {
                g.unset_vprop(v, "tag");
            }
        }
        7 => {
            if let (Some(a), Some(e)) =
                (pick(g, rng, VertexKind::Activity), pick(g, rng, VertexKind::Entity))
            {
                if let Ok(edge) = g.add_edge(EdgeKind::Used, a, e) {
                    g.set_eprop(edge, "role", format!("r{}", step % 3));
                }
            }
        }
        8 => {
            g.create_vprop_index(VertexKind::Entity, "score");
        }
        _ => {
            if let Some(v) = pick(g, rng, VertexKind::Agent) {
                g.set_vprop(v, "team", format!("g{}", step % 2));
            }
        }
    }
}

/// `true` when the range-read `(off, len)` shares at least one byte with
/// `seg`.
fn overlaps(off: u64, len: u64, seg: &column::Segment) -> bool {
    off < seg.offset + u64::from(seg.len) && off + len > seg.offset
}

#[derive(Debug)]
struct Slice<'a>(&'a [u8]);

impl ColumnSource for Slice<'_> {
    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    fn read_range(&self, offset: u64, len: usize) -> prov_store::storage::IoResult<Vec<u8>> {
        let off = usize::try_from(offset).unwrap();
        Ok(self.0[off..off + len].to_vec())
    }
}

fn run_case(seed: u64, steps: usize, compactions: usize, tail_steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let disk = MemIo::new();
    let (mut storage, rec) =
        WalStorage::open(Box::new(disk.clone()), DurabilityPolicy::never_compact()).unwrap();
    let mut graph = rec.graph;
    graph.set_journaling(true);
    let mut sealed = 1; // the final compaction below

    // Random history, committed in small batches and sealed into runs at
    // `compactions` evenly spread points (twice in a row seals an empty run).
    for step in 0..steps {
        mutate(&mut graph, &mut rng, step);
        if rng.gen_bool(0.4) {
            let ops = graph.take_journal();
            storage.commit(&ops).unwrap();
        }
        let due = (0..compactions).filter(|i| (i + 1) * steps / compactions == step + 1).count();
        for _ in 0..due {
            let ops = graph.take_journal();
            storage.commit(&ops).unwrap();
            storage.compact(&graph).unwrap();
            sealed += 1;
        }
    }
    let ops = graph.take_journal();
    storage.commit(&ops).unwrap();
    storage.compact(&graph).unwrap();

    // A random WAL tail on top of the runs: recovery must replay these
    // (including prop ops) over the lazily-decoded base.
    for step in 0..tail_steps {
        mutate(&mut graph, &mut rng, steps + step);
        let ops = graph.take_journal();
        storage.commit(&ops).unwrap();
    }
    let runs = storage.manifest().runs.clone();
    let max_runs = prov_store::storage::MAX_RUNS;
    assert_eq!(runs.len(), sealed.min(max_runs));
    assert_eq!(storage.counters().runs_merged as usize, sealed.saturating_sub(max_runs));
    drop(storage);

    // Open the frozen disk twice: once eager, once lazy.
    let (_eager_store, eager) =
        WalStorage::open(Box::new(disk.fork()), DurabilityPolicy::never_compact()).unwrap();
    assert_eq!(eager.graph, graph, "eager recovery must reproduce the live graph");

    let lazy_disk = disk.fork(); // fresh range-read log
    let lazy_policy = DurabilityPolicy::never_compact().with_lazy_decode();
    let (lazy_store, lazy) = WalStorage::open(Box::new(lazy_disk.clone()), lazy_policy).unwrap();

    // The deferral is real: both property segments of every run pending,
    // zero loads. Segment ids are part of the run format: 3 = vprops,
    // 4 = eprops.
    let deferred: Vec<(String, column::Segment, column::Segment)> = runs
        .iter()
        .map(|run| {
            let name = run_file_name(run.id);
            let dir = column::read_directory(&Slice(&disk.file(&name).unwrap())).unwrap();
            (name, dir.segments[3], dir.segments[4])
        })
        .collect();
    let c = lazy_store.counters();
    assert_eq!(c.lazy_segments_deferred, 2 * runs.len() as u64);
    let deferred_bytes: u64 =
        deferred.iter().map(|(_, v, e)| u64::from(v.len) + u64::from(e.len)).sum();
    assert_eq!(c.lazy_deferred_bytes, deferred_bytes);
    assert_eq!(c.lazy_segment_loads, 0, "open must not touch deferred columns");
    assert_eq!(lazy_store.policy().decode, SnapshotDecode::Lazy);

    // Byte-range accounting: no read issued so far — directories,
    // structural and overwrite segments, WAL scan — may overlap any run's
    // deferred property columns.
    let pre_touch = lazy_disk.range_reads();
    assert!(!pre_touch.is_empty(), "lazy open must go through the column source");
    for (name, off, len) in &pre_touch {
        for (run, vprops, eprops) in &deferred {
            assert!(
                name != run || (!overlaps(*off, *len, vprops) && !overlaps(*off, *len, eprops)),
                "lazy open read deferred bytes: {name} @ {off}+{len}"
            );
        }
    }

    // Index equivalence needs no property bytes at all.
    assert_eq!(lazy.index, eager.index, "lazy and eager recovered indexes diverge");
    assert_eq!(lazy.index, ProvIndex::build(&eager.graph), "recovered != rebuilt");
    assert_eq!(lazy_store.counters().lazy_segment_loads, 0, "index build touched columns");

    // First real touch: full-graph equality materializes the overlay, loads
    // exactly every run's two deferred segments, and the range log shows
    // them.
    assert_eq!(lazy.graph, eager.graph, "lazy graph diverged from eager");
    lazy.graph.validate().unwrap();
    let c = lazy_store.counters();
    assert_eq!(c.lazy_segment_loads, 2 * runs.len() as u64);
    assert_eq!(c.lazy_bytes_loaded, c.lazy_deferred_bytes);
    let touched = lazy_disk.range_reads();
    for (run, vprops, eprops) in &deferred {
        for (seg, what) in [(vprops, "vprops"), (eprops, "eprops")] {
            assert!(
                touched.iter().any(|(n, off, len)| n == run && overlaps(*off, *len, seg))
                    || seg.len == 0,
                "materialization never read {run}'s {what} column"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lazy_decode_is_observationally_eager_and_never_reads_untouched_columns(
        seed in any::<u64>(),
        steps in 8usize..48,
        compactions in 1usize..12,
        tail_steps in 0usize..8,
    ) {
        run_case(seed, steps, compactions, tail_steps);
    }
}

/// The empty-graph edge: zero-length property segments defer trivially and
/// materialize without a single property byte read.
#[test]
fn empty_run_lazy_open_reads_no_property_bytes() {
    run_case(0, 0, 1, 0);
}

/// Enough compactions that the run list merges, over a longer history.
#[test]
fn merged_runs_defer_and_load_like_any_other() {
    run_case(7, 60, 11, 4);
}
