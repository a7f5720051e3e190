//! The one traversal engine behind every compiled read path.
//!
//! Evaluation state is a sorted, duplicate-free row set of vertex ids.
//! `Traverse` steps run a multi-source BFS straight over the snapshot's CSR
//! slices with an epoch-stamped scratch (`EvalScratch`, the only one in
//! the workspace), one level at a time on the caller's thread.
//!
//! **A traverse pays for its closure, once.** A `Filter` step directly
//! after a `Traverse` is tested as each row is emitted, so no second pass
//! runs over the closure. The emitted rows leave in id order through
//! `sort_ids`: dense ones (spanning at most as many 64-bit words as there
//! are rows) are scattered into a per-thread bitmap and swept back out,
//! sparse ones are sorted. [`QueryStats`] reads as if the steps ran apart:
//! `steps` counts both, and `rows_scanned` adds every row the filter
//! tested.
//!
//! **Bounded replay.** Every evaluation runs against a [`DeltaCursor`]
//! watermark. Because the store is append-only and every CSR row keeps its
//! edge ids strictly ascending, filtering adjacency entries to
//! `edge_id < watermark.edges` (and start rows to
//! `id < watermark.vertices`) reproduces — exactly — the evaluation this
//! engine would have produced over the snapshot as it stood at that
//! watermark, even when the snapshot handed in has since grown. That is
//! what makes wire cursors structurally stable under concurrent ingest;
//! see [`crate::query::cursor`] for the invariants (property *filters* read
//! the live store and need a pinned session for byte-stability, since
//! property writes do not move the cursor).

use crate::csr::{Csr, ProvIndex};
use crate::error::{StoreError, StoreResult};
use crate::graph::{rank_u32, DeltaCursor, ProvGraph};
use crate::query::ir::{Project, PropFilter, StartSet, Step, Traverse};
use crate::query::plan::Plan;
use prov_model::VertexId;
use std::cell::RefCell;

/// Per-evaluation observability counters, surfaced on the wire as
/// `QueryActivity`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Pipeline steps evaluated.
    pub steps: u32,
    /// Rows scanned: frontier vertices expanded by traverses plus rows
    /// tested by filters.
    pub rows_scanned: u64,
    /// Largest BFS frontier across all traverse steps.
    pub frontier_peak: u32,
}

/// Result of evaluating a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Projected rows, ascending by id (empty under [`Project::Count`]).
    pub rows: Vec<VertexId>,
    /// Row count before projection.
    pub count: u64,
    /// Observability counters.
    pub stats: QueryStats,
}

/// Reusable visited state: `u32` epoch stamps over the dense vertex space,
/// owned per thread (`thread_local`), so concurrent reader threads never
/// share or lock it.
///
/// Invariants (see DESIGN.md §6):
/// * `stamps[v] == epoch` ⇔ `v` was visited by the *current* traversal;
/// * `begin` bumps the epoch, so clearing is `O(1)`;
/// * on epoch wraparound (`u32::MAX` traversals on one thread) the stamp
///   array resets to zero and the epoch restarts at 1, so a stamp left by
///   traversal `k` can never collide with epoch `k + 2³²`;
/// * the stamp array only ever grows (to the largest snapshot seen by the
///   thread), so a scratch outlives any one database.
#[derive(Debug, Default)]
struct EvalScratch {
    stamps: Vec<u32>,
    epoch: u32,
    frontier: Vec<VertexId>,
    next: Vec<VertexId>,
    /// One bit per vertex id, all-zero between calls: [`sort_ids`]'s
    /// bitmap.
    bits: Vec<u64>,
}

impl EvalScratch {
    /// Start a traversal over `n` vertices: grow the pool, bump the epoch.
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.bits.resize(n.div_ceil(64), 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }

    /// Mark `v` visited; true when it was not yet visited this traversal.
    #[inline]
    fn mark(&mut self, v: VertexId) -> bool {
        let slot = &mut self.stamps[v.index()];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// Run `f` on this thread's scratch; a re-entrant call falls back to a
/// fresh scratch instead of panicking on the borrow.
fn with_scratch<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut EvalScratch::default()),
    })
}

/// Evaluate `plan` over the full extent of `index`.
///
/// `graph` serves property/name predicates (the snapshot carries neither);
/// it must be the graph `index` was frozen from.
pub fn evaluate(graph: &ProvGraph, index: &ProvIndex, plan: &Plan) -> StoreResult<QueryOutput> {
    evaluate_at(graph, index, plan, index.cursor(), 1)
}

/// [`evaluate`] against an explicit snapshot watermark (bounded replay —
/// the cursor resumption path).
///
/// `_chunks` is ignored: evaluation always runs on the caller's thread.
/// The argument survives only because `benchmark/src/harness.rs:691`
/// passes `1`; ROADMAP items 6(d)/7(c) drop it with that crate's next
/// change.
pub fn evaluate_at(
    graph: &ProvGraph,
    index: &ProvIndex,
    plan: &Plan,
    watermark: DeltaCursor,
    _chunks: usize,
) -> StoreResult<QueryOutput> {
    let snap = index.cursor();
    if watermark.vertices > snap.vertices || watermark.edges > snap.edges {
        return Err(StoreError::InvalidQuery(format!(
            "stale cursor: watermark ({}v/{}e) is ahead of the snapshot ({}v/{}e)",
            watermark.vertices, watermark.edges, snap.vertices, snap.edges
        )));
    }
    let pipeline = plan.pipeline();
    let mut stats = QueryStats::default();
    let vlimit = watermark.vertices as usize;
    let mut rows: Vec<VertexId> = match &pipeline.start {
        StartSet::Ids(ids) => ids.iter().copied().filter(|v| v.index() < vlimit).collect(),
        StartSet::Kind(kind) => {
            // Members are in creation order = ascending id, so the prefix
            // below the watermark is a take_while.
            index.kind_members(*kind).iter().copied().take_while(|v| v.index() < vlimit).collect()
        }
        StartSet::All => (0..watermark.vertices).map(VertexId::new).collect(),
    };
    let mut steps = pipeline.steps.iter();
    while let Some(step) = steps.next() {
        stats.steps += 1;
        match step {
            Step::Traverse(t) => {
                // A filter directly after the traverse runs at emit time.
                let filter = match steps.as_slice().first() {
                    Some(Step::Filter(f)) => {
                        steps.next();
                        stats.steps += 1;
                        Some(f)
                    }
                    _ => None,
                };
                let edges = watermark.edges;
                rows = traverse(graph, index, t, filter, &rows, edges, &mut stats);
            }
            Step::Filter(f) => {
                stats.rows_scanned += rows.len() as u64;
                rows.retain(|&v| filter_matches(graph, index, f, v));
            }
            Step::Limit(n) => rows.truncate(*n),
        }
    }
    let count = rows.len() as u64;
    let rows = match pipeline.project {
        Project::Ids => rows,
        Project::Count => Vec::new(),
    };
    Ok(QueryOutput { rows, count, stats })
}

/// Does `v` satisfy the filter? Kind comes from the snapshot, name and
/// properties from the mutable store (names are write-once; properties are
/// the one live input — see the cursor invariants).
fn filter_matches(graph: &ProvGraph, index: &ProvIndex, f: &PropFilter, v: VertexId) -> bool {
    if let Some(kind) = f.kind {
        if index.kind(v) != kind {
            return false;
        }
    }
    if let Some(name) = &f.name {
        if graph.vertex_name(v) != Some(name.as_str()) {
            return false;
        }
    }
    if let Some(ids) = &f.ids {
        // Normalized (sorted) by `Plan::compile`.
        if ids.binary_search(&v).is_err() {
            return false;
        }
    }
    f.props.iter().all(|(key, want)| graph.vprop(v, key) == Some(want))
}

/// Multi-source BFS from the sorted row set `sources`, emitting vertices at
/// depth `min_hops..=max_hops` that pass `filter` (the `Filter` step right
/// after this traverse, fused: a source emitted under `min_hops == 0` is
/// tested too, and `rows_scanned` counts every tested row, exactly as a
/// separate pass would). Adjacency entries with `edge_id >= edge_limit`
/// are invisible (bounded replay); pass the watermark's edge count —
/// entries past it never existed at the watermark, and entries below it
/// always target watermark-resident vertices, because an edge's endpoints
/// precede it in the append-only log.
///
/// The rows come out in BFS order and leave through [`sort_ids`].
fn traverse(
    graph: &ProvGraph,
    index: &ProvIndex,
    t: &Traverse,
    filter: Option<&PropFilter>,
    sources: &[VertexId],
    edge_limit: u32,
    stats: &mut QueryStats,
) -> Vec<VertexId> {
    if t.min_hops > t.max_hops {
        return Vec::new();
    }
    let keep = |v: VertexId| filter.is_none_or(|f| filter_matches(graph, index, f, v));
    // Rows reaching the emit test: what the filter scans.
    let mut tested = 0u64;
    let mut out: Vec<VertexId> = Vec::new();
    if t.min_hops == 0 {
        tested += sources.len() as u64;
        out.extend(sources.iter().copied().filter(|&v| keep(v)));
    }
    if t.max_hops > 0 && !sources.is_empty() {
        let csrs: Vec<&Csr> = t.edges.iter().map(|&(kind, dir)| index.csr(kind, dir)).collect();
        with_scratch(|scratch| {
            scratch.begin(index.vertex_count());
            let mut frontier = std::mem::take(&mut scratch.frontier);
            let mut next = std::mem::take(&mut scratch.next);
            frontier.clear();
            next.clear();
            for &s in sources {
                scratch.mark(s);
                frontier.push(s);
            }
            let mut depth = 0u32;
            while !frontier.is_empty() && depth < t.max_hops {
                depth += 1;
                stats.rows_scanned += frontier.len() as u64;
                stats.frontier_peak = stats.frontier_peak.max(rank_u32(frontier.len()));
                let emit = depth >= t.min_hops;
                for &v in &frontier {
                    for csr in &csrs {
                        for (w, eid) in csr.entries(v) {
                            if eid.raw() < edge_limit && scratch.mark(w) {
                                if emit {
                                    tested += 1;
                                    if keep(w) {
                                        out.push(w);
                                    }
                                }
                                next.push(w);
                            }
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
                next.clear();
            }
            scratch.frontier = frontier;
            scratch.next = next;
            sort_ids(&mut scratch.bits, &mut out);
        });
    }
    if filter.is_some() {
        stats.rows_scanned += tested;
    }
    out
}

/// Sort a duplicate-free row set ascending, at the cost the rows allow.
///
/// When the 64-bit words spanning the rows' ids number at most the rows
/// (dense), each row sets its bit in `bits` and one sweep over that span
/// writes them back in order, zeroing every word as it reads it, so `bits`
/// is all-zero again on return: `O(ℓ + span/64)`. Sparse rows keep
/// `sort_unstable`, `O(ℓ log ℓ)`. The rule reads only the rows; `bits`
/// must cover every id (`EvalScratch::begin`).
fn sort_ids(bits: &mut [u64], rows: &mut [VertexId]) {
    if rows.len() < 2 {
        return;
    }
    let (lo, hi) =
        rows.iter().fold((u32::MAX, 0), |(lo, hi), v| (lo.min(v.raw()), hi.max(v.raw())));
    let (first, last) = (lo as usize / 64, hi as usize / 64);
    if last - first + 1 > rows.len() {
        rows.sort_unstable();
        return;
    }
    for v in rows.iter() {
        bits[v.index() / 64] |= 1 << (v.raw() % 64);
    }
    let mut at = 0;
    for (word, base) in bits[first..=last].iter_mut().zip((lo & !63..).step_by(64)) {
        let mut set = std::mem::take(word);
        while set != 0 {
            rows[at] = VertexId::new(base + set.trailing_zeros());
            set &= set - 1;
            at += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Direction;
    use crate::graph::ProvGraph;
    use crate::query::ir::Pipeline;
    use prov_model::{EdgeKind, VertexKind};

    /// d → t1 → w1 → t2 → w2 plus a side input s → t2 (the lineage test
    /// chain), with properties on the entities.
    fn chain() -> (ProvGraph, ProvIndex, [VertexId; 6]) {
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t1 = g.add_activity("t1");
        let w1 = g.add_entity("w1");
        let t2 = g.add_activity("t2");
        let w2 = g.add_entity("w2");
        let s = g.add_entity("s");
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w1, t1).unwrap();
        g.add_edge(EdgeKind::Used, t2, w1).unwrap();
        g.add_edge(EdgeKind::Used, t2, s).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w2, t2).unwrap();
        g.set_vprop(d, "stage", "raw");
        g.set_vprop(w1, "stage", "weights");
        g.set_vprop(w2, "stage", "weights");
        let idx = ProvIndex::build(&g);
        (g, idx, [d, t1, w1, t2, w2, s])
    }

    const ANCESTRY_UP: [(EdgeKind, Direction); 2] =
        [(EdgeKind::WasGeneratedBy, Direction::Out), (EdgeKind::Used, Direction::Out)];

    fn run(g: &ProvGraph, idx: &ProvIndex, p: Pipeline) -> QueryOutput {
        evaluate(g, idx, &Plan::compile(p).unwrap()).unwrap()
    }

    #[test]
    fn traverse_emits_depth_window() {
        let (g, idx, [d, t1, w1, t2, w2, s]) = chain();
        let _ = (d, t1);
        // Full ancestry closure of w2, start excluded.
        let closure =
            run(&g, &idx, Pipeline::from_ids(vec![w2]).traverse(&ANCESTRY_UP, 1, u32::MAX));
        assert_eq!(closure.rows, vec![d, t1, w1, t2, s]);
        // Ring at exactly 2 hops.
        let ring = run(&g, &idx, Pipeline::from_ids(vec![w2]).traverse(&ANCESTRY_UP, 2, 2));
        assert_eq!(ring.rows, vec![w1, s]);
        // min 0 keeps the source.
        let with_self = run(&g, &idx, Pipeline::from_ids(vec![w2]).traverse(&ANCESTRY_UP, 0, 1));
        assert_eq!(with_self.rows, vec![t2, w2]);
        // min > max is empty, not an error (the Within(0) lowering).
        let empty = run(&g, &idx, Pipeline::from_ids(vec![w2]).traverse(&ANCESTRY_UP, 1, 0));
        assert!(empty.rows.is_empty());
    }

    #[test]
    fn filter_limit_count_project() {
        let (g, idx, [d, _, w1, _, w2, s]) = chain();
        let _ = s;
        let weights = run(
            &g,
            &idx,
            Pipeline::from_kind(VertexKind::Entity).filter(PropFilter::prop("stage", "weights")),
        );
        assert_eq!(weights.rows, vec![w1, w2]);
        let limited = run(&g, &idx, Pipeline::from_kind(VertexKind::Entity).limit(2));
        assert_eq!(limited.rows, vec![d, w1]);
        let counted = run(&g, &idx, Pipeline::from_kind(VertexKind::Entity).count());
        assert!(counted.rows.is_empty());
        assert_eq!(counted.count, 4);
    }

    #[test]
    fn out_of_range_start_ids_are_dropped() {
        let (g, idx, _) = chain();
        let out = run(
            &g,
            &idx,
            Pipeline::from_ids(vec![VertexId::new(9999)]).traverse(&ANCESTRY_UP, 1, 3),
        );
        assert!(out.rows.is_empty());
    }

    #[test]
    fn epoch_reuse_across_many_calls_is_clean() {
        let (g, idx, [d, ..]) = chain();
        let descend: [(EdgeKind, Direction); 2] =
            [(EdgeKind::Used, Direction::In), (EdgeKind::WasGeneratedBy, Direction::In)];
        let plan =
            Plan::compile(Pipeline::from_ids(vec![d]).traverse(&descend, 1, u32::MAX)).unwrap();
        let expect = evaluate(&g, &idx, &plan).unwrap().rows;
        assert_eq!(expect.len(), 4);
        // Hundreds of traversals on one thread reuse the same stamps; every
        // answer must be identical (a stale stamp would drop vertices).
        for _ in 0..500 {
            assert_eq!(evaluate(&g, &idx, &plan).unwrap().rows, expect);
        }
    }

    #[test]
    fn scratch_wraparound_resets_stamps() {
        let mut s =
            EvalScratch { stamps: vec![7, u32::MAX], epoch: u32::MAX, ..Default::default() };
        s.begin(2);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.stamps, vec![0, 0], "wraparound must clear stale stamps");
        assert!(s.mark(VertexId::new(0)));
        assert!(!s.mark(VertexId::new(0)));
    }

    #[test]
    fn bounded_replay_reproduces_the_old_snapshot() {
        let (mut g, old_idx, [d, ..]) = chain();
        let old_cursor = g.cursor();
        // Grow the graph: a new consumer of d.
        let t3 = g.add_activity("t3");
        let w3 = g.add_entity("w3");
        g.add_edge(EdgeKind::Used, t3, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w3, t3).unwrap();
        let new_idx = ProvIndex::build(&g);
        let descend: [(EdgeKind, Direction); 2] =
            [(EdgeKind::Used, Direction::In), (EdgeKind::WasGeneratedBy, Direction::In)];
        let plan =
            Plan::compile(Pipeline::from_ids(vec![d]).traverse(&descend, 1, u32::MAX)).unwrap();
        let over_old = evaluate(&g, &old_idx, &plan).unwrap();
        let replayed = evaluate_at(&g, &new_idx, &plan, old_cursor, 1).unwrap();
        assert_eq!(replayed.rows, over_old.rows, "replay must reproduce the old snapshot");
        let live = evaluate(&g, &new_idx, &plan).unwrap();
        assert!(live.rows.contains(&t3) && live.rows.contains(&w3));
        assert!(!replayed.rows.contains(&t3));
    }

    #[test]
    fn watermark_ahead_of_snapshot_is_rejected() {
        let (g, idx, _) = chain();
        let plan = Plan::compile(Pipeline::from_all()).unwrap();
        let ahead = DeltaCursor { vertices: idx.cursor().vertices + 1, edges: 0 };
        let err = evaluate_at(&g, &idx, &plan, ahead, 1).unwrap_err();
        assert!(err.to_string().contains("stale cursor"), "got {err}");
    }

    #[test]
    fn stats_count_steps_rows_and_frontiers() {
        let (g, idx, [d, _, w1, _, w2, s]) = chain();
        let out = run(
            &g,
            &idx,
            Pipeline::from_ids(vec![w2])
                .traverse(&ANCESTRY_UP, 1, u32::MAX)
                .filter(PropFilter::of_kind(VertexKind::Entity)),
        );
        assert_eq!(out.rows, vec![d, w1, s]);
        // BFS levels {w2}, {t2}, {w1, s}, {t1}, {d} expand 6 frontier rows;
        // the filter tests the 5 traversed rows.
        assert_eq!(out.stats, QueryStats { steps: 2, rows_scanned: 6 + 5, frontier_peak: 2 });
    }

    #[test]
    fn sort_ids_leaves_the_bitmap_zero_between_calls() {
        // 1,000 entities; e_i derives from e_(i-1) for i < 200, and e999
        // from e300 and e700.
        let mut g = ProvGraph::new();
        let e: Vec<VertexId> = (0..1000).map(|i| g.add_entity(&format!("e{i}"))).collect();
        for i in 1..200 {
            g.add_edge(EdgeKind::WasDerivedFrom, e[i], e[i - 1]).unwrap();
        }
        g.add_edge(EdgeKind::WasDerivedFrom, e[999], e[300]).unwrap();
        g.add_edge(EdgeKind::WasDerivedFrom, e[999], e[700]).unwrap();
        let idx = ProvIndex::build(&g);
        let closure = |start: VertexId, dir| {
            Plan::compile(Pipeline::from_ids(vec![start]).traverse(
                &[(EdgeKind::WasDerivedFrom, dir)],
                1,
                u32::MAX,
            ))
            .unwrap()
        };
        let plans = [
            // Dense: 199 rows over 4 words.
            closure(e[0], Direction::In),
            // Sparse, at another id range: 2 rows over 7 words.
            closure(e[999], Direction::Out),
            // Dense again, inside the first answer's words: a stale bit
            // would add a row.
            closure(e[100], Direction::In),
        ];
        let fresh: Vec<Vec<VertexId>> = std::thread::scope(|s| {
            plans
                .iter()
                .map(|plan| s.spawn(|| evaluate(&g, &idx, plan).unwrap().rows).join().unwrap())
                .collect()
        });
        assert_eq!(fresh[0], e[1..200]);
        assert_eq!(fresh[1], vec![e[300], e[700]]);
        assert_eq!(fresh[2], e[101..200]);
        for (plan, expect) in plans.iter().zip(&fresh) {
            assert_eq!(&evaluate(&g, &idx, plan).unwrap().rows, expect);
            with_scratch(|scratch| assert!(scratch.bits.iter().all(|&w| w == 0)));
        }
    }

    #[test]
    fn stats_of_a_property_filter_after_a_traverse() {
        let (g, idx, [d, _, w1, _, w2, _]) = chain();
        let out = run(
            &g,
            &idx,
            Pipeline::from_ids(vec![w2])
                .traverse(&ANCESTRY_UP, 0, u32::MAX)
                .filter(PropFilter::prop("stage", "weights")),
        );
        assert_eq!(out.rows, vec![w1, w2]);
        // The filter tests the source too (`min_hops == 0`): 6 rows.
        assert_eq!(out.stats, QueryStats { steps: 2, rows_scanned: 6 + 6, frontier_peak: 2 });
        let raw = run(
            &g,
            &idx,
            Pipeline::from_ids(vec![d])
                .traverse(&ANCESTRY_UP, 0, 0)
                .filter(PropFilter::prop("stage", "raw"))
                .limit(1),
        );
        assert_eq!(raw.rows, vec![d]);
        assert_eq!(raw.stats, QueryStats { steps: 3, rows_scanned: 1, frontier_peak: 0 });
    }
}
