//! The PgSeg operator: query type and two-step evaluation driver.
//!
//! A PgSeg query is the 3-tuple `(Vsrc, Vdst, B)` of Sec. III-A. Evaluation
//! follows the paper's two-step scheme (Sec. III-B.1):
//!
//! 1. **induce** — build the induced subgraph from `Vsrc`/`Vdst` under the
//!    exclusion part of `B`;
//! 2. **adjust** — interactively refine the *cached* induced graph: apply
//!    further exclusions without re-inducing, or pull more vertices from the
//!    backing store via expansion specifications `Bx`.
//!
//! [`SimilarEvaluator`] selects which `L(SimProv)` algorithm answers the
//! similarity part — the benchmark figures 5(a)–(d) sweep exactly this choice.

use crate::alg::{similar_alg_bitset, similar_alg_cbm, AlgConfig};
use crate::boundary::Boundary;
use crate::cflr_baseline::{similar_cflr, GrammarForm};
use crate::induce::{expansion_vertices, induce, InduceResult};
use crate::naive::{similar_naive, NaiveBudget};
use crate::outcome::SimilarOutcome;
use crate::segment_graph::{Categories, SegmentGraph};
use crate::tst::{similar_tst, TstConfig};
use crate::view::MaskedGraph;
use prov_bitset::SetBackend;
use prov_model::{VertexId, VertexKind};
use prov_store::{ProvGraph, ProvIndex, StoreError, StoreResult};
use std::sync::Arc;

/// A PgSeg query `(Vsrc, Vdst, B)`.
#[derive(Debug, Clone, Default)]
pub struct PgSegQuery {
    /// Source entities the user believes are ancestors.
    pub vsrc: Vec<VertexId>,
    /// Destination entities of interest.
    pub vdst: Vec<VertexId>,
    /// Boundary criteria.
    pub boundary: Boundary,
}

impl PgSegQuery {
    /// Query between two entity sets with no boundary.
    pub fn between(vsrc: Vec<VertexId>, vdst: Vec<VertexId>) -> Self {
        PgSegQuery { vsrc, vdst, boundary: Boundary::none() }
    }

    /// Attach boundary criteria.
    pub fn with_boundary(mut self, boundary: Boundary) -> Self {
        self.boundary = boundary;
        self
    }

    /// Validate that the query vertices exist and are entities.
    pub fn validate(&self, graph: &ProvGraph) -> StoreResult<()> {
        for &v in self.vsrc.iter().chain(self.vdst.iter()) {
            let rec = graph.try_vertex(v)?;
            if rec.kind != VertexKind::Entity {
                return Err(StoreError::InvalidQuery(format!(
                    "PgSeg query vertices must be entities; {v} is {:?}",
                    rec.kind
                )));
            }
        }
        Ok(())
    }
}

/// Which algorithm evaluates `L(SimProv)`-reachability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarEvaluator {
    /// Naive Cypher-style enumerate-and-join (with a DNF budget).
    Naive,
    /// Generic CflrB on the Fig. 6 normal form with the given fact tables.
    CflrB(SetBackend),
    /// SimProvAlg with the given fact tables.
    SimProvAlg(SetBackend),
    /// SimProvTst (the default; also the only evaluator that induces the
    /// exact `VC2` vertex set).
    SimProvTst,
}

/// Tuning knobs for PgSeg evaluation.
///
/// `evaluator`, `symmetric_prune` and `naive_budget` are read only by
/// [`evaluate_similarity`], the Fig. 5 benchmark kernel. Segment induction
/// ([`pgseg`], [`PgSegSession`] — everything the serving path runs) always
/// uses SimProvTst, the one evaluator that yields the exact `VC2` set, and
/// takes only `early_stop` from here.
#[derive(Debug, Clone, Copy)]
pub struct PgSegOptions {
    /// Similarity evaluator for [`evaluate_similarity`] (benchmarks sweep
    /// this; `SimProvTst` by default). Not consulted by induction.
    pub evaluator: SimilarEvaluator,
    /// Early stopping. For SimProvTst — so for induction — a pure work
    /// bound: the kernel cuts its length axis at the farthest source, which is
    /// exact whatever the vertex births are, and answers identically with it
    /// off. SimProvAlg's version ([`evaluate_similarity`] only) is the paper's
    /// temporal rule and does assume births respect generation/usage order.
    pub early_stop: bool,
    /// Symmetric-pair pruning (SimProvAlg, so [`evaluate_similarity`] only).
    pub symmetric_prune: bool,
    /// Budget for the naive evaluator ([`evaluate_similarity`] only).
    pub naive_budget: NaiveBudget,
}

impl Default for PgSegOptions {
    fn default() -> Self {
        PgSegOptions {
            evaluator: SimilarEvaluator::SimProvTst,
            early_stop: true,
            symmetric_prune: true,
            naive_budget: NaiveBudget::default(),
        }
    }
}

/// Run just the similarity evaluation (`L(SimProv)`-reachability) with the
/// configured evaluator — the benchmark kernel of Fig. 5(a)–(d). Only
/// SimProvTst can fail (on a cyclic graph).
pub fn evaluate_similarity(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    opts: &PgSegOptions,
) -> StoreResult<SimilarOutcome> {
    Ok(match opts.evaluator {
        SimilarEvaluator::SimProvTst => {
            similar_tst(view, vsrc, vdst, &TstConfig { early_stop: opts.early_stop })?
        }
        SimilarEvaluator::Naive => similar_naive(view, vsrc, vdst, opts.naive_budget),
        SimilarEvaluator::CflrB(backend) => {
            similar_cflr(view, vsrc, vdst, GrammarForm::NormalFig6, backend)
        }
        SimilarEvaluator::SimProvAlg(backend) => {
            let cfg = AlgConfig {
                symmetric_prune: opts.symmetric_prune,
                early_stop: opts.early_stop,
                constraint: None,
            };
            match backend {
                SetBackend::Compressed => similar_alg_cbm(view, vsrc, vdst, &cfg),
                // Hash and Bit share the bitset implementation; the paper only
                // reports BitSet and CBM variants for SimProvAlg.
                _ => similar_alg_bitset(view, vsrc, vdst, &cfg),
            }
        }
    })
}

/// The borrow-based core of a PgSeg evaluation: the compiled mask plus the
/// cached induced segment. Both the `'static` owning [`PgSegSession`] and the
/// borrowed one-shot [`pgseg`] (the benches' entry point, which must not pay
/// for `Arc` bookkeeping) drive their evaluation through this state machine.
#[derive(Debug, Clone)]
struct SessionState {
    query: PgSegQuery,
    mask: Option<crate::boundary::Mask>,
    cached: InduceResult,
}

impl SessionState {
    /// Evaluate the induce step against borrowed storage.
    fn open(
        graph: &ProvGraph,
        index: &ProvIndex,
        query: PgSegQuery,
        opts: &PgSegOptions,
    ) -> StoreResult<SessionState> {
        query.validate(graph)?;
        let mask = if query.boundary.has_exclusions() {
            Some(query.boundary.compile(graph))
        } else {
            None
        };
        let view = MaskedGraph::new(index, mask.as_ref());
        let tst_cfg = TstConfig { early_stop: opts.early_stop };
        let mut cached = induce(graph, &view, &query.vsrc, &query.vdst, mask.as_ref(), &tst_cfg)?;
        // Apply the query's own expansion boundaries immediately.
        for exp in &query.boundary.expansions {
            apply_expansion(graph, &view, &mut cached, &exp.roots, exp.k, mask.as_ref());
        }
        Ok(SessionState { query, mask, cached })
    }

    fn expand(&mut self, graph: &ProvGraph, index: &ProvIndex, roots: &[VertexId], k: u32) {
        let view = MaskedGraph::new(index, self.mask.as_ref());
        apply_expansion(graph, &view, &mut self.cached, roots, k, self.mask.as_ref());
    }

    fn restrict(&mut self, graph: &ProvGraph, extra: &Boundary) {
        let mask = extra.compile(graph);
        let seg = &self.cached.segment;
        let members = seg
            .vertices
            .iter()
            .zip(seg.categories.iter())
            .filter(|(&v, _)| mask.vertex(v))
            .map(|(&v, &c)| (v, c))
            .collect();
        // Exclusions accumulate: fold the new criteria into the session
        // mask so later expansions cannot resurrect what was restricted.
        let combined = match self.mask.take() {
            None => mask,
            Some(mut prior) => {
                prior.intersect(&mask);
                prior
            }
        };
        self.cached.segment =
            SegmentGraph::assemble(graph, &self.query.vsrc, &self.query.vdst, members, |e| {
                combined.edge(e)
            });
        self.mask = Some(combined);
    }
}

/// A PgSeg evaluation session: owns its graph/index snapshot (`Arc`), the
/// compiled mask, and the cached induced segment so boundary adjustments are
/// interactive (the adjust step).
///
/// The session is `'static`: it can be stored in a registry (see the
/// `prov-api` service layer), returned from functions, and kept alive across
/// later mutations of the originating database — it pins the snapshot it was
/// opened against, matching the paper's "induce once, adjust repeatedly"
/// interaction model (Sec. III-B).
#[derive(Debug, Clone)]
pub struct PgSegSession {
    graph: Arc<ProvGraph>,
    index: Arc<ProvIndex>,
    state: SessionState,
}

impl PgSegSession {
    /// Evaluate the induce step and open a session for adjustments.
    pub fn open(
        graph: Arc<ProvGraph>,
        index: Arc<ProvIndex>,
        query: PgSegQuery,
        opts: &PgSegOptions,
    ) -> StoreResult<Self> {
        let state = SessionState::open(&graph, &index, query, opts)?;
        Ok(PgSegSession { graph, index, state })
    }

    /// Thin borrowed constructor: freeze-free when the caller already holds
    /// `Arc`s (clones the handles, never the data).
    pub fn open_shared(
        graph: &Arc<ProvGraph>,
        index: &Arc<ProvIndex>,
        query: PgSegQuery,
        opts: &PgSegOptions,
    ) -> StoreResult<Self> {
        PgSegSession::open(Arc::clone(graph), Arc::clone(index), query, opts)
    }

    /// The graph snapshot this session evaluates against.
    pub fn graph(&self) -> &ProvGraph {
        &self.graph
    }

    /// Shared handle to the pinned graph (identity comparisons, re-sharing).
    pub fn graph_shared(&self) -> &Arc<ProvGraph> {
        &self.graph
    }

    /// The frozen index this session evaluates against.
    pub fn index(&self) -> &ProvIndex {
        &self.index
    }

    /// The induced (and possibly adjusted) segment.
    pub fn segment(&self) -> &SegmentGraph {
        &self.state.cached.segment
    }

    /// Evaluator statistics of the similarity part.
    pub fn similar_outcome(&self) -> &SimilarOutcome {
        &self.state.cached.similar
    }

    /// The query this session answers.
    pub fn query(&self) -> &PgSegQuery {
        &self.state.query
    }

    /// Adjust step: grow the cached segment with an expansion `bx(Vx, k)`
    /// without re-running induction.
    pub fn expand(&mut self, roots: &[VertexId], k: u32) {
        self.state.expand(&self.graph, &self.index, roots, k);
    }

    /// Adjust step: filter the cached segment with additional exclusion
    /// criteria (applied linearly to the cached vertices/edges, Sec. III-B.3).
    pub fn restrict(&mut self, extra: &Boundary) {
        self.state.restrict(&self.graph, extra);
    }
}

fn apply_expansion(
    graph: &ProvGraph,
    view: &MaskedGraph<'_>,
    cached: &mut InduceResult,
    roots: &[VertexId],
    k: u32,
    mask: Option<&crate::boundary::Mask>,
) {
    let seg = &cached.segment;
    let mut members: Vec<(VertexId, Categories)> =
        seg.vertices.iter().copied().zip(seg.categories.iter().copied()).collect();
    for v in expansion_vertices(view, roots, k) {
        match seg.vertices.binary_search(&v) {
            Ok(i) => members[i].1 = members[i].1.union(Categories::EXPANDED),
            Err(_) => members.push((v, Categories::EXPANDED)),
        }
    }
    let edge_ok = |e| mask.is_none_or(|m| m.edge(e));
    cached.segment = SegmentGraph::assemble(graph, &seg.vsrc, &seg.vdst, members, edge_ok);
}

/// One-shot convenience: evaluate a PgSeg query end to end against borrowed
/// storage. This is the benches' hot entry point — it shares the evaluation
/// core with [`PgSegSession`] but never touches an `Arc`.
pub fn pgseg(
    graph: &ProvGraph,
    index: &ProvIndex,
    query: PgSegQuery,
    opts: &PgSegOptions,
) -> StoreResult<SegmentGraph> {
    Ok(SessionState::open(graph, index, query, opts)?.cached.segment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::Boundary;
    use prov_model::EdgeKind;

    fn chain() -> (ProvGraph, ProvIndex, Vec<VertexId>) {
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t1 = g.add_activity("t1");
        let m = g.add_entity("m");
        let t2 = g.add_activity("t2");
        let w = g.add_entity("w");
        let alice = g.add_agent("alice");
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, m, t1).unwrap();
        g.add_edge(EdgeKind::Used, t2, m).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w, t2).unwrap();
        g.add_edge(EdgeKind::WasAssociatedWith, t2, alice).unwrap();
        let idx = ProvIndex::build(&g);
        (g, idx, vec![d, t1, m, t2, w, alice])
    }

    #[test]
    fn validation_rejects_non_entities() {
        let (g, _, ids) = chain();
        // A non-entity query vertex is a malformed *query*, not a store fault.
        let q = PgSegQuery::between(vec![ids[1]], vec![ids[4]]);
        assert!(matches!(q.validate(&g), Err(StoreError::InvalidQuery(_))));
        // An out-of-range id is an unknown-vertex store error.
        let q = PgSegQuery::between(vec![ids[0]], vec![VertexId::new(99)]);
        assert!(matches!(q.validate(&g), Err(StoreError::UnknownVertex(_))));
        let q = PgSegQuery::between(vec![ids[0]], vec![ids[4]]);
        assert!(q.validate(&g).is_ok());
    }

    #[test]
    fn one_shot_pgseg_produces_connected_segment() {
        let (g, idx, ids) = chain();
        let seg = pgseg(
            &g,
            &idx,
            PgSegQuery::between(vec![ids[0]], vec![ids[4]]),
            &PgSegOptions::default(),
        )
        .unwrap();
        assert!(seg.contains(ids[1]) && seg.contains(ids[3]));
        assert!(seg.contains(ids[5]), "agent included via VC4");
        assert!(seg.edge_count() >= 4);
    }

    #[test]
    fn cyclic_graph_is_an_error_from_both_entry_points() {
        // `add_edge` type-checks each edge and nothing else, so it can close
        // e0 -G-> a1 -U-> e2 -G-> a3 -U-> e0.
        let mut g = ProvGraph::new();
        let e0 = g.add_entity("e0");
        let a1 = g.add_activity("a1");
        let e2 = g.add_entity("e2");
        let a3 = g.add_activity("a3");
        g.add_edge(EdgeKind::WasGeneratedBy, e0, a1).unwrap();
        g.add_edge(EdgeKind::Used, a1, e2).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, e2, a3).unwrap();
        g.add_edge(EdgeKind::Used, a3, e0).unwrap();
        let idx = ProvIndex::build(&g);
        let query = PgSegQuery::between(vec![e0], vec![e2]);
        for early_stop in [true, false] {
            let opts = PgSegOptions { early_stop, ..PgSegOptions::default() };
            let oneshot = pgseg(&g, &idx, query.clone(), &opts);
            assert!(matches!(oneshot, Err(StoreError::CycleDetected { .. })), "{oneshot:?}");
        }
        let session =
            PgSegSession::open(Arc::new(g), Arc::new(idx), query, &PgSegOptions::default());
        assert!(matches!(session, Err(StoreError::CycleDetected { .. })), "{session:?}");
    }

    #[test]
    fn all_evaluators_available_through_options() {
        let (g, idx, ids) = chain();
        let view = MaskedGraph::unmasked(&idx);
        let mut answers = Vec::new();
        for evaluator in [
            SimilarEvaluator::Naive,
            SimilarEvaluator::CflrB(SetBackend::Bit),
            SimilarEvaluator::CflrB(SetBackend::Compressed),
            SimilarEvaluator::SimProvAlg(SetBackend::Bit),
            SimilarEvaluator::SimProvAlg(SetBackend::Compressed),
            SimilarEvaluator::SimProvTst,
        ] {
            let opts = PgSegOptions { evaluator, ..PgSegOptions::default() };
            answers.push(evaluate_similarity(&view, &[ids[0]], &[ids[4]], &opts).unwrap().answer);
        }
        for pair in answers.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
        let _ = g;
    }

    #[test]
    fn session_expand_adds_vertices() {
        let (g, idx, ids) = chain();
        // Restrict query to the last hop: src=m, dst=w.
        let mut session = PgSegSession::open(
            Arc::new(g),
            Arc::new(idx),
            PgSegQuery::between(vec![ids[2]], vec![ids[4]]),
            &PgSegOptions::default(),
        )
        .unwrap();
        assert!(!session.segment().contains(ids[0]), "d beyond the segment");
        session.expand(&[ids[2]], 1);
        assert!(session.segment().contains(ids[0]), "expansion pulls d in");
        assert!(session.segment().category(ids[0]).unwrap().contains(Categories::EXPANDED));
    }

    #[test]
    fn session_restrict_filters_cached_segment() {
        let (g, idx, ids) = chain();
        let mut session = PgSegSession::open(
            Arc::new(g),
            Arc::new(idx),
            PgSegQuery::between(vec![ids[0]], vec![ids[4]]),
            &PgSegOptions::default(),
        )
        .unwrap();
        assert!(session.segment().contains(ids[5]));
        session.restrict(
            &Boundary::none()
                .with_vertex_pred(crate::boundary::VertexPred::ExcludeKind(VertexKind::Agent)),
        );
        assert!(!session.segment().contains(ids[5]));
        // Associated edge disappears with its endpoint.
        for &e in &session.segment().edges {
            assert_ne!(session.graph().edge(e).kind, EdgeKind::WasAssociatedWith);
        }
    }

    #[test]
    fn expand_after_restrict_respects_accumulated_exclusions() {
        let (g, idx, ids) = chain();
        // Session over the last hop only; alice rides along via VC4.
        let mut session = PgSegSession::open(
            Arc::new(g),
            Arc::new(idx),
            PgSegQuery::between(vec![ids[2]], vec![ids[4]]),
            &PgSegOptions::default(),
        )
        .unwrap();
        session.restrict(&Boundary::none().without_edge_kinds(&[EdgeKind::WasAssociatedWith]));
        assert!(session
            .segment()
            .edges
            .iter()
            .all(|&e| { session.graph().edge(e).kind != EdgeKind::WasAssociatedWith }));
        // A later expansion must not resurrect the excluded edges.
        session.expand(&[ids[2]], 1);
        assert!(session.segment().contains(ids[0]), "expansion still grows the segment");
        assert!(
            session
                .segment()
                .edges
                .iter()
                .all(|&e| { session.graph().edge(e).kind != EdgeKind::WasAssociatedWith }),
            "restricted edges reappeared after expand"
        );
    }

    #[test]
    fn query_boundary_expansions_apply_at_open() {
        let (g, idx, ids) = chain();
        let q = PgSegQuery::between(vec![ids[2]], vec![ids[4]])
            .with_boundary(Boundary::none().expand(vec![ids[2]], 1));
        let session =
            PgSegSession::open(Arc::new(g), Arc::new(idx), q, &PgSegOptions::default()).unwrap();
        assert!(session.segment().contains(ids[0]));
    }

    #[test]
    fn session_is_static_and_outlives_its_builder_scope() {
        // The compile-time point of the ownership refactor: a session built
        // in an inner scope moves out and stays usable (registry storage).
        fn build(ids: &[VertexId], g: ProvGraph, idx: ProvIndex) -> PgSegSession {
            PgSegSession::open_shared(
                &Arc::new(g),
                &Arc::new(idx),
                PgSegQuery::between(vec![ids[0]], vec![ids[4]]),
                &PgSegOptions::default(),
            )
            .unwrap()
        }
        let (g, idx, ids) = chain();
        let mut session: PgSegSession = build(&ids, g, idx);
        assert!(session.segment().contains(ids[3]));
        session.expand(&[ids[0]], 1);
        assert!(session.segment().vertex_count() >= 5);
    }
}
