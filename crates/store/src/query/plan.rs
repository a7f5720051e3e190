//! Pipeline validation, normalization, and the lowering constructors.
//!
//! [`Plan::compile`] is the single gate between IR-as-data and the
//! evaluator: it rejects pipelines the engine cannot answer faithfully and
//! normalizes the rest so that semantically equal pipelines evaluate
//! identically (selector order, duplicate start ids, and duplicate filter
//! ids never influence the answer).
//!
//! Lowering table (DESIGN.md §9; the store-shaped targets keep their
//! original as a differential reference, lineage is checked against
//! `prov_core::lineage_reference` and a definitional oracle in test code):
//!
//! | legacy path                      | pipeline                                       |
//! |----------------------------------|------------------------------------------------|
//! | `lineage` / `lineage_within`     | `Ids[e] → Traverse{ancestry, 1..bound}`        |
//! | `k_hop`                          | `Ids[e] → Traverse{ancestry, k..k}`            |
//! | `ProvGraph::find_by_prop`        | `Kind(k) → Filter{key = value}`                |
//! | `pattern::match_paths` (star)    | `start → [Filter] → Traverse{kinds, min..∞} → Filter` |
//! | `tests/cypher_query1`            | two reachability pipelines joined client-side  |
//!
//! The lineage lowering itself lives in `prov-core` next to
//! `LineageDirection`/`LineageBound` (the bound types are not store
//! concepts); everything store-shaped lowers here.

use crate::csr::Direction;
use crate::error::{StoreError, StoreResult};
use crate::pattern::{NodeSpec, PathPattern, PatternDir, RelSpec};
use crate::query::ir::{Pipeline, PropFilter, StartSet, Step, Traverse};
use prov_model::{EdgeKind, PropValue, VertexKind};

/// A validated, normalized pipeline ready for [`crate::query::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub(crate) pipeline: Pipeline,
}

impl Plan {
    /// Validate and normalize `pipeline`.
    ///
    /// Rejections (all [`StoreError::InvalidQuery`]):
    /// * a `Traverse` with no edge selectors — it could only ever emit its
    ///   own sources, which `min_hops = max_hops = 0` already says;
    /// * a selector on the reverse agent slices (`S`/`A` inbound): the
    ///   snapshot stores agent relations forward-only, so the engine would
    ///   silently traverse an empty CSR where the mutable store has edges.
    ///
    /// Normalizations: start ids and filter ids are sorted + deduplicated,
    /// traverse selectors are sorted + deduplicated.
    pub fn compile(pipeline: Pipeline) -> StoreResult<Plan> {
        let mut p = pipeline;
        if let StartSet::Ids(ids) = &mut p.start {
            ids.sort_unstable();
            ids.dedup();
        }
        for step in &mut p.steps {
            match step {
                Step::Traverse(t) => {
                    if t.edges.is_empty() {
                        return Err(StoreError::InvalidQuery(
                            "traverse step selects no edge kinds".into(),
                        ));
                    }
                    t.edges.sort_unstable();
                    t.edges.dedup();
                    if let Some((kind, _)) = t.edges.iter().find(|(kind, dir)| {
                        matches!(kind, EdgeKind::WasAssociatedWith | EdgeKind::WasAttributedTo)
                            && *dir == Direction::In
                    }) {
                        return Err(StoreError::InvalidQuery(format!(
                            "traverse selects ({kind:?}, In): agent relations are stored \
                             forward-only and have no inbound CSR slice"
                        )));
                    }
                }
                Step::Filter(f) => {
                    if let Some(ids) = &mut f.ids {
                        ids.sort_unstable();
                        ids.dedup();
                    }
                }
                Step::Limit(_) => {}
            }
        }
        Ok(Plan { pipeline: p })
    }

    /// The normalized pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }
}

impl Pipeline {
    /// Lowering of [`crate::graph::ProvGraph::find_by_prop`]: a kind start
    /// set filtered by one property equality. Both the hash-probe and the
    /// linear-scan reference answer in ascending id order, which is the
    /// evaluator's row order — the differential proptest pins the three
    /// byte-identical.
    pub fn find_by_prop(kind: VertexKind, key: &str, value: impl Into<PropValue>) -> Pipeline {
        Pipeline::from_kind(kind).filter(PropFilter::prop(key, value))
    }
}

/// Lower a star path pattern to a pipeline, when the pipeline's
/// set-semantics provably match [`crate::pattern::match_paths`]'s endpoint
/// set. Returns `None` — *fall back to the reference engine* — otherwise.
///
/// The lowerable family is patterns whose every step is
/// `-[:kinds*min..]-` (unbounded star) with
///
/// * `min_hops == 0`, or `min_hops == 1` starting from at most one vertex
///   (BFS depth is shortest-path distance: with several starts a vertex one
///   hop from start B may sit at depth 0 because it *is* start A, and a
///   bounded `max_hops` would need path — not distance — semantics);
/// * at most one step (relationship uniqueness spans steps in the
///   reference engine, which set-reachability cannot see);
/// * no reverse agent slices (the snapshot stores `S`/`A` forward-only,
///   while the reference walks the mutable adjacency both ways).
///
/// Within that family, endpoint sets coincide: on a DAG every reachable
/// vertex is reachable by a shortest path, which never repeats an edge, so
/// Cypher's relationship-uniqueness rule prunes nothing.
pub fn lower_pattern(pattern: &PathPattern) -> Option<Pipeline> {
    if pattern.steps.len() > 1 {
        return None;
    }
    let single_start = matches!(&pattern.start.ids, Some(ids) if ids.len() <= 1);
    let mut pipeline = lower_node_start(&pattern.start);
    for (rel, node) in &pattern.steps {
        if rel.max_hops != RelSpec::UNBOUNDED {
            return None;
        }
        if rel.min_hops > 1 || (rel.min_hops == 1 && !single_start) {
            return None;
        }
        let edges = lower_rel_edges(rel)?;
        pipeline = pipeline.traverse(&edges, rel.min_hops, Traverse::UNBOUNDED);
        let filter = lower_node_filter(node);
        if !filter.is_pass_through() {
            pipeline = pipeline.filter(filter);
        }
    }
    Some(pipeline)
}

/// Start `NodeSpec` → start set plus (if needed) a residual filter.
fn lower_node_start(spec: &NodeSpec) -> Pipeline {
    let (start, residual) = match (&spec.ids, spec.kind) {
        (Some(ids), _) => (
            StartSet::Ids(ids.clone()),
            PropFilter {
                kind: spec.kind,
                name: spec.name.clone(),
                props: spec.props.clone(),
                ids: None,
            },
        ),
        (None, Some(kind)) => (
            StartSet::Kind(kind),
            PropFilter {
                kind: None,
                name: spec.name.clone(),
                props: spec.props.clone(),
                ids: None,
            },
        ),
        (None, None) => (
            StartSet::All,
            PropFilter {
                kind: None,
                name: spec.name.clone(),
                props: spec.props.clone(),
                ids: None,
            },
        ),
    };
    let mut pipeline = Pipeline { start, steps: Vec::new(), project: Default::default() };
    if !residual.is_pass_through() {
        pipeline = pipeline.filter(residual);
    }
    pipeline
}

/// Interior/end `NodeSpec` → a plain filter.
fn lower_node_filter(spec: &NodeSpec) -> PropFilter {
    PropFilter {
        kind: spec.kind,
        name: spec.name.clone(),
        props: spec.props.clone(),
        ids: spec.ids.clone(),
    }
}

/// `RelSpec` kinds × direction → CSR selectors; `None` when a reverse agent
/// slice would be needed.
fn lower_rel_edges(rel: &RelSpec) -> Option<Vec<(EdgeKind, Direction)>> {
    let kinds: Vec<EdgeKind> =
        if rel.kinds.is_empty() { EdgeKind::ALL.to_vec() } else { rel.kinds.clone() };
    let mut edges = Vec::new();
    for &kind in &kinds {
        let agent_kind = matches!(kind, EdgeKind::WasAssociatedWith | EdgeKind::WasAttributedTo);
        match rel.dir {
            PatternDir::Forward => edges.push((kind, Direction::Out)),
            PatternDir::Backward => {
                if agent_kind {
                    return None;
                }
                edges.push((kind, Direction::In));
            }
            PatternDir::Either => {
                if agent_kind {
                    return None;
                }
                edges.push((kind, Direction::Out));
                edges.push((kind, Direction::In));
            }
        }
    }
    Some(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ir::Project;
    use prov_model::VertexId;

    #[test]
    fn compile_normalizes_ids_and_selectors() {
        let pipeline =
            Pipeline::from_ids(vec![VertexId::new(3), VertexId::new(1), VertexId::new(3)])
                .traverse(
                    &[
                        (EdgeKind::Used, Direction::Out),
                        (EdgeKind::WasGeneratedBy, Direction::Out),
                        (EdgeKind::Used, Direction::Out),
                    ],
                    1,
                    Traverse::UNBOUNDED,
                );
        let plan = Plan::compile(pipeline).unwrap();
        assert_eq!(plan.pipeline().start, StartSet::Ids(vec![VertexId::new(1), VertexId::new(3)]));
        match &plan.pipeline().steps[0] {
            Step::Traverse(t) => assert_eq!(
                t.edges,
                vec![(EdgeKind::Used, Direction::Out), (EdgeKind::WasGeneratedBy, Direction::Out)]
            ),
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn compile_rejects_empty_and_reverse_agent_selectors() {
        let empty = Pipeline::from_all().traverse(&[], 0, 1);
        assert!(matches!(Plan::compile(empty), Err(StoreError::InvalidQuery(_))));
        let reverse_agent =
            Pipeline::from_all().traverse(&[(EdgeKind::WasAssociatedWith, Direction::In)], 0, 1);
        let err = Plan::compile(reverse_agent).unwrap_err();
        assert!(err.to_string().contains("forward-only"), "got {err}");
    }

    #[test]
    fn find_by_prop_lowering_shape() {
        let p = Pipeline::find_by_prop(VertexKind::Entity, "fmt", "csv");
        assert_eq!(p.start, StartSet::Kind(VertexKind::Entity));
        assert_eq!(p.steps.len(), 1);
        assert_eq!(p.project, Project::Ids);
    }

    #[test]
    fn star_pattern_lowers_bounded_patterns_fall_back() {
        let star = PathPattern::node(NodeSpec::any().with_ids(vec![VertexId::new(0)])).then(
            RelSpec::star(
                &[EdgeKind::Used, EdgeKind::WasGeneratedBy],
                PatternDir::Backward,
                0,
                RelSpec::UNBOUNDED,
            ),
            NodeSpec::of_kind(VertexKind::Entity),
        );
        let lowered = lower_pattern(&star).expect("unbounded star lowers");
        assert_eq!(lowered.steps.len(), 2, "traverse + endpoint filter");

        let bounded = PathPattern::node(NodeSpec::any())
            .then(RelSpec::star(&[EdgeKind::Used], PatternDir::Forward, 1, 3), NodeSpec::any());
        assert!(lower_pattern(&bounded).is_none(), "bounded hops need path semantics");

        let multi_start_min1 =
            PathPattern::node(NodeSpec::any().with_ids(vec![VertexId::new(0), VertexId::new(1)]))
                .then(
                    RelSpec::star(&[EdgeKind::Used], PatternDir::Forward, 1, RelSpec::UNBOUNDED),
                    NodeSpec::any(),
                );
        assert!(lower_pattern(&multi_start_min1).is_none(), "min 1 from many starts");

        let reverse_agent = PathPattern::node(NodeSpec::any()).then(
            RelSpec::star(&[EdgeKind::WasAttributedTo], PatternDir::Either, 0, RelSpec::UNBOUNDED),
            NodeSpec::any(),
        );
        assert!(lower_pattern(&reverse_agent).is_none(), "reverse agent slices are empty");

        let all_kinds = PathPattern::node(NodeSpec::any())
            .then(RelSpec::star(&[], PatternDir::Either, 0, RelSpec::UNBOUNDED), NodeSpec::any());
        assert!(lower_pattern(&all_kinds).is_none(), "empty kind list includes agent kinds");
    }

    #[test]
    fn node_only_pattern_lowers_to_start_and_filter() {
        let pat = PathPattern::node(NodeSpec::of_kind(VertexKind::Agent));
        let lowered = lower_pattern(&pat).unwrap();
        assert_eq!(lowered.start, StartSet::Kind(VertexKind::Agent));
        assert!(lowered.steps.is_empty());
    }
}
