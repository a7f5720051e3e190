//! Pipeline validation, normalization, and the lowering constructors.
//!
//! [`Plan::compile`] is the single gate between IR-as-data and the
//! evaluator: it rejects pipelines the engine cannot answer faithfully and
//! normalizes the rest so that semantically equal pipelines evaluate
//! identically (selector order, duplicate start ids, and duplicate filter
//! ids never influence the answer).
//!
//! Lowering table (DESIGN.md §9; `find_by_prop` keeps its original as a
//! differential reference, patterns are checked against a trail-enumeration
//! oracle and lineage against a definitional level-BFS oracle, both in test
//! code):
//!
//! | read path                        | pipeline                                       |
//! |----------------------------------|------------------------------------------------|
//! | `lineage` / `lineage_within`     | `Ids[e] → Traverse{ancestry, 1..bound}`        |
//! | `k_hop`                          | `Ids[e] → Traverse{ancestry, k..k}`            |
//! | `ProvGraph::find_by_prop`        | `Kind(k) → Filter{key = value}`                |
//! | `PathPattern` ([`lower_pattern`]'s family) | `start → [Filter] → Traverse{kinds, min..max} → [Filter]` |
//! | `tests/cypher_query1`            | two reachability pipelines joined client-side  |
//!
//! The lineage lowering itself lives in `prov-core` next to
//! `LineageDirection`/`LineageBound` (the bound types are not store
//! concepts); everything store-shaped lowers here.

use crate::csr::Direction;
use crate::error::{StoreError, StoreResult};
use crate::pattern::{NodeSpec, PathPattern, PatternDir, RelSpec};
use crate::query::ir::{Pipeline, PropFilter, StartSet, Step};
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

/// Lower a path pattern onto a pipeline, or refuse it.
///
/// A pattern asks for the endpoints of *trails* (paths that repeat no
/// edge); a `Traverse` emits by BFS *distance*. The two agree, and the
/// pattern lowers, exactly on this family:
///
/// * at most one step (relationship uniqueness spans steps, which
///   set-reachability cannot see);
/// * no reverse agent slice: `Backward`/`Either` over `S`/`A`, an empty
///   kind list included, needs inbound agent slices the snapshot does not
///   store;
/// * `min_hops == 0`, with any start set, direction and `max_hops`: a
///   shortest path never repeats an edge, so "some trail of at most `max`
///   hops" is "multi-source BFS distance at most `max`";
/// * `min_hops == 1` from at most one start id, `Forward` or `Backward`: on
///   a DAG a directed trail never returns to its start, so its endpoints
///   are exactly the vertices at distance `1..=max`. From several starts,
///   one start can be another's endpoint yet sit at distance 0; going
///   `Either` way, an undirected cycle returns to the start, which BFS
///   never re-emits.
///
/// Everything else is [`StoreError::InvalidQuery`], naming the rule.
pub fn lower_pattern(pattern: &PathPattern) -> StoreResult<Pipeline> {
    let pipeline = lower_node_start(&pattern.start);
    let (rel, node) = match pattern.steps.as_slice() {
        [] => return Ok(pipeline),
        [step] => step,
        _ => return Err(refuse("at most one step: relationship uniqueness spans steps")),
    };
    let edges = lower_rel_edges(rel)?;
    let single_start = matches!(&pattern.start.ids, Some(ids) if ids.len() <= 1);
    match (rel.min_hops, rel.dir) {
        (0, _) => {}
        (1, _) if !single_start => {
            return Err(refuse(
                "min_hops = 1 needs at most one start id: a start reached from another sits \
                 at distance 0",
            ))
        }
        (1, PatternDir::Either) => {
            return Err(refuse(
                "min_hops = 1 goes Forward or Backward: an undirected cycle returns to the start",
            ))
        }
        (1, _) => {}
        _ => return Err(refuse("min_hops is 0 or 1")),
    }
    let mut pipeline = pipeline.traverse(&edges, rel.min_hops, rel.max_hops);
    let filter = lower_node_filter(node);
    if !filter.is_pass_through() {
        pipeline = pipeline.filter(filter);
    }
    Ok(pipeline)
}

/// The refusal of a pattern that breaks `rule`, pointing at the pipeline
/// that asks the distance-semantics question instead.
fn refuse(rule: &str) -> StoreError {
    StoreError::InvalidQuery(format!(
        "pattern outside the lowerable family ({rule}); for BFS-distance semantics, send a \
         Pipeline of Traverse{{min_hops..max_hops}} and Filter steps"
    ))
}

/// Start `NodeSpec` → start set plus (if needed) a residual filter.
fn lower_node_start(spec: &NodeSpec) -> Pipeline {
    let (start, kind) = match (&spec.ids, spec.kind) {
        (Some(ids), kind) => (StartSet::Ids(ids.clone()), kind),
        (None, Some(kind)) => (StartSet::Kind(kind), None),
        (None, None) => (StartSet::All, None),
    };
    let residual =
        PropFilter { kind, name: spec.name.clone(), props: spec.props.clone(), ids: None };
    let pipeline = Pipeline { start, steps: Vec::new(), project: Default::default() };
    if residual.is_pass_through() {
        pipeline
    } else {
        pipeline.filter(residual)
    }
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

/// `RelSpec` kinds × direction → CSR selectors; refused when a reverse
/// agent slice would be needed.
fn lower_rel_edges(rel: &RelSpec) -> StoreResult<Vec<(EdgeKind, Direction)>> {
    let kinds: &[EdgeKind] = if rel.kinds.is_empty() { &EdgeKind::ALL } else { &rel.kinds };
    let mut edges = Vec::new();
    for &kind in kinds {
        if rel.dir != PatternDir::Backward {
            edges.push((kind, Direction::Out));
        }
        if rel.dir != PatternDir::Forward {
            if matches!(kind, EdgeKind::WasAssociatedWith | EdgeKind::WasAttributedTo) {
                return Err(refuse(&format!(
                    "no reverse agent slice: {kind:?} is stored forward-only, so select it Out \
                     only; an empty kind list names it"
                )));
            }
            edges.push((kind, Direction::In));
        }
    }
    Ok(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ir::{Project, Traverse};
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

    fn refusal(pattern: &PathPattern) -> String {
        match lower_pattern(pattern) {
            Err(StoreError::InvalidQuery(message)) => message,
            other => panic!("expected an InvalidQuery refusal, got {other:?}"),
        }
    }

    #[test]
    fn lowering_accepts_exactly_the_family() {
        let ancestry = [EdgeKind::Used, EdgeKind::WasGeneratedBy];
        let one_start = || NodeSpec::any().with_ids(vec![VertexId::new(0)]);
        let star = PathPattern::node(one_start()).then(
            RelSpec::star(&ancestry, PatternDir::Backward, 1, RelSpec::UNBOUNDED),
            NodeSpec::of_kind(VertexKind::Entity),
        );
        let lowered = lower_pattern(&star).expect("single-start directed star lowers");
        assert_eq!(lowered.steps.len(), 2, "traverse + endpoint filter");

        let bounded = PathPattern::node(NodeSpec::of_kind(VertexKind::Entity))
            .then(RelSpec::star(&ancestry, PatternDir::Either, 0, 3), NodeSpec::any());
        let lowered = lower_pattern(&bounded).expect("min 0 lowers at any max");
        assert_eq!(lowered.start, StartSet::Kind(VertexKind::Entity));
        match &lowered.steps[..] {
            [Step::Traverse(t)] => assert_eq!((t.min_hops, t.max_hops, t.edges.len()), (0, 3, 4)),
            other => panic!("unexpected steps {other:?}"),
        }
        let forward_agent = PathPattern::node(NodeSpec::any())
            .then(RelSpec::star(&[], PatternDir::Forward, 0, 1), NodeSpec::any());
        assert!(lower_pattern(&forward_agent).is_ok(), "agent slices are stored forward");

        let one = |rel| PathPattern::node(NodeSpec::any()).then(rel, NodeSpec::any());
        for (pattern, rule) in [
            (one(RelSpec::star(&ancestry, PatternDir::Forward, 1, 4)), "at most one start id"),
            (one(RelSpec::star(&ancestry, PatternDir::Forward, 2, 4)), "min_hops is 0 or 1"),
            (one(RelSpec::star(&[], PatternDir::Backward, 0, 1)), "empty kind list"),
            (
                one(RelSpec::one(&[EdgeKind::WasAttributedTo], PatternDir::Either)),
                "reverse agent slice",
            ),
            (
                one(RelSpec::one(&ancestry, PatternDir::Forward))
                    .then(RelSpec::one(&ancestry, PatternDir::Forward), NodeSpec::any()),
                "at most one step",
            ),
        ] {
            assert!(refusal(&pattern).contains(rule), "{pattern:?} should break {rule:?}");
        }
    }

    /// Regression: `e0`=0, `a0`=1, `e1`=2, `a1`=3 with `a0 -U-> e0`,
    /// `e1 -G-> a0`, `a1 -U-> e0`, `a1 -U-> e1`. The trail
    /// `a1 → e0 ← a0 ← e1 ← a1` returns to `a1`, so the pattern's endpoints
    /// are `[0, 1, 2, 3]`; `Traverse{1..}` never re-emits its start and
    /// answered `[0, 1, 2]`. Such a pattern is now refused.
    #[test]
    fn either_star_from_one_start_with_min_one_is_refused() {
        let pattern = PathPattern::node(NodeSpec::any().with_ids(vec![VertexId::new(3)])).then(
            RelSpec::star(
                &[EdgeKind::Used, EdgeKind::WasGeneratedBy],
                PatternDir::Either,
                1,
                RelSpec::UNBOUNDED,
            ),
            NodeSpec::any(),
        );
        assert!(refusal(&pattern).contains("undirected cycle"));
    }

    #[test]
    fn node_only_pattern_lowers_to_start_and_filter() {
        let pat = PathPattern::node(NodeSpec::of_kind(VertexKind::Agent));
        let lowered = lower_pattern(&pat).unwrap();
        assert_eq!(lowered.start, StartSet::Kind(VertexKind::Agent));
        assert!(lowered.steps.is_empty());
    }
}
