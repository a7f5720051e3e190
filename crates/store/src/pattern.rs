//! Cypher-flavoured path patterns: wire sugar over the query IR.
//!
//! A [`PathPattern`] is `start (rel node)*` — node predicates, and
//! variable-length relationships with Cypher's trail semantics (an endpoint
//! matches when *some* path of `min..max` hops repeating no edge reaches it).
//! Patterns carry no evaluator of their own: [`crate::query::lower_pattern`]
//! compiles each one onto a [`crate::query::Pipeline`] when the IR's
//! BFS-distance semantics provably equal those path semantics, and refuses
//! it with [`crate::StoreError::InvalidQuery`] otherwise. The paper's
//! materialize-then-join plan (Sec. III-B) is reproduced once, as
//! `prov_segment::naive`.

use prov_model::{EdgeKind, PropValue, VertexId, VertexKind};

/// Node predicate of a pattern (`(x:Kind {key: value, ...})`).
///
/// Serializable so patterns can ride the wire `Query` envelope; every field
/// defaults so `{}` deserializes to the match-anything spec.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NodeSpec {
    /// Required vertex kind, if any.
    #[serde(default)]
    pub kind: Option<VertexKind>,
    /// Required vertex name, if any.
    #[serde(default)]
    pub name: Option<String>,
    /// Required property equalities.
    #[serde(default)]
    pub props: Vec<(String, PropValue)>,
    /// Restrict to these ids (`where id(x) in [...]`), if set.
    #[serde(default)]
    pub ids: Option<Vec<VertexId>>,
}

impl NodeSpec {
    /// Any vertex.
    pub fn any() -> Self {
        Self::default()
    }

    /// A vertex of `kind`.
    pub fn of_kind(kind: VertexKind) -> Self {
        NodeSpec { kind: Some(kind), ..Self::default() }
    }

    /// Restrict to explicit ids.
    pub fn with_ids(mut self, ids: Vec<VertexId>) -> Self {
        self.ids = Some(ids);
        self
    }

    /// Require a property equality.
    pub fn with_prop(mut self, key: &str, value: impl Into<PropValue>) -> Self {
        self.props.push((key.to_string(), value.into()));
        self
    }
}

/// Edge traversal direction in a pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PatternDir {
    /// `-[...]->` — follow stored orientation.
    Forward,
    /// `<-[...]-` — follow reversed orientation.
    Backward,
    /// `-[...]-` — either orientation.
    Either,
}

/// Relationship predicate with optional variable length
/// (`-[:U|G*min..max]->`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RelSpec {
    /// Allowed relationship kinds (empty = all kinds).
    pub kinds: Vec<EdgeKind>,
    /// Traversal direction.
    pub dir: PatternDir,
    /// Minimum number of hops (0 allows the empty expansion).
    pub min_hops: u32,
    /// Maximum number of hops (use [`RelSpec::UNBOUNDED`] for `*`).
    pub max_hops: u32,
}

impl RelSpec {
    /// Effectively unbounded hop count (`*` in Cypher); bounded in practice
    /// by the DAG's longest path.
    pub const UNBOUNDED: u32 = u32::MAX;

    /// Single-hop relationship of the given kinds.
    pub fn one(kinds: &[EdgeKind], dir: PatternDir) -> Self {
        RelSpec { kinds: kinds.to_vec(), dir, min_hops: 1, max_hops: 1 }
    }

    /// Variable-length relationship (`*1..` when `max = UNBOUNDED`).
    pub fn star(kinds: &[EdgeKind], dir: PatternDir, min_hops: u32, max_hops: u32) -> Self {
        RelSpec { kinds: kinds.to_vec(), dir, min_hops, max_hops }
    }
}

/// A linear path pattern: `start (rel node)*`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PathPattern {
    /// Start node predicate.
    pub start: NodeSpec,
    /// Alternating relationship/node predicates.
    #[serde(default)]
    pub steps: Vec<(RelSpec, NodeSpec)>,
}

impl PathPattern {
    /// Pattern with only a start node.
    pub fn node(start: NodeSpec) -> Self {
        PathPattern { start, steps: Vec::new() }
    }

    /// Append a step.
    pub fn then(mut self, rel: RelSpec, node: NodeSpec) -> Self {
        self.steps.push((rel, node));
        self
    }
}
