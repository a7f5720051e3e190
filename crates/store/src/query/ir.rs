//! The query IR grammar: plain serde value types, no behaviour.
//!
//! A [`Pipeline`] is data — it can be built by a lowering constructor
//! (`plan`), deserialized off the wire, or written by hand — and only
//! acquires meaning when [`crate::query::Plan::compile`] checks it and
//! [`crate::query::evaluate`] runs it over a snapshot.

use crate::csr::Direction;
use prov_model::{EdgeKind, PropValue, VertexId, VertexKind};
use serde::{Deserialize, Serialize};

/// Where a pipeline's row set begins.
#[derive(Debug, Clone, PartialEq)]
pub enum StartSet {
    /// Explicit vertex ids (`where id(x) in [...]`). Out-of-range ids are
    /// dropped at evaluation time, matching the lineage empty-result
    /// contract for unknown starts.
    Ids(Vec<VertexId>),
    /// Every vertex of one kind, in creation (= ascending id) order.
    Kind(VertexKind),
    /// Every vertex.
    All,
}

// Hand-rolled (the derive shim handles all-unit or all-newtype enums only):
// externally tagged like the newtype variants of `Step`, with the unit
// variant `All` as a bare string — the same encodings the derive would pick
// for each variant shape.
impl Serialize for StartSet {
    fn write_json(&self, out: &mut serde::JsonWriter) -> Result<(), serde::Error> {
        fn tagged<T: Serialize>(
            out: &mut serde::JsonWriter,
            tag: &str,
            inner: &T,
        ) -> Result<(), serde::Error> {
            out.begin_map();
            out.key(tag);
            inner.write_json(out)?;
            out.end_map();
            Ok(())
        }
        match self {
            StartSet::Ids(ids) => tagged(out, "Ids", ids),
            StartSet::Kind(kind) => tagged(out, "Kind", kind),
            StartSet::All => "All".write_json(out),
        }
    }
}

impl Deserialize for StartSet {
    fn de(content: &serde::Content) -> Result<Self, serde::Error> {
        match content {
            serde::Content::Str(s) if s == "All" => Ok(StartSet::All),
            serde::Content::Map(entries) => match entries.as_slice() {
                [(tag, inner)] if tag == "Ids" => Vec::<VertexId>::de(inner).map(StartSet::Ids),
                [(tag, inner)] if tag == "Kind" => VertexKind::de(inner).map(StartSet::Kind),
                _ => Err(serde::Error::msg("expected one StartSet variant key")),
            },
            other => {
                Err(serde::Error::msg(format!("expected StartSet, found {}", other.type_name())))
            }
        }
    }
}

/// One multi-source BFS step over a union of CSR slices.
///
/// Depth is the BFS (shortest-path) distance from the incoming row set;
/// the step emits exactly the vertices whose depth `d` satisfies
/// `min_hops <= d <= max_hops`. `min_hops == 0` therefore re-emits the
/// sources themselves; `min_hops > max_hops` is legal and emits nothing
/// (how the lineage lowering expresses `Within(0)`). Rows are the *set* of
/// reached vertices — path multiplicity never escapes a traverse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Traverse {
    /// CSR slices this step walks, unioned per hop. Normalized (sorted,
    /// deduplicated) by `Plan::compile`.
    pub edges: Vec<(EdgeKind, Direction)>,
    /// Minimum depth emitted.
    pub min_hops: u32,
    /// Maximum depth explored and emitted ([`Traverse::UNBOUNDED`] for the
    /// full closure).
    pub max_hops: u32,
}

impl Traverse {
    /// Effectively unbounded hop count (`*` in Cypher); bounded in practice
    /// by the DAG diameter.
    pub const UNBOUNDED: u32 = u32::MAX;
}

/// Vertex predicate applied to the current row set (what a pattern's
/// `NodeSpec` lowers to).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PropFilter {
    /// Required vertex kind, if any.
    #[serde(default)]
    pub kind: Option<VertexKind>,
    /// Required vertex name, if any.
    #[serde(default)]
    pub name: Option<String>,
    /// Required property equalities.
    #[serde(default)]
    pub props: Vec<(String, PropValue)>,
    /// Restrict to these ids, if set.
    #[serde(default)]
    pub ids: Option<Vec<VertexId>>,
}

impl PropFilter {
    /// Filter on a single property equality.
    pub fn prop(key: &str, value: impl Into<PropValue>) -> Self {
        PropFilter { props: vec![(key.to_string(), value.into())], ..Self::default() }
    }

    /// Filter on vertex kind.
    pub fn of_kind(kind: VertexKind) -> Self {
        PropFilter { kind: Some(kind), ..Self::default() }
    }

    /// True when the filter accepts every vertex.
    pub fn is_pass_through(&self) -> bool {
        self.kind.is_none() && self.name.is_none() && self.props.is_empty() && self.ids.is_none()
    }
}

/// One pipeline step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Step {
    /// Multi-source BFS over CSR slices.
    Traverse(Traverse),
    /// Retain rows matching a vertex predicate.
    Filter(PropFilter),
    /// Keep the first `n` rows of the (always ascending-sorted) row set.
    Limit(usize),
}

/// What the pipeline returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Project {
    /// The sorted row ids.
    #[default]
    Ids,
    /// Only the row count (not paginable).
    Count,
}

/// A complete query: start set, steps, projection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    /// Initial row set.
    pub start: StartSet,
    /// Steps applied left to right.
    pub steps: Vec<Step>,
    /// Final projection.
    #[serde(default)]
    pub project: Project,
}

impl Pipeline {
    /// Pipeline starting from explicit ids.
    pub fn from_ids(ids: Vec<VertexId>) -> Self {
        Pipeline { start: StartSet::Ids(ids), steps: Vec::new(), project: Project::Ids }
    }

    /// Pipeline starting from every vertex of `kind`.
    pub fn from_kind(kind: VertexKind) -> Self {
        Pipeline { start: StartSet::Kind(kind), steps: Vec::new(), project: Project::Ids }
    }

    /// Pipeline starting from every vertex.
    pub fn from_all() -> Self {
        Pipeline { start: StartSet::All, steps: Vec::new(), project: Project::Ids }
    }

    /// Append a traverse step.
    pub fn traverse(
        mut self,
        edges: &[(EdgeKind, Direction)],
        min_hops: u32,
        max_hops: u32,
    ) -> Self {
        self.steps.push(Step::Traverse(Traverse { edges: edges.to_vec(), min_hops, max_hops }));
        self
    }

    /// Append a filter step.
    pub fn filter(mut self, filter: PropFilter) -> Self {
        self.steps.push(Step::Filter(filter));
        self
    }

    /// Append a limit step.
    pub fn limit(mut self, n: usize) -> Self {
        self.steps.push(Step::Limit(n));
        self
    }

    /// Project to the row count instead of the ids.
    pub fn count(mut self) -> Self {
        self.project = Project::Count;
        self
    }
}
