//! The mutable property graph store (`ProvGraph`).
//!
//! This is the embedded substitute for the Neo4j backend of the paper's system
//! (Fig. 1). It satisfies the two assumptions the query evaluation section
//! makes about the backend (Sec. III-B):
//!
//! 1. *constant-time access to arbitrary vertices/edges by primary id* — ids
//!    are dense `u32` indexes into columnar `Vec`s;
//! 2. *linear-time access to both incoming and outgoing edges of a vertex* —
//!    per-vertex adjacency lists are maintained in both directions.
//!
//! On top of that it provides the schema-later property layer (interned keys,
//! dynamic values), a per-kind vertex index, a name index, and PROV validation
//! (edge domain/range rules at insert time, acyclicity on demand).

use crate::error::{StoreError, StoreResult};
use crate::hash::FxHashMap;
use crate::interner::KeyInterner;
use prov_model::{check_edge_types, EdgeId, EdgeKind, PropMap, PropValue, VertexId, VertexKind};
use std::sync::{Arc, OnceLock};

/// A stored vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexRecord {
    /// `λv(v)` — the vertex type.
    pub kind: VertexKind,
    /// Human-readable name (e.g. `model-v1`); also indexed for lookup.
    pub name: Option<Arc<str>>,
    /// Logical creation timestamp ("order of being", Sec. III-B). Assigned
    /// monotonically at insertion; used by the early-stopping rule.
    pub birth: u64,
    /// `σ(v, ·)` — schema-later properties.
    pub props: PropMap,
}

/// A stored edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeRecord {
    /// `λe(e)` — the relationship type.
    pub kind: EdgeKind,
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// `ω(e, ·)` — edge properties.
    pub props: PropMap,
}

/// A dense in-memory rank (vertex, edge or key id, kind rank, frontier width)
/// as the `u32` the id types hold. [`ProvGraph`] refuses to mint an id past
/// `u32::MAX` (`check_capacity`), and every rank counts distinct minted ids,
/// so this cannot truncate: debug builds assert it, release builds pay
/// nothing. Lengths headed for a durable format take the checked
/// `storage::codec::put_len` instead.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the one sanctioned narrowing; bounded by check_capacity as documented above"
)]
pub fn rank_u32(n: usize) -> u32 {
    debug_assert!(u32::try_from(n).is_ok(), "dense rank {n} escaped check_capacity");
    n as u32
}

/// Position in a [`ProvGraph`]'s append-only vertex/edge log.
///
/// The store never deletes or reorders: vertices and edges live in columnar
/// `Vec`s that only grow at the tail, so the columns *are* the delta log and
/// a cursor — one watermark per column — identifies everything written since
/// a snapshot. [`ProvGraph::cursor`] reads the current position,
/// [`ProvGraph::delta_since`] views the suffix beyond one, and
/// [`crate::ProvIndex::refresh_in_place`] consumes that suffix to extend a
/// frozen snapshot without a rebuild.
///
/// A cursor is only meaningful against the graph it was taken from (or a
/// clone of it, possibly grown further — the copy-on-write path of a
/// database facade preserves every frozen prefix byte-for-byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaCursor {
    /// Vertices present when the cursor was taken.
    pub vertices: u32,
    /// Edges present when the cursor was taken.
    pub edges: u32,
}

/// The suffix of a [`ProvGraph`]'s append-only log beyond a [`DeltaCursor`]:
/// every vertex and edge recorded since the cursor was taken.
#[derive(Debug, Clone, Copy)]
pub struct GraphDelta<'g> {
    graph: &'g ProvGraph,
    from: DeltaCursor,
}

impl<'g> GraphDelta<'g> {
    /// Number of vertices added since the cursor.
    pub fn new_vertex_count(&self) -> usize {
        self.graph.vertex_count() - self.from.vertices as usize
    }

    /// Number of edges added since the cursor.
    pub fn new_edge_count(&self) -> usize {
        self.graph.edge_count() - self.from.edges as usize
    }

    /// True when nothing was appended since the cursor. Property writes do
    /// not move the cursor: they are invisible to structural snapshots.
    pub fn is_empty(&self) -> bool {
        self.new_vertex_count() == 0 && self.new_edge_count() == 0
    }

    /// Ids of the vertices added since the cursor, in creation order.
    pub fn new_vertices(&self) -> impl Iterator<Item = VertexId> + 'g {
        (self.from.vertices..rank_u32(self.graph.vertex_count())).map(VertexId::new)
    }

    /// Ids of the edges added since the cursor, in creation order.
    pub fn new_edges(&self) -> impl Iterator<Item = EdgeId> + 'g {
        (self.from.edges..rank_u32(self.graph.edge_count())).map(EdgeId::new)
    }
}

/// One logical store mutation, as written to the write-ahead log.
///
/// The [`DeltaCursor`] log only tracks structural growth (vertex/edge
/// counts); durability needs every state transition, including property
/// writes and index declarations. When journaling is enabled
/// ([`ProvGraph::set_journaling`]) each successful mutator appends exactly
/// one op here, and replaying a journal through [`ProvGraph::apply_wal_op`]
/// on an empty graph reproduces the original graph *exactly* — same dense
/// ids, same births (the clock only advances in `add_vertex`), same interner
/// id assignment (interning happens in op order), same index contents.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// [`ProvGraph::add_vertex`].
    AddVertex {
        /// Vertex type.
        kind: VertexKind,
        /// Optional name (versioned-name addressing).
        name: Option<Arc<str>>,
    },
    /// [`ProvGraph::add_edge`].
    AddEdge {
        /// Relationship type.
        kind: EdgeKind,
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// [`ProvGraph::set_vprop`].
    SetVProp {
        /// Target vertex.
        v: VertexId,
        /// Property key name.
        key: Arc<str>,
        /// New value.
        value: PropValue,
    },
    /// [`ProvGraph::unset_vprop`] (journaled only when a value was removed).
    UnsetVProp {
        /// Target vertex.
        v: VertexId,
        /// Property key name.
        key: Arc<str>,
    },
    /// [`ProvGraph::set_eprop`].
    SetEProp {
        /// Target edge.
        e: EdgeId,
        /// Property key name.
        key: Arc<str>,
        /// New value.
        value: PropValue,
    },
    /// [`ProvGraph::create_vprop_index`] (journaled only on fresh declaration).
    CreateVPropIndex {
        /// Indexed vertex kind.
        kind: VertexKind,
        /// Indexed property key name.
        key: Arc<str>,
    },
    /// [`ProvGraph::key`] interned a fresh key outside any property write.
    /// Journaled so replay assigns identical [`prov_model::PropKeyId`]s.
    InternKey {
        /// The interned key name.
        key: Arc<str>,
    },
}

/// Decoder for run property columns whose materialization was deferred at
/// recovery time (the lazy-decode path of the run format).
///
/// `load` is called at most once, on the first property touch, and must
/// return every vertex/edge property triple the runs' columns hold, keyed by
/// the [`prov_model::PropKeyId`]s the structural decode already re-interned.
pub trait PropLoader: std::fmt::Debug + Send + Sync {
    /// Decode the deferred columns. Errors (a corrupt deferred segment, a
    /// vanished backing file) surface as a panic at the first property touch
    /// — the price of deferring the integrity check past `open()`.
    fn load(&self) -> Result<LoadedColumns, String>;
}

/// The deferred property columns, decoded (see [`PropLoader`]).
#[derive(Debug, Default)]
pub struct LoadedColumns {
    /// Vertex property triples in snapshot (column) order.
    pub vprops: Vec<(VertexId, prov_model::PropKeyId, PropValue)>,
    /// Edge property triples in snapshot (column) order.
    pub eprops: Vec<(EdgeId, prov_model::PropKeyId, PropValue)>,
}

/// The materialized form of deferred columns: one `PropMap` per vertex/edge
/// plus the secondary indexes backfilled from the final property state.
/// While a graph stays lazy, this overlay — not the records — is the single
/// source of property truth (record `PropMap`s are all empty).
#[derive(Debug, Clone)]
struct Overlay {
    vprops: Vec<PropMap>,
    eprops: Vec<PropMap>,
    indexes: crate::index::IndexRegistry,
}

/// Deferred-decode state: the loader for the cold columns, index
/// declarations known so far (run-declared, then any replayed from the
/// WAL tail), property ops queued from replay, and the once-materialized
/// overlay. Shared by `Arc` so clones of a lazy graph materialize once.
#[derive(Debug)]
struct LazyProps {
    loader: Box<dyn PropLoader>,
    declared: Vec<(VertexKind, Arc<str>)>,
    replay: Vec<WalOp>,
    overlay: OnceLock<Overlay>,
}

/// The mutable property graph store.
#[derive(Debug, Default, Clone)]
pub struct ProvGraph {
    vertices: Vec<VertexRecord>,
    edges: Vec<EdgeRecord>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
    keys: KeyInterner,
    by_kind: [Vec<VertexId>; 3],
    /// All vertices sharing a name, in creation order. Lookup semantics are
    /// "latest version wins" ([`ProvGraph::vertex_by_name`]); earlier ids stay
    /// addressable through [`ProvGraph::versions_of`].
    by_name: FxHashMap<Arc<str>, Vec<VertexId>>,
    indexes: crate::index::IndexRegistry,
    clock: u64,
    /// Pending [`WalOp`]s since the last [`ProvGraph::take_journal`]; only
    /// populated while `journaling` is on (a durable facade drains this into
    /// its write-ahead log after every mutation batch).
    journal: Vec<WalOp>,
    journaling: bool,
    /// Deferred snapshot property columns (lazy decode). `None` on every
    /// eagerly-built graph; property mutators dissolve it back into the
    /// records before touching anything.
    lazy: Option<Arc<LazyProps>>,
}

/// Semantic store equality: every observable column (vertices, edges,
/// adjacency, interner, kind/name indexes, declared property indexes, the
/// birth clock) — but *not* the transient journal state, so a recovered
/// graph (journaling on, journal drained) compares equal to the in-memory
/// twin it must reproduce. A lazily-decoded graph compares by *effective*
/// properties and indexes (this materializes its overlay), so lazy == eager
/// whenever the observable state agrees.
impl PartialEq for ProvGraph {
    fn eq(&self, other: &Self) -> bool {
        let common = self.out_adj == other.out_adj
            && self.in_adj == other.in_adj
            && self.keys == other.keys
            && self.by_kind == other.by_kind
            && self.by_name == other.by_name
            && self.clock == other.clock;
        if !common {
            return false;
        }
        if self.lazy.is_none() && other.lazy.is_none() {
            return self.vertices == other.vertices
                && self.edges == other.edges
                && self.indexes == other.indexes;
        }
        // At least one side is lazy: compare structural fields, then the
        // effective property/index state (forcing materialization).
        self.vertices.len() == other.vertices.len()
            && self.edges.len() == other.edges.len()
            && self
                .vertices
                .iter()
                .zip(&other.vertices)
                .all(|(a, b)| a.kind == b.kind && a.name == b.name && a.birth == b.birth)
            && self
                .edges
                .iter()
                .zip(&other.edges)
                .all(|(a, b)| a.kind == b.kind && a.src == b.src && a.dst == b.dst)
            && self.vertex_ids().all(|v| self.vertex_props(v) == other.vertex_props(v))
            && self.edge_ids().all(|e| self.edge_props(e) == other.edge_props(e))
            && self.effective_indexes() == other.effective_indexes()
    }
}

impl ProvGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current position in the append-only vertex/edge log (see
    /// [`DeltaCursor`]). Snapshots record the cursor they were frozen at;
    /// equality of cursors is the freshness test.
    pub fn cursor(&self) -> DeltaCursor {
        DeltaCursor { vertices: rank_u32(self.vertices.len()), edges: rank_u32(self.edges.len()) }
    }

    /// View of everything appended since `cursor`.
    ///
    /// # Panics
    ///
    /// Panics when `cursor` lies beyond the current log (it was taken from a
    /// different — or a further-grown — graph).
    pub fn delta_since(&self, cursor: DeltaCursor) -> GraphDelta<'_> {
        assert!(
            cursor.vertices as usize <= self.vertices.len()
                && cursor.edges as usize <= self.edges.len(),
            "delta cursor {cursor:?} lies beyond this graph's log \
             ({} vertices, {} edges)",
            self.vertices.len(),
            self.edges.len()
        );
        GraphDelta { graph: self, from: cursor }
    }

    // ------------------------------------------------------------------
    // Vertices
    // ------------------------------------------------------------------

    /// Reject an allocation that would overflow the dense `u32` id space
    /// (the seed silently wrapped `len as u32` past `u32::MAX`).
    fn check_capacity(len: usize, what: &'static str) -> StoreResult<()> {
        if len >= u32::MAX as usize {
            return Err(StoreError::CapacityExceeded { what });
        }
        Ok(())
    }

    /// Check that `extra` more vertices still fit the dense id space.
    /// Multi-vertex ingest paths (e.g. `ProvDb::record_activity`) call this
    /// in their validation phase so a capacity failure surfaces as a typed
    /// error *before* the first mutation instead of mid-record.
    pub fn check_vertex_headroom(&self, extra: usize) -> StoreResult<()> {
        if self.vertices.len().saturating_add(extra) > u32::MAX as usize {
            return Err(StoreError::CapacityExceeded { what: "vertex" });
        }
        Ok(())
    }

    /// Check that `extra` more edges still fit the dense id space (see
    /// [`ProvGraph::check_vertex_headroom`]).
    pub fn check_edge_headroom(&self, extra: usize) -> StoreResult<()> {
        if self.edges.len().saturating_add(extra) > u32::MAX as usize {
            return Err(StoreError::CapacityExceeded { what: "edge" });
        }
        Ok(())
    }

    /// Add a vertex of `kind` with an optional name. Returns its dense id,
    /// or [`StoreError::CapacityExceeded`] once `u32::MAX` ids are in use.
    ///
    /// A duplicate name does not clobber earlier vertices: the new id becomes
    /// the "latest version" answered by [`ProvGraph::vertex_by_name`] while
    /// every prior holder remains reachable via [`ProvGraph::versions_of`].
    pub fn add_vertex(&mut self, kind: VertexKind, name: Option<&str>) -> StoreResult<VertexId> {
        Self::check_capacity(self.vertices.len(), "vertex")?;
        let id = VertexId::new(rank_u32(self.vertices.len()));
        let name_arc: Option<Arc<str>> = name.map(Arc::from);
        if let Some(n) = &name_arc {
            self.by_name.entry(n.clone()).or_default().push(id);
        }
        if self.journaling {
            self.journal.push(WalOp::AddVertex { kind, name: name_arc.clone() });
        }
        self.vertices.push(VertexRecord {
            kind,
            name: name_arc,
            birth: self.clock,
            props: PropMap::new(),
        });
        self.clock += 1;
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.by_kind[kind.as_index()].push(id);
        self.paranoid_check();
        Ok(id)
    }

    /// Convenience: add an Entity. Panics only on id-space exhaustion.
    pub fn add_entity(&mut self, name: &str) -> VertexId {
        self.add_vertex(VertexKind::Entity, Some(name)).expect("vertex id space exhausted")
    }

    /// Convenience: add an Activity. Panics only on id-space exhaustion.
    pub fn add_activity(&mut self, name: &str) -> VertexId {
        self.add_vertex(VertexKind::Activity, Some(name)).expect("vertex id space exhausted")
    }

    /// Convenience: add an Agent. Panics only on id-space exhaustion.
    pub fn add_agent(&mut self, name: &str) -> VertexId {
        self.add_vertex(VertexKind::Agent, Some(name)).expect("vertex id space exhausted")
    }

    /// Constant-time vertex access by id.
    pub fn vertex(&self, id: VertexId) -> &VertexRecord {
        &self.vertices[id.index()]
    }

    /// Checked vertex access.
    pub fn try_vertex(&self, id: VertexId) -> StoreResult<&VertexRecord> {
        self.vertices.get(id.index()).ok_or(StoreError::UnknownVertex(id))
    }

    /// `λv(v)`.
    #[inline]
    pub fn vertex_kind(&self, id: VertexId) -> VertexKind {
        self.vertices[id.index()].kind
    }

    /// Vertex name, if set.
    pub fn vertex_name(&self, id: VertexId) -> Option<&str> {
        self.vertices[id.index()].name.as_deref()
    }

    /// Display label for a vertex: its name, or `kind#id`.
    pub fn display_name(&self, id: VertexId) -> String {
        match self.vertex_name(id) {
            Some(n) => n.to_string(),
            None => format!("{:?}#{}", self.vertex_kind(id), id.raw()),
        }
    }

    /// Find a vertex by exact name; when several vertices share the name the
    /// most recently added one wins (versioned-name addressing).
    pub fn vertex_by_name(&self, name: &str) -> Option<VertexId> {
        self.by_name.get(name).and_then(|ids| ids.last().copied())
    }

    /// Every vertex ever registered under `name`, in creation order (the
    /// last element is what [`ProvGraph::vertex_by_name`] answers). Empty for
    /// unknown names.
    pub fn versions_of(&self, name: &str) -> &[VertexId] {
        self.by_name.get(name).map_or(&[], |ids| ids.as_slice())
    }

    /// All vertices of a kind, in creation order.
    pub fn vertices_of_kind(&self, kind: VertexKind) -> &[VertexId] {
        &self.by_kind[kind.as_index()]
    }

    /// Total vertex count.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Count of vertices of one kind.
    pub fn kind_count(&self, kind: VertexKind) -> usize {
        self.by_kind[kind.as_index()].len()
    }

    /// Iterate all vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> {
        (0..rank_u32(self.vertices.len())).map(VertexId::new)
    }

    // ------------------------------------------------------------------
    // Edges
    // ------------------------------------------------------------------

    /// Add an edge after validating the PROV domain/range rule.
    pub fn add_edge(
        &mut self,
        kind: EdgeKind,
        src: VertexId,
        dst: VertexId,
    ) -> StoreResult<EdgeId> {
        Self::check_capacity(self.edges.len(), "edge")?;
        let src_kind = self.try_vertex(src)?.kind;
        let dst_kind = self.try_vertex(dst)?.kind;
        check_edge_types(kind, src_kind, dst_kind)?;
        let id = EdgeId::new(rank_u32(self.edges.len()));
        if self.journaling {
            self.journal.push(WalOp::AddEdge { kind, src, dst });
        }
        self.edges.push(EdgeRecord { kind, src, dst, props: PropMap::new() });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        self.paranoid_check();
        Ok(id)
    }

    /// Constant-time edge access by id.
    pub fn edge(&self, id: EdgeId) -> &EdgeRecord {
        &self.edges[id.index()]
    }

    /// Checked edge access.
    pub fn try_edge(&self, id: EdgeId) -> StoreResult<&EdgeRecord> {
        self.edges.get(id.index()).ok_or(StoreError::UnknownEdge(id))
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Count of edges of one kind.
    pub fn edge_kind_count(&self, kind: EdgeKind) -> usize {
        self.edges.iter().filter(|e| e.kind == kind).count()
    }

    /// Iterate all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..rank_u32(self.edges.len())).map(EdgeId::new)
    }

    /// Outgoing edges of `v` as `(edge id, record)` pairs.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, &EdgeRecord)> {
        self.out_adj[v.index()].iter().map(|&e| (e, &self.edges[e.index()]))
    }

    /// Incoming edges of `v` as `(edge id, record)` pairs.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, &EdgeRecord)> {
        self.in_adj[v.index()].iter().map(|&e| (e, &self.edges[e.index()]))
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_adj[v.index()].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_adj[v.index()].len()
    }

    /// Out-neighbors reached via edges of `kind`.
    pub fn out_neighbors(
        &self,
        v: VertexId,
        kind: EdgeKind,
    ) -> impl Iterator<Item = VertexId> + '_ {
        self.out_edges(v).filter(move |(_, e)| e.kind == kind).map(|(_, e)| e.dst)
    }

    /// In-neighbors that reach `v` via edges of `kind`.
    pub fn in_neighbors(&self, v: VertexId, kind: EdgeKind) -> impl Iterator<Item = VertexId> + '_ {
        self.in_edges(v).filter(move |(_, e)| e.kind == kind).map(|(_, e)| e.src)
    }

    // ------------------------------------------------------------------
    // Properties
    // ------------------------------------------------------------------

    /// Intern a property key name.
    pub fn key(&mut self, name: &str) -> prov_model::PropKeyId {
        if self.journaling && self.keys.get(name).is_none() {
            self.journal.push(WalOp::InternKey { key: Arc::from(name) });
        }
        self.keys.intern(name)
    }

    /// Look up an interned key without creating it.
    pub fn key_id(&self, name: &str) -> Option<prov_model::PropKeyId> {
        self.keys.get(name)
    }

    /// Resolve a key id back to its name.
    pub fn key_name(&self, id: prov_model::PropKeyId) -> Option<&str> {
        self.keys.resolve(id)
    }

    /// Set a vertex property (`σ(v, p) := o`), maintaining any declared index.
    pub fn set_vprop(&mut self, v: VertexId, key: &str, value: impl Into<PropValue>) {
        self.dissolve_lazy();
        let k = self.keys.intern(key);
        let value = value.into();
        if self.journaling {
            self.journal.push(WalOp::SetVProp { v, key: Arc::from(key), value: value.clone() });
        }
        let kind = self.vertices[v.index()].kind;
        let old = self.vertices[v.index()].props.set(k, value.clone());
        if let Some(index) = self.indexes.get_mut(kind, k) {
            if let Some(old) = old {
                index.remove(&old, v);
            }
            index.insert(value, v);
        }
    }

    /// Get a vertex property by key name (`σ(v, p)`).
    pub fn vprop(&self, v: VertexId, key: &str) -> Option<&PropValue> {
        let k = self.keys.get(key)?;
        self.vertex_props(v).get(k)
    }

    /// Remove a vertex property (`σ(v, p) := ⊥`), returning the previous
    /// value and keeping any declared `(kind, key)` index in sync — the
    /// removal twin of [`ProvGraph::set_vprop`], so an indexed lookup never
    /// answers a value the vertex no longer carries.
    pub fn unset_vprop(&mut self, v: VertexId, key: &str) -> Option<PropValue> {
        self.dissolve_lazy();
        let k = self.keys.get(key)?;
        let kind = self.vertices[v.index()].kind;
        let old = self.vertices[v.index()].props.unset(k)?;
        if self.journaling {
            self.journal.push(WalOp::UnsetVProp { v, key: Arc::from(key) });
        }
        if let Some(index) = self.indexes.get_mut(kind, k) {
            index.remove(&old, v);
        }
        Some(old)
    }

    /// Set an edge property (`ω(e, p) := o`).
    pub fn set_eprop(&mut self, e: EdgeId, key: &str, value: impl Into<PropValue>) {
        self.dissolve_lazy();
        let k = self.keys.intern(key);
        let value = value.into();
        if self.journaling {
            self.journal.push(WalOp::SetEProp { e, key: Arc::from(key), value: value.clone() });
        }
        self.edges[e.index()].props.set(k, value);
    }

    /// Get an edge property by key name (`ω(e, p)`).
    pub fn eprop(&self, e: EdgeId, key: &str) -> Option<&PropValue> {
        let k = self.keys.get(key)?;
        self.edge_props(e).get(k)
    }

    /// Effective property map of a vertex: the lazy overlay's entry when
    /// deferred columns are attached (materializing them on first touch),
    /// the record's own map otherwise. Vertices added after materialization
    /// fall through to their (empty) record map — any property *write*
    /// dissolves the overlay first, so the record map is authoritative there.
    pub fn vertex_props(&self, v: VertexId) -> &PropMap {
        if let Some(ov) = self.lazy_overlay() {
            if let Some(m) = ov.vprops.get(v.index()) {
                return m;
            }
        }
        &self.vertices[v.index()].props
    }

    /// Effective property map of an edge (see [`ProvGraph::vertex_props`]).
    pub fn edge_props(&self, e: EdgeId) -> &PropMap {
        if let Some(ov) = self.lazy_overlay() {
            if let Some(m) = ov.eprops.get(e.index()) {
                return m;
            }
        }
        &self.edges[e.index()].props
    }

    /// Access the key interner (read-only).
    pub fn interner(&self) -> &KeyInterner {
        &self.keys
    }

    /// Vertices of `kind` whose property `key` equals `value`, in ascending
    /// id (= creation) order.
    ///
    /// Routing contract: whenever an index is declared for `(kind, key)` the
    /// lookup is a hash probe — including indexes declared *after* the
    /// property writes, because [`ProvGraph::create_vprop_index`] backfills
    /// from the existing vertices at declaration time. Only a genuinely
    /// unindexed `(kind, key)` pair falls back to the linear scan of the
    /// kind's vertices, and both paths answer identically (the differential
    /// test in `tests/find_by_prop_differential.rs` pins this).
    pub fn find_by_prop(&self, kind: VertexKind, key: &str, value: &PropValue) -> Vec<VertexId> {
        let Some(k) = self.keys.get(key) else { return Vec::new() };
        if let Some(index) = self.effective_indexes().get(kind, k) {
            return index.get(value).to_vec();
        }
        self.vertices_of_kind(kind)
            .iter()
            .copied()
            .filter(|&v| self.vertex_props(v).get(k) == Some(value))
            .collect()
    }

    /// Declare (and backfill) a secondary index on `(kind, key)` — the
    /// Neo4j-style schema index. Subsequent `set_vprop` calls keep it fresh.
    pub fn create_vprop_index(&mut self, kind: VertexKind, key: &str) {
        self.dissolve_lazy();
        let k = self.keys.intern(key);
        if self.indexes.has(kind, k) {
            // No state change (the key was necessarily interned before the
            // index was declared), so nothing to journal either.
            return;
        }
        if self.journaling {
            self.journal.push(WalOp::CreateVPropIndex { kind, key: Arc::from(key) });
        }
        // Collect existing values first (borrow discipline), then fill.
        let existing: Vec<(VertexId, PropValue)> = self.by_kind[kind.as_index()]
            .iter()
            .filter_map(|&v| self.vertices[v.index()].props.get(k).cloned().map(|p| (v, p)))
            .collect();
        let index = self.indexes.declare(kind, k);
        for (v, value) in existing {
            index.insert(value, v);
        }
    }

    /// Is `(kind, key)` covered by a secondary index? On a lazy graph this
    /// consults the pending declaration list *without* materializing.
    pub fn has_vprop_index(&self, kind: VertexKind, key: &str) -> bool {
        let Some(k) = self.keys.get(key) else { return false };
        if let Some(lazy) = &self.lazy {
            if let Some(ov) = lazy.overlay.get() {
                return ov.indexes.has(kind, k);
            }
            return lazy
                .declared
                .iter()
                .any(|(dk, dkey)| *dk == kind && self.keys.get(dkey) == Some(k));
        }
        self.indexes.has(kind, k)
    }

    /// Every declared secondary index as sorted `(kind, key)` pairs — what a
    /// columnar snapshot persists. On a lazy graph this consults the pending
    /// declaration list *without* materializing.
    pub fn declared_vprop_indexes(&self) -> Vec<(VertexKind, prov_model::PropKeyId)> {
        if let Some(lazy) = &self.lazy {
            if let Some(ov) = lazy.overlay.get() {
                return ov.indexes.declared();
            }
            let mut pairs: Vec<(VertexKind, prov_model::PropKeyId)> = lazy
                .declared
                .iter()
                .filter_map(|(kind, key)| self.keys.get(key).map(|k| (*kind, k)))
                .collect();
            pairs.sort();
            pairs.dedup();
            return pairs;
        }
        self.indexes.declared()
    }

    // ------------------------------------------------------------------
    // Deferred snapshot columns (lazy decode)
    // ------------------------------------------------------------------

    /// Attach deferred snapshot property columns to a structurally-decoded
    /// graph. `declared` lists the snapshot's secondary-index declarations
    /// (their keys are already in the interner — the interner column is
    /// structural). Called by the storage layer's lazy `recover()` path;
    /// the graph must carry no properties or indexes yet.
    pub fn attach_lazy_props(
        &mut self,
        loader: Box<dyn PropLoader>,
        declared: Vec<(VertexKind, Arc<str>)>,
    ) {
        debug_assert!(self.lazy.is_none(), "deferred columns already attached");
        debug_assert!(self.indexes.is_empty(), "lazy attach onto a graph with live indexes");
        self.lazy = Some(Arc::new(LazyProps {
            loader,
            declared,
            replay: Vec::new(),
            overlay: OnceLock::new(),
        }));
    }

    /// True while deferred snapshot columns are attached (whether or not the
    /// overlay has materialized) — i.e. properties live outside the records.
    pub fn has_deferred_props(&self) -> bool {
        self.lazy.is_some()
    }

    /// True while the deferred columns have not been loaded yet — the state
    /// a cold start pays nothing for.
    pub fn deferred_props_untouched(&self) -> bool {
        self.lazy.as_ref().is_some_and(|l| l.overlay.get().is_none())
    }

    /// Load the deferred columns now if they are still on disk (a no-op on
    /// eager or already-loaded graphs) — the storage engine calls this
    /// before it deletes a file the loader reads.
    pub fn load_deferred_props(&self) {
        let _ = self.lazy_overlay();
    }

    /// The effective secondary-index registry: the overlay's when deferred
    /// columns are attached (materializing on first call), the store's own
    /// otherwise.
    fn effective_indexes(&self) -> &crate::index::IndexRegistry {
        match self.lazy_overlay() {
            Some(ov) => &ov.indexes,
            None => &self.indexes,
        }
    }

    /// The materialized overlay, if deferred columns are attached — loading
    /// and replaying them on the first call (`OnceLock`, so clones sharing
    /// the `Arc` materialize once).
    fn lazy_overlay(&self) -> Option<&Overlay> {
        let lazy = self.lazy.as_ref()?;
        Some(lazy.overlay.get_or_init(|| self.build_overlay(lazy)))
    }

    /// Load the deferred columns and replay the queued WAL-tail property ops
    /// over them, then backfill every declared index from the final property
    /// state. The result is exactly the property/index state an eager decode
    /// plus eager replay would have produced: replay order is preserved, and
    /// index backfill from final values matches incremental maintenance
    /// because [`crate::index::PropIndex`] keeps ids sorted.
    fn build_overlay(&self, lazy: &LazyProps) -> Overlay {
        let cols = lazy.loader.load().unwrap_or_else(|e| {
            panic!("deferred snapshot columns failed to load on first touch: {e}")
        });
        let mut vprops = vec![PropMap::new(); self.vertices.len()];
        let mut eprops = vec![PropMap::new(); self.edges.len()];
        for (v, k, value) in cols.vprops {
            match vprops.get_mut(v.index()) {
                Some(m) => {
                    m.set(k, value);
                }
                None => panic!("deferred vertex-property column names unknown vertex {v}"),
            }
        }
        for (e, k, value) in cols.eprops {
            match eprops.get_mut(e.index()) {
                Some(m) => {
                    m.set(k, value);
                }
                None => panic!("deferred edge-property column names unknown edge {e}"),
            }
        }
        for op in &lazy.replay {
            match op {
                WalOp::SetVProp { v, key, value } => {
                    // Queueing interned the key, so lookup cannot miss.
                    if let Some(k) = self.keys.get(key) {
                        vprops[v.index()].set(k, value.clone());
                    }
                }
                WalOp::UnsetVProp { v, key } => {
                    // A never-interned key was a no-op on the eager path too.
                    if let Some(k) = self.keys.get(key) {
                        vprops[v.index()].unset(k);
                    }
                }
                WalOp::SetEProp { e, key, value } => {
                    if let Some(k) = self.keys.get(key) {
                        eprops[e.index()].set(k, value.clone());
                    }
                }
                _ => unreachable!("only property ops are queued for lazy replay"),
            }
        }
        let mut indexes = crate::index::IndexRegistry::default();
        for (kind, key) in &lazy.declared {
            let Some(k) = self.keys.get(key) else { continue };
            if indexes.has(*kind, k) {
                continue;
            }
            let members = &self.by_kind[kind.as_index()];
            let index = indexes.declare(*kind, k);
            for &v in members {
                if let Some(value) = vprops.get(v.index()).and_then(|m| m.get(k)) {
                    index.insert(value.clone(), v);
                }
            }
        }
        Overlay { vprops, eprops, indexes }
    }

    /// Fold a materialized overlay back into the records and detach the lazy
    /// state — called by every property/index mutator before it touches
    /// anything, so the eager representation is authoritative from the first
    /// write onward. No-op on eager graphs.
    fn dissolve_lazy(&mut self) {
        if self.lazy.is_none() {
            return;
        }
        let _ = self.lazy_overlay(); // force materialization
        let lazy = self.lazy.take().expect("lazy state checked above");
        let overlay = match Arc::try_unwrap(lazy) {
            Ok(owned) => owned.overlay.into_inner().expect("overlay just materialized"),
            Err(shared) => shared.overlay.get().expect("overlay just materialized").clone(),
        };
        for (rec, props) in self.vertices.iter_mut().zip(overlay.vprops) {
            rec.props = props;
        }
        for (rec, props) in self.edges.iter_mut().zip(overlay.eprops) {
            rec.props = props;
        }
        self.indexes = overlay.indexes;
    }

    // ------------------------------------------------------------------
    // Write-ahead journaling
    // ------------------------------------------------------------------

    /// Turn [`WalOp`] journaling on or off. Off by default: a purely
    /// in-memory store pays nothing. A durable facade turns it on and drains
    /// the journal into its write-ahead log after every mutation batch.
    pub fn set_journaling(&mut self, on: bool) {
        self.journaling = on;
    }

    /// Is journaling enabled?
    pub fn journaling(&self) -> bool {
        self.journaling
    }

    /// Number of pending (not yet drained) journal ops.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Drain the pending journal: every op recorded since the previous call,
    /// in mutation order.
    pub fn take_journal(&mut self) -> Vec<WalOp> {
        std::mem::take(&mut self.journal)
    }

    /// Replay one journaled op through the ordinary mutators.
    ///
    /// Ids referenced by the op are bounds-checked first so a CRC-valid but
    /// semantically impossible record surfaces as a typed error instead of an
    /// index panic (the storage layer maps it to
    /// [`StoreError::CorruptLog`][crate::StoreError]). Replay is exact: ops
    /// applied in journal order onto an equal prefix reproduce the original
    /// graph including births, interner ids, and index contents. The replay
    /// target usually has journaling *off*; when it is on, replayed ops are
    /// re-journaled like any other mutation.
    pub fn apply_wal_op(&mut self, op: &WalOp) -> StoreResult<()> {
        if self.queue_lazy_op(op)? {
            return Ok(());
        }
        match op {
            WalOp::AddVertex { kind, name } => {
                self.add_vertex(*kind, name.as_deref())?;
            }
            WalOp::AddEdge { kind, src, dst } => {
                self.add_edge(*kind, *src, *dst)?;
            }
            WalOp::SetVProp { v, key, value } => {
                self.try_vertex(*v)?;
                self.set_vprop(*v, key, value.clone());
            }
            WalOp::UnsetVProp { v, key } => {
                self.try_vertex(*v)?;
                self.unset_vprop(*v, key);
            }
            WalOp::SetEProp { e, key, value } => {
                self.try_edge(*e)?;
                self.set_eprop(*e, key, value.clone());
            }
            WalOp::CreateVPropIndex { kind, key } => {
                self.create_vprop_index(*kind, key);
            }
            WalOp::InternKey { key } => {
                self.key(key);
            }
        }
        Ok(())
    }

    /// While deferred columns are attached and unmaterialized, property ops
    /// replayed from the WAL tail are *queued* (for application at
    /// materialization time) instead of applied — structural ops fall
    /// through to the eager path, which never touches properties. Returns
    /// `Ok(true)` when the op was queued. Bounds checks and key interning
    /// happen at queue time so typed replay errors and interner id
    /// assignment match the eager path exactly.
    fn queue_lazy_op(&mut self, op: &WalOp) -> StoreResult<bool> {
        let queueable =
            !self.journaling && self.lazy.as_ref().is_some_and(|l| l.overlay.get().is_none());
        if !queueable {
            return Ok(false);
        }
        match op {
            WalOp::SetVProp { v, key, .. } => {
                self.try_vertex(*v)?;
                self.keys.intern(key);
            }
            WalOp::UnsetVProp { v, .. } => {
                // The eager path does not intern on unset.
                self.try_vertex(*v)?;
            }
            WalOp::SetEProp { e, key, .. } => {
                self.try_edge(*e)?;
                self.keys.intern(key);
            }
            WalOp::CreateVPropIndex { key, .. } => {
                self.keys.intern(key);
            }
            _ => return Ok(false),
        }
        let lazy = self.lazy.as_mut().expect("queueable implies lazy state");
        let Some(l) = Arc::get_mut(lazy) else {
            // The lazy state is shared with a clone: fall back to the eager
            // path, which dissolves the overlay before mutating.
            return Ok(false);
        };
        match op {
            WalOp::CreateVPropIndex { kind, key } => l.declared.push((*kind, key.clone())),
            _ => l.replay.push(op.clone()),
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Check every structural invariant of the store, naming the first
    /// violated one in the error.
    ///
    /// The catalog (see DESIGN.md §8):
    ///
    /// * adjacency columns are as long as the vertex column, every row entry
    ///   names an existing edge anchored at that vertex, rows stay in edge-id
    ///   (insertion) order, and each direction covers every edge exactly once;
    /// * births are strictly increasing and the clock sits beyond the last;
    /// * every edge satisfies the PROV domain/range rule it was admitted
    ///   under;
    /// * the kind index partitions the vertices (right kind, creation order,
    ///   all `n` covered);
    /// * the name index is exactly the named vertices: versions in creation
    ///   order, each entry carrying the name it is filed under.
    ///
    /// `O(|V| + |E|)`. Under the `paranoid` feature it runs automatically
    /// after every mutation. This checks *representation* invariants;
    /// acyclicity (a property of the data, not the encoding) stays a
    /// separate, on-demand check ([`ProvGraph::validate_acyclic`]).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.vertices.len();
        if self.out_adj.len() != n || self.in_adj.len() != n {
            return Err(format!(
                "adjacency columns disagree with {n} vertices: {} out rows, {} in rows",
                self.out_adj.len(),
                self.in_adj.len()
            ));
        }
        if let Some(i) = (1..n).find(|&i| self.vertices[i - 1].birth >= self.vertices[i].birth) {
            return Err(format!(
                "births not strictly increasing at vertex {i} ({} then {})",
                self.vertices[i - 1].birth,
                self.vertices[i].birth
            ));
        }
        if let Some(last) = self.vertices.last() {
            if last.birth >= self.clock {
                return Err(format!(
                    "clock {} not beyond the last birth {}",
                    self.clock, last.birth
                ));
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.src.index() >= n || e.dst.index() >= n {
                return Err(format!(
                    "edge {i} endpoints {} -> {} out of bounds (n = {n})",
                    e.src, e.dst
                ));
            }
            let (sk, dk) = (self.vertices[e.src.index()].kind, self.vertices[e.dst.index()].kind);
            if check_edge_types(e.kind, sk, dk).is_err() {
                return Err(format!(
                    "edge {i} ({sk:?} -> {dk:?}) violates the {:?} domain/range rule",
                    e.kind
                ));
            }
        }
        // Each adjacency direction: anchored entries in ascending edge-id
        // order, totalling |E| — together a bijection onto the edge column.
        for (dir, rows) in [("out_adj", &self.out_adj), ("in_adj", &self.in_adj)] {
            let mut total = 0usize;
            for (v, row) in rows.iter().enumerate() {
                total += row.len();
                for &eid in row {
                    let anchor = match self.edges.get(eid.index()) {
                        Some(e) if dir == "out_adj" => e.src,
                        Some(e) => e.dst,
                        None => {
                            return Err(format!("{dir} row of vertex {v} names unknown edge {eid}"))
                        }
                    };
                    if anchor.index() != v {
                        return Err(format!(
                            "{dir} row of vertex {v} holds edge {eid} anchored at {anchor}"
                        ));
                    }
                }
                if row.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("{dir} row of vertex {v} not in edge-id order"));
                }
            }
            if total != self.edges.len() {
                return Err(format!(
                    "{dir} rows hold {total} entries for {} edges",
                    self.edges.len()
                ));
            }
        }
        // Kind index: a partition of the vertices in creation order.
        let mut covered = 0usize;
        for kind in VertexKind::ALL {
            let members = &self.by_kind[kind.as_index()];
            covered += members.len();
            if members.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("by_kind[{kind:?}] not in creation order"));
            }
            for &v in members {
                if v.index() >= n {
                    return Err(format!("by_kind[{kind:?}] member {v} out of bounds"));
                }
                if self.vertices[v.index()].kind != kind {
                    return Err(format!(
                        "by_kind[{kind:?}] member {v} has kind {:?}",
                        self.vertices[v.index()].kind
                    ));
                }
            }
        }
        if covered != n {
            return Err(format!("by_kind covers {covered} of {n} vertices"));
        }
        // Name index: exactly the named vertices, versions in creation order.
        let mut filed = 0usize;
        for (name, ids) in &self.by_name {
            if ids.is_empty() {
                return Err(format!("by_name[{name:?}] is empty"));
            }
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("versions of {name:?} not in creation order"));
            }
            filed += ids.len();
            for &v in ids {
                if v.index() >= n {
                    return Err(format!("by_name[{name:?}] member {v} out of bounds"));
                }
                if self.vertices[v.index()].name.as_deref() != Some(&**name) {
                    return Err(format!(
                        "by_name[{name:?}] member {v} is named {:?}",
                        self.vertices[v.index()].name
                    ));
                }
            }
        }
        let named = self.vertices.iter().filter(|v| v.name.is_some()).count();
        if filed != named {
            return Err(format!("name index files {filed} entries for {named} named vertices"));
        }
        Ok(())
    }

    /// Under the `paranoid` feature, panic on any violated store invariant;
    /// compiled to nothing otherwise.
    #[inline]
    fn paranoid_check(&self) {
        #[cfg(feature = "paranoid")]
        if let Err(violation) = self.validate() {
            panic!("paranoid graph validation failed: {violation}");
        }
    }

    /// Check acyclicity (Definition 1 requires a DAG) via Kahn's algorithm.
    pub fn validate_acyclic(&self) -> StoreResult<()> {
        let n = self.vertices.len();
        let mut indeg: Vec<u32> = vec![0; n];
        for e in &self.edges {
            indeg[e.dst.index()] += 1;
        }
        let mut queue: Vec<VertexId> =
            self.vertex_ids().filter(|v| indeg[v.index()] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &eid in &self.out_adj[v.index()] {
                let d = self.edges[eid.index()].dst;
                indeg[d.index()] -= 1;
                if indeg[d.index()] == 0 {
                    queue.push(d);
                }
            }
        }
        if seen == n {
            Ok(())
        } else {
            let on = self
                .vertex_ids()
                .find(|v| indeg[v.index()] > 0)
                .expect("cycle vertex exists when seen < n");
            Err(StoreError::CycleDetected { on })
        }
    }

    /// A topological order of the vertices (ancestors last, since PROV edges
    /// point from later things to earlier things). Errors on cycles.
    pub fn topological_order(&self) -> StoreResult<Vec<VertexId>> {
        self.validate_acyclic()?;
        let n = self.vertices.len();
        let mut indeg: Vec<u32> = vec![0; n];
        for e in &self.edges {
            indeg[e.dst.index()] += 1;
        }
        let mut queue: std::collections::VecDeque<VertexId> =
            self.vertex_ids().filter(|v| indeg[v.index()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &eid in &self.out_adj[v.index()] {
                let d = self.edges[eid.index()].dst;
                indeg[d.index()] -= 1;
                if indeg[d.index()] == 0 {
                    queue.push_back(d);
                }
            }
        }
        Ok(order)
    }

    /// Summary statistics used by benchmarks and examples.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            vertices: self.vertex_count(),
            entities: self.kind_count(VertexKind::Entity),
            activities: self.kind_count(VertexKind::Activity),
            agents: self.kind_count(VertexKind::Agent),
            edges: self.edge_count(),
            used: self.edge_kind_count(EdgeKind::Used),
            generated: self.edge_kind_count(EdgeKind::WasGeneratedBy),
        }
    }
}

/// Coarse statistics of a provenance graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Total vertices.
    pub vertices: usize,
    /// `|E|` — entities.
    pub entities: usize,
    /// `|A|` — activities.
    pub activities: usize,
    /// `|U|` — agents.
    pub agents: usize,
    /// Total edges.
    pub edges: usize,
    /// `|U|`-edges — used.
    pub used: usize,
    /// `|G|`-edges — wasGeneratedBy.
    pub generated: usize,
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} (E={}, A={}, Ag={})  |edges|={} (U={}, G={})",
            self.vertices,
            self.entities,
            self.activities,
            self.agents,
            self.edges,
            self.used,
            self.generated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (ProvGraph, VertexId, VertexId, VertexId) {
        // alice --S<-- train --U--> data ; weights --G--> train
        let mut g = ProvGraph::new();
        let data = g.add_entity("data-v1");
        let alice = g.add_agent("alice");
        let train = g.add_activity("train-v1");
        let weights = g.add_entity("weights-v1");
        g.add_edge(EdgeKind::Used, train, data).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, weights, train).unwrap();
        g.add_edge(EdgeKind::WasAssociatedWith, train, alice).unwrap();
        (g, data, train, weights)
    }

    #[test]
    fn add_and_access_vertices() {
        let (g, data, train, _) = tiny();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.vertex_kind(data), VertexKind::Entity);
        assert_eq!(g.vertex_kind(train), VertexKind::Activity);
        assert_eq!(g.vertex_name(train), Some("train-v1"));
        assert_eq!(g.vertex_by_name("alice").map(|v| g.vertex_kind(v)), Some(VertexKind::Agent));
        assert_eq!(g.kind_count(VertexKind::Entity), 2);
        assert!(g.try_vertex(VertexId::new(99)).is_err());
    }

    #[test]
    fn duplicate_names_keep_all_versions_latest_wins() {
        let mut g = ProvGraph::new();
        let v1 = g.add_entity("model");
        let other = g.add_entity("data");
        let v2 = g.add_entity("model");
        let v3 = g.add_entity("model");
        // Latest version wins for plain lookup…
        assert_eq!(g.vertex_by_name("model"), Some(v3));
        // …but earlier ids are not clobbered.
        assert_eq!(g.versions_of("model"), &[v1, v2, v3]);
        assert_eq!(g.versions_of("data"), &[other]);
        assert!(g.versions_of("nope").is_empty());
    }

    #[test]
    fn id_capacity_is_checked_not_wrapped() {
        // Mocked length check: the guard itself must reject u32::MAX ids
        // (allocating 4 billion vertices to prove it is not an option).
        assert!(ProvGraph::check_capacity(0, "vertex").is_ok());
        assert!(ProvGraph::check_capacity(u32::MAX as usize - 1, "vertex").is_ok());
        assert!(matches!(
            ProvGraph::check_capacity(u32::MAX as usize, "vertex"),
            Err(StoreError::CapacityExceeded { what: "vertex" })
        ));
        assert!(matches!(
            ProvGraph::check_capacity(usize::MAX, "edge"),
            Err(StoreError::CapacityExceeded { what: "edge" })
        ));
        // Headroom variants used by multi-vertex ingest validation.
        let g = ProvGraph::new();
        assert!(g.check_vertex_headroom(u32::MAX as usize).is_ok());
        assert!(matches!(
            g.check_vertex_headroom(u32::MAX as usize + 1),
            Err(StoreError::CapacityExceeded { what: "vertex" })
        ));
        assert!(g.check_edge_headroom(17).is_ok());
        assert!(matches!(
            g.check_edge_headroom(usize::MAX),
            Err(StoreError::CapacityExceeded { what: "edge" })
        ));
    }

    #[test]
    fn birth_is_monotonic() {
        let (g, ..) = tiny();
        let births: Vec<u64> = g.vertex_ids().map(|v| g.vertex(v).birth).collect();
        assert_eq!(births, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edges_validate_prov_types() {
        let mut g = ProvGraph::new();
        let e = g.add_entity("e");
        let a = g.add_activity("a");
        // used must be Activity -> Entity
        assert!(g.add_edge(EdgeKind::Used, a, e).is_ok());
        assert!(matches!(g.add_edge(EdgeKind::Used, e, a), Err(StoreError::InvalidEdge(_))));
        // generated must be Entity -> Activity
        assert!(g.add_edge(EdgeKind::WasGeneratedBy, e, a).is_ok());
        assert!(matches!(
            g.add_edge(EdgeKind::WasGeneratedBy, a, e),
            Err(StoreError::InvalidEdge(_))
        ));
    }

    #[test]
    fn adjacency_both_directions() {
        let (g, data, train, weights) = tiny();
        let out: Vec<VertexId> = g.out_neighbors(train, EdgeKind::Used).collect();
        assert_eq!(out, vec![data]);
        let gen_in: Vec<VertexId> = g.in_neighbors(train, EdgeKind::WasGeneratedBy).collect();
        assert_eq!(gen_in, vec![weights]);
        assert_eq!(g.out_degree(train), 2); // used + associated
        assert_eq!(g.in_degree(train), 1); // generated-by
    }

    #[test]
    fn properties_round_trip() {
        let (mut g, data, train, _) = tiny();
        g.set_vprop(train, "command", "train -gpu");
        g.set_vprop(data, "url", "http://example.org/ds");
        g.set_vprop(data, "size", 12345i64);
        assert_eq!(g.vprop(train, "command").and_then(|v| v.as_str()), Some("train -gpu"));
        assert_eq!(g.vprop(data, "size").and_then(|v| v.as_int()), Some(12345));
        assert_eq!(g.vprop(data, "missing"), None);

        let eid = EdgeId::new(0);
        g.set_eprop(eid, "role", "input");
        assert_eq!(g.eprop(eid, "role").and_then(|v| v.as_str()), Some("input"));
    }

    #[test]
    fn find_by_prop_scans_kind() {
        let (mut g, data, _, weights) = tiny();
        g.set_vprop(data, "tag", "raw");
        g.set_vprop(weights, "tag", "model");
        let hits = g.find_by_prop(VertexKind::Entity, "tag", &PropValue::from("raw"));
        assert_eq!(hits, vec![data]);
        assert!(g.find_by_prop(VertexKind::Entity, "nope", &PropValue::from("raw")).is_empty());
    }

    #[test]
    fn secondary_index_matches_scan_and_tracks_updates() {
        let (mut g, data, _, weights) = tiny();
        g.set_vprop(data, "tag", "raw");
        g.set_vprop(weights, "tag", "model");
        // Scan result before the index exists.
        let scan = g.find_by_prop(VertexKind::Entity, "tag", &PropValue::from("raw"));
        g.create_vprop_index(VertexKind::Entity, "tag");
        assert!(g.has_vprop_index(VertexKind::Entity, "tag"));
        assert!(!g.has_vprop_index(VertexKind::Activity, "tag"));
        // Backfilled index agrees with the scan.
        assert_eq!(g.find_by_prop(VertexKind::Entity, "tag", &PropValue::from("raw")), scan);
        // Updates move entries between values.
        g.set_vprop(data, "tag", "clean");
        assert!(g.find_by_prop(VertexKind::Entity, "tag", &PropValue::from("raw")).is_empty());
        assert_eq!(
            g.find_by_prop(VertexKind::Entity, "tag", &PropValue::from("clean")),
            vec![data]
        );
        // New vertices added after declaration are indexed too.
        let extra = g.add_entity("extra");
        g.set_vprop(extra, "tag", "clean");
        assert_eq!(
            g.find_by_prop(VertexKind::Entity, "tag", &PropValue::from("clean")),
            vec![data, extra]
        );
        // Re-declaring is a no-op.
        g.create_vprop_index(VertexKind::Entity, "tag");
        assert_eq!(
            g.find_by_prop(VertexKind::Entity, "tag", &PropValue::from("clean")),
            vec![data, extra]
        );
    }

    #[test]
    fn acyclicity_detects_cycles() {
        let (g, ..) = tiny();
        assert!(g.validate_acyclic().is_ok());

        let mut g2 = ProvGraph::new();
        let e1 = g2.add_entity("e1");
        let e2 = g2.add_entity("e2");
        g2.add_edge(EdgeKind::WasDerivedFrom, e1, e2).unwrap();
        g2.add_edge(EdgeKind::WasDerivedFrom, e2, e1).unwrap();
        assert!(matches!(g2.validate_acyclic(), Err(StoreError::CycleDetected { .. })));
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, ..) = tiny();
        let order = g.topological_order().unwrap();
        let pos: FxHashMap<VertexId, usize> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for eid in g.edge_ids() {
            let e = g.edge(eid);
            assert!(pos[&e.src] < pos[&e.dst], "edge {eid} out of order");
        }
    }

    /// Hand-corrupt private store state and check `validate` names the
    /// broken invariant (ISSUE 7 acceptance; the snapshot twin lives in
    /// `csr::tests::corruption`).
    mod corruption {
        use super::*;

        #[track_caller]
        fn assert_names(g: &ProvGraph, needle: &str) {
            let violation = g.validate().expect_err("corruption must be caught");
            assert!(violation.contains(needle), "violation {violation:?} does not name {needle:?}");
        }

        #[test]
        fn pristine_store_validates() {
            let (g, ..) = tiny();
            g.validate().expect("freshly built store is valid");
            ProvGraph::new().validate().expect("empty store is valid");
        }

        #[test]
        fn adjacency_column_truncated() {
            let (mut g, ..) = tiny();
            g.out_adj.pop();
            assert_names(&g, "adjacency columns disagree");
        }

        #[test]
        fn birth_order_swap() {
            let (mut g, ..) = tiny();
            let b0 = g.vertices[0].birth;
            g.vertices[0].birth = g.vertices[1].birth;
            g.vertices[1].birth = b0;
            assert_names(&g, "births not strictly increasing");
        }

        #[test]
        fn clock_behind_births() {
            let (mut g, ..) = tiny();
            g.clock = 0;
            assert_names(&g, "clock");
        }

        #[test]
        fn edge_retyped_against_prov_rule() {
            let (mut g, ..) = tiny();
            // Edge 0 is Used (Activity -> Entity); WasGeneratedBy requires
            // Entity -> Activity.
            g.edges[0].kind = EdgeKind::WasGeneratedBy;
            assert_names(&g, "domain/range");
        }

        #[test]
        fn adjacency_row_wrong_anchor() {
            let (mut g, ..) = tiny();
            // Move edge 0 out of its source's row into another vertex's.
            let eid = g.out_adj[2].remove(0);
            g.out_adj[0].push(eid);
            assert_names(&g, "anchored at");
        }

        #[test]
        fn adjacency_entry_lost() {
            let (mut g, ..) = tiny();
            g.in_adj[0].clear();
            assert_names(&g, "in_adj rows hold");
        }

        #[test]
        fn kind_index_mismatch() {
            let (mut g, ..) = tiny();
            // Vertex 0 is an entity; file it under agents instead.
            let v = g.by_kind[VertexKind::Entity.as_index()].remove(0);
            g.by_kind[VertexKind::Agent.as_index()].insert(0, v);
            assert_names(&g, "has kind");
        }

        #[test]
        fn name_index_stale_entry() {
            let (mut g, ..) = tiny();
            let ids = g.by_name.get_mut("alice").unwrap();
            ids[0] = VertexId::new(0); // vertex 0 is named "data-v1"
            assert_names(&g, "is named");
        }

        #[test]
        fn name_index_dropped_version() {
            let (mut g, ..) = tiny();
            g.by_name.remove("alice");
            assert_names(&g, "name index files");
        }
    }

    /// The WAL journal: every mutator records exactly its state transition,
    /// and replaying the journal reproduces the graph exactly (PR 9).
    mod journal {
        use super::*;

        fn journaled_tiny() -> (ProvGraph, Vec<WalOp>) {
            let mut g = ProvGraph::new();
            g.set_journaling(true);
            assert!(g.journaling());
            let data = g.add_entity("data-v1");
            let train = g.add_activity("train");
            g.add_edge(EdgeKind::Used, train, data).unwrap();
            g.set_vprop(data, "tag", "raw");
            g.set_vprop(train, "command", "train -gpu");
            g.set_eprop(EdgeId::new(0), "role", "input");
            g.create_vprop_index(VertexKind::Entity, "tag");
            g.key("declared-early");
            g.unset_vprop(train, "command");
            let ops = g.take_journal();
            (g, ops)
        }

        #[test]
        fn replay_reproduces_graph_exactly() {
            let (g, ops) = journaled_tiny();
            assert_eq!(ops.len(), 9);
            let mut replayed = ProvGraph::new();
            for op in &ops {
                replayed.apply_wal_op(op).unwrap();
            }
            assert_eq!(replayed, g);
            // Exactness includes interner id assignment…
            assert_eq!(replayed.key_id("declared-early"), g.key_id("declared-early"));
            // …and the declared index set.
            assert_eq!(replayed.declared_vprop_indexes(), g.declared_vprop_indexes());
            replayed.validate().unwrap();
        }

        #[test]
        fn journal_drains_and_noop_mutations_record_nothing() {
            let (mut g, _) = journaled_tiny();
            assert_eq!(g.journal_len(), 0, "take_journal drained");
            // No-ops journal nothing: a missed unset, a re-declared index, a
            // re-interned key.
            g.unset_vprop(VertexId::new(1), "command");
            g.create_vprop_index(VertexKind::Entity, "tag");
            g.key("tag");
            assert_eq!(g.take_journal(), Vec::new());
        }

        #[test]
        fn journaling_off_records_nothing_and_equality_ignores_journal() {
            let mut quiet = ProvGraph::new();
            quiet.add_entity("data-v1");
            assert_eq!(quiet.journal_len(), 0);
            let mut noisy = ProvGraph::new();
            noisy.set_journaling(true);
            noisy.add_entity("data-v1");
            assert_eq!(noisy.journal_len(), 1);
            // Same semantic store, different journal state: still equal.
            assert_eq!(quiet, noisy);
        }

        #[test]
        fn replay_of_impossible_ops_is_a_typed_error() {
            let mut g = ProvGraph::new();
            let bad_vertex = WalOp::SetVProp {
                v: VertexId::new(7),
                key: Arc::from("tag"),
                value: PropValue::from("x"),
            };
            assert!(matches!(g.apply_wal_op(&bad_vertex), Err(StoreError::UnknownVertex(_))));
            let bad_edge =
                WalOp::SetEProp { e: EdgeId::new(0), key: Arc::from("role"), value: 1i64.into() };
            assert!(matches!(g.apply_wal_op(&bad_edge), Err(StoreError::UnknownEdge(_))));
            let bad_endpoint = WalOp::AddEdge {
                kind: EdgeKind::Used,
                src: VertexId::new(0),
                dst: VertexId::new(1),
            };
            assert!(g.apply_wal_op(&bad_endpoint).is_err());
        }
    }

    #[test]
    fn stats_and_display() {
        let (g, ..) = tiny();
        let s = g.stats();
        assert_eq!(s.entities, 2);
        assert_eq!(s.activities, 1);
        assert_eq!(s.agents, 1);
        assert_eq!(s.used, 1);
        assert_eq!(s.generated, 1);
        assert!(s.to_string().contains("|V|=4"));
        assert_eq!(g.display_name(VertexId::new(0)), "data-v1");
    }
}
