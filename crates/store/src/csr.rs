//! The CSR index ([`ProvIndex`]) traversal-heavy query algorithms read.
//!
//! The segmentation/summarization algorithms traverse `used`/`wasGeneratedBy`
//! adjacency millions of times. Rather than filtering the store's generic
//! adjacency lists on every hop, queries freeze the graph into a compressed
//! sparse row (CSR) snapshot with one array pair per (relationship, direction)
//! that the paper's grammars touch:
//!
//! * `inputs_of(a)`      — `U` out-edges: entities the activity used;
//! * `users_of(e)`       — `U` in-edges: activities that used the entity;
//! * `generators_of(e)`  — `G` out-edges: activities that generated the entity;
//! * `outputs_of(a)`     — `G` in-edges: entities the activity generated;
//! * agent edges (`S`, `A`) and derivations (`D`) for VC4 / boundary support.
//!
//! Each adjacency entry carries its [`EdgeId`] so boundary criteria can exclude
//! individual edges.
//!
//! The graph only grows, so the index is refreshed rather than rebuilt: each
//! [`Csr`] appends the delta into its rows ([`Csr`]'s slack layout), and every
//! accessor still returns one contiguous slice per row.

#![expect(
    clippy::disallowed_methods,
    reason = "the CSR structure walks its own rows: equality, the typed accessors, validation"
)]

use crate::graph::{rank_u32, DeltaCursor, ProvGraph};
use prov_model::{EdgeId, EdgeKind, VertexId, VertexKind};
use std::sync::Arc;

/// A shareable snapshot handle: interactive sessions and service registries
/// hold the frozen index by `Arc` so they can outlive the call stack that
/// built it (and so one freeze serves many concurrent readers).
pub type SharedIndex = Arc<ProvIndex>;

/// One CSR direction of one relationship type.
///
/// Row `v` is always one contiguous slice of the parallel `targets` /
/// `edge_ids` columns, in one of two layouts:
///
/// * **packed** — what `Csr::build` and a repack produce: `offsets` holds
///   `n + 1` monotone entries, row `v` is `offsets[v]..offsets[v + 1]`, and
///   `ends` is empty. The columns hold exactly the live entries.
/// * **slack** — from the first refresh that appends entries on: `offsets[v]`
///   is row `v`'s start and `ends[v]` its end, both tables `n` long. A row
///   starting at or past `headroom_from` (the column length when the layout
///   left packed) owns a slot of `len.next_power_of_two()` entries and takes
///   new entries in place until the slot is full; a row before it owns
///   exactly its entries. A full row moves to the column tail and leaves its
///   old slot dead.
///
/// `live` counts the entries the rows hold; every other column slot is dead
/// or spare, and `Csr::append` repacks once those outnumber the live ones.
/// Equality compares rows, not layout: a refreshed CSR equals the `build` of
/// the same graph.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    ends: Vec<u32>,
    headroom_from: usize,
    live: usize,
    targets: Vec<VertexId>,
    edge_ids: Vec<EdgeId>,
}

impl PartialEq for Csr {
    fn eq(&self, other: &Csr) -> bool {
        let rows = self.rows();
        rows == other.rows()
            && (0..rows).all(|v| {
                let v = VertexId::new(rank_u32(v));
                self.neighbors(v) == other.neighbors(v) && self.edge_ids(v) == other.edge_ids(v)
            })
    }
}

impl Eq for Csr {}

impl Csr {
    /// The packed layout over exactly these columns.
    fn packed(offsets: Vec<u32>, targets: Vec<VertexId>, edge_ids: Vec<EdgeId>) -> Csr {
        let live = targets.len();
        Csr { offsets, ends: Vec::new(), headroom_from: live, live, targets, edge_ids }
    }

    fn build(n: usize, pairs: &mut [(VertexId, VertexId, EdgeId)]) -> Csr {
        // Sort by (from, edge_id): the edge-id tie-break pins neighbor order
        // to insertion order. A single-key unstable sort would leave the
        // order of a vertex's edges implementation-defined, making worklist
        // order — and every downstream statistic — nondeterministic across
        // toolchain versions.
        pairs.sort_unstable_by_key(|(from, _, eid)| (*from, *eid));
        let mut offsets = vec![0u32; n + 1];
        for (from, ..) in pairs.iter() {
            offsets[from.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = pairs.iter().map(|(_, to, _)| *to).collect();
        let edge_ids = pairs.iter().map(|(.., e)| *e).collect();
        Csr::packed(offsets, targets, edge_ids)
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = self.range(v);
        &self.targets[lo..hi]
    }

    /// Edge ids parallel to [`Csr::neighbors`].
    #[inline]
    pub fn edge_ids(&self, v: VertexId) -> &[EdgeId] {
        let (lo, hi) = self.range(v);
        &self.edge_ids[lo..hi]
    }

    /// `(neighbor, edge id)` pairs for `v`.
    #[inline]
    pub fn entries(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let (lo, hi) = self.range(v);
        self.targets[lo..hi].iter().copied().zip(self.edge_ids[lo..hi].iter().copied())
    }

    /// Degree of `v` in this relation/direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (lo, hi) = self.range(v);
        hi - lo
    }

    /// Total number of adjacency entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Column slots allocated: the [`Csr::len`] live entries plus the dead
    /// slots moved rows left behind and the spare room of headroom rows.
    /// Equal to `len()` in the packed layout `build` and a repack produce.
    pub fn slots(&self) -> usize {
        self.targets.len()
    }

    #[inline]
    fn range(&self, v: VertexId) -> (usize, usize) {
        let i = v.index();
        // Packed, a row ends where the next one starts; slack, `ends` says.
        let end = if self.ends.is_empty() { self.offsets.get(i + 1) } else { self.ends.get(i) };
        match end {
            Some(&end) => (self.offsets[i] as usize, end as usize),
            None => (0, 0), // default-constructed (empty) CSR
        }
    }

    /// Rows (vertices) this CSR covers.
    fn rows(&self) -> usize {
        if self.ends.is_empty() {
            self.offsets.len().saturating_sub(1)
        } else {
            self.ends.len()
        }
    }

    /// Slot size of a row starting at `start` with `len` entries: headroom
    /// rows own the next power of two, every other row exactly its entries.
    #[inline]
    fn slot_len(&self, start: usize, len: usize) -> usize {
        if self.ends.is_empty() || start < self.headroom_from || len == 0 {
            len
        } else {
            len.next_power_of_two()
        }
    }

    /// Check this CSR's structural invariants over a vertex space of `n`;
    /// `name` labels the relation/direction in the violation message.
    ///
    /// The invariants are exactly what the traversal accessors assume and
    /// what [`Csr::append`] preserves, in either layout:
    ///
    /// * the row tables are `n` long (packed: `n + 1` offsets; slack: `n`
    ///   starts and `n` ends) and the two columns equally long;
    /// * every row's slot — its entries, plus a headroom row's spare room —
    ///   lies inside the columns, and no two slots overlap;
    /// * the live count equals the sum of the row lengths;
    /// * targets are in bounds, and each row's edge ids strictly ascend
    ///   (insertion order: the tie-break `build` sorts by, and what lets
    ///   `append` add at a row's end without comparing against its entries).
    fn validate(&self, name: &str, n: usize) -> Result<(), String> {
        let (starts, ends) = if self.ends.is_empty() {
            if self.offsets.len() != n + 1 {
                return Err(format!(
                    "{name}: packed row table holds {} offsets, want n + 1 = {}",
                    self.offsets.len(),
                    n + 1
                ));
            }
            (&self.offsets[..n], &self.offsets[1..])
        } else {
            if self.offsets.len() != n || self.ends.len() != n {
                return Err(format!(
                    "{name}: slack row tables hold {} starts and {} ends, want n = {n}",
                    self.offsets.len(),
                    self.ends.len()
                ));
            }
            (&self.offsets[..], &self.ends[..])
        };
        let columns = self.targets.len();
        if self.edge_ids.len() != columns {
            return Err(format!(
                "{name}: columns hold {columns} targets but {} edge ids",
                self.edge_ids.len()
            ));
        }
        let mut slots = Vec::new();
        let mut total = 0usize;
        for (v, (&lo, &hi)) in starts.iter().zip(ends).enumerate() {
            let (lo, hi) = (lo as usize, hi as usize);
            let slot_end = if lo <= hi { lo + self.slot_len(lo, hi - lo) } else { usize::MAX };
            if slot_end > columns {
                return Err(format!(
                    "{name}: slot of row {v} ({lo}..{hi}) lies outside the {columns} column slots"
                ));
            }
            total += hi - lo;
            if slot_end > lo {
                slots.push((lo, slot_end, v));
            }
            if let Some(t) = self.targets[lo..hi].iter().find(|t| t.index() >= n) {
                return Err(format!("{name}: target {t} out of bounds (n = {n})"));
            }
            if let Some(w) = self.edge_ids[lo..hi].windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!(
                    "{name}: edge ids of vertex {v} not strictly ascending ({} then {})",
                    w[0], w[1]
                ));
            }
        }
        if total != self.live {
            return Err(format!(
                "{name}: live count {} but the rows hold {total} entries",
                self.live
            ));
        }
        slots.sort_unstable();
        if let Some(w) = slots.windows(2).find(|w| w[1].0 < w[0].1) {
            return Err(format!(
                "{name}: slots of rows {} ({}..{}) and {} ({}..{}) overlap",
                w[0].2, w[0].0, w[0].1, w[1].2, w[1].0, w[1].1
            ));
        }
        Ok(())
    }

    /// Append `pairs` to their rows and grow the vertex space to `n`.
    ///
    /// Requires every pair's edge id to exceed every edge id already held
    /// (true by construction for an append-only store: the delta holds only
    /// new edge ids), so a row's new entries go after its old ones and old
    /// entries are never compared, sorted or shifted. Only the rows the delta
    /// touches are visited: one with room in its slot takes its entries in
    /// place, a full one moves to the column tail into a slot of the next
    /// power of two. Rows the delta does not touch keep their slots, so the
    /// cost is `O(new rows + m_new log m_new + moved rows' lengths)`, plus —
    /// once dead and spare slots outnumber the live entries — one linear
    /// [`Csr::repack`], paid for by the appends that made that slack.
    fn append(&mut self, n: usize, pairs: &mut [(VertexId, VertexId, EdgeId)]) {
        debug_assert!(!self.offsets.is_empty(), "append needs a built CSR");
        let tail = rank_u32(self.targets.len());
        if self.ends.is_empty() {
            if pairs.is_empty() {
                // New vertices have empty rows: they inherit the running total.
                self.offsets.resize(n + 1, tail);
                return;
            }
            // First entries since the packed layout: split its offset table
            // into row starts and row ends.
            self.ends = self.offsets[1..].to_vec();
            self.offsets.pop();
        }
        self.offsets.resize(n, tail);
        self.ends.resize(n, tail);
        // Same comparator as `build`: the edge-id tie-break keeps per-vertex
        // neighbor order deterministic (and, per the invariant above, after
        // every entry the row already holds).
        pairs.sort_unstable_by_key(|(from, _, eid)| (*from, *eid));
        for fresh in pairs.chunk_by(|a, b| a.0 == b.0) {
            let v = fresh[0].0.index();
            let (start, end) = (self.offsets[v] as usize, self.ends[v] as usize);
            let len = end - start;
            let at = if len + fresh.len() <= self.slot_len(start, len) {
                end
            } else {
                let to = self.targets.len();
                let slot = to + (len + fresh.len()).next_power_of_two();
                self.targets.extend_from_within(start..end);
                self.edge_ids.extend_from_within(start..end);
                self.targets.resize(slot, VertexId::new(0));
                self.edge_ids.resize(slot, EdgeId::new(0));
                self.offsets[v] = rank_u32(to);
                to + len
            };
            for (k, &(_, target, eid)) in fresh.iter().enumerate() {
                self.targets[at + k] = target;
                self.edge_ids[at + k] = eid;
            }
            self.ends[v] = rank_u32(at + fresh.len());
        }
        self.live += pairs.len();
        if self.targets.len() - self.live > self.live {
            self.repack();
        }
    }

    /// Rewrite the rows, in vertex order, into exactly [`Csr::build`]'s
    /// packed layout — no dead or spare slots left. One linear pass.
    fn repack(&mut self) {
        let mut offsets = Vec::with_capacity(self.ends.len() + 1);
        let mut targets = Vec::with_capacity(self.live);
        let mut edge_ids = Vec::with_capacity(self.live);
        offsets.push(0);
        for (&lo, &hi) in self.offsets.iter().zip(&self.ends) {
            let (lo, hi) = (lo as usize, hi as usize);
            targets.extend_from_slice(&self.targets[lo..hi]);
            edge_ids.extend_from_slice(&self.edge_ids[lo..hi]);
            offsets.push(rank_u32(targets.len()));
        }
        *self = Csr::packed(offsets, targets, edge_ids);
    }
}

/// Immutable CSR snapshot of a [`ProvGraph`], specialized by relationship type.
///
/// A snapshot remembers the [`DeltaCursor`] it was frozen at, so after the
/// graph grows it can be *refreshed* ([`ProvIndex::refresh_in_place`])
/// instead of rebuilt: the append-only delta is appended into the rows of
/// every CSR and the per-vertex tables extend at their ends. `PartialEq` is
/// derived (and [`Csr`]'s compares rows, not layout) so differential tests
/// can assert a refreshed snapshot holds exactly what a full
/// [`ProvIndex::build`] of the same graph holds.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvIndex {
    n: usize,
    /// Log position this snapshot reflects (freshness test + refresh base).
    frozen: DeltaCursor,
    kinds: Vec<VertexKind>,
    birth: Vec<u64>,
    /// Rank of each vertex within its kind (dense per-kind id).
    kind_rank: Vec<u32>,
    /// Members of each kind in creation order (inverse of `kind_rank`).
    kind_members: [Vec<VertexId>; 3],
    used_out: Csr,  // activity -> entities it used
    used_in: Csr,   // entity   -> activities that used it
    gen_out: Csr,   // entity   -> activities that generated it
    gen_in: Csr,    // activity -> entities it generated
    assoc_out: Csr, // activity -> agents
    attr_out: Csr,  // entity   -> agents
    deriv_out: Csr, // entity   -> entities it was derived from
    deriv_in: Csr,  // entity   -> entities derived from it
    counts: [usize; 3],
    edge_counts: [usize; 5],
}

/// Typed `(from, to, edge_id)` pair lists for one edge-id range, one list
/// per (relationship, direction) CSR — the shared collection pass of
/// [`ProvIndex::build`] and [`ProvIndex::refresh_in_place`].
#[derive(Default)]
struct TypedPairs {
    used: Vec<(VertexId, VertexId, EdgeId)>,
    used_rev: Vec<(VertexId, VertexId, EdgeId)>,
    gen: Vec<(VertexId, VertexId, EdgeId)>,
    gen_rev: Vec<(VertexId, VertexId, EdgeId)>,
    assoc: Vec<(VertexId, VertexId, EdgeId)>,
    attr: Vec<(VertexId, VertexId, EdgeId)>,
    deriv: Vec<(VertexId, VertexId, EdgeId)>,
    deriv_rev: Vec<(VertexId, VertexId, EdgeId)>,
    edge_counts: [usize; 5],
}

impl TypedPairs {
    /// Dispatch the edges `[from_edge, graph.edge_count())` by kind.
    fn collect(graph: &ProvGraph, from_edge: u32) -> TypedPairs {
        let mut p = TypedPairs::default();
        for raw in from_edge..rank_u32(graph.edge_count()) {
            let eid = EdgeId::new(raw);
            let e = graph.edge(eid);
            p.edge_counts[e.kind.as_index()] += 1;
            match e.kind {
                EdgeKind::Used => {
                    p.used.push((e.src, e.dst, eid));
                    p.used_rev.push((e.dst, e.src, eid));
                }
                EdgeKind::WasGeneratedBy => {
                    p.gen.push((e.src, e.dst, eid));
                    p.gen_rev.push((e.dst, e.src, eid));
                }
                EdgeKind::WasAssociatedWith => p.assoc.push((e.src, e.dst, eid)),
                EdgeKind::WasAttributedTo => p.attr.push((e.src, e.dst, eid)),
                EdgeKind::WasDerivedFrom => {
                    p.deriv.push((e.src, e.dst, eid));
                    p.deriv_rev.push((e.dst, e.src, eid));
                }
            }
        }
        p
    }
}

impl ProvIndex {
    /// Freeze `graph` into a snapshot.
    ///
    /// This full build is the *reference* construction: the incremental
    /// [`ProvIndex::refresh_in_place`] path is differential-tested to produce
    /// snapshots `==` to it on every interleaving.
    pub fn build(graph: &ProvGraph) -> ProvIndex {
        let n = graph.vertex_count();
        let mut pairs = TypedPairs::collect(graph, 0);
        let kinds: Vec<VertexKind> = graph.vertex_ids().map(|v| graph.vertex_kind(v)).collect();
        let mut kind_rank = vec![0u32; n];
        let mut kind_members: [Vec<VertexId>; 3] = Default::default();
        for (i, &k) in kinds.iter().enumerate() {
            let members = &mut kind_members[k.as_index()];
            kind_rank[i] = rank_u32(members.len());
            members.push(VertexId::new(rank_u32(i)));
        }
        let index = ProvIndex {
            n,
            frozen: graph.cursor(),
            kinds,
            birth: graph.vertex_ids().map(|v| graph.vertex(v).birth).collect(),
            kind_rank,
            kind_members,
            used_out: Csr::build(n, &mut pairs.used),
            used_in: Csr::build(n, &mut pairs.used_rev),
            gen_out: Csr::build(n, &mut pairs.gen),
            gen_in: Csr::build(n, &mut pairs.gen_rev),
            assoc_out: Csr::build(n, &mut pairs.assoc),
            attr_out: Csr::build(n, &mut pairs.attr),
            deriv_out: Csr::build(n, &mut pairs.deriv),
            deriv_in: Csr::build(n, &mut pairs.deriv_rev),
            counts: [
                graph.kind_count(VertexKind::Entity),
                graph.kind_count(VertexKind::Activity),
                graph.kind_count(VertexKind::Agent),
            ],
            edge_counts: pairs.edge_counts,
        };
        index.paranoid_check();
        index
    }

    /// Freeze `graph` into a reference-counted snapshot ready to be stored in
    /// a session registry ([`SharedIndex`]).
    pub fn build_shared(graph: &ProvGraph) -> SharedIndex {
        Arc::new(ProvIndex::build(graph))
    }

    /// The log position this snapshot reflects.
    #[inline]
    pub fn cursor(&self) -> DeltaCursor {
        self.frozen
    }

    /// Does this snapshot still reflect `graph` exactly? Property writes do
    /// not age a snapshot (it never captured properties); only appended
    /// vertices/edges do.
    #[inline]
    pub fn is_fresh(&self, graph: &ProvGraph) -> bool {
        self.frozen == graph.cursor()
    }

    /// Extend this snapshot in place to cover everything appended to `graph`
    /// since it was frozen.
    ///
    /// Instead of the full rebuild — re-dispatching all `m` edges, re-sorting
    /// every CSR in `O(m log m)`, re-collecting kinds and births — the
    /// refresh dispatches only the `m_new` delta edges, appends them into the
    /// rows of each CSR (`Csr::append`), and appends the new vertices to the
    /// kind/birth/rank tables: `O(new vertices + m_new log m_new + moved
    /// rows)`, independent of `n`, plus an occasional linear repack of a CSR
    /// whose dead and spare slots came to outnumber its entries. The first
    /// refresh of a freshly built CSR also splits its offset table into row
    /// starts and ends, once. The result is `==` to `ProvIndex::build(graph)`
    /// by construction (and by the differential tests in
    /// `tests/refresh_differential.rs`).
    ///
    /// # Panics
    ///
    /// Panics when this snapshot's cursor lies beyond `graph`'s log — i.e.
    /// the snapshot was not frozen from `graph` or a prefix-preserving clone
    /// of it.
    pub fn refresh_in_place(&mut self, graph: &ProvGraph) {
        let delta = graph.delta_since(self.frozen);
        if delta.is_empty() {
            return;
        }
        let n = graph.vertex_count();
        // Vertex tables: append-only, so they extend at their tails.
        for v in delta.new_vertices() {
            let k = graph.vertex_kind(v);
            let members = &mut self.kind_members[k.as_index()];
            self.kind_rank.push(rank_u32(members.len()));
            members.push(v);
            self.kinds.push(k);
            self.birth.push(graph.vertex(v).birth);
            self.counts[k.as_index()] += 1;
        }
        self.n = n;
        // Edge tables: dispatch the delta, append per CSR.
        let mut pairs = TypedPairs::collect(graph, self.frozen.edges);
        for (i, c) in pairs.edge_counts.iter().enumerate() {
            self.edge_counts[i] += c;
        }
        self.used_out.append(n, &mut pairs.used);
        self.used_in.append(n, &mut pairs.used_rev);
        self.gen_out.append(n, &mut pairs.gen);
        self.gen_in.append(n, &mut pairs.gen_rev);
        self.assoc_out.append(n, &mut pairs.assoc);
        self.attr_out.append(n, &mut pairs.attr);
        self.deriv_out.append(n, &mut pairs.deriv);
        self.deriv_in.append(n, &mut pairs.deriv_rev);
        self.frozen = graph.cursor();
        self.paranoid_check();
    }

    /// [`ProvIndex::refresh_in_place`] on a copy: clone the frozen columns
    /// (a memcpy, no sort, no hash) and extend the copy. This is the refresh
    /// path when the previous snapshot is still pinned by live sessions and
    /// must stay immutable.
    pub fn refreshed(&self, graph: &ProvGraph) -> ProvIndex {
        let mut next = self.clone();
        next.refresh_in_place(graph);
        next
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// `λv(v)`.
    #[inline]
    pub fn kind(&self, v: VertexId) -> VertexKind {
        self.kinds[v.index()]
    }

    /// Logical creation time ("order of being").
    #[inline]
    pub fn birth(&self, v: VertexId) -> u64 {
        self.birth[v.index()]
    }

    /// Count of vertices of `kind`.
    pub fn kind_count(&self, kind: VertexKind) -> usize {
        self.counts[kind.as_index()]
    }

    /// Dense rank of `v` within its kind (0-based, creation order). Used as the
    /// universe for per-kind fact bitmaps in SimProvAlg.
    #[inline]
    pub fn kind_rank(&self, v: VertexId) -> u32 {
        self.kind_rank[v.index()]
    }

    /// Members of `kind` in creation order; `kind_members(k)[kind_rank(v)] == v`.
    pub fn kind_members(&self, kind: VertexKind) -> &[VertexId] {
        &self.kind_members[kind.as_index()]
    }

    /// Count of edges of `kind`.
    pub fn edge_kind_count(&self, kind: EdgeKind) -> usize {
        self.edge_counts[kind.as_index()]
    }

    /// Entities used by activity `a` (`U` out-edges).
    #[inline]
    pub fn inputs_of(&self, a: VertexId) -> &[VertexId] {
        self.used_out.neighbors(a)
    }

    /// Activities that used entity `e` (`U` in-edges).
    #[inline]
    pub fn users_of(&self, e: VertexId) -> &[VertexId] {
        self.used_in.neighbors(e)
    }

    /// Activities that generated entity `e` (`G` out-edges).
    #[inline]
    pub fn generators_of(&self, e: VertexId) -> &[VertexId] {
        self.gen_out.neighbors(e)
    }

    /// Entities generated by activity `a` (`G` in-edges).
    #[inline]
    pub fn outputs_of(&self, a: VertexId) -> &[VertexId] {
        self.gen_in.neighbors(a)
    }

    /// Agents associated with activity `a` (`S` edges).
    #[inline]
    pub fn agents_of_activity(&self, a: VertexId) -> &[VertexId] {
        self.assoc_out.neighbors(a)
    }

    /// Agents an entity is attributed to (`A` edges).
    #[inline]
    pub fn agents_of_entity(&self, e: VertexId) -> &[VertexId] {
        self.attr_out.neighbors(e)
    }

    /// Entities `e` was derived from (`D` out-edges).
    #[inline]
    pub fn derived_from(&self, e: VertexId) -> &[VertexId] {
        self.deriv_out.neighbors(e)
    }

    /// Entities derived from `e` (`D` in-edges).
    #[inline]
    pub fn derivations_of(&self, e: VertexId) -> &[VertexId] {
        self.deriv_in.neighbors(e)
    }

    /// Check every structural invariant of the snapshot, naming the first
    /// violated one in the error.
    ///
    /// The catalog (see DESIGN.md §8):
    ///
    /// * vertex columns (`kinds`, `birth`, `kind_rank`) are `n` long and the
    ///   frozen cursor records exactly `n` vertices;
    /// * births are strictly increasing (creation order — what the
    ///   early-stopping rule assumes);
    /// * `counts` match `kind_members` and the member/rank tables form a
    ///   bijection (`kind_members[k][kind_rank[v]] == v` with matching kind)
    ///   covering all `n` vertices;
    /// * `edge_counts` balance against the cursor's edge watermark, and each
    ///   of the eight CSRs holds exactly its relation's tally;
    /// * every CSR satisfies [`Csr`]'s own invariants (`n`-long row tables,
    ///   row slots inside the columns and disjoint, a live count equal to the
    ///   row lengths' sum, in-bounds targets, per-row strictly ascending edge
    ///   ids).
    ///
    /// `O(n + m)`. Under the `paranoid` feature it runs automatically after
    /// every `build`/`refresh_in_place`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n;
        if self.kinds.len() != n || self.birth.len() != n || self.kind_rank.len() != n {
            return Err(format!(
                "vertex columns disagree with n = {n}: {} kinds, {} births, {} ranks",
                self.kinds.len(),
                self.birth.len(),
                self.kind_rank.len()
            ));
        }
        if self.frozen.vertices as usize != n {
            return Err(format!(
                "cursor records {} vertices but the snapshot holds {n}",
                self.frozen.vertices
            ));
        }
        if let Some(i) = (1..n).find(|&i| self.birth[i - 1] >= self.birth[i]) {
            return Err(format!(
                "births not strictly increasing at vertex {i} ({} then {})",
                self.birth[i - 1],
                self.birth[i]
            ));
        }
        let mut covered = 0usize;
        for kind in VertexKind::ALL {
            let k = kind.as_index();
            let members = &self.kind_members[k];
            if self.counts[k] != members.len() {
                return Err(format!(
                    "counts[{kind:?}] = {} but kind_members holds {} vertices",
                    self.counts[k],
                    members.len()
                ));
            }
            covered += members.len();
            for (r, &v) in members.iter().enumerate() {
                if v.index() >= n {
                    return Err(format!("kind_members[{kind:?}][{r}] = {v} out of bounds"));
                }
                if self.kinds[v.index()] != kind {
                    return Err(format!(
                        "kind_members[{kind:?}][{r}] = {v} has kind {:?}",
                        self.kinds[v.index()]
                    ));
                }
                if self.kind_rank[v.index()] as usize != r {
                    return Err(format!(
                        "kind_rank of {v} is {} but it sits at rank {r} of {kind:?}",
                        self.kind_rank[v.index()]
                    ));
                }
            }
        }
        if covered != n {
            return Err(format!("kind_members cover {covered} vertices, snapshot holds {n}"));
        }
        let tallied: usize = self.edge_counts.iter().sum();
        if tallied != self.frozen.edges as usize {
            return Err(format!(
                "edge_counts sum to {tallied} but the cursor records {} edges",
                self.frozen.edges
            ));
        }
        let csrs: [(&str, &Csr, usize); 8] = [
            ("used_out", &self.used_out, self.edge_counts[EdgeKind::Used.as_index()]),
            ("used_in", &self.used_in, self.edge_counts[EdgeKind::Used.as_index()]),
            ("gen_out", &self.gen_out, self.edge_counts[EdgeKind::WasGeneratedBy.as_index()]),
            ("gen_in", &self.gen_in, self.edge_counts[EdgeKind::WasGeneratedBy.as_index()]),
            (
                "assoc_out",
                &self.assoc_out,
                self.edge_counts[EdgeKind::WasAssociatedWith.as_index()],
            ),
            ("attr_out", &self.attr_out, self.edge_counts[EdgeKind::WasAttributedTo.as_index()]),
            ("deriv_out", &self.deriv_out, self.edge_counts[EdgeKind::WasDerivedFrom.as_index()]),
            ("deriv_in", &self.deriv_in, self.edge_counts[EdgeKind::WasDerivedFrom.as_index()]),
        ];
        for (name, csr, tally) in csrs {
            if csr.len() != tally {
                return Err(format!(
                    "{name} holds {} entries but edge_counts tallies {tally}",
                    csr.len()
                ));
            }
            csr.validate(name, n)?;
        }
        Ok(())
    }

    /// Under the `paranoid` feature, panic on any violated snapshot
    /// invariant; compiled to nothing otherwise.
    #[inline]
    fn paranoid_check(&self) {
        #[cfg(feature = "paranoid")]
        if let Err(violation) = self.validate() {
            panic!("paranoid snapshot validation failed: {violation}");
        }
    }

    /// Raw CSR accessors (with edge ids) for boundary-aware traversal.
    pub fn csr(&self, kind: EdgeKind, direction: Direction) -> &Csr {
        match (kind, direction) {
            (EdgeKind::Used, Direction::Out) => &self.used_out,
            (EdgeKind::Used, Direction::In) => &self.used_in,
            (EdgeKind::WasGeneratedBy, Direction::Out) => &self.gen_out,
            (EdgeKind::WasGeneratedBy, Direction::In) => &self.gen_in,
            (EdgeKind::WasAssociatedWith, Direction::Out) => &self.assoc_out,
            (EdgeKind::WasAttributedTo, Direction::Out) => &self.attr_out,
            (EdgeKind::WasDerivedFrom, Direction::Out) => &self.deriv_out,
            (EdgeKind::WasDerivedFrom, Direction::In) => &self.deriv_in,
            // S/A edges are only stored forward: agents have no outgoing edges.
            (EdgeKind::WasAssociatedWith | EdgeKind::WasAttributedTo, Direction::In) => {
                static EMPTY: std::sync::OnceLock<Csr> = std::sync::OnceLock::new();
                EMPTY.get_or_init(Csr::default)
            }
        }
    }
}

/// Traversal direction relative to stored edge orientation.
///
/// Serialized so the query IR ([`crate::query`]) can name CSR slices on the
/// wire.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Direction {
    /// Follow edges as stored (src → dst).
    Out,
    /// Follow edges reversed (dst → src).
    In,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ProvGraph;

    /// Two chained training steps sharing a dataset.
    fn chain() -> (ProvGraph, Vec<VertexId>) {
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t1 = g.add_activity("t1");
        let w1 = g.add_entity("w1");
        let t2 = g.add_activity("t2");
        let w2 = g.add_entity("w2");
        let alice = g.add_agent("alice");
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w1, t1).unwrap();
        g.add_edge(EdgeKind::Used, t2, d).unwrap();
        g.add_edge(EdgeKind::Used, t2, w1).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w2, t2).unwrap();
        g.add_edge(EdgeKind::WasAssociatedWith, t1, alice).unwrap();
        g.add_edge(EdgeKind::WasAttributedTo, d, alice).unwrap();
        g.add_edge(EdgeKind::WasDerivedFrom, w2, w1).unwrap();
        (g, vec![d, t1, w1, t2, w2, alice])
    }

    #[test]
    fn typed_adjacency_matches_graph() {
        let (g, ids) = chain();
        let idx = ProvIndex::build(&g);
        let (d, t1, w1, t2, w2, alice) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);

        assert_eq!(idx.inputs_of(t1), &[d]);
        let mut t2_in = idx.inputs_of(t2).to_vec();
        t2_in.sort();
        assert_eq!(t2_in, vec![d, w1]);
        let mut d_users = idx.users_of(d).to_vec();
        d_users.sort();
        assert_eq!(d_users, vec![t1, t2]);
        assert_eq!(idx.generators_of(w2), &[t2]);
        assert_eq!(idx.outputs_of(t1), &[w1]);
        assert_eq!(idx.agents_of_activity(t1), &[alice]);
        assert_eq!(idx.agents_of_entity(d), &[alice]);
        assert_eq!(idx.derived_from(w2), &[w1]);
        assert_eq!(idx.derivations_of(w1), &[w2]);
        assert!(idx.inputs_of(d).is_empty()); // entities use nothing
    }

    #[test]
    fn kinds_births_counts_survive_freeze() {
        let (g, ids) = chain();
        let idx = ProvIndex::build(&g);
        assert_eq!(idx.vertex_count(), 6);
        assert_eq!(idx.kind(ids[0]), VertexKind::Entity);
        assert_eq!(idx.kind(ids[1]), VertexKind::Activity);
        assert_eq!(idx.kind(ids[5]), VertexKind::Agent);
        assert_eq!(idx.kind_count(VertexKind::Entity), 3);
        assert_eq!(idx.kind_count(VertexKind::Activity), 2);
        assert_eq!(idx.edge_kind_count(EdgeKind::Used), 3);
        assert_eq!(idx.edge_kind_count(EdgeKind::WasGeneratedBy), 2);
        assert!(idx.birth(ids[0]) < idx.birth(ids[5]));
    }

    #[test]
    fn csr_edge_ids_align_with_neighbors() {
        let (g, ids) = chain();
        let idx = ProvIndex::build(&g);
        let t2 = ids[3];
        let csr = idx.csr(EdgeKind::Used, Direction::Out);
        for (nbr, eid) in csr.entries(t2) {
            let e = g.edge(eid);
            assert_eq!(e.kind, EdgeKind::Used);
            assert_eq!(e.src, t2);
            assert_eq!(e.dst, nbr);
        }
        assert_eq!(csr.degree(t2), 2);
    }

    #[test]
    fn kind_ranks_are_dense_per_kind() {
        let (g, ids) = chain();
        let idx = ProvIndex::build(&g);
        // Entities d, w1, w2 were created in that order.
        assert_eq!(idx.kind_rank(ids[0]), 0); // d
        assert_eq!(idx.kind_rank(ids[2]), 1); // w1
        assert_eq!(idx.kind_rank(ids[4]), 2); // w2
        assert_eq!(idx.kind_rank(ids[1]), 0); // t1 first activity
        assert_eq!(idx.kind_rank(ids[3]), 1); // t2
        assert_eq!(idx.kind_members(VertexKind::Entity), &[ids[0], ids[2], ids[4]]);
        for kind in VertexKind::ALL {
            for (r, &v) in idx.kind_members(kind).iter().enumerate() {
                assert_eq!(idx.kind_rank(v) as usize, r);
                assert_eq!(idx.kind(v), kind);
            }
        }
    }

    #[test]
    fn freeze_is_deterministic_across_edge_interleavings() {
        // Same vertices, same edge set, same per-source relative order —
        // but globally interleaved differently (so edge ids differ). With
        // the (from, edge_id) sort both freezes must traverse identically.
        fn build(order: &[(usize, usize)]) -> (ProvGraph, Vec<VertexId>) {
            let mut g = ProvGraph::new();
            let d = g.add_entity("d");
            let e = g.add_entity("e");
            let t1 = g.add_activity("t1");
            let t2 = g.add_activity("t2");
            let vs = vec![d, e, t1, t2];
            for &(src, dst) in order {
                g.add_edge(EdgeKind::Used, vs[src], vs[dst]).unwrap();
            }
            (g, vs)
        }
        // t1 uses d then e; t2 uses d then e — interleaved two ways.
        let (g1, vs1) = build(&[(2, 0), (2, 1), (3, 0), (3, 1)]);
        let (g2, vs2) = build(&[(2, 0), (3, 0), (2, 1), (3, 1)]);
        assert_eq!(vs1, vs2);
        let (i1, i2) = (ProvIndex::build(&g1), ProvIndex::build(&g2));
        for &v in &vs1 {
            assert_eq!(i1.inputs_of(v), i2.inputs_of(v), "inputs of {v}");
            assert_eq!(i1.users_of(v), i2.users_of(v), "users of {v}");
        }
        assert_eq!(i1.inputs_of(vs1[2]), &[vs1[0], vs1[1]], "insertion order preserved");
        assert_eq!(i1.users_of(vs1[0]), &[vs1[2], vs1[3]]);
    }

    #[test]
    fn csr_edge_ids_are_ascending_per_vertex() {
        let (g, _) = chain();
        let idx = ProvIndex::build(&g);
        for kind in [EdgeKind::Used, EdgeKind::WasGeneratedBy, EdgeKind::WasDerivedFrom] {
            for dir in [Direction::Out, Direction::In] {
                let csr = idx.csr(kind, dir);
                for v in g.vertex_ids() {
                    let eids = csr.edge_ids(v);
                    assert!(
                        eids.windows(2).all(|w| w[0] < w[1]),
                        "{kind:?}/{dir:?} edge ids out of order at {v}: {eids:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_snapshot_is_usable_after_graph_moves() {
        let (g, ids) = chain();
        let shared: SharedIndex = ProvIndex::build_shared(&g);
        let clone = Arc::clone(&shared);
        drop(g); // the snapshot owns everything it needs
        assert_eq!(shared.vertex_count(), 6);
        assert_eq!(clone.inputs_of(ids[1]), &[ids[0]]);
    }

    #[test]
    fn reverse_agent_csr_is_empty() {
        let (g, _) = chain();
        let idx = ProvIndex::build(&g);
        assert!(idx.csr(EdgeKind::WasAssociatedWith, Direction::In).is_empty());
        assert!(idx.csr(EdgeKind::WasAttributedTo, Direction::In).is_empty());
    }

    #[test]
    fn refresh_on_unchanged_graph_is_identity() {
        let (g, _) = chain();
        let built = ProvIndex::build(&g);
        assert!(built.is_fresh(&g));
        let mut refreshed = built.clone();
        refreshed.refresh_in_place(&g);
        assert_eq!(refreshed, built);
        assert_eq!(built.refreshed(&g), built);
    }

    #[test]
    fn refresh_matches_full_build_after_growth() {
        let (mut g, ids) = chain();
        let stale = ProvIndex::build(&g);
        // Grow: a new activity using OLD entities (so frozen rows must grow),
        // a new entity, agent edges, and a derivation to an old entity.
        let t3 = g.add_activity("t3");
        let w3 = g.add_entity("w3");
        let bob = g.add_agent("bob");
        g.add_edge(EdgeKind::Used, t3, ids[0]).unwrap(); // d gains a user
        g.add_edge(EdgeKind::Used, t3, ids[4]).unwrap(); // w2 gains a user
        g.add_edge(EdgeKind::WasGeneratedBy, w3, t3).unwrap();
        g.add_edge(EdgeKind::WasAssociatedWith, t3, bob).unwrap();
        g.add_edge(EdgeKind::WasAttributedTo, w3, bob).unwrap();
        g.add_edge(EdgeKind::WasDerivedFrom, w3, ids[2]).unwrap(); // w1
        assert!(!stale.is_fresh(&g));

        let full = ProvIndex::build(&g);
        let refreshed = stale.refreshed(&g);
        assert_eq!(refreshed, full, "refreshed snapshot must equal the reference build");
        // In-place refresh takes the same path.
        let mut in_place = stale.clone();
        in_place.refresh_in_place(&g);
        assert_eq!(in_place, full);
        // Spot-check a grown frozen row: d's users are t1, t2, then t3.
        assert_eq!(refreshed.users_of(ids[0]), &[ids[1], ids[3], t3]);
        assert_eq!(refreshed.cursor(), g.cursor());
        assert!(refreshed.is_fresh(&g));
    }

    #[test]
    fn refresh_applies_repeatedly_across_batches() {
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let mut idx = ProvIndex::build(&g);
        let mut prev = d;
        for i in 0..5 {
            let t = g.add_activity(&format!("t{i}"));
            let w = g.add_entity(&format!("w{i}"));
            g.add_edge(EdgeKind::Used, t, prev).unwrap();
            g.add_edge(EdgeKind::Used, t, d).unwrap(); // seed row keeps growing
            g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
            prev = w;
            idx.refresh_in_place(&g);
            assert_eq!(idx, ProvIndex::build(&g), "batch {i} produced a divergent snapshot");
        }
        // Round 0 used `d` twice (prev == d), later rounds once each.
        assert_eq!(idx.users_of(d).len(), 6);
    }

    #[test]
    fn slack_csr_equals_the_packed_build_until_a_row_differs() {
        let (mut g, ids) = chain();
        let mut idx = ProvIndex::build(&g);
        let t9 = g.add_activity("t9");
        g.add_edge(EdgeKind::Used, t9, ids[0]).unwrap();
        idx.refresh_in_place(&g);
        let full = ProvIndex::build(&g);
        let (slack, packed) = (&idx.used_in, &full.used_in);
        assert!(!slack.ends.is_empty() && packed.ends.is_empty(), "one CSR of each layout");
        assert!(slack.slots() > slack.len() && packed.slots() == packed.len());
        assert_eq!(slack, packed);
        // d's row moved to the column tail with one spare slot: what the
        // spare slot holds is not part of any row.
        let (start, end) = (slack.offsets[0] as usize, slack.ends[0] as usize);
        let mut spare = slack.clone();
        spare.targets[end] = ids[4];
        assert_eq!(&spare, packed);
        // One changed entry of one row breaks equality, in either column.
        let mut changed = slack.clone();
        changed.targets[start] = ids[3];
        assert_ne!(&changed, packed);
        let mut changed = slack.clone();
        changed.edge_ids[start] = EdgeId::new(7);
        assert_ne!(&changed, packed);
    }

    /// A packed CSR over `n` rows of two entries each (row `v` holds edge
    /// ids `2v` and `2v + 1`).
    fn two_per_row(n: usize) -> Csr {
        let mut pairs: Vec<_> = (0..2 * n)
            .map(|e| {
                let v = e / 2;
                (
                    VertexId::new(rank_u32(v)),
                    VertexId::new(rank_u32((v + 1) % n)),
                    EdgeId::new(rank_u32(e)),
                )
            })
            .collect();
        Csr::build(n, &mut pairs)
    }

    /// Append three one-activity deltas to [`two_per_row`]`(n)` — three old
    /// rows spread over the id space gain an entry each and one new row gets
    /// two — checking that untouched rows keep their starts and the columns
    /// grow by at most twice the touched rows' final lengths. Returns the
    /// column growth per refresh.
    fn one_activity_refreshes(n: usize) -> Vec<usize> {
        let mut csr = two_per_row(n);
        let mut next_edge = 2 * n;
        let mut rows = n;
        let mut growth = Vec::new();
        for round in 0..3 {
            // Row n / 5 is touched every round: it moves, then takes an entry
            // in its headroom, then moves again.
            let touched = [n / 5, n / 2 + round, n - 1 - round, rows];
            let starts = csr.clone();
            let mut pairs = Vec::new();
            for (i, &v) in touched.iter().enumerate() {
                for _ in 0..if i == 3 { 2 } else { 1 } {
                    let e = EdgeId::new(rank_u32(next_edge));
                    pairs.push((VertexId::new(rank_u32(v)), VertexId::new(0), e));
                    next_edge += 1;
                }
            }
            rows += 1;
            let slots = csr.slots();
            csr.append(rows, &mut pairs);
            csr.validate("csr", rows).unwrap();
            for v in (0..rows - 1).filter(|v| !touched.contains(v)) {
                assert_eq!(csr.offsets[v], starts.offsets[v], "n = {n}: untouched row {v} moved");
            }
            let touched_len: usize =
                touched.iter().map(|&v| csr.degree(VertexId::new(rank_u32(v)))).sum();
            let grew = csr.slots() - slots;
            assert!(grew <= 2 * touched_len, "n = {n}: columns grew {grew} for {touched_len}");
            growth.push(grew);
        }
        growth
    }

    #[test]
    fn refresh_work_is_independent_of_n() {
        let small = one_activity_refreshes(20_000);
        assert_eq!(small, one_activity_refreshes(200_000), "column growth depends on n");
        // 14 = three moves into slots of 4 + the new row's 2; 10 = one append
        // in place + two moves + 2; 18 = one move into a slot of 8 + two
        // into slots of 4 + 2.
        assert_eq!(small, vec![14, 10, 18]);
    }

    /// Hand-corrupt one private field at a time and check that `validate`
    /// rejects the snapshot *naming the broken invariant* (ISSUE 7
    /// acceptance). In-module so the corruption can reach private fields.
    mod corruption {
        use super::*;

        fn built() -> ProvIndex {
            let (g, _) = chain();
            ProvIndex::build(&g)
        }

        /// `built()` after a refresh in which a new activity `t9` (vertex 6)
        /// uses `d`: `used_out` gains row 6 at the column tail and `used_in`
        /// moves d's row there, both now in the slack layout.
        fn slack() -> ProvIndex {
            let (mut g, ids) = chain();
            let mut idx = ProvIndex::build(&g);
            let t9 = g.add_activity("t9");
            g.add_edge(EdgeKind::Used, t9, ids[0]).unwrap();
            idx.refresh_in_place(&g);
            assert!(!idx.used_out.ends.is_empty() && !idx.used_in.ends.is_empty());
            idx
        }

        #[track_caller]
        fn assert_names(idx: &ProvIndex, needle: &str) {
            let violation = idx.validate().expect_err("corruption must be caught");
            assert!(violation.contains(needle), "violation {violation:?} does not name {needle:?}");
        }

        #[test]
        fn pristine_snapshots_validate() {
            let (mut g, _) = chain();
            let mut idx = ProvIndex::build(&g);
            idx.validate().expect("reference build is valid");
            let t9 = g.add_activity("t9");
            g.add_edge(EdgeKind::Used, t9, g.vertex_by_name("d").unwrap()).unwrap();
            idx.refresh_in_place(&g);
            idx.validate().expect("refreshed snapshot is valid");
        }

        #[test]
        fn truncated_vertex_column() {
            let mut idx = built();
            idx.kinds.pop();
            assert_names(&idx, "vertex columns disagree");
        }

        #[test]
        fn cursor_vertex_watermark_drift() {
            let mut idx = built();
            idx.frozen.vertices -= 1;
            assert_names(&idx, "cursor records");
        }

        #[test]
        fn birth_order_swap() {
            let mut idx = built();
            idx.birth.swap(0, 1);
            assert_names(&idx, "births not strictly increasing");
        }

        #[test]
        fn kind_count_off_by_one() {
            let mut idx = built();
            idx.counts[VertexKind::Entity.as_index()] += 1;
            assert_names(&idx, "counts[Entity]");
        }

        #[test]
        fn kind_rank_bijection_break() {
            let mut idx = built();
            idx.kind_rank[0] = 2; // vertex 0 (entity d) actually sits at rank 0
            assert_names(&idx, "kind_rank");
        }

        #[test]
        fn kind_member_wrong_kind() {
            let mut idx = built();
            // Replace the first entity member with an activity vertex.
            idx.kind_members[VertexKind::Entity.as_index()][0] = VertexId::new(1);
            assert_names(&idx, "has kind");
        }

        #[test]
        fn edge_counter_imbalance() {
            let mut idx = built();
            idx.edge_counts[EdgeKind::Used.as_index()] += 1;
            assert_names(&idx, "edge_counts sum");
        }

        #[test]
        fn csr_length_vs_tally() {
            let mut idx = built();
            idx.used_out = Csr::default();
            assert_names(&idx, "used_out holds 0 entries");
        }

        #[test]
        fn csr_row_table_length() {
            let mut idx = built();
            idx.gen_out.offsets.pop();
            assert_names(&idx, "gen_out: packed row table");
            let mut idx = slack();
            idx.used_in.ends.pop();
            assert_names(&idx, "used_in: slack row tables");
        }

        #[test]
        fn csr_slot_outside_columns() {
            let mut idx = slack();
            // t9's row is the last slot (3..4); a second entry would need a
            // slot of two.
            idx.used_out.ends[6] += 1;
            assert_names(&idx, "used_out: slot of row 6");
        }

        #[test]
        fn csr_live_count_mismatch() {
            let mut idx = slack();
            // Drop the last of d's three users from its row.
            idx.used_in.ends[0] -= 1;
            assert_names(&idx, "used_in: live count 4 but the rows hold 3");
        }

        #[test]
        fn csr_slots_overlap() {
            let mut idx = slack();
            // Point t9's one-entry row at t1's: same length, same live count,
            // one slot claimed twice.
            idx.used_out.offsets[6] = idx.used_out.offsets[1];
            idx.used_out.ends[6] = idx.used_out.ends[1];
            assert_names(&idx, "used_out: slots of rows 1 (0..1) and 6 (0..1) overlap");
        }

        #[test]
        fn csr_adjacency_truncated() {
            let mut idx = built();
            // Popping a target trips the relation tally first; the parallel
            // edge-id column reaches the column-length invariant itself.
            idx.used_out.edge_ids.pop();
            assert_names(&idx, "used_out: columns hold");
        }

        #[test]
        fn csr_target_out_of_bounds() {
            let mut idx = built();
            idx.used_out.targets[0] = VertexId::new(99);
            assert_names(&idx, "used_out: target");
        }

        #[test]
        fn csr_row_edge_order_swap() {
            let mut idx = built();
            // t2's used row holds edge ids 2 then 3; swapping them breaks
            // the per-row strictly-ascending (insertion order) invariant.
            idx.used_out.edge_ids.swap(1, 2);
            assert_names(&idx, "strictly ascending");
        }
    }

    #[test]
    fn delta_cursor_tracks_appends_only() {
        let mut g = ProvGraph::new();
        let c0 = g.cursor();
        let e = g.add_entity("e");
        let a = g.add_activity("a");
        g.add_edge(EdgeKind::Used, a, e).unwrap();
        let delta = g.delta_since(c0);
        assert_eq!(delta.new_vertex_count(), 2);
        assert_eq!(delta.new_edge_count(), 1);
        assert!(!delta.is_empty());
        assert_eq!(delta.new_vertices().collect::<Vec<_>>(), vec![e, a]);
        assert_eq!(delta.new_edges().count(), 1);
        // Property writes do not move the cursor.
        let c1 = g.cursor();
        g.set_vprop(e, "tag", "raw");
        assert_eq!(g.cursor(), c1);
        assert!(g.delta_since(c1).is_empty());
    }
}
