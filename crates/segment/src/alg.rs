//! `SimProvAlg`: worklist evaluation of the rewritten Fig. 4 grammar.
//!
//! Compared with running generic CflrB on the Fig. 6 normal form, SimProvAlg
//! exploits three properties (Sec. III-B):
//!
//! 1. **Combined rules** — `Aa → G⁻¹ Ee G` fuses the two normal-form rules
//!    `Lg → G⁻¹ Re` and `Rg → Lg G`, so no `Lg/Rg/...` intermediate facts ever
//!    enter the worklist: a popped `Ee(e1,e2)` directly produces activity
//!    pairs over the generator adjacency, and a popped `Aa(a1,a2)` directly
//!    produces entity pairs over the input adjacency.
//! 2. **Symmetry** — `Ee` and `Aa` are symmetric relations, so only canonical
//!    pairs (`rank(x) ≤ rank(y)`) are stored and processed (the paper's
//!    pruning strategy; toggleable for the Fig. 5(d)-style ablation).
//! 3. **Early stopping** — a pair whose endpoints are both older than every
//!    source entity can never extend to an accepting fact (expansion only
//!    moves further upstream, i.e. strictly older), so it is not expanded.
//!    PROV-specific: generic CFLR cannot use source information.
//!
//! Facts live in per-kind rank universes (dense entity/activity ids), so the
//! `FixedBitSet` tables take `O(|E|²/w + |A|²/w)` bits and the compressed
//! variant trades random-access speed for memory exactly as in the paper.
//!
//! The inner loop is pair-encoded (ISSUE 3): worklist entries are flat `u64`
//! words (one kind-tag bit plus two packed dense ranks) popped off a `Vec`.
//! A one-time pre-pass lowers everything the loop touches to rank space —
//! the exclusion mask is resolved into sorted rank-adjacency rows, and
//! births/constraint fingerprints are re-indexed by rank — so a pop reads
//! only dense arrays: no `VertexId` round-trips, no per-element mask probes,
//! and fingerprints resolved once per neighbor instead of once per pair.
//! Matched pairs dedup against a [`PairTable`] (flat `n²`-bit layout at
//! quick scales) whose insert primitives push fresh facts, kind-tagged,
//! straight back onto the worklist; ascending rows let canonical pairs flow
//! through the constant-row batch [`PairTable::insert_row`]. The seed
//! `VecDeque`-of-tuples loop survives as
//! [`crate::alg_reference::similar_alg_reference`] for differential tests
//! and the benchmark trajectory (`BENCH_fig5.json`, figure `wl`).

use crate::outcome::{EvalStats, SimilarOutcome};
use crate::view::MaskedGraph;
use prov_bitset::{pack_pair, CompressedBitmap, FastSet, FixedBitSet, PairTable};
use prov_model::{VertexId, VertexKind};
use prov_store::{rank_u32, ProvIndex};
use std::time::Instant;

/// Configuration for [`similar_alg`].
///
/// `AlgConfig::default()` is the paper's configuration: both optimizations
/// on, no property constraint (see [`AlgConfig::paper_default`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgConfig {
    /// Store/process only canonical (ordered) pairs of the symmetric
    /// relations.
    pub symmetric_prune: bool,
    /// Apply the temporal early-stopping rule.
    pub early_stop: bool,
    /// Property-constrained similarity (Sec. III-A's generalization): the two
    /// matched path sides must also agree on these property values at every
    /// step. E.g. the "same command" table realizes the rewritten rule
    /// `Ee → U⁻¹ σ(ai, command) Aa σ(aj, command) U` — only activity pairs
    /// running the same command count as similar. `None` = plain SimProv.
    pub constraint: Option<ConstraintTable>,
}

impl Default for AlgConfig {
    /// Identical to [`AlgConfig::paper_default`]. (The seed's derived
    /// `Default` silently turned *off* both optimizations, contradicting the
    /// field docs; a regression test pins the explicit impl to the paper's
    /// values.)
    fn default() -> Self {
        Self::paper_default()
    }
}

impl AlgConfig {
    /// The paper's default configuration: symmetric pruning and early
    /// stopping on, plain label-based SimProv.
    pub fn paper_default() -> Self {
        AlgConfig { symmetric_prune: true, early_stop: true, constraint: None }
    }
}

/// Per-vertex property fingerprints compiled from a [`SimilarConstraint`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintTable {
    /// Fingerprint per vertex (activities constrained by `activity_prop`,
    /// entities by `entity_prop`; unconstrained kinds and missing values get
    /// fixed sentinels so that "both missing" still matches).
    fp: Vec<u64>,
}

impl ConstraintTable {
    /// Fingerprint of a vertex.
    #[inline]
    pub fn fp(&self, v: VertexId) -> u64 {
        self.fp[v.index()]
    }
}

/// Fine-grained similarity constraints over property values (`σ`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimilarConstraint {
    /// Matched activities must share this property's value.
    pub activity_prop: Option<String>,
    /// Matched entities must share this property's value.
    pub entity_prop: Option<String>,
}

impl SimilarConstraint {
    /// No constraint (plain SimProv).
    pub fn none() -> Self {
        Self::default()
    }

    /// The paper's example: matched activities must run the same command.
    pub fn same_command() -> Self {
        SimilarConstraint { activity_prop: Some("command".into()), entity_prop: None }
    }

    /// True when no property constraint is active.
    pub fn is_empty(&self) -> bool {
        self.activity_prop.is_none() && self.entity_prop.is_none()
    }

    /// Compile against a graph into per-vertex fingerprints.
    pub fn compile(&self, graph: &prov_store::ProvGraph) -> ConstraintTable {
        use prov_store::hash::fx_hash64;
        let fp = graph
            .vertex_ids()
            .map(|v| {
                let key = match graph.vertex_kind(v) {
                    VertexKind::Activity => self.activity_prop.as_deref(),
                    VertexKind::Entity => self.entity_prop.as_deref(),
                    VertexKind::Agent => None,
                };
                match key {
                    None => 0u64, // unconstrained kind: always matches
                    Some(k) => match graph.vprop(v, k) {
                        Some(val) => fx_hash64(&(1u8, val)),
                        None => fx_hash64(&2u8), // "missing" matches "missing"
                    },
                }
            })
            .collect();
        ConstraintTable { fp }
    }
}

/// Kind tag of a packed worklist word: set = `Ee` fact, clear = `Aa` fact.
const EE_TAG: u64 = 1 << 63;
/// Mask isolating the first rank from the word's high half (31 bits — the
/// tag bit leaves ranks below `2³¹`, asserted at entry).
const HI_RANK_MASK: u64 = (1 << 31) - 1;

/// Derive one matched pair: dedup it against the target fact table and, when
/// fresh, push it (kind-tagged) straight onto the worklist.
#[inline]
fn derive_pair<S: FastSet>(
    target: &mut PairTable<S>,
    worklist: &mut Vec<u64>,
    tag: u64,
    prune: bool,
    r1: u32,
    r2: u32,
) {
    if prune {
        target.insert_packed(pack_pair(r1.min(r2), r1.max(r2)), tag, worklist);
    } else {
        target.insert_packed(pack_pair(r1, r2), tag, worklist);
        if r1 != r2 {
            target.insert_packed(pack_pair(r2, r1), tag, worklist);
        }
    }
}

/// The mask-resolved upstream adjacency of one vertex kind, lowered to dense
/// per-kind ranks: row `r` lists the ranks reachable one upstream step from
/// the member with rank `r` (generator activities of an entity, input
/// entities of an activity).
///
/// Built once per evaluation, this lets the worklist loop run entirely in
/// rank space — no `VertexId` round-trips, no per-element mask probes, and
/// sequential `u32` reads in the inner pair loop.
struct RankAdjacency {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl RankAdjacency {
    fn build(view: &MaskedGraph<'_>, idx: &ProvIndex, from: VertexKind) -> RankAdjacency {
        let members = idx.kind_members(from);
        let mut offsets = Vec::with_capacity(members.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0u32);
        let masked = view.is_masked();
        for &v in members {
            let start = targets.len();
            match (from == VertexKind::Entity, masked) {
                // Unmasked: raw CSR slices, no per-element filtering.
                (true, false) => {
                    targets.extend(idx.generators_of(v).iter().map(|&a| idx.kind_rank(a)));
                }
                (false, false) => {
                    targets.extend(idx.inputs_of(v).iter().map(|&e| idx.kind_rank(e)));
                }
                (true, true) => targets.extend(view.generators_of(v).map(|a| idx.kind_rank(a))),
                (false, true) => targets.extend(view.inputs_of(v).map(|e| idx.kind_rank(e))),
            }
            // Ascending rows let the pair loop split canonical pairs into a
            // constant-row suffix batch (see `PairTable::insert_row`).
            targets[start..].sort_unstable();
            offsets.push(rank_u32(targets.len()));
        }
        RankAdjacency { offsets, targets }
    }

    #[inline]
    fn row(&self, r: u32) -> &[u32] {
        &self.targets[self.offsets[r as usize] as usize..self.offsets[r as usize + 1] as usize]
    }
}

/// A per-vertex table (births, constraint fingerprints) re-indexed by the
/// dense rank of one kind.
fn by_rank<T>(members: &[VertexId], f: impl Fn(VertexId) -> T) -> Vec<T> {
    members.iter().map(|&v| f(v)).collect()
}

/// Evaluate `L(SimProv)`-reachability with SimProvAlg over fact tables `S`.
pub fn similar_alg<S: FastSet>(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    cfg: &AlgConfig,
) -> SimilarOutcome {
    let t0 = Instant::now();
    let idx = view.index();
    let entities = idx.kind_members(VertexKind::Entity);
    let activities = idx.kind_members(VertexKind::Activity);
    let (ne, na) = (entities.len(), activities.len());
    assert!(
        ne < (1 << 31) && na < (1 << 31),
        "pair-encoded worklist holds ranks below 2^31 (got |E|={ne}, |A|={na})"
    );

    let mut ee: PairTable<S> = PairTable::new(ne);
    let mut aa: PairTable<S> = PairTable::new(na);
    // Flat worklist of packed facts; a `Vec` (LIFO) is fine because the
    // derived relation is a fixpoint — insertion order never changes it.
    let mut worklist: Vec<u64> = Vec::new();
    let mut pops: u64 = 0;

    let min_src_birth: Option<u64> = vsrc
        .iter()
        .filter(|&&s| s.index() < idx.vertex_count() && view.vertex_ok(s))
        .map(|&s| idx.birth(s))
        .min()
        .filter(|_| cfg.early_stop);

    // Init: Ee(vj, vj) anchors.
    for &vj in vdst {
        if vj.index() < idx.vertex_count()
            && view.vertex_ok(vj)
            && idx.kind(vj) == VertexKind::Entity
        {
            let r = idx.kind_rank(vj);
            if ee.insert(r, r) {
                worklist.push(EE_TAG | pack_pair(r, r));
            }
        }
    }

    // Lower everything the loop touches to rank space, once: the mask is
    // resolved into the adjacency, and births/fingerprints are re-indexed by
    // rank. The worklist loop then never leaves dense `u32` arrays.
    let gen_ranks = RankAdjacency::build(view, idx, VertexKind::Entity);
    let inp_ranks = RankAdjacency::build(view, idx, VertexKind::Activity);
    // Early-stop predicate per rank, pre-evaluated to one byte per member.
    let stale: Option<(Vec<bool>, Vec<bool>)> = min_src_birth.map(|minb| {
        (by_rank(entities, |v| idx.birth(v) < minb), by_rank(activities, |v| idx.birth(v) < minb))
    });
    let table = cfg.constraint.as_ref();
    // Fingerprints of the *derived* side: an `Ee` pop matches generator
    // activities, an `Aa` pop matches input entities.
    let fps: Option<(Vec<u64>, Vec<u64>)> =
        table.map(|t| (by_rank(activities, |v| t.fp(v)), by_rank(entities, |v| t.fp(v))));
    let prune = cfg.symmetric_prune;

    while let Some(word) = worklist.pop() {
        pops += 1;
        let is_ee = word & EE_TAG != 0;
        // The two kind ranks packed into the word, high half under the tag bit.
        let lo = rank_u32(((word >> 32) & HI_RANK_MASK) as usize);
        let hi = rank_u32((word & 0xffff_ffff) as usize);
        if let Some((se, sa)) = &stale {
            let s = if is_ee { se } else { sa };
            if s[lo as usize] && s[hi as usize] {
                continue; // early stop: both older than every source
            }
        }

        let adj = if is_ee { &gen_ranks } else { &inp_ranks };
        let s1 = adj.row(lo);
        if s1.is_empty() {
            continue;
        }
        let diagonal = lo == hi;
        let s2 = if diagonal { s1 } else { adj.row(hi) };

        // Derived facts go into the *other* relation; fresh ones land on the
        // worklist with that relation's kind tag (`Aa` = clear bit).
        let (target, tag) = if is_ee { (&mut aa, 0) } else { (&mut ee, EE_TAG) };
        if let ([r1], [r2]) = (s1, s2) {
            // Dominant shape in lifecycle provenance: both endpoints have a
            // single upstream neighbor (every entity has exactly one
            // generating activity), so a pop derives exactly one pair.
            let (r1, r2) = (*r1, *r2);
            let ok = match &fps {
                Some((fa, fe)) => {
                    let f = if is_ee { fa } else { fe };
                    f[r1 as usize] == f[r2 as usize]
                }
                None => true,
            };
            if ok {
                derive_pair(target, &mut worklist, tag, prune, r1, r2);
            }
            continue;
        }
        for (x, &r1) in s1.iter().enumerate() {
            // Diagonal pops under pruning match one shared adjacency list
            // against itself and only keep canonical pairs: the suffix loop
            // derives each unordered pair once instead of twice.
            let inner: &[u32] = if prune && diagonal { &s2[x..] } else { s2 };
            match &fps {
                // Constraint fingerprints resolve once per outer neighbor
                // (`f1`), not once per pair as in the seed loop.
                Some((fa, fe)) => {
                    let f = if is_ee { fa } else { fe };
                    let f1 = f[r1 as usize];
                    for &r2 in inner {
                        if f1 == f[r2 as usize] {
                            derive_pair(target, &mut worklist, tag, prune, r1, r2);
                        }
                    }
                }
                None if prune => {
                    // Rows are ascending, so canonical pairs split at `r1`:
                    // the prefix lands in varying rows, the suffix is one
                    // constant-row ascending batch.
                    let split = inner.partition_point(|&r2| r2 < r1);
                    for &r2 in &inner[..split] {
                        target.insert_packed(pack_pair(r2, r1), tag, &mut worklist);
                    }
                    target.insert_row(r1, &inner[split..], tag, &mut worklist);
                }
                None => {
                    target.insert_row(r1, inner, tag, &mut worklist);
                    for &r2 in inner {
                        if r2 != r1 {
                            target.insert_packed(pack_pair(r2, r1), tag, &mut worklist);
                        }
                    }
                }
            }
        }
    }

    // Answer: partners of each source in the Ee relation.
    let mut marks = vec![false; idx.vertex_count()];
    let mut buf: Vec<u32> = Vec::new();
    for &src in vsrc {
        if src.index() >= idx.vertex_count()
            || !view.vertex_ok(src)
            || idx.kind(src) != VertexKind::Entity
        {
            continue;
        }
        buf.clear();
        ee.partners_into(idx.kind_rank(src), &mut buf);
        for &r in &buf {
            marks[entities[r as usize].index()] = true;
        }
    }
    let answer = crate::outcome::marks_to_vec(&marks);
    let mem = ee.heap_bytes() + aa.heap_bytes();
    SimilarOutcome {
        answer,
        vc2: None,
        stats: EvalStats {
            elapsed: t0.elapsed(),
            work: pops + (ee.len() + aa.len()) as u64,
            memory_bytes: mem,
            dnf: false,
        },
    }
}

/// SimProvAlg with `FixedBitSet` fact tables (the paper's default).
pub fn similar_alg_bitset(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    cfg: &AlgConfig,
) -> SimilarOutcome {
    similar_alg::<FixedBitSet>(view, vsrc, vdst, cfg)
}

/// SimProvAlg with compressed-bitmap fact tables (`w CBM`).
pub fn similar_alg_cbm(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    cfg: &AlgConfig,
) -> SimilarOutcome {
    similar_alg::<CompressedBitmap>(view, vsrc, vdst, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_reference::similar_alg_reference_bitset;
    use crate::tst::{similar_tst, TstConfig};
    use prov_model::EdgeKind;
    use prov_store::{ProvGraph, ProvIndex};

    fn shared_dst() -> (ProvGraph, ProvIndex, Vec<VertexId>) {
        // d <-U- t1 <-G- m1 ; d <-U- t2 <-G- m2 ; {m1,m2} <-U- t3 <-G- w
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t1 = g.add_activity("t1");
        let m1 = g.add_entity("m1");
        let t2 = g.add_activity("t2");
        let m2 = g.add_entity("m2");
        let t3 = g.add_activity("t3");
        let w = g.add_entity("w");
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, m1, t1).unwrap();
        g.add_edge(EdgeKind::Used, t2, d).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, m2, t2).unwrap();
        g.add_edge(EdgeKind::Used, t3, m1).unwrap();
        g.add_edge(EdgeKind::Used, t3, m2).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w, t3).unwrap();
        let idx = ProvIndex::build(&g);
        let ids = vec![d, t1, m1, t2, m2, t3, w];
        (g, idx, ids)
    }

    #[test]
    fn default_config_is_the_paper_default() {
        // Regression: the seed's derived Default disabled both optimizations.
        assert_eq!(AlgConfig::default(), AlgConfig::paper_default());
        let d = AlgConfig::default();
        assert!(d.symmetric_prune && d.early_stop && d.constraint.is_none());
    }

    #[test]
    fn alg_finds_similar_siblings() {
        let (_, idx, ids) = shared_dst();
        let view = MaskedGraph::unmasked(&idx);
        let (m1, m2, w) = (ids[2], ids[4], ids[6]);
        let out = similar_alg_bitset(&view, &[m1], &[w], &AlgConfig::paper_default());
        assert_eq!(out.answer, vec![m1, m2]);
        assert!(out.vc2.is_none());
        assert!(out.stats.work > 0);
    }

    #[test]
    fn alg_agrees_with_tst_on_all_query_shapes() {
        let (_, idx, ids) = shared_dst();
        let view = MaskedGraph::unmasked(&idx);
        let entity_ids: Vec<_> =
            ids.iter().copied().filter(|&v| idx.kind(v) == VertexKind::Entity).collect();
        for &src in &entity_ids {
            for &dst in &entity_ids {
                let a = similar_alg_bitset(&view, &[src], &[dst], &AlgConfig::paper_default());
                let t = similar_tst(&view, &[src], &[dst], &TstConfig::default()).unwrap();
                assert_eq!(a.answer, t.answer, "src={src} dst={dst}");
            }
        }
        // Multi-source multi-destination.
        let a = similar_alg_bitset(
            &view,
            &[entity_ids[0], entity_ids[1]],
            &[entity_ids[3], entity_ids[2]],
            &AlgConfig::paper_default(),
        );
        let t = similar_tst(
            &view,
            &[entity_ids[0], entity_ids[1]],
            &[entity_ids[3], entity_ids[2]],
            &TstConfig::default(),
        )
        .unwrap();
        assert_eq!(a.answer, t.answer);
    }

    #[test]
    fn pruning_variants_agree() {
        let (_, idx, ids) = shared_dst();
        let view = MaskedGraph::unmasked(&idx);
        let (d, w) = (ids[0], ids[6]);
        let configs = [
            AlgConfig { symmetric_prune: true, early_stop: true, constraint: None },
            AlgConfig { symmetric_prune: true, early_stop: false, constraint: None },
            AlgConfig { symmetric_prune: false, early_stop: true, constraint: None },
            AlgConfig { symmetric_prune: false, early_stop: false, constraint: None },
        ];
        let expect = similar_alg_bitset(&view, &[d], &[w], &configs[0]).answer;
        for cfg in &configs[1..] {
            assert_eq!(similar_alg_bitset(&view, &[d], &[w], cfg).answer, expect, "{cfg:?}");
        }
        // Pruned run does less or equal work than unpruned.
        let pruned = similar_alg_bitset(&view, &[d], &[w], &configs[0]);
        let unpruned = similar_alg_bitset(&view, &[d], &[w], &configs[3]);
        assert!(pruned.stats.work <= unpruned.stats.work);
    }

    #[test]
    fn cbm_backend_agrees_with_bitset() {
        let (_, idx, ids) = shared_dst();
        let view = MaskedGraph::unmasked(&idx);
        let (d, w) = (ids[0], ids[6]);
        let b = similar_alg_bitset(&view, &[d], &[w], &AlgConfig::paper_default());
        let c = similar_alg_cbm(&view, &[d], &[w], &AlgConfig::paper_default());
        assert_eq!(b.answer, c.answer);
    }

    #[test]
    fn pair_encoded_loop_matches_seed_reference() {
        let (_, idx, ids) = shared_dst();
        let view = MaskedGraph::unmasked(&idx);
        let entity_ids: Vec<_> =
            ids.iter().copied().filter(|&v| idx.kind(v) == VertexKind::Entity).collect();
        for symmetric_prune in [false, true] {
            for early_stop in [false, true] {
                let cfg = AlgConfig { symmetric_prune, early_stop, constraint: None };
                for &src in &entity_ids {
                    for &dst in &entity_ids {
                        let new = similar_alg_bitset(&view, &[src], &[dst], &cfg);
                        let old = similar_alg_reference_bitset(&view, &[src], &[dst], &cfg);
                        assert_eq!(new.answer, old.answer, "{cfg:?} src={src} dst={dst}");
                        assert_eq!(new.stats.work, old.stats.work, "{cfg:?} src={src} dst={dst}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_entity_and_out_of_range_inputs_are_ignored() {
        let (_, idx, ids) = shared_dst();
        let view = MaskedGraph::unmasked(&idx);
        let t1 = ids[1]; // activity: invalid as src/dst
        let out = similar_alg_bitset(&view, &[t1], &[ids[6]], &AlgConfig::paper_default());
        assert!(out.answer.is_empty());
        let out = similar_alg_bitset(
            &view,
            &[VertexId::new(999)],
            &[ids[6]],
            &AlgConfig::paper_default(),
        );
        assert!(out.answer.is_empty());
    }
}
