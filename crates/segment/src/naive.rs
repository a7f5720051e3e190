//! Naive Cypher-style evaluation: materialize all ancestry paths, then join.
//!
//! This reproduces the handcrafted Cypher query of Sec. III-B (Query 1) as
//! Neo4j executed it: hold every `<-[:U|G*]-` path from the anchors in path
//! variables, then join path pairs on node-by-node label equality. The cost is
//! exponential in path length × branching — the paper reports correct results
//! only on ~50-vertex graphs and >12 hours beyond that. A budget converts the
//! blow-up into an honest DNF report.
//!
//! Faithfulness note: the published Cypher allows the two joined paths to
//! start at *different* destination anchors; SimProv's palindrome pivots both
//! sides on the *same* `vj`. We join per-`vj` so this evaluator computes the
//! same answer as the other three (required by the differential tests).

use crate::outcome::{EvalStats, SimilarOutcome};
use crate::view::MaskedGraph;
use prov_model::{VertexId, VertexKind};
use prov_store::hash::FxHashSet;
use std::time::Instant;

/// Budget for the naive evaluator.
#[derive(Debug, Clone, Copy)]
pub struct NaiveBudget {
    /// Maximum number of materialized paths per destination.
    pub max_paths: usize,
    /// Maximum number of DFS expansions overall.
    pub max_expansions: u64,
}

impl Default for NaiveBudget {
    fn default() -> Self {
        NaiveBudget { max_paths: 2_000_000, max_expansions: 20_000_000 }
    }
}

/// One materialized ancestry path (vertex sequence; labels are implied by the
/// strict E/A alternation, so joining on length is joining on labels).
type Path = Vec<VertexId>;

/// Enumerate every forward `U`/`G` ancestry path starting at `from`.
/// Returns false when the budget ran out.
fn enumerate_paths(
    view: &MaskedGraph<'_>,
    from: VertexId,
    budget: NaiveBudget,
    expansions: &mut u64,
    out: &mut Vec<Path>,
) -> bool {
    let mut current: Path = vec![from];
    dfs(view, budget, expansions, &mut current, out)
}

fn dfs(
    view: &MaskedGraph<'_>,
    budget: NaiveBudget,
    expansions: &mut u64,
    current: &mut Path,
    out: &mut Vec<Path>,
) -> bool {
    *expansions += 1;
    if *expansions > budget.max_expansions || out.len() >= budget.max_paths {
        return false;
    }
    out.push(current.clone());
    let head = *current.last().expect("non-empty path");
    // Upstream neighbors; the provenance DAG guarantees termination.
    let next: Vec<VertexId> = view.upstream(head).collect();
    for w in next {
        current.push(w);
        let ok = dfs(view, budget, expansions, current, out);
        current.pop();
        if !ok {
            return false;
        }
    }
    true
}

/// Evaluate `L(SimProv)`-reachability by path enumeration and join.
pub fn similar_naive(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    budget: NaiveBudget,
) -> SimilarOutcome {
    similar_naive_constrained(view, vsrc, vdst, budget, None)
}

/// Constrained variant: two joined paths must additionally agree, position by
/// position, on the [`crate::alg::ConstraintTable`] fingerprints (reference
/// semantics for the property-constrained SimProv extension).
pub fn similar_naive_constrained(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    budget: NaiveBudget,
    constraint: Option<&crate::alg::ConstraintTable>,
) -> SimilarOutcome {
    let t0 = Instant::now();
    let idx = view.index();
    let n = idx.vertex_count();
    let src_set: FxHashSet<VertexId> = vsrc
        .iter()
        .copied()
        .filter(|&v| v.index() < n && view.vertex_ok(v) && idx.kind(v) == VertexKind::Entity)
        .collect();
    let mut marks = vec![false; n];
    let mut vc2 = vec![false; n];
    let mut expansions: u64 = 0;
    let mut total_paths: u64 = 0;
    let mut dnf = false;
    let mut seen_dst = vec![false; n];

    for &vj in vdst {
        if vj.index() >= n
            || seen_dst[vj.index()]
            || !view.vertex_ok(vj)
            || idx.kind(vj) != VertexKind::Entity
        {
            continue;
        }
        seen_dst[vj.index()] = true;
        // The Cypher plan: p2 = ALL ancestry paths from vj (path variable),
        // p1 = the subset of p2 that ends at a source.
        let mut p2: Vec<Path> = Vec::new();
        if !enumerate_paths(view, vj, budget, &mut expansions, &mut p2) {
            dnf = true;
        }
        total_paths += p2.len() as u64;
        // A path's join key: its length for plain SimProv (label equality of
        // two all-U/G ancestry paths is exactly length equality, by the strict
        // E/A alternation), plus the position-wise constraint-fingerprint
        // sequence when a property constraint is active.
        let key = |p: &Path| -> (usize, u64) {
            let sig = match constraint {
                None => 0u64,
                Some(table) => prov_store::hash::fx_hash64(
                    &p.iter().map(|&v| table.fp(v)).collect::<Vec<u64>>(),
                ),
            };
            (p.len(), sig)
        };
        // Accepted keys = keys of p1 paths (ending at a source).
        let accepted: FxHashSet<(usize, u64)> = p2
            .iter()
            .filter(|p| p.len() % 2 == 1 && src_set.contains(p.last().expect("non-empty")))
            .map(&key)
            .collect();
        if accepted.is_empty() {
            continue;
        }
        // Join: every p2 whose key is accepted is a witness side-2 path.
        for p in &p2 {
            if accepted.contains(&key(p)) {
                marks[p.last().expect("non-empty").index()] = true;
                for &v in p {
                    vc2[v.index()] = true;
                }
            }
        }
    }

    SimilarOutcome {
        answer: crate::outcome::marks_to_vec(&marks),
        vc2: Some(crate::outcome::marks_to_vec(&vc2)),
        stats: EvalStats { elapsed: t0.elapsed(), work: total_paths, memory_bytes: 0, dnf },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tst::{similar_tst, TstConfig};
    use prov_model::EdgeKind;
    use prov_store::{ProvGraph, ProvIndex};

    fn fan() -> (ProvGraph, ProvIndex, Vec<VertexId>) {
        // d <- t1 <- m1 ; d <- t2 <- m2 ; {m1,m2,cfg} <- t3 <- w
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let cfg = g.add_entity("cfg");
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
        g.add_edge(EdgeKind::Used, t3, cfg).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w, t3).unwrap();
        let idx = ProvIndex::build(&g);
        (g, idx, vec![d, cfg, t1, m1, t2, m2, t3, w])
    }

    #[test]
    fn naive_agrees_with_tst_answers_and_vc2() {
        let (_, idx, ids) = fan();
        let view = MaskedGraph::unmasked(&idx);
        let entities: Vec<_> =
            ids.iter().copied().filter(|&v| idx.kind(v) == VertexKind::Entity).collect();
        for &src in &entities {
            for &dst in &entities {
                let nv = similar_naive(&view, &[src], &[dst], NaiveBudget::default());
                let ts = similar_tst(&view, &[src], &[dst], &TstConfig::default()).unwrap();
                assert!(!nv.stats.dnf);
                assert_eq!(nv.answer, ts.answer, "answer src={src} dst={dst}");
                assert_eq!(nv.vc2, ts.vc2, "vc2 src={src} dst={dst}");
            }
        }
    }

    #[test]
    fn sibling_config_in_answer_via_same_level() {
        let (_, idx, ids) = fan();
        let view = MaskedGraph::unmasked(&idx);
        let (cfg, m1, m2, w) = (ids[1], ids[3], ids[5], ids[7]);
        // src = {m1}: level 2 of w = {m1, m2, cfg}: all three are answers.
        let out = similar_naive(&view, &[m1], &[w], NaiveBudget::default());
        assert_eq!(out.answer, vec![cfg, m1, m2]);
    }

    #[test]
    fn budget_exhaustion_reports_dnf() {
        let (_, idx, ids) = fan();
        let view = MaskedGraph::unmasked(&idx);
        let out = similar_naive(
            &view,
            &[ids[0]],
            &[ids[7]],
            NaiveBudget { max_paths: 2, max_expansions: 3 },
        );
        assert!(out.stats.dnf);
    }

    #[test]
    fn path_count_is_exponential_in_fanout() {
        // Chain of diamonds: each level doubles the path count.
        let mut g = ProvGraph::new();
        let mut prev = g.add_entity("e0");
        for i in 0..6 {
            let a1 = g.add_activity(&format!("a{i}x"));
            let a2 = g.add_activity(&format!("a{i}y"));
            let e = g.add_entity(&format!("e{}", i + 1));
            g.add_edge(EdgeKind::Used, a1, prev).unwrap();
            g.add_edge(EdgeKind::Used, a2, prev).unwrap();
            g.add_edge(EdgeKind::WasGeneratedBy, e, a1).unwrap();
            g.add_edge(EdgeKind::WasGeneratedBy, e, a2).unwrap();
            prev = e;
        }
        let idx = ProvIndex::build(&g);
        let view = MaskedGraph::unmasked(&idx);
        let src = VertexId::new(0);
        let out = similar_naive(&view, &[src], &[prev], NaiveBudget::default());
        // 2^6 = 64 full-length paths plus all their prefixes.
        assert!(out.stats.work > 64, "materialized {} paths", out.stats.work);
        assert!(out.answer.contains(&src));
    }
}
