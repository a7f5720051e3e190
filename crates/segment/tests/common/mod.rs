//! The definition SimProvTst is tested against: the upstream level sets of one
//! destination as vertex lists, and the answer / `VC2` read off them. Costs
//! `Σ_m |level_m|` (quadratic on `Pd` graphs) and never ends on a cycle, which
//! is why it lives here and not in the library.

use prov_model::VertexId;
use prov_segment::MaskedGraph;
use std::collections::{BTreeMap, BTreeSet};

/// `levels[m]` = the vertices `m` upstream steps from `vj` (even = entities,
/// odd = activities), each level sorted; empty when `vj` is masked out.
pub fn levels(view: &MaskedGraph<'_>, vj: VertexId) -> Vec<Vec<VertexId>> {
    let mut levels: Vec<Vec<VertexId>> = Vec::new();
    let mut next = if view.vertex_ok(vj) { vec![vj] } else { Vec::new() };
    while !next.is_empty() {
        levels.push(next);
        next = levels[levels.len() - 1].iter().flat_map(|&u| view.upstream(u)).collect();
        next.sort_unstable();
        next.dedup();
    }
    levels
}

/// `(answer, VC2)` by the definition: the accepted lengths `Mset` are the even
/// levels holding a source, the answer is their union, and `u` at level `m` is
/// in `VC2` iff some accepted `M` lies in `[m, m + ext(u)]`.
pub fn similar_by_levels(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
) -> (Vec<VertexId>, Vec<VertexId>) {
    let (mut answer, mut vc2) = (BTreeSet::new(), BTreeSet::new());
    for &vj in vdst {
        let levels = levels(view, vj);
        let accepted =
            |m: &usize| m.is_multiple_of(2) && levels[*m].iter().any(|u| vsrc.contains(u));
        let mset: Vec<usize> = (0..levels.len()).filter(accepted).collect();
        // Upstream neighbours sit one level deeper, so the deepest level a
        // vertex appears in comes after all of theirs.
        let mut ext: BTreeMap<VertexId, usize> = BTreeMap::new();
        for &u in levels.iter().rev().flatten() {
            if !ext.contains_key(&u) {
                let longest = view.upstream(u).map(|w| 1 + ext[&w]).max().unwrap_or(0);
                ext.insert(u, longest);
            }
        }
        for (m, level) in levels.iter().enumerate() {
            let Some(&next) = mset.iter().find(|&&accepted| accepted >= m) else { break };
            answer.extend(level.iter().filter(|_| next == m));
            vc2.extend(level.iter().filter(|u| next <= m + ext[u]));
        }
    }
    (answer.into_iter().collect(), vc2.into_iter().collect())
}
