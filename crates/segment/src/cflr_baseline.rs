//! `L(SimProv)` evaluation through the generic CflrB solver (the baseline of
//! Fig. 5(a)–(c)).
//!
//! Runs the state-of-the-art general CFLR algorithm on the Fig. 6 normal form
//! of SimProv over the (masked) provenance graph and reads the answer off the
//! start relation `Re`. Being a general solver it evaluates *all pairs* — the
//! paper notes single-source CFLR cannot exploit source information — which is
//! exactly why SimProvAlg/SimProvTst beat it.
//!
//! `Re` relates entities at alternating-distance `2k (k ≥ 1)` around a
//! destination; the trivial level-0 facts (`vj` with itself) are part of the
//! rewritten grammar's `Ee` but not of `Re`, so they are added back here to
//! give all evaluators identical answer semantics.

use crate::outcome::{EvalStats, SimilarOutcome};
use crate::view::MaskedGraph;
use prov_bitset::traits::HashFastSet;
use prov_bitset::{CompressedBitmap, FastSet, FixedBitSet, SetBackend};
use prov_cfl::simprov;
use prov_cfl::{normalize, solve, CflrResult};
use prov_model::{VertexId, VertexKind};
use prov_store::rank_u32;
use std::time::Instant;

/// Which SimProv grammar form the solver runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrammarForm {
    /// The paper's Fig. 6 normal form (`Qd..Re`), the faithful CflrB setup.
    NormalFig6,
    /// The rewritten Fig. 4 grammar, normalized mechanically. Used by tests to
    /// show both forms define the same reachability.
    RewrittenFig4,
}

fn finish<S: FastSet>(
    result: CflrResult<S>,
    start: prov_cfl::NonTerminal,
    form: GrammarForm,
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    t0: Instant,
) -> SimilarOutcome {
    let idx = view.index();
    let mut marks = vec![false; idx.vertex_count()];
    for &src in vsrc {
        if src.index() >= idx.vertex_count()
            || !view.vertex_ok(src)
            || idx.kind(src) != VertexKind::Entity
        {
            continue;
        }
        for t in result.row(start, src.raw()) {
            marks[t as usize] = true;
        }
        // All-pairs relations are symmetric here; read the column side too via
        // the transpose fact N(t, src).
        for t in 0..rank_u32(idx.vertex_count()) {
            if result.contains(start, t, src.raw()) {
                marks[t as usize] = true;
            }
        }
        if form == GrammarForm::NormalFig6 {
            // Re omits the level-0 anchor facts; restore identity answers for
            // sources that are themselves destinations.
            if vdst.contains(&src) {
                marks[src.index()] = true;
            }
        }
    }
    let stats = result.stats();
    SimilarOutcome {
        answer: crate::outcome::marks_to_vec(&marks),
        vc2: None,
        stats: EvalStats {
            elapsed: t0.elapsed(),
            work: stats.worklist_pops,
            memory_bytes: stats.fact_table_bytes,
            dnf: false,
        },
    }
}

/// Evaluate with CflrB using the chosen grammar form and set backend.
pub fn similar_cflr(
    view: &MaskedGraph<'_>,
    vsrc: &[VertexId],
    vdst: &[VertexId],
    form: GrammarForm,
    backend: SetBackend,
) -> SimilarOutcome {
    let t0 = Instant::now();
    let idx = view.index();
    let vdst_ok: Vec<VertexId> = vdst
        .iter()
        .copied()
        .filter(|&v| {
            v.index() < idx.vertex_count() && view.vertex_ok(v) && idx.kind(v) == VertexKind::Entity
        })
        .collect();
    let (grammar, handles) = match form {
        GrammarForm::NormalFig6 => simprov::normal_form_fig6(&vdst_ok),
        GrammarForm::RewrittenFig4 => simprov::rewritten_fig4(&vdst_ok),
    };
    let normal = normalize(&grammar);
    let start = normal.map_nonterminal(handles.start);
    match backend {
        SetBackend::Hash => {
            let res = solve::<HashFastSet>(&normal, view);
            finish(res, start, form, view, vsrc, vdst, t0)
        }
        SetBackend::Bit => {
            let res = solve::<FixedBitSet>(&normal, view);
            finish(res, start, form, view, vsrc, vdst, t0)
        }
        SetBackend::Compressed => {
            let res = solve::<CompressedBitmap>(&normal, view);
            finish(res, start, form, view, vsrc, vdst, t0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::{similar_alg_bitset, AlgConfig};
    use crate::tst::{similar_tst, TstConfig};
    use prov_model::EdgeKind;
    use prov_store::{ProvGraph, ProvIndex};

    fn pipeline() -> (ProvGraph, ProvIndex, Vec<VertexId>) {
        // Fig. 2-like: two training rounds from a shared dataset, second round
        // uses the first round's model.
        let mut g = ProvGraph::new();
        let d = g.add_entity("dataset");
        let m0 = g.add_entity("model-v1");
        let t1 = g.add_activity("train-v1");
        let w1 = g.add_entity("weights-v1");
        let l1 = g.add_entity("log-v1");
        let u2 = g.add_activity("update-v2");
        let m2 = g.add_entity("model-v2");
        let t2 = g.add_activity("train-v2");
        let w2 = g.add_entity("weights-v2");
        g.add_edge(EdgeKind::Used, t1, d).unwrap();
        g.add_edge(EdgeKind::Used, t1, m0).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w1, t1).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, l1, t1).unwrap();
        g.add_edge(EdgeKind::Used, u2, m0).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, m2, u2).unwrap();
        g.add_edge(EdgeKind::Used, t2, d).unwrap();
        g.add_edge(EdgeKind::Used, t2, m2).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, w2, t2).unwrap();
        let idx = ProvIndex::build(&g);
        (g, idx, vec![d, m0, t1, w1, l1, u2, m2, t2, w2])
    }

    #[test]
    fn fig6_answers_match_specialized_algorithms() {
        let (_, idx, ids) = pipeline();
        let view = MaskedGraph::unmasked(&idx);
        let entities: Vec<_> =
            ids.iter().copied().filter(|&v| idx.kind(v) == VertexKind::Entity).collect();
        for &src in &entities {
            for &dst in &entities {
                let c =
                    similar_cflr(&view, &[src], &[dst], GrammarForm::NormalFig6, SetBackend::Bit);
                let a = similar_alg_bitset(&view, &[src], &[dst], &AlgConfig::paper_default());
                let t = similar_tst(&view, &[src], &[dst], &TstConfig::default()).unwrap();
                assert_eq!(c.answer, t.answer, "cflr vs tst src={src} dst={dst}");
                assert_eq!(a.answer, t.answer, "alg vs tst src={src} dst={dst}");
            }
        }
    }

    #[test]
    fn both_grammar_forms_agree() {
        let (_, idx, ids) = pipeline();
        let view = MaskedGraph::unmasked(&idx);
        let (d, w2) = (ids[0], ids[8]);
        let f6 = similar_cflr(&view, &[d], &[w2], GrammarForm::NormalFig6, SetBackend::Bit);
        let f4 = similar_cflr(&view, &[d], &[w2], GrammarForm::RewrittenFig4, SetBackend::Bit);
        assert_eq!(f6.answer, f4.answer);
    }

    #[test]
    fn all_backends_agree() {
        let (_, idx, ids) = pipeline();
        let view = MaskedGraph::unmasked(&idx);
        let (d, w2) = (ids[0], ids[8]);
        let mut answers = Vec::new();
        for backend in SetBackend::ALL {
            answers.push(similar_cflr(&view, &[d], &[w2], GrammarForm::NormalFig6, backend).answer);
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[1], answers[2]);
    }

    #[test]
    fn identity_answer_for_src_equals_dst() {
        let (_, idx, ids) = pipeline();
        let view = MaskedGraph::unmasked(&idx);
        let d = ids[0];
        let out = similar_cflr(&view, &[d], &[d], GrammarForm::NormalFig6, SetBackend::Bit);
        assert!(out.answer.contains(&d), "identity pair restored for Fig.6");
        let t = similar_tst(&view, &[d], &[d], &TstConfig::default()).unwrap();
        assert_eq!(out.answer, t.answer);
    }

    #[test]
    fn work_and_memory_stats_populated() {
        let (_, idx, ids) = pipeline();
        let view = MaskedGraph::unmasked(&idx);
        let out =
            similar_cflr(&view, &[ids[0]], &[ids[8]], GrammarForm::NormalFig6, SetBackend::Bit);
        assert!(out.stats.work > 0);
        assert!(out.stats.memory_bytes > 0);
    }
}
