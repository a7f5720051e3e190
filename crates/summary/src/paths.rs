//! Bounded path-language extraction — the Psg invariant checker.
//!
//! A valid Psg preserves exactly the class-labeled path words of the input
//! segments (condition (c) of the Psg definition): every word of `g0` appears
//! in the summary and vice versa. This module enumerates all words up to a
//! length bound, giving tests a decidable (bounded) version of the invariant.
//! Since merging never introduces *short* new words without introducing one at
//! the first divergence point, bounded equality is a strong check in practice.

use crate::union::G0;
use std::collections::BTreeSet;

/// A path word: alternating class ids and edge kinds, flattened.
pub type Word = Vec<u32>;

/// Enumerate every class-labeled path word of `graph` with at most `max_edges`
/// edges (words of single vertices included).
pub fn path_words(graph: &G0, max_edges: usize) -> BTreeSet<Word> {
    let mut words = BTreeSet::new();
    for v in 0..graph.len() as u32 {
        let mut word: Word = vec![graph.class(v).0];
        extend(graph, v, max_edges, &mut word, &mut words);
    }
    words
}

fn extend(graph: &G0, v: u32, remaining: usize, word: &mut Word, words: &mut BTreeSet<Word>) {
    words.insert(word.clone());
    if remaining == 0 {
        return;
    }
    for l in graph.out_links(v) {
        let (k, d) = (l.kind(), l.node());
        word.push(k as u32 + 1_000_000); // offset: edge kinds vs class ids
        word.push(graph.class(d).0);
        extend(graph, d, remaining - 1, word, words);
        word.pop();
        word.pop();
    }
}

/// Check the bounded Psg invariant: the summary (as a quotient `G0`) has
/// exactly the same words as the input `g0`. Returns a human-readable error
/// on the first difference.
pub fn check_invariant(g0: &G0, summary: &G0, max_edges: usize) -> Result<(), String> {
    let w_in = path_words(g0, max_edges);
    let w_out = path_words(summary, max_edges);
    if let Some(extra) = w_out.difference(&w_in).next() {
        return Err(format!("summary INTRODUCES path word {extra:?}"));
    }
    if let Some(lost) = w_in.difference(&w_out).next() {
        return Err(format!("summary LOSES path word {lost:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::PropertyAggregation;
    use crate::merge::{merge, quotient};
    use crate::segment_ref::SegmentRef;
    use crate::union::build_g0;
    use prov_model::EdgeKind;
    use prov_store::ProvGraph;

    fn twins_g0() -> G0 {
        let mut g = ProvGraph::new();
        let mut segs = Vec::new();
        for i in 0..2 {
            let d = g.add_entity(&format!("d{i}"));
            let t = g.add_activity("t");
            let w = g.add_entity(&format!("w{i}"));
            let e1 = g.add_edge(EdgeKind::Used, t, d).unwrap();
            let e2 = g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
            segs.push(SegmentRef::new(vec![d, t, w], vec![e1, e2]));
        }
        build_g0(&g, &segs, &PropertyAggregation::ignore_all(), 1)
    }

    #[test]
    fn words_enumerate_prefixes() {
        let g0 = twins_g0();
        let words = path_words(&g0, 2);
        // Single-vertex words: one per class = 3.
        let singles = words.iter().filter(|w| w.len() == 1).count();
        assert_eq!(singles, 3);
        // Two-edge word: w -G-> t -U-> d appears.
        assert!(words.iter().any(|w| w.len() == 5));
    }

    #[test]
    fn merge_preserves_bounded_words() {
        let g0 = twins_g0();
        let merged = merge(&g0);
        let q = quotient(&g0, &merged.group_of, merged.group_count);
        check_invariant(&g0, &q, 4).expect("twin merge is path-preserving");
    }

    #[test]
    fn detector_catches_introduced_paths() {
        // Merge two vertices ILLEGALLY: d0 with w0 (different classes — the
        // quotient would mix labels; instead force same-class abuse at k=0).
        let mut g = ProvGraph::new();
        let d = g.add_entity("d");
        let t = g.add_activity("t");
        let w = g.add_entity("w");
        let e1 = g.add_edge(EdgeKind::Used, t, d).unwrap();
        let e2 = g.add_edge(EdgeKind::WasGeneratedBy, w, t).unwrap();
        let seg = SegmentRef::new(vec![d, t, w], vec![e1, e2]);
        let g0 = build_g0(&g, &[seg], &PropertyAggregation::ignore_all(), 0);
        // k=0: d and w share a class. Merging them creates the cyclic word
        // w -G-> t -U-> (d=w) -G-> t ... i.e. new longer words.
        let group_of = vec![0u32, 1, 0];
        let q = quotient(&g0, &group_of, 2);
        let err = check_invariant(&g0, &q, 4).unwrap_err();
        assert!(err.contains("INTRODUCES"), "{err}");
    }

    #[test]
    fn detector_catches_lost_paths() {
        let g0 = twins_g0();
        // Summary that drops all edges: loses words.
        let broken = G0::new(g0.nodes.clone(), [], g0.segment_count, g0.class_count());
        let err = check_invariant(&g0, &broken, 3).unwrap_err();
        assert!(err.contains("LOSES"), "{err}");
    }
}
