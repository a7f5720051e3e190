//! Partition refinement, the one kernel behind provenance types `Rk`
//! (Sec. IV-A.1) and pSum's bisimulation blocks (Sec. V).
//!
//! A round keys every node by its block and the sorted words of its rows,
//! each packing (direction, edge kind, neighbour block), and numbers the
//! keys densely in first-appearance order. Keys are compared whole, never
//! hashed into a name. A node's own block leads its key, so a round only
//! splits blocks, and one that adds no block has changed nothing: the
//! refinement stops there. That test counts blocks, so the initial ids are
//! renumbered first. A block of one node cannot split, so its node is keyed
//! by its block alone: its id is the same, and its rows are not read.
//!
//! - Multiset keys for `k` rounds from the aggregate labels: degree-aware
//!   WL refinement, Moreau's aggregation by provenance types.
//! - Set keys to the fixpoint from the `≡kκ` classes: the coarsest
//!   forward+backward bisimulation that refines them.

use crate::union::{Adjacency, Link};
use prov_store::hash::FxHashMap;

/// How a round reads a node's neighbour keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Neighbours {
    /// One key per row entry: repeated edges count again.
    Multiset,
    /// Each (direction, kind, block) key once.
    Set,
}

/// Refine the `initial` partition over the `out` and `inc` rows for at most
/// `rounds` rounds (`usize::MAX`: to the fixpoint), stopping early once a
/// round adds no block. Returns each node's block, dense in first-appearance
/// order, and the number of blocks.
pub(crate) fn refine(
    initial: impl Iterator<Item = u32>,
    out: &Adjacency,
    inc: &Adjacency,
    neighbours: Neighbours,
    rounds: usize,
) -> (Vec<u32>, usize) {
    // Node `v`'s key is `keys[ends[v - 1]..ends[v]]`; round 0 keys it by
    // its initial id alone.
    let mut keys: Vec<u64> = initial.map(u64::from).collect();
    let n = keys.len();
    let mut ends: Vec<usize> = (1..=n).collect();
    let (mut block, mut size, mut row) = (Vec::with_capacity(n), Vec::new(), Vec::new());
    renumber(&keys, &ends, &mut block, &mut size);
    for _ in 0..rounds {
        let count = size.len();
        let key = |dir: u64, l: &Link| {
            dir << 40 | u64::from(l.kind()) << 32 | u64::from(block[l.node() as usize])
        };
        keys.clear();
        ends.clear();
        for v in 0..n as u32 {
            let own = block[v as usize];
            keys.push(u64::from(own));
            if size[own as usize] > 1 {
                row.clear();
                row.extend(out.row(v).iter().map(|l| key(0, l)));
                row.extend(inc.row(v).iter().map(|l| key(1, l)));
                row.sort_unstable();
                if neighbours == Neighbours::Set {
                    row.dedup();
                }
                keys.extend_from_slice(&row);
            }
            ends.push(keys.len());
        }
        renumber(&keys, &ends, &mut block, &mut size);
        if size.len() == count {
            break;
        }
    }
    (block, size.len())
}

/// Write the dense first-appearance id of each key slice to `block`, and
/// the number of nodes with each id to `size`.
fn renumber(keys: &[u64], ends: &[usize], block: &mut Vec<u32>, size: &mut Vec<u32>) {
    let mut ids: FxHashMap<&[u64], u32> =
        FxHashMap::with_capacity_and_hasher(ends.len(), Default::default());
    let starts = std::iter::once(0).chain(ends.iter().copied());
    block.clear();
    size.clear();
    block.extend(starts.zip(ends).map(|(s, &e)| {
        let id = *ids.entry(&keys[s..e]).or_insert_with(|| {
            size.push(0);
            size.len() as u32 - 1
        });
        size[id as usize] += 1;
        id
    }));
}
