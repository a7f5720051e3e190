//! The [`FastSet`] abstraction shared by all fact-table set representations.

/// A set of `u32` element ids over a bounded universe.
///
/// This is the interface the CFLR solvers (CflrB, SimProvAlg) are generic over.
/// The critical operations, matching the paper's description of the fast set
/// structure (Sec. III-B), are:
///
/// * `insert` — `O(1)` (amortized for the compressed variant),
/// * `contains` — `O(1)` for the bitset, `O(log)` for the compressed variant,
/// * `collect_missing` — the bulk set difference `other \ self` used by CflrB's
///   inner loop (`{u' ∈ Col(u,C) \ Col(v,A)}`), word-parallel where possible.
pub trait FastSet: Clone {
    /// Create an empty set able to hold ids in `0..universe`.
    fn with_universe(universe: usize) -> Self;

    /// Number of elements stored.
    fn len(&self) -> usize;

    /// True when no element is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    fn contains(&self, x: u32) -> bool;

    /// Insert `x`; returns true when `x` was newly inserted.
    fn insert(&mut self, x: u32) -> bool;

    /// Remove `x`; returns true when `x` was present.
    fn remove(&mut self, x: u32) -> bool;

    /// Remove every element.
    fn clear(&mut self);

    /// Append every element of `other` that is *not* in `self` to `out`.
    ///
    /// This is CflrB's set-difference primitive. Implementations should work in
    /// bulk (word-at-a-time for bitmaps) rather than element-at-a-time.
    fn collect_missing(&self, other: &Self, out: &mut Vec<u32>);

    /// Insert every element of `other` into `self` (set union in place).
    fn union_with(&mut self, other: &Self);

    /// Batch insert: add every element of `xs`, appending the ones that were
    /// *newly* inserted to `out` (in `xs` order).
    ///
    /// This is the primitive behind SimProvAlg's pair-encoded worklist: a pop
    /// stages all candidate facts for one row, inserts them in one call, and
    /// enqueues exactly the fresh ones. Implementations may exploit locality
    /// in `xs` (e.g. the compressed variant caches the container of a run of
    /// nearby ids) — the default is element-wise [`FastSet::insert`].
    fn insert_returning_new(&mut self, xs: &[u32], out: &mut Vec<u32>) {
        for &x in xs {
            if self.insert(x) {
                out.push(x);
            }
        }
    }

    /// Visit every element in ascending order without allocating.
    ///
    /// Hot-loop alternative to the boxed [`FastSet::iter_elems`]: the
    /// compressed backend's `iter_elems` materializes a `Vec`, which is too
    /// expensive inside a worklist pop.
    fn for_each_elem(&self, f: &mut dyn FnMut(u32)) {
        for x in self.iter_elems() {
            f(x);
        }
    }

    /// Iterate the elements in ascending order.
    fn iter_elems(&self) -> Box<dyn Iterator<Item = u32> + '_>;

    /// Collect elements into a sorted `Vec` (test/debug convenience).
    fn to_vec(&self) -> Vec<u32> {
        self.iter_elems().collect()
    }

    /// Approximate heap footprint in bytes (used by the benchmark harness to
    /// report the memory trade-off between the bitset and compressed variants).
    fn heap_bytes(&self) -> usize;
}

/// A `HashSet`-backed [`FastSet`], the naive baseline representation.
#[derive(Debug, Clone, Default)]
pub struct HashFastSet {
    #[expect(
        clippy::disallowed_types,
        reason = "HashFastSet *is* the deliberate std-hasher baseline oracle"
    )]
    inner: std::collections::HashSet<u32>,
}

impl FastSet for HashFastSet {
    #[expect(clippy::disallowed_types, reason = "the std baseline constructs its own backing set")]
    fn with_universe(_universe: usize) -> Self {
        Self { inner: std::collections::HashSet::new() }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, x: u32) -> bool {
        self.inner.contains(&x)
    }

    fn insert(&mut self, x: u32) -> bool {
        self.inner.insert(x)
    }

    fn remove(&mut self, x: u32) -> bool {
        self.inner.remove(&x)
    }

    fn clear(&mut self) {
        self.inner.clear();
    }

    fn collect_missing(&self, other: &Self, out: &mut Vec<u32>) {
        for &x in &other.inner {
            if !self.inner.contains(&x) {
                out.push(x);
            }
        }
    }

    fn union_with(&mut self, other: &Self) {
        self.inner.extend(other.inner.iter().copied());
    }

    fn iter_elems(&self) -> Box<dyn Iterator<Item = u32> + '_> {
        let mut v: Vec<u32> = self.inner.iter().copied().collect();
        v.sort_unstable();
        Box::new(v.into_iter())
    }

    fn heap_bytes(&self) -> usize {
        // Rough: ~8 bytes of table slot per element plus the key itself.
        self.inner.capacity() * (std::mem::size_of::<u32>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_fast_set_basic_ops() {
        let mut s = HashFastSet::with_universe(100);
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(99));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_vec(), vec![5, 99]);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn hash_fast_set_collect_missing() {
        let mut a = HashFastSet::with_universe(10);
        let mut b = HashFastSet::with_universe(10);
        for x in [1, 2, 3] {
            a.insert(x);
        }
        for x in [2, 3, 4, 5] {
            b.insert(x);
        }
        let mut out = Vec::new();
        a.collect_missing(&b, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![4, 5]);
    }

    #[test]
    fn hash_fast_set_batch_insert_and_for_each() {
        let mut s = HashFastSet::with_universe(100);
        s.insert(2);
        let mut fresh = Vec::new();
        s.insert_returning_new(&[1, 2, 3, 3], &mut fresh);
        assert_eq!(fresh, vec![1, 3], "only newly-inserted elements reported");
        assert_eq!(s.len(), 3);
        let mut seen = Vec::new();
        s.for_each_elem(&mut |x| seen.push(x));
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn hash_fast_set_union() {
        let mut a = HashFastSet::with_universe(10);
        let mut b = HashFastSet::with_universe(10);
        a.insert(1);
        b.insert(2);
        b.insert(1);
        a.union_with(&b);
        assert_eq!(a.to_vec(), vec![1, 2]);
    }
}
