//! [`FixedBitSet`]: a plain bit set over a fixed universe (`java.util.BitSet`
//! analogue used by the paper's fast-set variant of CflrB and SimProvAlg).

use crate::traits::FastSet;

const WORD_BITS: usize = 64;

/// A fixed-universe bit set backed by `Vec<u64>`.
///
/// * `contains`/`insert`/`remove` are `O(1)`;
/// * `collect_missing`, `union_with` are `O(universe / 64)` word-parallel passes,
///   which is the `O(n / log n)` "method of four Russians"-style bulk behaviour
///   the CflrB complexity analysis assumes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FixedBitSet {
    words: Vec<u64>,
    nbits: usize,
    len: usize,
}

impl FixedBitSet {
    /// Create an empty set for ids `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        FixedBitSet { words: vec![0; nbits.div_ceil(WORD_BITS)], nbits, len: 0 }
    }

    /// The universe size this set was created with.
    pub fn universe(&self) -> usize {
        self.nbits
    }

    #[inline]
    fn index(x: u32) -> (usize, u64) {
        ((x as usize) / WORD_BITS, 1u64 << ((x as usize) % WORD_BITS))
    }

    #[inline]
    fn check_bounds(&self, x: u32) {
        assert!((x as usize) < self.nbits, "FixedBitSet: id {x} out of universe 0..{}", self.nbits);
    }

    /// Iterate set bits in ascending order using word scans.
    pub fn ones(&self) -> Ones<'_> {
        Ones { words: &self.words, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &FixedBitSet) {
        let mut len = 0usize;
        for (w, ow) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= *ow;
            len += w.count_ones() as usize;
        }
        // Words beyond other's length are cleared (other is smaller universe).
        if self.words.len() > other.words.len() {
            for w in &mut self.words[other.words.len()..] {
                *w = 0;
            }
        }
        self.len = len;
    }

    /// In-place difference: remove every element of `other` from `self`.
    pub fn difference_with(&mut self, other: &FixedBitSet) {
        let mut len = 0usize;
        for (w, ow) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= !*ow;
        }
        for w in &self.words {
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    /// True when `self` and `other` share no element.
    pub fn is_disjoint(&self, other: &FixedBitSet) -> bool {
        self.words.iter().zip(other.words.iter()).all(|(a, b)| a & b == 0)
    }

    /// First (smallest) element, if any.
    pub fn min_elem(&self) -> Option<u32> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some((i * WORD_BITS + w.trailing_zeros() as usize) as u32);
            }
        }
        None
    }
}

impl std::fmt::Debug for FixedBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.ones()).finish()
    }
}

/// Iterator over the set bits of a [`FixedBitSet`].
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.word_idx * WORD_BITS + bit) as u32)
    }
}

impl FastSet for FixedBitSet {
    fn with_universe(universe: usize) -> Self {
        FixedBitSet::new(universe)
    }

    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn contains(&self, x: u32) -> bool {
        if (x as usize) >= self.nbits {
            return false;
        }
        let (w, m) = Self::index(x);
        self.words[w] & m != 0
    }

    #[inline]
    fn insert(&mut self, x: u32) -> bool {
        self.check_bounds(x);
        let (w, m) = Self::index(x);
        let newly = self.words[w] & m == 0;
        self.words[w] |= m;
        self.len += newly as usize;
        newly
    }

    #[inline]
    fn remove(&mut self, x: u32) -> bool {
        if (x as usize) >= self.nbits {
            return false;
        }
        let (w, m) = Self::index(x);
        let present = self.words[w] & m != 0;
        self.words[w] &= !m;
        self.len -= present as usize;
        present
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    fn collect_missing(&self, other: &Self, out: &mut Vec<u32>) {
        for (i, &ow) in other.words.iter().enumerate() {
            let sw = self.words.get(i).copied().unwrap_or(0);
            let mut missing = ow & !sw;
            while missing != 0 {
                let bit = missing.trailing_zeros() as usize;
                missing &= missing - 1;
                out.push((i * WORD_BITS + bit) as u32);
            }
        }
    }

    fn union_with(&mut self, other: &Self) {
        assert!(
            other.nbits <= self.nbits,
            "FixedBitSet::union_with: incompatible universes ({} > {})",
            other.nbits,
            self.nbits
        );
        let mut len = 0usize;
        for (w, ow) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= *ow;
        }
        for w in &self.words {
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    fn insert_returning_new(&mut self, xs: &[u32], out: &mut Vec<u32>) {
        for &x in xs {
            self.check_bounds(x);
            let (w, m) = Self::index(x);
            if self.words[w] & m == 0 {
                self.words[w] |= m;
                self.len += 1;
                out.push(x);
            }
        }
    }

    fn for_each_elem(&self, f: &mut dyn FnMut(u32)) {
        for (i, &word) in self.words.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros();
                word &= word - 1;
                f((i * WORD_BITS) as u32 + bit);
            }
        }
    }

    fn iter_elems(&self) -> Box<dyn Iterator<Item = u32> + '_> {
        Box::new(self.ones())
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = FixedBitSet::new(200);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(199));
        assert!(!s.insert(199));
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
        assert_eq!(s.to_vec(), vec![0, 64, 199]);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_bounds_panics() {
        let mut s = FixedBitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn contains_out_of_bounds_is_false() {
        let s = FixedBitSet::new(10);
        assert!(!s.contains(1_000_000));
    }

    #[test]
    fn ones_iterates_in_order_across_words() {
        let mut s = FixedBitSet::new(300);
        for x in [5u32, 64, 65, 128, 256, 299] {
            s.insert(x);
        }
        assert_eq!(s.to_vec(), vec![5, 64, 65, 128, 256, 299]);
    }

    #[test]
    fn collect_missing_matches_naive() {
        let mut a = FixedBitSet::new(130);
        let mut b = FixedBitSet::new(130);
        for x in 0..130u32 {
            if x % 3 == 0 {
                a.insert(x);
            }
            if x % 2 == 0 {
                b.insert(x);
            }
        }
        let mut out = Vec::new();
        a.collect_missing(&b, &mut out);
        let expect: Vec<u32> = (0..130).filter(|x| x % 2 == 0 && x % 3 != 0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn union_and_intersection_and_difference() {
        let mut a = FixedBitSet::new(100);
        let mut b = FixedBitSet::new(100);
        for x in [1u32, 2, 3, 50] {
            a.insert(x);
        }
        for x in [3u32, 50, 99] {
            b.insert(x);
        }
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 3, 50, 99]);
        assert_eq!(u.len(), 5);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![3, 50]);
        assert_eq!(i.len(), 2);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1, 2]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn disjoint_and_min() {
        let mut a = FixedBitSet::new(64);
        let mut b = FixedBitSet::new(64);
        a.insert(10);
        b.insert(11);
        assert!(a.is_disjoint(&b));
        b.insert(10);
        assert!(!a.is_disjoint(&b));
        assert_eq!(a.min_elem(), Some(10));
        assert_eq!(FixedBitSet::new(8).min_elem(), None);
    }

    #[test]
    fn batch_insert_reports_only_fresh_elements() {
        let mut s = FixedBitSet::new(200);
        s.insert(64);
        let mut fresh = Vec::new();
        s.insert_returning_new(&[63, 64, 65, 63], &mut fresh);
        assert_eq!(fresh, vec![63, 65]);
        assert_eq!(s.len(), 3);
        let mut seen = Vec::new();
        s.for_each_elem(&mut |x| seen.push(x));
        assert_eq!(seen, vec![63, 64, 65]);
    }

    #[test]
    fn clear_resets() {
        let mut s = FixedBitSet::new(64);
        s.insert(1);
        s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.to_vec(), Vec::<u32>::new());
    }
}
