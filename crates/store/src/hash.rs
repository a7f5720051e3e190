//! A minimal FxHash-style hasher.
//!
//! Hashing is hot in provenance-type refinement and in the pattern matcher;
//! SipHash (std default) is needlessly slow for small integer-ish keys. Rather
//! than pulling in `rustc-hash`, this is the same multiply-rotate design in ~30
//! lines (HashDoS resistance is irrelevant for in-process graph ids).

use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (golden-ratio derived, as used by rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` with the Fx hasher.
#[expect(clippy::disallowed_types, reason = "definition site of the sanctioned Fx-hashed alias")]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the Fx hasher.
#[expect(clippy::disallowed_types, reason = "definition site of the sanctioned Fx-hashed alias")]
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// Hash any `Hash` value to a `u64` with the Fx hasher (used for provenance
/// type fingerprints).
pub fn fx_hash64<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spreads() {
        let a = fx_hash64(&42u64);
        let b = fx_hash64(&42u64);
        let c = fx_hash64(&43u64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn string_hashing_distinguishes() {
        assert_ne!(fx_hash64(&"train"), fx_hash64(&"update"));
        // Prefix-extended strings must differ too.
        assert_ne!(fx_hash64(&"abcdefgh"), fx_hash64(&"abcdefghi"));
    }
}
