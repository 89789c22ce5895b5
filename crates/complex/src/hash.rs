//! A fast, non-cryptographic hasher for the hot-path tables.
//!
//! The DD compute and unique tables — and, since this module moved down
//! here from `ddsim-dd`, the [`ComplexTable`](crate::ComplexTable) grid-cell
//! slots — hash small fixed-size keys (a few `u32`/`i64` words) millions of
//! times per simulation; the standard library's SipHash is the wrong
//! trade-off there. This is the FxHash mix (rotate, xor, multiply by a
//! sparse odd constant) used by rustc's internal hash maps: two or three
//! ALU ops per word, good-enough diffusion for table indexing.
//!
//! Lossy direct-mapped caches tolerate the weaker avalanche behaviour — a
//! pathological collision costs a recomputation, never a wrong result.

use std::hash::{Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style [`Hasher`]. Word-at-a-time; byte slices fold per byte
/// (only reachable through derived `Hash` impls on primitive fields here).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
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
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Hashes a value with [`FxHasher`].
#[inline]
pub fn fx_hash<T: Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// A `HashMap` keyed by [`FxHasher`] — the drop-in replacement for the
/// standard SipHash map wherever a DoS-resistant hash is unnecessary
/// (shot-count histograms, export walks, other small-key hot loops).
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, std::hash::BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(fx_hash(&(1u32, 2u32)), fx_hash(&(1u32, 2u32)));
        assert_ne!(fx_hash(&(1u32, 2u32)), fx_hash(&(2u32, 1u32)));
        assert_ne!(fx_hash(&1u32), fx_hash(&2u32));
    }

    #[test]
    fn spreads_sequential_ids_across_low_bits() {
        // Direct-mapped tables index with the low bits; sequential arena
        // ids must not collapse onto a few slots.
        let mask = (1u64 << 10) - 1;
        let mut seen = std::collections::HashSet::new();
        for id in 0u32..1024 {
            seen.insert(fx_hash(&(id, id.wrapping_add(1))) & mask);
        }
        assert!(seen.len() > 512, "only {} distinct slots", seen.len());
    }
}
