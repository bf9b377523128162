//! Deterministic hash containers.
//!
//! `std`'s default `RandomState` seeds its hasher per process, so iteration
//! order — and therefore anything derived from it (report ordering, tie
//! breaks, replay traces) — varies run to run. Every map or set in the
//! workspace that is keyed on small integral or address-like keys uses
//! these aliases instead; `xtask lint` bans the `RandomState` constructors
//! outright.
//!
//! The hasher is FNV-1a: tiny, allocation-free, and byte-order stable
//! across platforms. It is *not* DoS-resistant — fine here, since every
//! key is produced by our own controller/dataplane, never by an untrusted
//! peer.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, 64-bit.
#[derive(Clone, Copy, Debug)]
pub struct DetHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for DetHasher {
    fn default() -> Self {
        DetHasher(FNV_OFFSET)
    }
}

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// `HashMap` with a deterministic, per-run-stable hasher.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// `HashSet` with a deterministic, per-run-stable hasher.
pub type DetHashSet<T> = HashSet<T, BuildHasherDefault<DetHasher>>;

/// FxHash-style combining step for [`SigHasher`]: cheap, sequence
/// sensitive, and well mixed enough to feed the hash maps directly.
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Word-at-a-time deterministic hasher for hot maps whose keys are small
/// integers or addresses (the switches' group tables): one multiply per
/// `write_u64` instead of FNV's one per byte.
#[derive(Clone, Default)]
pub struct SigHasher(u64);

impl std::hash::Hasher for SigHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = fold(self.0, v);
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = fold(self.0, b as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Reference values for the canonical FNV-1a 64-bit test strings.
        let hash = |s: &str| {
            let mut h = DetHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn map_iteration_is_reproducible() {
        // Two maps built by the same insertion sequence iterate identically
        // — the property RandomState lacks (its per-process seed scrambles
        // bucket assignment, so order varies run to run).
        let build = || {
            let mut m: DetHashMap<u64, u32> = DetHashMap::default();
            for k in 0..256u64 {
                m.insert(k.wrapping_mul(0x9e37_79b9), k as u32);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
