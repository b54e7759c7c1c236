//! A seedless hasher for the messaging maps: rustc-hash's FxHash.
//!
//! `HashMap::new()` seeds every map from OS entropy (`RandomState`): 16
//! bytes per map and a SipHash-1-3 pass over each key. The transport,
//! broker and client maps are probed on every datagram and keyed by
//! addresses, interned ids and topic names that the simulation itself
//! produces, so they need neither the seed nor SipHash's resistance to
//! crafted collisions. A map spelled `HashMap<K, V, FxBuildHasher>` and
//! built with `HashMap::default()` carries no seed and hashes a key with
//! one rotate, xor and multiply per word.
//!
//! Hash order still differs from insertion order, so iterating such a map
//! is a determinism hazard like any other (`dbox audit`, DH0002).

use std::hash::{BuildHasherDefault, Hasher};

/// Builds [`FxHasher`]s. Zero-sized, so a map using it stores no seed.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// rustc-hash's multiplicative constant (64-bit).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc-hash's multiply-rotate hasher: each word is folded in as
/// `hash = (hash.rotate_left(5) ^ word) * K`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            self.add(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes left")).into());
            rest = &rest[4..];
        }
        if rest.len() >= 2 {
            self.add(u16::from_le_bytes(rest[..2].try_into().expect("2 bytes left")).into());
            rest = &rest[2..];
        }
        if let Some(&b) = rest.first() {
            self.add(b.into());
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}
