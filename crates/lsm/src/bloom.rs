//! Bloom filter (paper setup: 10 bits per key on every SSTable).
//!
//! Double hashing over a 64-bit mix of the user key, `k = ⌈b·ln2⌉` probes —
//! the same construction LevelDB uses, adapted to `u64` keys.

use crate::codec::{self, DecodeError, Reader};

/// Immutable Bloom filter over a set of `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    k: u32,
}

#[inline]
fn mix(key: u64) -> u64 {
    // splitmix64 finalizer: cheap and well distributed.
    let mut z = key.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl BloomFilter {
    /// Build over `keys` with `bits_per_key` bits of budget each.
    pub fn build(keys: &[u64], bits_per_key: usize) -> Self {
        let bits_per_key = bits_per_key.max(1);
        // k = bits_per_key * ln2, clamped like LevelDB.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let n_bits = (keys.len() * bits_per_key).max(64) as u64;
        let words = n_bits.div_ceil(64) as usize;
        let mut bits = vec![0u64; words];
        let n_bits = (words * 64) as u64;
        for &key in keys {
            let h = mix(key);
            let delta = h.rotate_right(17);
            let mut pos = h;
            for _ in 0..k {
                let bit = pos % n_bits;
                bits[(bit / 64) as usize] |= 1 << (bit % 64);
                pos = pos.wrapping_add(delta);
            }
        }
        Self { bits, n_bits, k }
    }

    /// Whether `key` may be present (false = definitely absent).
    #[inline]
    pub fn may_contain(&self, key: u64) -> bool {
        let h = mix(key);
        let delta = h.rotate_right(17);
        let mut pos = h;
        for _ in 0..self.k {
            let bit = pos % self.n_bits;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
            pos = pos.wrapping_add(delta);
        }
        true
    }

    /// Filter size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8 + 16
    }

    /// Serialize: k, then the length-prefixed bit words.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u32(out, self.k);
        codec::put_u64_slice(out, &self.bits);
    }

    /// Decode what [`BloomFilter::encode_into`] wrote. Every build writes
    /// at least one word, so an empty bit array is refused: probing it
    /// would divide by zero.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let k = r.u32("bloom k")?;
        if k == 0 || k > 30 {
            return Err(DecodeError::Corrupt("bloom k"));
        }
        let bits = r.u64_vec("bloom words")?;
        if bits.is_empty() {
            return Err(DecodeError::Corrupt("bloom words"));
        }
        r.finish()?;
        let n_bits = (bits.len() * 64) as u64;
        Ok(Self { bits, n_bits, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 977).collect();
        let f = BloomFilter::build(&keys, 10);
        for &k in &keys {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_near_one_percent() {
        let keys: Vec<u64> = (0..50_000u64).map(|i| i * 2).collect();
        let f = BloomFilter::build(&keys, 10);
        let mut fp = 0usize;
        let probes = 50_000u64;
        for i in 0..probes {
            if f.may_contain(i * 2 + 1) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        // 10 bits/key ⇒ ~0.8–1.2% in theory; allow generous slack.
        assert!(rate < 0.03, "fp rate {rate}");
    }

    #[test]
    fn size_tracks_bits_per_key() {
        let keys: Vec<u64> = (0..10_000u64).collect();
        let ten = BloomFilter::build(&keys, 10);
        let twenty = BloomFilter::build(&keys, 20);
        assert!(twenty.size_bytes() > ten.size_bytes());
        assert!(ten.size_bytes() >= 10_000 * 10 / 8);
    }

    #[test]
    fn empty_filter_rejects_cheaply() {
        let f = BloomFilter::build(&[], 10);
        // Tiny but valid; may return either answer, must not panic.
        let _ = f.may_contain(42);
    }

    #[test]
    fn encode_roundtrip() {
        let keys: Vec<u64> = (0..1_000u64).map(|i| i * 31).collect();
        let f = BloomFilter::build(&keys, 10);
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let back = BloomFilter::decode(&buf).unwrap();
        assert_eq!(back, f);
        assert!(BloomFilter::decode(&buf[..4]).is_err());
        assert!(BloomFilter::decode(&[]).is_err());
    }

    /// Every strict prefix of a payload is an error, never a panic.
    #[test]
    fn every_strict_prefix_is_refused() {
        let keys: Vec<u64> = (0..100u64).collect();
        let mut buf = Vec::new();
        BloomFilter::build(&keys, 10).encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(BloomFilter::decode(&buf[..cut]).is_err(), "prefix of {cut}");
        }
    }

    /// `[k][0 words]` is refused: no build writes it, and a filter over no
    /// bits would divide by zero on its first probe.
    #[test]
    fn empty_bit_array_is_refused() {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, 7);
        codec::put_u32(&mut buf, 0);
        assert_eq!(
            BloomFilter::decode(&buf),
            Err(DecodeError::Corrupt("bloom words"))
        );
    }
}
