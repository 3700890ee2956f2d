//! RadixSpline (paper Figure 2(D)): greedy spline + radix table.
//!
//! The radix table maps the top `radix_bits` of `key - min_key` to the range
//! of spline knots sharing that prefix, replacing most of the binary search
//! over knots. The paper tunes `RadixBits = 1` for LSM-trees (bigger tables
//! buy little once tables are per-SSTable): [`RADIX_BITS`].

use crate::codec::{self, DecodeError, Reader};
use crate::spline::{self, SplinePoint};
use crate::{IndexKind, SearchBound, SegmentIndex};

/// Radix table width when built through [`IndexKind::build`]: the paper's
/// LSM-tuned `RadixBits = 1`.
pub const RADIX_BITS: u32 = 1;

/// Widest radix table: `2^16 + 1` slots. A build clamps to it and a decode
/// refuses anything wider, so a stored width can never size a table the
/// build would not have made.
const MAX_RADIX_BITS: u32 = 16;

/// Radix table over spline-knot keys: `table[p]` = index of the first knot
/// whose shifted prefix is ≥ `p`.
#[derive(Debug, Clone, PartialEq)]
struct RadixTable {
    bits: u32,
    shift: u32,
    min_key: u64,
    table: Vec<u32>,
}

impl RadixTable {
    fn build(knots: &[SplinePoint], bits: u32) -> Self {
        let bits = bits.clamp(1, MAX_RADIX_BITS);
        let min_key = knots.first().map_or(0, |k| k.key);
        let max_key = knots.last().map_or(0, |k| k.key);
        let span = max_key - min_key;
        // Smallest shift such that span >> shift fits in `bits` bits.
        let needed = 64 - span.leading_zeros();
        let shift = needed.saturating_sub(bits);
        let buckets = 1usize << bits;
        let mut table = vec![u32::MAX; buckets + 1];
        for (i, k) in knots.iter().enumerate() {
            let p = ((k.key - min_key) >> shift) as usize;
            if table[p] == u32::MAX {
                table[p] = i as u32;
            }
        }
        // Back-fill empty buckets with the next non-empty one (CSR style).
        let mut next = knots.len() as u32;
        for slot in table.iter_mut().rev() {
            if *slot == u32::MAX {
                *slot = next;
            } else {
                next = *slot;
            }
        }
        Self {
            bits,
            shift,
            min_key,
            table,
        }
    }

    /// Knot index range `[lo, hi]` (inclusive hi) that may contain the last
    /// knot with `knot.key <= key`.
    fn lookup(&self, key: u64, knot_count: usize) -> (usize, usize) {
        if key <= self.min_key {
            return (0, 0);
        }
        let p = (((key - self.min_key) >> self.shift) as usize).min(self.table.len() - 2);
        let lo = self.table[p] as usize;
        let hi = (self.table[p + 1] as usize).min(knot_count.saturating_sub(1));
        (lo.saturating_sub(1).min(hi), hi)
    }

    fn size_bytes(&self) -> usize {
        self.table.len() * 4 + 24
    }
}

/// RadixSpline index.
#[derive(Debug, Clone)]
pub struct RadixSplineIndex {
    knots: Vec<SplinePoint>,
    radix: RadixTable,
    n: u32,
    eps: u32,
}

impl RadixSplineIndex {
    /// Build over `keys` (sorted, distinct) with error `eps` and the given
    /// radix table width.
    pub fn build(keys: &[u64], eps: usize, radix_bits: u32) -> Self {
        let knots = spline::build_spline(keys, eps);
        let radix = RadixTable::build(&knots, radix_bits);
        Self {
            knots,
            radix,
            n: keys.len() as u32,
            eps: eps as u32,
        }
    }

    /// Index of the last knot with `key <= query` (0 if query precedes all).
    fn locate_knot(&self, key: u64) -> usize {
        let (lo, hi) = self.radix.lookup(key, self.knots.len());
        let window = &self.knots[lo..=hi];
        lo + window.partition_point(|k| k.key <= key).saturating_sub(1)
    }

    /// Number of spline knots.
    pub fn knot_count(&self) -> usize {
        self.knots.len()
    }

    pub(crate) fn decode_body(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.u32("rs.n")?;
        let eps = r.u32("rs.eps")?;
        let bits = r.u32("rs.bits")?;
        if bits == 0 || bits > MAX_RADIX_BITS {
            return Err(DecodeError::Corrupt("rs.bits"));
        }
        let knots = spline::decode_knots(r)?;
        if knots.is_empty() && n > 0 {
            return Err(DecodeError::Corrupt("rs.knots"));
        }
        let radix = RadixTable::build(&knots, bits);
        Ok(Self {
            knots,
            radix,
            n,
            eps,
        })
    }
}

impl SegmentIndex for RadixSplineIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::RadixSpline
    }

    fn predict(&self, key: u64) -> SearchBound {
        let n = self.n as usize;
        if n == 0 || self.knots.is_empty() {
            return SearchBound { lo: 0, hi: 0 };
        }
        let s = self.locate_knot(key);
        let pred = spline::predict_at(&self.knots, s, key, n);
        // +1 absorbs interpolation rounding.
        SearchBound::around(pred, self.eps as usize + 1, n)
    }

    fn size_bytes(&self) -> usize {
        self.knots.len() * SplinePoint::ENCODED_LEN
            + self.radix.size_bytes()
            + std::mem::size_of::<Self>()
    }

    fn segment_count(&self) -> usize {
        self.knots.len().saturating_sub(1)
    }

    fn key_count(&self) -> usize {
        self.n as usize
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u8(out, self.kind().tag());
        codec::put_u32(out, self.n);
        codec::put_u32(out, self.eps);
        codec::put_u32(out, self.radix.bits);
        spline::encode_knots(out, &self.knots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy_keys(n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).map(|i| i * 11 + (i % 89) * (i % 17)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn present_keys_within_bound() {
        let keys = wavy_keys(25_000);
        for bits in [1u32, 8, 16] {
            for eps in [2usize, 16, 128] {
                let idx = RadixSplineIndex::build(&keys, eps, bits);
                for (pos, &k) in keys.iter().enumerate().step_by(53) {
                    let b = idx.predict(k);
                    assert!(b.contains(pos), "bits={bits} eps={eps} pos={pos} b={b:?}");
                }
            }
        }
    }

    #[test]
    fn locate_knot_matches_global_binary_search() {
        let keys = wavy_keys(10_000);
        let idx = RadixSplineIndex::build(&keys, 8, 4);
        for probe in keys.iter().step_by(7).copied().chain([0, u64::MAX]) {
            let expected = idx
                .knots
                .partition_point(|k| k.key <= probe)
                .saturating_sub(1);
            assert_eq!(idx.locate_knot(probe), expected, "probe={probe}");
        }
    }

    #[test]
    fn radix_table_narrower_with_more_bits() {
        let keys = wavy_keys(50_000);
        let one = RadixSplineIndex::build(&keys, 8, 1);
        let many = RadixSplineIndex::build(&keys, 8, 12);
        assert!(many.radix.size_bytes() > one.radix.size_bytes());
        // Same answers regardless of table width.
        for &k in keys.iter().step_by(211) {
            assert_eq!(one.predict(k), many.predict(k));
        }
    }

    #[test]
    fn absent_keys_get_usable_bounds() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 10).collect();
        let idx = RadixSplineIndex::build(&keys, 8, 2);
        for probe in [5u64, 99_995, 50_001] {
            let ip = keys.partition_point(|&k| k < probe);
            let b = idx.predict(probe);
            assert!(b.lo <= ip && ip <= b.hi, "probe={probe} ip={ip} b={b:?}");
        }
    }

    #[test]
    fn empty_and_single() {
        let idx = RadixSplineIndex::build(&[], 4, 1);
        assert_eq!(idx.predict(3), SearchBound { lo: 0, hi: 0 });
        let idx = RadixSplineIndex::build(&[42], 4, 1);
        assert!(idx.predict(42).contains(0));
        assert!(idx.predict(0).contains(0));
        assert!(idx.predict(100).contains(0));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let keys = wavy_keys(20_000);
        let idx = RadixSplineIndex::build(&keys, 16, 6);
        let back = IndexKind::decode(&idx.encode()).unwrap();
        assert_eq!(back.kind(), IndexKind::RadixSpline);
        for &k in keys.iter().step_by(97) {
            assert_eq!(back.predict(k), idx.predict(k));
        }
    }
}
