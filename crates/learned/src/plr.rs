//! Piece-wise Linear Regression index (paper Figure 2(A); Bourbon's model).
//!
//! Greedy shrinking-cone segments with the *simplest possible* inner index:
//! a sorted array of segment first-keys searched by binary search. The paper
//! highlights PLR's lightweight inner structure as the reason its
//! memory-latency tradeoff stays competitive despite the unsophisticated
//! segmentation.

use crate::codec::{self, DecodeError, Reader};
use crate::cone::{segment_keys, Segment};
use crate::{IndexKind, SearchBound, SegmentIndex};

/// PLR: ε-bounded greedy segments + binary search over first keys.
#[derive(Debug, Clone)]
pub struct PlrIndex {
    segments: Vec<Segment>,
    n: u32,
    eps: u32,
}

impl PlrIndex {
    /// Build over `keys` (sorted, distinct) with error bound `eps`.
    pub fn build(keys: &[u64], eps: usize) -> Self {
        Self {
            segments: segment_keys(keys, eps),
            n: keys.len() as u32,
            eps: eps as u32,
        }
    }

    /// Index of the segment responsible for `key`.
    #[inline]
    pub(crate) fn locate_segment(segments: &[Segment], key: u64) -> usize {
        // partition_point: first segment with first_key > key; responsible
        // segment is the one before (or 0 when key precedes everything).
        segments
            .partition_point(|s| s.first_key <= key)
            .saturating_sub(1)
    }

    /// End position (exclusive) of segment `i`.
    #[inline]
    pub(crate) fn segment_end(segments: &[Segment], i: usize, n: usize) -> usize {
        segments.get(i + 1).map_or(n, |s| s.start_pos as usize)
    }

    /// The underlying segments (used by the serialization tests and the
    /// FITing-Tree which shares the layout).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Error bound the index was built with.
    pub fn epsilon(&self) -> usize {
        self.eps as usize
    }

    pub(crate) fn decode_body(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.u32("plr.n")?;
        let eps = r.u32("plr.eps")?;
        let count = r.count("plr.segment_count", Segment::ENCODED_LEN)?;
        if count > n as usize && n > 0 {
            return Err(DecodeError::Corrupt("plr.segment_count"));
        }
        let mut segments = Vec::with_capacity(count);
        for _ in 0..count {
            segments.push(Segment::decode(r)?);
        }
        if !segments_well_formed(&segments, n as usize) {
            return Err(DecodeError::Corrupt("plr.segments"));
        }
        Ok(Self { segments, n, eps })
    }
}

/// Structural validity of a decoded segment array: strictly key-sorted,
/// strictly position-sorted, positions within the key count.
pub(crate) fn segments_well_formed(segments: &[Segment], n: usize) -> bool {
    segments
        .windows(2)
        .all(|w| w[0].first_key < w[1].first_key && w[0].start_pos < w[1].start_pos)
        && segments.iter().all(|s| (s.start_pos as usize) < n.max(1))
        && segments.first().map_or(n == 0, |s| s.start_pos == 0)
}

impl SegmentIndex for PlrIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Plr
    }

    fn predict(&self, key: u64) -> SearchBound {
        let n = self.n as usize;
        if self.segments.is_empty() || n == 0 {
            return SearchBound { lo: 0, hi: 0 };
        }
        let si = Self::locate_segment(&self.segments, key);
        let end = Self::segment_end(&self.segments, si, n);
        let pred = self.segments[si].predict(key, end);
        SearchBound::around(pred, self.eps as usize, n)
    }

    fn size_bytes(&self) -> usize {
        // Sorted array of (key, slope, intercept) triples.
        self.segments.len() * Segment::ENCODED_LEN + std::mem::size_of::<Self>()
    }

    fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn key_count(&self) -> usize {
        self.n as usize
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u8(out, self.kind().tag());
        codec::put_u32(out, self.n);
        codec::put_u32(out, self.eps);
        codec::put_u32(out, self.segments.len() as u32);
        for s in &self.segments {
            s.encode_into(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bumpy_keys(n: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..n).map(|i| i * 5 + (i % 97) * (i % 13)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    #[test]
    fn present_keys_within_bound() {
        let keys = bumpy_keys(20_000);
        for eps in [1usize, 8, 64] {
            let idx = PlrIndex::build(&keys, eps);
            for (pos, &k) in keys.iter().enumerate().step_by(37) {
                let b = idx.predict(k);
                assert!(b.contains(pos), "eps={eps} key={k} pos={pos} bound={b:?}");
                assert!(b.len() <= 2 * eps + 1);
            }
        }
    }

    #[test]
    fn absent_keys_bound_near_insertion_point() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 10).collect();
        let idx = PlrIndex::build(&keys, 4);
        for probe in [5u64, 15, 99_995, 42_001] {
            let ip = keys.partition_point(|&k| k < probe);
            let b = idx.predict(probe);
            assert!(
                b.lo <= ip && ip <= b.hi,
                "probe={probe} ip={ip} bound={b:?}"
            );
        }
    }

    #[test]
    fn key_below_everything_maps_to_front() {
        let keys: Vec<u64> = (100..200u64).collect();
        let idx = PlrIndex::build(&keys, 2);
        let b = idx.predict(0);
        assert_eq!(b.lo, 0);
    }

    #[test]
    fn key_above_everything_maps_to_back() {
        let keys: Vec<u64> = (100..200u64).collect();
        let idx = PlrIndex::build(&keys, 2);
        let b = idx.predict(u64::MAX);
        assert!(b.contains(99));
    }

    #[test]
    fn empty_index() {
        let idx = PlrIndex::build(&[], 4);
        assert_eq!(idx.predict(5), SearchBound { lo: 0, hi: 0 });
        assert_eq!(idx.segment_count(), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let keys = bumpy_keys(5_000);
        let idx = PlrIndex::build(&keys, 8);
        let bytes = idx.encode();
        let back = IndexKind::decode(&bytes).unwrap();
        assert_eq!(back.kind(), IndexKind::Plr);
        assert_eq!(back.segment_count(), idx.segment_count());
        for &k in keys.iter().step_by(53) {
            assert_eq!(back.predict(k), idx.predict(k));
        }
    }

    #[test]
    fn size_scales_with_segments() {
        let keys: Vec<u64> = (0..50_000u64).map(|i| i * i % (1 << 40)).collect();
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let small_eps = PlrIndex::build(&keys, 2);
        let large_eps = PlrIndex::build(&keys, 128);
        assert!(small_eps.size_bytes() > large_eps.size_bytes());
    }
}
