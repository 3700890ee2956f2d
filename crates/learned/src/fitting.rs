//! FITing-Tree (paper Figure 2(B)): greedy shrinking-cone segments indexed by
//! a B+-tree.
//!
//! Identical segmentation to [`crate::plr::PlrIndex`]; the difference — and
//! the reason the paper finds FITing-Tree's memory grows fastest among the
//! learned indexes — is the B+-tree inner index over segment first-keys,
//! which buys faster segment location at a per-segment pointer cost.

use crate::bptree::BPlusTree;
use crate::codec::{self, DecodeError, Reader};
use crate::cone::{segment_keys, Segment};
use crate::plr::PlrIndex;
use crate::{IndexKind, SearchBound, SegmentIndex};

/// Fanout of the inner B+-tree when built through [`IndexKind::build`]. The
/// paper does not tune it (its FITing-Tree results vary ε only); 16 is the
/// value every figure here is measured with.
pub const BPTREE_FANOUT: usize = 16;

/// FITing-Tree: ε-bounded greedy segments + B+-tree over first keys.
#[derive(Debug, Clone)]
pub struct FitingTreeIndex {
    segments: Vec<Segment>,
    inner: BPlusTree,
    n: u32,
    eps: u32,
}

impl FitingTreeIndex {
    /// Build over `keys` (sorted, distinct) with error bound `eps` and the
    /// given inner B+-tree fanout.
    pub fn build(keys: &[u64], eps: usize, fanout: usize) -> Self {
        let segments = segment_keys(keys, eps);
        let first_keys: Vec<u64> = segments.iter().map(|s| s.first_key).collect();
        Self {
            inner: BPlusTree::build(&first_keys, fanout),
            segments,
            n: keys.len() as u32,
            eps: eps as u32,
        }
    }

    /// The inner B+-tree (exposed for the ablation bench comparing inner
    /// index structures).
    pub fn inner(&self) -> &BPlusTree {
        &self.inner
    }

    pub(crate) fn decode_body(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.u32("ft.n")?;
        let eps = r.u32("ft.eps")?;
        let fanout = r.u32("ft.fanout")? as usize;
        let count = r.count("ft.segment_count", Segment::ENCODED_LEN)?;
        let mut segments = Vec::with_capacity(count);
        for _ in 0..count {
            segments.push(Segment::decode(r)?);
        }
        if !crate::plr::segments_well_formed(&segments, n as usize) {
            return Err(DecodeError::Corrupt("ft.segments"));
        }
        let first_keys: Vec<u64> = segments.iter().map(|s| s.first_key).collect();
        Ok(Self {
            inner: BPlusTree::build(&first_keys, fanout),
            segments,
            n,
            eps,
        })
    }
}

impl SegmentIndex for FitingTreeIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::FitingTree
    }

    fn predict(&self, key: u64) -> SearchBound {
        let n = self.n as usize;
        if self.segments.is_empty() || n == 0 {
            return SearchBound { lo: 0, hi: 0 };
        }
        let si = self.inner.rank(key);
        let end = PlrIndex::segment_end(&self.segments, si, n);
        let pred = self.segments[si].predict(key, end);
        SearchBound::around(pred, self.eps as usize, n)
    }

    fn size_bytes(&self) -> usize {
        self.segments.len() * Segment::ENCODED_LEN
            + self.inner.size_bytes()
            + std::mem::size_of::<Self>()
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
        codec::put_u32(out, self.inner.fanout() as u32);
        codec::put_u32(out, self.segments.len() as u32);
        for s in &self.segments {
            s.encode_into(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).map(|i| i * 3 + (i % 31) * 17).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn agrees_with_plr_on_containment() {
        let ks = keys(30_000);
        let ft = FitingTreeIndex::build(&ks, 16, 16);
        for (pos, &k) in ks.iter().enumerate().step_by(41) {
            let b = ft.predict(k);
            assert!(b.contains(pos), "key={k} pos={pos} bound={b:?}");
        }
    }

    #[test]
    fn same_segments_as_plr_but_more_memory() {
        let ks = keys(30_000);
        let ft = FitingTreeIndex::build(&ks, 8, 16);
        let plr = PlrIndex::build(&ks, 8);
        assert_eq!(ft.segment_count(), plr.segment_count());
        assert!(
            ft.size_bytes() > plr.size_bytes(),
            "B+-tree inner index must cost more than a plain array: ft={} plr={}",
            ft.size_bytes(),
            plr.size_bytes()
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ks = keys(10_000);
        let ft = FitingTreeIndex::build(&ks, 8, 32);
        let back = IndexKind::decode(&ft.encode()).unwrap();
        assert_eq!(back.kind(), IndexKind::FitingTree);
        for &k in ks.iter().step_by(97) {
            assert_eq!(back.predict(k), ft.predict(k));
        }
    }

    #[test]
    fn empty_and_single() {
        let ft = FitingTreeIndex::build(&[], 4, 16);
        assert_eq!(ft.predict(9), SearchBound { lo: 0, hi: 0 });
        let ft = FitingTreeIndex::build(&[5], 4, 16);
        assert!(ft.predict(5).contains(0));
    }
}
