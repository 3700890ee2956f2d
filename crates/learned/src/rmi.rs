//! Two-level Recursive Model Index (paper Figure 2(F)).
//!
//! A root linear model routes each key to one of `L` second-level linear
//! models; each leaf model is least-squares-fit over its partition and its
//! *maximum absolute error is recorded at training time* — RMI's error is
//! empirical, not user-configured (Section 3.1). The position boundary is
//! tuned by varying `L`: more leaves, tighter errors, more memory. The paper
//! notes RMI can reach error 1 with a large second level, which is why it
//! dominates at very small position boundaries.

use crate::codec::{self, DecodeError, Reader};
use crate::linear::LinearModel;
use crate::{IndexKind, SearchBound, SegmentIndex};

/// One second-level model with its recorded error and partition start.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Leaf {
    model: LinearModel,
    /// Max |prediction − truth| over the leaf's training keys.
    err: u32,
    /// First position of the leaf's partition.
    start: u32,
}

impl Leaf {
    const ENCODED_LEN: usize = LinearModel::ENCODED_LEN + 8;
}

/// Two-level RMI.
#[derive(Debug, Clone)]
pub struct RmiIndex {
    root: LinearModel,
    leaves: Vec<Leaf>,
    n: u32,
}

impl RmiIndex {
    /// Build with an explicit second-level size `leaf_count`.
    pub fn build(keys: &[u64], leaf_count: usize) -> Self {
        let n = keys.len();
        let leaf_count = leaf_count.clamp(1, n.max(1));
        // Root: least-squares key→position over all keys, rescaled to route
        // into [0, leaf_count).
        let pos_model = LinearModel::fit(keys, 0);
        let scale = leaf_count as f64 / n.max(1) as f64;
        let root = LinearModel {
            anchor: pos_model.anchor,
            slope: pos_model.slope * scale,
            intercept: pos_model.intercept * scale,
        };

        // Partition keys by routed leaf (monotone since slope ≥ 0 on sorted
        // data), then fit each partition.
        let mut leaves = Vec::with_capacity(leaf_count);
        let mut start = 0usize;
        for leaf_id in 0..leaf_count {
            // End of this leaf's partition: first key routed past `leaf_id`.
            let mut end = start;
            while end < n && Self::route(&root, keys[end], leaf_count) <= leaf_id {
                end += 1;
            }
            let slice = &keys[start..end];
            let model = if slice.is_empty() {
                LinearModel::constant(0, start as f64)
            } else {
                LinearModel::fit(slice, start)
            };
            let err = model.max_error(slice, start) as u32;
            leaves.push(Leaf {
                model,
                err,
                start: start as u32,
            });
            start = end;
        }
        debug_assert_eq!(start, n, "partitions must cover all keys");
        Self {
            root,
            leaves,
            n: n as u32,
        }
    }

    /// Build targeting an error bound: the second-level size is searched so
    /// that the *recorded* error lands near `eps` — mirroring how the paper
    /// "adjusts the size of the second level, which in turn affects the
    /// position boundary". Doubling search: start with few leaves and grow
    /// until the size-weighted mean error drops to ≤ ε (or the second level
    /// saturates at one key per leaf, where RMI reaches error ≈ 1).
    pub fn build_for_epsilon(keys: &[u64], eps: usize) -> Self {
        let n = keys.len();
        if n == 0 {
            return Self::build(keys, 1);
        }
        let eps = eps.max(1);
        let mut leaf_count = (n / (64 * eps)).clamp(1, n);
        let mut best = Self::build(keys, leaf_count);
        while best.mean_recorded_error() > eps as f64 && leaf_count < n {
            leaf_count = (leaf_count * 2).min(n);
            best = Self::build(keys, leaf_count);
        }
        best
    }

    #[inline]
    fn route(root: &LinearModel, key: u64, leaf_count: usize) -> usize {
        let p = root.predict_f64(key);
        if p <= 0.0 {
            0
        } else {
            (p as usize).min(leaf_count - 1)
        }
    }

    /// Number of second-level models.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Maximum recorded leaf error (the achieved half-boundary).
    pub fn max_recorded_error(&self) -> usize {
        self.leaves
            .iter()
            .map(|l| l.err as usize)
            .max()
            .unwrap_or(0)
    }

    /// Mean recorded leaf error weighted by leaf size.
    pub fn mean_recorded_error(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as usize;
        let mut acc = 0.0;
        for (i, l) in self.leaves.iter().enumerate() {
            let end = self.leaves.get(i + 1).map_or(n, |nx| nx.start as usize);
            acc += l.err as f64 * (end - l.start as usize) as f64;
        }
        acc / n as f64
    }

    pub(crate) fn decode_body(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.u32("rmi.n")?;
        let root = LinearModel::decode(r)?;
        let count = r.count("rmi.leaf_count", Leaf::ENCODED_LEN)?;
        if count == 0 || count > (n as usize).max(1) {
            return Err(DecodeError::Corrupt("rmi.leaf_count"));
        }
        let mut leaves = Vec::with_capacity(count);
        for _ in 0..count {
            let model = LinearModel::decode(r)?;
            let err = r.u32("rmi.leaf.err")?;
            let start = r.u32("rmi.leaf.start")?;
            leaves.push(Leaf { model, err, start });
        }
        let well_formed = leaves.windows(2).all(|w| w[0].start <= w[1].start)
            && leaves.iter().all(|l| l.start <= n)
            && leaves.first().is_none_or(|l| l.start == 0);
        if !well_formed {
            return Err(DecodeError::Corrupt("rmi.leaf_starts"));
        }
        Ok(Self { root, leaves, n })
    }
}

impl SegmentIndex for RmiIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Rmi
    }

    fn predict(&self, key: u64) -> SearchBound {
        let n = self.n as usize;
        if n == 0 || self.leaves.is_empty() {
            return SearchBound { lo: 0, hi: 0 };
        }
        let leaf_id = Self::route(&self.root, key, self.leaves.len());
        let leaf = &self.leaves[leaf_id];
        let end = self
            .leaves
            .get(leaf_id + 1)
            .map_or(n, |nx| nx.start as usize)
            .max(leaf.start as usize + 1);
        let p = leaf.model.predict_f64(key);
        let lo_clamp = leaf.start as usize;
        let pred = if p <= lo_clamp as f64 {
            lo_clamp
        } else {
            (p as usize).min(end - 1)
        };
        // +1 slack for float rounding at partition edges.
        SearchBound::around(pred, leaf.err as usize + 1, n)
    }

    fn size_bytes(&self) -> usize {
        LinearModel::ENCODED_LEN
            + self.leaves.len() * Leaf::ENCODED_LEN
            + std::mem::size_of::<Self>()
    }

    fn segment_count(&self) -> usize {
        self.leaves.len()
    }

    fn key_count(&self) -> usize {
        self.n as usize
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u8(out, self.kind().tag());
        codec::put_u32(out, self.n);
        self.root.encode_into(out);
        codec::put_u32(out, self.leaves.len() as u32);
        for l in &self.leaves {
            l.model.encode_into(out);
            codec::put_u32(out, l.err);
            codec::put_u32(out, l.start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lumpy_keys(n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).map(|i| i * 29 + (i % 113) * (i % 19)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn present_keys_within_recorded_bound() {
        let keys = lumpy_keys(30_000);
        for leaves in [16usize, 256, 4096] {
            let idx = RmiIndex::build(&keys, leaves);
            for (pos, &k) in keys.iter().enumerate().step_by(43) {
                let b = idx.predict(k);
                assert!(b.contains(pos), "leaves={leaves} pos={pos} b={b:?}");
            }
        }
    }

    #[test]
    fn more_leaves_tighter_errors() {
        let keys = lumpy_keys(50_000);
        let coarse = RmiIndex::build(&keys, 8);
        let fine = RmiIndex::build(&keys, 8192);
        assert!(
            fine.mean_recorded_error() < coarse.mean_recorded_error(),
            "fine={} coarse={}",
            fine.mean_recorded_error(),
            coarse.mean_recorded_error()
        );
        assert!(fine.size_bytes() > coarse.size_bytes());
    }

    #[test]
    fn linear_data_error_zero() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 7).collect();
        let idx = RmiIndex::build(&keys, 64);
        assert_eq!(idx.max_recorded_error(), 0);
        // One leaf per key region, still every prediction exact.
        for (pos, &k) in keys.iter().enumerate().step_by(111) {
            let b = idx.predict(k);
            assert!(b.contains(pos));
            assert!(b.len() <= 3, "error-0 leaf gives ±1 slack only");
        }
    }

    #[test]
    fn leaf_partitions_cover_and_are_sorted() {
        let keys = lumpy_keys(5_000);
        let idx = RmiIndex::build(&keys, 100);
        assert_eq!(idx.leaves[0].start, 0);
        assert!(idx.leaves.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn build_for_epsilon_scales_second_level() {
        let keys = lumpy_keys(20_000);
        let tight = RmiIndex::build_for_epsilon(&keys, 4);
        let loose = RmiIndex::build_for_epsilon(&keys, 128);
        assert!(tight.leaf_count() > loose.leaf_count());
    }

    #[test]
    fn empty_and_single() {
        let idx = RmiIndex::build(&[], 16);
        assert_eq!(idx.predict(1), SearchBound { lo: 0, hi: 0 });
        let idx = RmiIndex::build(&[42], 16);
        assert!(idx.predict(42).contains(0));
    }

    #[test]
    fn absent_keys_get_usable_bounds() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 10).collect();
        let idx = RmiIndex::build(&keys, 512);
        for probe in [5u64, 555, 99_995] {
            let ip = keys.partition_point(|&k| k < probe);
            let b = idx.predict(probe);
            assert!(b.lo <= ip && ip <= b.hi, "probe={probe} ip={ip} b={b:?}");
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let keys = lumpy_keys(10_000);
        let idx = RmiIndex::build(&keys, 333);
        let back = IndexKind::decode(&idx.encode()).unwrap();
        assert_eq!(back.kind(), IndexKind::Rmi);
        for &k in keys.iter().step_by(77) {
            assert_eq!(back.predict(k), idx.predict(k));
        }
    }
}
