//! The shard router: which shard owns a key.
//!
//! Range partitioning needs boundaries that balance *data*, not key space —
//! on a skewed distribution (zipfian, lognormal) equal key-space slices put
//! almost everything in one shard. What the learned router learns is **the
//! cuts**: boundary `i` is the `i/N` quantile of a sorted key sample (equal
//! mass per shard by construction), and a live split
//! ([`crate::sharding::ShardedDb`]) adds a cut at an exact peel-or-halve
//! quantile of the hot shard's own pinned data, so the layout adapts under
//! inserts instead of being refitted offline.
//!
//! Routing itself is one binary search over those cuts. A topology holds
//! at most `max_shards − 1` of them (a handful), so there is nothing for a
//! model to predict into: the paper's predict-then-bounded-search workflow
//! pays on arrays long enough that locating dominates, and four
//! comparisons are cheaper than any prediction.
//!
//! When no sample is available (unknown distribution) the router falls
//! back to multiplicative hashing, which balances any key set but gives up
//! range locality. Routing answers a *position* (0-based slot in the
//! current topology); the sharding layer maps positions to stable shard
//! ids and directories.

use crate::options::ShardingPolicy;

/// Routes user keys to shard *positions*. Built per topology epoch by
/// [`crate::sharding::ShardedDb`]; the boundary set is persisted in the
/// epoch'd `SHARDING-<epoch>` topology file so a reopen routes identically
/// (a boundary drift would strand keys in the wrong shard).
#[derive(Debug)]
pub enum ShardRouter {
    /// Multiplicative-hash partitioning (fallback).
    Hash {
        /// Number of shards.
        shards: usize,
    },
    /// Learned range partitioning.
    Range {
        /// Strictly ascending shard cut points, `shards - 1` of them:
        /// shard `i` owns `[boundaries[i-1], boundaries[i])` (unbounded at
        /// the ends).
        boundaries: Vec<u64>,
    },
}

/// Finalizer of splitmix64: a full-avalanche mix so sequential keys spread
/// uniformly across shards.
#[inline]
fn mix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

impl ShardRouter {
    /// Build a router for `shards` shards under `policy`.
    ///
    /// A learned-range policy whose sample is too small to cut (< 2
    /// distinct keys per shard) falls back to hash sharding — boundaries
    /// from a vanishing sample would be noise, and hash at least balances.
    /// One shard needs no cut and so no sample: it is a range topology
    /// with no boundaries, which live splitting can then cut.
    pub fn train(shards: usize, policy: &ShardingPolicy) -> ShardRouter {
        let shards = shards.max(1);
        match policy {
            ShardingPolicy::Hash => ShardRouter::Hash { shards },
            ShardingPolicy::LearnedRange { sample, .. } => {
                let mut sample = sample.clone();
                sample.sort_unstable();
                sample.dedup();
                let n = sample.len();
                if shards > 1 && n < shards * 2 {
                    return ShardRouter::Hash { shards };
                }
                // Quantile cuts: boundary i is the first key of shard i+1,
                // so each shard receives ≈ n/shards of the sampled mass.
                ShardRouter::Range {
                    boundaries: (1..shards).map(|i| sample[i * n / shards]).collect(),
                }
            }
        }
    }

    /// A range router over an explicit (already validated, strictly
    /// ascending) boundary set — how a topology epoch materializes its
    /// router after a reopen or a live split.
    pub fn with_boundaries(boundaries: Vec<u64>) -> ShardRouter {
        debug_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
        ShardRouter::Range { boundaries }
    }

    /// Number of shards this router spreads keys over.
    pub fn shards(&self) -> usize {
        match self {
            ShardRouter::Hash { shards } => *shards,
            ShardRouter::Range { boundaries } => boundaries.len() + 1,
        }
    }

    /// Whether this is (learned) range partitioning.
    pub fn is_range(&self) -> bool {
        matches!(self, ShardRouter::Range { .. })
    }

    /// The boundary set (empty for hash routing).
    pub fn boundaries(&self) -> &[u64] {
        match self {
            ShardRouter::Hash { .. } => &[],
            ShardRouter::Range { boundaries } => boundaries,
        }
    }

    /// The key range owned by shard position `pos`:
    /// `(inclusive lower, exclusive upper)` with `None` at the unbounded
    /// ends.
    pub fn shard_range(&self, pos: usize) -> (Option<u64>, Option<u64>) {
        match self {
            ShardRouter::Hash { .. } => (None, None),
            ShardRouter::Range { boundaries } => (
                pos.checked_sub(1).map(|i| boundaries[i]),
                boundaries.get(pos).copied(),
            ),
        }
    }

    /// The shard that owns `key`: in range mode, the number of cuts at or
    /// below it.
    pub fn shard_of(&self, key: u64) -> usize {
        match self {
            ShardRouter::Hash { shards } => (mix64(key) % *shards as u64) as usize,
            ShardRouter::Range { boundaries } => boundaries.partition_point(|&b| b <= key),
        }
    }

    /// How many of `keys` each shard would receive.
    pub fn partition_counts(&self, keys: &[u64]) -> Vec<u64> {
        let mut counts = vec![0u64; self.shards()];
        for &k in keys {
            counts[self.shard_of(k)] += 1;
        }
        counts
    }
}

/// Relative imbalance of a partition: `max/mean - 1` (0 = perfectly even;
/// 0.2 means the fullest shard holds 20% more than its fair share).
pub fn imbalance(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        max / mean - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharding::Topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn skewed_keys(n: usize) -> Vec<u64> {
        // Quadratic spacing: dense at the low end, sparse at the top —
        // equal key-space slices would be wildly unbalanced.
        (0..n as u64).map(|i| i * i).collect()
    }

    #[test]
    fn hash_router_balances_sequential_keys() {
        let r = ShardRouter::train(4, &ShardingPolicy::Hash);
        let keys: Vec<u64> = (0..40_000).collect();
        let counts = r.partition_counts(&keys);
        assert!(imbalance(&counts) < 0.1, "{counts:?}");
    }

    #[test]
    fn learned_range_router_balances_skewed_keys() {
        let keys = skewed_keys(50_000);
        let sample: Vec<u64> = keys.iter().copied().step_by(13).collect();
        let r = ShardRouter::train(
            4,
            &ShardingPolicy::LearnedRange {
                sample,
                epsilon: 32,
            },
        );
        assert!(r.is_range());
        let counts = r.partition_counts(&keys);
        assert!(imbalance(&counts) < 0.05, "{counts:?}");
        // Uniform key-space cuts on the same keys: terribly unbalanced —
        // the learned quantile cuts are doing real work.
        let max = *keys.last().unwrap();
        let uniform = ShardRouter::with_boundaries((1..4).map(|i| i * max / 4).collect());
        assert!(imbalance(&uniform.partition_counts(&keys)) > 0.5);
    }

    #[test]
    fn range_routing_respects_exact_boundaries() {
        let sample: Vec<u64> = (0..4000u64).map(|i| i * 10).collect();
        let r = ShardRouter::train(4, &ShardingPolicy::LearnedRange { sample, epsilon: 8 });
        let ShardRouter::Range { ref boundaries } = r else {
            panic!("expected range router");
        };
        assert_eq!(boundaries.len(), 3);
        for (i, &b) in boundaries.iter().enumerate() {
            // A boundary key is the first key of the next shard.
            assert_eq!(r.shard_of(b), i + 1, "boundary {b}");
            assert_eq!(r.shard_of(b - 1), i, "just below boundary {b}");
            assert_eq!(r.shard_of(b + 1), i + 1, "just above boundary {b}");
        }
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of(u64::MAX), 3);
    }

    /// `shard_of` and `shard_range` are inverse views of one boundary set:
    /// for 1..=16 shards over random strictly ascending cuts, every probe
    /// (both ends of the key space, every cut and its neighbours) lands in
    /// the range its shard owns — and still does on the boundary set a
    /// split at any position produces.
    #[test]
    fn every_key_lands_in_the_range_its_shard_owns() {
        fn check(boundaries: &[u64]) {
            let r = ShardRouter::with_boundaries(boundaries.to_vec());
            assert_eq!(r.shards(), boundaries.len() + 1);
            let near = |&b: &u64| [b.saturating_sub(1), b, b.saturating_add(1)];
            for k in [0, u64::MAX]
                .into_iter()
                .chain(boundaries.iter().flat_map(near))
            {
                let (lo, hi) = r.shard_range(r.shard_of(k));
                assert!(
                    lo.is_none_or(|l| l <= k) && hi.is_none_or(|h| k < h),
                    "key {k} routed to [{lo:?}, {hi:?}) of {boundaries:?}"
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(0x5eed_0019);
        for shards in 1..=16usize {
            for _ in 0..50 {
                let mut cuts: Vec<u64> = (1..shards).map(|_| rng.gen()).collect();
                if rng.gen_bool(0.25) {
                    // Neighbouring cuts at both edges of the key space.
                    let edge = |i: u64| if i & 1 == 0 { i } else { u64::MAX - i };
                    cuts = (0..shards as u64 - 1).map(edge).collect();
                }
                cuts.sort_unstable();
                cuts.dedup();
                check(&cuts);
                let topo = Topology::fresh(cuts.len() + 1, true, cuts);
                let router = topo.router();
                for pos in 0..topo.shards() {
                    let (lo, hi) = router.shard_range(pos);
                    let (lo, hi) = (lo.unwrap_or(0), hi.unwrap_or(u64::MAX));
                    if hi - lo < 2 {
                        continue; // no key strictly inside: the shard cannot split
                    }
                    let cut = rng.gen_range(lo + 1..hi);
                    let split = topo.with_split(pos, cut, topo.next_id, topo.next_id + 1);
                    check(&split.boundaries);
                }
            }
        }
    }

    #[test]
    fn tiny_sample_falls_back_to_hash() {
        let tiny = |shards| {
            ShardRouter::train(
                shards,
                &ShardingPolicy::LearnedRange {
                    sample: vec![1, 2, 3],
                    epsilon: 8,
                },
            )
        };
        assert!(!tiny(4).is_range());
        assert_eq!(tiny(4).shards(), 4);
        // One shard needs no cut, so no sample is too small for it: a range
        // topology without boundaries, which a live split can cut later.
        assert!(tiny(1).is_range());
        assert_eq!(tiny(1).boundaries(), &[] as &[u64]);
        assert_eq!(tiny(1).shard_of(u64::MAX), 0);
    }

    #[test]
    fn shard_range_bounds() {
        let r = ShardRouter::with_boundaries(vec![100, 200]);
        assert_eq!(r.shard_range(0), (None, Some(100)));
        assert_eq!(r.shard_range(1), (Some(100), Some(200)));
        assert_eq!(r.shard_range(2), (Some(200), None));
    }

    #[test]
    fn imbalance_metric() {
        assert_eq!(imbalance(&[5, 5, 5, 5]), 0.0);
        assert!((imbalance(&[10, 5, 5, 0]) - 1.0).abs() < 1e-12);
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0, 0]), 0.0);
    }
}
