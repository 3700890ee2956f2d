//! The shard router: which shard owns a key.
//!
//! Every shard owns one contiguous key range, so a router *is* its
//! boundaries. Range partitioning needs boundaries that balance *data*, not
//! key space — on a skewed distribution (zipfian, lognormal) equal key-space
//! slices put almost everything in one shard. What the learned router
//! learns is **the cuts**: boundary `i` is the `i/N` quantile of a sorted
//! key sample (equal mass per shard by construction), learned once, when
//! the database is created, and sealed in its topology. With no usable
//! sample the cuts are equal-width slices of the key space, and they stay
//! so.
//!
//! Routing itself is one binary search over those cuts. A topology holds
//! one fewer than its shards (a handful), so there is nothing for a model
//! to predict into: the paper's predict-then-bounded-search workflow
//! pays on arrays long enough that locating dominates, and four
//! comparisons are cheaper than any prediction.
//!
//! Routing answers a *position* (0-based slot in the current topology);
//! the sharding layer maps positions to stable shard ids and directories.

use crate::options::ShardingPolicy;

/// Routes user keys to shard *positions*. Built from the sealed topology by
/// [`crate::sharding::ShardedDb`]; the boundary set is persisted in the
/// `SHARDING-<epoch>` topology file so a reopen routes identically (a
/// boundary drift would strand keys in the wrong shard).
#[derive(Debug)]
pub struct ShardRouter {
    /// Strictly ascending shard cut points, `shards - 1` of them: shard
    /// `i` owns `[boundaries[i-1], boundaries[i])` (unbounded at the ends).
    boundaries: Vec<u64>,
}

impl ShardRouter {
    /// Build a router for `shards` shards under `policy`: boundary `i` is
    /// the first key of shard `i`, cut at the `i/shards` quantile of the
    /// sample so each shard receives ≈ equal sampled mass.
    ///
    /// A sample too small to cut (< 2 distinct keys per shard) would give
    /// boundaries that are noise, so the cuts are then equal-width slices
    /// of the `u64` key space. One shard (or none asked for) has no cut
    /// either way.
    pub fn train(shards: usize, policy: &ShardingPolicy) -> ShardRouter {
        let ShardingPolicy::LearnedRange { sample, .. } = policy;
        let mut sample = sample.clone();
        sample.sort_unstable();
        sample.dedup();
        let n = sample.len();
        let cut = |i: usize| {
            if n < shards * 2 {
                (((i as u128) << 64) / shards as u128) as u64
            } else {
                sample[i * n / shards]
            }
        };
        ShardRouter::with_boundaries((1..shards).map(cut).collect())
    }

    /// A router over an explicit (already validated, strictly ascending)
    /// boundary set — how a sealed topology materializes its router.
    pub fn with_boundaries(boundaries: Vec<u64>) -> ShardRouter {
        debug_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
        ShardRouter { boundaries }
    }

    /// Number of shards this router spreads keys over.
    pub fn shards(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The boundary set.
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// The shard that owns `key`: the number of cuts at or below it.
    pub fn shard_of(&self, key: u64) -> usize {
        self.boundaries.partition_point(|&b| b <= key)
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn skewed_keys(n: usize) -> Vec<u64> {
        // Quadratic spacing: dense at the low end, sparse at the top —
        // equal key-space slices would be wildly unbalanced.
        (0..n as u64).map(|i| i * i).collect()
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
        assert_eq!(r.boundaries().len(), 3);
        for (i, &b) in r.boundaries().iter().enumerate() {
            // A boundary key is the first key of the next shard.
            assert_eq!(r.shard_of(b), i + 1, "boundary {b}");
            assert_eq!(r.shard_of(b - 1), i, "just below boundary {b}");
            assert_eq!(r.shard_of(b + 1), i + 1, "just above boundary {b}");
        }
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of(u64::MAX), 3);
    }

    /// For 1..=16 shards over random strictly ascending cuts, every probe
    /// (both ends of the key space, every cut and its neighbours) lands in
    /// the range its shard owns: at or above the cut before it, below the
    /// cut after it.
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
                let pos = r.shard_of(k);
                let (lo, hi) = (
                    pos.checked_sub(1).map(|i| boundaries[i]),
                    boundaries.get(pos),
                );
                assert!(
                    lo.is_none_or(|l| l <= k) && hi.is_none_or(|&h| k < h),
                    "key {k} routed to shard {pos} of {boundaries:?}"
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
            }
        }
    }

    /// A sample too small to cut (< 2 distinct keys per shard) yields
    /// equal-width slices of the key space.
    #[test]
    fn tiny_sample_gets_equal_width_cuts() {
        let tiny = |shards| {
            ShardRouter::train(
                shards,
                &ShardingPolicy::LearnedRange {
                    sample: vec![1, 2, 3, 3, 1],
                    epsilon: 8,
                },
            )
        };
        assert_eq!(tiny(4).boundaries(), [1 << 62, 1 << 63, 3 << 62]);
        assert_eq!(tiny(2).boundaries(), [1 << 63]);
        let three = tiny(3);
        assert_eq!(three.shards(), 3);
        assert_eq!(three.boundaries(), [u64::MAX / 3, u64::MAX / 3 * 2]);
        assert_eq!(three.shard_of(u64::MAX), 2);
        // One shard needs no cut, so no sample is too small for it.
        assert_eq!(tiny(1).boundaries(), &[] as &[u64]);
        assert_eq!(tiny(1).shard_of(u64::MAX), 0);
    }

    #[test]
    fn imbalance_metric() {
        assert_eq!(imbalance(&[5, 5, 5, 5]), 0.0);
        assert!((imbalance(&[10, 5, 5, 0]) - 1.0).abs() < 1e-12);
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0, 0]), 0.0);
    }
}
