//! HDR-style log-bucketed latency histogram.
//!
//! Latency distributions span five-plus orders of magnitude
//! (sub-microsecond cache hits to multi-millisecond write stalls), so a
//! fixed-width histogram either wastes memory or loses the tail. This one keeps exact counts below 128 ns and 64
//! logarithmic sub-buckets per power-of-two octave above that: relative
//! quantile error is bounded by 1/64 (~1.6 %) everywhere, with a few KiB
//! of total state and O(1) lock-free-free (single-writer) recording.
//!
//! Two recorders share the bucket scheme:
//!
//! * [`LatencyHistogram`] — single-writer (`&mut self`), the shape of
//!   folded snapshots and of every quantile query;
//! * [`AtomicHistogram`] — shared-writer (`&self`, relaxed atomics), the
//!   shape the engine's hot paths record into concurrently. A snapshot
//!   lowers it into a `LatencyHistogram` for quantiles and merging.

/// Values below this are counted exactly (one bucket per nanosecond).
const EXACT_LIMIT: u64 = 128;
/// Sub-buckets per octave above the exact region.
const SUB_BUCKETS: u64 = 64;
/// 128ns..2^63, 64 sub-buckets each octave, plus the exact region.
const OCTAVES: usize = 57; // highest_one_bit range: 7..=63
const BUCKETS: usize = EXACT_LIMIT as usize + OCTAVES * SUB_BUCKETS as usize;

/// Latency histogram over `u64` nanosecond samples.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    sum: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
            sum: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v < EXACT_LIMIT {
            return v as usize;
        }
        // v has its highest set bit at position h (>= 7). The octave
        // [2^h, 2^(h+1)) is split into 64 sub-buckets of width 2^(h-6).
        let h = 63 - v.leading_zeros() as u64;
        let base = EXACT_LIMIT + (h - 7) * SUB_BUCKETS;
        let offset = (v >> (h - 6)) - SUB_BUCKETS;
        (base + offset) as usize
    }

    /// Lower edge of bucket `i` (the value reported for quantiles, so
    /// quantiles never over-state latency).
    fn bucket_floor(i: usize) -> u64 {
        let i = i as u64;
        if i < EXACT_LIMIT {
            return i;
        }
        let above = i - EXACT_LIMIT;
        let h = above / SUB_BUCKETS + 7;
        let offset = above % SUB_BUCKETS;
        (SUB_BUCKETS + offset) << (h - 6)
    }

    /// Record one sample (nanoseconds).
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum / self.total as u128) as u64
        }
    }

    /// Value at quantile `q` in `[0,1]`: the smallest bucket floor such
    /// that at least `ceil(q * count)` samples are at or below it.
    /// Returns 0 for an empty histogram; `q >= 1` returns the exact max.
    pub fn value_at(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        self.max
    }
}

/// Shared-writer histogram: the same bucket scheme as
/// [`LatencyHistogram`], recorded through relaxed atomics so every
/// engine thread can record into one instance without coordination.
///
/// Reading goes through [`AtomicHistogram::snapshot`], which lowers the
/// live counters into a [`LatencyHistogram`]. A snapshot taken while
/// writers are active is not a point-in-time cut — each bucket is read
/// independently — but `total` is recomputed from the bucket counts, so
/// the snapshot is always internally consistent for quantile queries.
pub struct AtomicHistogram {
    counts: Box<[std::sync::atomic::AtomicU64]>,
    max: std::sync::atomic::AtomicU64,
    sum: std::sync::atomic::AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    pub fn new() -> AtomicHistogram {
        let counts: Vec<std::sync::atomic::AtomicU64> = (0..BUCKETS)
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect();
        AtomicHistogram {
            counts: counts.into_boxed_slice(),
            max: std::sync::atomic::AtomicU64::new(0),
            sum: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Record one sample (nanoseconds). Safe from any thread; never
    /// locks or allocates.
    #[inline]
    pub fn record(&self, v: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.counts[LatencyHistogram::bucket_of(v)].fetch_add(1, Relaxed);
        self.max.fetch_max(v, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    /// Lower the live counters into a single-writer histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        use std::sync::atomic::Ordering::Relaxed;
        let mut counts = vec![0u64; BUCKETS];
        let mut total = 0u64;
        for (out, c) in counts.iter_mut().zip(self.counts.iter()) {
            *out = c.load(Relaxed);
            total += *out;
        }
        LatencyHistogram {
            counts,
            total,
            max: self.max.load(Relaxed),
            sum: self.sum.load(Relaxed) as u128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..EXACT_LIMIT {
            h.record(v);
        }
        for v in 0..EXACT_LIMIT {
            let q = (v + 1) as f64 / EXACT_LIMIT as f64;
            assert_eq!(h.value_at(q), v, "quantile {q} should hit {v} exactly");
        }
    }

    #[test]
    fn log_region_relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        // Values scattered across six orders of magnitude.
        let mut v = 150u64;
        let mut samples = vec![];
        while v < 500_000_000 {
            h.record(v);
            samples.push(v);
            v = v * 21 / 16 + 3;
        }
        samples.sort_unstable();
        for (i, &s) in samples.iter().enumerate() {
            // Midpoint quantile: `ceil(q·n)` lands exactly on rank i+1
            // even with f64 rounding (an endpoint quantile can tip over
            // to rank i+2).
            let q = (i as f64 + 0.5) / samples.len() as f64;
            let got = h.value_at(q);
            assert!(got <= s, "floor convention: {got} > {s}");
            let err = (s - got) as f64 / s as f64;
            assert!(err < 1.0 / 32.0, "rel error {err} too big at {s}");
        }
    }

    #[test]
    fn max_mean_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        a.record(1_000);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.mean(), (10 + 1_000 + 1_000_000) / 3);
        assert_eq!(a.value_at(1.0), 1_000_000);
        assert_eq!(LatencyHistogram::new().value_at(0.5), 0);
    }

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        for v in [0, 1, 127, 128, 129, 255, 256, 1 << 20, u64::MAX / 2] {
            let b = LatencyHistogram::bucket_of(v);
            let floor = LatencyHistogram::bucket_floor(b);
            assert!(floor <= v, "floor {floor} above value {v}");
            assert_eq!(
                LatencyHistogram::bucket_of(floor),
                b,
                "floor must stay in bucket"
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: every quantile (including q >= 1) is 0.
        let empty = LatencyHistogram::new();
        for q in [0.0, 0.5, 0.99, 1.0, 2.0] {
            assert_eq!(empty.value_at(q), 0, "empty hist at q={q}");
        }
        assert_eq!(empty.mean(), 0);
        assert_eq!(empty.max(), 0);

        // Single sample: every quantile reports it (its bucket floor for
        // q < 1, the exact value at q >= 1).
        let mut one = LatencyHistogram::new();
        one.record(42);
        for q in [0.0, 0.001, 0.5, 0.999] {
            assert_eq!(one.value_at(q), 42, "single-sample hist at q={q}");
        }
        assert_eq!(one.value_at(1.0), 42);
        assert_eq!(one.value_at(10.0), 42, "q past 1 clamps to exact max");

        // q >= 1 reports the *exact* max even when the max's bucket floor
        // is below it (log region).
        let mut big = LatencyHistogram::new();
        big.record(1_000_003);
        assert!(big.value_at(0.5) <= 1_000_003);
        assert_eq!(big.value_at(1.0), 1_000_003);
    }

    #[test]
    fn merge_folds_distributions_not_averages() {
        // The pitfall this crate exists to kill: averaging per-shard
        // quantiles. Two shards with disjoint latency bands must fold
        // into the quantiles of the *combined* sample set.
        let mut fast = LatencyHistogram::new();
        let mut slow = LatencyHistogram::new();
        for _ in 0..99 {
            fast.record(100);
        }
        slow.record(1_000_000);

        let mut folded = fast.clone();
        folded.merge(&slow);
        assert_eq!(folded.count(), 100);
        // p50 of the fold is in the fast band; p99 dominated by the slow
        // shard's single outlier is still fast (99 of 100 samples), while
        // p100 is the outlier — none of which "average of p50s" gets right.
        assert!(folded.value_at(0.50) <= 100);
        assert!(folded.value_at(0.99) <= 100);
        assert_eq!(folded.value_at(1.0), 1_000_000);

        // Merging an empty histogram is the identity.
        let before = folded.value_at(0.5);
        folded.merge(&LatencyHistogram::new());
        assert_eq!(folded.count(), 100);
        assert_eq!(folded.value_at(0.5), before);
    }

    #[test]
    fn atomic_histogram_matches_single_writer() {
        let a = AtomicHistogram::new();
        let mut h = LatencyHistogram::new();
        let mut v = 3u64;
        for _ in 0..10_000 {
            a.record(v);
            h.record(v);
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) >> 34;
        }
        let snap = a.snapshot();
        assert_eq!(snap.count(), h.count());
        assert_eq!(snap.max(), h.max());
        assert_eq!(snap.mean(), h.mean());
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(snap.value_at(q), h.value_at(q), "q={q}");
        }
    }

    #[test]
    fn atomic_histogram_concurrent_record() {
        use std::sync::Arc;
        let a = Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..25_000u64 {
                        a.record(t * 1_000 + (i % 97));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = a.snapshot();
        assert_eq!(snap.count(), 100_000);
        assert!(snap.max() >= 3_000);
    }
}
