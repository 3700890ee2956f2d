//! Index quality diagnostics: how well does a model actually fit a key set?
//!
//! The paper's analysis leans on three per-index quantities — achieved
//! prediction error, bound width, and memory per key. [`IndexDiagnostics`]
//! computes them exactly for any built index, which is how the
//! `index_shootout` example and the RMI leaf-sizing logic reason about
//! *achieved* (as opposed to configured) position boundaries.

use crate::{SearchBound, SegmentIndex};

/// Exact fit statistics of one index over the keys it was built on.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDiagnostics {
    /// Keys evaluated.
    pub keys: usize,
    /// Mean |predicted centre − true position|.
    pub mean_error: f64,
    /// Maximum absolute error.
    pub max_error: usize,
    /// 99th-percentile absolute error.
    pub p99_error: usize,
    /// Mean returned bound width (the achieved position boundary).
    pub mean_bound_width: f64,
    /// Maximum bound width.
    pub max_bound_width: usize,
    /// Index bytes per indexed key.
    pub bytes_per_key: f64,
    /// Histogram of errors in power-of-two buckets: `bucket[i]` counts keys
    /// with error in `[2^(i-1), 2^i)` (`bucket[0]` = exact hits).
    pub error_histogram: Vec<usize>,
}

impl IndexDiagnostics {
    /// Evaluate `index` over the sorted `keys` it was built from.
    pub fn evaluate(index: &dyn SegmentIndex, keys: &[u64]) -> IndexDiagnostics {
        let n = keys.len();
        let mut sum_err = 0.0f64;
        let mut max_err = 0usize;
        let mut errors = Vec::with_capacity(n);
        let mut sum_width = 0.0f64;
        let mut max_width = 0usize;
        let mut histogram = vec![0usize; 1];

        for (pos, &k) in keys.iter().enumerate() {
            let b: SearchBound = index.predict(k);
            debug_assert!(b.contains(pos), "diagnostics require a sound index");
            let centre = (b.lo + b.hi) / 2;
            let err = centre.abs_diff(pos);
            sum_err += err as f64;
            max_err = max_err.max(err);
            errors.push(err);
            sum_width += b.len() as f64;
            max_width = max_width.max(b.len());

            let bucket = if err == 0 {
                0
            } else {
                (usize::BITS - err.leading_zeros()) as usize
            };
            if bucket >= histogram.len() {
                histogram.resize(bucket + 1, 0);
            }
            histogram[bucket] += 1;
        }

        errors.sort_unstable();
        let p99 = if n == 0 {
            0
        } else {
            errors[((n as f64 * 0.99) as usize).min(n - 1)]
        };

        IndexDiagnostics {
            keys: n,
            mean_error: if n == 0 { 0.0 } else { sum_err / n as f64 },
            max_error: max_err,
            p99_error: p99,
            mean_bound_width: if n == 0 { 0.0 } else { sum_width / n as f64 },
            max_bound_width: max_width,
            bytes_per_key: if n == 0 {
                0.0
            } else {
                index.size_bytes() as f64 / n as f64
            },
            error_histogram: histogram,
        }
    }

    /// One-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "n={} err(mean/p99/max)={:.1}/{}/{} bound(mean/max)={:.1}/{} bytes/key={:.3}",
            self.keys,
            self.mean_error,
            self.p99_error,
            self.max_error,
            self.mean_bound_width,
            self.max_bound_width,
            self.bytes_per_key
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexConfig, IndexKind};

    fn keys(n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).map(|i| i * 17 + (i % 59) * 3).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn errors_bounded_by_epsilon() {
        let ks = keys(20_000);
        for eps in [4usize, 32] {
            let config = IndexConfig { epsilon: eps };
            for kind in [IndexKind::Pgm, IndexKind::Plr, IndexKind::FencePointers] {
                let idx = kind.build(&ks, &config);
                let d = IndexDiagnostics::evaluate(idx.as_ref(), &ks);
                assert_eq!(d.keys, ks.len());
                assert!(
                    d.max_error <= 2 * eps + 2,
                    "{kind} eps={eps}: max_error {}",
                    d.max_error
                );
                assert!(d.mean_error <= d.max_error as f64);
                assert!(d.p99_error <= d.max_error);
                assert!(d.mean_bound_width <= (2 * eps + 5) as f64);
                assert_eq!(d.error_histogram.iter().sum::<usize>(), ks.len());
            }
        }
    }

    #[test]
    fn tighter_epsilon_means_smaller_errors() {
        let ks = keys(20_000);
        let tight = IndexKind::Pgm.build(&ks, &IndexConfig { epsilon: 2 });
        let loose = IndexKind::Pgm.build(&ks, &IndexConfig { epsilon: 128 });
        let dt = IndexDiagnostics::evaluate(tight.as_ref(), &ks);
        let dl = IndexDiagnostics::evaluate(loose.as_ref(), &ks);
        assert!(dt.mean_error < dl.mean_error);
        assert!(dt.bytes_per_key > dl.bytes_per_key);
    }

    #[test]
    fn perfect_fit_is_all_zero_errors() {
        let ks: Vec<u64> = (0..5_000u64).map(|i| i * 10).collect();
        let idx = IndexKind::Rmi.build(&ks, &IndexConfig { epsilon: 8 });
        let d = IndexDiagnostics::evaluate(idx.as_ref(), &ks);
        // Linear data: RMI's recorded error is 0; centre error ≤ 1 (clamping).
        assert!(d.max_error <= 1, "{}", d.summary());
        assert!(d.error_histogram[0] + d.error_histogram.get(1).copied().unwrap_or(0) == ks.len());
    }

    #[test]
    fn empty_keys() {
        let idx = IndexKind::Pgm.build(&[], &IndexConfig::default());
        let d = IndexDiagnostics::evaluate(idx.as_ref(), &[]);
        assert_eq!(d.keys, 0);
        assert_eq!(d.mean_error, 0.0);
    }

    #[test]
    fn summary_is_one_line() {
        let ks = keys(1_000);
        let idx = IndexKind::RadixSpline.build(&ks, &IndexConfig::default());
        let d = IndexDiagnostics::evaluate(idx.as_ref(), &ks);
        assert!(!d.summary().contains('\n'));
        assert!(d.summary().contains("bytes/key"));
    }
}
