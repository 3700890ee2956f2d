//! Greedy spline corridor (Neumann & Michel), shared by RadixSpline and PLEX
//! (paper Figures 2(D) and 2(E)).
//!
//! Unlike the shrinking-cone segmentation, spline *knots are actual data
//! points* and consecutive knots are joined by interpolation: the position of
//! any key between two knots is estimated by linear interpolation and is
//! guaranteed to be within ±ε of the truth.

use crate::codec::{self, DecodeError, Reader};

/// A spline knot: an actual `(key, position)` pair from the indexed array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplinePoint {
    pub key: u64,
    pub pos: u32,
}

impl SplinePoint {
    /// Serialized footprint: key + position.
    pub const ENCODED_LEN: usize = 12;
}

/// Build an ε-bounded spline over `keys` (sorted, distinct). The first and
/// last keys are always knots.
pub fn build_spline(keys: &[u64], eps: usize) -> Vec<SplinePoint> {
    assert!(eps >= 1, "epsilon must be at least 1");
    let n = keys.len();
    let mut knots = Vec::new();
    if n == 0 {
        return knots;
    }
    knots.push(SplinePoint {
        key: keys[0],
        pos: 0,
    });
    if n == 1 {
        return knots;
    }

    let epsf = eps as f64;
    let mut base_key = keys[0];
    let mut base_pos = 0usize;
    // Corridor of slopes from the current base knot.
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    let mut prev_key = keys[0];
    let mut prev_pos = 0usize;

    for (i, &k) in keys.iter().enumerate().skip(1) {
        let dx = (k - base_key) as f64;
        let dy = i as f64 - base_pos as f64;
        let slope_to_point = dy / dx;

        if slope_to_point > upper || slope_to_point < lower {
            // The line base→current leaves the corridor: the previous point
            // becomes a knot and the corridor restarts from it through the
            // current point.
            knots.push(SplinePoint {
                key: prev_key,
                pos: prev_pos as u32,
            });
            base_key = prev_key;
            base_pos = prev_pos;
            let dx = (k - base_key) as f64;
            let dy = i as f64 - base_pos as f64;
            upper = (dy + epsf) / dx;
            lower = (dy - epsf) / dx;
        } else {
            upper = upper.min((dy + epsf) / dx);
            lower = lower.max((dy - epsf) / dx);
        }
        prev_key = k;
        prev_pos = i;
    }
    knots.push(SplinePoint {
        key: prev_key,
        pos: prev_pos as u32,
    });
    knots
}

/// Interpolate the predicted position of `key` between knots `a` and `b`
/// (requires `a.key <= key` and `a.key < b.key`).
#[inline]
pub fn interpolate(a: SplinePoint, b: SplinePoint, key: u64) -> f64 {
    debug_assert!(a.key < b.key);
    let dx = (b.key - a.key) as f64;
    let dy = b.pos as f64 - a.pos as f64;
    let off = (key.min(b.key).saturating_sub(a.key)) as f64;
    a.pos as f64 + dy / dx * off
}

/// Predict `key`'s position given the knot array and the index `s` of the
/// last knot with `key <= key` — clamped into `[0, n)`.
#[inline]
pub fn predict_at(knots: &[SplinePoint], s: usize, key: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    let a = knots[s];
    let p = if s + 1 < knots.len() {
        interpolate(a, knots[s + 1], key)
    } else {
        a.pos as f64
    };
    if p <= 0.0 {
        0
    } else {
        (p as usize).min(n - 1)
    }
}

/// Maximum interpolation error over the source keys (test/debug helper).
pub fn max_error(knots: &[SplinePoint], keys: &[u64]) -> usize {
    let mut worst = 0.0f64;
    let mut s = 0usize;
    for (i, &k) in keys.iter().enumerate() {
        while s + 1 < knots.len() && knots[s + 1].key <= k {
            s += 1;
        }
        let pred = if s + 1 < knots.len() {
            interpolate(knots[s], knots[s + 1], k)
        } else {
            knots[s].pos as f64
        };
        worst = worst.max((pred - i as f64).abs());
    }
    worst.ceil() as usize
}

/// Serialize a knot array.
pub fn encode_knots(out: &mut Vec<u8>, knots: &[SplinePoint]) {
    codec::put_u32(out, knots.len() as u32);
    for k in knots {
        codec::put_u64(out, k.key);
        codec::put_u32(out, k.pos);
    }
}

/// Decode what [`encode_knots`] wrote.
pub fn decode_knots(r: &mut Reader<'_>) -> Result<Vec<SplinePoint>, DecodeError> {
    let count = r.count("spline.count", SplinePoint::ENCODED_LEN)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(SplinePoint {
            key: r.u64("spline.key")?,
            pos: r.u32("spline.pos")?,
        });
    }
    // Structural validation: knots must be strictly key-sorted with
    // non-decreasing positions, or later interpolation arithmetic would
    // be fed nonsense (and could underflow).
    let sorted = out
        .windows(2)
        .all(|w| w[0].key < w[1].key && w[0].pos <= w[1].pos);
    if !sorted {
        return Err(DecodeError::Corrupt("spline.unsorted"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_data_two_knots() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 5).collect();
        let knots = build_spline(&keys, 4);
        assert_eq!(knots.len(), 2);
        assert_eq!(max_error(&knots, &keys), 0);
    }

    #[test]
    fn error_bound_respected() {
        let keys: Vec<u64> = (0..20_000u64).map(|i| i * i / 11 + i).collect();
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        for eps in [1usize, 8, 64] {
            let knots = build_spline(&keys, eps);
            let err = max_error(&knots, &keys);
            assert!(err <= eps, "eps={eps} got err={err}");
        }
    }

    #[test]
    fn clustered_keys_error_bound() {
        let mut keys = Vec::new();
        for c in 0..200u64 {
            keys.extend((0..50).map(|i| c * 1_000_000 + i * 7));
        }
        for eps in [2usize, 16] {
            let knots = build_spline(&keys, eps);
            assert!(max_error(&knots, &keys) <= eps);
        }
    }

    #[test]
    fn knots_are_data_points() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * i).collect();
        let knots = build_spline(&keys, 4);
        for k in &knots {
            assert_eq!(keys[k.pos as usize], k.key, "knots must be real points");
        }
        assert_eq!(knots.first().unwrap().pos, 0);
        assert_eq!(knots.last().unwrap().pos as usize, keys.len() - 1);
    }

    #[test]
    fn more_eps_fewer_knots() {
        let keys: Vec<u64> = (0..30_000u64).map(|i| i * i / 5).collect();
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        assert!(build_spline(&keys, 2).len() > build_spline(&keys, 64).len());
    }

    #[test]
    fn degenerate_sizes() {
        assert!(build_spline(&[], 4).is_empty());
        assert_eq!(build_spline(&[9], 4).len(), 1);
        assert_eq!(build_spline(&[9, 10], 4).len(), 2);
    }

    #[test]
    fn interpolate_clamps_to_knot_range() {
        let a = SplinePoint { key: 10, pos: 0 };
        let b = SplinePoint { key: 20, pos: 10 };
        assert_eq!(interpolate(a, b, 10), 0.0);
        assert_eq!(interpolate(a, b, 20), 10.0);
        assert_eq!(interpolate(a, b, 100), 10.0); // clamped at b
        assert_eq!(interpolate(a, b, 15), 5.0);
    }

    #[test]
    fn encode_roundtrip() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * i).collect();
        let knots = build_spline(&keys, 8);
        let mut buf = Vec::new();
        encode_knots(&mut buf, &knots);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_knots(&mut r).unwrap(), knots);
        r.finish().unwrap();
    }
}
