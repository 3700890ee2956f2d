//! PGM-index (paper Figure 2(C)): *optimal* ε-bounded piecewise linear
//! segmentation via the streaming convex-hull algorithm (O'Rourke 1981, as
//! used by Ferragina & Vinciguerra), applied recursively to build upper
//! levels with `EpsilonRecursive` (paper default 4).
//!
//! Unlike the greedy shrinking cone, the streaming algorithm maintains the
//! full convex feasible region of `(slope, intercept)` pairs, so it emits the
//! provably minimal number of segments for a given ε — this is why the paper
//! finds PGM's memory-latency tradeoff dominant: fewer segments for the same
//! position boundary.

use crate::codec::{self, DecodeError, Reader};
use crate::{IndexKind, SearchBound, SegmentIndex};

/// A point (key, position) lifted to i128 so cross products are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pt {
    x: i128,
    y: i128,
}

impl Pt {
    #[inline]
    fn sub(self, o: Pt) -> Pt {
        Pt {
            x: self.x - o.x,
            y: self.y - o.y,
        }
    }

    /// 2-D cross product of vectors `self` and `o`.
    #[inline]
    fn cross(self, o: Pt) -> i128 {
        self.x * o.y - self.y * o.x
    }
}

/// One optimal segment: a line anchored at `first_key` covering positions
/// `[start_pos, next.start_pos)` of the array below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgmSegment {
    pub first_key: u64,
    pub start_pos: u32,
    pub slope: f64,
    /// Predicted position at `key == first_key` (float; may differ from
    /// `start_pos` by up to ε).
    pub intercept: f64,
}

impl PgmSegment {
    /// Serialized footprint.
    pub const ENCODED_LEN: usize = 28;

    /// Predict `key`'s position, clamped to `[start_pos, end_pos)`.
    #[inline]
    pub fn predict(&self, key: u64, end_pos: usize) -> usize {
        let dx = if key >= self.first_key {
            (key - self.first_key) as f64
        } else {
            -((self.first_key - key) as f64)
        };
        let p = self.slope * dx + self.intercept;
        let lo = self.start_pos as usize;
        let hi = end_pos.max(lo + 1);
        if p <= lo as f64 {
            lo
        } else {
            (p as usize).min(hi - 1)
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.first_key);
        codec::put_u32(out, self.start_pos);
        codec::put_f64(out, self.slope);
        codec::put_f64(out, self.intercept);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            first_key: r.u64("pgm.seg.first_key")?,
            start_pos: r.u32("pgm.seg.start_pos")?,
            slope: r.f64("pgm.seg.slope")?,
            intercept: r.f64("pgm.seg.intercept")?,
        })
    }
}

/// Streaming optimal piecewise-linear approximation builder.
///
/// Feasible lines must pass within ±ε (vertically) of every added point; the
/// feasible region in parameter space is convex and is tracked through its
/// extreme points (`rect`) plus the upper/lower hulls of the constraint
/// points. `add` returns `false` when the new point empties the region.
struct OptPla {
    eps: i128,
    rect: [Pt; 4],
    upper: Vec<Pt>,
    lower: Vec<Pt>,
    upper_start: usize,
    lower_start: usize,
    points: usize,
    first_x: u64,
    first_y: usize,
}

impl OptPla {
    fn new(eps: usize) -> Self {
        Self {
            eps: eps as i128,
            rect: [Pt { x: 0, y: 0 }; 4],
            upper: Vec::new(),
            lower: Vec::new(),
            upper_start: 0,
            lower_start: 0,
            points: 0,
            first_x: 0,
            first_y: 0,
        }
    }

    fn reset(&mut self) {
        self.points = 0;
        self.upper.clear();
        self.lower.clear();
        self.upper_start = 0;
        self.lower_start = 0;
    }

    /// Try to extend the current segment with `(x, y)`; `false` means the
    /// point does not fit and the caller must close the segment first.
    fn add(&mut self, x: u64, y: usize) -> bool {
        let p = Pt {
            x: x as i128,
            y: y as i128,
        };
        let p1 = Pt {
            x: p.x,
            y: p.y + self.eps,
        }; // upper constraint point
        let p2 = Pt {
            x: p.x,
            y: p.y - self.eps,
        }; // lower constraint point

        if self.points == 0 {
            self.first_x = x;
            self.first_y = y;
            self.rect[0] = p1;
            self.rect[1] = p2;
            self.upper.clear();
            self.lower.clear();
            self.upper.push(p1);
            self.lower.push(p2);
            self.upper_start = 0;
            self.lower_start = 0;
            self.points = 1;
            return true;
        }
        if self.points == 1 {
            self.rect[2] = p2;
            self.rect[3] = p1;
            self.upper.push(p1);
            self.lower.push(p2);
            self.points = 2;
            return true;
        }

        // slope1 = the current *minimum* feasible slope (through rect[0], the
        // upper constraint of an early point, and rect[2], a lower constraint
        // of a later point); slope2 = the *maximum* feasible slope.
        let slope1 = self.rect[2].sub(self.rect[0]);
        let slope2 = self.rect[3].sub(self.rect[1]);
        // Infeasible-low: even the shallowest line passes above p1.
        let outside_line1 = p1.sub(self.rect[2]).cross(slope1) > 0;
        // Infeasible-high: even the steepest line passes below p2.
        let outside_line2 = p2.sub(self.rect[3]).cross(slope2) < 0;
        if outside_line1 || outside_line2 {
            return false;
        }

        if p1.sub(self.rect[1]).cross(slope2) > 0 {
            // p1 lies below the max-slope line: the maximum slope must
            // shrink. The new extreme line passes through p1 and the lower
            // hull point minimizing slope(hull_pt → p1).
            let mut min = self.lower[self.lower_start].sub(p1);
            let mut min_i = self.lower_start;
            for i in self.lower_start + 1..self.lower.len() {
                let val = self.lower[i].sub(p1);
                if min.cross(val) > 0 {
                    break;
                }
                min = val;
                min_i = i;
            }
            self.rect[1] = self.lower[min_i];
            self.rect[3] = p1;
            self.lower_start = min_i;

            // Maintain the upper hull with p1.
            let mut end = self.upper.len();
            while end >= self.upper_start + 2
                && cross3(self.upper[end - 2], self.upper[end - 1], p1) <= 0
            {
                end -= 1;
            }
            self.upper.truncate(end);
            self.upper.push(p1);
        }

        if p2.sub(self.rect[0]).cross(slope1) < 0 {
            // p2 lies above the min-slope line: the minimum slope must grow.
            let mut max = self.upper[self.upper_start].sub(p2);
            let mut max_i = self.upper_start;
            for i in self.upper_start + 1..self.upper.len() {
                let val = self.upper[i].sub(p2);
                if val.cross(max) > 0 {
                    break;
                }
                max = val;
                max_i = i;
            }
            self.rect[0] = self.upper[max_i];
            self.rect[2] = p2;
            self.upper_start = max_i;

            let mut end = self.lower.len();
            while end >= self.lower_start + 2
                && cross3(self.lower[end - 2], self.lower[end - 1], p2) >= 0
            {
                end -= 1;
            }
            self.lower.truncate(end);
            self.lower.push(p2);
        }

        self.points += 1;
        true
    }

    /// Close the running segment into a [`PgmSegment`].
    fn take_segment(&self) -> PgmSegment {
        debug_assert!(self.points > 0);
        if self.points == 1 {
            return PgmSegment {
                first_key: self.first_x,
                start_pos: self.first_y as u32,
                slope: 0.0,
                intercept: self.first_y as f64,
            };
        }
        // Slope: midpoint of the extreme slopes; intercept: through the
        // intersection of the rectangle's diagonals (O'Rourke's choice).
        // All geometry is shifted by `first_x` in exact integer space first:
        // keys can exceed 2^60, where f64's ULP (hundreds of units) would
        // otherwise swallow the intersection offset entirely.
        let shift = |p: Pt| Pt {
            x: p.x - self.first_x as i128,
            y: p.y,
        };
        let r0 = shift(self.rect[0]);
        let r1 = shift(self.rect[1]);
        let r2 = shift(self.rect[2]);
        let r3 = shift(self.rect[3]);
        let sl1 = slope_of(r0, r2);
        let sl2 = slope_of(r1, r3);
        let slope = (sl1 + sl2) / 2.0;
        let (ix, iy) = intersection(r0, r2, r1, r3);
        let intercept = iy - ix * slope;
        PgmSegment {
            first_key: self.first_x,
            start_pos: self.first_y as u32,
            slope,
            intercept,
        }
    }
}

/// Cross product of (b - a) × (c - a).
#[inline]
fn cross3(a: Pt, b: Pt, c: Pt) -> i128 {
    b.sub(a).cross(c.sub(a))
}

fn slope_of(a: Pt, b: Pt) -> f64 {
    let dx = (b.x - a.x) as f64;
    let dy = (b.y - a.y) as f64;
    if dx == 0.0 {
        0.0
    } else {
        dy / dx
    }
}

/// Intersection of lines (a, b) and (c, d); falls back to `a` for parallel
/// (degenerate) configurations.
fn intersection(a: Pt, b: Pt, c: Pt, d: Pt) -> (f64, f64) {
    let ab = b.sub(a);
    let cd = d.sub(c);
    let denom = ab.cross(cd);
    if denom == 0 {
        return (a.x as f64, a.y as f64);
    }
    let ac = c.sub(a);
    let t = ac.cross(cd) as f64 / denom as f64;
    (a.x as f64 + t * ab.x as f64, a.y as f64 + t * ab.y as f64)
}

/// Optimal ε-bounded PLA of `keys` (sorted, distinct): the minimal number of
/// segments such that each key's position is within ±(ε+1) of its segment's
/// prediction (the +1 absorbs float rounding, as in the reference
/// implementation).
pub fn optimal_pla(keys: &[u64], eps: usize) -> Vec<PgmSegment> {
    assert!(eps >= 1, "epsilon must be at least 1");
    let mut out = Vec::new();
    if keys.is_empty() {
        return out;
    }
    let mut b = OptPla::new(eps);
    for (y, &x) in keys.iter().enumerate() {
        if !b.add(x, y) {
            out.push(b.take_segment());
            b.reset();
            let ok = b.add(x, y);
            debug_assert!(ok, "fresh segment must accept its first point");
        }
    }
    out.push(b.take_segment());
    out
}

/// The recursive PGM-index.
#[derive(Debug, Clone)]
pub struct PgmIndex {
    /// `levels[0]` indexes the keys; `levels[k]` indexes the first-keys of
    /// `levels[k-1]`. The last level is small enough to binary search.
    levels: Vec<Vec<PgmSegment>>,
    n: u32,
    eps: u32,
    eps_rec: u32,
}

impl PgmIndex {
    /// Build over `keys` (sorted, distinct) with leaf error `eps` and
    /// internal error `eps_rec` (paper default 4).
    pub fn build(keys: &[u64], eps: usize, eps_rec: usize) -> Self {
        let eps_rec = eps_rec.max(1);
        let mut levels = Vec::new();
        let leaf = optimal_pla(keys, eps);
        let mut cur_keys: Vec<u64> = leaf.iter().map(|s| s.first_key).collect();
        levels.push(leaf);
        while cur_keys.len() > 1 {
            let up = optimal_pla(&cur_keys, eps_rec);
            if up.len() >= cur_keys.len() {
                break; // no compression possible; binary search this level
            }
            cur_keys = up.iter().map(|s| s.first_key).collect();
            levels.push(up);
        }
        Self {
            levels,
            n: keys.len() as u32,
            eps: eps as u32,
            eps_rec: eps_rec as u32,
        }
    }

    /// Number of levels (≥ 1 for non-empty indexes).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Rank of `key` in `segs` limited to the predicted window `[lo, hi)`,
    /// with defensive fallback to a full binary search if the window missed
    /// (cannot happen when the ε guarantee holds, but costs nothing to keep).
    fn window_rank(segs: &[PgmSegment], lo: usize, hi: usize, key: u64) -> usize {
        let hi = hi.min(segs.len()).max(lo + 1);
        let in_window = segs[lo..hi].partition_point(|s| s.first_key <= key);
        if in_window == 0 {
            if lo == 0 {
                return 0;
            }
            // Window missed to the left.
            return segs[..lo]
                .partition_point(|s| s.first_key <= key)
                .saturating_sub(1);
        }
        let cand = lo + in_window - 1;
        if cand + 1 == hi && hi < segs.len() && segs[hi].first_key <= key {
            // Window missed to the right.
            return hi + segs[hi..].partition_point(|s| s.first_key <= key) - 1;
        }
        cand
    }

    fn segment_end(level: &[PgmSegment], i: usize, below_len: usize) -> usize {
        level.get(i + 1).map_or(below_len, |s| s.start_pos as usize)
    }

    pub(crate) fn decode_body(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.u32("pgm.n")?;
        let eps = r.u32("pgm.eps")?;
        let eps_rec = r.u32("pgm.eps_rec")?;
        let nlevels = r.u32("pgm.levels")? as usize;
        if nlevels == 0 || nlevels > 64 {
            return Err(DecodeError::Corrupt("pgm.levels"));
        }
        let mut levels = Vec::with_capacity(nlevels);
        for _ in 0..nlevels {
            let count = r.u32("pgm.level_len")? as usize;
            if count * PgmSegment::ENCODED_LEN > r.remaining() {
                return Err(DecodeError::Corrupt("pgm.level_len"));
            }
            let mut segs = Vec::with_capacity(count);
            for _ in 0..count {
                segs.push(PgmSegment::decode(r)?);
            }
            let sorted = segs
                .windows(2)
                .all(|w| w[0].first_key < w[1].first_key && w[0].start_pos < w[1].start_pos);
            if !sorted {
                return Err(DecodeError::Corrupt("pgm.level_unsorted"));
            }
            levels.push(segs);
        }
        Ok(Self {
            levels,
            n,
            eps,
            eps_rec,
        })
    }
}

impl SegmentIndex for PgmIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Pgm
    }

    fn predict(&self, key: u64) -> SearchBound {
        let n = self.n as usize;
        if n == 0 || self.levels[0].is_empty() {
            return SearchBound { lo: 0, hi: 0 };
        }
        // Root level: binary search (it is at most a handful of segments).
        let top = self.levels.len() - 1;
        let mut idx = self.levels[top]
            .partition_point(|s| s.first_key <= key)
            .saturating_sub(1);
        let mut lvl = top;
        while lvl > 0 {
            let below_len = self.levels[lvl - 1].len();
            let end = Self::segment_end(&self.levels[lvl], idx, below_len);
            let pred = self.levels[lvl][idx].predict(key, end);
            let w = self.eps_rec as usize + 2;
            let lo = pred.saturating_sub(w);
            let hi = (pred + w + 1).min(below_len);
            idx = Self::window_rank(&self.levels[lvl - 1], lo, hi, key);
            lvl -= 1;
        }
        let end = Self::segment_end(&self.levels[0], idx, n);
        let pred = self.levels[0][idx].predict(key, end);
        // +1 slack absorbs float rounding of the optimal segment parameters.
        SearchBound::around(pred, self.eps as usize + 1, n)
    }

    fn size_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.len() * PgmSegment::ENCODED_LEN)
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }

    fn segment_count(&self) -> usize {
        self.levels[0].len()
    }

    fn key_count(&self) -> usize {
        self.n as usize
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u8(out, self.kind().tag());
        codec::put_u32(out, self.n);
        codec::put_u32(out, self.eps);
        codec::put_u32(out, self.eps_rec);
        codec::put_u32(out, self.levels.len() as u32);
        for level in &self.levels {
            codec::put_u32(out, level.len() as u32);
            for s in level {
                s.encode_into(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::segment_keys;

    fn check_containment(keys: &[u64], eps: usize) {
        let idx = PgmIndex::build(keys, eps, 4);
        for (pos, &k) in keys.iter().enumerate() {
            let b = idx.predict(k);
            assert!(
                b.contains(pos),
                "eps={eps} key={k} pos={pos} bound={b:?} (len {})",
                keys.len()
            );
        }
    }

    #[test]
    fn containment_on_linear_keys() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 13 + 5).collect();
        for eps in [1, 4, 32, 256] {
            check_containment(&keys, eps);
        }
    }

    #[test]
    fn containment_on_quadratic_keys() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * i).collect();
        for eps in [1, 8, 64] {
            check_containment(&keys, eps);
        }
    }

    #[test]
    fn containment_on_clustered_keys() {
        let mut keys: Vec<u64> = Vec::new();
        for c in 0..100u64 {
            let base = c * 1_000_000;
            keys.extend((0..100).map(|i| base + i * 3));
        }
        check_containment(&keys, 4);
    }

    #[test]
    fn optimal_never_worse_than_greedy() {
        let mut keys: Vec<u64> = (0..50_000u64)
            .map(|i| i * 3 + (i % 83) * (i % 29))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for eps in [4usize, 16, 64] {
            let opt = optimal_pla(&keys, eps).len();
            let greedy = segment_keys(&keys, eps).len();
            assert!(
                opt <= greedy,
                "optimal must be minimal: eps={eps} opt={opt} greedy={greedy}"
            );
        }
    }

    #[test]
    fn optimal_strictly_better_on_noisy_data() {
        // Sawtooth noise around a line defeats the greedy anchor choice.
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| i * 100 + (i % 7) * 23 + (i % 11) * 5)
            .collect();
        let opt = optimal_pla(&keys, 2).len();
        let greedy = segment_keys(&keys, 2).len();
        assert!(opt <= greedy);
    }

    #[test]
    fn recursion_shrinks_levels() {
        let keys: Vec<u64> = (0..100_000u64).map(|i| i * i % (1 << 45)).collect();
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let idx = PgmIndex::build(&keys, 2, 4);
        assert!(idx.height() >= 2, "small eps should force recursion");
        // Top level must be tiny.
        assert!(idx.levels.last().unwrap().len() <= 8);
    }

    #[test]
    fn absent_keys_get_usable_bounds() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 10).collect();
        let idx = PgmIndex::build(&keys, 8, 4);
        for probe in [5u64, 555, 99_995] {
            let ip = keys.partition_point(|&k| k < probe);
            let b = idx.predict(probe);
            assert!(b.lo <= ip && ip <= b.hi, "probe={probe} ip={ip} b={b:?}");
        }
    }

    #[test]
    fn empty_and_single() {
        let idx = PgmIndex::build(&[], 4, 4);
        assert_eq!(idx.predict(1), SearchBound { lo: 0, hi: 0 });
        let idx = PgmIndex::build(&[77], 4, 4);
        assert!(idx.predict(77).contains(0));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let keys: Vec<u64> = (0..30_000u64).map(|i| i * 7 + (i % 41)).collect();
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let idx = PgmIndex::build(&keys, 16, 4);
        let back = IndexKind::decode(&idx.encode()).unwrap();
        assert_eq!(back.kind(), IndexKind::Pgm);
        for &k in keys.iter().step_by(111) {
            assert_eq!(back.predict(k), idx.predict(k));
        }
    }

    #[test]
    fn fewer_segments_with_larger_eps() {
        let keys: Vec<u64> = (0..50_000u64).map(|i| i * i / 3).collect();
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let small = PgmIndex::build(&keys, 2, 4);
        let large = PgmIndex::build(&keys, 128, 4);
        assert!(small.segment_count() > large.segment_count());
        assert!(small.size_bytes() > large.size_bytes());
    }
}
