//! Theoretical cost model of Section 4.1.
//!
//! A data-clustered lookup pays three costs:
//! 1. *inner index access* — depends on the index type;
//! 2. *segment I/O* — `O(2ε·e / B)` blocks where `e` is the entry size and
//!    `B` the I/O block size;
//! 3. *in-segment search* — binary search over the position boundary,
//!    `O(log 2ε)` comparisons.
//!
//! It documents why position boundary is the dominant knob: cost 2 is the
//! only term multiplied by the ~µs-scale device latency. Cost 2 is also a
//! checked claim: `cost_model_bounds_measured_lookup_blocks` in the root
//! crate's `tests/paper_observations.rs` bulk-loads one table per index
//! kind, boundary and value width on an uncached modeled device and asserts
//! no present-key lookup reads more blocks than
//! [`TheoreticalCost::point_lookup`] allows for the widest bound the index
//! predicted.

use crate::IndexKind;

/// Closed-form lookup cost for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoreticalCost {
    /// Worst-case blocks fetched for the final segment read.
    pub io_blocks: u64,
    /// Comparisons for the in-segment binary search.
    pub in_segment_cmps: u32,
    /// Approximate comparisons/steps to locate the segment in the inner
    /// index.
    pub inner_steps: u32,
}

impl TheoreticalCost {
    /// Compute the worst-case cost of a point lookup.
    ///
    /// * `boundary` — position boundary (2ε), in entries;
    /// * `entry_bytes` — bytes per key-value entry on disk;
    /// * `block_bytes` — I/O block size;
    /// * `segments` — number of segments/pointers in the index.
    pub fn point_lookup(
        kind: IndexKind,
        boundary: usize,
        entry_bytes: usize,
        block_bytes: usize,
        segments: usize,
    ) -> Self {
        let span_bytes = boundary.max(1) as u64 * entry_bytes.max(1) as u64;
        // An unaligned span of b bytes can straddle one extra block.
        let io_blocks = span_bytes.div_ceil(block_bytes.max(1) as u64) + 1;
        let in_segment_cmps = (boundary.max(2) as f64).log2().ceil() as u32;
        let inner_steps = Self::inner_steps(kind, segments);
        Self {
            io_blocks,
            in_segment_cmps,
            inner_steps,
        }
    }

    /// Inner-index access cost in comparisons/hops per Section 3's
    /// structure descriptions.
    pub fn inner_steps(kind: IndexKind, segments: usize) -> u32 {
        let m = segments.max(2) as f64;
        match kind {
            // Binary search over a sorted segment array.
            IndexKind::FencePointers | IndexKind::Plr => m.log2().ceil() as u32,
            // B+-tree descent: log_f(m) nodes, ~log2(f) comparisons each.
            IndexKind::FitingTree => {
                let fanout = crate::fitting::BPTREE_FANOUT as f64;
                (m.log(fanout).ceil() * fanout.log2()) as u32
            }
            // Radix table hop + short binary search within a bucket.
            IndexKind::RadixSpline => 1 + (m.log2() / 2.0).ceil() as u32,
            // Hist-tree descent (few levels) + short run scan.
            IndexKind::Plex => 3 + 4,
            // Root model + leaf model: two fused multiply-adds.
            IndexKind::Rmi => 2,
            // One model per level, height = log_{2εr}(m); εr = 4 ⇒ base 8.
            IndexKind::Pgm => {
                let base = 2 * crate::pgm::PGM_EPSILON_RECURSIVE;
                m.log(base as f64).ceil() as u32 + 1
            }
        }
    }

    /// Dominant-term check: the ratio of modeled I/O time to modeled CPU
    /// time, with `block_ns` per block and `cmp_ns` per comparison. The
    /// paper's Figure 7 observes ≈10× for 4 KiB blocks.
    pub fn io_cpu_ratio(&self, block_ns: u64, cmp_ns: u64) -> f64 {
        let io = (self.io_blocks * block_ns) as f64;
        let cpu = ((self.in_segment_cmps + self.inner_steps) as u64 * cmp_ns).max(1) as f64;
        io / cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_blocks_scale_with_boundary() {
        let small = TheoreticalCost::point_lookup(IndexKind::Pgm, 8, 1024, 4096, 100);
        let big = TheoreticalCost::point_lookup(IndexKind::Pgm, 256, 1024, 4096, 100);
        assert!(big.io_blocks > small.io_blocks);
        // 256 entries × 1024 B = 64 blocks + 1 straddle.
        assert_eq!(big.io_blocks, 65);
        assert_eq!(small.io_blocks, 3);
    }

    #[test]
    fn below_one_block_cost_flattens() {
        // Once the boundary fits in 1–2 blocks, shrinking it stops helping —
        // Observation 2 of the paper.
        let b4 = TheoreticalCost::point_lookup(IndexKind::Pgm, 4, 1024, 4096, 100);
        let b2 = TheoreticalCost::point_lookup(IndexKind::Pgm, 2, 1024, 4096, 100);
        assert_eq!(b4.io_blocks, b2.io_blocks);
    }

    #[test]
    fn io_dominates_cpu_at_paper_scale() {
        let c = TheoreticalCost::point_lookup(IndexKind::Plr, 10, 1024, 4096, 10_000);
        // ~2 µs per block vs ~5 ns per comparison.
        assert!(c.io_cpu_ratio(2_100, 5) > 5.0);
    }

    #[test]
    fn inner_steps_ordering() {
        // RMI's two models are the cheapest inner index; plain binary search
        // over many segments is the most comparisons.
        let m = 100_000;
        assert!(
            TheoreticalCost::inner_steps(IndexKind::Rmi, m)
                < TheoreticalCost::inner_steps(IndexKind::Plr, m)
        );
        assert!(
            TheoreticalCost::inner_steps(IndexKind::RadixSpline, m)
                <= TheoreticalCost::inner_steps(IndexKind::Plr, m)
        );
    }
}
