//! Host calibration: how fast a fixed reference kernel runs next to each
//! measurement window.
//!
//! The benchmark runs on a shared host whose speed moves by tens of percent
//! for seconds to minutes at a time (neighbours on the same memory system).
//! No estimator inside a 15 s run can see through a disturbance that lasts
//! the whole run, so every window is paired with a short burst of a frozen
//! kernel that stresses what the engine's paths stress — dependent loads
//! over a buffer larger than the last-level cache, and 8 KiB block copies
//! out of it — and wall-clock numbers are reported at the speed the kernel
//! says the host had: `time ÷ cost`, `throughput × cost`, where `cost` is
//! the burst's time relative to the seed host when quiet (1.0).
//!
//! A burst yields two costs, because a host slows a program in two ways. It
//! makes every instruction slower (shared caches and memory), and it takes
//! the processor away for a while (another guest's turn). A median latency
//! feels only the first; a throughput or a mean latency feels both. So a
//! burst is timed in small chunks: the **typical** cost is the median
//! chunk's and scales percentiles, the **mean** cost is the mean chunk's
//! and scales totals. Dividing a median by a cost that includes stolen time
//! would make a disturbed window look fast.
//!
//! The kernel is part of the benchmark and never changes with the engine,
//! so a normalized number moves exactly as the raw one does between two
//! commits measured on an equally fast host; it only moves less when the
//! host does.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Reference buffer: 8 Mi words = 32 MiB.
const WORDS: usize = 8 << 20;
/// Words per copied block (8 KiB: what one table probe copies).
const BLOCK: usize = 2048;
/// A burst is `CHUNKS` chunks of `CHASE_STEPS` steps and `COPIES` copies
/// (≈70 µs a chunk, ≈1 ms a burst).
const CHUNKS: usize = 16;
const CHASE_STEPS: usize = 256;
const COPIES: usize = 32;
/// What a step and a block copy cost on the seed host when quiet, in ns.
const CHASE_NOMINAL_NS: f64 = 200.0;
const COPY_NOMINAL_NS: f64 = 650.0;

/// The reference cost of the host: 1.0 is the seed host when quiet, 1.3 a
/// host that runs the kernel 30 % slower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// The median chunk: how much slower instructions run.
    pub typical: f64,
    /// The mean chunk: that, and the time the processor was away.
    pub mean: f64,
}

impl Cost {
    pub const NOMINAL: Cost = Cost {
        typical: 1.0,
        mean: 1.0,
    };

    /// Component-wise median of a set of costs.
    pub fn median(costs: &[Cost]) -> Cost {
        let of = |f: fn(&Cost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
        Cost {
            typical: of(|c| c.typical),
            mean: of(|c| c.mean),
        }
    }
}

pub struct Calibrator {
    buf: Vec<u32>,
    at: usize,
    /// Steps taken so far; mixed into every index so that the walk never
    /// falls into a short cycle that would fit a cache.
    steps: usize,
}

/// A window's host cost is the median of the bursts within this long of it:
/// one burst is short and noisy; the host's state lasts seconds.
pub const SMOOTH: std::time::Duration = std::time::Duration::from_secs(1);

/// `bursts[w]` ran before window `w`, `bursts[w + 1]` after it. The host
/// cost of window `w`: the median of the bursts up to `radius` windows away.
pub fn smoothed(bursts: &[Cost], w: usize, radius: usize) -> Cost {
    let lo = w.saturating_sub(radius);
    let hi = (w + 1 + radius).min(bursts.len() - 1);
    Cost::median(&bursts[lo..=hi])
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let buf = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        Calibrator {
            buf,
            at: 0,
            steps: 0,
        }
    }

    /// One burst: the reference cost of the host right now.
    pub fn burst(&mut self) -> Cost {
        let mut at = self.at;
        let mut next = |at: usize, span: usize| {
            // The next index depends on the loaded word: one miss at a time.
            self.steps += 1;
            (self.buf[at] as usize ^ self.steps.wrapping_mul(0x9e37_79b9)) % span
        };
        let mut block = [0u32; BLOCK];
        let mut chunks = [0.0; CHUNKS];
        for chunk in &mut chunks {
            let t0 = Instant::now();
            for _ in 0..CHASE_STEPS {
                at = next(at, WORDS);
            }
            let t1 = Instant::now();
            for _ in 0..COPIES {
                at = next(at, WORDS - BLOCK);
                block.copy_from_slice(&self.buf[at..at + BLOCK]);
                black_box(&block);
            }
            let chase_ns = (t1 - t0).as_nanos() as f64 / CHASE_STEPS as f64;
            let copy_ns = t1.elapsed().as_nanos() as f64 / COPIES as f64;
            *chunk = (chase_ns / CHASE_NOMINAL_NS + copy_ns / COPY_NOMINAL_NS) / 2.0;
        }
        self.at = at;
        Cost {
            typical: median(&chunks),
            mean: chunks.iter().sum::<f64>() / CHUNKS as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_takes_the_median_of_the_neighbouring_bursts() {
        // Five windows, six bursts; during one the processor was away.
        let bursts = [1.0, 1.0, 9.0, 1.2, 1.2, 1.2].map(|mean| Cost { typical: 1.0, mean });
        let mean = |w, radius| smoothed(&bursts, w, radius).mean;
        assert_eq!(mean(1, 0), 5.0); // the two around window 1
        assert_eq!(mean(1, 1), 1.1); // bursts 0..=3
        assert_eq!(mean(0, 1), 1.0); // clipped at the start
        assert_eq!(mean(4, 1), 1.2); // clipped at the end
        assert_eq!(mean(2, 9), 1.2); // the whole phase
        assert_eq!(smoothed(&bursts, 2, 9).typical, 1.0);
    }

    #[test]
    fn a_burst_is_a_positive_cost_and_walks_the_buffer() {
        let mut c = Calibrator::new();
        let before = c.at;
        let cost = c.burst();
        assert!(cost.typical.is_finite() && cost.typical > 0.0);
        // A mean is pulled up by its slowest chunks, a median is not.
        assert!(cost.mean >= cost.typical * 0.9);
        assert_ne!(c.at, before);
    }
}
