//! The closed loop every workload is driven by: one caller, next operation
//! only after the previous one returned, cut into fixed-length windows.

use std::time::{Duration, Instant};

use lsm_io::IoStats;

use crate::calib::{smoothed, Calibrator, Cost, SMOOTH};
use crate::stats::Window;

/// What one operation class (GET, PUT, SCAN) did over a measured phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    pub fn per_window(&self, f: impl Fn(&Window) -> f64) -> Vec<f64> {
        self.windows.iter().map(f).collect()
    }
}

/// Run `op` back to back for `windows` windows of `window_len` starting at
/// `start`. `op(i)` performs the i-th operation, checks its result and
/// returns `(class, correct)`; latencies are kept per class (`K` classes)
/// and summarized per window after the loop, outside the timed region.
/// Modeled device read time charged during a window cannot be told apart
/// by class, so it is spread over the window's operations evenly.
///
/// With a calibrator, a reference burst runs before the first window and
/// after every window; a window's `host` is the median of the bursts within
/// `calib::SMOOTH` of it.
///
/// One clock read per operation: an operation's latency runs from the end
/// of the previous one, so the check of the previous result is inside it —
/// this is the latency a caller that uses its results observes.
pub fn closed_loop<const K: usize>(
    io: &IoStats,
    mut calib: Option<&mut Calibrator>,
    start: Instant,
    windows: usize,
    window_len: Duration,
    mut op: impl FnMut(u64) -> (usize, bool),
) -> [Phase; K] {
    let mut samples: Vec<([Vec<u32>; K], f64, u64)> = Vec::with_capacity(windows);
    let mut burst = || {
        calib
            .as_deref_mut()
            .map_or(Cost::NOMINAL, Calibrator::burst)
    };
    let mut bursts = vec![burst()];
    let mut phases: [Phase; K] = std::array::from_fn(|_| Phase::default());
    let mut i = 0u64;
    // Allocate outside the timed loop: a window rarely outgrows its
    // predecessor by more than half.
    let mut reserve = [1024usize; K];
    for w in 0..windows {
        let deadline = start + window_len * (w as u32 + 1);
        let mut lat: [Vec<u32>; K] = std::array::from_fn(|c| Vec::with_capacity(reserve[c]));
        let io_before = io.snapshot();
        let t0 = Instant::now();
        let mut prev = t0;
        while prev < deadline {
            let (class, ok) = op(i);
            let now = Instant::now();
            lat[class].push((now - prev).as_nanos().min(u32::MAX as u128) as u32);
            phases[class].attempted += 1;
            phases[class].failed += u64::from(!ok);
            prev = now;
            i += 1;
        }
        let sim_read_ns = io.snapshot().since(&io_before).sim_read_ns;
        for c in 0..K {
            reserve[c] = lat[c].len() * 3 / 2 + 1024;
        }
        bursts.push(burst());
        samples.push((lat, (prev - t0).as_secs_f64(), sim_read_ns));
    }
    let radius = (SMOOTH.as_secs_f64() / window_len.as_secs_f64()).ceil() as usize;
    for (index, (mut lat, secs, sim_read_ns)) in samples.into_iter().enumerate() {
        let host = smoothed(&bursts, index, radius);
        let total: usize = lat.iter().map(Vec::len).sum();
        for c in 0..K {
            if !lat[c].is_empty() {
                let share = (sim_read_ns as u128 * lat[c].len() as u128 / total as u128) as u64;
                phases[c].windows.push(Window {
                    index,
                    host,
                    ..Window::from_latencies(&mut lat[c], secs, share)
                });
            }
        }
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_kept_apart_and_failures_counted() {
        let io = IoStats::new();
        let [a, b]: [Phase; 2] = closed_loop(
            &io,
            None,
            Instant::now(),
            3,
            Duration::from_millis(5),
            |i| ((i % 4 == 0) as usize, i % 8 != 0),
        );
        assert_eq!(a.windows.len(), 3);
        assert_eq!(b.windows.len(), 3);
        let total = a.attempted + b.attempted;
        assert!(total > 0);
        // Class 1 gets every 4th op; every 8th op (all class 1) fails.
        assert_eq!(b.attempted, total.div_ceil(4));
        assert_eq!(a.failed, 0);
        assert_eq!(b.failed, total.div_ceil(8));
        let counted: u64 = a.windows.iter().chain(&b.windows).map(|w| w.ops).sum();
        assert_eq!(counted, total);
        let indexes: Vec<usize> = a.windows.iter().map(|w| w.index).collect();
        assert_eq!(indexes, [0, 1, 2]);
        assert!(a.windows.iter().all(|w| w.host == Cost::NOMINAL));
    }
}
