//! The estimator: how a run's samples become one number.
//!
//! A run is cut into windows. Each window yields a throughput, a median
//! latency and a tail latency; the run's value is the **quiet decile**
//! across windows (90th percentile of throughputs, 10th percentile of
//! latencies), because interference on a shared host is one-sided: a noisy
//! neighbour only ever makes a window slower. The across-window median and
//! quartiles are kept beside the value so a reader can see how much the
//! host moved during the run.

use crate::calib::Cost;

/// Linear-interpolated percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest tail percentile `n` samples support: at least ten samples
/// must lie beyond it. Capped at p99, floored at the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// One measurement window of a closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Position of the window in its phase.
    pub index: usize,
    /// Reference cost of the host beside the window (`calib`).
    pub host: Cost,
    pub ops: u64,
    pub secs: f64,
    pub p50_ns: f64,
    pub tail_ns: f64,
    /// Which percentile `tail_ns` is (0.99 whenever `ops >= 1000`).
    pub tail_q: f64,
    pub mean_ns: f64,
    /// Modeled device read nanoseconds charged during the window.
    pub sim_read_ns: u64,
}

impl Window {
    /// Summarize one window's per-op latencies (consumed: sorted in place).
    /// The window starts as window 0 on a host of reference cost 1.
    pub fn from_latencies(lat_ns: &mut [u32], secs: f64, sim_read_ns: u64) -> Window {
        lat_ns.sort_unstable();
        let sorted: Vec<f64> = lat_ns.iter().map(|&v| v as f64).collect();
        let tail_q = tail_quantile(sorted.len());
        Window {
            index: 0,
            host: Cost::NOMINAL,
            ops: sorted.len() as u64,
            secs,
            p50_ns: percentile(&sorted, 0.5),
            tail_ns: percentile(&sorted, tail_q),
            tail_q,
            mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
            sim_read_ns,
        }
    }

    /// The window as it would have read on a host of reference cost 1:
    /// percentiles divided by the typical cost measured beside it, totals by
    /// the mean cost. The modeled device time is a count and stays.
    pub fn at_reference_speed(&self) -> Window {
        Window {
            host: Cost::NOMINAL,
            secs: self.secs / self.host.mean,
            p50_ns: self.p50_ns / self.host.typical,
            tail_ns: self.tail_ns / self.host.typical,
            mean_ns: self.mean_ns / self.host.mean,
            ..*self
        }
    }

    pub fn kops(&self) -> f64 {
        self.ops as f64 / self.secs / 1e3
    }

    /// Mean wall µs plus modeled device read µs per op: the repo's and the
    /// paper's "CPU + I/O" latency.
    pub fn model_us(&self) -> f64 {
        (self.mean_ns + self.sim_read_ns as f64 / self.ops as f64) / 1e3
    }
}

/// Which end of the across-window distribution is the quiet one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiet {
    /// Higher is better (throughput): the quiet decile is the 90th percentile.
    High,
    /// Lower is better (latency): the quiet decile is the 10th percentile.
    Low,
}

/// A run-level value with the across-window spread it was picked from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub windows: usize,
}

impl Estimate {
    /// The quiet decile of per-window values.
    pub fn quiet(per_window: &[f64], quiet: Quiet) -> Estimate {
        let mut v = per_window.to_vec();
        v.sort_by(f64::total_cmp);
        let q = match quiet {
            Quiet::High => 0.9,
            Quiet::Low => 0.1,
        };
        Estimate {
            value: percentile(&v, q),
            median: percentile(&v, 0.5),
            q1: percentile(&v, 0.25),
            q3: percentile(&v, 0.75),
            windows: v.len(),
        }
    }

    /// A value that is not picked from windows (an exact count, a probe).
    pub fn exact(value: f64) -> Estimate {
        Estimate {
            value,
            median: value,
            q1: value,
            q3: value,
            windows: 1,
        }
    }
}

/// Median of a small unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.125), 15.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly 10 beyond it; 999 do not.
        assert_eq!(tail_quantile(1000), 0.99);
        assert!(tail_quantile(999) < 0.99);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(1_000_000), 0.99);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(3), 0.5);
        for n in [20usize, 64, 100, 500, 1000, 5000] {
            let beyond = n as f64 * (1.0 - tail_quantile(n));
            assert!(beyond >= 10.0 - 1e-9, "n={n}: {beyond} samples beyond");
        }
    }

    #[test]
    fn window_summary() {
        let mut lat: Vec<u32> = (1..=2000).rev().collect();
        let w = Window::from_latencies(&mut lat, 0.5, 4000);
        assert_eq!(w.ops, 2000);
        assert_eq!(w.tail_q, 0.99);
        assert_eq!(w.p50_ns, 1000.5);
        assert!((w.tail_ns - 1980.01).abs() < 1e-6);
        assert_eq!(w.mean_ns, 1000.5);
        assert_eq!(w.kops(), 4.0);
        assert!((w.model_us() - 1.0025).abs() < 1e-9);
        // On a host whose instructions ran 25 % slower and which was away
        // for another 25 %, the same window stands for 56 % more throughput
        // and a 36 % shorter mean, but only a 20 % shorter median; the
        // modeled device time does not scale.
        let host = Cost {
            typical: 1.25,
            mean: 1.5625,
        };
        let n = Window { host, ..w }.at_reference_speed();
        assert_eq!((n.host, n.ops, n.sim_read_ns), (Cost::NOMINAL, 2000, 4000));
        assert_eq!(n.kops(), 6.25);
        assert_eq!(n.p50_ns, 800.4);
        assert!((n.model_us() - (0.64032 + 0.002)).abs() < 1e-9);
        assert_eq!(w.at_reference_speed(), w);
    }

    #[test]
    fn quiet_decile_picks_the_undisturbed_end() {
        // 11 windows 0..=10: deciles fall on order statistics.
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        let hi = Estimate::quiet(&v, Quiet::High);
        assert_eq!(hi.value, 9.0);
        assert_eq!((hi.median, hi.q1, hi.q3, hi.windows), (5.0, 2.5, 7.5, 11));
        assert_eq!(Estimate::quiet(&v, Quiet::Low).value, 1.0);
        // One disturbed window out of ten does not move a latency's value.
        let mut lat = vec![100.0; 10];
        lat[3] = 900.0;
        assert_eq!(Estimate::quiet(&lat, Quiet::Low).value, 100.0);
        assert_eq!(Estimate::exact(3.0).median, 3.0);
    }
}
