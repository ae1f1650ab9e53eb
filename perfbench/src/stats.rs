//! Small statistics and process helpers shared by the workloads.

use std::time::Instant;

/// Nearest-rank percentile (`q` in 0..=1) of `values`; `f64::INFINITY`
/// entries (missed requests) sort last. Empty input gives 0.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Number of hardware threads this process may use (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times the benchmark's set-up, repeated throughout a run.
///
/// The host's speed drifts over seconds: a set-up repeated for two
/// seconds in one stretch can run 1.6 times slower in one run than in the
/// next. So a run sets up at its start and then again between its measured
/// operations, keeping the set-up at `SHARE` of the run's wall time, and
/// `setup_s` is the median of every repetition, with no cap on their
/// number.
pub struct SetupTimer {
    start: Instant,
    times: Vec<f64>,
}

impl SetupTimer {
    /// Share of the run's wall time spent repeating the set-up.
    const SHARE: f64 = 0.1;

    /// Sets up `reps` times (at least once) and returns the last result.
    pub fn start<T>(reps: usize, mut f: impl FnMut() -> T) -> (Self, T) {
        let mut timer = Self {
            start: Instant::now(),
            times: Vec::new(),
        };
        let mut last = timer.rep(&mut f);
        for _ in 1..reps {
            drop(last);
            last = timer.rep(&mut f);
        }
        (timer, last)
    }

    /// Sets up again, discarding the results, until the set-up has taken
    /// `SHARE` of the time since `start`.
    pub fn top_up<T>(&mut self, mut f: impl FnMut() -> T) {
        while self.times.iter().sum::<f64>() < Self::SHARE * secs(self.start) {
            drop(self.rep(&mut f));
        }
    }

    fn rep<T>(&mut self, f: &mut impl FnMut() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.times.push(secs(t));
        out
    }

    /// The median set-up time in seconds, and the number of repetitions.
    pub fn median(&self) -> (f64, u64) {
        (median(&self.times), self.times.len() as u64)
    }
}

/// Times `f` repeatedly until `budget_s` has passed (at least `min_reps`
/// times) and returns the median seconds per call.
pub fn median_call_s(budget_s: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || secs(start) < budget_s {
        let t = Instant::now();
        f();
        times.push(secs(t));
    }
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0, f64::INFINITY, 1.0], 1.0), f64::INFINITY);
        assert_eq!(median(&[]), 0.0);
    }
}
