//! Streaming summary statistics.
//!
//! Both the discrete-event simulator and the threaded runtime summarise
//! sojourn-time observations with the same accumulator, so it lives here in
//! the shared substrate crate.

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use drs_queueing::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), Some(5.0));
/// assert_eq!(s.std_dev(), Some(2.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or `None` before the first observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population standard deviation, or `None` before the first
    /// observation.
    pub fn std_dev(&self) -> Option<f64> {
        (self.count > 0).then(|| (self.m2 / self.count as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((s.std_dev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_returns_none() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.std_dev(), None);
    }
}
