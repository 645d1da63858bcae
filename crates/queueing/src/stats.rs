//! Streaming summary statistics.
//!
//! Both the discrete-event simulator and the threaded runtime summarise
//! sojourn-time observations with the same accumulator, so it lives here in
//! the shared substrate crate.

/// Online mean/variance accumulator (Welford's algorithm), with min/max
/// tracking and a numerically stable parallel [`RunningStats::merge`].
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
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
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

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
        assert_eq!(s.min().unwrap(), 2.0);
        assert_eq!(s.max().unwrap(), 9.0);
    }

    #[test]
    fn empty_returns_none() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.std_dev(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs = [1.0, 2.5, 3.0, 4.25, 8.0, 0.5, 2.0];
        let mut all = RunningStats::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..3] {
            a.record(x);
        }
        for &x in &xs[3..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-12);
        assert!((a.std_dev().unwrap() - all.std_dev().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.record(3.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
