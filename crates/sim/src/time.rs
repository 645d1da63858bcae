//! Integer simulation time.
//!
//! The simulator uses a nanosecond-resolution integer clock, which keeps the
//! event queue totally ordered without floating-point comparison hazards and
//! makes runs bit-for-bit reproducible under a fixed seed.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub(crate) const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw nanoseconds.
    pub fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Raw nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub(crate) fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub(crate) const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from seconds, saturating on overflow and clamping
    /// negatives to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Creates a duration from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(1_000_000_000))
    }

    /// The duration in seconds.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in milliseconds.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    if !secs.is_finite() || secs <= 0.0 {
        return 0;
    }
    let nanos = secs * 1e9;
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);

        let d = SimDuration::from_millis(250);
        assert!((d.as_secs_f64() - 0.25).abs() < 1e-12);
        assert!((d.as_millis_f64() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn huge_seconds_saturate() {
        assert_eq!(SimDuration::from_secs_f64(1e300), SimDuration(u64::MAX));
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_nanos(1_000_000_000);
        let d = SimDuration::from_millis(500);
        let t2 = t + d;
        assert!((t2.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(t2.duration_since(t), d);
        // Saturating when earlier is later.
        assert_eq!(t.duration_since(t2), SimDuration::ZERO);

        let mut t3 = t;
        t3 += d;
        assert_eq!(t3, t2);

        assert_eq!(d + d, SimDuration::from_secs(1));
        assert_eq!(
            d - SimDuration::from_millis(100),
            SimDuration::from_millis(400)
        );
        assert_eq!(SimDuration::from_millis(100) - d, SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_nanos(2_000_000_000).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(13).to_string(), "13.000ms");
    }
}
