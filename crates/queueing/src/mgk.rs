//! Approximate `M/G/k` and `G/G/k` models — the paper's §VI future work
//! ("improving performance model accuracy with more sophisticated queuing
//! theory"), implemented.
//!
//! The DRS model assumes exponential inter-arrival and service times. Real
//! operators violate both: video frames arrive uniformly, SIFT cost is
//! heavy-tailed. A classical correction sharpens the Erlang estimate
//! using only two extra measured moments (the squared coefficients of
//! variation `ca²` of inter-arrival and `cs²` of service times): the
//! **Allen–Cunneen** approximation (`M/G/k`, extended to `G/G/k`)
//! `Wq ≈ Wq(M/M/k) · (ca² + cs²)/2` — exact for `M/M/k`
//! (`ca² = cs² = 1`), exact in heavy traffic, and the standard engineering
//! approximation elsewhere.
//!
//! It reduces to the Erlang result when fed exponential moments, so DRS
//! can switch models without recalibration: the measurer already observes
//! per-tuple service times (for `µ̂`) and inter-arrival gaps (for `λ̂`);
//! tracking their second moments is a one-line extension.

use crate::erlang::{InvalidQueue, MmKQueue};

/// A `G/G/k` operator model: rates plus burstiness moments.
///
/// # Examples
///
/// ```
/// use drs_queueing::erlang::MmKQueue;
/// use drs_queueing::mgk::GgKQueue;
///
/// // Uniform arrivals (ca² = 1/3), heavy-tailed service (cs² = 2).
/// let q = GgKQueue::new(13.0, 1.78, 1.0 / 3.0, 2.0)?;
/// let corrected = q.expected_sojourn(10);
/// let erlang = MmKQueue::new(13.0, 1.78)?.expected_sojourn(10);
/// // (1/3 + 2)/2 > 1: the corrected model predicts more queueing.
/// assert!(corrected > erlang);
/// # Ok::<(), drs_queueing::erlang::InvalidQueue>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GgKQueue {
    erlang: MmKQueue,
    arrival_cv2: f64,
    service_cv2: f64,
}

impl GgKQueue {
    /// Creates a `G/G/k` model from mean rates and squared coefficients of
    /// variation.
    ///
    /// # Errors
    ///
    /// Rejects invalid rates (see [`MmKQueue::new`]) and negative or
    /// non-finite `cv²` values.
    pub fn new(
        arrival_rate: f64,
        service_rate: f64,
        arrival_cv2: f64,
        service_cv2: f64,
    ) -> Result<Self, InvalidQueue> {
        let erlang = MmKQueue::new(arrival_rate, service_rate)?;
        for (name, v) in [("arrival", arrival_cv2), ("service", service_cv2)] {
            if !v.is_finite() || v < 0.0 {
                return Err(InvalidQueue::new(format!(
                    "{name} cv² must be finite and >= 0, got {v}"
                )));
            }
        }
        Ok(GgKQueue {
            erlang,
            arrival_cv2,
            service_cv2,
        })
    }

    /// The Allen–Cunneen burstiness correction factor `(ca² + cs²)/2`.
    pub(crate) fn correction(&self) -> f64 {
        (self.arrival_cv2 + self.service_cv2) / 2.0
    }

    /// Expected queueing delay under the Allen–Cunneen approximation:
    /// `Wq(M/M/k) · (ca² + cs²)/2`. Infinite when unstable.
    pub(crate) fn expected_wait(&self, servers: u32) -> f64 {
        let base = self.erlang.expected_wait(servers);
        if base.is_infinite() {
            f64::INFINITY
        } else {
            base * self.correction()
        }
    }

    /// Expected sojourn time: corrected wait plus the mean service time.
    /// Infinite when unstable.
    pub fn expected_sojourn(&self, servers: u32) -> f64 {
        let w = self.expected_wait(servers);
        if w.is_infinite() {
            f64::INFINITY
        } else {
            w + 1.0 / self.erlang.service_rate()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_case_matches_erlang_exactly() {
        let q = GgKQueue::new(10.0, 3.0, 1.0, 1.0).unwrap();
        let erlang = MmKQueue::new(10.0, 3.0).unwrap();
        for k in 4..12 {
            assert!(
                (q.expected_sojourn(k) - erlang.expected_sojourn(k)).abs() < 1e-15,
                "k = {k}"
            );
        }
        assert_eq!(q.correction(), 1.0);
    }

    #[test]
    fn smoother_traffic_waits_less_burstier_waits_more() {
        let erlang = GgKQueue::new(40.0, 10.0, 1.0, 1.0).unwrap();
        let smooth = GgKQueue::new(40.0, 10.0, 1.0 / 3.0, 0.0).unwrap(); // uniform arrivals, deterministic service
        let bursty = GgKQueue::new(40.0, 10.0, 1.0, 4.0).unwrap(); // hyperexponential service
        let k = 5;
        assert!(smooth.expected_wait(k) < erlang.expected_wait(k));
        assert!(bursty.expected_wait(k) > erlang.expected_wait(k));
        // Service time itself is unchanged.
        assert!((smooth.expected_sojourn(k) - smooth.expected_wait(k) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unstable_allocations_stay_infinite() {
        let q = GgKQueue::new(10.0, 3.0, 0.5, 0.5).unwrap();
        assert!(q.expected_sojourn(3).is_infinite());
        assert!(q.expected_wait(2).is_infinite());
    }

    #[test]
    fn correction_factor_is_linear_in_cv2() {
        let a = GgKQueue::new(8.0, 3.0, 1.0, 3.0).unwrap();
        let b = GgKQueue::new(8.0, 3.0, 1.0, 1.0).unwrap();
        let k = 4;
        // (1+3)/2 = 2x the (1+1)/2 = 1x wait.
        assert!((a.expected_wait(k) - 2.0 * b.expected_wait(k)).abs() < 1e-12);
    }

    #[test]
    fn invalid_rates_rejected() {
        assert!(GgKQueue::new(-1.0, 1.0, 1.0, 1.0).is_err());
        assert!(GgKQueue::new(1.0, 0.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn invalid_cv2_rejected() {
        assert!(GgKQueue::new(1.0, 1.0, -0.5, 1.0).is_err());
        assert!(GgKQueue::new(1.0, 1.0, 1.0, f64::NAN).is_err());
    }
}
