//! Service-time and inter-arrival distributions used by the DRS simulator and
//! model-robustness experiments.
//!
//! The DRS performance model assumes exponential inter-arrival and service
//! times (M/M/k). The paper's evaluation deliberately *violates* those
//! assumptions (uniform frame rates, hashed queues, pipelining) and shows the
//! model remains useful. This module provides the distribution families used
//! to reproduce those experiments, all sampled from a caller-supplied
//! [`rand::Rng`] so simulations stay deterministic under a fixed seed.

use rand::Rng;
use std::f64::consts::PI;
use std::fmt;

/// Error returned when constructing an invalid distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidDistribution {
    /// Human-readable reason the parameters were rejected.
    reason: String,
}

impl InvalidDistribution {
    fn new(reason: impl Into<String>) -> Self {
        InvalidDistribution {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for InvalidDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution: {}", self.reason)
    }
}

impl std::error::Error for InvalidDistribution {}

/// A positive-valued distribution for service times and inter-arrival times.
///
/// All constructors validate their parameters; sampling never returns a
/// negative value.
///
/// # Examples
///
/// ```
/// use drs_queueing::distribution::Distribution;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let service = Distribution::exponential(4.0)?; // rate 4 per second
/// let mut rng = StdRng::seed_from_u64(7);
/// let t = service.sample(&mut rng);
/// assert!(t >= 0.0);
/// assert!((service.mean() - 0.25).abs() < 1e-12);
/// # Ok::<(), drs_queueing::distribution::InvalidDistribution>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Every sample equals `value`. Coefficient of variation 0; the strongest
    /// violation of the exponential assumption.
    Deterministic {
        /// The constant sample value (>= 0).
        value: f64,
    },
    /// Exponential with the given `rate` (mean `1/rate`). This is the law the
    /// M/M/k model assumes.
    Exponential {
        /// Rate parameter (> 0), in events per unit time.
        rate: f64,
    },
    /// Uniform on `[lo, hi]`. Used for the paper's video frame rate
    /// (uniform on [1, 25] frames per second).
    Uniform {
        /// Inclusive lower bound (>= 0).
        lo: f64,
        /// Inclusive upper bound (>= lo).
        hi: f64,
    },
    /// Erlang distribution: sum of `shape` i.i.d. exponentials of the given
    /// `rate`. Coefficient of variation `1/sqrt(shape)` — smoother than
    /// exponential.
    Erlang {
        /// Number of exponential stages (>= 1).
        shape: u32,
        /// Rate of each stage (> 0).
        rate: f64,
    },
    /// Log-normal with location `mu` and scale `sigma` of the underlying
    /// normal. Heavy-tailed; models occasional very expensive tuples (e.g.
    /// feature-rich video frames).
    LogNormal {
        /// Mean of the underlying normal distribution.
        mu: f64,
        /// Standard deviation of the underlying normal (> 0).
        sigma: f64,
    },
    /// Two-branch hyperexponential: with probability `p1` sample
    /// `Exponential(rate1)`, otherwise `Exponential(rate2)`. Coefficient of
    /// variation > 1 — burstier than exponential.
    Hyperexponential {
        /// Probability of the first branch, in `[0, 1]`.
        p1: f64,
        /// Rate of the first branch (> 0).
        rate1: f64,
        /// Rate of the second branch (> 0).
        rate2: f64,
    },
}

impl Distribution {
    /// Creates a deterministic (constant) distribution.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite `value`.
    pub fn deterministic(value: f64) -> Result<Self, InvalidDistribution> {
        if !value.is_finite() || value < 0.0 {
            return Err(InvalidDistribution::new(format!(
                "deterministic value must be finite and non-negative, got {value}"
            )));
        }
        Ok(Distribution::Deterministic { value })
    }

    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite `rate`.
    pub fn exponential(rate: f64) -> Result<Self, InvalidDistribution> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(InvalidDistribution::new(format!(
                "exponential rate must be finite and positive, got {rate}"
            )));
        }
        Ok(Distribution::Exponential { rate })
    }

    /// Creates a uniform distribution on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Rejects negative bounds, non-finite bounds, or `hi < lo`.
    pub fn uniform(lo: f64, hi: f64) -> Result<Self, InvalidDistribution> {
        if !lo.is_finite() || !hi.is_finite() || lo < 0.0 || hi < lo {
            return Err(InvalidDistribution::new(format!(
                "uniform bounds must satisfy 0 <= lo <= hi, got [{lo}, {hi}]"
            )));
        }
        Ok(Distribution::Uniform { lo, hi })
    }

    /// Creates an Erlang distribution (sum of `shape` exponential stages).
    ///
    /// # Errors
    ///
    /// Rejects `shape == 0` and non-positive `rate`.
    pub fn erlang(shape: u32, rate: f64) -> Result<Self, InvalidDistribution> {
        if shape == 0 {
            return Err(InvalidDistribution::new("erlang shape must be >= 1"));
        }
        if !rate.is_finite() || rate <= 0.0 {
            return Err(InvalidDistribution::new(format!(
                "erlang rate must be finite and positive, got {rate}"
            )));
        }
        Ok(Distribution::Erlang { shape, rate })
    }

    /// Creates a log-normal distribution.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite `sigma`, or non-finite `mu`.
    pub(crate) fn log_normal(mu: f64, sigma: f64) -> Result<Self, InvalidDistribution> {
        if !mu.is_finite() || !sigma.is_finite() || sigma <= 0.0 {
            return Err(InvalidDistribution::new(format!(
                "log-normal requires finite mu and positive sigma, got mu={mu}, sigma={sigma}"
            )));
        }
        Ok(Distribution::LogNormal { mu, sigma })
    }

    /// Creates a log-normal distribution with a target mean and squared
    /// coefficient of variation `cv2 = Var/Mean^2`.
    ///
    /// This is the convenient parameterisation for calibrating service laws:
    /// pick the observed mean service time and burstiness.
    ///
    /// # Errors
    ///
    /// Rejects non-positive `mean` or negative `cv2`.
    pub fn log_normal_with_mean_cv2(mean: f64, cv2: f64) -> Result<Self, InvalidDistribution> {
        if !mean.is_finite() || mean <= 0.0 || !cv2.is_finite() || cv2 <= 0.0 {
            return Err(InvalidDistribution::new(format!(
                "log-normal mean must be > 0 and cv2 > 0, got mean={mean}, cv2={cv2}"
            )));
        }
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Self::log_normal(mu, sigma2.sqrt())
    }

    /// Creates a two-branch hyperexponential distribution.
    ///
    /// # Errors
    ///
    /// Rejects `p1` outside `[0, 1]` or non-positive rates.
    pub fn hyperexponential(p1: f64, rate1: f64, rate2: f64) -> Result<Self, InvalidDistribution> {
        if !(0.0..=1.0).contains(&p1) {
            return Err(InvalidDistribution::new(format!(
                "hyperexponential p1 must be in [0,1], got {p1}"
            )));
        }
        if !rate1.is_finite() || rate1 <= 0.0 || !rate2.is_finite() || rate2 <= 0.0 {
            return Err(InvalidDistribution::new(format!(
                "hyperexponential rates must be positive, got {rate1}, {rate2}"
            )));
        }
        Ok(Distribution::Hyperexponential { p1, rate1, rate2 })
    }

    /// Draws one sample using the supplied random-number generator.
    ///
    /// The result is always finite and non-negative.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Distribution::Deterministic { value } => value,
            Distribution::Exponential { rate } => sample_exponential(rng, rate),
            Distribution::Uniform { lo, hi } => {
                if hi == lo {
                    lo
                } else {
                    rng.gen_range(lo..=hi)
                }
            }
            Distribution::Erlang { shape, rate } => {
                (0..shape).map(|_| sample_exponential(rng, rate)).sum()
            }
            Distribution::LogNormal { mu, sigma } => {
                let z = sample_standard_normal(rng);
                (mu + sigma * z).exp()
            }
            Distribution::Hyperexponential { p1, rate1, rate2 } => {
                if rng.gen::<f64>() < p1 {
                    sample_exponential(rng, rate1)
                } else {
                    sample_exponential(rng, rate2)
                }
            }
        }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        match *self {
            Distribution::Deterministic { value } => value,
            Distribution::Exponential { rate } => 1.0 / rate,
            Distribution::Uniform { lo, hi } => (lo + hi) / 2.0,
            Distribution::Erlang { shape, rate } => f64::from(shape) / rate,
            Distribution::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Distribution::Hyperexponential { p1, rate1, rate2 } => p1 / rate1 + (1.0 - p1) / rate2,
        }
    }

    /// The distribution variance.
    pub(crate) fn variance(&self) -> f64 {
        match *self {
            Distribution::Deterministic { .. } => 0.0,
            Distribution::Exponential { rate } => 1.0 / (rate * rate),
            Distribution::Uniform { lo, hi } => (hi - lo) * (hi - lo) / 12.0,
            Distribution::Erlang { shape, rate } => f64::from(shape) / (rate * rate),
            Distribution::LogNormal { mu, sigma } => {
                let s2 = sigma * sigma;
                ((s2).exp_m1()) * (2.0 * mu + s2).exp()
            }
            Distribution::Hyperexponential { p1, rate1, rate2 } => {
                // E[X^2] for a mixture of exponentials: sum p_i * 2/rate_i^2.
                let ex2 = p1 * 2.0 / (rate1 * rate1) + (1.0 - p1) * 2.0 / (rate2 * rate2);
                let mean = self.mean();
                ex2 - mean * mean
            }
        }
    }

    /// Squared coefficient of variation `Var/Mean^2`, a standard measure of
    /// burstiness (1 for exponential).
    ///
    /// Returns `0.0` when the mean is zero.
    pub fn cv2(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.variance() / (m * m)
        }
    }
}

/// Samples an exponential random variable with the given rate via inversion.
fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    // 1 - U in (0, 1]; ln of it is finite and <= 0.
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

/// Samples a standard normal via the Box-Muller transform.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>(); // in (0, 1]
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mean(dist: &Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_sample_mean_matches_theory() {
        let d = Distribution::exponential(4.0).unwrap();
        let m = sample_mean(&d, 200_000, 42);
        assert!((m - 0.25).abs() < 0.005, "mean {m}");
    }

    #[test]
    fn uniform_sample_mean_matches_theory() {
        let d = Distribution::uniform(1.0, 25.0).unwrap();
        let m = sample_mean(&d, 100_000, 43);
        assert!((m - 13.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn erlang_sample_mean_matches_theory() {
        let d = Distribution::erlang(4, 8.0).unwrap();
        let m = sample_mean(&d, 100_000, 44);
        assert!((m - 0.5).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn lognormal_sample_mean_matches_theory() {
        let d = Distribution::log_normal_with_mean_cv2(2.0, 1.5).unwrap();
        assert!((d.mean() - 2.0).abs() < 1e-9);
        let m = sample_mean(&d, 400_000, 45);
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn hyperexponential_mean_and_cv2() {
        let d = Distribution::hyperexponential(0.5, 1.0, 10.0).unwrap();
        assert!((d.mean() - 0.55).abs() < 1e-12);
        // Hyperexponential always has cv2 >= 1.
        assert!(d.cv2() >= 1.0);
        let m = sample_mean(&d, 300_000, 46);
        assert!((m - 0.55).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn deterministic_has_zero_variance() {
        let d = Distribution::deterministic(3.0).unwrap();
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.cv2(), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(d.sample(&mut rng), 3.0);
    }

    #[test]
    fn exponential_cv2_is_one() {
        let d = Distribution::exponential(3.0).unwrap();
        assert!((d.cv2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erlang_cv2_is_inverse_shape() {
        let d = Distribution::erlang(4, 1.0).unwrap();
        assert!((d.cv2() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Distribution::exponential(0.0).is_err());
        assert!(Distribution::exponential(-1.0).is_err());
        assert!(Distribution::exponential(f64::NAN).is_err());
        assert!(Distribution::uniform(5.0, 1.0).is_err());
        assert!(Distribution::uniform(-1.0, 1.0).is_err());
        assert!(Distribution::erlang(0, 1.0).is_err());
        assert!(Distribution::deterministic(-0.5).is_err());
        assert!(Distribution::log_normal(0.0, 0.0).is_err());
        assert!(Distribution::hyperexponential(1.5, 1.0, 1.0).is_err());
        assert!(Distribution::hyperexponential(0.5, 0.0, 1.0).is_err());
    }

    #[test]
    fn samples_are_non_negative() {
        let dists = vec![
            Distribution::deterministic(0.0).unwrap(),
            Distribution::exponential(2.0).unwrap(),
            Distribution::uniform(0.0, 1.0).unwrap(),
            Distribution::erlang(3, 5.0).unwrap(),
            Distribution::log_normal(0.0, 1.0).unwrap(),
            Distribution::hyperexponential(0.3, 1.0, 9.0).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(9);
        for d in &dists {
            for _ in 0..1000 {
                let x = d.sample(&mut rng);
                assert!(x.is_finite() && x >= 0.0, "{d:?} produced {x}");
            }
        }
    }
}
