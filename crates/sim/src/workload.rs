//! Workload behaviour attached to a topology: arrival processes for spouts,
//! service-time laws for bolts, and emission laws for edges.
//!
//! The `drs-topology` crate describes *structure* (operators, edges, mean
//! gains); this module describes *behaviour* — the generative laws the
//! simulator samples from. Keeping them separate mirrors the paper's
//! architecture: the DRS model consumes only measured rates, so the
//! simulator is free to use arbitrary (even assumption-violating) laws, which
//! is exactly what the robustness experiments of §V require.

use drs_queueing::distribution::Distribution;
use rand::Rng;
use std::fmt;

/// Integer-valued distribution for the number of tuples emitted on an edge
/// per processed tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum CountDistribution {
    /// Always emit exactly `count` tuples.
    Fixed {
        /// The constant emission count.
        count: u32,
    },
    /// Emit `floor(mean)` tuples plus one more with probability
    /// `frac(mean)`. Preserves the mean exactly with minimal variance; the
    /// default law derived from a topology gain.
    MeanPreserving {
        /// Target mean (>= 0).
        mean: f64,
    },
    /// Poisson-distributed count. Models highly variable fan-out such as the
    /// number of SIFT features per video frame.
    Poisson {
        /// Mean of the Poisson law (>= 0).
        mean: f64,
    },
    /// Emit 1 tuple with probability `p`, else 0. Models selective filters.
    Bernoulli {
        /// Success probability in `[0, 1]`.
        p: f64,
    },
}

/// Error for invalid count-distribution parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidCount {
    reason: String,
}

impl fmt::Display for InvalidCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid count distribution: {}", self.reason)
    }
}

impl std::error::Error for InvalidCount {}

impl CountDistribution {
    /// A fixed emission count.
    pub fn fixed(count: u32) -> Self {
        CountDistribution::Fixed { count }
    }

    /// The minimal-variance law with the given mean (see
    /// [`CountDistribution::MeanPreserving`]).
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite `mean`.
    pub fn with_mean(mean: f64) -> Result<Self, InvalidCount> {
        if !mean.is_finite() || mean < 0.0 {
            return Err(InvalidCount {
                reason: format!("mean must be finite and >= 0, got {mean}"),
            });
        }
        Ok(CountDistribution::MeanPreserving { mean })
    }

    /// A Poisson-distributed count.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite `mean`.
    pub fn poisson(mean: f64) -> Result<Self, InvalidCount> {
        if !mean.is_finite() || mean < 0.0 {
            return Err(InvalidCount {
                reason: format!("poisson mean must be finite and >= 0, got {mean}"),
            });
        }
        Ok(CountDistribution::Poisson { mean })
    }

    /// A Bernoulli 0/1 count.
    ///
    /// # Errors
    ///
    /// Rejects `p` outside `[0, 1]`.
    pub fn bernoulli(p: f64) -> Result<Self, InvalidCount> {
        if !(0.0..=1.0).contains(&p) {
            return Err(InvalidCount {
                reason: format!("bernoulli p must be in [0,1], got {p}"),
            });
        }
        Ok(CountDistribution::Bernoulli { p })
    }

    /// Draws one emission count.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match *self {
            CountDistribution::Fixed { count } => count,
            CountDistribution::MeanPreserving { mean } => {
                let base = mean.floor();
                let frac = mean - base;
                let extra = u32::from(rng.gen::<f64>() < frac);
                base as u32 + extra
            }
            CountDistribution::Poisson { mean } => sample_poisson(rng, mean),
            CountDistribution::Bernoulli { p } => u32::from(rng.gen::<f64>() < p),
        }
    }
}

/// Samples a Poisson random variable. Knuth's method for small means, a
/// clamped normal approximation for large ones (mean > 64), where the
/// relative error of the approximation is negligible for workload purposes.
fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 64.0 {
        // Normal approximation N(mean, mean), clamped at zero.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let x = mean + mean.sqrt() * z;
        return x.round().max(0.0) as u32;
    }
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Behaviour of one operator.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorBehavior {
    /// A spout: external tuples arrive with i.i.d. inter-arrival times.
    Spout {
        /// Inter-arrival time law (seconds).
        interarrival: Distribution,
    },
    /// A bolt: each tuple occupies one executor for an i.i.d. service time.
    Bolt {
        /// Per-tuple service time law (seconds).
        service: Distribution,
    },
}

impl OperatorBehavior {}

/// Behaviour of one edge: how many tuples it carries per processed tuple and
/// how long each takes to cross the network.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeBehavior {
    /// Emission-count law (mean should match the topology gain for the model
    /// to be calibrated — though DRS measures actual rates either way).
    pub count: CountDistribution,
    /// Per-tuple network delay law (seconds). The DRS model ignores network
    /// delay; setting this non-zero reproduces the underestimation studied in
    /// paper Figs. 7–8.
    pub delay: Distribution,
}

impl EdgeBehavior {
    /// Emission with the given count law and zero network delay.
    pub fn instant(count: CountDistribution) -> Self {
        EdgeBehavior {
            count,
            delay: Distribution::Deterministic { value: 0.0 },
        }
    }

    /// Emission with the given count law and a deterministic network delay
    /// in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `delay_secs` is negative or non-finite.
    pub fn with_fixed_delay(count: CountDistribution, delay_secs: f64) -> Self {
        EdgeBehavior {
            count,
            delay: Distribution::deterministic(delay_secs)
                .expect("delay must be finite and non-negative"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_mean(d: &CountDistribution, n: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(11);
        (0..n).map(|_| f64::from(d.sample(&mut rng))).sum::<f64>() / n as f64
    }

    #[test]
    fn fixed_count_is_constant() {
        let d = CountDistribution::fixed(3);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 3);
        }
    }

    #[test]
    fn mean_preserving_hits_mean() {
        let d = CountDistribution::with_mean(2.3).unwrap();
        assert!((empirical_mean(&d, 200_000) - 2.3).abs() < 0.01);
        // Only two support points.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!(x == 2 || x == 3);
        }
    }

    #[test]
    fn poisson_small_mean_matches() {
        let d = CountDistribution::poisson(4.2).unwrap();
        assert!((empirical_mean(&d, 200_000) - 4.2).abs() < 0.05);
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let d = CountDistribution::poisson(400.0).unwrap();
        assert!((empirical_mean(&d, 50_000) - 400.0).abs() < 1.0);
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let d = CountDistribution::poisson(0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), 0);
    }

    #[test]
    fn bernoulli_matches_probability() {
        let d = CountDistribution::bernoulli(0.25).unwrap();
        assert!((empirical_mean(&d, 200_000) - 0.25).abs() < 0.01);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(CountDistribution::with_mean(-1.0).is_err());
        assert!(CountDistribution::poisson(f64::NAN).is_err());
        assert!(CountDistribution::bernoulli(1.5).is_err());
    }

    #[test]
    fn edge_behavior_constructors() {
        let e = EdgeBehavior::instant(CountDistribution::fixed(1));
        assert_eq!(e.delay.mean(), 0.0);
        let e = EdgeBehavior::with_fixed_delay(CountDistribution::fixed(1), 0.002);
        assert!((e.delay.mean() - 0.002).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "delay must be finite")]
    fn negative_fixed_delay_panics() {
        let _ = EdgeBehavior::with_fixed_delay(CountDistribution::fixed(1), -0.5);
    }
}
