//! Scene-complexity process for the synthetic video stream.
//!
//! The paper notes that "the number of result SIFT features may vary
//! dramatically on different frames, causing significant variance on the
//! computation overhead over time" (§V-A). We model the driver of that
//! variance — scene complexity — as a mean-reverting AR(1) process in
//! `[0, 1]`: busy scenes (many objects, textures) stay busy for a while,
//! then calm down, exactly the slowly varying load DRS must adapt to.

use rand::Rng;

/// Mean-reverting scene-complexity process.
///
/// `c_{t+1} = c_t + θ·(mean − c_t) + σ·ε_t`, clamped to `[0, 1]`.
///
/// # Examples
///
/// ```
/// use drs_apps::vld::scene::SceneProcess;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut scene = SceneProcess::new(0.5, 0.05, 0.1);
/// let mut rng = StdRng::seed_from_u64(3);
/// let c = scene.step(&mut rng);
/// assert!((0.0..=1.0).contains(&c));
/// ```
#[derive(Debug, Clone)]
pub struct SceneProcess {
    mean: f64,
    reversion: f64,
    volatility: f64,
    current: f64,
}

impl SceneProcess {
    /// Creates a process starting at `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is outside `[0, 1]`, `reversion` outside `(0, 1]`,
    /// or `volatility` is negative or non-finite.
    pub fn new(mean: f64, reversion: f64, volatility: f64) -> Self {
        assert!((0.0..=1.0).contains(&mean), "mean must be in [0,1]");
        assert!(
            reversion > 0.0 && reversion <= 1.0,
            "reversion must be in (0,1]"
        );
        assert!(
            volatility.is_finite() && volatility >= 0.0,
            "volatility must be finite and >= 0"
        );
        SceneProcess {
            mean,
            reversion,
            volatility,
            current: mean,
        }
    }

    /// Advances one frame and returns the new complexity.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let noise: f64 = rng.gen::<f64>() * 2.0 - 1.0;
        self.current += self.reversion * (self.mean - self.current) + self.volatility * noise;
        self.current = self.current.clamp(0.0, 1.0);
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stays_in_unit_interval() {
        let mut p = SceneProcess::new(0.5, 0.1, 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let c = p.step(&mut rng);
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn long_run_average_near_mean() {
        let mut p = SceneProcess::new(0.3, 0.05, 0.05);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let avg: f64 = (0..n).map(|_| p.step(&mut rng)).sum::<f64>() / f64::from(n);
        assert!((avg - 0.3).abs() < 0.05, "avg {avg}");
    }

    #[test]
    fn zero_volatility_converges_to_mean() {
        let mut p = SceneProcess::new(0.8, 0.5, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        p.current = 0.0;
        for _ in 0..50 {
            p.step(&mut rng);
        }
        assert!((p.current - 0.8).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "mean must be in")]
    fn invalid_mean_panics() {
        let _ = SceneProcess::new(1.5, 0.1, 0.1);
    }
}
