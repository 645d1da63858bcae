//! Seeded load schedules. Everything the program under test receives is
//! generated here from the workload seed, before the measured run starts:
//! open-loop due times, and the fleet's per-window rate drift.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One constant-rate stretch of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    pub rate_per_s: f64,
    pub secs: f64,
}

/// Poisson arrival times (nanoseconds from the schedule's start) over
/// consecutive `phases`: exponential gaps at each phase's rate. The same
/// seed gives the same due times.
pub fn poisson_due_ns(seed: u64, phases: &[Phase]) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let expected: f64 = phases.iter().map(|p| p.rate_per_s * p.secs).sum();
    let mut due = Vec::with_capacity(expected as usize + 64);
    let mut phase_start = 0.0f64;
    for p in phases {
        let end = phase_start + p.secs;
        let mut t = phase_start;
        loop {
            // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / p.rate_per_s;
            if t >= end {
                break;
            }
            due.push((t * 1e9) as u64);
        }
        phase_start = end;
    }
    due
}

/// One window's rate drift for the fleet workload: which shards re-draw
/// their rate, and the new factor on each shard's base rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    pub shard: Vec<u32>,
    pub factor: Vec<f64>,
}

/// The drift of window `window`: `share` of `shards` (with repetition, as
/// independent draws) re-draw a factor in `[0.7, 1.3)`. Depends only on
/// `(seed, window)`, so any number of windows replays identically.
pub fn drift(seed: u64, window: u64, shards: usize, share: f64) -> Drift {
    let mut rng = StdRng::seed_from_u64(seed ^ window.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n = (shards as f64 * share).round() as usize;
    let mut out = Drift {
        shard: Vec::with_capacity(n),
        factor: Vec::with_capacity(n),
    };
    for _ in 0..n {
        out.shard.push(rng.gen_range(0..shards) as u32);
        out.factor.push(rng.gen_range(0.7..1.3));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_due_times() {
        let phases = [
            Phase {
                rate_per_s: 300.0,
                secs: 2.0,
            },
            Phase {
                rate_per_s: 600.0,
                secs: 2.0,
            },
        ];
        let a = poisson_due_ns(2015, &phases);
        let b = poisson_due_ns(2015, &phases);
        assert_eq!(a, b);
        assert_ne!(a, poisson_due_ns(2016, &phases));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times are sorted");
        // Counts track rate × duration per phase (Poisson: ±5σ).
        let first = a.iter().filter(|&&t| t < 2_000_000_000).count() as f64;
        let second = a.len() as f64 - first;
        assert!((first - 600.0).abs() < 5.0 * 600f64.sqrt(), "{first}");
        assert!((second - 1200.0).abs() < 5.0 * 1200f64.sqrt(), "{second}");
        assert!(*a.last().unwrap() < 4_000_000_000);
    }

    #[test]
    fn same_seed_gives_identical_drift_sequence() {
        let a: Vec<Drift> = (0..5).map(|w| drift(7, w, 1000, 0.05)).collect();
        let b: Vec<Drift> = (0..5).map(|w| drift(7, w, 1000, 0.05)).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1], "windows draw independently");
        for d in &a {
            assert_eq!(d.shard.len(), 50);
            assert!(d.shard.iter().all(|&s| (s as usize) < 1000));
            assert!(d.factor.iter().all(|f| (0.7..1.3).contains(f)));
        }
    }
}
