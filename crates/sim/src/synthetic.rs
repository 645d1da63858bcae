//! A seeded synthetic fleet: analytic shards for driving `FleetDriver` at
//! tens of thousands of shards without a simulator behind each one.
//!
//! A [`SyntheticShard`] is an n-operator chain that "measures" exactly the
//! model DRS assumes: every operator sees the shard's arrival rate, serves
//! at its own per-executor rate, and the shard reports the M/M/k sojourn
//! ([`mmk_measured_sojourn`]) of the allocation it runs. Its measurement
//! hooks are allocation-free once the caller's buffers are warm, so the
//! fleet's own allocations are the only ones a test sees.
//!
//! [`SyntheticFleet`] draws the shards from one xorshift64* stream
//! ([`Draws`]). Per shard, in this order: a base rate in `[20, 80)`
//! tuples/s; one service rate per operator, an offered load in `[0.5, 3)`;
//! a start rate in `[0.7, 1.3)` of the base; then the shard's Program 6
//! schedule for a 0.5 s target (`T_MAX`) at that rate, which it starts on; then each
//! operator's per-executor resource units in `[0.5, 1.5)`. Names are
//! `shard-` and the index, zero-padded to the fleet's width, so name order
//! is index order. After the last shard the same stream drives the drift:
//! [`Draws::redraw`] picks 5 % of the shards per window (with replacement)
//! and [`SyntheticShard::drift`] re-draws each picked rate around its base.

use drs_core::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use drs_core::fleet::{mmk_measured_sojourn, FleetShardSpec, ShardPlacementInfo};
use drs_core::scheduler;
use drs_queueing::jackson::JacksonNetwork;
use drs_topology::ResourceProfile;

/// The latency target every generated shard is scheduled for, in seconds.
pub(crate) const T_MAX: f64 = 0.5;

/// xorshift64*: uniform draws in `[0, 1)`, no allocation.
#[derive(Debug, Clone, Copy)]
pub struct Draws(pub u64);

impl Draws {
    /// The stream for a user-facing seed (any value, zero included).
    pub fn seeded(seed: u64) -> Self {
        Draws(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// The next uniform draw in `[0, 1)`.
    pub(crate) fn uniform(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One drifting window over a fleet of `shards`: 5 % of them, drawn
    /// with replacement, each handed to `visit` with a fresh uniform draw
    /// (the index is drawn first). Pass [`SyntheticShard::drift`] the draw
    /// for the fleet's drift law.
    pub fn redraw(&mut self, shards: usize, mut visit: impl FnMut(usize, f64)) {
        for _ in 0..shards / 20 {
            let i = (self.uniform() * shards as f64) as usize;
            visit(i, self.uniform());
        }
    }
}

/// An n-operator chain whose "measurements" are its true rates and the
/// M/M/k sojourn of what it runs. The rate can be set between windows.
#[derive(Debug, Clone)]
pub struct SyntheticShard {
    /// The rate the drift re-draws around, in tuples/s.
    pub base_rate: f64,
    /// The arrival rate every operator sees now, in tuples/s.
    pub rate: f64,
    /// Each operator's per-executor service rate.
    pub mu: Vec<f64>,
    /// The executors each operator runs.
    pub allocation: Vec<u32>,
}

impl SyntheticShard {
    /// A shard at `rate` (also its base rate), one operator per entry of
    /// `mu`, running `allocation`.
    pub fn new(rate: f64, mu: Vec<f64>, allocation: Vec<u32>) -> Self {
        SyntheticShard {
            base_rate: rate,
            rate,
            mu,
            allocation,
        }
    }

    /// The shard's true open network at its current rate.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate.
    pub fn network(&self) -> JacksonNetwork {
        let operators: Vec<(f64, f64)> = self.mu.iter().map(|&mu| (self.rate, mu)).collect();
        JacksonNetwork::from_rates(self.rate, &operators).expect("positive rates")
    }

    /// The shard's own Program 6 schedule for `T_MAX` at its current rate.
    ///
    /// # Panics
    ///
    /// Panics if the target needs more than 512 executors per operator.
    pub fn schedule(&self) -> Vec<u32> {
        scheduler::min_processors_for_target(&self.network(), T_MAX, 512)
            .expect("reachable target")
            .into_vec()
    }

    /// The drift law: the rate is re-drawn anywhere in `[0.7, 1.3)` of the
    /// base rate, `u` being a uniform draw in `[0, 1)`.
    pub fn drift(&mut self, u: f64) {
        self.rate = self.base_rate * (0.7 + 0.6 * u);
    }
}

impl CspBackend for SyntheticShard {
    fn backend_name(&self) -> &'static str {
        "synthetic"
    }
    fn operator_names(&self) -> Vec<String> {
        (0..self.mu.len()).map(|op| format!("op{op}")).collect()
    }
    fn current_allocation(&self) -> Vec<u32> {
        self.allocation.clone()
    }
    fn current_allocation_into(&self, out: &mut Vec<u32>) {
        out.clone_from(&self.allocation);
    }
    fn advance(&mut self, window_secs: f64) -> WindowSample {
        let mut out = WindowSample::default();
        self.advance_into(window_secs, &mut out);
        out
    }
    fn advance_into(&mut self, _window_secs: f64, out: &mut WindowSample) {
        out.external_rate = Some(self.rate);
        out.operators.clear();
        let mut sojourn = 0.0;
        for (&mu, &k) in self.mu.iter().zip(&self.allocation) {
            out.operators.push(OperatorSample {
                arrival_rate: Some(self.rate),
                service_rate: Some(mu),
            });
            sojourn += mmk_measured_sojourn(self.rate, mu, k);
        }
        out.mean_sojourn = Some(sojourn);
        out.std_sojourn = None;
        out.completed = self.rate as u64;
    }
    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        self.allocation.clone_from(&plan.allocation);
        Ok(AppliedRebalance {
            allocation: plan.allocation.clone(),
            pause_secs: plan.pause_secs,
        })
    }
}

/// The seeded generator: yields `shards` shard specs (target `T_MAX`,
/// placement metadata for a chain `0 → 1 → …` with gain 1), drawn in the
/// order the module docs give, and keeps the totals a caller sizes its
/// budget and machine pool from.
#[derive(Debug, Clone)]
pub struct SyntheticFleet {
    shards: usize,
    operators: usize,
    width: usize,
    generated: usize,
    /// The stream; once the fleet is generated, the drift's.
    pub draws: Draws,
    /// Executors the shards generated so far start on.
    pub demand: u64,
    /// Resource units those executors use.
    pub units: f64,
}

impl SyntheticFleet {
    /// A fleet of `shards` shards of `operators` operators each, drawn from
    /// `draws`.
    pub fn new(shards: usize, operators: usize, draws: Draws) -> Self {
        SyntheticFleet {
            shards,
            operators,
            width: shards.saturating_sub(1).to_string().len(),
            generated: 0,
            draws,
            demand: 0,
            units: 0.0,
        }
    }
}

impl Iterator for SyntheticFleet {
    type Item = FleetShardSpec<SyntheticShard>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.generated == self.shards {
            return None;
        }
        let d = &mut self.draws;
        let base_rate = 20.0 + 60.0 * d.uniform();
        let mu = (0..self.operators)
            .map(|_| base_rate / (0.5 + 2.5 * d.uniform()))
            .collect();
        let rate = base_rate * (0.7 + 0.6 * d.uniform());
        let mut shard = SyntheticShard {
            base_rate,
            rate,
            mu,
            allocation: Vec::new(),
        };
        shard.allocation = shard.schedule();
        let mut profiles = Vec::with_capacity(self.operators);
        for &k in &shard.allocation {
            let units = 0.5 + self.draws.uniform();
            self.demand += u64::from(k);
            self.units += f64::from(k) * units;
            profiles.push(ResourceProfile::uniform(units));
        }
        let edges = (1..self.operators).map(|op| (op - 1, op, 1.0)).collect();
        let name = format!("shard-{:0width$}", self.generated, width = self.width);
        self.generated += 1;
        Some(
            FleetShardSpec::new(name, T_MAX, shard)
                .with_placement(ShardPlacementInfo { profiles, edges }),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.shards - self.generated;
        (left, Some(left))
    }
}

impl ExactSizeIterator for SyntheticFleet {}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_core::fleet::{FleetDriver, FleetDriverConfig};
    use drs_queueing::erlang::MmKQueue;

    /// Every generated shard starts on its own Program 6 schedule, and its
    /// sojourn is the M/M/k one to the bit (no shard starts unstable): a
    /// fleet whose rates never move is settled from its first negotiated
    /// window, at one and at two operators per shard.
    #[test]
    fn constant_rate_fleet_starts_settled() {
        for operators in [1, 2] {
            let mut generator = SyntheticFleet::new(200, operators, Draws::seeded(2015));
            let specs: Vec<_> = generator.by_ref().collect();
            assert_eq!(specs[7].name, "shard-007");
            let mut sample = WindowSample::default();
            for spec in &specs {
                let mut shard = spec.backend.clone();
                assert_eq!(shard.allocation, shard.schedule());
                shard.advance_into(1.0, &mut sample);
                let expected = shard
                    .mu
                    .iter()
                    .zip(&shard.allocation)
                    .map(|(&mu, &k)| MmKQueue::new(shard.rate, mu).unwrap().expected_sojourn(k))
                    .fold(0.0, |sum, t| sum + t);
                assert_eq!(
                    sample.mean_sojourn.map(f64::to_bits),
                    Some(expected.to_bits())
                );
            }
            let starts: Vec<Vec<u32>> =
                specs.iter().map(|s| s.backend.allocation.clone()).collect();
            let mut config = FleetDriverConfig::new(2 * generator.demand as u32);
            config.window_secs = 1.0;
            config.warmup_windows = 2;
            let mut fleet = FleetDriver::new(config, specs).unwrap();
            fleet.run_windows(8);
            for w in fleet.timeline() {
                assert!(w.error.is_none(), "{w:?}");
                for (s, start) in w.shards.iter().zip(&starts) {
                    assert!(
                        !(s.rebalanced || s.gated || s.capped),
                        "{operators} ops: {s:?}"
                    );
                    assert!(s.error.is_none(), "{s:?}");
                    assert_eq!(&s.allocation, start);
                }
            }
            for (s, start) in fleet.last_window().shards.iter().zip(&starts) {
                assert_eq!(s.demand, Some(start.iter().map(|&k| u64::from(k)).sum()));
            }
        }
    }
}
