//! The fleet window's exactness net: every window's observable output —
//! `last_window` field by field (`f64`s by their bits), the negotiator's
//! published grants, and every shard's machine assignment in force — is
//! folded into one running 64-bit hash over 150 windows of a 3 000-shard
//! drifting placed fleet, and the hash is pinned.
//!
//! Three budgets, two seeds each: an uncontended one (every grant is the
//! shard's own schedule); one 1 % above the fleet's demand, where the
//! decision gate holds more shrinks every window until the gate-aware
//! re-offer flips from accepted to rejected and the held shrinks actuate;
//! and one 0.3 % above it, where the same cycle also pushes the negotiator
//! in and out of contention (capped grants, both transition paths).
//!
//! A change that is meant to preserve behaviour leaves every golden below
//! untouched. A change that alters behaviour on purpose updates them and
//! says why.

use drs_core::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use drs_core::fleet::{
    mmk_measured_sojourn, FleetDriver, FleetDriverConfig, FleetShardSpec, ShardPlacementInfo,
};
use drs_core::placement::MachinePool;
use drs_core::scheduler;
use drs_queueing::jackson::JacksonNetwork;
use drs_topology::ResourceProfile;

const SHARDS: usize = 3_000;
const WINDOWS: u64 = 150;
const T_MAX: f64 = 0.5;

/// A two-operator chain whose "measurements" are its true rates and the
/// M/M/k sojourn of what it runs; the rate can be re-drawn between windows.
#[derive(Debug)]
struct DriftShard {
    base_rate: f64,
    rate: f64,
    mu: [f64; 2],
    allocation: Vec<u32>,
}

impl CspBackend for DriftShard {
    fn backend_name(&self) -> &'static str {
        "drift"
    }
    fn operator_names(&self) -> Vec<String> {
        vec!["first".to_owned(), "second".to_owned()]
    }
    fn current_allocation(&self) -> Vec<u32> {
        self.allocation.clone()
    }
    fn advance(&mut self, _window_secs: f64) -> WindowSample {
        let mut sojourn = 0.0;
        let operators = self
            .mu
            .iter()
            .zip(&self.allocation)
            .map(|(&mu, &k)| {
                sojourn += mmk_measured_sojourn(self.rate, mu, k);
                OperatorSample {
                    arrival_rate: Some(self.rate),
                    service_rate: Some(mu),
                }
            })
            .collect();
        WindowSample {
            external_rate: Some(self.rate),
            operators,
            mean_sojourn: Some(sojourn),
            std_sojourn: None,
            completed: self.rate as u64,
        }
    }
    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        self.allocation.clone_from(&plan.allocation);
        Ok(AppliedRebalance {
            allocation: plan.allocation.clone(),
            pause_secs: plan.pause_secs,
        })
    }
}

/// xorshift64*: uniform draws in `[0, 1)`.
struct Draws(u64);

impl Draws {
    fn new(seed: u64) -> Self {
        Draws(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn flag(&mut self, b: bool) {
        self.word(u64::from(b));
    }

    fn float(&mut self, x: Option<f64>) {
        match x {
            Some(x) => {
                self.word(1);
                self.word(x.to_bits());
            }
            None => self.word(0),
        }
    }

    fn text(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.word(1 + s.len() as u64);
                for &byte in s.as_bytes() {
                    self.word(u64::from(byte));
                }
            }
            None => self.word(0),
        }
    }

    fn counts(&mut self, counts: &[u32]) {
        self.word(counts.len() as u64);
        for &k in counts {
            self.word(u64::from(k));
        }
    }
}

/// Budget over the fleet's Program 6 demand at set-up.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// Twice the demand: nothing is ever capped.
    Uncontended,
    /// 1 % above the demand: the gate hold / re-offer cycle.
    Tight,
    /// 0.3 % above the demand: the same cycle, and windows that flip
    /// between contended and uncontended negotiation.
    Edge,
}

/// The drifting placed fleet of `fleet_allocs.rs`, driven for
/// [`WINDOWS`] windows with 5 % of the shards re-drawing their rate every
/// window; returns the digest of every window's output.
fn digest(seed: u64, budget: Budget) -> u64 {
    let mut draws = Draws::new(seed);
    let mut specs = Vec::with_capacity(SHARDS);
    let (mut demand, mut units) = (0u64, 0.0);
    for i in 0..SHARDS {
        let base_rate = 20.0 + 60.0 * draws.next();
        let mu = [
            base_rate / (0.5 + 2.5 * draws.next()),
            base_rate / (0.5 + 2.5 * draws.next()),
        ];
        let rate = base_rate * (0.7 + 0.6 * draws.next());
        let network =
            JacksonNetwork::from_rates(rate, &[(rate, mu[0]), (rate, mu[1])]).expect("positive");
        let allocation = scheduler::min_processors_for_target(&network, T_MAX, 512)
            .expect("reachable target")
            .into_vec();
        let per_executor = [0.5 + draws.next(), 0.5 + draws.next()];
        for (&k, u) in allocation.iter().zip(per_executor) {
            demand += u64::from(k);
            units += f64::from(k) * u;
        }
        let shard = DriftShard {
            base_rate,
            rate,
            mu,
            allocation,
        };
        specs.push(
            FleetShardSpec::new(format!("shard-{i:04}"), T_MAX, shard).with_placement(
                ShardPlacementInfo {
                    profiles: per_executor.map(ResourceProfile::uniform).to_vec(),
                    edges: vec![(0, 1, 1.0)],
                },
            ),
        );
    }
    let k_max = match budget {
        Budget::Uncontended => 2 * demand as u32,
        Budget::Tight => (demand as f64 * 1.01) as u32,
        Budget::Edge => (demand as f64 * 1.003) as u32,
    };
    let mut config = FleetDriverConfig::new(k_max);
    config.window_secs = 1.0;
    config.warmup_windows = 2;
    config.record_timeline = false;
    let mut fleet = FleetDriver::new(config, specs).expect("fleet construction");
    fleet.set_machine_pool(
        MachinePool::uniform(16, ResourceProfile::uniform(units / 16.0 * 1.3)).expect("valid pool"),
    );

    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for _ in 0..WINDOWS {
        for _ in 0..SHARDS / 20 {
            let i = (draws.next() * SHARDS as f64) as usize;
            let shard = fleet.backend_mut(i);
            shard.rate = shard.base_rate * (0.7 + 0.6 * draws.next());
        }
        let w = fleet.step();
        d.word(w.window);
        d.flag(w.contended);
        d.word(w.total_granted);
        d.text(w.error.as_deref());
        d.word(w.shards.len() as u64);
        for s in &w.shards {
            d.text(Some(&s.name));
            d.flag(s.dead);
            d.float(s.mean_sojourn_ms);
            d.word(s.completed);
            d.counts(&s.allocation);
            d.word(s.demand.map_or(0, |k| 1 + k));
            d.flag(s.capped);
            d.flag(s.rebalanced);
            d.flag(s.gated);
            d.text(s.error.as_deref());
        }
        let grants = fleet.negotiator().grants();
        d.word(grants.len() as u64);
        for g in grants {
            d.counts(&g.allocation);
            d.flag(g.capped);
        }
        for i in 0..fleet.shard_count() {
            match fleet.shard_placement(i) {
                Some(p) => {
                    // The dense `counts[op][machine]` rows, hashed as such.
                    d.word(1 + p.operators() as u64);
                    let mut row = vec![0; p.machines()];
                    for op in 0..p.operators() {
                        row.fill(0);
                        for (m, k) in p.counts_of(op) {
                            row[m] = k;
                        }
                        d.counts(&row);
                    }
                }
                None => d.word(0),
            }
        }
    }
    d.0
}

/// Seeds 7 and 2015.
fn digests(budget: Budget) -> [u64; 2] {
    [digest(7, budget), digest(2015, budget)]
}

#[test]
fn uncontended_fleet_digest_is_pinned() {
    assert_eq!(
        digests(Budget::Uncontended),
        [13952620397668049593, 487917941061463681]
    );
}

#[test]
fn tight_budget_fleet_digest_is_pinned() {
    assert_eq!(
        digests(Budget::Tight),
        [1900090161397682336, 4595831869733288357]
    );
}

#[test]
fn edge_budget_fleet_digest_is_pinned() {
    assert_eq!(
        digests(Budget::Edge),
        [11143135487647861773, 5119382393460720824]
    );
}
