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

use drs_core::fleet::{FleetDriver, FleetDriverConfig};
use drs_core::placement::MachinePool;
use drs_sim::synthetic::{Draws, SyntheticFleet};
use drs_topology::ResourceProfile;

const SHARDS: usize = 3_000;
const WINDOWS: u64 = 150;

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

/// The drifting placed fleet of `fleet_allocs.rs` (two operators per
/// shard), driven for [`WINDOWS`] windows with 5 % of the shards
/// re-drawing their rate every window; returns the digest of every
/// window's output.
fn digest(seed: u64, budget: Budget) -> u64 {
    let mut generator = SyntheticFleet::new(SHARDS, 2, Draws::seeded(seed));
    let specs: Vec<_> = generator.by_ref().collect();
    let (demand, units) = (generator.demand, generator.units);
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
        generator
            .draws
            .redraw(SHARDS, |i, u| fleet.backend_mut(i).drift(u));
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
