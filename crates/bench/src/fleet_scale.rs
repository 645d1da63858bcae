//! `repro fleet --scale`: the million-entity negotiation smoke.
//!
//! A synthetic fleet ([`drs_sim::synthetic`]) of 1k/10k/100k/1m shards
//! shares one contended processor budget. Every window the generator's
//! drift re-draws 5 % of the shards' rates, and each re-drawn shard asks
//! for its own Program 6 schedule at its new rate. One warm
//! [`FleetNegotiator`] is carried across the windows via
//! `negotiate_within_incremental`: per-window cost is O(changed shards +
//! executor moves).
//!
//! The run asserts that a zero-churn steady-state window performs no heap
//! allocation (counted by the probes the `repro` binary installs), and at
//! the end cross-checks the warm grants against one from-scratch
//! `negotiate_within` over the same demands. It reports the mean
//! negotiate-µs per drifting window; the negotiation cost to cite is
//! `BENCHMARK.json`'s `core.fleet.negotiate_ms` on the `fleet_window`
//! workload (`bash benchmark/run.sh --workload fleet_window`).

use drs_core::fleet::{FleetNegotiator, ShardDemand};
use drs_sim::synthetic::{Draws, SyntheticFleet, SyntheticShard};
use std::time::Instant;

/// Configuration of one fleet-scale run.
#[derive(Debug, Clone)]
pub struct FleetScaleConfig {
    /// Shards in the synthetic fleet.
    pub shards: usize,
    /// Operators per shard (1 at the million-shard point to bound memory).
    pub ops_per_shard: usize,
    /// Drifting windows negotiated.
    pub windows: u64,
    /// Seed of the generator's stream.
    pub seed: u64,
}

impl FleetScaleConfig {
    /// The named scale points of `repro fleet --scale`.
    ///
    /// Returns `None` for an unknown scale name.
    pub fn named(scale: &str, smoke: bool, seed: u64) -> Option<Self> {
        let (shards, ops_per_shard) = match scale {
            "1k" => (1_000, 2),
            "10k" => (10_000, 2),
            "100k" => (100_000, 2),
            "1m" => (1_000_000, 1),
            _ => return None,
        };
        Some(FleetScaleConfig {
            shards,
            ops_per_shard,
            windows: if smoke { 3 } else { 10 },
            seed,
        })
    }
}

/// The outcome of one fleet-scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScaleRun {
    /// Microseconds the initial full build (window 0) took.
    pub build_us: f64,
    /// Mean microseconds per drifting window.
    pub negotiate_us: f64,
    /// Heap allocations across one zero-churn steady-state window (asserted
    /// 0); `None` when no heap probes are installed (library tests).
    pub steady_allocs: Option<u64>,
    /// Total executors granted in the last window (the whole budget: the
    /// fleet is contended).
    pub granted: u64,
    /// The contended budget.
    pub budget: u32,
}

/// A shard's demand: its true network and its own schedule for it.
fn demand(shard: &SyntheticShard) -> ShardDemand {
    ShardDemand {
        network: shard.network(),
        desired: shard.schedule(),
    }
}

/// Drives the warm negotiator over the drifting fleet, asserts the
/// steady-state window allocation-free and the final grants equal to a
/// from-scratch negotiation.
pub fn run_fleet_scale(config: &FleetScaleConfig) -> FleetScaleRun {
    let mut generator = SyntheticFleet::new(
        config.shards,
        config.ops_per_shard,
        Draws::seeded(config.seed),
    );
    let mut shards = Vec::with_capacity(config.shards);
    let mut demands = Vec::with_capacity(config.shards);
    let mut floors = 0u64;
    for spec in generator.by_ref() {
        let d = demand(&spec.backend);
        floors += d
            .network
            .min_stable_allocation()
            .iter()
            .map(|&k| u64::from(k))
            .sum::<u64>();
        demands.push(d);
        shards.push(spec.backend);
    }
    // Contended every window: the budget covers the stability floors and
    // 70 % of what the schedules ask for above them.
    let budget = floors + (generator.demand - floors) * 7 / 10;
    let budget = u32::try_from(budget).expect("budget fits u32");

    let mut negotiator = FleetNegotiator::new(budget);
    let start = Instant::now();
    negotiator
        .negotiate_within_incremental(budget, &demands)
        .expect("feasible budget");
    let build_us = start.elapsed().as_secs_f64() * 1e6;

    let mut draws = generator.draws;
    let mut secs = 0.0;
    for _ in 0..config.windows {
        draws.redraw(config.shards, |i, u| {
            shards[i].drift(u);
            demands[i] = demand(&shards[i]);
        });
        let start = Instant::now();
        negotiator
            .negotiate_within_incremental(budget, &demands)
            .expect("feasible budget");
        secs += start.elapsed().as_secs_f64();
    }

    // Zero-churn steady-state window: demand bits unchanged, so the warm
    // path must not allocate at all.
    let allocs = crate::heap_probes().map(|p| p.allocs);
    let before = allocs.map(|count| count());
    negotiator
        .negotiate_within_incremental(budget, &demands)
        .expect("feasible budget");
    let steady_allocs = allocs.zip(before).map(|(count, before)| count() - before);
    if let Some(allocs) = steady_allocs {
        assert_eq!(allocs, 0, "a settled incremental window allocated");
    }

    // The warm result must be bit-identical to the from-scratch reference
    // for the same demands.
    let reference = FleetNegotiator::new(budget)
        .negotiate_within(budget, &demands)
        .expect("feasible budget");
    assert_eq!(
        negotiator.grants(),
        &reference[..],
        "incremental diverged from from-scratch negotiation"
    );

    FleetScaleRun {
        build_us,
        negotiate_us: secs * 1e6 / config.windows as f64,
        steady_allocs,
        granted: negotiator.grants().iter().map(|g| g.total()).sum(),
        budget,
    }
}

/// Renders one run as a table.
pub fn render_fleet_scale(config: &FleetScaleConfig, run: &FleetScaleRun) -> String {
    let rows = vec![vec![
        format!("{:.1}", run.build_us),
        format!("{:.1}", run.negotiate_us),
        run.steady_allocs
            .map_or_else(|| "n/a".to_owned(), |n| n.to_string()),
    ]];
    let mut out = crate::report::render_table(
        &format!(
            "Fleet negotiation at {} shards, 5% drift/window (budget {}, granted {})",
            config.shards, run.budget, run.granted,
        ),
        &[
            "initial build (µs)",
            "negotiate (µs/window)",
            "steady-state allocs",
        ],
        &rows,
    );
    out.push_str("final grants equal a from-scratch negotiation\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_is_contended_and_consistent() {
        // run_fleet_scale itself asserts grant-for-grant parity with the
        // from-scratch reference after the last window.
        for ops_per_shard in [1, 2] {
            let config = FleetScaleConfig {
                shards: 400,
                ops_per_shard,
                windows: 4,
                seed: 2015,
            };
            let run = run_fleet_scale(&config);
            assert_eq!(run.granted, u64::from(run.budget), "budget fully spent");
            assert!(run.negotiate_us > 0.0);
            // No probes in lib tests.
            assert_eq!(run.steady_allocs, None);
            let rendered = render_fleet_scale(&config, &run);
            assert!(rendered.contains("negotiate"), "{rendered}");
        }
    }

    #[test]
    fn named_scales_parse() {
        for (name, shards) in [
            ("1k", 1_000),
            ("10k", 10_000),
            ("100k", 100_000),
            ("1m", 1_000_000),
        ] {
            let c = FleetScaleConfig::named(name, true, 1).unwrap();
            assert_eq!(c.shards, shards);
        }
        assert!(FleetScaleConfig::named("2k", true, 1).is_none());
    }
}
