//! `repro fleet --scale --place`: the warm-start placement smoke.
//!
//! A synthetic fleet ([`drs_sim::synthetic`]) of 1k/10k/100k two-operator
//! shards shares one machine pool sized at 130 % of the resource units its
//! executors start on. Every window the generator's drift re-draws 5 % of
//! the shards' rates, and a re-drawn shard's request follows: its chain
//! edge carries the new rate and its operators run their Program 6
//! schedule for it. One warm [`FleetPlacementState`] is carried across the
//! windows with the fleet driver's epoch band: only shards whose request
//! changed beyond the band are re-solved against the pool's residual
//! capacity, with the drift-bounded batch re-solve as the anchor.
//!
//! The run asserts that a zero-drift steady-state window performs no heap
//! allocation and no solver call, reports the live heap bytes the warm
//! state holds per shard, and at the end cross-checks a forced batch
//! re-solve of the warm state against one from-scratch [`placement::plan`]
//! over the same cached requests, bit for bit. The placement cost to cite
//! is `BENCHMARK.json`'s `core.placement.replan_ms` (with
//! `core.placement.solver_calls` / `full_solves`) on the `fleet_window`
//! workload (`bash benchmark/run.sh --workload fleet_window`).

use drs_core::fleet::FleetDriverConfig;
use drs_core::placement::{
    self, EdgeTraffic, FleetPlacementState, MachinePool, OperatorLoad, PlacementRequest,
};
use drs_sim::synthetic::{Draws, SyntheticFleet, SyntheticShard};
use drs_topology::ResourceProfile;
use std::time::Instant;

/// Configuration of one placement-scale run.
#[derive(Debug, Clone)]
pub struct PlaceScaleConfig {
    /// Shards in the synthetic fleet (each: 2 operators, 1 chain edge).
    pub shards: usize,
    /// Machines in the shared pool.
    pub machines: usize,
    /// Drifting windows placed.
    pub windows: u64,
    /// Seed of the generator's stream.
    pub seed: u64,
}

impl PlaceScaleConfig {
    /// The named scale points of `repro fleet --scale ... --place`.
    ///
    /// Returns `None` for an unknown scale name.
    pub fn named(scale: &str, smoke: bool, seed: u64) -> Option<Self> {
        let (shards, machines) = match scale {
            "1k" => (1_000, 16),
            "10k" => (10_000, 32),
            "100k" => (100_000, 64),
            _ => return None,
        };
        Some(PlaceScaleConfig {
            shards,
            machines,
            windows: if smoke { 3 } else { 10 },
            seed,
        })
    }
}

/// The outcome of one placement-scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceScaleRun {
    /// Microseconds the initial full build (window 0) took.
    pub build_us: f64,
    /// Mean microseconds per drifting window (epoch-band comparison +
    /// residual-capacity repair).
    pub place_us: f64,
    /// Heap allocations across one zero-drift steady-state window; `None`
    /// when no heap probes are installed (library tests). Must be 0 under
    /// the `repro` binary.
    pub steady_allocs: Option<u64>,
    /// Live heap bytes per shard the warm state holds after the
    /// steady-state window (cached requests, placements, usage lists,
    /// names, indexes); `None` when no heap probes are installed.
    pub heap_per_shard: Option<f64>,
    /// Solver calls the zero-drift steady-state window performed (must
    /// be 0 — the warm state sees every request unchanged).
    pub steady_solver_calls: u64,
    /// Per-shard solver calls across the whole run.
    pub solver_calls: u64,
    /// Batch re-solves across the whole run (the first window, plus
    /// drift-triggered anchors).
    pub full_solves: u64,
}

/// Writes a shard's request: its operators running their schedule for
/// the shard's rate, the chain edge carrying that rate.
fn write_request(shard: &SyntheticShard, profiles: &[ResourceProfile], out: &mut PlacementRequest) {
    out.operators.clear();
    out.operators.extend(
        shard
            .schedule()
            .into_iter()
            .zip(profiles)
            .map(|(executors, &profile)| OperatorLoad { executors, profile }),
    );
    out.edges.clear();
    out.edges.push(EdgeTraffic {
        from: 0,
        to: 1,
        rate: shard.rate,
    });
}

/// The fleet-layer epoch band: executors/profiles and edge endpoints
/// exact, edge rates within `band` relative to the cached rate.
fn band_matches(cached: &PlacementRequest, measured: &PlacementRequest, band: f64) -> bool {
    cached.operators == measured.operators
        && cached.edges.len() == measured.edges.len()
        && cached.edges.iter().zip(&measured.edges).all(|(c, m)| {
            c.from == m.from && c.to == m.to && (m.rate - c.rate).abs() <= band * c.rate.abs()
        })
}

/// One incremental window over the warm state: band-compare every
/// measured request against the cache, touch only real changes, replan.
fn warm_window(
    state: &mut FleetPlacementState,
    pool: &MachinePool,
    slots: &[usize],
    requests: &[PlacementRequest],
    band: f64,
) {
    state.begin_window();
    state.sync_pool(pool);
    for (&slot, measured) in slots.iter().zip(requests) {
        if !band_matches(state.request(slot), measured, band) {
            state.touch(slot).clone_from(measured);
        }
        state.mark_seen(slot);
    }
    state.replan().expect("feasible pool");
}

/// Drives the warm placement state over the drifting fleet, asserts the
/// steady-state window allocation- and solver-free, and cross-checks the
/// warm state's assignments against the from-scratch planner.
pub fn run_place_scale(config: &PlaceScaleConfig) -> PlaceScaleRun {
    let band = FleetDriverConfig::new(0).placement_rate_band;
    let mut generator = SyntheticFleet::new(config.shards, 2, Draws::seeded(config.seed));
    let mut shards = Vec::with_capacity(config.shards);
    let mut profiles = Vec::with_capacity(config.shards);
    let mut names = Vec::with_capacity(config.shards);
    let mut requests = Vec::with_capacity(config.shards);
    for spec in generator.by_ref() {
        let info = spec.placement.expect("generated shards are placed");
        let mut request = PlacementRequest::default();
        write_request(&spec.backend, &info.profiles, &mut request);
        requests.push(request);
        profiles.push(info.profiles);
        names.push(spec.name);
        shards.push(spec.backend);
    }
    let capacity = generator.units / config.machines as f64 * 1.3;
    let pool = MachinePool::uniform(config.machines, ResourceProfile::uniform(capacity))
        .expect("valid pool");

    // The heap counted from here on is the warm state's alone: the
    // harness's slot list is allocated before.
    let mut slots = Vec::with_capacity(config.shards);
    let probes = crate::heap_probes();
    let live_before = probes.map(|p| (p.live_bytes)());
    let mut state = FleetPlacementState::new();
    let start = Instant::now();
    slots.extend(names.iter().map(|name| state.insert(name)));
    warm_window(&mut state, &pool, &slots, &requests, band);
    let build_us = start.elapsed().as_secs_f64() * 1e6;

    let mut draws = generator.draws;
    let mut secs = 0.0;
    for _ in 0..config.windows {
        draws.redraw(config.shards, |i, u| {
            shards[i].drift(u);
            write_request(&shards[i], &profiles[i], &mut requests[i]);
        });
        let start = Instant::now();
        warm_window(&mut state, &pool, &slots, &requests, band);
        secs += start.elapsed().as_secs_f64();
        // Capacity safety after every repair window.
        for r in state.remaining() {
            assert!(
                r.cpu >= -1e-9 && r.mem >= -1e-9 && r.net >= -1e-9,
                "residual capacity went negative: {r:?}"
            );
        }
    }

    // Zero-drift steady-state window: request bits unchanged, so the warm
    // path must neither allocate nor call the solver.
    let calls_before = state.solver_calls();
    let allocs_before = probes.map(|p| (p.allocs)());
    warm_window(&mut state, &pool, &slots, &requests, band);
    let steady_allocs = probes.zip(allocs_before).map(|(p, b)| (p.allocs)() - b);
    let heap_per_shard = probes
        .zip(live_before)
        .map(|(p, b)| (p.live_bytes)().wrapping_sub(b) as i64 as f64 / config.shards as f64);
    let steady_solver_calls = state.solver_calls() - calls_before;
    assert_eq!(
        steady_solver_calls, 0,
        "a zero-drift window must not touch the solver"
    );
    if let Some(allocs) = steady_allocs {
        assert_eq!(allocs, 0, "a zero-drift incremental window allocated");
    }
    let solver_calls = state.solver_calls();
    let full_solves = state.full_solves();

    // Cross-check: a forced batch re-solve of the warm state must equal
    // `plan` bit-for-bit over the same cached requests.
    let named: Vec<(String, PlacementRequest)> = names
        .into_iter()
        .zip(&slots)
        .map(|(name, &slot)| (name, state.request(slot).clone()))
        .collect();
    state.begin_window();
    state.sync_pool(&pool);
    for &slot in &slots {
        state.mark_seen(slot);
    }
    state.invalidate();
    state.replan().expect("feasible pool");
    let reference = placement::plan(&pool, &named).expect("feasible pool");
    for (i, (&slot, want)) in slots.iter().zip(&reference).enumerate() {
        assert_eq!(
            state.placement(slot),
            want,
            "warm placement diverged from plan() for shard {i}"
        );
    }

    PlaceScaleRun {
        build_us,
        place_us: secs * 1e6 / config.windows as f64,
        steady_allocs,
        heap_per_shard,
        steady_solver_calls,
        solver_calls,
        full_solves,
    }
}

/// Renders one run as a table.
pub fn render_place_scale(config: &PlaceScaleConfig, run: &PlaceScaleRun) -> String {
    let rows = vec![vec![
        format!("{:.1}", run.place_us),
        run.steady_allocs
            .map_or_else(|| "n/a".to_owned(), |n| n.to_string()),
        run.steady_solver_calls.to_string(),
        run.heap_per_shard
            .map_or_else(|| "n/a".to_owned(), |b| format!("{b:.0}")),
    ]];
    let mut out = crate::report::render_table(
        &format!(
            "Fleet placement at {} shards on {} machines, 5% drift/window",
            config.shards, config.machines,
        ),
        &[
            "place (µs/window)",
            "steady allocs",
            "steady solves",
            "heap (B/shard)",
        ],
        &rows,
    );
    out.push_str(&format!(
        "initial build: {:.1} µs; {} solver calls, {} batch re-solves; \
         a forced batch re-solve equals plan()\n",
        run.build_us, run.solver_calls, run.full_solves,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_is_consistent() {
        let config = PlaceScaleConfig {
            shards: 400,
            machines: 8,
            windows: 4,
            seed: 2015,
        };
        // run_place_scale itself cross-checks the warm state against the
        // from-scratch reference bit-for-bit at the forced final solve.
        let run = run_place_scale(&config);
        assert!(run.place_us > 0.0);
        assert_eq!(
            run.steady_solver_calls, 0,
            "a zero-drift window must not touch the solver"
        );
        assert!(run.full_solves >= 1, "the first window batch-solves");
        assert!(
            run.solver_calls > 0,
            "drifting windows must repair some shards"
        );
        // No probes in lib tests.
        assert_eq!(run.steady_allocs, None);
        assert_eq!(run.heap_per_shard, None);
        let rendered = render_place_scale(&config, &run);
        assert!(rendered.contains("heap (B/shard)"), "{rendered}");
    }

    #[test]
    fn named_scales_parse() {
        for (name, shards) in [("1k", 1_000), ("10k", 10_000), ("100k", 100_000)] {
            let c = PlaceScaleConfig::named(name, true, 1).unwrap();
            assert_eq!(c.shards, shards);
        }
        assert!(PlaceScaleConfig::named("1m", true, 1).is_none());
    }
}
