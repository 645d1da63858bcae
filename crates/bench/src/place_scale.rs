//! `repro fleet --scale --place`: the warm-start placement benchmark.
//!
//! Synthetic shard fleets at 1k/10k/100k shards share one machine pool;
//! every window a configurable fraction of shards drifts (edge rates
//! re-scale, and some shards gain or lose an executor). Two arms place
//! the identical drift sequence:
//!
//! * **incremental** — one warm [`FleetPlacementState`] carried across
//!   windows via the epoch-band protocol: only shards whose request
//!   actually changed are re-solved against the pool's residual
//!   capacity, with the drift-bounded batch re-solve as the anchor;
//! * **from-scratch** — a fresh [`placement::plan`] per window, the
//!   O(fleet) reference the warm path must beat.
//!
//! Reported per arm: mean place-µs per drifting window, plus the heap
//! allocations (and solver calls — must both be **0**) one zero-drift
//! steady-state window performs; the incremental arm also reports the live
//! heap bytes its warm state holds per shard. Assignments are cross-checked at the
//! end of the run: a forced batch re-solve of the warm state must match
//! `plan` bit-for-bit over the same cached requests. The placement cost
//! to cite is `BENCHMARK.json`'s `core.placement.replan_ms` (with
//! `core.placement.solver_calls` / `full_solves`) on the `fleet_window`
//! workload (`bash benchmark/run.sh --workload fleet_window`).

use drs_core::placement::{
    self, EdgeTraffic, FleetPlacementState, MachinePool, OperatorLoad, PlacementRequest,
};
use drs_topology::ResourceProfile;
use std::sync::OnceLock;
use std::time::Instant;

/// Counts heap allocations performed by the process so far. Installed by
/// the `repro` binary (whose `#[global_allocator]` counts); the library
/// itself is `forbid(unsafe_code)` and cannot host the allocator.
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Registers the allocation probe. Later registrations are ignored.
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

/// Reports the bytes live on the heap (allocated minus freed). Installed
/// by the `repro` binary, like [`ALLOC_PROBE`].
static LIVE_BYTES_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Registers the live-bytes probe. Later registrations are ignored.
pub fn set_live_bytes_probe(probe: fn() -> u64) {
    let _ = LIVE_BYTES_PROBE.set(probe);
}

/// Configuration of one placement-scale run.
#[derive(Debug, Clone)]
pub struct PlaceScaleConfig {
    /// Shards in the synthetic fleet (each: 2 operators, 1 chain edge).
    pub shards: usize,
    /// Machines in the shared pool.
    pub machines: usize,
    /// Fraction of shards whose request drifts each window.
    pub churn_fraction: f64,
    /// Relative dead-band on edge rates (mirrors
    /// `FleetDriverConfig::placement_rate_band`).
    pub rate_band: f64,
    /// Drifting windows driven through the incremental arm.
    pub windows: u64,
    /// Drifting windows driven through the from-scratch arm (smaller at
    /// the largest scales — the reference arm is the slow one).
    pub scratch_windows: u64,
    /// RNG seed; both arms replay the identical drift sequence from it.
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
        let (windows, scratch_windows) = if smoke { (3, 2) } else { (10, 3) };
        Some(PlaceScaleConfig {
            shards,
            machines,
            churn_fraction: 0.05,
            rate_band: 0.05,
            windows,
            scratch_windows,
            seed,
        })
    }
}

/// The outcome of one placement-scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceScaleRun {
    /// Microseconds the initial full build (window 0) took — identical
    /// work in both arms, reported once.
    pub build_us: f64,
    /// Mean microseconds per drifting window, warm incremental arm
    /// (epoch-band comparison + residual-capacity repair).
    pub incremental_us: f64,
    /// Mean microseconds per drifting window, from-scratch `plan` arm.
    pub scratch_us: f64,
    /// Heap allocations across one zero-drift steady-state window of the
    /// incremental arm; `None` when no probe is installed (library
    /// tests). Must be 0 under the `repro` binary.
    pub steady_allocs: Option<u64>,
    /// Live heap bytes per shard the incremental arm's warm state holds
    /// after the steady-state window (cached requests, placements, usage
    /// lists, names, indexes); `None` when no probe is installed.
    pub heap_per_shard: Option<f64>,
    /// Solver calls the zero-drift steady-state window performed (must
    /// be 0 — the warm state sees every request unchanged).
    pub steady_solver_calls: u64,
    /// Per-shard solver calls across the whole incremental run.
    pub solver_calls: u64,
    /// Batch re-solves across the whole incremental run (the first
    /// window, plus drift-triggered anchors).
    pub full_solves: u64,
}

impl PlaceScaleRun {
    /// `scratch / incremental` — how many times faster the warm path is
    /// per drifting window.
    pub fn speedup(&self) -> f64 {
        self.scratch_us / self.incremental_us
    }
}

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() % (1 << 24)) as f64 / (1 << 24) as f64
    }
}

/// One shard's generator: fixed per-operator base demand; the drifting
/// parts (edge-rate factor, executor delta) are stored outside and
/// re-derived per drift draw, so both arms replay bit-identical request
/// sequences.
struct ShardGen {
    /// Per-operator (base executors, per-executor resource units).
    ops: Vec<(u32, f64)>,
    /// Base tuple rate on the chain edge `0 → 1`.
    base_rate: f64,
}

/// A shard's current drift: edge-rate factor and executor delta on
/// operator 0.
type Drift = (f64, u32);

fn write_request(gen: &ShardGen, drift: Drift, out: &mut PlacementRequest) {
    let (rate_factor, k_delta) = drift;
    out.operators.clear();
    out.operators.extend(
        gen.ops
            .iter()
            .enumerate()
            .map(|(i, &(k, units))| OperatorLoad {
                executors: k + if i == 0 { k_delta } else { 0 },
                profile: ResourceProfile::uniform(units),
            }),
    );
    out.edges.clear();
    out.edges.push(EdgeTraffic {
        from: 0,
        to: 1,
        rate: gen.base_rate * rate_factor,
    });
}

/// Builds the synthetic fleet: 2 operators per shard with 3–6 executors
/// each (large enough that the solver always dispatches to the greedy
/// heuristic, never the exponential oracle), per-executor demand in
/// [0.5, 1.5) units, and a homogeneous pool sized at 130% of total base
/// demand — tight enough that placement is non-trivial, loose enough
/// that executor churn stays feasible.
fn build_fleet(config: &PlaceScaleConfig) -> (Vec<ShardGen>, MachinePool) {
    let mut rng = XorShift::new(config.seed);
    let mut gens = Vec::with_capacity(config.shards);
    let mut total_units = 0.0;
    for _ in 0..config.shards {
        let ops: Vec<(u32, f64)> = (0..2)
            .map(|_| {
                let k = 3 + (rng.next() % 4) as u32;
                let units = 0.5 + rng.unit();
                total_units += f64::from(k) * units;
                (k, units)
            })
            .collect();
        let base_rate = 5.0 + rng.unit() * 45.0;
        gens.push(ShardGen { ops, base_rate });
    }
    let cap = total_units / config.machines as f64 * 1.3;
    let pool =
        MachinePool::uniform(config.machines, ResourceProfile::uniform(cap)).expect("valid pool");
    (gens, pool)
}

/// Applies window `w`'s drift and rewrites the touched requests in
/// place. The schedule depends only on `(seed, w)`, so both arms replay
/// it identically.
fn drift_window(
    config: &PlaceScaleConfig,
    w: u64,
    gens: &[ShardGen],
    drifts: &mut [Drift],
    requests: &mut [PlacementRequest],
) {
    let mut rng = XorShift::new(config.seed ^ (w.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    let churn = ((config.shards as f64) * config.churn_fraction).round() as usize;
    for _ in 0..churn {
        let i = (rng.next() % config.shards as u64) as usize;
        // Edge-rate drift wide enough to land outside the band almost
        // always; every 4th draw also moves an executor (0–1 extra on
        // operator 0), exercising the usage-refund path.
        let rate_factor = 0.6 + rng.unit() * 0.8;
        let k_delta = if rng.next().is_multiple_of(4) {
            (rng.next() % 2) as u32
        } else {
            drifts[i].1
        };
        drifts[i] = (rate_factor, k_delta);
        write_request(&gens[i], drifts[i], &mut requests[i]);
    }
}

/// The fleet-layer epoch band: executors/profiles and edge endpoints
/// exact, edge rates within `rate_band` relative to the cached rate.
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

fn shard_name(i: usize) -> String {
    // Zero-padded so sorted-name order equals index order.
    format!("s{i:07}")
}

/// Runs both arms over the same drift sequence and cross-checks the warm
/// state's assignments against the from-scratch reference.
pub fn run_place_scale(config: &PlaceScaleConfig) -> PlaceScaleRun {
    let probe = ALLOC_PROBE.get().copied();
    let live_probe = LIVE_BYTES_PROBE.get().copied();
    let (gens, pool) = build_fleet(config);
    let mut drifts: Vec<Drift> = vec![(1.0, 0); config.shards];
    let mut requests: Vec<PlacementRequest> = gens
        .iter()
        .map(|g| {
            let mut r = PlacementRequest::default();
            write_request(g, (1.0, 0), &mut r);
            r
        })
        .collect();

    // Incremental arm: one warm state across every window.
    let live_before = live_probe.map(|p| p());
    let mut state = FleetPlacementState::new();
    let start = Instant::now();
    let slots: Vec<usize> = (0..config.shards)
        .map(|i| state.insert(&shard_name(i)))
        .collect();
    warm_window(&mut state, &pool, &slots, &requests, config.rate_band);
    let build_us = start.elapsed().as_secs_f64() * 1e6;

    let mut inc_secs = 0.0;
    for w in 1..=config.windows {
        drift_window(config, w, &gens, &mut drifts, &mut requests);
        let start = Instant::now();
        warm_window(&mut state, &pool, &slots, &requests, config.rate_band);
        inc_secs += start.elapsed().as_secs_f64();
        // Capacity safety after every repair window.
        for r in state.remaining() {
            assert!(
                r.cpu >= -1e-9 && r.mem >= -1e-9 && r.net >= -1e-9,
                "residual capacity went negative: {r:?}"
            );
        }
    }
    // Zero-drift steady-state window: request bits unchanged, so the
    // warm path must neither allocate nor call the solver.
    let calls_before = state.solver_calls();
    let steady_allocs = probe.map(|p| {
        let before = p();
        warm_window(&mut state, &pool, &slots, &requests, config.rate_band);
        p() - before
    });
    if steady_allocs.is_none() {
        warm_window(&mut state, &pool, &slots, &requests, config.rate_band);
    }
    let steady_solver_calls = state.solver_calls() - calls_before;
    let heap_per_shard = live_probe
        .zip(live_before)
        .map(|(p, before)| p().wrapping_sub(before) as i64 as f64 / config.shards as f64);
    assert_eq!(
        steady_solver_calls, 0,
        "a zero-drift window must not touch the solver"
    );
    if let Some(allocs) = steady_allocs {
        assert_eq!(allocs, 0, "a zero-drift incremental window allocated");
    }
    let solver_calls = state.solver_calls();
    let full_solves = state.full_solves();
    let incremental_us = inc_secs * 1e6 / config.windows as f64;

    // From-scratch arm: identical drift replay, fresh `plan` per window
    // (fewer windows — this is the slow arm). Requests are copied into
    // the named buffer outside the timer.
    let mut drifts: Vec<Drift> = vec![(1.0, 0); config.shards];
    let mut requests: Vec<PlacementRequest> = gens
        .iter()
        .map(|g| {
            let mut r = PlacementRequest::default();
            write_request(g, (1.0, 0), &mut r);
            r
        })
        .collect();
    let mut named: Vec<(String, PlacementRequest)> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| (shard_name(i), r.clone()))
        .collect();
    let mut scratch_secs = 0.0;
    for w in 1..=config.scratch_windows {
        drift_window(config, w, &gens, &mut drifts, &mut requests);
        for (slot, r) in named.iter_mut().zip(&requests) {
            slot.1.clone_from(r);
        }
        let start = Instant::now();
        std::hint::black_box(placement::plan(&pool, &named).expect("feasible pool"));
        scratch_secs += start.elapsed().as_secs_f64();
    }
    let scratch_us = scratch_secs * 1e6 / config.scratch_windows as f64;

    // Cross-check: a forced batch re-solve of the warm state must equal
    // `plan` bit-for-bit over the same cached requests.
    for (slot, n) in slots.iter().zip(named.iter_mut()) {
        n.1.clone_from(state.request(*slot));
    }
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
        incremental_us,
        scratch_us,
        steady_allocs,
        heap_per_shard,
        steady_solver_calls,
        solver_calls,
        full_solves,
    }
}

/// Renders one run as a table plus the headline ratio.
pub fn render_place_scale(config: &PlaceScaleConfig, run: &PlaceScaleRun) -> String {
    let rows = vec![
        vec![
            "incremental".to_owned(),
            format!("{:.1}", run.incremental_us),
            run.steady_allocs
                .map_or_else(|| "n/a".to_owned(), |n| n.to_string()),
            run.steady_solver_calls.to_string(),
            run.heap_per_shard
                .map_or_else(|| "n/a".to_owned(), |b| format!("{b:.0}")),
        ],
        vec![
            "from-scratch".to_owned(),
            format!("{:.1}", run.scratch_us),
            "-".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
        ],
    ];
    let mut out = crate::report::render_table(
        &format!(
            "Fleet placement at {} shards on {} machines, {:.0}% churn/window",
            config.shards,
            config.machines,
            config.churn_fraction * 100.0,
        ),
        &[
            "arm",
            "place (µs/window)",
            "steady allocs",
            "steady solves",
            "heap (B/shard)",
        ],
        &rows,
    );
    out.push_str(&format!(
        "initial build: {:.1} µs; {} solver calls, {} batch re-solves; \
         incremental speedup per drifting window: {:.1}x\n",
        run.build_us,
        run.solver_calls,
        run.full_solves,
        run.speedup(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_is_consistent() {
        let config = PlaceScaleConfig {
            shards: 200,
            machines: 8,
            churn_fraction: 0.1,
            rate_band: 0.05,
            windows: 4,
            scratch_windows: 4,
            seed: 2015,
        };
        // run_place_scale itself cross-checks the warm state against the
        // from-scratch reference bit-for-bit at the forced final solve.
        let run = run_place_scale(&config);
        assert!(run.incremental_us > 0.0);
        assert!(run.scratch_us > 0.0);
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
        assert!(rendered.contains("incremental"), "{rendered}");
        assert!(rendered.contains("from-scratch"), "{rendered}");
    }

    #[test]
    fn named_scales_parse() {
        for (name, shards) in [("1k", 1_000), ("10k", 10_000), ("100k", 100_000)] {
            let c = PlaceScaleConfig::named(name, true, 1).unwrap();
            assert_eq!(c.shards, shards);
            assert!(c.scratch_windows <= c.windows);
        }
        assert!(PlaceScaleConfig::named("1m", true, 1).is_none());
    }
}
