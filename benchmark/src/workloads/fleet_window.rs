//! `fleet_window`: the whole fleet control window — measure → smooth →
//! model → schedule → negotiate → place → gate → actuate — over 50 000
//! synthetic shards, with zero data-plane cost.
//!
//! Each shard is a benchmark-owned analytic [`CspBackend`]: a 2-operator
//! chain whose "measurements" are its true rates and the M/M/k sojourn of
//! its current allocation. Every window 5 % of the shards re-draw their
//! arrival rate in [0.7, 1.3) × base from the seed. The budget sits 1 %
//! above the fleet's Program 6 demand at set-up, so the gate's held-back
//! executors push the fleet into contention every few windows.
//!
//! A traced run also replays every window's inputs through the public
//! layer functions (the *replica*), checks that the replica's grants equal
//! the driver's bit for bit, and reports the part of the driver's window it
//! cannot attribute.

use super::set_up_repeatedly;
use crate::alloc::count_allocations;
use crate::decorators::{BackendClocks, TimedBackend};
use crate::report::{Ctx, RunResult};
use crate::schedule::drift;
use crate::stats::{fastest, mean, median, summarize};
use crate::trace;
use drs_core::decision::{self, DecisionInputs};
use drs_core::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use drs_core::fleet::{
    mmk_measured_sojourn, FleetDriver, FleetDriverConfig, FleetNegotiator, FleetShardSpec,
    ShardDemand, ShardPlacementInfo,
};
use drs_core::measurer::{Measurer, RawSample, SampleBuilder};
use drs_core::model::PerformanceModel;
use drs_core::placement::{FleetPlacementState, MachinePool};
use drs_core::scheduler::{self, Allocation, ScheduleError};
use drs_queueing::jackson::JacksonNetwork;
use drs_topology::ResourceProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SHARDS: usize = 50_000;
const MACHINES: usize = 64;
const T_MAX_SECS: f64 = 0.5;
const WINDOW_SECS: f64 = 1.0;
const WARMUP_WINDOWS: u64 = 2;
/// Windows run in set-up after the cold negotiate/place, so that measured
/// windows start inside the fleet's steady cycle.
const SETTLE_WINDOWS: u64 = 8;
const DRIFT_SHARE: f64 = 0.05;
/// Budget over the fleet's Program 6 demand at set-up.
const BUDGET_HEADROOM: f64 = 1.01;
/// Machine-pool capacity over the fleet's resource demand at set-up.
const POOL_HEADROOM: f64 = 1.3;
/// A shard's stability floor is checked once its rate has stood still this
/// long (α = 0.5 smoothing has then converged to < 0.5 % of a step).
const SMOOTHED_AFTER: u64 = 8;
/// In-force placements may overfill a machine by this share of its
/// capacity: a shard the gate holds keeps its old assignment for a window
/// while the plan has already given the room it was to vacate to another
/// (observed up to 0.3 %; `core.placement.overcommit_frac` reports it).
const OVERCOMMIT_TOLERANCE: f64 = 0.02;
const SETUP_REPS: usize = 3;

static BACKEND: BackendClocks = BackendClocks::new();

/// An analytic shard: reports its true rates and the M/M/k sojourn of the
/// allocation it runs; applies any plan at once.
#[derive(Debug, Clone)]
struct SyntheticShard {
    base_rate: f64,
    rate: f64,
    service_rate: [f64; 2],
    allocation: Vec<u32>,
}

impl SyntheticShard {
    fn sample_into(&self, window_secs: f64, out: &mut WindowSample) {
        out.external_rate = Some(self.rate);
        out.operators.clear();
        let mut sojourn = 0.0;
        for (mu, k) in self.service_rate.iter().zip(&self.allocation) {
            out.operators.push(OperatorSample {
                arrival_rate: Some(self.rate),
                service_rate: Some(*mu),
            });
            sojourn += mmk_measured_sojourn(self.rate, *mu, *k);
        }
        out.mean_sojourn = Some(sojourn);
        out.std_sojourn = None;
        out.completed = (self.rate * window_secs) as u64;
    }

    /// Whether the allocation keeps every operator's queue stable.
    fn is_stable(&self) -> bool {
        self.service_rate
            .iter()
            .zip(&self.allocation)
            .all(|(mu, &k)| f64::from(k) * mu > self.rate)
    }
}

impl CspBackend for SyntheticShard {
    fn backend_name(&self) -> &'static str {
        "synthetic"
    }
    fn operator_names(&self) -> Vec<String> {
        vec!["first".to_owned(), "second".to_owned()]
    }
    fn current_allocation(&self) -> Vec<u32> {
        self.allocation.clone()
    }
    fn current_allocation_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.allocation);
    }
    fn advance(&mut self, window_secs: f64) -> WindowSample {
        let mut out = WindowSample::default();
        self.sample_into(window_secs, &mut out);
        out
    }
    fn advance_into(&mut self, window_secs: f64, out: &mut WindowSample) {
        self.sample_into(window_secs, out);
    }
    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        self.allocation.clone_from(&plan.allocation);
        Ok(AppliedRebalance {
            allocation: plan.allocation.clone(),
            pause_secs: plan.pause_secs,
        })
    }
}

type Fleet = FleetDriver<TimedBackend<SyntheticShard>>;

/// A shard's own single-topology schedule, as `FleetDriver` computes it:
/// Program 6 for the target, Algorithm 1 on the whole budget when the
/// target cannot be met within it.
fn shard_demand(
    network: &JacksonNetwork,
    t_max: f64,
    k_max: u32,
) -> Result<Vec<u32>, ScheduleError> {
    match scheduler::min_processors_for_target(network, t_max, k_max) {
        Ok(a) => Ok(a.into_vec()),
        Err(ScheduleError::CapExceeded { .. } | ScheduleError::TargetUnreachable { .. }) => {
            scheduler::assign_processors(network, k_max).map(Allocation::into_vec)
        }
        Err(e) => Err(e),
    }
}

/// The generated fleet: shard specs plus what the replica and the checks
/// need to know about them.
struct Generated {
    specs: Vec<FleetShardSpec<TimedBackend<SyntheticShard>>>,
    infos: Vec<ShardPlacementInfo>,
    names: Vec<String>,
    config: FleetDriverConfig,
    pool: MachinePool,
    capacity: f64,
}

fn generate(seed: u64) -> Generated {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut specs = Vec::with_capacity(SHARDS);
    let mut infos = Vec::with_capacity(SHARDS);
    let mut names = Vec::with_capacity(SHARDS);
    let (mut demand, mut units) = (0u64, 0.0);
    for i in 0..SHARDS {
        // λ in [20, 80) tuples/s; offered load λ/µ in [0.5, 3) per
        // operator, so service times stay well inside Tmax.
        let base_rate = rng.gen_range(20.0..80.0);
        let service_rate = [
            base_rate / rng.gen_range(0.5..3.0),
            base_rate / rng.gen_range(0.5..3.0),
        ];
        // Start in the drift's own stationary distribution, running the
        // shard's Program 6 answer for the rate it starts with.
        let rate = base_rate * rng.gen_range(0.7..1.3);
        let network =
            JacksonNetwork::from_rates(rate, &[(rate, service_rate[0]), (rate, service_rate[1])])
                .expect("positive rates");
        let allocation = scheduler::min_processors_for_target(&network, T_MAX_SECS, 512)
            .expect("service times are far below Tmax")
            .into_vec();
        let per_executor = [rng.gen_range(0.5..1.5), rng.gen_range(0.5..1.5)];
        for (k, u) in allocation.iter().zip(per_executor) {
            demand += u64::from(*k);
            units += f64::from(*k) * u;
        }
        let info = ShardPlacementInfo {
            profiles: per_executor.map(ResourceProfile::uniform).to_vec(),
            edges: vec![(0, 1, 1.0)],
        };
        let name = format!("shard-{i:05}");
        let shard = SyntheticShard {
            base_rate,
            rate,
            service_rate,
            allocation,
        };
        specs.push(
            FleetShardSpec::new(name.clone(), T_MAX_SECS, TimedBackend::new(shard, &BACKEND))
                .with_placement(info.clone()),
        );
        infos.push(info);
        names.push(name);
    }
    let mut config = FleetDriverConfig::new((demand as f64 * BUDGET_HEADROOM) as u32);
    config.window_secs = WINDOW_SECS;
    config.warmup_windows = WARMUP_WINDOWS;
    config.record_timeline = false;
    let capacity = units / MACHINES as f64 * POOL_HEADROOM;
    let pool = MachinePool::uniform(MACHINES, ResourceProfile::uniform(capacity))
        .expect("positive capacity");
    Generated {
        specs,
        infos,
        names,
        config,
        pool,
        capacity,
    }
}

/// Per-phase wall time of one replica window, seconds.
#[derive(Debug, Clone, Copy, Default)]
struct ReplicaPhases {
    sample: f64,
    fit: f64,
    schedule: f64,
    negotiate: f64,
    decide: f64,
    place: f64,
    refits: usize,
}

/// The control window rebuilt from the public layer functions. Fed the
/// same inputs as the driver, it must reach the same grants.
struct Replica {
    config: FleetDriverConfig,
    infos: Vec<ShardPlacementInfo>,
    pool: MachinePool,
    builders: Vec<SampleBuilder>,
    measurers: Vec<Measurer>,
    raws: Vec<RawSample>,
    samples: Vec<WindowSample>,
    demand_epoch: Vec<u64>,
    demands: Vec<ShardDemand>,
    negotiator: FleetNegotiator,
    place: FleetPlacementState,
    slots: Vec<usize>,
    window: u64,
}

impl Replica {
    fn new(g: &Generated) -> Self {
        let mut place = FleetPlacementState::new();
        let slots = g.names.iter().map(|n| place.insert(n)).collect();
        Replica {
            config: g.config,
            infos: g.infos.clone(),
            pool: g.pool.clone(),
            builders: (0..SHARDS).map(|_| SampleBuilder::new()).collect(),
            measurers: (0..SHARDS)
                .map(|_| Measurer::new(2, g.config.smoothing).expect("valid smoothing"))
                .collect(),
            raws: (0..SHARDS)
                .map(|_| RawSample {
                    external_rate: 0.0,
                    operators: Vec::new(),
                    mean_sojourn: None,
                })
                .collect(),
            samples: vec![WindowSample::default(); SHARDS],
            demand_epoch: vec![u64::MAX; SHARDS],
            demands: Vec::new(),
            negotiator: FleetNegotiator::new(g.config.k_max),
            place,
            slots,
            window: 0,
        }
    }

    /// Replays the window the driver is about to run. `fleet` is read for
    /// each shard's rate and running allocation only. Returns `None` when a
    /// shard has no usable model (the replica cannot follow the driver
    /// there; the synthetic fleet never does).
    fn step(&mut self, fleet: &Fleet) -> Option<ReplicaPhases> {
        let mut p = ReplicaPhases::default();
        let shard = |i: usize| fleet.backend(i).inner();

        let t = Instant::now();
        for i in 0..SHARDS {
            shard(i).sample_into(self.config.window_secs, &mut self.samples[i]);
            if self.builders[i].build_into(&self.samples[i], &mut self.raws[i]) {
                let weight = self.builders[i].weight(self.config.stale_decay);
                self.measurers[i].observe_weighted(&self.raws[i], weight);
            }
        }
        p.sample = t.elapsed().as_secs_f64();

        let window = self.window;
        self.window += 1;
        if window < self.config.warmup_windows {
            return Some(p);
        }

        for i in 0..SHARDS {
            let epoch = self.measurers[i].epoch();
            if epoch == self.demand_epoch[i] {
                continue;
            }
            self.demand_epoch[i] = epoch;
            p.refits += 1;
            let t = Instant::now();
            let estimates = self.measurers[i].estimates()?;
            let model = PerformanceModel::new(&estimates.to_model_inputs()).ok()?;
            p.fit += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let desired = shard_demand(model.network(), T_MAX_SECS, self.config.k_max).ok()?;
            p.schedule += t.elapsed().as_secs_f64();
            let demand = ShardDemand {
                network: model.network().clone(),
                desired,
            };
            match self.demands.get_mut(i) {
                Some(slot) => slot.clone_from(&demand),
                // First negotiated window: every shard refits, in order.
                None => self.demands.push(demand),
            }
        }
        if self.demands.len() != SHARDS {
            return None;
        }

        let t = Instant::now();
        self.negotiator
            .negotiate_within_incremental(self.config.k_max, &self.demands)
            .ok()?;
        p.negotiate = t.elapsed().as_secs_f64();

        // The gate, consulted for every grant that would move its shard.
        let t = Instant::now();
        let grants = self.negotiator.grants();
        for (i, grant) in grants.iter().enumerate() {
            let current = &shard(i).allocation;
            let grant = &grant.allocation;
            if grant == current {
                continue;
            }
            let network = &self.demands[i].network;
            std::hint::black_box(decision::decide(
                &self.config.decision,
                &DecisionInputs {
                    current_estimate: network.expected_sojourn(current).unwrap_or(f64::INFINITY),
                    candidate_estimate: network.expected_sojourn(grant).unwrap_or(f64::INFINITY),
                    current_allocation: current.clone(),
                    candidate_allocation: grant.clone(),
                    pause_secs: self.config.pause_secs,
                    t_max: Some(T_MAX_SECS),
                    measured_sojourn: self.samples[i].mean_sojourn,
                },
            ));
        }
        p.decide = t.elapsed().as_secs_f64();

        // Placement of the granted allocations on the shared pool.
        let t = Instant::now();
        self.place.begin_window();
        self.place.sync_pool(&self.pool);
        for (i, grant) in grants.iter().enumerate() {
            let (slot, info) = (self.slots[i], &self.infos[i]);
            let target = &grant.allocation;
            let sample = &self.samples[i];
            if !info.request_matches(
                self.place.request(slot),
                target,
                sample,
                self.config.placement_rate_band,
            ) {
                info.request_into(self.place.touch(slot), target, sample);
            }
            self.place.mark_seen(slot);
        }
        self.place.replan().ok()?;
        p.place = t.elapsed().as_secs_f64();
        Some(p)
    }
}

struct Rig {
    fleet: Fleet,
    generated: Generated,
    replica: Option<Replica>,
    /// Replica and driver grants compared so far / found different.
    grant_checks: u64,
    grant_mismatches: u64,
    replica_lost: bool,
    /// Window at which each shard's rate last changed.
    rate_changed: Vec<u64>,
}

impl Rig {
    /// Applies window `w`'s seeded drift, then runs the window (and, when
    /// there is one, the replica before it). Returns the driver's step
    /// time, the heap allocations it made (counted only while tracing), and
    /// the replica's phase times.
    fn window(&mut self, seed: u64) -> (f64, u64, Option<ReplicaPhases>) {
        let w = self.fleet.completed_windows();
        let d = drift(seed, w, SHARDS, DRIFT_SHARE);
        for (&i, &factor) in d.shard.iter().zip(&d.factor) {
            let shard = self.fleet.backend_mut(i as usize).inner_mut();
            shard.rate = shard.base_rate * factor;
            self.rate_changed[i as usize] = w;
        }
        let phases = match &mut self.replica {
            Some(replica) if !self.replica_lost => {
                let phases = replica.step(&self.fleet);
                self.replica_lost = phases.is_none();
                phases
            }
            _ => None,
        };
        let t = Instant::now();
        let allocs = if trace::enabled() {
            count_allocations(|| self.fleet.step()).1
        } else {
            self.fleet.step();
            0
        };
        let took = t.elapsed().as_secs_f64();
        if let (Some(replica), Some(_)) = (&self.replica, &phases) {
            if w >= WARMUP_WINDOWS {
                self.grant_checks += 1;
                if replica.negotiator.grants() != self.fleet.negotiator().grants() {
                    self.grant_mismatches += 1;
                }
            }
        }
        (took, allocs, phases)
    }
}

/// Everything before the first measured window: generating and building
/// the fleet, the warm-up windows, the first cold negotiate and placement,
/// and the windows that settle the fleet into its steady cycle.
fn set_up(ctx: &Ctx, with_replica: bool) -> Rig {
    let mut generated = generate(ctx.seed);
    let replica = with_replica.then(|| Replica::new(&generated));
    let specs = std::mem::take(&mut generated.specs);
    let mut fleet = FleetDriver::new(generated.config, specs).expect("a non-empty valid fleet");
    fleet.set_machine_pool(generated.pool.clone());
    let mut rig = Rig {
        fleet,
        generated,
        replica,
        grant_checks: 0,
        grant_mismatches: 0,
        replica_lost: false,
        rate_changed: vec![0; SHARDS],
    };
    for _ in 0..WARMUP_WINDOWS + 1 + SETTLE_WINDOWS {
        rig.window(ctx.seed);
    }
    rig
}

pub fn run(ctx: &Ctx) -> RunResult {
    let mut r = RunResult::new("fleet_window", ctx);
    trace::set_enabled(false);

    // Only the rig that runs carries a replica.
    let (mut rig, setup_s) =
        set_up_repeatedly(SETUP_REPS, |runs| set_up(ctx, ctx.traced && runs), drop);
    let k_max = u64::from(rig.generated.config.k_max);

    for clock in [
        &BACKEND.advance,
        &BACKEND.apply,
        &BACKEND.current_allocation,
    ] {
        clock.take();
    }
    let (solver_before, full_before) = (
        rig.fleet.placement_solver_calls(),
        rig.fleet.placement_full_solves(),
    );
    let mut step_ms = Vec::new();
    let mut traced_from = None;
    let mut attributed = Vec::new();
    let mut allocs = Vec::new();
    let mut phases_ms: [Vec<f64>; 8] = Default::default();
    let mut refits = Vec::new();
    let (mut rebalanced, mut gated) = (Vec::new(), Vec::new());
    let (mut shard_errors, mut window_errors, mut over_budget, mut unstable) =
        (0u64, 0u64, 0u64, 0u64);

    let begun = Instant::now();
    while begun.elapsed().as_secs_f64() < ctx.seconds {
        // A traced run measures its first third with the decorators idle.
        if ctx.traced && traced_from.is_none() && begun.elapsed().as_secs_f64() >= ctx.seconds / 3.0
        {
            trace::set_enabled(true);
            traced_from = Some(step_ms.len());
        }
        let w = rig.fleet.completed_windows();
        let start_ns = trace::now_ns();
        let (took, window_allocs, phases) = rig.window(ctx.seed);
        step_ms.push(took * 1e3);

        if trace::enabled() {
            let end_ns = trace::now_ns();
            let (_, advance_ns) = BACKEND.advance.take();
            let (_, current_ns) = BACKEND.current_allocation.take();
            let (_, apply_ns) = BACKEND.apply.take();
            let step_ns = (took * 1e9) as u64;
            let step_start = end_ns - step_ns;
            let root = trace::record(0, "fleet.step", step_start, end_ns, w);
            // The driver advances every shard first and actuates last;
            // the per-shard calls are summed into one child span each.
            let mut cursor = step_start;
            for (name, ns) in [
                ("backend.advance", advance_ns),
                ("backend.current_allocation", current_ns),
            ] {
                trace::record(root, name, cursor, cursor + ns, w);
                cursor += ns;
            }
            trace::record(root, "backend.apply", end_ns - apply_ns, end_ns, w);
            allocs.push(window_allocs as f64);
            // Reading the backend (its window sample and its running
            // allocation) is one layer; actuating it is another.
            let backend_ms = [advance_ns + current_ns, apply_ns].map(|ns| ns as f64 / 1e6);
            if let Some(p) = phases {
                let replica_ms =
                    [p.sample, p.fit, p.schedule, p.negotiate, p.decide, p.place].map(|s| s * 1e3);
                let mut replica_cursor = start_ns;
                let replica_root = trace::record(0, "replica.window", start_ns, step_start, w);
                for (name, ms) in [
                    "replica.sample",
                    "replica.fit",
                    "replica.schedule",
                    "replica.negotiate",
                    "replica.decide",
                    "replica.place",
                ]
                .into_iter()
                .zip(replica_ms)
                {
                    let ns = (ms * 1e6) as u64;
                    trace::record(replica_root, name, replica_cursor, replica_cursor + ns, w);
                    replica_cursor += ns;
                }
                for (slot, ms) in phases_ms
                    .iter_mut()
                    .zip(backend_ms.into_iter().chain(replica_ms))
                {
                    slot.push(ms);
                }
                attributed.push(backend_ms.iter().sum::<f64>() + replica_ms.iter().sum::<f64>());
                refits.push(p.refits as f64);
            }
        }

        // Outputs of the window against the fleet's invariants.
        let last = rig.fleet.last_window();
        window_errors += u64::from(last.error.is_some());
        over_budget += u64::from(last.total_granted > k_max);
        shard_errors += last.shards.iter().filter(|s| s.error.is_some()).count() as u64;
        rebalanced.push(last.shards.iter().filter(|s| s.rebalanced).count() as f64);
        gated.push(last.shards.iter().filter(|s| s.gated).count() as f64);
        for i in 0..SHARDS {
            if w >= rig.rate_changed[i] + SMOOTHED_AFTER
                && !rig.fleet.backend(i).inner().is_stable()
            {
                unstable += 1;
            }
        }
    }
    trace::set_enabled(false);
    let windows = step_ms.len();
    let total_secs: f64 = step_ms.iter().sum::<f64>() / 1e3;

    // Machine usage of the placements in force, against capacity.
    let mut usage = vec![0.0f64; MACHINES];
    let mut unplaced = 0usize;
    for i in 0..SHARDS {
        match rig.fleet.shard_placement(i) {
            None => unplaced += 1,
            Some(p) => {
                for (total, used) in usage
                    .iter_mut()
                    .zip(p.usage(&rig.generated.infos[i].profiles))
                {
                    *total += used.cpu;
                }
            }
        }
    }
    let peak_usage = usage.iter().copied().fold(0.0, f64::max);
    let overcommit = (peak_usage / rig.generated.capacity - 1.0).max(0.0);

    r.attempted = (SHARDS * windows) as u64;
    r.failed = shard_errors + window_errors * SHARDS as u64;
    r.set("setup_s", fastest(&setup_s));
    r.set("work_per_s", r.attempted as f64 / total_secs);
    r.set("latency_ms", median(&step_ms));
    r.check(
        "grants within the budget",
        over_budget == 0,
        format!("{over_budget} of {windows} windows granted more than Kmax = {k_max}"),
    );
    r.check(
        "no window or shard error",
        window_errors == 0 && shard_errors == 0,
        format!("{window_errors} window errors, {shard_errors} shard errors"),
    );
    r.check(
        "settled shards at or above their stability floor",
        unstable == 0,
        format!("{unstable} shard-windows below the floor {SMOOTHED_AFTER}+ windows after a rate change"),
    );
    r.check(
        "placements within machine capacity",
        unplaced == 0 && overcommit <= OVERCOMMIT_TOLERANCE,
        format!(
            "{unplaced} shards unplaced; fullest machine {peak_usage:.1} of {:.1} (tolerance {:.0} %)",
            rig.generated.capacity,
            OVERCOMMIT_TOLERANCE * 100.0
        ),
    );

    if ctx.traced {
        let from = traced_from.unwrap_or(windows);
        let (off, on) = step_ms.split_at(from);
        let tail = summarize(on, 95);
        r.check(
            "replica grants equal the driver's",
            !rig.replica_lost && rig.grant_mismatches == 0 && rig.grant_checks > 0,
            format!(
                "{} of {} negotiated windows differ (replica lost: {})",
                rig.grant_mismatches, rig.grant_checks, rig.replica_lost
            ),
        );
        r.set("core.fleet.step_ms", tail.median);
        r.set("core.fleet.window_tail_ms", tail.tail);
        r.set("core.fleet.window_tail_pct", f64::from(tail.tail_pct));
        r.set("core.fleet.windows", on.len() as f64);
        for (name, values) in [
            "core.fleet.advance_ms",
            "core.fleet.actuate_ms",
            "core.fleet.sample_ms",
            "core.fleet.fit_ms",
            "core.fleet.schedule_ms",
            "core.fleet.negotiate_ms",
            "core.fleet.decide_ms",
            "core.placement.replan_ms",
        ]
        .into_iter()
        .zip(&phases_ms)
        {
            r.set(name, median(values));
        }
        let residual: Vec<f64> = on.iter().zip(&attributed).map(|(s, a)| s - a).collect();
        r.set("core.fleet.unattributed_ms", median(&residual));
        r.set("core.fleet.refit_shards", mean(&refits));
        r.set("core.fleet.allocs_per_window", median(&allocs));
        r.set("core.fleet.rebalanced_shards", mean(&rebalanced));
        r.set("core.fleet.gated_shards", mean(&gated));
        r.set(
            "core.placement.solver_calls",
            (rig.fleet.placement_solver_calls() - solver_before) as f64 / windows.max(1) as f64,
        );
        r.set("core.placement.overcommit_frac", overcommit);
        r.set(
            "core.placement.full_solves",
            (rig.fleet.placement_full_solves() - full_before) as f64,
        );
        r.set(
            "bench.trace_overhead_frac",
            median(on) / median(off).max(1e-9) - 1.0,
        );
        crate::probes::run(&mut r);
    }
    r
}
