//! The fleet control loop: [`FleetDriver`] and the nine phases of its window.

use super::negotiator::FleetNegotiator;
use super::scratch::{FleetScratch, Phase, PhaseClock, ShardFlags};
use super::shard::{self, ShardRow, ShardState};
use super::{executor_total, slot_u32, FleetDriverConfig, FleetDriverError, FleetShardSpec};
use super::{FleetWindow, ShardPoint, WINDOW_PHASES};
use crate::decision::{self, DecisionView};
use crate::driver::{CspBackend, RebalancePlan};
use crate::placement::{MachinePool, Placement};
use std::sync::Arc;
use std::time::Duration;

/// The fleet control loop: one DRS loop per shard, contention resolved
/// centrally each window by a [`FleetNegotiator`].
///
/// See the [module docs](super) for the scheme, the degraded-channel
/// contract, and a runnable example.
#[derive(Debug, Clone)]
pub struct FleetDriver<B: CspBackend> {
    pub(super) shards: Vec<ShardState<B>>,
    /// Shared copy-on-write: a clone of the driver clones the `Arc`, not
    /// the negotiator's warm state; [`Arc::make_mut`] at the negotiate site
    /// deep-clones lazily, only when a driver that still shares the state
    /// with a clone next negotiates.
    pub(super) negotiator: Arc<FleetNegotiator>,
    config: FleetDriverConfig,
    machine_pool: Option<MachinePool>,
    wasted_grants: u64,
    pub(super) scratch: FleetScratch,
    timeline: Vec<FleetWindow>,
    /// Windows completed so far — the window counter even when
    /// [`FleetDriverConfig::record_timeline`] keeps `timeline` empty.
    completed_windows: u64,
    /// The most recent window's record, maintained in place (no per-window
    /// allocation in steady state).
    last_window: FleetWindow,
    /// A shard joined or left since the last record: indices may have
    /// shifted under the names in `last_window`, so the next window is
    /// full and records every name afresh.
    pub(super) churned: bool,
    /// [`FleetDriver::set_machine_pool`] ran since the last placement
    /// phase: the next one presents every shard.
    pool_changed: bool,
    /// Wall time of each phase of the last window ([`WINDOW_PHASES`]).
    phase_times: [Duration; WINDOW_PHASES.len()],
}

impl<B: CspBackend> FleetDriver<B> {
    /// Creates a fleet driver over `shards`.
    ///
    /// # Errors
    ///
    /// * [`FleetDriverError::NoShards`] — empty shard list.
    /// * [`FleetDriverError::InvalidWindow`] /
    ///   [`FleetDriverError::InvalidTarget`] — non-positive or non-finite
    ///   window length or latency target.
    /// * [`FleetDriverError::NoOperators`] — a backend exposes no bolts.
    /// * [`FleetDriverError::Smoothing`] — invalid smoothing parameters.
    pub fn new(
        config: FleetDriverConfig,
        shards: Vec<FleetShardSpec<B>>,
    ) -> Result<Self, FleetDriverError> {
        if shards.is_empty() {
            return Err(FleetDriverError::NoShards);
        }
        if !config.window_secs.is_finite() || config.window_secs <= 0.0 {
            return Err(FleetDriverError::InvalidWindow(config.window_secs));
        }
        let mut states = Vec::with_capacity(shards.len());
        for spec in shards {
            states.push(ShardState::new(&config, spec)?);
        }
        Ok(FleetDriver {
            shards: states,
            negotiator: Arc::new(FleetNegotiator::new(config.k_max)),
            config,
            machine_pool: None,
            wasted_grants: 0,
            scratch: FleetScratch::default(),
            timeline: Vec::new(),
            completed_windows: 0,
            last_window: FleetWindow {
                window: 0,
                contended: false,
                total_granted: 0,
                shards: Vec::new(),
                error: None,
            },
            // The first window records every name.
            churned: true,
            pool_changed: false,
            phase_times: [Duration::ZERO; WINDOW_PHASES.len()],
        })
    }

    /// Joins a new topology to the running fleet (churn). The shard starts
    /// with fresh measurement state: until its model warms up it reserves
    /// its current allocation out of the budget like any unmodeled shard,
    /// then negotiates normally. Returns the new shard's index (indices of
    /// existing shards are unchanged by a join).
    ///
    /// # Errors
    ///
    /// The same per-shard validation as [`FleetDriver::new`]:
    /// [`FleetDriverError::InvalidTarget`] /
    /// [`FleetDriverError::NoOperators`] / [`FleetDriverError::Smoothing`].
    pub fn add_shard(&mut self, spec: FleetShardSpec<B>) -> Result<usize, FleetDriverError> {
        let state = ShardState::new(&self.config, spec)?;
        self.shards.push(state);
        self.churned = true;
        Ok(self.shards.len() - 1)
    }

    /// Removes shard `i` from the fleet (graceful leave), returning its
    /// backend. Its executors stop counting against the budget from the
    /// next window, so the freed capacity is re-offered on the next
    /// negotiation round. Indices of later shards shift down by one —
    /// correlate timelines across churn by [`ShardPoint::name`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the fleet would become empty.
    pub fn remove_shard(&mut self, i: usize) -> B {
        assert!(
            self.shards.len() > 1,
            "a fleet needs at least one shard; cannot remove the last one"
        );
        let state = self.shards.remove(i);
        self.churned = true;
        // The shard's packed demand leaves with it; later slots close up.
        if i < self.scratch.demand_idx.len() {
            if let Some(slot) = self.scratch.demand_idx.remove(i) {
                self.scratch.demands.remove(slot as usize);
                for later in self.scratch.demand_idx[i..].iter_mut().flatten() {
                    *later -= 1;
                }
            }
            self.scratch.index_demands();
        }
        state.backend
    }

    /// The fleet timeline recorded so far (empty when
    /// [`FleetDriverConfig::record_timeline`] is off).
    pub fn timeline(&self) -> &[FleetWindow] {
        &self.timeline
    }

    /// The most recent window's record — available even when the timeline
    /// is not being recorded. Meaningless before the first step.
    pub fn last_window(&self) -> &FleetWindow {
        &self.last_window
    }

    /// Windows completed so far (the timeline length when recording).
    pub fn completed_windows(&self) -> u64 {
        self.completed_windows
    }

    /// Whether shard `i`'s liveness lease is currently expired (see
    /// [`FleetDriverConfig::lease_windows`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[cfg(test)]
    pub(crate) fn shard_dead(&self, i: usize) -> bool {
        self.shards[i].dead
    }

    /// The negotiator (budget introspection).
    pub fn negotiator(&self) -> &FleetNegotiator {
        &self.negotiator
    }

    /// Wall time of each phase of the last window, in the order of
    /// [`WINDOW_PHASES`] (zero for the phases a warm-up window skips). The
    /// driver clocks every window: one clock read per phase boundary.
    pub fn phase_times(&self) -> &[Duration; WINDOW_PHASES.len()] {
        &self.phase_times
    }

    /// Installs a shared machine pool: from the next window on, the driver
    /// re-solves the fleet's machine assignment every round (over the live
    /// shards that declared [`ShardPlacementInfo`](super::ShardPlacementInfo))
    /// and threads it through the control plane — a shard that rebalances carries its assignment
    /// in [`RebalancePlan::placement`], and a shard whose executor counts
    /// are unchanged but whose assignment moved receives it via
    /// [`CspBackend::apply_placement`].
    pub fn set_machine_pool(&mut self, pool: MachinePool) {
        self.machine_pool = Some(pool);
        self.pool_changed = true;
    }

    /// The shared machine pool, when one is installed.
    #[cfg(test)]
    pub(crate) fn machine_pool(&self) -> Option<&MachinePool> {
        self.machine_pool.as_ref()
    }

    /// Shard `i`'s machine assignment currently in force, when the fleet
    /// shares a machine pool and the shard declared placement metadata.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_placement(&self, i: usize) -> Option<&Placement> {
        self.shards[i].placement.as_ref()
    }

    /// Cumulative per-shard greedy solves the warm placement state has
    /// performed (see [`crate::placement::FleetPlacementState::solver_calls`]).
    /// A settled window adds zero.
    pub fn placement_solver_calls(&self) -> u64 {
        self.scratch.place.solver_calls()
    }

    /// Cumulative batch re-solves of the whole fleet's placement — the
    /// first placement-enabled window, pool changes, drift-triggered
    /// anchor solves, and explicit invalidations.
    pub fn placement_full_solves(&self) -> u64 {
        self.scratch.place.full_solves()
    }

    /// Grant/refuse round-trips wasted at *actuation* time: a negotiated
    /// grant discarded by the shard-side decision gate, or a grow deferred
    /// because a refused shrink left the realized fleet total too high.
    /// The gate-aware negotiation pass exists to keep this counter flat —
    /// refusals are discovered while the budget is still being arbitrated,
    /// so the surplus lands with a shard that will actually actuate it.
    pub fn wasted_grants(&self) -> u64 {
        self.wasted_grants
    }

    /// The configuration.
    pub fn config(&self) -> &FleetDriverConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard names, in shard index order.
    pub fn shard_names(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.name.as_str()).collect()
    }

    /// Shard `i`'s backend.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn backend(&self, i: usize) -> &B {
        &self.shards[i].backend
    }

    /// Mutable access to shard `i`'s backend (e.g. to inject workload
    /// drift mid-run).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn backend_mut(&mut self, i: usize) -> &mut B {
        &mut self.shards[i].backend
    }

    /// Runs `windows` fleet windows (shards advanced in index order),
    /// returning the new timeline entries.
    pub fn run_windows(&mut self, windows: u64) -> &[FleetWindow] {
        let first_new = self.timeline.len();
        for _ in 0..windows {
            self.step();
        }
        &self.timeline[first_new..]
    }

    /// Runs one fleet window, advancing shards in index order.
    pub fn step(&mut self) -> &FleetWindow {
        self.run_window(0..self.shards.len())
    }

    /// Runs one fleet window, advancing the shard backends in the given
    /// order. Because every shard runs on its own isolated clock, the
    /// interleaving must not affect any shard's measurements — the
    /// determinism tests lock this in.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..shard_count()`.
    pub fn step_with_order(&mut self, order: &[usize]) -> &FleetWindow {
        let n = self.shards.len();
        assert_eq!(order.len(), n, "order must cover every shard exactly once");
        let seen = &mut self.scratch.seen;
        seen.clear();
        seen.resize(n, false);
        for &i in order {
            assert!(
                i < n && !seen[i],
                "order must be a permutation of 0..{n}, got {order:?}"
            );
            seen[i] = true;
        }
        self.run_window(order.iter().copied())
    }

    /// One fleet window over `order`, a permutation of the shard indices:
    /// the nine [`WINDOW_PHASES`] in order, each clocked under its name (see
    /// the [module docs](super#the-control-window)). A window is **full** —
    /// every shard listed, every per-shard buffer re-sized — after a shard
    /// joined or left, on the first negotiated window, or on a new machine
    /// pool.
    fn run_window(&mut self, order: impl Iterator<Item = usize>) -> &FleetWindow {
        let n = self.shards.len();
        let mut clock = PhaseClock::start();
        // The scratch buffers live on the driver so the loop allocates
        // nothing per shard in steady state; taken out for the duration of
        // the step to keep the borrow checker happy, put back at the end.
        let mut scratch = std::mem::take(&mut self.scratch);
        let window = self.completed_windows;
        let negotiating = window >= self.config.warmup_windows;
        let placing = negotiating && self.machine_pool.is_some();
        let full = self.churned
            || (negotiating && window == self.config.warmup_windows)
            || (placing && self.pool_changed);
        scratch.reset(n, full);
        self.last_window.shards.resize_with(n, || ShardPoint {
            name: String::new(),
            dead: false,
            mean_sojourn_ms: None,
            completed: 0,
            allocation: Vec::new(),
            demand: None,
            capped: false,
            rebalanced: false,
            gated: false,
            error: None,
        });

        let mut fleet_error = None;
        let mut contended = false;
        let (live_total, reserved) = self.pass(&mut scratch, order, negotiating);
        clock.lap(Phase::Pass);
        if negotiating {
            let budget = self.negotiate(&mut scratch, reserved, &mut fleet_error);
            clock.lap(Phase::Negotiate);
            if scratch.negotiated_ok {
                contended = self.gate_aware_pass(&mut scratch, budget);
            }
            clock.lap(Phase::Gate);
            if placing {
                self.present_placements(&mut scratch, full);
                self.pool_changed = false;
                clock.lap(Phase::Present);
                self.replan_placements(&mut scratch, &mut fleet_error);
                clock.lap(Phase::Replan);
            }
            self.order_actuations(&mut scratch);
            clock.lap(Phase::Order);
            self.actuate(&mut scratch, live_total, contended);
            clock.lap(Phase::Actuate);
            self.placement_moves(&mut scratch);
            clock.lap(Phase::Moves);
        }

        self.last_window.window = window;
        self.last_window.contended = contended;
        self.last_window.error = fleet_error;
        let failed = negotiating && !scratch.negotiated_ok;
        self.record(&mut scratch, full, failed);
        #[cfg(debug_assertions)]
        self.audit_skipped(&scratch, negotiating);
        for idx in 0..scratch.visit.len() {
            let i = scratch.visit[idx];
            scratch.listed[i] = false;
        }
        clock.lap(Phase::Record);
        self.phase_times = clock.times;
        self.completed_windows += 1;
        self.scratch = scratch;
        if self.config.record_timeline {
            self.timeline.push(self.last_window.clone());
            self.timeline.last().expect("just pushed")
        } else {
            &self.last_window
        }
    }

    /// The `pass` phase: [`shard::pass`] over every shard, in the caller's
    /// `order`, each on its own row of the window buffers. Returns the
    /// executors in force on live shards (a dead shard's are ghosts) and,
    /// of those, the ones on shards without a usable model: they are
    /// reserved out of the budget before the modeled shards negotiate.
    fn pass(
        &mut self,
        scratch: &mut FleetScratch,
        order: impl Iterator<Item = usize>,
        negotiating: bool,
    ) -> (u64, u64) {
        let (mut live_total, mut reserved) = (0u64, 0u64);
        for i in order {
            let row = ShardRow {
                sample: &mut scratch.samples[i],
                point: &mut self.last_window.shards[i],
                demand: scratch.demand_idx[i].map(|slot| &mut scratch.demands[slot as usize]),
            };
            let shard = &mut self.shards[i];
            let out = shard::pass(shard, row, &self.config, negotiating, &mut scratch.pass);
            if out.listed {
                scratch.list(i);
            }
            live_total += out.live;
            reserved += out.reserved;
            if let Some(demand) = out.remodel {
                scratch.remodeled.push((i, demand));
            }
        }
        (live_total, reserved)
    }

    /// The `negotiate` phase: re-pack the demands, then arbitrate the
    /// budget left after the `reserved` executors once — warm-started, so
    /// per-window cost is O(changed slots + executor moves), with zero heap
    /// allocations when nothing changed. Returns that budget; a failed
    /// negotiation leaves its message in `fleet_error`.
    fn negotiate(
        &mut self,
        scratch: &mut FleetScratch,
        reserved: u64,
        fleet_error: &mut Option<String>,
    ) -> u32 {
        // Keep the packed demands in shard index order. Every shard from
        // the first re-packed one on has a new slot, so its negotiated
        // state is re-derived: each is visited.
        if let Some(first) = scratch.remodeled.iter().map(|&(i, _)| i).min() {
            scratch.repack_demands();
            for i in first..self.shards.len() {
                scratch.list(i);
            }
        }
        // Shards without a usable model keep their current allocation;
        // their executors are reserved out of the budget before the others
        // negotiate. Dead shards reserve nothing — lease expiry is
        // precisely the signal that their grants are reclaimed and
        // re-offered.
        let budget = u32::try_from(u64::from(self.config.k_max).saturating_sub(reserved))
            .expect("reserved budget is clamped below k_max, which fits in u32");
        if !scratch.demands.is_empty() {
            // `make_mut` only clones when a clone of the driver still
            // shares the warm state; a driver that never branched mutates
            // in place with no per-window cost.
            let negotiator = Arc::make_mut(&mut self.negotiator);
            let outcome = negotiator.negotiate_within_incremental(budget, &scratch.demands);
            // What the call changed is listed even when it failed: a
            // desire it re-derived first is not reported again.
            for &slot in &negotiator.changed {
                scratch.list(scratch.demand_shard[slot as usize]);
            }
            match outcome {
                Ok(()) => {
                    scratch.negotiated_ok = true;
                    for &slot in &negotiator.off_desire {
                        scratch.list(scratch.demand_shard[slot as usize]);
                    }
                }
                Err(e) => *fleet_error = Some(e.to_string()),
            }
        }
        scratch.visit.sort_unstable();
        budget
    }

    /// The `order` phase: the listed shards whose grant differs from what
    /// they run, shrinks first — the movers that do not grow in index
    /// order, then the growers in index order. Distinct from the caller's
    /// `order` (the measurement interleaving).
    fn order_actuations(&self, scratch: &mut FleetScratch) {
        for idx in 0..scratch.visit.len() {
            let i = scratch.visit[idx];
            let Some(grant) = scratch.grant(&self.negotiator, i) else {
                continue;
            };
            let current = &self.shards[i].allocation;
            if grant == current {
                continue;
            }
            if executor_total(grant) > executor_total(current) {
                scratch.growers.push(i);
            } else {
                scratch.actuation_order.push(i);
            }
        }
        scratch.actuation_order.append(&mut scratch.growers);
    }

    /// The `actuate` phase: rebalance every ordered shard — shrinks before
    /// grows, and every grow is re-checked against the *realized* fleet
    /// total first (`live_total` at the start), so a refused shrink (e.g. a
    /// shard still mid-pause) can never combine with a successful grow to
    /// push the fleet over `Kmax` against a real pool. Dead shards'
    /// executors are ghosts (the machine is gone): they neither occupy the
    /// pool nor block grows.
    fn actuate(&mut self, scratch: &mut FleetScratch, live_total: u64, contended: bool) {
        let window = self.completed_windows;
        let mut fleet_total = live_total;
        for slot in 0..scratch.actuation_order.len() {
            let i = scratch.actuation_order[slot];
            let grant = scratch
                .grant(&self.negotiator, i)
                .expect("only shards with a grant are ordered");
            let target_total = executor_total(grant);
            let current_total = executor_total(&self.shards[i].allocation);
            // Channel in backoff after an unacknowledged actuation:
            // hold this window's command instead of spamming the
            // (evidently degraded) control channel.
            if let Some(deferral) = self.shards[i].actuator.deferred(window) {
                scratch.errors[i] = Some(deferral);
                continue;
            }
            // Per-shard cost/benefit gate (paper App. B-B), now a
            // safety net behind the gate-aware negotiation pass:
            // anything refused here is a wasted grant/refuse
            // round-trip the pass failed to predict. Contended and
            // promoted shrinks bypass the gate — capped shards are
            // starving and the freed capacity must actually flow.
            let urgent_shrink =
                (contended || scratch.flags[i].urgent) && target_total < current_total;
            if !urgent_shrink && self.gate_refuses(i, grant, scratch) {
                scratch.flags[i].gated = true;
                self.wasted_grants += 1;
                continue;
            }
            if target_total > current_total
                && fleet_total - current_total + target_total > u64::from(self.config.k_max)
            {
                // An earlier shrink was refused and its executors are
                // still in force: defer this grow to a later window
                // rather than over-commit the pool.
                scratch.errors[i] = Some(format!(
                    "grow to {} deferred: a refused shrink left the fleet at {} of {} executors",
                    target_total, fleet_total, self.config.k_max
                ));
                self.wasted_grants += 1;
                continue;
            }
            // The grant leaves the negotiator's warm state by clone
            // exactly once, here — on a window that actually moves
            // this shard.
            let planned = scratch.planned_slots[i].take();
            let mut plan = RebalancePlan {
                allocation: grant.to_vec(),
                pause_secs: self.config.pause_secs,
                epoch: 0,
                placement: planned.map(|slot| scratch.place.placement(slot as usize).clone()),
            };
            let shard = &mut self.shards[i];
            match shard.actuator.send(&mut shard.backend, window, &mut plan) {
                Ok(applied) => {
                    scratch.flags[i].rebalanced = true;
                    let applied_total = executor_total(&applied.allocation);
                    fleet_total = fleet_total - current_total + applied_total;
                    // The machine assignment rode the rebalance plan;
                    // it is in force only if the backend actually put
                    // the matching executor counts in force.
                    if let (Some(p), Some(slot)) = (plan.placement, planned) {
                        if p.allocation_matches(&applied.allocation) {
                            shard.placement = Some(p);
                            shard.placement_id = scratch.place.solve_id(slot as usize);
                        }
                    }
                    // A backend may adjust what it puts in force (and a
                    // simulator defers the swap until its pause ends):
                    // the timeline must carry the allocation the
                    // rebalance put in force, as `DrsDriver` does —
                    // otherwise a contended window would pair this
                    // round's demand/capped flags with last round's
                    // allocations.
                    shard.allocation = applied.allocation;
                }
                // The backend is believed to keep its previous
                // allocation; the freed/claimed capacity is re-offered
                // next window.
                Err(e) => scratch.errors[i] = Some(e.to_string()),
            }
        }
    }

    /// The `moves` phase: placement-only moves. A shard whose executor
    /// counts did not change this window can still need its machine
    /// assignment refreshed (fleet-wide traffic shifted the shared pool).
    /// Those assignments go through the dedicated control-plane call
    /// instead of a full rebalance. A shard whose warm slot was not
    /// re-solved since its assignment went in force is skipped on the
    /// solve id alone; only a re-solved one pays the cell comparison (a
    /// re-solve often reproduces the assignment, and then sends nothing).
    fn placement_moves(&mut self, scratch: &mut FleetScratch) {
        for idx in 0..scratch.visit.len() {
            let i = scratch.visit[idx];
            if scratch.flags[i].rebalanced {
                continue;
            }
            let Some(slot) = scratch.planned_slots[i].take().map(|s| s as usize) else {
                continue;
            };
            let id = scratch.place.solve_id(slot);
            let shard = &mut self.shards[i];
            if shard.dead || shard.placement_id == id {
                continue;
            }
            let p = scratch.place.placement(slot);
            if shard.placement.as_ref() == Some(p) {
                shard.placement_id = id;
                continue;
            }
            // A deferred or refused grant leaves the assignment solved
            // for an allocation the backend never adopted: drop it and
            // re-solve next window. (Not rebalanced this window, so
            // the cached allocation is still what the backend runs;
            // the shard is gated or errored, so it stays unsettled.)
            if !p.allocation_matches(&shard.allocation) {
                continue;
            }
            match shard.backend.apply_placement(p) {
                Ok(()) => {
                    shard.placement = Some(p.clone());
                    shard.placement_id = id;
                }
                Err(e) => {
                    if scratch.errors[i].is_none() && shard.demand_error.is_none() {
                        scratch.errors[i] = Some(format!("placement: {e}"));
                    }
                }
            }
        }
    }

    /// The `record` phase: write the visited shards into `last_window` in
    /// place (steady state allocates nothing) — the allocation in force,
    /// the one a rebalance applied where one fired this window. Each
    /// visited shard's flags are cleared here, and the ones it leaves
    /// unsettled (every shard, when `failed`: the negotiation did) open
    /// the next window's change list.
    fn record(&mut self, scratch: &mut FleetScratch, full: bool, failed: bool) {
        // While nobody joined or left, every point already carries its
        // shard's name.
        let rename = std::mem::take(&mut self.churned);
        // Live executors only: dead shards' grants are reclaimed. Kept as
        // a running sum, corrected for the shards whose record changes.
        let mut total_granted = if full {
            0
        } else {
            self.last_window.total_granted
        };
        for idx in 0..scratch.visit.len() {
            let i = scratch.visit[idx];
            let shard = &self.shards[i];
            let point = &mut self.last_window.shards[i];
            if rename {
                point.name.clone_from(&shard.name);
            }
            if !full && !point.dead {
                total_granted -= executor_total(&point.allocation);
            }
            let revived_or_died = point.dead != shard.dead;
            point.dead = shard.dead;
            point.allocation.clone_from(&shard.allocation);
            point.demand = scratch.demand_idx[i]
                .map(|slot| executor_total(&scratch.demands[slot as usize].desired));
            let flags = std::mem::take(&mut scratch.flags[i]);
            point.capped = flags.capped;
            point.rebalanced = flags.rebalanced;
            point.gated = flags.gated;
            // A standing refit error is copied into the record's own buffer
            // (allocation-free once it holds the message).
            match scratch.errors[i].take() {
                Some(e) => point.error = Some(e),
                None => point.error.clone_from(&shard.demand_error),
            }
            if !point.dead {
                total_granted += executor_total(&point.allocation);
            }
            // Every shard that was ordered to actuate ends rebalanced,
            // gated or errored, so the flags also cover "its grant is not
            // what it runs" and "its assignment is not in force".
            if failed || revived_or_died || flags != ShardFlags::default() || point.error.is_some()
            {
                scratch.carry.push(i);
            }
            scratch.planned_slots[i] = None;
        }
        self.last_window.total_granted = total_granted;
    }

    /// Debug builds: checks after the window that every shard it did not
    /// visit was skippable — it runs its grant, is not gated, capped,
    /// urgent or errored, its placement request still matches its inputs
    /// and its assignment is in force, and its record is what a visit
    /// would have written. Allocation-free, so the zero-allocation pins
    /// run through it.
    #[cfg(debug_assertions)]
    fn audit_skipped(&self, scratch: &FleetScratch, negotiating: bool) {
        for (i, shard) in self.shards.iter().enumerate() {
            if scratch.listed[i] {
                continue;
            }
            let current = &shard.allocation;
            let grant = scratch.grant(&self.negotiator, i);
            assert!(
                grant.is_none_or(|g| g == current),
                "window {}: skipped shard {i} runs {current:?}, granted {grant:?}",
                self.last_window.window
            );
            assert!(
                scratch.flags[i] == ShardFlags::default() && scratch.planned_slots[i].is_none(),
                "window {}: skipped shard {i} carries a flag or a planned slot",
                self.last_window.window
            );
            assert!(scratch.errors[i].is_none() && shard.demand_error.is_none());
            if let (true, Some(slot), Some(info)) = (
                // A failed window (negotiation or placement) trusts no
                // assignment.
                negotiating && self.last_window.error.is_none(),
                shard.place_slot.map(|s| s as usize),
                &shard.placement_info,
            ) {
                assert!(
                    info.request_matches(
                        scratch.place.request(slot),
                        grant.unwrap_or(current),
                        &scratch.samples[i],
                        self.config.placement_rate_band,
                    ),
                    "window {}: skipped shard {i}'s placement request is stale",
                    self.last_window.window
                );
                assert_eq!(
                    shard.placement_id,
                    scratch.place.solve_id(slot),
                    "window {}: skipped shard {i}'s assignment is not in force",
                    self.last_window.window
                );
            }
            let point = &self.last_window.shards[i];
            let sample = &scratch.samples[i];
            let demand = scratch.demand_idx[i]
                .map(|slot| executor_total(&scratch.demands[slot as usize].desired));
            assert!(
                point.name == shard.name
                    && point.dead == shard.dead
                    && point.mean_sojourn_ms.map(f64::to_bits)
                        == sample.mean_sojourn.map(|s| (s * 1e3).to_bits())
                    && point.completed == sample.completed
                    && point.allocation == *current
                    && point.demand == demand
                    && !(point.capped || point.rebalanced || point.gated)
                    && point.error.is_none(),
                "window {}: skipped shard {i}'s record is stale: {point:?}",
                self.last_window.window
            );
        }
    }

    /// Whether shard `i`'s own cost/benefit gate (paper App. B-B) refuses
    /// `grant` given what it currently runs. `false` when the shard has no
    /// usable model this window.
    fn gate_refuses(&self, i: usize, grant: &[u32], scratch: &FleetScratch) -> bool {
        let Some(slot) = scratch.demand_idx[i] else {
            return false;
        };
        let current = &self.shards[i].allocation;
        let network = &scratch.demands[slot as usize].network;
        let sample = &scratch.samples[i];
        let verdict = decision::decide_view(
            &self.config.decision,
            &DecisionView {
                current_estimate: network.expected_sojourn(current).unwrap_or(f64::INFINITY),
                candidate_estimate: network.expected_sojourn(grant).unwrap_or(f64::INFINITY),
                current_allocation: current,
                candidate_allocation: grant,
                pause_secs: self.config.pause_secs,
                t_max: Some(self.shards[i].t_max_secs),
                measured_sojourn: sample.mean_sojourn,
            },
        );
        !verdict.is_rebalance()
    }

    /// The `gate` phase, the gate-aware wobble pass: publish each
    /// visited modeled shard's `capped` flag, consult its decision gate on
    /// its freshly negotiated grant and arbitrate around the refusals
    /// *now*, instead of discovering them at actuation time and stranding
    /// the capacity for a window. Returns whether the budget is contended
    /// (some grant is capped — a count the negotiator keeps). A shard the
    /// window does not visit runs its grant and is uncapped, so it has
    /// nothing to say here.
    ///
    /// Refused shards are held at their current allocation, and the rest
    /// are re-offered what is left: the [gate-aware
    /// re-offer](super#incremental-warm-start-negotiation)'s sum check.
    fn gate_aware_pass(&self, scratch: &mut FleetScratch, budget: u32) -> bool {
        let negotiator = &*self.negotiator;
        let contended = negotiator.capped_count > 0;
        let (mut held_desired, mut held_current) = (0u64, 0u64);
        for idx in 0..scratch.visit.len() {
            let i = scratch.visit[idx];
            let Some(slot) = scratch.demand_idx[i] else {
                continue;
            };
            let grant = &negotiator.grants[slot as usize];
            scratch.flags[i].capped = grant.capped;
            let current = &self.shards[i].allocation;
            if grant.allocation == *current {
                continue;
            }
            let current_total = executor_total(current);
            if contended && grant.total() < current_total {
                continue; // contended shrinks actuate unconditionally
            }
            if self.gate_refuses(i, &grant.allocation, scratch) {
                scratch.held.push(i);
                held_desired += negotiator.slots[slot as usize].desired_total;
                held_current += current_total;
            }
        }
        if scratch.held.is_empty() {
            return contended;
        }
        if negotiator.reoffer_fits(budget, held_desired, held_current) {
            scratch.reoffered = true;
            for &i in &scratch.held {
                scratch.flags[i].gated = true;
            }
            for &i in &scratch.visit {
                if !scratch.flags[i].gated {
                    scratch.flags[i].capped = false;
                }
            }
        } else {
            for &i in &scratch.held {
                scratch.flags[i].urgent = true;
            }
        }
        contended
    }

    /// The `present` phase: refresh the warm placement state
    /// ([`crate::placement::FleetPlacementState`]) for each visited live
    /// metadata-carrying shard, from the allocation it is about to run (its
    /// grant where one stands, its current executors otherwise) and this
    /// window's measured edge rates. Only shards whose inputs actually
    /// changed — executor counts, resource profiles, or edge rates beyond
    /// [`FleetDriverConfig::placement_rate_band`] — are touched. A full
    /// window presents every shard in a presence round, whose sweep takes
    /// out the shards that left; any other presents only the change list
    /// and names a shard that died with
    /// [`crate::placement::FleetPlacementState::remove`].
    fn present_placements(&mut self, scratch: &mut FleetScratch, full: bool) {
        let Some(pool) = &self.machine_pool else {
            return;
        };
        if full {
            scratch.place.begin_window();
        }
        scratch.place.sync_pool(pool);
        for &i in &scratch.visit {
            let shard = &mut self.shards[i];
            if shard.dead {
                // Its usage is refunded and its slot freed (its executors
                // are ghosts until the lease renews, and a revived shard is
                // placed afresh): by the presence round's sweep on a full
                // window, and by `remove` otherwise.
                if let Some(slot) = shard.place_slot.take() {
                    if !full {
                        scratch.place.remove(slot as usize);
                    }
                }
                continue;
            }
            let Some(info) = &shard.placement_info else {
                continue;
            };
            let slot = match shard.place_slot {
                Some(slot) => slot as usize,
                None => scratch.place.insert(&shard.name),
            };
            shard.place_slot = Some(slot_u32(slot));
            if scratch.place_owner.len() <= slot {
                scratch.place_owner.resize(slot + 1, usize::MAX);
            }
            scratch.place_owner[slot] = i;
            let target = scratch
                .grant(&self.negotiator, i)
                .unwrap_or(&shard.allocation);
            let sample = &scratch.samples[i];
            if !info.request_matches(
                scratch.place.request(slot),
                target,
                sample,
                self.config.placement_rate_band,
            ) {
                info.request_into(scratch.place.touch(slot), target, sample);
            }
            if full {
                scratch.place.mark_seen(slot);
            }
            scratch.planned_slots[i] = Some(slot_u32(slot));
        }
    }

    /// The `replan` phase: replan the warm placement state. Only dirty shards are
    /// re-solved, against the pool's residual capacity; a settled window
    /// performs zero solver calls and zero allocations. Solve order is
    /// sorted-name on every path, so the assignment stays independent of
    /// shard indices and advance order, and the drift-bounded batch
    /// re-solve inside `replan` keeps sequential repair anchored to what
    /// [`crate::placement::plan`] would produce. Every shard whose slot was
    /// re-solved joins the change list: a new assignment may be due.
    fn replan_placements(&self, scratch: &mut FleetScratch, fleet_error: &mut Option<String>) {
        match scratch.place.replan() {
            Ok(_) => {
                let mut joined = false;
                for idx in 0..scratch.place.resolved().len() {
                    let slot = scratch.place.resolved()[idx];
                    let i = scratch.place_owner[slot];
                    debug_assert_eq!(self.shards[i].place_slot, Some(slot_u32(slot)));
                    scratch.planned_slots[i] = Some(slot_u32(slot));
                    joined |= !scratch.listed[i];
                    scratch.list(i);
                }
                if joined {
                    scratch.visit.sort_unstable();
                }
            }
            Err(e) => {
                // No assignment is trusted this window; the warm state
                // batch re-solves on the next one.
                for &i in &scratch.visit {
                    scratch.planned_slots[i] = None;
                }
                if fleet_error.is_none() {
                    *fleet_error = Some(format!("placement: {e}"));
                }
            }
        }
    }
}
