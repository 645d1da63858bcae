//! One shard's loop: its lasting state, and the per-shard pass that measures it and refits it.

use super::negotiator::ShardDemand;
use super::ShardPlacementInfo;
use super::{executor_total, FleetDriverConfig, FleetDriverError, FleetShardSpec};
use crate::driver::{Actuator, CspBackend, WindowSample};
use crate::measurer::{Measurer, RawSample, SampleBuilder, SmoothedEstimates};
use crate::placement::Placement;
use crate::scheduler::{self, ScheduleError};
use drs_queueing::jackson::JacksonNetwork;

/// Per-shard loop state owned by the driver.
#[derive(Debug, Clone)]
pub(super) struct ShardState<B> {
    pub(super) name: String,
    pub(super) t_max_secs: f64,
    pub(super) backend: B,
    pub(super) samples: SampleBuilder,
    pub(super) measurer: Measurer,
    /// The epoch and backoff of the commands sent to this shard's backend.
    pub(super) actuator: Actuator,
    /// The allocation in force: read from the backend by each window's
    /// pass (into the same buffer) and replaced by what a rebalance put in
    /// force, so the pass can tell whether it moved.
    pub(super) allocation: Vec<u32>,
    /// Liveness lease expired: no usable report for `lease_windows`
    /// consecutive windows.
    pub(super) dead: bool,
    /// Placement metadata (when the fleet shares a machine pool).
    pub(super) placement_info: Option<ShardPlacementInfo>,
    /// The shard's slot in the warm placement state
    /// (`FleetScratch::place`), from its first presentation until it dies
    /// or leaves.
    pub(super) place_slot: Option<u32>,
    /// The machine assignment currently in force on the backend.
    pub(super) placement: Option<Placement>,
    /// [`crate::placement::FleetPlacementState::solve_id`] of the solve that
    /// produced `placement` (0: none). While the shard's warm slot still
    /// carries this id, the planned assignment *is* the one in force —
    /// the `moves` phase's O(1) test, in place of comparing the two
    /// assignments.
    pub(super) placement_id: u64,
    /// [`Measurer::epoch`] at the last model refit; `u64::MAX` forces one.
    /// While the epoch stands still the shard's packed demand
    /// (`FleetScratch::demands`) and `demand_error` below are authoritative
    /// and the refit is skipped.
    pub(super) demand_epoch: u64,
    /// The fit error at `demand_epoch`, replayed into the timeline each
    /// window while the broken estimates stand still.
    pub(super) demand_error: Option<String>,
}

impl<B: CspBackend> ShardState<B> {
    /// Validates a spec and builds its fresh loop state.
    pub(super) fn new(
        config: &FleetDriverConfig,
        spec: FleetShardSpec<B>,
    ) -> Result<Self, FleetDriverError> {
        if !spec.t_max_secs.is_finite() || spec.t_max_secs <= 0.0 {
            return Err(FleetDriverError::InvalidTarget {
                shard: spec.name,
                t_max_secs: spec.t_max_secs,
            });
        }
        let n_ops = spec.backend.operator_names().len();
        if n_ops == 0 {
            return Err(FleetDriverError::NoOperators { shard: spec.name });
        }
        let measurer =
            Measurer::new(n_ops, config.smoothing).map_err(FleetDriverError::Smoothing)?;
        Ok(ShardState {
            name: spec.name,
            t_max_secs: spec.t_max_secs,
            backend: spec.backend,
            samples: SampleBuilder::new(),
            measurer,
            actuator: Actuator::default(),
            allocation: Vec::new(),
            dead: false,
            placement_info: spec.placement,
            place_slot: None,
            placement: None,
            placement_id: 0,
            demand_epoch: u64::MAX,
            demand_error: None,
        })
    }
}

/// The buffers the per-shard pass reuses from shard to shard: what only
/// the shard being measured needs.
#[derive(Debug, Clone, Default)]
pub(super) struct PassBuffers {
    /// The raw sample of the shard being measured, built from its report
    /// and fed to its measurer at once.
    raw: RawSample,
    /// The running allocation as just read, before it is compared with
    /// the cached one.
    alloc_buf: Vec<u32>,
    /// The smoothed estimates of the shard being refitted.
    estimates: SmoothedEstimates,
}

/// One shard's row of the window buffers.
pub(super) struct ShardRow<'a> {
    /// This window's measurement report (rewritten by the backend).
    pub(super) sample: &'a mut WindowSample,
    /// The shard's packed demand slot, while it has a usable model.
    pub(super) demand: Option<&'a mut ShardDemand>,
}

/// What one shard's pass hands the window.
#[derive(Default)]
pub(super) struct PassOutcome {
    /// The shard joins the change list.
    pub(super) listed: bool,
    /// Executors in force on the shard, while it is alive.
    pub(super) live: u64,
    /// Executors reserved out of the budget before the modeled shards
    /// negotiate: a live shard's, on a negotiating window, without a
    /// usable model.
    pub(super) reserved: u64,
    /// The shard gained (`Some(Some(_))`, its first fit) or lost
    /// (`Some(None)`) its model: the packed demands are re-packed.
    pub(super) remodel: Option<Option<ShardDemand>>,
}

/// The window's `pass` phase over one shard (see the [module
/// docs](super#the-control-window)). It reads and writes only the shard,
/// its row of the window buffers and `buffers`, so segments of shards
/// pass on any thread.
pub(super) fn pass<B: CspBackend>(
    shard: &mut ShardState<B>,
    row: ShardRow<'_>,
    config: &FleetDriverConfig,
    negotiating: bool,
    buffers: &mut PassBuffers,
) -> PassOutcome {
    let sample = row.sample;
    let mut out = PassOutcome::default();
    shard.backend.advance_into(config.window_secs, sample);
    // A placed shard's request follows its measured arrival rates:
    // unmoved since last window, it compares as it did then.
    let rates_moved = shard.placement_info.is_some() && !shard.samples.arrivals_unchanged(sample);
    // Stale evidence enters the smoother discounted by
    // `stale_decay^age`, and a run of `lease_windows` fully-missed
    // reports expires the shard's liveness lease; the first usable
    // report renews it.
    if shard.samples.build_into(sample, &mut buffers.raw) {
        let weight = shard.samples.weight(config.stale_decay);
        shard.measurer.observe_weighted(&buffers.raw, weight);
    }
    let was_dead = shard.dead;
    shard.dead = config.lease_windows > 0 && shard.samples.missed_windows() >= config.lease_windows;
    // The running allocation, cached once for the window (every
    // later phase reads it instead of re-asking the backend).
    shard
        .backend
        .current_allocation_into(&mut buffers.alloc_buf);
    let resized = buffers.alloc_buf != shard.allocation;
    if resized {
        shard.allocation.clone_from(&buffers.alloc_buf);
    }
    let current_total = executor_total(&shard.allocation);
    if resized || rates_moved || shard.dead != was_dead {
        out.listed = true;
    }
    if !shard.dead {
        out.live = current_total;
    }
    if !negotiating {
        return out;
    }

    // The shard's own single-topology demand. The refit runs only
    // when the smoothed estimates actually moved
    // (`Measurer::epoch`); a steady shard keeps its packed demand,
    // which also hands the negotiator a bitwise-identical slot —
    // its no-op fast path. A dead shard submits none: its (stale)
    // model must not keep claiming budget for a machine that is
    // gone.
    let was_modeled = row.demand.is_some();
    if shard.dead {
        // Forget the fit so a revived shard refits at once. Its
        // executors are ghosts: they reserve nothing either.
        shard.demand_epoch = u64::MAX;
        shard.demand_error = None;
        if was_modeled {
            out.remodel = Some(None);
        }
        return out;
    }
    let mut modeled = was_modeled;
    let epoch = shard.measurer.epoch();
    if epoch != shard.demand_epoch {
        shard.demand_epoch = epoch;
        let mut fresh = None;
        let demand = match row.demand {
            Some(demand) => demand,
            None => fresh.insert(ShardDemand::unfitted()),
        };
        let fit = refit_demand(
            &shard.measurer,
            &mut buffers.estimates,
            shard.t_max_secs,
            config.k_max,
            demand,
        );
        modeled = matches!(fit, Ok(true));
        shard.demand_error = fit.err();
        // A demand whose total moved reaches the change list through
        // the negotiator: Program 6 never asks below the stability
        // floor, so its floored desire moves with it.
        if modeled != was_modeled {
            out.remodel = Some(fresh.filter(|_| modeled));
        }
    }
    // The record replays a standing refit error every window.
    if shard.demand_error.is_some() {
        out.listed = true;
    }
    if !modeled {
        out.reserved = current_total;
    }
    out
}

/// One shard's single-topology schedule, written into `desired`: its
/// Program 6 answer for `t_max`, falling back to spending the whole budget
/// (Algorithm 1) when the target cannot be met within it.
fn shard_demand(
    network: &JacksonNetwork,
    t_max: f64,
    k_max: u32,
    desired: &mut Vec<u32>,
) -> Result<(), ScheduleError> {
    match scheduler::min_processors_for_target_into(network, t_max, k_max, desired) {
        Ok(_) => Ok(()),
        Err(ScheduleError::CapExceeded { .. } | ScheduleError::TargetUnreachable { .. }) => {
            let all = scheduler::assign_processors(network, k_max)?;
            desired.clear();
            desired.extend_from_slice(all.per_operator());
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// Refits `demand` in place to the measurer's current smoothed estimates —
/// the network to the estimated rates, `desired` to the shard's own
/// schedule for them — through `estimates` and the buffers `demand`
/// already owns. `Ok(false)` before the first observed window; on `Err`
/// (the message for the timeline) `demand` is unusable until the next
/// successful refit.
fn refit_demand(
    measurer: &Measurer,
    estimates: &mut SmoothedEstimates,
    t_max: f64,
    k_max: u32,
    demand: &mut ShardDemand,
) -> Result<bool, String> {
    if !measurer.write_estimates(estimates) {
        return Ok(false);
    }
    let rates = estimates
        .operators
        .iter()
        .map(|r| (r.arrival_rate, r.service_rate));
    demand
        .network
        .set_rates(estimates.external_rate, rates)
        .map_err(|e| e.to_string())?;
    shard_demand(&demand.network, t_max, k_max, &mut demand.desired).map_err(|e| e.to_string())?;
    Ok(true)
}
