//! Fleet-scale DRS: one processor budget shared by many topologies.
//!
//! The paper's controller supervises a *single* streaming application, but a
//! production cluster runs many topologies competing for one machine pool
//! (the scenario R-Storm's resource-aware scheduling targets). This module
//! lifts the DRS loop to that setting:
//!
//! * a [`FleetNegotiator`] owns the global processor budget `Kmax` and
//!   arbitrates per-topology allocations. When the sum of per-topology
//!   demands fits the budget every shard receives exactly its own
//!   single-topology schedule; when it does not, the negotiator applies the
//!   paper's max-marginal-benefit rule *across* topologies — the same lazy
//!   benefit heap as [`crate::scheduler::assign_processors`], run at fleet
//!   granularity over every `(shard, operator)` pair — and hands each shard
//!   a capped plan. No shard is ever pushed below its minimum stable
//!   allocation;
//! * a [`FleetDriver`] runs one DRS measure→smooth→model→schedule loop per
//!   shard (each shard is an independent [`CspBackend`] on its own clock)
//!   but resolves contention centrally every window. Capacity freed by a
//!   shard whose demand drops is re-offered to starved shards on the next
//!   negotiation round;
//! * before any grant is actuated it passes the shard's own cost/benefit
//!   **decision gate** ([`crate::decision`], configured via
//!   [`FleetDriverConfig::decision`]): noise-driven ±1 grant wobble is
//!   kept rather than paid for with a pause every window, while target
//!   violations, instability and real scale-downs still act. Shrinks
//!   bypass the gate while the budget is contended — capped shards are
//!   starving, so freed capacity must actually flow. Note the flip side:
//!   an *uncontended* scale-down is deferred while the shard's measured
//!   latency violates its target (never shrink a struggling shard), which
//!   can also defer another shard's grow until the pool frees up.
//!
//! # The control window
//!
//! One [`FleetDriver::step`] is six phases, and the measurement overhead of
//! the whole loop (the paper's third challenge) is what they cost together.
//! Only the first walks every shard. It also builds the window's **change
//! list**: the shards whose grant, placement or record can differ from the
//! last window's. Every later phase walks that list in index order, or a
//! subset of it; a shard off the list runs its grant, keeps its assignment
//! and its record, so skipping it changes nothing (debug builds check this
//! after every window). The list is the union of
//!
//! * the shards the pass saw move: running allocation, liveness, or
//!   (placed shards) measured arrival rates, the inputs of their placement
//!   request;
//! * a standing refit error, replayed into the record every window;
//! * every shard from the first re-packed one on (its demand slot moved);
//! * the slots whose published grant or floored desire the negotiator
//!   actually changed, and, after a successful negotiation, every slot
//!   whose grant differs from its floored desire — the only shards the
//!   gate-aware re-offer can resolve differently from their grant;
//! * the placement slots `replan` re-solved;
//! * the shards the last window left unsettled: a capped, gated, urgent,
//!   rebalanced or errored record (which covers every shard ordered to
//!   actuate, and so every grant or assignment not yet in force), a death
//!   or revival, or any shard of a window whose negotiation failed.
//!
//! A roster change, the first negotiated window and a new machine pool —
//! the windows where every shard's inputs change — list every shard.
//! [`FleetDriver::phase_times`] clocks each phase ([`WINDOW_PHASES`]).
//!
//! 1. **One pass per shard**, in the caller's order: advance the backend a
//!    window, feed the sample to the measurer, judge the liveness lease,
//!    cache the running allocation, write the measured fields of the
//!    shard's record, and — past warm-up, when the smoothed estimates moved
//!    — refit the shard's demand *in place*: estimates into one reused
//!    buffer ([`Measurer::write_estimates`]), rates into the cached network
//!    ([`JacksonNetwork::set_rates`]), Program 6 into the cached `desired`
//!    vector ([`scheduler::min_processors_for_target_into`]). Shards share
//!    no state, so the whole pass runs on one shard while its buffers are
//!    in cache; a refit whose answer stands allocates nothing.
//! 2. **Re-pack** the demand list — only on a window where some shard
//!    gained or lost its model (the first negotiated one, deaths, revivals,
//!    joins); demands move, none is cloned. Every shard whose demand slot
//!    moved joins the change list.
//! 3. **Negotiate** once, warm-started (next section): it walks the demand
//!    slice, but reports only the slots whose published grant or floored
//!    desire it changed. Then the **gate-aware pass** consults the gate of
//!    the listed shards whose grant differs from what they run.
//! 4. **Plan placements** on the shared machine pool, when one is
//!    installed: the listed shards' requests are compared with their
//!    inputs, and only the changed ones are re-solved, in sorted-name
//!    order; the shards `replan` re-solved join the change list.
//! 5. **Actuate** the listed shards whose grant differs from what they run,
//!    shrinks before grows, then send **placement-only moves** to the listed
//!    shards whose counts stood still.
//! 6. **Record** the listed shards into [`FleetDriver::last_window`] in
//!    place, and carry the ones left unsettled into the next window's list.
//!
//! What is keyed by shard index across windows — the placement slot map,
//! the names in the window record — is trusted while the *roster* (the set
//! of shards, bumped by [`FleetDriver::add_shard`] /
//! [`FleetDriver::remove_shard`]) stands still, and re-derived by name on
//! the first window after it moved.
//!
//! # Where a shard's state lives
//!
//! What lasts as long as the shard — backend, sample builder, measurer,
//! epochs, lease, the placement in force — is one entry of the driver's
//! shard list. What a window rewrites in place is one entry per shard in
//! each of the window buffers: the report, the running allocation, the
//! flags, and `u32` slots into the packed demands and the placement state.
//! What only the shard being measured needs — its raw sample, its smoothed
//! estimates — is one buffer the pass reuses for every shard. A fitted
//! demand has two copies: the packed demand list, which the pass refits in
//! place and the negotiator is handed, and the negotiator's per-slot cache,
//! which it diffs the list against bit for bit. That slot keeps the floor
//! and the floored desire in one buffer, and builds its walk (boxed) only
//! once the budget is contended.
//!
//! # Incremental warm-start negotiation
//!
//! A window negotiates exactly once, through
//! [`FleetNegotiator::negotiate_within_incremental`]. Rebuilding the
//! fleet-wide benefit heap every window would cost `O(total operators)`
//! even when almost nothing moved, so the negotiator persists its state
//! across windows and repairs it instead:
//!
//! * each shard's [`drs_queueing::incremental::NetworkSojourn`] walk and its
//!   position on the marginal-benefit heaps survive the window boundary;
//!   demand epochs (bumped only when a shard's validated demand actually
//!   changes bit-for-bit) stamp every cached entry, and stale entries are
//!   discarded lazily on pop rather than eagerly rebuilt;
//! * a window's negotiation then costs `O(changed shards + executors
//!   moved)`: unchanged shards are never re-walked, and budget changes
//!   replay only the boundary of the previous fixpoint (ascend on freed
//!   capacity, descend on lost capacity);
//! * the **gate-aware re-offer** is a sum check on that state, not a second
//!   round. Shards whose decision gate refuses their grant are held at what
//!   they run, and the rest are offered `B' = budget − Σ_held current`.
//!   That offer is used only if it caps nobody, and cold arbitration caps
//!   nobody **iff** `Σ_rest floored desire ≤ B'` — then every grant *is* the
//!   shard's floored desire; otherwise it spends `B'` exactly (someone ends
//!   short of their desire, i.e. capped) or fails for lack of budget, and
//!   the negotiated grants stand with the held shrinks made urgent. Both
//!   sides of the comparison are totals the negotiator already carries, so
//!   the re-offer is exact, `O(held)` and allocation-free;
//! * a fully settled window — no demand epoch moved, every grant equal to
//!   the allocation in force — runs **allocation-free** end to end
//!   through [`FleetDriver`]: backends fill reusable buffers via the
//!   `*_into` hooks on [`CspBackend`], and a counting-allocator test
//!   holds the zero.
//!
//! The stateless [`FleetNegotiator::negotiate_within`] is the same
//! arbitration computed cold and is never on the driver's path: it is the
//! oracle the warm path is property-tested against (same grants, same
//! errors, bit for bit, across randomized demand drift, shard churn and
//! budget schedules).
//!
//! # Degraded control plane
//!
//! Production control channels lose, delay and duplicate messages, and
//! shards crash; the paper's convergence results all assume neither
//! happens. The fleet loop is hardened for the degraded case (the
//! `drs_sim::faults` module provides the matching deterministic fault
//! injector). The contract, per failure mode:
//!
//! * **Retried** — an actuation whose acknowledgement never arrives
//!   ([`crate::driver::BackendError::Timeout`]) is retried with capped
//!   exponential backoff ([`crate::driver::ActuationRetry`], capped at
//!   8 windows); windows inside the
//!   backoff record an `actuation deferred` error instead of spamming
//!   the channel. Any acknowledgement — success *or* refusal — proves
//!   the channel alive and resets the backoff.
//! * **Rejected** — every actuation carries a per-shard monotonically
//!   increasing epoch ([`RebalancePlan::epoch`]); a backend must apply
//!   only strictly newer epochs, so a late or duplicated command is
//!   rejected at the shard instead of double-counted.
//! * **Discounted** — measurement reports may be stale (delayed, or a
//!   starved window substituted from history):
//!   [`SampleBuilder`] tracks the age of every fallback rate and the
//!   smoothed estimate weighs the sample down by
//!   [`FleetDriverConfig::stale_decay`]`^age` instead of treating a
//!   3-window-old report as current.
//! * **Reclaimed** — a shard whose reports stop entirely for
//!   [`FleetDriverConfig::lease_windows`] consecutive windows is
//!   presumed dead (lease expiry): its executors stop reserving budget,
//!   it is excluded from the fleet total, and the negotiator re-offers
//!   its capacity to starved shards. A shard that was merely partitioned
//!   renews its lease with the first report after the heal; the
//!   over-budget guard below then re-converges the fleet.
//! * **Deferred** — a refused or lost shrink leaves its executors in
//!   force, so any grow that would push the *realized* fleet total over
//!   `Kmax` is deferred to a later window rather than over-committing
//!   the pool (the PR 5 guard, extended to lost actuations and lease
//!   revivals).
//!
//! [`FleetDriver::checkpoint`] snapshots the entire control plane —
//! negotiator, per-shard measurement state, epochs, backoff state,
//! timeline, and (the backend being `Clone`) the backends with their
//! virtual clocks — so long scenario sweeps can branch from a common
//! prefix and replay deterministically.
//!
//! The `drs-sim` crate's `Simulator` is a shard backend as it stands
//! (`FleetDriver<Simulator>`, one virtual clock per shard); `repro fleet` in
//! `crates/bench` runs a four-topology mixed VLD+FPD fleet under a
//! contended budget, and `repro fleet --faults <scenario>` runs the same
//! fleet through the fault injector.
//!
//! # Example
//!
//! Two fixed-rate mock shards contending for a budget smaller than their
//! combined demand:
//!
//! ```
//! use drs_core::driver::{
//!     AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
//! };
//! use drs_core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec};
//!
//! /// One operator at fixed measured rates; rebalances always succeed.
//! struct StaticShard {
//!     rate: f64,
//!     allocation: Vec<u32>,
//! }
//!
//! impl CspBackend for StaticShard {
//!     fn backend_name(&self) -> &'static str {
//!         "static"
//!     }
//!     fn operator_names(&self) -> Vec<String> {
//!         vec!["work".to_owned()]
//!     }
//!     fn current_allocation(&self) -> Vec<u32> {
//!         self.allocation.clone()
//!     }
//!     fn advance(&mut self, _window_secs: f64) -> WindowSample {
//!         WindowSample {
//!             external_rate: Some(self.rate),
//!             operators: vec![OperatorSample {
//!                 arrival_rate: Some(self.rate),
//!                 service_rate: Some(10.0),
//!             }],
//!             mean_sojourn: Some(0.5),
//!             std_sojourn: None,
//!             completed: 100,
//!         }
//!     }
//!     fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
//!         self.allocation = plan.allocation.clone();
//!         Ok(AppliedRebalance {
//!             allocation: plan.allocation.clone(),
//!             pause_secs: plan.pause_secs,
//!         })
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let shard = |rate| StaticShard { rate, allocation: vec![4] };
//! let mut config = FleetDriverConfig::new(12); // Kmax = 12 for the whole fleet
//! config.warmup_windows = 1;
//! let mut fleet = FleetDriver::new(
//!     config,
//!     vec![
//!         FleetShardSpec::new("hot", 0.11, shard(60.0)),
//!         FleetShardSpec::new("cold", 0.11, shard(30.0)),
//!     ],
//! )?;
//! fleet.run_windows(4);
//! let last = fleet.timeline().last().unwrap();
//! // The budget is fully arbitrated: grants sum to at most Kmax…
//! assert!(last.total_granted <= 12);
//! // …and the hotter shard wins the larger share.
//! assert!(last.shards[0].allocation[0] > last.shards[1].allocation[0]);
//! # Ok(())
//! # }
//! ```

use crate::decision::{self, DecisionPolicy, DecisionView};
use crate::driver::{ActuationRetry, BackendError, CspBackend, RebalancePlan, WindowSample};
use crate::measurer::{Measurer, RawSample, SampleBuilder, SmoothedEstimates, Smoothing};
use crate::placement::{
    self, EdgeTraffic, MachinePool as PlacementPool, OperatorLoad, Placement, PlacementRequest,
};
use crate::scheduler::{self, Candidate, ScheduleError};
use drs_queueing::incremental::NetworkSojourn;
use drs_queueing::jackson::JacksonNetwork;
use drs_topology::ResourceProfile;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Total executors in an allocation (`u64` so fleet-wide sums cannot
/// overflow).
fn executor_total(allocation: &[u32]) -> u64 {
    allocation.iter().map(|&k| u64::from(k)).sum()
}

/// A slot index as the per-shard slot maps store it: an `Option<u32>` is
/// half an `Option<usize>`.
fn slot_u32(slot: usize) -> u32 {
    u32::try_from(slot).expect("fewer than 2^32 slots")
}

/// One topology's resource demand, as submitted to the negotiator.
#[derive(Debug)]
pub struct ShardDemand {
    /// The shard's fitted open network (model order).
    pub network: JacksonNetwork,
    /// The allocation the shard's own single-topology schedule asks for
    /// (its Program 6 / Algorithm 1 answer, one entry per model operator).
    pub desired: Vec<u32>,
}

impl ShardDemand {
    /// A demand with no operators yet, for a first [`refit_demand`] to
    /// fill (allocation-free until then).
    fn unfitted() -> Self {
        ShardDemand {
            network: JacksonNetwork::from_rates(1.0, &[]).expect("an empty network is valid"),
            desired: Vec::new(),
        }
    }
}

// Manual impl so `clone_from` reuses both buffers: the incremental
// negotiator refreshes its per-slot demand cache in place on every change.
impl Clone for ShardDemand {
    fn clone(&self) -> Self {
        ShardDemand {
            network: self.network.clone(),
            desired: self.desired.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.network.clone_from(&source.network);
        self.desired.clone_from(&source.desired);
    }
}

/// Bitwise demand equality — the incremental negotiator's change detector.
/// "Unchanged" must mean "every floating-point model value recomputes
/// identically", so rates compare on bits: `PartialEq` would equate
/// `-0.0 == 0.0` (distinct under `total_cmp`, which orders the benefit
/// heap). A NaN rate compares equal to itself on bits, so a pathological
/// demand is at worst re-entered or cached consistently — never diffed
/// into an inconsistent warm state.
fn demand_bits_equal(a: &ShardDemand, b: &ShardDemand) -> bool {
    a.desired == b.desired
        && a.network.external_rate().to_bits() == b.network.external_rate().to_bits()
        && a.network.len() == b.network.len()
        && a.network
            .operators()
            .iter()
            .zip(b.network.operators())
            .all(|(x, y)| {
                x.arrival_rate().to_bits() == y.arrival_rate().to_bits()
                    && x.service_rate().to_bits() == y.service_rate().to_bits()
            })
}

/// What the negotiator granted one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardGrant {
    /// Executors per model operator the shard may run.
    pub allocation: Vec<u32>,
    /// Whether the grant falls short of the shard's desired total (the
    /// budget was contended and this shard's plan was capped).
    pub capped: bool,
}

impl ShardGrant {
    /// Total executors granted.
    pub fn total(&self) -> u64 {
        executor_total(&self.allocation)
    }
}

/// Error from fleet-level budget negotiation.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Even the minimum stable allocations of all shards exceed the budget:
    /// the fleet cannot be made stable at any split.
    InsufficientBudget {
        /// Processors required for every shard to stay stable.
        required: u64,
        /// Processors available.
        available: u32,
    },
    /// A demand's `desired` vector does not match its network's operator
    /// count (a wiring error).
    DemandLength {
        /// Index of the offending shard.
        shard: usize,
        /// Operators the network models.
        expected: usize,
        /// Entries the desired allocation carries.
        actual: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InsufficientBudget {
                required,
                available,
            } => write!(
                f,
                "insufficient fleet budget: stability of all shards needs {required} \
                 processors, only {available} available"
            ),
            FleetError::DemandLength {
                shard,
                expected,
                actual,
            } => write!(
                f,
                "shard {shard} demand has {actual} entries, its network models {expected} operators"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// One `(shard, op)` step in the warm heaps — either a frontier step (the
/// next processor the pair would take) or a taken step (the weakest it
/// holds). Entries are stamped with the slot's generation and the op's
/// sequence number at push time; any later rebuild or move stales them, and
/// stale entries are discarded lazily on pop instead of removed eagerly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WarmEntry {
    /// Effective (prefix-min clamped) weighted marginal benefit δ.
    delta: f64,
    slot: u32,
    op: u32,
    generation: u64,
    seq: u64,
}

/// Ascent-heap order: largest δ first, ties to the smallest `(slot, op)` —
/// the same strict total order as the from-scratch [`Candidate`] heap, so
/// warm and cold negotiation tie-break identically.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ascend(WarmEntry);

impl Eq for Ascend {}

impl Ord for Ascend {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .delta
            .total_cmp(&other.0.delta)
            .then_with(|| (other.0.slot, other.0.op).cmp(&(self.0.slot, self.0.op)))
    }
}

impl PartialOrd for Ascend {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Descent-heap order: the heap's max is the *weakest* taken step —
/// smallest δ first, ties to the largest `(slot, op)` — the exact reverse
/// of [`Ascend`], so "best frontier step" and "weakest taken step" are the
/// two ends of one strict total order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Descend(WarmEntry);

impl Eq for Descend {}

impl Ord for Descend {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .delta
            .total_cmp(&self.0.delta)
            .then_with(|| (self.0.slot, self.0.op).cmp(&(other.0.slot, other.0.op)))
    }
}

impl PartialOrd for Descend {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Whether frontier step `f` strictly precedes taken step `a` in the greedy
/// order (larger δ first, ties to the smaller `(slot, op)`). If a frontier
/// step of a below-cap shard outranks any taken step, the warm state is not
/// the greedy equilibrium and the pair must be exchanged.
fn outranks(f: &WarmEntry, a: &WarmEntry) -> bool {
    f.delta
        .total_cmp(&a.delta)
        .then_with(|| (a.slot, a.op).cmp(&(f.slot, f.op)))
        .is_gt()
}

/// Per-shard warm state carried across windows by the incremental
/// negotiator (see [`FleetNegotiator::negotiate_within_incremental`]).
#[derive(Debug, Clone)]
struct SlotState {
    /// The demand the warm state was built from (bitwise cache key — see
    /// `demand_bits_equal`).
    demand: ShardDemand,
    /// Per op, the minimum stable allocation; then per op, `demand.desired`
    /// raised to it. One buffer, read through [`SlotState::floor`] and
    /// [`SlotState::desired_floored`].
    floored: Vec<u32>,
    floor_total: u64,
    desired_total: u64,
    /// The shard's reversible sojourn walk, parked at its current grant
    /// position. `None` until the slot first negotiates contended; boxed,
    /// because a fleet that is never contended never builds one, and a
    /// rebuild reuses the box.
    walk: Option<Box<NetworkSojourn>>,
    /// Per-op stack of the *effective* (prefix-min clamped) δ of every
    /// step taken above the floor; the top is the op's weakest taken step.
    taken: Vec<Vec<f64>>,
    /// Steps taken above the floor, across all ops.
    taken_total: u64,
    /// Per-op stamp, bumped on every step/revoke/unpark of that op.
    op_seq: Vec<u64>,
    /// Slot stamp (drawn from the negotiator's global counter on rebuild,
    /// so entries of a removed-then-replaced slot can never revive).
    generation: u64,
    /// The walk no longer matches `demand` (it changed while the fleet was
    /// uncontended, or the slot is new); rebuilt at the floor on the next
    /// contended window.
    walk_stale: bool,
    /// The published grant no longer matches the warm state; rewritten
    /// before `negotiate_within_incremental` returns.
    grant_dirty: bool,
    /// Frontier entries of this slot were discarded while it sat at its
    /// demand cap; a revoke that drops it below the cap re-enters them.
    parked: bool,
    /// The published grant differs from `desired_floored` (the slot is on
    /// `FleetNegotiator::off_desire`).
    off_desire: bool,
}

impl SlotState {
    /// Per-op minimum stable allocation (cached).
    fn floor(&self) -> &[u32] {
        &self.floored[..self.floored.len() / 2]
    }

    /// `demand.desired` raised to the floor — what an uncontended window
    /// grants verbatim.
    fn desired_floored(&self) -> &[u32] {
        &self.floored[self.floored.len() / 2..]
    }

    /// Demand cap: steps above the floor this shard may take.
    fn cap(&self) -> u64 {
        self.desired_total - self.floor_total
    }

    /// Effective frontier δ of `op`: the raw marginal benefit at the walk's
    /// current position, clamped to the weakest taken step of the same op.
    /// The clamp makes every per-op δ stream monotone non-increasing even
    /// under floating-point wobble — exactly the `min` applied when the
    /// from-scratch loop pushes a successor candidate — which is what keeps
    /// warm equilibria and cold runs bit-identical.
    fn frontier_eff(&self, op: usize) -> f64 {
        let walk = self.walk.as_ref().expect("contended slot carries a walk");
        let raw = walk.weighted_marginal_benefit(op);
        match self.taken[op].last() {
            Some(&top) => raw.min(top),
            None => raw,
        }
    }
}

/// Mode memory for [`FleetNegotiator::negotiate_within_incremental`]:
/// transitions between uncontended and contended windows are the only
/// points where grants must be reconciled fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NegotiationMode {
    /// No successful incremental negotiation yet.
    Initial,
    /// Last window granted every shard its floored desire.
    Uncontended,
    /// Last window ran the warm greedy equilibrium.
    Contended,
}

/// The fleet budget negotiator: owns `Kmax` and arbitrates competing
/// per-topology demands (see the [module docs](self)).
///
/// [`FleetNegotiator::negotiate_within_incremental`] is the negotiation
/// [`FleetDriver`] runs: warm-started from the previous window's state,
/// `O(changed shards + executor moves)` per call and allocation-free when
/// nothing changed. The stateless [`FleetNegotiator::negotiate`] /
/// [`negotiate_within`] compute the same grants from scratch in `O(fleet)`
/// and serve only as its oracle (see the [module docs](self)).
///
/// The warm state is a pure cache: any warm position converges to the same
/// bit-identical grants a cold run computes, so checkpoint clones,
/// mid-sequence errors and restores are all safe.
///
/// [`negotiate_within`]: FleetNegotiator::negotiate_within
#[derive(Debug, Clone)]
pub struct FleetNegotiator {
    k_max: u32,
    /// Warm per-shard state, indexed like the demand slice.
    slots: Vec<SlotState>,
    /// Published grants, indexed like the demand slice.
    grants: Vec<ShardGrant>,
    /// Frontier steps, best first (lazy, stamped — see [`WarmEntry`]).
    ascent: std::collections::BinaryHeap<Ascend>,
    /// Taken steps, weakest first (lazy, stamped).
    descent: std::collections::BinaryHeap<Descend>,
    sum_floor: u64,
    sum_desired: u64,
    sum_taken: u64,
    /// Live `(shard, op)` pairs across all slots (heap-compaction bound).
    total_ops: usize,
    /// Monotone stamp source for slot generations.
    stamp: u64,
    mode: NegotiationMode,
    /// Slots whose grant must be rewritten (deduplicated by
    /// `SlotState::grant_dirty`; survives an errored call so no rewrite is
    /// ever lost).
    touched: Vec<u32>,
    /// Slots whose published grant or floored desire actually changed in
    /// the last call (a slot may appear twice). Rewritten slots whose
    /// values came out the same are not listed.
    changed: Vec<u32>,
    /// Slots whose published grant differs from their floored desire —
    /// the only ones the gate-aware re-offer resolves differently from
    /// their grant. Exact after a successful call.
    off_desire: Vec<u32>,
    /// Published grants with `capped` set.
    capped_count: usize,
}

impl FleetNegotiator {
    /// Creates a negotiator owning a global budget of `k_max` processors.
    pub fn new(k_max: u32) -> Self {
        FleetNegotiator {
            k_max,
            slots: Vec::new(),
            grants: Vec::new(),
            ascent: std::collections::BinaryHeap::new(),
            descent: std::collections::BinaryHeap::new(),
            sum_floor: 0,
            sum_desired: 0,
            sum_taken: 0,
            total_ops: 0,
            stamp: 0,
            mode: NegotiationMode::Initial,
            touched: Vec::new(),
            changed: Vec::new(),
            off_desire: Vec::new(),
            capped_count: 0,
        }
    }

    /// The global processor budget.
    pub fn k_max(&self) -> u32 {
        self.k_max
    }

    /// Arbitrates `demands` within the full budget.
    ///
    /// # Errors
    ///
    /// See [`FleetNegotiator::negotiate_within`].
    pub fn negotiate(&self, demands: &[ShardDemand]) -> Result<Vec<ShardGrant>, FleetError> {
        self.negotiate_within(self.k_max, demands)
    }

    /// Arbitrates `demands` within an explicit budget, statelessly and from
    /// scratch — the oracle for the warm path, never run by the driver.
    ///
    /// When the desired totals fit the budget every shard is granted
    /// exactly its desired allocation — the fleet schedule *equals* the
    /// single-topology schedules. Otherwise every shard starts from its
    /// minimum stable allocation and the surplus is spent one processor at
    /// a time on the `(shard, operator)` pair with the largest weighted
    /// marginal benefit `δ = λ_i·(E[T_i](k) − E[T_i](k+1))` — comparable
    /// across topologies because it is an absolute tuple-seconds-per-second
    /// reduction — until the budget is exhausted. No shard ever receives
    /// more than it asked for: once a shard reaches its desired total its
    /// candidates retire, so surplus only flows to shards still short of
    /// their own schedule. (One exception: stability always wins — a
    /// `desired` below the network's minimum stable allocation is raised
    /// to that minimum, since schedules produced by
    /// [`scheduler::min_processors_for_target`] /
    /// [`scheduler::assign_processors`] never sit below it.)
    ///
    /// # Errors
    ///
    /// * [`FleetError::DemandLength`] — a desired vector does not match its
    ///   network.
    /// * [`FleetError::InsufficientBudget`] — the minimum stable
    ///   allocations alone exceed `budget`.
    pub fn negotiate_within(
        &self,
        budget: u32,
        demands: &[ShardDemand],
    ) -> Result<Vec<ShardGrant>, FleetError> {
        for (i, d) in demands.iter().enumerate() {
            if d.desired.len() != d.network.len() {
                return Err(FleetError::DemandLength {
                    shard: i,
                    expected: d.network.len(),
                    actual: d.desired.len(),
                });
            }
        }
        // Stability floor: a desired entry below the operator's minimum
        // stable count is raised to it, in both branches.
        let desired: Vec<Vec<u32>> = demands
            .iter()
            .map(|d| {
                d.desired
                    .iter()
                    .zip(d.network.operators())
                    .map(|(&want, q)| want.max(q.min_stable_servers()))
                    .collect()
            })
            .collect();
        let desired_totals: Vec<u64> = desired.iter().map(|a| executor_total(a)).collect();
        let total_desired: u64 = desired_totals.iter().sum();
        if total_desired <= u64::from(budget) {
            return Ok(desired
                .into_iter()
                .map(|allocation| ShardGrant {
                    allocation,
                    capped: false,
                })
                .collect());
        }

        // Contended: fleet-granularity Algorithm 1 from the minimum stable
        // allocations, spending the whole budget — the scheduler's lazy
        // benefit heap keyed by `(shard, op)`, plus per-shard demand caps:
        // a shard at its desired total retires from the heap, so no
        // processor lands where no target needs it while another shard is
        // starved.
        let mut states: Vec<NetworkSojourn> = demands
            .iter()
            .map(|d| NetworkSojourn::at_min_stable(&d.network))
            .collect();
        let mut totals: Vec<u64> = states
            .iter()
            .map(|s| executor_total(&s.allocation()))
            .collect();
        let required: u64 = totals.iter().sum();
        if required > u64::from(budget) {
            return Err(FleetError::InsufficientBudget {
                required,
                available: budget,
            });
        }
        let mut heap: std::collections::BinaryHeap<Candidate<(usize, usize)>> = states
            .iter()
            .enumerate()
            .flat_map(|(shard, state)| {
                (0..state.len()).map(move |op| Candidate {
                    delta: state.weighted_marginal_benefit(op),
                    key: (shard, op),
                })
            })
            .collect();
        let mut remaining = u64::from(budget) - required;
        while remaining > 0 {
            let Some(best) = heap.pop() else {
                break; // every shard saturated its demand
            };
            let (shard, op) = best.key;
            if totals[shard] >= desired_totals[shard] {
                // Shard already has everything it asked for: retire its
                // candidate so the surplus flows to still-short shards.
                continue;
            }
            states[shard].increment(op);
            totals[shard] += 1;
            remaining -= 1;
            // The successor δ is clamped to the step just taken: in exact
            // arithmetic convexity makes every per-op δ stream monotone
            // non-increasing anyway, so the clamp only absorbs ulp-level
            // floating-point wobble — and it is what guarantees the warm
            // incremental path (which stores these effective δs in its
            // taken-stacks) reaches bit-identical grants from any start.
            heap.push(Candidate {
                delta: states[shard].weighted_marginal_benefit(op).min(best.delta),
                key: (shard, op),
            });
        }
        Ok(states
            .iter()
            .zip(&desired_totals)
            .map(|(state, &desired)| {
                let allocation = state.allocation();
                let granted = executor_total(&allocation);
                ShardGrant {
                    allocation,
                    capped: granted < desired,
                }
            })
            .collect())
    }

    /// The grants computed by the last successful
    /// [`FleetNegotiator::negotiate_within_incremental`] call, indexed like
    /// the demand slice it was given. Unspecified (possibly stale) after an
    /// `Err` — callers must not actuate grants from a failed round.
    pub fn grants(&self) -> &[ShardGrant] {
        &self.grants
    }

    /// The gate-aware re-offer (see the [module docs](self)): with held
    /// shards keeping `held_current` executors in force and their floored
    /// desires `held_desired` withdrawn, do the other shards' floored desires
    /// fit what is left of `budget`?
    fn reoffer_fits(&self, budget: u32, held_desired: u64, held_current: u64) -> bool {
        self.sum_desired - held_desired <= u64::from(budget).saturating_sub(held_current)
    }

    /// Bookkeeping after slot `i`'s grant was published: `moved` says its
    /// allocation changed, `was_capped` is its previous `capped` flag.
    /// Lists a real change in `changed` and keeps the capped count and the
    /// off-desire flag in step.
    fn note_published(&mut self, i: usize, moved: bool, was_capped: bool) {
        let grant = &self.grants[i];
        if moved || grant.capped != was_capped {
            self.changed.push(i as u32);
        }
        match (was_capped, grant.capped) {
            (false, true) => self.capped_count += 1,
            (true, false) => self.capped_count -= 1,
            _ => {}
        }
        let slot = &mut self.slots[i];
        let off = grant.allocation != slot.desired_floored();
        if off && !slot.off_desire {
            self.off_desire.push(i as u32);
        }
        slot.off_desire = off;
    }

    /// Drops the slots that came back to their floored desire from
    /// `off_desire` (end of a successful call).
    fn settle_off_desire(&mut self) {
        let slots = &self.slots;
        self.off_desire
            .retain(|&i| slots.get(i as usize).is_some_and(|s| s.off_desire));
    }

    /// Incremental warm-start arbitration: computes exactly what
    /// [`FleetNegotiator::negotiate_within`] would return for `budget` and
    /// `demands` — bit-identical allocations and `capped` flags, the
    /// proptests pin it — but in `O(changed shards + executor moves)` by
    /// reusing the previous window's state, and without a single heap
    /// allocation when nothing changed. Results are published through
    /// [`FleetNegotiator::grants`].
    ///
    /// Per window it
    ///
    /// 1. **diffs** each slot's demand against the cached one (bitwise —
    ///    `demand_bits_equal`); unchanged slots are not touched at all;
    /// 2. re-derives floors/desires for changed slots and, on a contended
    ///    window, **rebuilds** their reversible [`NetworkSojourn`] walk at
    ///    the stability floor (changed rates invalidate the carried
    ///    Erlang-B history; unchanged slots keep their walk parked at the
    ///    previous grant);
    /// 3. **fixes up** the warm equilibrium: revoke the globally weakest
    ///    taken step (via [`NetworkSojourn::decrement`] — the O(1)
    ///    step-down machinery) while over the spend target, take the
    ///    globally best frontier step while under it, then exchange while
    ///    any frontier step of a below-cap shard outranks a taken step;
    /// 4. rewrites the grant of every slot whose walk moved.
    ///
    /// The fix-up terminates at the unique greedy equilibrium: per-op δ
    /// streams are monotone (prefix-min clamped, matching the from-scratch
    /// successor clamp), so the final state is fully characterized by "no
    /// frontier step outranks a taken step" plus the per-shard caps — the
    /// same state the cold heap run reaches, independent of the warm
    /// starting position.
    ///
    /// # Errors
    ///
    /// The same errors, in the same precedence, as
    /// [`FleetNegotiator::negotiate_within`]. A failed call leaves the
    /// cache consistent: the next successful call converges as usual.
    pub fn negotiate_within_incremental(
        &mut self,
        budget: u32,
        demands: &[ShardDemand],
    ) -> Result<(), FleetError> {
        debug_assert!(u32::try_from(demands.len()).is_ok());
        self.changed.clear();
        // Slots beyond the end of the demand slice retire (fleet shrank or
        // re-packed); their heap entries die by the slot-index bound check.
        if self.slots.len() > demands.len() {
            self.off_desire.retain(|&i| (i as usize) < demands.len());
        }
        if let Some(retired) = self.grants.get(demands.len()..) {
            self.capped_count -= retired.iter().filter(|g| g.capped).count();
        }
        while self.slots.len() > demands.len() {
            let slot = self.slots.pop().expect("len checked above");
            self.sum_floor -= slot.floor_total;
            self.sum_desired -= slot.desired_total;
            self.sum_taken -= slot.taken_total;
            self.total_ops -= slot.demand.network.len();
        }
        self.grants.truncate(demands.len());

        // Diff pass, in slot order (so the first invalid changed slot
        // reports the same `DemandLength` a from-scratch validation would).
        for (i, d) in demands.iter().enumerate() {
            let changed = match self.slots.get(i) {
                Some(slot) => !demand_bits_equal(&slot.demand, d),
                None => true,
            };
            if !changed {
                continue;
            }
            if d.desired.len() != d.network.len() {
                return Err(FleetError::DemandLength {
                    shard: i,
                    expected: d.network.len(),
                    actual: d.desired.len(),
                });
            }
            if i == self.slots.len() {
                self.slots.push(SlotState {
                    demand: d.clone(),
                    floored: Vec::new(),
                    floor_total: 0,
                    desired_total: 0,
                    walk: None,
                    taken: Vec::new(),
                    taken_total: 0,
                    op_seq: Vec::new(),
                    generation: 0,
                    walk_stale: true,
                    grant_dirty: false,
                    parked: false,
                    off_desire: false,
                });
            } else {
                let slot = &mut self.slots[i];
                self.sum_floor -= slot.floor_total;
                self.sum_desired -= slot.desired_total;
                self.total_ops -= slot.demand.network.len();
                slot.demand.clone_from(d);
            }
            let slot = &mut self.slots[i];
            let ops = d.network.len();
            let mut moved = slot.floored.len() != 2 * ops;
            slot.floored.resize(2 * ops, 0);
            let (floor, desired_floored) = slot.floored.split_at_mut(ops);
            for (op, (q, &want)) in d.network.operators().iter().zip(&d.desired).enumerate() {
                floor[op] = q.min_stable_servers();
                let floored = want.max(floor[op]);
                moved |= desired_floored[op] != floored;
                desired_floored[op] = floored;
            }
            if moved {
                self.changed.push(i as u32);
            }
            slot.floor_total = executor_total(slot.floor());
            slot.desired_total = executor_total(slot.desired_floored());
            slot.walk_stale = true;
            self.sum_floor += slot.floor_total;
            self.sum_desired += slot.desired_total;
            self.total_ops += d.network.len();
            if !slot.grant_dirty {
                slot.grant_dirty = true;
                self.touched.push(i as u32);
            }
        }
        if self.grants.len() < demands.len() {
            self.grants.resize_with(demands.len(), || ShardGrant {
                allocation: Vec::new(),
                capped: false,
            });
        }
        debug_assert_eq!(self.slots.len(), demands.len());

        // Uncontended: every shard gets exactly its floored desire.
        if self.sum_desired <= u64::from(budget) {
            if self.mode == NegotiationMode::Uncontended {
                // Steady uncontended: only changed slots re-enter.
                for idx in 0..self.touched.len() {
                    let i = self.touched[idx] as usize;
                    if i >= self.slots.len() {
                        continue;
                    }
                    self.publish_desire(i);
                }
            } else {
                // Transition (or first round): contended grants can differ
                // from the floored desire on any capped slot — reconcile
                // fleet-wide once.
                for i in 0..self.slots.len() {
                    self.publish_desire(i);
                }
            }
            self.touched.clear();
            self.settle_off_desire();
            self.mode = NegotiationMode::Uncontended;
            return Ok(());
        }
        if self.sum_floor > u64::from(budget) {
            return Err(FleetError::InsufficientBudget {
                required: self.sum_floor,
                available: budget,
            });
        }

        // Contended. Rebuild the walks of changed slots at their floor
        // (changed rates invalidate the Erlang-B histories); unchanged
        // slots keep their walks parked at the previous grant and only
        // move by explicit increments/decrements below.
        let transition = self.mode != NegotiationMode::Contended;
        self.mode = NegotiationMode::Contended;
        for i in 0..self.slots.len() {
            if self.slots[i].walk_stale {
                self.rebuild_slot(i);
            }
        }
        if transition {
            // Entering contention from an uncontended stretch: published
            // grants are floored desires, while walks still hold their
            // last-contended positions. Any mismatch must be rewritten
            // even if the fix-up below never moves that slot.
            for i in 0..self.slots.len() {
                let slot = &self.slots[i];
                if slot.grant_dirty {
                    continue;
                }
                let walk = slot.walk.as_ref().expect("rebuilt above");
                let grant = &self.grants[i].allocation;
                let matches = grant.len() == walk.len()
                    && grant
                        .iter()
                        .enumerate()
                        .all(|(op, &k)| walk.servers(op) == k);
                if !matches {
                    self.slots[i].grant_dirty = true;
                    self.touched.push(i as u32);
                }
            }
        }

        // The spend target: the budget above the floors, truncated to what
        // the caps can absorb (the from-scratch loop stops early when every
        // shard saturates its demand).
        let target = (u64::from(budget) - self.sum_floor).min(self.sum_desired - self.sum_floor);
        while self.sum_taken > target {
            self.revoke_weakest();
        }
        while self.sum_taken < target {
            if !self.take_best() {
                debug_assert!(false, "frontier exhausted below the spend target");
                break;
            }
        }
        while let (Some(f), Some(a)) = (self.clean_ascent_top(), self.clean_descent_top()) {
            if !outranks(&f, &a) {
                break;
            }
            self.revoke_weakest();
            self.take_best();
        }

        // Publish the grant of every slot whose warm state moved.
        for idx in 0..self.touched.len() {
            let i = self.touched[idx] as usize;
            if i >= self.slots.len() {
                continue;
            }
            let slot = &mut self.slots[i];
            slot.grant_dirty = false;
            let walk = slot.walk.as_ref().expect("contended slots carry walks");
            let grant = &mut self.grants[i];
            let moved = grant.allocation.len() != walk.len()
                || grant
                    .allocation
                    .iter()
                    .enumerate()
                    .any(|(op, &k)| walk.servers(op) != k);
            if moved {
                walk.write_allocation(&mut grant.allocation);
            }
            let was_capped = grant.capped;
            grant.capped = slot.floor_total + slot.taken_total < slot.desired_total;
            self.note_published(i, moved, was_capped);
        }
        self.touched.clear();
        self.settle_off_desire();
        self.maybe_compact();
        Ok(())
    }

    /// Publishes slot `i`'s floored desire as its uncapped grant (the
    /// uncontended arm), rewriting only what differs.
    fn publish_desire(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        slot.grant_dirty = false;
        let grant = &mut self.grants[i];
        let moved = grant.allocation != slot.desired_floored();
        if moved {
            grant.allocation.clear();
            grant.allocation.extend_from_slice(slot.desired_floored());
        }
        let was_capped = grant.capped;
        grant.capped = false;
        self.note_published(i, moved, was_capped);
    }

    /// Rebuilds slot `i`'s walk at its stability floor under the cached
    /// demand, invalidating every heap entry it ever pushed (fresh
    /// generation) and re-entering its frontier steps.
    fn rebuild_slot(&mut self, i: usize) {
        let generation = self.stamp;
        self.stamp += 1;
        let (ops, cap) = {
            let slot = &mut self.slots[i];
            self.sum_taken -= slot.taken_total;
            slot.taken_total = 0;
            let ops = slot.demand.network.len();
            for stack in &mut slot.taken {
                stack.clear();
            }
            slot.taken.resize_with(ops, Vec::new);
            slot.op_seq.clear();
            slot.op_seq.resize(ops, 0);
            slot.generation = generation;
            let walk = NetworkSojourn::reversible(&slot.demand.network, slot.floor())
                .expect("floor allocation length matches the network");
            match &mut slot.walk {
                Some(boxed) => **boxed = walk,
                None => slot.walk = Some(Box::new(walk)),
            }
            slot.walk_stale = false;
            let cap = slot.cap();
            slot.parked = cap == 0;
            (ops, cap)
        };
        if !self.slots[i].grant_dirty {
            self.slots[i].grant_dirty = true;
            self.touched.push(i as u32);
        }
        if cap > 0 {
            for op in 0..ops {
                let delta = {
                    let slot = &self.slots[i];
                    slot.walk
                        .as_ref()
                        .expect("just built")
                        .weighted_marginal_benefit(op)
                };
                self.ascent.push(Ascend(WarmEntry {
                    delta,
                    slot: i as u32,
                    op: op as u32,
                    generation,
                    seq: 0,
                }));
            }
        }
    }

    /// Whether a heap entry still refers to live warm state.
    fn entry_live(&self, e: &WarmEntry) -> bool {
        match self.slots.get(e.slot as usize) {
            Some(slot) => e.generation == slot.generation && e.seq == slot.op_seq[e.op as usize],
            None => false,
        }
    }

    /// Discards stale entries (and parks at-cap slots) until the ascent top
    /// is a live frontier step of a below-cap slot, returning it un-popped.
    fn clean_ascent_top(&mut self) -> Option<WarmEntry> {
        loop {
            let e = self.ascent.peek()?.0;
            if !self.entry_live(&e) {
                self.ascent.pop();
                continue;
            }
            let slot = &mut self.slots[e.slot as usize];
            if slot.taken_total >= slot.cap() {
                // At its demand cap: this frontier cannot compete (the
                // from-scratch loop discards candidates of saturated
                // shards the same way). Park the slot; a revoke dropping
                // it below the cap re-enters every frontier.
                slot.parked = true;
                self.ascent.pop();
                continue;
            }
            return Some(e);
        }
    }

    /// Discards stale entries until the descent top is a live weakest taken
    /// step, returning it un-popped.
    fn clean_descent_top(&mut self) -> Option<WarmEntry> {
        loop {
            let e = self.descent.peek()?.0;
            if !self.entry_live(&e) {
                self.descent.pop();
                continue;
            }
            return Some(e);
        }
    }

    /// After slot `i`'s op moved (or re-entered): stamp a fresh sequence
    /// number — staling both of the op's old heap entries — and push its
    /// current frontier step and (if any step is held) weakest taken step.
    fn refresh_op(&mut self, i: usize, op: usize) {
        let slot = &self.slots[i];
        let entry = WarmEntry {
            delta: slot.frontier_eff(op),
            slot: i as u32,
            op: op as u32,
            generation: slot.generation,
            seq: slot.op_seq[op],
        };
        self.ascent.push(Ascend(entry));
        if let Some(&top) = slot.taken[op].last() {
            self.descent.push(Descend(WarmEntry {
                delta: top,
                ..entry
            }));
        }
    }

    /// Marks slot `i`'s grant for rewriting (deduplicated).
    fn mark_touched(&mut self, i: usize) {
        if !self.slots[i].grant_dirty {
            self.slots[i].grant_dirty = true;
            self.touched.push(i as u32);
        }
    }

    /// Takes the globally best frontier step (walk increment). `false` when
    /// every slot sits at its demand cap.
    fn take_best(&mut self) -> bool {
        let Some(e) = self.clean_ascent_top() else {
            return false;
        };
        self.ascent.pop();
        let i = e.slot as usize;
        let op = e.op as usize;
        {
            let slot = &mut self.slots[i];
            slot.op_seq[op] += 1;
            slot.walk.as_mut().expect("live entry").increment(op);
            // The entry's δ *is* the effective (clamped) δ of this step.
            slot.taken[op].push(e.delta);
            slot.taken_total += 1;
        }
        self.sum_taken += 1;
        self.mark_touched(i);
        self.refresh_op(i, op);
        true
    }

    /// Revokes the globally weakest taken step (walk decrement — the O(1)
    /// step-down machinery's production caller). Un-parks the slot when the
    /// revoke drops it below its demand cap.
    fn revoke_weakest(&mut self) {
        let e = self
            .clean_descent_top()
            .expect("taken steps outstanding imply a live descent top");
        self.descent.pop();
        let i = e.slot as usize;
        let op = e.op as usize;
        let was_at_cap = {
            let slot = &mut self.slots[i];
            let was_at_cap = slot.taken_total >= slot.cap();
            slot.op_seq[op] += 1;
            slot.walk.as_mut().expect("live entry").decrement(op);
            let popped = slot.taken[op].pop().expect("live descent entry");
            debug_assert_eq!(popped.to_bits(), e.delta.to_bits());
            slot.taken_total -= 1;
            was_at_cap
        };
        self.sum_taken -= 1;
        self.mark_touched(i);
        self.refresh_op(i, op);
        if was_at_cap {
            self.unpark(i);
        }
    }

    /// Re-enters every frontier step of a previously parked slot (its
    /// at-cap frontiers were discarded lazily; now that it is below its cap
    /// again they must compete). Stamps fresh sequence numbers so any
    /// surviving old entries of this slot go stale rather than duplicate.
    fn unpark(&mut self, i: usize) {
        if !self.slots[i].parked {
            return;
        }
        let ops = {
            let slot = &mut self.slots[i];
            slot.parked = false;
            for s in &mut slot.op_seq {
                *s += 1;
            }
            slot.op_seq.len()
        };
        for op in 0..ops {
            self.refresh_op(i, op);
        }
    }

    /// Rebuilds a heap in place once stale entries dominate it (rare;
    /// amortized against the pushes that bloated it).
    fn maybe_compact(&mut self) {
        let cap = 4 * self.total_ops + 64;
        if self.ascent.len() > cap {
            let heap = std::mem::take(&mut self.ascent);
            let live: Vec<Ascend> = heap
                .into_vec()
                .into_iter()
                .filter(|e| self.entry_live(&e.0))
                .collect();
            self.ascent = std::collections::BinaryHeap::from(live);
        }
        if self.descent.len() > cap {
            let heap = std::mem::take(&mut self.descent);
            let live: Vec<Descend> = heap
                .into_vec()
                .into_iter()
                .filter(|e| self.entry_live(&e.0))
                .collect();
            self.descent = std::collections::BinaryHeap::from(live);
        }
    }
}

/// Configuration of a [`FleetDriver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetDriverConfig {
    /// The global processor budget shared by every shard.
    pub k_max: u32,
    /// Measurement window length in seconds (every shard advances by this
    /// much each fleet step).
    pub window_secs: f64,
    /// Windows to observe before the first negotiation (estimates are
    /// unreliable while queues fill).
    pub warmup_windows: u64,
    /// Smoothing applied to each shard's measurement streams.
    pub smoothing: Smoothing,
    /// Pause charged to a shard for each rebalance (seconds) — the fleet
    /// re-assigns executors within a fixed machine pool, so the cheap
    /// steady-state pause of the improved DRS re-balancing applies.
    pub pause_secs: f64,
    /// The per-shard rebalance cost/benefit gate (paper App. B-B), applied
    /// before any grant is actuated: a grant that differs from the running
    /// allocation is executed only when the shard's own model says the
    /// move is worth its pause. This is what keeps noise-driven ±1 grant
    /// wobble from re-balancing every shard every window. One exception:
    /// while the budget is *contended*, shrinks bypass the gate — capped
    /// shards are starving, so freed capacity must actually flow.
    pub decision: DecisionPolicy,
    /// Lease length for shard liveness, in windows: a shard that produces
    /// no usable measurement report for this many *consecutive* windows is
    /// presumed dead — its executors stop reserving budget and the
    /// negotiator re-offers them to starved shards. The first usable
    /// report renews the lease. `0` disables the check (no shard is ever
    /// presumed dead).
    pub lease_windows: u64,
    /// Per-window decay applied to the credibility of stale measurement
    /// evidence: a sample whose oldest substituted rate is `a` windows old
    /// enters the smoother with weight `stale_decay^a` (see
    /// [`SampleBuilder::weight`]). `1.0` disables staleness discounting;
    /// values are clamped to `(0, 1]`.
    pub stale_decay: f64,
    /// Whether every window is appended to [`FleetDriver::timeline`]
    /// (default `true`). Large fleets driven for many windows turn this
    /// off: the driver then keeps only [`FleetDriver::last_window`] —
    /// updated in place, so a steady-state window records itself without
    /// allocating — and `timeline()` stays empty.
    pub record_timeline: bool,
    /// Relative dead-band on measured edge rates for placement-epoch
    /// purposes: a shard's cached placement inputs count as *changed*
    /// (bumping its placement epoch and re-solving its machine
    /// assignment) only when an edge's new rate differs from the cached
    /// one by more than this fraction of the cached rate. Absorbs
    /// measurement wobble that would otherwise dirty every shard every
    /// window; allocation or resource-profile changes always count.
    /// `0.0` disables the band (any rate movement re-places the shard).
    pub placement_rate_band: f64,
}

impl FleetDriverConfig {
    /// A sensible fleet configuration for the given budget: 60 s windows,
    /// 2 warmup windows, α = 0.5 smoothing, 0.5 s rebalance pause, the
    /// default decision gate hardened for fleet noise
    /// (`min_executor_savings` = 2, so a one-executor scale-down — the
    /// classic noise wobble — never pays for a pause on its own), a
    /// 3-window liveness lease, 0.5 per-window stale-evidence decay, and
    /// a 5% placement rate band.
    pub fn new(k_max: u32) -> Self {
        FleetDriverConfig {
            k_max,
            window_secs: 60.0,
            warmup_windows: 2,
            smoothing: Smoothing::Alpha { alpha: 0.5 },
            pause_secs: 0.5,
            decision: DecisionPolicy {
                min_executor_savings: 2,
                ..DecisionPolicy::default()
            },
            lease_windows: 3,
            stale_decay: 0.5,
            record_timeline: true,
            placement_rate_band: 0.05,
        }
    }
}

/// Per-shard placement metadata for fleets that share a machine pool
/// ([`FleetDriver::set_machine_pool`]): what one executor of each model
/// operator costs and how tuples flow between operators. Shards without
/// this metadata keep negotiating executor *counts* but receive no machine
/// assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlacementInfo {
    /// Per-executor resource demand of each model operator (model order).
    /// Missing entries default to [`ResourceProfile::default`].
    pub profiles: Vec<ResourceProfile>,
    /// Directed edges between model operators as `(from, to, gain)`: the
    /// edge's tuple rate this window is `gain` times operator `from`'s
    /// measured arrival rate (falling back to `gain` alone while the rate
    /// is unmeasured).
    pub edges: Vec<(usize, usize, f64)>,
}

impl ShardPlacementInfo {
    /// The measured tuple rate on edge `(from, gain)` this window.
    fn edge_rate(&self, from: usize, gain: f64, sample: &WindowSample) -> f64 {
        gain * sample
            .operators
            .get(from)
            .and_then(|o| o.arrival_rate)
            .unwrap_or(1.0)
    }

    /// The placement request for running `allocation` given this window's
    /// measured `sample`.
    pub fn request(&self, allocation: &[u32], sample: &WindowSample) -> PlacementRequest {
        let mut out = PlacementRequest::default();
        self.request_into(&mut out, allocation, sample);
        out
    }

    /// [`ShardPlacementInfo::request`] into a reused buffer — the
    /// allocation-free form the warm placement state rewrites in place.
    pub fn request_into(
        &self,
        out: &mut PlacementRequest,
        allocation: &[u32],
        sample: &WindowSample,
    ) {
        out.operators.clear();
        out.operators
            .extend(allocation.iter().enumerate().map(|(i, &k)| OperatorLoad {
                executors: k,
                profile: self.profiles.get(i).copied().unwrap_or_default(),
            }));
        out.edges.clear();
        out.edges
            .extend(self.edges.iter().map(|&(from, to, gain)| EdgeTraffic {
                from,
                to,
                rate: self.edge_rate(from, gain, sample),
            }));
    }

    /// Whether `cached` still describes running `allocation` under this
    /// window's `sample`, up to the relative `rate_band` on edge rates:
    /// executor counts and resource profiles must match exactly, while an
    /// edge rate may drift within `rate_band` of the cached rate without
    /// counting as a change. This is the placement-epoch predicate — a
    /// `false` here is what dirties a shard's machine assignment.
    pub fn request_matches(
        &self,
        cached: &PlacementRequest,
        allocation: &[u32],
        sample: &WindowSample,
        rate_band: f64,
    ) -> bool {
        if cached.operators.len() != allocation.len() || cached.edges.len() != self.edges.len() {
            return false;
        }
        for (i, (op, &k)) in cached.operators.iter().zip(allocation).enumerate() {
            if op.executors != k || op.profile != self.profiles.get(i).copied().unwrap_or_default()
            {
                return false;
            }
        }
        for (edge, &(from, to, gain)) in cached.edges.iter().zip(&self.edges) {
            if edge.from != from || edge.to != to {
                return false;
            }
            let rate = self.edge_rate(from, gain, sample);
            if (rate - edge.rate).abs() > rate_band * edge.rate.abs() {
                return false;
            }
        }
        true
    }
}

/// One shard handed to [`FleetDriver::new`]: a named backend plus its
/// latency target.
#[derive(Debug)]
pub struct FleetShardSpec<B> {
    /// Shard name (shown in timelines; should be unique).
    pub name: String,
    /// The shard's real-time constraint `Tmax` in seconds: each window the
    /// shard demands its Program 6 answer
    /// ([`scheduler::min_processors_for_target`]) for this target.
    pub t_max_secs: f64,
    /// The shard's CSP backend.
    pub backend: B,
    /// Placement metadata, for fleets that share a machine pool (optional;
    /// see [`ShardPlacementInfo`]).
    pub placement: Option<ShardPlacementInfo>,
}

impl<B> FleetShardSpec<B> {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, t_max_secs: f64, backend: B) -> Self {
        FleetShardSpec {
            name: name.into(),
            t_max_secs,
            backend,
            placement: None,
        }
    }

    /// Declares placement metadata (builder style).
    pub fn with_placement(mut self, info: ShardPlacementInfo) -> Self {
        self.placement = Some(info);
        self
    }
}

/// Error from [`FleetDriver::new`].
#[derive(Debug, Clone, PartialEq)]
pub enum FleetDriverError {
    /// No shards were supplied.
    NoShards,
    /// The window length is not a positive finite number of seconds.
    InvalidWindow(f64),
    /// A shard's latency target is not positive and finite.
    InvalidTarget {
        /// The shard's name.
        shard: String,
        /// The offending target.
        t_max_secs: f64,
    },
    /// The smoothing configuration is invalid.
    Smoothing(crate::measurer::InvalidSmoothing),
    /// A shard's backend exposes no model operators.
    NoOperators {
        /// The shard's name.
        shard: String,
    },
}

impl fmt::Display for FleetDriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetDriverError::NoShards => write!(f, "a fleet needs at least one shard"),
            FleetDriverError::InvalidWindow(w) => {
                write!(f, "window length must be positive and finite, got {w}")
            }
            FleetDriverError::InvalidTarget { shard, t_max_secs } => write!(
                f,
                "shard {shard}: latency target must be positive and finite, got {t_max_secs}"
            ),
            FleetDriverError::Smoothing(e) => write!(f, "{e}"),
            FleetDriverError::NoOperators { shard } => {
                write!(f, "shard {shard}: backend exposes no model operators")
            }
        }
    }
}

impl std::error::Error for FleetDriverError {}

/// One shard's slice of a [`FleetWindow`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPoint {
    /// The shard's name. Recorded per window because churn
    /// ([`FleetDriver::add_shard`] / [`FleetDriver::remove_shard`]) can
    /// shift shard indices mid-run — correlate timelines by name, not
    /// position.
    pub name: String,
    /// Whether the shard's liveness lease was expired this window (no
    /// usable report for [`FleetDriverConfig::lease_windows`] consecutive
    /// windows): the shard is presumed dead, its executors are excluded
    /// from [`FleetWindow::total_granted`] and its budget is re-offered.
    pub dead: bool,
    /// Measured mean complete sojourn time in milliseconds, when any tuple
    /// finished in the window.
    pub mean_sojourn_ms: Option<f64>,
    /// Tuples the shard fully processed during the window.
    pub completed: u64,
    /// The shard's model-operator allocation at the end of the window. A
    /// rebalance applied this window counts from this window (the same
    /// convention as `DrsDriver`'s timeline), even while the backend is
    /// still charging the rebalance pause.
    pub allocation: Vec<u32>,
    /// Total executors the shard's own single-topology schedule demanded
    /// this window (`None` during warmup or while the shard has no usable
    /// model).
    pub demand: Option<u64>,
    /// Whether the negotiator capped this shard below its demand.
    pub capped: bool,
    /// Whether a rebalance was applied to this shard during the window.
    pub rebalanced: bool,
    /// Whether the negotiator's grant differed from the running allocation
    /// but the cost/benefit gate kept the current one (noise damping).
    pub gated: bool,
    /// Shard-level error this window (model fit, scheduling or a backend
    /// refusal), if any.
    pub error: Option<String>,
}

impl ShardPoint {
    /// Total executors the shard runs at the end of the window.
    pub fn granted(&self) -> u64 {
        executor_total(&self.allocation)
    }
}

/// One fleet measurement window: every shard advanced once, one central
/// negotiation round.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetWindow {
    /// Window index (0-based).
    pub window: u64,
    /// Whether demand exceeded the budget this window (some plan was
    /// capped).
    pub contended: bool,
    /// Total executors in force across the fleet at the end of the
    /// window, counting live shards only — a dead shard's executors are
    /// reclaimed (see [`ShardPoint::dead`]).
    pub total_granted: u64,
    /// Per-shard records, in shard index order (independent of the order
    /// shards were advanced in).
    pub shards: Vec<ShardPoint>,
    /// Fleet-level negotiation error, if the round could not be arbitrated
    /// (every shard keeps its previous allocation).
    pub error: Option<String>,
}

/// The phases of one [`FleetDriver`] control window, in the order they
/// run: the names [`FleetDriver::phase_times`] reports their wall times
/// under (see the [module docs](self#the-control-window)).
pub const WINDOW_PHASES: [&str; 9] = [
    "pass",
    "negotiate",
    "gate",
    "present",
    "replan",
    "order",
    "actuate",
    "moves",
    "record",
];

/// Index of each entry of [`WINDOW_PHASES`].
#[derive(Debug, Clone, Copy)]
enum Phase {
    Pass,
    Negotiate,
    Gate,
    Present,
    Replan,
    Order,
    Actuate,
    Moves,
    Record,
}

/// Stamps a window's phases into a fixed array: one clock read per phase
/// boundary, no allocation.
struct PhaseClock {
    times: [Duration; WINDOW_PHASES.len()],
    last: Instant,
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock {
            times: [Duration::ZERO; WINDOW_PHASES.len()],
            last: Instant::now(),
        }
    }

    /// Ends `phase`: charges it the time since the previous boundary.
    fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        self.times[phase as usize] = now - self.last;
        self.last = now;
    }
}

/// Per-shard loop state owned by the driver.
#[derive(Debug, Clone)]
struct ShardState<B> {
    name: String,
    t_max_secs: f64,
    backend: B,
    samples: SampleBuilder,
    measurer: Measurer,
    /// Last actuation epoch issued to this shard's backend (strictly
    /// increasing; stale/duplicate commands are rejected shard-side).
    epoch: u64,
    /// Capped-backoff retry state for unacknowledged actuations.
    retry: ActuationRetry,
    /// Liveness lease expired: no usable report for `lease_windows`
    /// consecutive windows.
    dead: bool,
    /// Placement metadata (when the fleet shares a machine pool).
    placement_info: Option<ShardPlacementInfo>,
    /// The machine assignment currently in force on the backend.
    placement: Option<Placement>,
    /// [`placement::FleetPlacementState::solve_id`] of the solve that
    /// produced `placement` (0: none). While the shard's warm slot still
    /// carries this id, the planned assignment *is* the one in force —
    /// phase 5b's O(1) test, in place of comparing the two assignments.
    placement_id: u64,
    /// [`Measurer::epoch`] at the last model refit; `u64::MAX` forces one.
    /// While the epoch stands still the shard's packed demand
    /// (`FleetScratch::demands`) and `demand_error` below are authoritative
    /// and the refit is skipped.
    demand_epoch: u64,
    /// The fit error at `demand_epoch`, replayed into the timeline each
    /// window while the broken estimates stand still.
    demand_error: Option<String>,
}

/// Per-window working buffers, reused across windows so the fleet loop
/// allocates nothing per shard in steady state (the per-shard `Vec`s this
/// replaces dominated the loop's allocation profile). A window resets the
/// per-shard flags of the shards it visited on its way out, so the next
/// one starts clean without sweeping the fleet; only a full window (see
/// [`FleetDriver::run_window`]) re-sizes and clears everything. The packed
/// demand buffer (`demands`/`demand_idx`) deliberately persists across
/// windows, so unchanged shards hand the incremental negotiator
/// bitwise-identical slots — its no-op fast path.
#[derive(Debug, Clone, Default)]
struct FleetScratch {
    /// Permutation check for a caller-supplied advance order.
    seen: Vec<bool>,
    /// This window's measurement report per shard (buffers reused; every
    /// entry is overwritten by `advance_into` before it is read).
    samples: Vec<WindowSample>,
    /// The raw sample of the shard being measured, built from its report
    /// and fed to its measurer at once.
    raw: RawSample,
    /// Actuation or placement error per shard (a refit error stays on the
    /// shard, `ShardState::demand_error`).
    errors: Vec<Option<String>>,
    /// Index into `demands` per shard (`None`: no usable model). Slots
    /// ascend with the shard index. Persists across windows together with
    /// `demands`; [`FleetDriver::remove_shard`] keeps both aligned.
    demand_idx: Vec<Option<u32>>,
    /// `demand_idx` inverted: the shard of each packed demand slot.
    demand_shard: Vec<usize>,
    /// Packed negotiation demands, one per modeled shard in shard index
    /// order — the only copy of a shard's fitted demand outside the
    /// negotiator's cache. A refit rewrites the shard's slot in place and
    /// the list is handed to the negotiator directly.
    demands: Vec<ShardDemand>,
    /// Shards that gained (`Some`, their first fit) or lost (`None`) their
    /// model this window: `demands` is re-packed around them.
    remodeled: Vec<(usize, Option<ShardDemand>)>,
    /// The smoothed estimates of the shard being refitted.
    estimates: SmoothedEstimates,
    capped: Vec<bool>,
    /// The shard's decision gate holds its grant: it keeps what it runs.
    gated: Vec<bool>,
    /// Shrinks the gate-aware pass promoted to urgent (holding them would
    /// starve another shard): they bypass the actuation-time gate.
    urgent: Vec<bool>,
    rebalanced: Vec<bool>,
    /// Whether this window's negotiation succeeded (the negotiator's
    /// published grants are usable).
    negotiated_ok: bool,
    /// The gate-aware re-offer was accepted: every ungated modeled shard
    /// resolves to its floored desire, not its (possibly capped) grant.
    reoffered: bool,
    /// The allocation in force per shard, cached once per window (buffers
    /// reused), replaced by what a rebalance put in force, and kept across
    /// windows, so the pass can tell which shards' allocations moved.
    current_allocs: Vec<Vec<u32>>,
    /// The running allocation as just read, before it is compared with
    /// `current_allocs`.
    alloc_buf: Vec<u32>,
    /// This window's change list: the shards every phase after the
    /// per-shard pass visits, in index order from the negotiation on.
    visit: Vec<usize>,
    /// Membership of `visit`, per shard.
    listed: Vec<bool>,
    /// The shards the last window left unsettled: they open the next
    /// window's change list.
    carry: Vec<usize>,
    /// The shards whose grant differs from what they run, shrinks first.
    actuation_order: Vec<usize>,
    /// The growers among them, until they are appended to the order.
    growers: Vec<usize>,
    /// Shards held back by the gate-aware pass.
    held: Vec<usize>,
    /// This window's solved machine assignment per visited shard, as a
    /// slot into the warm placement state (`place`) — the placement itself
    /// stays cached there and is cloned only when a command actually
    /// carries it.
    planned_slots: Vec<Option<u32>>,
    /// The warm-start placement cache (persists across windows): cached
    /// requests, solved placements, residual pool capacity, per-shard
    /// placement epochs. See [`placement::FleetPlacementState`].
    place: placement::FleetPlacementState,
    /// Shard index → warm-state slot, persisted across windows. Valid
    /// while the roster stands still (`place_roster`); re-validated by
    /// name after churn, which shifts shard indices.
    place_slots: Vec<Option<u32>>,
    /// `place_slots` inverted: the shard each warm-state slot was last
    /// presented for, to visit the shards `replan` re-solved.
    place_owner: Vec<usize>,
    /// [`FleetDriver::roster`] as of the last validation of `place_slots`.
    place_roster: u64,
}

impl FleetScratch {
    /// Starts a window over `n` shards. A full window re-sizes and clears
    /// every per-shard buffer and lists every shard; any other finds the
    /// flags already clean and starts its change list from the shards the
    /// last window left unsettled. The packed demands survive untouched.
    fn reset(&mut self, n: usize, full: bool) {
        self.negotiated_ok = false;
        self.reoffered = false;
        self.actuation_order.clear();
        self.held.clear();
        self.visit.clear();
        if !full {
            for idx in 0..self.carry.len() {
                self.list(self.carry[idx]);
            }
            self.carry.clear();
            return;
        }
        self.carry.clear();
        self.listed.clear();
        self.listed.resize(n, true);
        self.visit.extend(0..n);
        self.samples.resize_with(n, WindowSample::default);
        self.errors.clear();
        self.errors.resize_with(n, || None);
        // A joined shard starts without a model; a removed one already
        // took its entry with it.
        self.demand_idx.resize(n, None);
        self.capped.clear();
        self.capped.resize(n, false);
        self.gated.clear();
        self.gated.resize(n, false);
        self.urgent.clear();
        self.urgent.resize(n, false);
        self.rebalanced.clear();
        self.rebalanced.resize(n, false);
        self.current_allocs.resize_with(n, Vec::new);
        self.planned_slots.clear();
        self.planned_slots.resize(n, None);
        // `place`/`place_slots` persist across windows (the warm-start
        // placement cache); see `place_roster`.
        if self.place_slots.len() != n {
            self.place_slots.clear();
            self.place_slots.resize(n, None);
        }
    }

    /// Adds shard `i` to this window's change list (once).
    fn list(&mut self, i: usize) {
        if !self.listed[i] {
            self.listed[i] = true;
            self.visit.push(i);
        }
    }

    /// Re-derives `demand_shard` from `demand_idx`.
    fn index_demands(&mut self) {
        self.demand_shard.clear();
        let slots = self.demand_idx.iter().enumerate();
        self.demand_shard
            .extend(slots.filter_map(|(i, slot)| slot.map(|_| i)));
    }

    /// Re-packs `demands` around the shards in `remodeled`, keeping it in
    /// shard index order: a shard that lost its model gives its slot up, a
    /// newly modeled one takes the slot its index calls for, and every
    /// other demand moves (never clones) to its new slot. Runs only on
    /// windows where the modeled set changed — the first negotiated one,
    /// deaths, revivals, joins.
    fn repack_demands(&mut self) {
        self.remodeled.sort_unstable_by_key(|&(shard, _)| shard);
        let mut changes = std::mem::take(&mut self.remodeled).into_iter().peekable();
        let old = std::mem::take(&mut self.demands);
        self.demands.reserve(old.len() + changes.len());
        let mut old = old.into_iter();
        for (i, slot) in self.demand_idx.iter_mut().enumerate() {
            // Slots ascend with the shard index, so the next old entry is
            // this shard's.
            let kept = slot
                .take()
                .map(|_| old.next().expect("one packed demand per slot"));
            let demand = match changes.next_if(|&(shard, _)| shard == i) {
                Some((_, fresh)) => fresh,
                None => kept,
            };
            if let Some(demand) = demand {
                *slot = Some(slot_u32(self.demands.len()));
                self.demands.push(demand);
            }
        }
        self.index_demands();
    }

    /// The allocation shard `i` should actuate this window: `None` when
    /// negotiation failed, the shard has no usable model, or its gate holds
    /// the grant; its floored desire where the re-offer was accepted; the
    /// negotiator's published grant otherwise. Borrow-split from the driver
    /// so callers can hold the negotiator and the scratch independently.
    fn grant<'a>(&'a self, negotiator: &'a FleetNegotiator, i: usize) -> Option<&'a [u32]> {
        if !self.negotiated_ok || self.gated[i] {
            return None;
        }
        let slot = self.demand_idx.get(i).copied().flatten()? as usize;
        Some(if self.reoffered {
            negotiator.slots[slot].desired_floored()
        } else {
            &negotiator.grants[slot].allocation
        })
    }
}

/// The fleet control loop: one DRS loop per shard, contention resolved
/// centrally each window by a [`FleetNegotiator`].
///
/// See the [module docs](self) for the scheme, the degraded-channel
/// contract, and a runnable example.
#[derive(Debug, Clone)]
pub struct FleetDriver<B: CspBackend> {
    shards: Vec<ShardState<B>>,
    /// Shared copy-on-write: [`FleetDriver::checkpoint`] clones the `Arc`,
    /// not the negotiator's warm state; [`Arc::make_mut`] at the negotiate
    /// site deep-clones lazily, only when a driver that still shares the
    /// state with a checkpoint (or a restored branch) next negotiates.
    negotiator: Arc<FleetNegotiator>,
    config: FleetDriverConfig,
    machine_pool: Option<PlacementPool>,
    wasted_grants: u64,
    scratch: FleetScratch,
    timeline: Vec<FleetWindow>,
    /// Windows completed so far — the window counter even when
    /// [`FleetDriverConfig::record_timeline`] keeps `timeline` empty.
    completed_windows: u64,
    /// The most recent window's record, maintained in place (no per-window
    /// allocation in steady state).
    last_window: FleetWindow,
    /// Reused index-order buffer backing [`FleetDriver::step`].
    order_buf: Vec<usize>,
    /// Roster generation: bumped whenever a shard joins or leaves, i.e.
    /// whenever shard indices and names can part ways. What is keyed by
    /// shard index across windows (the placement slot map, the names in
    /// `last_window`) is trusted while this stands still and re-derived by
    /// name when it moved.
    roster: u64,
    /// `roster` as of the names written into `last_window`.
    recorded_roster: u64,
    /// [`FleetDriver::set_machine_pool`] ran since the last placement
    /// phase: the next one presents every shard.
    pool_changed: bool,
    /// Wall time of each phase of the last window ([`WINDOW_PHASES`]).
    phase_times: [Duration; WINDOW_PHASES.len()],
}

/// A snapshot of the full fleet control plane — negotiator, per-shard
/// measurement/epoch/backoff state, timeline, and the backends themselves
/// (including any virtual clocks a simulator backend carries).
///
/// Taken with [`FleetDriver::checkpoint`]; a checkpoint can be restored
/// any number of times ([`FleetDriver::from_checkpoint`]) so long
/// scenario sweeps branch from a common prefix instead of replaying it.
/// Continuing from a restore is bit-identical to never having stopped —
/// the checkpoint round-trip tests lock this in.
#[derive(Debug, Clone)]
pub struct FleetCheckpoint<B: CspBackend> {
    driver: FleetDriver<B>,
}

impl<B: CspBackend> FleetCheckpoint<B> {
    /// The fleet window index the checkpoint was taken at (number of
    /// completed windows).
    pub fn window(&self) -> u64 {
        self.driver.completed_windows
    }
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
            states.push(Self::shard_state(&config, spec)?);
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
            order_buf: Vec::new(),
            // Ahead of both stamps: the first window derives everything.
            roster: 1,
            recorded_roster: 0,
            pool_changed: false,
            phase_times: [Duration::ZERO; WINDOW_PHASES.len()],
        })
    }

    /// Validates a spec and builds its fresh loop state.
    fn shard_state(
        config: &FleetDriverConfig,
        spec: FleetShardSpec<B>,
    ) -> Result<ShardState<B>, FleetDriverError> {
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
            epoch: 0,
            retry: ActuationRetry::default(),
            dead: false,
            placement_info: spec.placement,
            placement: None,
            placement_id: 0,
            demand_epoch: u64::MAX,
            demand_error: None,
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
        let state = Self::shard_state(&self.config, spec)?;
        self.shards.push(state);
        self.roster += 1;
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
        self.roster += 1;
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
    pub fn shard_dead(&self, i: usize) -> bool {
        self.shards[i].dead
    }

    /// Shard `i`'s capped-backoff retry state (see
    /// [`crate::driver::ActuationRetry`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn actuation_retry(&self, i: usize) -> &ActuationRetry {
        &self.shards[i].retry
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
    /// shards that declared [`ShardPlacementInfo`]) and threads it through
    /// the control plane — a shard that rebalances carries its assignment
    /// in [`RebalancePlan::placement`], and a shard whose executor counts
    /// are unchanged but whose assignment moved receives it via
    /// [`CspBackend::apply_placement`].
    pub fn set_machine_pool(&mut self, pool: PlacementPool) {
        self.machine_pool = Some(pool);
        self.pool_changed = true;
    }

    /// The shared machine pool, when one is installed.
    pub fn machine_pool(&self) -> Option<&PlacementPool> {
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
    /// performed (see [`placement::FleetPlacementState::solver_calls`]).
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

    /// Forces the next placement-enabled window to batch re-solve every
    /// shard from scratch (see
    /// [`placement::FleetPlacementState::invalidate`]).
    pub fn invalidate_placement_cache(&mut self) {
        self.scratch.place.invalidate();
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
        let mut order = std::mem::take(&mut self.order_buf);
        order.clear();
        order.extend(0..self.shards.len());
        self.run_window(&order);
        self.order_buf = order;
        &self.last_window
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
        self.run_window(order)
    }

    /// One fleet window over `order`, a permutation of the shard indices:
    /// the phases of the [module docs](self#the-control-window). Only the
    /// per-shard pass walks every shard; every later phase walks the
    /// window's change list (`FleetScratch::visit`), whose sources the
    /// module docs list. A window is **full** — every shard listed, every
    /// per-shard buffer re-sized — on a roster change, the first negotiated
    /// window, or a new machine pool.
    fn run_window(&mut self, order: &[usize]) -> &FleetWindow {
        let n = self.shards.len();
        let mut clock = PhaseClock::start();
        // The scratch buffers live on the driver so the loop allocates
        // nothing per shard in steady state; taken out for the duration of
        // the step to keep the borrow checker happy, put back at the end.
        let mut scratch = std::mem::take(&mut self.scratch);
        let window = self.completed_windows;
        let negotiating = window >= self.config.warmup_windows;
        let placing = negotiating && self.machine_pool.is_some();
        let full = self.recorded_roster != self.roster
            || (negotiating && window == self.config.warmup_windows)
            || (placing && (self.pool_changed || scratch.place_roster != self.roster));
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
        // Executors in force on live shards (a dead shard's are ghosts), and
        // on the live ones without a usable model: those are reserved out
        // of the budget before the modeled shards negotiate.
        let (mut live_total, mut reserved) = (0u64, 0u64);

        // 1. The per-shard pass. The sample, raw-sample, estimate and
        //    demand buffers are all reused window over window.
        for &i in order {
            let shard = &mut self.shards[i];
            let sample = &mut scratch.samples[i];
            shard.backend.advance_into(self.config.window_secs, sample);
            // A placed shard's request follows its measured arrival rates:
            // unmoved since last window, it compares as it did then.
            let rates_moved =
                shard.placement_info.is_some() && !shard.samples.arrivals_unchanged(sample);
            // Stale evidence enters the smoother discounted by
            // `stale_decay^age`, and a run of `lease_windows` fully-missed
            // reports expires the shard's liveness lease; the first usable
            // report renews it.
            if shard.samples.build_into(sample, &mut scratch.raw) {
                let weight = shard.samples.weight(self.config.stale_decay);
                shard.measurer.observe_weighted(&scratch.raw, weight);
            }
            let was_dead = shard.dead;
            shard.dead = self.config.lease_windows > 0
                && shard.samples.missed_windows() >= self.config.lease_windows;
            // The measured fields are the only ones of the record that
            // move on a shard the window does not visit.
            let point = &mut self.last_window.shards[i];
            point.mean_sojourn_ms = sample.mean_sojourn.map(|s| s * 1e3);
            point.completed = sample.completed;
            // The running allocation, cached once for the window (every
            // later phase reads it instead of re-asking the backend).
            shard
                .backend
                .current_allocation_into(&mut scratch.alloc_buf);
            let resized = scratch.alloc_buf != scratch.current_allocs[i];
            if resized {
                scratch.current_allocs[i].clone_from(&scratch.alloc_buf);
            }
            let current_total = executor_total(&scratch.current_allocs[i]);
            if resized || rates_moved || shard.dead != was_dead {
                scratch.list(i);
            }
            if !shard.dead {
                live_total += current_total;
            }
            if !negotiating {
                continue;
            }

            // The shard's own single-topology demand. The refit runs only
            // when the smoothed estimates actually moved
            // (`Measurer::epoch`); a steady shard keeps its packed demand,
            // which also hands the negotiator a bitwise-identical slot —
            // its no-op fast path. A dead shard submits none: its (stale)
            // model must not keep claiming budget for a machine that is
            // gone.
            let slot = scratch.demand_idx[i];
            if shard.dead {
                // Forget the fit so a revived shard refits at once. Its
                // executors are ghosts: they reserve nothing either.
                shard.demand_epoch = u64::MAX;
                shard.demand_error = None;
                if slot.is_some() {
                    scratch.remodeled.push((i, None));
                }
                continue;
            }
            let mut modeled = slot.is_some();
            let epoch = shard.measurer.epoch();
            if epoch != shard.demand_epoch {
                shard.demand_epoch = epoch;
                let mut fresh = None;
                let demand = match slot {
                    Some(slot) => &mut scratch.demands[slot as usize],
                    None => fresh.insert(ShardDemand::unfitted()),
                };
                let fit = refit_demand(
                    &shard.measurer,
                    &mut scratch.estimates,
                    shard.t_max_secs,
                    self.config.k_max,
                    demand,
                );
                modeled = matches!(fit, Ok(true));
                shard.demand_error = fit.err();
                // A demand whose total moved reaches the change list through
                // the negotiator: Program 6 never asks below the stability
                // floor, so its floored desire moves with it.
                if modeled != slot.is_some() {
                    scratch.remodeled.push((i, fresh.filter(|_| modeled)));
                }
            }
            // The record replays a standing refit error every window.
            if shard.demand_error.is_some() {
                scratch.list(i);
            }
            if !modeled {
                reserved += current_total;
            }
        }
        clock.lap(Phase::Pass);

        if negotiating {
            // 2. Keep the packed demands in shard index order. Every shard
            //    from the first re-packed one on has a new slot, so its
            //    negotiated state is re-derived: each is visited.
            if let Some(first) = scratch.remodeled.iter().map(|&(i, _)| i).min() {
                scratch.repack_demands();
                for i in first..n {
                    scratch.list(i);
                }
            }

            // 3. Central arbitration — warm-start incremental: per-window
            //    cost is O(changed slots + executor moves), zero heap
            //    allocations when nothing changed. Shards without a usable
            //    model keep their current allocation; their executors are
            //    reserved out of the budget before the others negotiate.
            //    Dead shards reserve nothing — lease expiry is precisely
            //    the signal that their grants are reclaimed and re-offered.
            let budget = u32::try_from(u64::from(self.config.k_max).saturating_sub(reserved))
                .expect("reserved budget is clamped below k_max, which fits in u32");
            if !scratch.demands.is_empty() {
                // `make_mut` only clones when a checkpoint still shares
                // the warm state; a driver that never branched mutates in
                // place with no per-window cost.
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
                    Err(e) => fleet_error = Some(e.to_string()),
                }
            }
            scratch.visit.sort_unstable();
            clock.lap(Phase::Negotiate);

            // 3b. Gate-aware wobble pass: consult each shard's decision
            //     gate *now*, not at actuation time.
            if scratch.negotiated_ok {
                contended = self.gate_aware_pass(&mut scratch, budget);
            }
            clock.lap(Phase::Gate);

            // 4. With a shared machine pool installed, solve the fleet's
            //    machine assignment from the allocations about to be run.
            if placing {
                self.present_placements(&mut scratch, full);
                self.pool_changed = false;
                clock.lap(Phase::Present);
                Self::replan_placements(&mut scratch, &mut fleet_error);
                clock.lap(Phase::Replan);
            }

            // 5. Actuate: rebalance every shard whose grant differs from
            //    what it currently runs — shrinks before grows, and every
            //    grow is re-checked against the *realized* fleet total
            //    first, so a refused shrink (e.g. a shard still mid-pause)
            //    can never combine with a successful grow to push the
            //    fleet over `Kmax` against a real pool.
            //
            // Dead shards' executors are ghosts (the machine is gone):
            // they neither occupy the pool nor block grows.
            let mut fleet_total = live_total;
            // Distinct from the caller's `order` (the measurement
            // interleaving): actuation always shrinks first — the movers
            // that do not grow in index order, then the growers in index
            // order. Shards whose grant is what they run never enter.
            for idx in 0..scratch.visit.len() {
                let i = scratch.visit[idx];
                let Some(grant) = scratch.grant(&self.negotiator, i) else {
                    continue;
                };
                if grant == scratch.current_allocs[i] {
                    continue;
                }
                if executor_total(grant) > executor_total(&scratch.current_allocs[i]) {
                    scratch.growers.push(i);
                } else {
                    scratch.actuation_order.push(i);
                }
            }
            scratch.actuation_order.append(&mut scratch.growers);
            clock.lap(Phase::Order);
            for slot in 0..scratch.actuation_order.len() {
                let i = scratch.actuation_order[slot];
                let target_total = executor_total(
                    scratch
                        .grant(&self.negotiator, i)
                        .expect("only shards with a grant are ordered"),
                );
                let current_total = executor_total(&scratch.current_allocs[i]);
                // Channel in backoff after an unacknowledged actuation:
                // hold this window's command instead of spamming the
                // (evidently degraded) control channel.
                if !self.shards[i].retry.ready(window) {
                    scratch.errors[i] = Some(format!(
                        "actuation deferred: backoff after timeout (next attempt in {} windows)",
                        self.shards[i].retry.holdoff(window)
                    ));
                    continue;
                }
                // Per-shard cost/benefit gate (paper App. B-B), now a
                // safety net behind the gate-aware negotiation pass:
                // anything refused here is a wasted grant/refuse
                // round-trip the pass failed to predict. Contended and
                // promoted shrinks bypass the gate — capped shards are
                // starving and the freed capacity must actually flow.
                let urgent_shrink =
                    (contended || scratch.urgent[i]) && target_total < current_total;
                let refused = !urgent_shrink && {
                    let grant = scratch
                        .grant(&self.negotiator, i)
                        .expect("resolved just above");
                    self.gate_refuses(i, grant, &scratch.current_allocs[i], &scratch)
                };
                if refused {
                    scratch.gated[i] = true;
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
                        target_total,
                        fleet_total,
                        self.config.k_max
                    ));
                    self.wasted_grants += 1;
                    continue;
                }
                // The grant leaves the negotiator's warm state by clone
                // exactly once, here — on a window that actually moves
                // this shard.
                let allocation = scratch
                    .grant(&self.negotiator, i)
                    .expect("resolved just above")
                    .to_vec();
                let planned = scratch.planned_slots[i].take();
                let placement = planned.map(|slot| scratch.place.placement(slot as usize).clone());
                // Every command carries a fresh, strictly increasing
                // epoch: a backend behind a delaying/duplicating channel
                // rejects anything stale instead of double-applying it.
                let shard = &mut self.shards[i];
                shard.epoch += 1;
                let plan = RebalancePlan {
                    allocation,
                    pause_secs: self.config.pause_secs,
                    epoch: shard.epoch,
                    placement,
                };
                match shard.backend.apply(&plan) {
                    Ok(applied) => {
                        shard.retry.on_ack();
                        scratch.rebalanced[i] = true;
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
                        scratch.current_allocs[i] = applied.allocation;
                    }
                    Err(e) => {
                        // A timeout means the command or its ack vanished:
                        // back off before retrying. Any other error is an
                        // acknowledgement (the channel works, the shard
                        // refused), so the backoff resets. Either way the
                        // backend is believed to keep its previous
                        // allocation; the freed/claimed capacity is
                        // re-offered next window.
                        if matches!(e, BackendError::Timeout(_)) {
                            shard.retry.on_timeout(window);
                        } else {
                            shard.retry.on_ack();
                        }
                        scratch.errors[i] = Some(e.to_string());
                    }
                }
            }
            clock.lap(Phase::Actuate);

            // 5b. Placement-only moves: a shard whose executor counts did
            //     not change this window can still need its machine
            //     assignment refreshed (fleet-wide traffic shifted the
            //     shared pool). Those assignments go through the dedicated
            //     control-plane call instead of a full rebalance. A shard
            //     whose warm slot was not re-solved since its assignment
            //     went in force is skipped on the solve id alone; only a
            //     re-solved one pays the cell comparison (a re-solve
            //     often reproduces the assignment, and then sends nothing).
            for idx in 0..scratch.visit.len() {
                let i = scratch.visit[idx];
                if scratch.rebalanced[i] {
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
                if !p.allocation_matches(&scratch.current_allocs[i]) {
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
            clock.lap(Phase::Moves);
        }

        // 6. Record the visited shards in place: the allocation in force,
        //    the one a rebalance applied where one fired this window.
        //    `last_window` is updated field by field
        //    (steady state allocates nothing); the timeline, when recorded,
        //    takes a clone. Each visited shard's per-window flags are reset
        //    here, and the ones it leaves unsettled open the next window.
        self.last_window.window = window;
        self.last_window.contended = contended;
        self.last_window.error = fleet_error;
        // Names follow the roster: while nobody joined or left, every
        // point already carries its shard's name.
        let rename = self.recorded_roster != self.roster;
        self.recorded_roster = self.roster;
        // Live executors only: dead shards' grants are reclaimed. Kept as
        // a running sum, corrected for the shards whose record changes.
        let mut total_granted = if full {
            0
        } else {
            self.last_window.total_granted
        };
        let failed = negotiating && !scratch.negotiated_ok;
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
            point.allocation.clone_from(&scratch.current_allocs[i]);
            point.demand = scratch.demand_idx[i]
                .map(|slot| executor_total(&scratch.demands[slot as usize].desired));
            point.capped = scratch.capped[i];
            point.rebalanced = scratch.rebalanced[i];
            point.gated = scratch.gated[i];
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
            let unsettled = failed
                || revived_or_died
                || point.capped
                || point.rebalanced
                || point.gated
                || point.error.is_some()
                || scratch.urgent[i];
            if unsettled {
                scratch.carry.push(i);
            }
            scratch.capped[i] = false;
            scratch.gated[i] = false;
            scratch.urgent[i] = false;
            scratch.rebalanced[i] = false;
            scratch.planned_slots[i] = None;
        }
        self.last_window.total_granted = total_granted;
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
            let current = &scratch.current_allocs[i];
            let grant = scratch.grant(&self.negotiator, i);
            assert!(
                grant.is_none_or(|g| g == current),
                "window {}: skipped shard {i} runs {current:?}, granted {grant:?}",
                self.last_window.window
            );
            assert!(
                !(scratch.gated[i]
                    || scratch.capped[i]
                    || scratch.urgent[i]
                    || scratch.rebalanced[i]),
                "window {}: skipped shard {i} carries a flag",
                self.last_window.window
            );
            assert!(scratch.errors[i].is_none() && shard.demand_error.is_none());
            if let (true, Some(slot), Some(info)) = (
                // A failed window (negotiation or placement) trusts no
                // assignment.
                negotiating && self.last_window.error.is_none(),
                scratch.place_slots[i].map(|s| s as usize),
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
    fn gate_refuses(
        &self,
        i: usize,
        grant: &[u32],
        current: &[u32],
        scratch: &FleetScratch,
    ) -> bool {
        let Some(slot) = scratch.demand_idx[i] else {
            return false;
        };
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

    /// The gate-aware wobble pass (phase 3b of the window): publish each
    /// visited modeled shard's `capped` flag, consult its decision gate on
    /// its freshly negotiated grant and arbitrate around the refusals
    /// *now*, instead of discovering them at actuation time and stranding
    /// the capacity for a window. Returns whether the budget is contended
    /// (some grant is capped — a count the negotiator keeps). A shard the
    /// window does not visit runs its grant and is uncapped, so it has
    /// nothing to say here.
    ///
    /// Refused shards are held at their current allocation, which comes off
    /// the top of the budget, and the rest are re-offered what is left — one
    /// sum check ([`FleetNegotiator::reoffer_fits`]), not a second round:
    ///
    /// * their floored desires fit — the holds stand (`gated`), every other
    ///   shard runs its floored desire uncapped, nothing defers at actuation;
    /// * they do not — the "wobble" was load-bearing after all (holding it
    ///   starves another shard), so the negotiated grants stand and the
    ///   held shrinks are promoted to urgent: they bypass the actuation
    ///   gate exactly like contended shrinks.
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
            scratch.capped[i] = grant.capped;
            if grant.allocation == scratch.current_allocs[i] {
                continue;
            }
            let current_total = executor_total(&scratch.current_allocs[i]);
            if contended && grant.total() < current_total {
                continue; // contended shrinks actuate unconditionally
            }
            if self.gate_refuses(i, &grant.allocation, &scratch.current_allocs[i], scratch) {
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
                scratch.gated[i] = true;
            }
            for &i in &scratch.visit {
                if !scratch.gated[i] {
                    scratch.capped[i] = false;
                }
            }
        } else {
            for &i in &scratch.held {
                scratch.urgent[i] = true;
            }
        }
        contended
    }

    /// Phase 4a: refresh the warm placement state
    /// ([`placement::FleetPlacementState`]) for each visited live
    /// metadata-carrying shard, from the allocation it is about to run (its
    /// grant where one stands, its current executors otherwise) and this
    /// window's measured edge rates. Only shards whose inputs actually
    /// changed — executor counts, resource profiles, or edge rates beyond
    /// [`FleetDriverConfig::placement_rate_band`] — are touched. A full
    /// window presents every shard in a presence round, whose sweep takes
    /// out the shards that left; any other presents only the change list
    /// and names a shard that died with
    /// [`placement::FleetPlacementState::remove`].
    fn present_placements(&self, scratch: &mut FleetScratch, full: bool) {
        let Some(pool) = &self.machine_pool else {
            return;
        };
        // The warm state and its slot maps step out of the scratch so the
        // grant/sample lookups below can keep borrowing it immutably.
        let mut place = std::mem::take(&mut scratch.place);
        let mut place_slots = std::mem::take(&mut scratch.place_slots);
        let mut place_owner = std::mem::take(&mut scratch.place_owner);
        let mut planned_slots = std::mem::take(&mut scratch.planned_slots);
        if full {
            place.begin_window();
        }
        place.sync_pool(pool);
        // While the roster stood still a cached slot is its shard's; after
        // churn (indices shifted) each one is re-validated by name.
        let revalidate = scratch.place_roster != self.roster;
        scratch.place_roster = self.roster;
        for &i in &scratch.visit {
            let shard = &self.shards[i];
            if shard.dead {
                // Its usage is refunded and its slot freed (its executors
                // are ghosts until the lease renews, and a revived shard is
                // placed afresh): by the presence round's sweep on a full
                // window — where an index may no longer name its slot —
                // and by name otherwise.
                if let Some(slot) = place_slots[i].take() {
                    if !full {
                        place.remove(slot as usize);
                    }
                }
                continue;
            }
            let Some(info) = &shard.placement_info else {
                continue;
            };
            // Lookup/insert only without a (still valid) cached slot.
            let slot = match place_slots[i].map(|s| s as usize) {
                Some(s) if !revalidate || place.slot_name(s) == shard.name => s,
                _ => place
                    .slot_of(&shard.name)
                    .unwrap_or_else(|| place.insert(&shard.name)),
            };
            place_slots[i] = Some(slot_u32(slot));
            if place_owner.len() <= slot {
                place_owner.resize(slot + 1, usize::MAX);
            }
            place_owner[slot] = i;
            let target = scratch
                .grant(&self.negotiator, i)
                .unwrap_or(&scratch.current_allocs[i]);
            let sample = &scratch.samples[i];
            if !info.request_matches(
                place.request(slot),
                target,
                sample,
                self.config.placement_rate_band,
            ) {
                info.request_into(place.touch(slot), target, sample);
            }
            if full {
                place.mark_seen(slot);
            }
            planned_slots[i] = Some(slot_u32(slot));
        }
        scratch.place = place;
        scratch.place_slots = place_slots;
        scratch.place_owner = place_owner;
        scratch.planned_slots = planned_slots;
    }

    /// Phase 4b: replan the warm placement state. Only dirty shards are
    /// re-solved, against the pool's residual capacity; a settled window
    /// performs zero solver calls and zero allocations. Solve order is
    /// sorted-name on every path, so the assignment stays independent of
    /// shard indices and advance order, and the drift-bounded batch
    /// re-solve inside `replan` keeps sequential repair anchored to what
    /// [`placement::plan`] would produce. Every shard whose slot was
    /// re-solved joins the change list: a new assignment may be due.
    fn replan_placements(scratch: &mut FleetScratch, fleet_error: &mut Option<String>) {
        match scratch.place.replan() {
            Ok(_) => {
                let mut joined = false;
                for idx in 0..scratch.place.resolved().len() {
                    let slot = scratch.place.resolved()[idx];
                    let i = scratch.place_owner[slot];
                    debug_assert_eq!(scratch.place_slots[i], Some(slot_u32(slot)));
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

impl<B: CspBackend + Clone> FleetDriver<B> {
    /// Snapshots the full fleet state (see [`FleetCheckpoint`]). Cheap
    /// relative to re-running a scenario prefix: per-shard state and the
    /// backends clone, but the negotiator's warm state is shared
    /// copy-on-write — the checkpoint holds the same `Arc`, and whichever
    /// driver negotiates next pays the one lazy clone. A branching sweep
    /// that restores many times from one checkpoint clones the warm state
    /// once per *diverging* branch, not once per restore.
    pub fn checkpoint(&self) -> FleetCheckpoint<B> {
        FleetCheckpoint {
            driver: self.clone(),
        }
    }

    /// Restores a driver from a checkpoint without consuming it, so one
    /// common prefix can branch into many scenario continuations.
    /// Continuing from the restored driver is bit-identical to continuing
    /// from the original at the moment [`FleetDriver::checkpoint`] ran.
    pub fn from_checkpoint(checkpoint: &FleetCheckpoint<B>) -> Self {
        checkpoint.driver.clone()
    }
}

/// The M/M/k-consistent "measured" sojourn a mock shard backend should
/// report for its current rates and allocation — an unstable queue
/// measures "very slow" (5 s), never infinite. Mock backends feeding the
/// per-shard decision gate must use this (rather than a constant) or the
/// gate sees a world no live engine produces: a permanently violated
/// target freezes every scale-down behind the "never shrink a struggling
/// shard" rule. Test support, not part of the public API surface.
#[doc(hidden)]
pub fn mmk_measured_sojourn(rate: f64, mu: f64, servers: u32) -> f64 {
    let predicted = drs_queueing::erlang::MmKQueue::new(rate, mu)
        .map(|q| q.expected_sojourn(servers))
        .unwrap_or(f64::INFINITY);
    if predicted.is_finite() {
        predicted
    } else {
        5.0
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{AppliedRebalance, BackendError, CspBackend, OperatorSample, WindowSample};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Fixed-rate mock shard: a chain whose operators all see the shard's
    /// arrival rate, each serving at its own `mu`; the rate can be changed
    /// mid-run. Reports the M/M/k-consistent measured sojourn via
    /// [`mmk_measured_sojourn`] so the decision gate sees the same world a
    /// live engine would. Can be silenced (crash: reports stop), can refuse
    /// applies (mid-pause) or time them out (lost command/ack); records
    /// every epoch and placement it is commanded with.
    #[derive(Debug, Clone)]
    struct StaticShard {
        rate: f64,
        mu: Vec<f64>,
        allocation: Vec<u32>,
        fail_applies: usize,
        timeout_applies: usize,
        silent: bool,
        seen_epochs: Vec<u64>,
        placement_calls: usize,
    }

    impl StaticShard {
        /// One operator serving at `mu`, running `k` executors.
        fn new(rate: f64, mu: f64, k: u32) -> Self {
            Self::chain(rate, vec![mu], vec![k])
        }

        fn chain(rate: f64, mu: Vec<f64>, allocation: Vec<u32>) -> Self {
            StaticShard {
                rate,
                mu,
                allocation,
                fail_applies: 0,
                timeout_applies: 0,
                silent: false,
                seen_epochs: Vec::new(),
                placement_calls: 0,
            }
        }
    }

    impl CspBackend for StaticShard {
        fn backend_name(&self) -> &'static str {
            "static"
        }
        fn operator_names(&self) -> Vec<String> {
            (0..self.mu.len()).map(|op| format!("op{op}")).collect()
        }
        fn current_allocation(&self) -> Vec<u32> {
            self.allocation.clone()
        }
        fn advance(&mut self, _window_secs: f64) -> WindowSample {
            let fresh = |x: f64| (!self.silent).then_some(x);
            let mut sojourn = 0.0;
            let operators = self
                .mu
                .iter()
                .zip(&self.allocation)
                .map(|(&mu, &k)| {
                    sojourn += mmk_measured_sojourn(self.rate, mu, k);
                    OperatorSample {
                        arrival_rate: fresh(self.rate),
                        service_rate: fresh(mu),
                    }
                })
                .collect();
            WindowSample {
                external_rate: fresh(self.rate),
                operators,
                mean_sojourn: fresh(sojourn),
                std_sojourn: None,
                completed: if self.silent { 0 } else { 100 },
            }
        }
        fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
            self.seen_epochs.push(plan.epoch);
            if self.timeout_applies > 0 {
                self.timeout_applies -= 1;
                return Err(BackendError::Timeout("command lost".to_owned()));
            }
            if self.fail_applies > 0 {
                self.fail_applies -= 1;
                return Err(BackendError::RebalanceUnavailable(
                    "pause in progress".to_owned(),
                ));
            }
            self.allocation.clone_from(&plan.allocation);
            Ok(AppliedRebalance {
                allocation: plan.allocation.clone(),
                pause_secs: plan.pause_secs,
            })
        }
        fn apply_placement(&mut self, _placement: &Placement) -> Result<(), BackendError> {
            self.placement_calls += 1;
            Ok(())
        }
    }

    fn net(lambda: f64, mu: f64) -> JacksonNetwork {
        JacksonNetwork::from_rates(lambda, &[(lambda, mu)]).unwrap()
    }

    fn demand(lambda: f64, mu: f64, desired: Vec<u32>) -> ShardDemand {
        ShardDemand {
            network: net(lambda, mu),
            desired,
        }
    }

    #[test]
    fn uncontended_grants_equal_single_topology_schedules() {
        let negotiator = FleetNegotiator::new(20);
        let demands = vec![demand(40.0, 10.0, vec![6]), demand(20.0, 10.0, vec![4])];
        let grants = negotiator.negotiate(&demands).unwrap();
        assert_eq!(grants[0].allocation, vec![6]);
        assert_eq!(grants[1].allocation, vec![4]);
        assert!(grants.iter().all(|g| !g.capped));
    }

    #[test]
    fn contended_grants_spend_exactly_the_budget() {
        let negotiator = FleetNegotiator::new(12);
        // Desired 9 + 7 = 16 > 12; min stable 5 + 3 = 8 ≤ 12.
        let demands = vec![demand(45.0, 10.0, vec![9]), demand(25.0, 10.0, vec![7])];
        let grants = negotiator.negotiate(&demands).unwrap();
        let total: u64 = grants.iter().map(ShardGrant::total).sum();
        assert_eq!(total, 12);
        // Nobody below the minimum stable allocation.
        assert!(grants[0].allocation[0] >= 5);
        assert!(grants[1].allocation[0] >= 3);
        // At least one shard fell short of its desire.
        assert!(grants.iter().any(|g| g.capped));
    }

    #[test]
    fn contention_favours_the_higher_marginal_benefit() {
        let negotiator = FleetNegotiator::new(10);
        // Same service law; shard 0 carries 3x the traffic, so its marginal
        // benefits dominate and it must end up with the bigger share.
        let demands = vec![demand(60.0, 10.0, vec![10]), demand(20.0, 10.0, vec![8])];
        let grants = negotiator.negotiate(&demands).unwrap();
        assert!(grants[0].allocation[0] > grants[1].allocation[0]);
    }

    #[test]
    fn insufficient_budget_detected() {
        let negotiator = FleetNegotiator::new(6);
        // Min stables: 5 + 3 = 8 > 6.
        let demands = vec![demand(45.0, 10.0, vec![9]), demand(25.0, 10.0, vec![7])];
        let err = negotiator.negotiate(&demands).unwrap_err();
        assert_eq!(
            err,
            FleetError::InsufficientBudget {
                required: 8,
                available: 6
            }
        );
    }

    #[test]
    fn desired_below_min_stable_is_raised_in_both_branches() {
        // λ/µ = 4.5 needs 5 executors; a demand of 1 is unstable and must
        // be floored at 5 — with room to spare (uncontended path)…
        let negotiator = FleetNegotiator::new(20);
        let grants = negotiator
            .negotiate(&[demand(45.0, 10.0, vec![1])])
            .unwrap();
        assert_eq!(grants[0].allocation, vec![5]);
        assert!(!grants[0].capped);
        // …and under contention (second shard forces the greedy branch).
        let negotiator = FleetNegotiator::new(9);
        let demands = vec![demand(45.0, 10.0, vec![1]), demand(25.0, 10.0, vec![7])];
        let grants = negotiator.negotiate(&demands).unwrap();
        assert!(grants[0].allocation[0] >= 5);
        let total: u64 = grants.iter().map(ShardGrant::total).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn demand_length_mismatch_detected() {
        let negotiator = FleetNegotiator::new(10);
        let demands = vec![demand(10.0, 10.0, vec![2, 2])];
        assert!(matches!(
            negotiator.negotiate(&demands).unwrap_err(),
            FleetError::DemandLength { shard: 0, .. }
        ));
    }

    proptest! {
        /// The re-offer's sum check is exactly the retained oracle: cold
        /// arbitration of the non-held shards within the realized budget caps
        /// nobody iff the check accepts, and then grants each its floored
        /// desire (some desires start below the stability floor, and some
        /// realized budgets fall below the floors — the oracle's error arm).
        #[test]
        fn reoffer_sum_check_matches_cold_arbitration(
            // Per shard: (λ, μ, desired) per operator, held?, executors in force.
            shards in vec(
                (vec((1.0f64..60.0, 5.0f64..15.0, 1u32..12), 1..=2), 0u8..2, 0u64..30),
                1..=6,
            ),
            extra in 0u32..40,
        ) {
            let demand = |ops: &[(f64, f64, u32)]| {
                let rates: Vec<(f64, f64)> = ops.iter().map(|&(l, m, _)| (l, m)).collect();
                ShardDemand {
                    network: JacksonNetwork::from_rates(rates[0].0, &rates).unwrap(),
                    desired: ops.iter().map(|op| op.2).collect(),
                }
            };
            let demands: Vec<ShardDemand> = shards.iter().map(|s| demand(&s.0)).collect();
            let floors = demands.iter().flat_map(|d| d.network.min_stable_allocation());
            let budget = floors.sum::<u32>() + extra;
            let mut warm = FleetNegotiator::new(budget);
            warm.negotiate_within_incremental(budget, &demands).unwrap();

            let (held, rest): (Vec<usize>, Vec<usize>) =
                (0..shards.len()).partition(|&slot| shards[slot].1 == 1);
            let held_desired = held.iter().map(|&slot| warm.slots[slot].desired_total).sum();
            let held_current = held.iter().map(|&slot| shards[slot].2).sum();
            let rest_demands: Vec<ShardDemand> = rest.iter().map(|&s| demands[s].clone()).collect();
            let realized = u32::try_from(u64::from(budget).saturating_sub(held_current)).unwrap();
            let cold = warm.negotiate_within(realized, &rest_demands);
            let uncapped = matches!(&cold, Ok(grants) if grants.iter().all(|g| !g.capped));
            let fits = warm.reoffer_fits(budget, held_desired, held_current);
            prop_assert_eq!(fits, uncapped, "cold arbitration: {:?}", cold);
            if uncapped {
                for (grant, &slot) in cold.unwrap().iter().zip(&rest) {
                    prop_assert_eq!(&grant.allocation, warm.slots[slot].desired_floored());
                }
            }
        }
    }

    #[test]
    fn negotiation_is_deterministic() {
        let negotiator = FleetNegotiator::new(14);
        let demands = vec![
            demand(45.0, 10.0, vec![9]),
            demand(45.0, 10.0, vec![9]),
            demand(25.0, 10.0, vec![7]),
        ];
        let a = negotiator.negotiate(&demands).unwrap();
        let b = negotiator.negotiate(&demands).unwrap();
        assert_eq!(a, b);
    }

    fn fleet(k_max: u32, shards: Vec<(&str, f64, StaticShard)>) -> FleetDriver<StaticShard> {
        let mut config = FleetDriverConfig::new(k_max);
        config.warmup_windows = 1;
        config.window_secs = 1.0;
        FleetDriver::new(
            config,
            shards
                .into_iter()
                .map(|(name, t_max, backend)| FleetShardSpec::new(name, t_max, backend))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn driver_arbitrates_within_budget_and_records_timeline() {
        let mut f = fleet(
            12,
            vec![
                ("hot", 0.11, StaticShard::new(60.0, 10.0, 7)),
                ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
            ],
        );
        f.run_windows(4);
        assert_eq!(f.timeline().len(), 4);
        let last = f.timeline().last().unwrap();
        assert!(last.total_granted <= 12);
        assert!(last.contended, "0.11 s targets at these loads must contend");
        assert!(last.shards.iter().any(|s| s.capped));
        // The hot shard out-ranks the cold one under contention.
        assert!(last.shards[0].allocation[0] > last.shards[1].allocation[0]);
        // Demands are recorded once the model warms up.
        assert!(last.shards.iter().all(|s| s.demand.is_some()));
        assert_eq!(f.shard_names(), vec!["hot", "cold"]);
    }

    #[test]
    fn warmup_windows_do_not_negotiate() {
        let mut f = fleet(12, vec![("only", 0.5, StaticShard::new(30.0, 10.0, 4))]);
        f.step();
        let w = &f.timeline()[0];
        assert!(w.shards[0].demand.is_none());
        assert!(!w.shards[0].rebalanced);
        assert_eq!(w.shards[0].allocation, vec![4]);
    }

    #[test]
    fn freed_capacity_is_reoffered_when_demand_drops() {
        let mut f = fleet(
            12,
            vec![
                ("a", 0.11, StaticShard::new(60.0, 10.0, 7)),
                ("b", 0.11, StaticShard::new(30.0, 10.0, 5)),
            ],
        );
        f.run_windows(4);
        let before = f.timeline().last().unwrap().shards[1].granted();
        assert!(f.timeline().last().unwrap().contended);
        // Shard a's load collapses: its demand shrinks and the freed
        // executors flow to shard b on later windows (α-smoothing takes a
        // couple of rounds to fade the old rate out).
        f.backend_mut(0).rate = 5.0;
        f.run_windows(6);
        let last = f.timeline().last().unwrap();
        assert!(
            last.shards[1].granted() > before,
            "shard b should inherit freed capacity: {} vs {before}",
            last.shards[1].granted()
        );
        assert!(last.total_granted <= 12);
    }

    #[test]
    fn backend_refusal_is_recorded_and_retried() {
        let mut hot = StaticShard::new(60.0, 10.0, 7);
        hot.fail_applies = 1;
        let mut f = fleet(
            12,
            vec![
                ("hot", 0.11, hot),
                ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
            ],
        );
        f.run_windows(4);
        let refused = f
            .timeline()
            .iter()
            .flat_map(|w| &w.shards)
            .find(|s| s.error.is_some())
            .expect("the refused apply must be recorded");
        assert!(refused
            .error
            .as_deref()
            .unwrap()
            .contains("rebalance unavailable"));
        // A later window retries and the fleet still lands within budget.
        assert!(f.timeline().last().unwrap().total_granted <= 12);
    }

    #[test]
    fn refused_shrink_defers_grows_instead_of_overcommitting() {
        // Shard a runs 8 but now only needs ~4; shard b runs 4 and wants 9.
        // a's shrink is refused (mid-pause): applying b's grow anyway would
        // put 17 executors on a 12-processor pool. The driver must defer
        // the grow and catch up once the shrink lands.
        let mut a = StaticShard::new(15.0, 10.0, 8);
        a.fail_applies = 1;
        let mut f = fleet(
            12,
            vec![("a", 0.11, a), ("b", 0.11, StaticShard::new(60.0, 10.0, 4))],
        );
        f.run_windows(2);
        let w = f.timeline().last().unwrap();
        assert!(
            w.total_granted <= 12,
            "fleet over budget after refused shrink: {w:?}"
        );
        assert!(w.shards[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("rebalance unavailable")));
        assert!(
            w.shards[1]
                .error
                .as_deref()
                .is_some_and(|e| e.contains("deferred")),
            "the grow must be deferred: {w:?}"
        );
        assert_eq!(w.shards[1].allocation, vec![4], "b must not grow yet");
        // Next window the shrink applies and the deferred grow catches up.
        f.run_windows(2);
        let w = f.timeline().last().unwrap();
        assert!(w.total_granted <= 12);
        assert!(w.shards[1].granted() > 4, "b grows once capacity is freed");
    }

    #[test]
    fn rebalanced_flag_tracks_actual_changes_only() {
        let mut f = fleet(
            20,
            vec![
                ("a", 0.5, StaticShard::new(40.0, 10.0, 7)),
                ("b", 0.5, StaticShard::new(20.0, 10.0, 5)),
            ],
        );
        f.run_windows(6);
        // Once converged, no shard keeps reporting rebalances.
        let last = f.timeline().last().unwrap();
        assert!(last.shards.iter().all(|s| !s.rebalanced));
        // But some earlier window did rebalance.
        assert!(f
            .timeline()
            .iter()
            .any(|w| w.shards.iter().any(|s| s.rebalanced)));
    }

    #[test]
    fn construction_errors() {
        let config = FleetDriverConfig::new(10);
        assert_eq!(
            FleetDriver::<StaticShard>::new(config, vec![]).unwrap_err(),
            FleetDriverError::NoShards
        );
        let mut bad = FleetDriverConfig::new(10);
        bad.window_secs = 0.0;
        assert_eq!(
            FleetDriver::new(
                bad,
                vec![FleetShardSpec::new(
                    "s",
                    1.0,
                    StaticShard::new(10.0, 10.0, 2)
                )]
            )
            .unwrap_err(),
            FleetDriverError::InvalidWindow(0.0)
        );
        assert!(matches!(
            FleetDriver::new(
                config,
                vec![FleetShardSpec::new(
                    "s",
                    -1.0,
                    StaticShard::new(10.0, 10.0, 2)
                )]
            )
            .unwrap_err(),
            FleetDriverError::InvalidTarget { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_interleaving_order_panics() {
        let mut f = fleet(
            12,
            vec![
                ("a", 0.5, StaticShard::new(10.0, 10.0, 2)),
                ("b", 0.5, StaticShard::new(10.0, 10.0, 2)),
            ],
        );
        f.step_with_order(&[0, 0]);
    }

    #[test]
    fn timeout_backs_off_then_retries_with_fresh_epochs() {
        // The shard needs to grow but its first two commands vanish.
        let mut shard = StaticShard::new(60.0, 10.0, 4);
        shard.timeout_applies = 2;
        let mut f = fleet(20, vec![("only", 0.11, shard)]);
        f.run_windows(10);

        let errors: Vec<String> = f
            .timeline()
            .iter()
            .filter_map(|w| w.shards[0].error.clone())
            .collect();
        let timeouts = errors
            .iter()
            .filter(|e| e.contains("unacknowledged"))
            .count();
        let deferred = errors
            .iter()
            .filter(|e| e.contains("deferred: backoff"))
            .count();
        assert_eq!(timeouts, 2, "both lost commands recorded: {errors:?}");
        assert!(
            deferred >= 1,
            "the doubled backoff must hold at least one window: {errors:?}"
        );
        // The third attempt lands and the shard converges.
        assert!(f.timeline().iter().any(|w| w.shards[0].rebalanced));
        assert!(f.backend(0).allocation[0] > 4);
        // Every command on the wire carried a fresh, strictly increasing
        // epoch — a replaying channel could never double-apply.
        let epochs = &f.backend(0).seen_epochs;
        assert_eq!(epochs.len(), 3, "two timeouts + one success: {epochs:?}");
        assert!(epochs.windows(2).all(|p| p[0] < p[1]), "{epochs:?}");
        // After the ack the backoff is fully reset.
        assert!(f.actuation_retry(0).ready(f.timeline().len() as u64));
    }

    #[test]
    fn refusal_acks_the_channel_and_resets_backoff() {
        let mut shard = StaticShard::new(60.0, 10.0, 4);
        shard.fail_applies = 1;
        let mut f = fleet(20, vec![("only", 0.11, shard)]);
        f.run_windows(6);
        // A refusal is an acknowledgement: no window is ever spent in
        // backoff, and the retry lands on the very next round.
        assert!(f.timeline().iter().all(|w| !w.shards[0]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("backoff")));
        assert!(f.timeline().iter().any(|w| w.shards[0].rebalanced));
    }

    #[test]
    fn dead_shard_budget_is_reclaimed_within_lease_windows() {
        // Contended: hot wants more than the remainder cold leaves it.
        let mut f = fleet(
            12,
            vec![
                ("hot", 0.11, StaticShard::new(60.0, 10.0, 7)),
                ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
            ],
        );
        f.run_windows(5);
        let before = f.timeline().last().unwrap();
        assert!(before.contended);
        let hot_before = before.shards[0].granted();

        // Cold's machine dies: reports stop. Within lease_windows (3) +
        // one negotiation round, the lease expires and hot inherits the
        // reclaimed budget.
        f.backend_mut(1).silent = true;
        let lease = f.config().lease_windows;
        f.run_windows(lease + 2);
        let after = f.timeline().last().unwrap();
        assert!(after.shards[1].dead, "cold's lease must expire: {after:?}");
        assert!(f.shard_dead(1));
        assert!(
            after.shards[0].granted() > hot_before,
            "hot must inherit reclaimed budget: {} vs {hot_before}",
            after.shards[0].granted()
        );
        // Live-only accounting keeps the pool within budget.
        assert!(after.total_granted <= 12);

        // The shard heals: the first report renews the lease and it
        // negotiates again; grows elsewhere defer until the fleet
        // re-converges under Kmax.
        f.backend_mut(1).silent = false;
        f.run_windows(6);
        let healed = f.timeline().last().unwrap();
        assert!(!healed.shards[1].dead);
        assert!(
            healed.total_granted <= 12,
            "over budget after heal: {healed:?}"
        );
    }

    #[test]
    fn checkpoint_restore_continue_is_bit_identical() {
        let build = || {
            fleet(
                12,
                vec![
                    ("hot", 0.11, StaticShard::new(60.0, 10.0, 7)),
                    ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
                ],
            )
        };
        // Uninterrupted run.
        let mut straight = build();
        straight.run_windows(12);

        // Same run, checkpointed mid-way and branched twice.
        let mut prefix = build();
        prefix.run_windows(5);
        let ckpt = prefix.checkpoint();
        assert_eq!(ckpt.window(), 5);
        // The checkpoint shares the negotiator's warm state copy-on-write:
        // no deep clone until one of the branches actually negotiates.
        assert!(
            Arc::ptr_eq(&prefix.negotiator, &ckpt.driver.negotiator),
            "checkpoint must share, not clone, the negotiator"
        );
        let mut branch_a = FleetDriver::from_checkpoint(&ckpt);
        assert!(Arc::ptr_eq(&prefix.negotiator, &branch_a.negotiator));
        let mut branch_b = FleetDriver::from_checkpoint(&ckpt);
        // The original keeps running past the checkpoint too: its lazy
        // clone at the negotiate site must not leak into the branches.
        prefix.run_windows(7);
        branch_a.run_windows(7);
        branch_b.run_windows(7);
        assert!(
            !Arc::ptr_eq(&prefix.negotiator, &branch_a.negotiator),
            "diverging branches must have unshared after negotiating"
        );

        assert_eq!(straight.timeline(), prefix.timeline());
        assert_eq!(straight.timeline(), branch_a.timeline());
        assert_eq!(straight.timeline(), branch_b.timeline());
    }

    #[test]
    fn churn_add_and_remove_shards_mid_run() {
        let mut f = fleet(
            20,
            vec![
                ("a", 0.11, StaticShard::new(40.0, 10.0, 5)),
                ("b", 0.11, StaticShard::new(30.0, 10.0, 4)),
            ],
        );
        f.run_windows(3);
        assert_eq!(f.timeline().last().unwrap().shards.len(), 2);

        // A topology joins mid-run…
        let joined = f
            .add_shard(FleetShardSpec::new(
                "c",
                0.11,
                StaticShard::new(20.0, 10.0, 3),
            ))
            .unwrap();
        assert_eq!(joined, 2);
        f.run_windows(4);
        let w = f.timeline().last().unwrap();
        assert_eq!(w.shards.len(), 3);
        assert_eq!(w.shards[2].name, "c");
        assert!(w.shards[2].demand.is_some(), "joined shard negotiates");
        assert!(w.total_granted <= 20);

        // …and another leaves. Names keep the timeline correlatable.
        let removed = f.remove_shard(0);
        assert_eq!(removed.rate, 40.0);
        f.run_windows(2);
        let w = f.timeline().last().unwrap();
        assert_eq!(w.shards.len(), 2);
        assert_eq!(
            w.shards.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["b", "c"]
        );
        assert!(w.total_granted <= 20);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The roster stamp is only a shortcut: under joins, leaves (shard
        /// indices shift), join-and-leave between two windows (they shift
        /// while the count stands), deaths and revivals, a driver trusting
        /// its stamps and advancing in a random order each window records
        /// the same names, slots, placements, commands and timeline as one
        /// that re-derives everything by name every window in index order.
        #[test]
        fn roster_stamp_equals_name_validation_under_churn(
            script in vec((0u8..10, 0usize..64, 1.0f64..60.0, 0u64..u64::MAX), 6..24),
        ) {
            let info = ShardPlacementInfo {
                profiles: vec![ResourceProfile::uniform(1.0)],
                edges: vec![(0, 0, 1.0)],
            };
            let spec = |id: usize, rate: f64| {
                FleetShardSpec::new(format!("s{id}"), 0.2, StaticShard::new(rate, 10.0, 3))
                    .with_placement(info.clone())
            };
            let build = || {
                let mut config = FleetDriverConfig::new(48);
                config.warmup_windows = 1;
                config.window_secs = 1.0;
                let specs = (0..4).map(|id| spec(id, 12.0 + 9.0 * id as f64)).collect();
                let mut f = FleetDriver::new(config, specs).unwrap();
                f.set_machine_pool(
                    PlacementPool::uniform(3, ResourceProfile::uniform(40.0)).unwrap(),
                );
                f
            };
            let (mut stamped, mut validating) = (build(), build());
            for (next_id, &(action, pick, rate, seed)) in (4..).zip(&script) {
                for f in [&mut stamped, &mut validating] {
                    let n = f.shard_count();
                    match action {
                        0 => {
                            f.add_shard(spec(next_id, rate)).unwrap();
                        }
                        1 if n > 1 => {
                            f.remove_shard(pick % n);
                        }
                        2 => {
                            f.add_shard(spec(next_id, rate)).unwrap();
                            f.remove_shard(pick % n);
                        }
                        3 | 4 => f.backend_mut(pick % n).rate = rate,
                        5 => {
                            let shard = f.backend_mut(pick % n);
                            shard.silent = !shard.silent;
                        }
                        _ => {}
                    }
                }

                // Stale stamps: every name and slot is re-derived.
                validating.roster += 1;
                validating.step();
                let n = stamped.shard_count();
                let mut order: Vec<usize> = (0..n).collect();
                let mut state = seed | 1;
                for i in (1..n).rev() {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    order.swap(i, (state >> 33) as usize % (i + 1));
                }
                stamped.step_with_order(&order);

                prop_assert_eq!(stamped.last_window(), validating.last_window());
                prop_assert_eq!(&stamped.scratch.place_slots, &validating.scratch.place_slots);
                prop_assert_eq!(&stamped.scratch.demand_idx, &validating.scratch.demand_idx);
                for i in 0..n {
                    prop_assert_eq!(&stamped.last_window().shards[i].name, &stamped.shards[i].name);
                    prop_assert_eq!(stamped.shard_placement(i), validating.shard_placement(i));
                    let (a, b) = (stamped.backend(i), validating.backend(i));
                    prop_assert_eq!(&a.allocation, &b.allocation);
                    prop_assert_eq!(&a.seen_epochs, &b.seen_epochs);
                    prop_assert_eq!(a.placement_calls, b.placement_calls);
                }
            }
            prop_assert_eq!(stamped.timeline(), validating.timeline());
            prop_assert_eq!(stamped.placement_solver_calls(), validating.placement_solver_calls());
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn removing_the_last_shard_panics() {
        let mut f = fleet(10, vec![("only", 0.5, StaticShard::new(10.0, 10.0, 2))]);
        f.remove_shard(0);
    }

    /// The gate-aware pass: shard a's −1 wobble shrink is refused by its
    /// gate at *negotiation* time, so shard b's grow is sized to the
    /// realized pool (a keeps its 8) and actuates without a deferral. The
    /// old flow discovered a's refusal at actuation and granted b a grow
    /// that could only bounce off the over-commit guard — one wasted
    /// grant/refuse round-trip per window, forever. Churn (a third shard
    /// joining and leaving) must not reintroduce any.
    #[test]
    fn gate_aware_negotiation_avoids_wasted_round_trips_under_churn() {
        let mut f = fleet(
            13,
            vec![
                ("a", 0.2, StaticShard::new(55.0, 10.0, 8)),
                ("b", 0.2, StaticShard::new(25.0, 10.0, 3)),
            ],
        );
        f.run_windows(5);
        let w = f.timeline().last().unwrap();
        // a's shrink 8→7 saves one executor: held by its gate, visibly.
        assert!(w.shards[0].gated, "a's wobble shrink must be held: {w:?}");
        assert_eq!(w.shards[0].allocation, vec![8]);
        // b still actuated its grow out of the free budget.
        assert_eq!(w.shards[1].allocation, vec![4], "b must reach its demand");
        assert_eq!(f.wasted_grants(), 0, "no refusal discovered at actuation");

        // Churn: a third shard joins (the pool tightens, a's held surplus
        // becomes load-bearing and must flow), then leaves again.
        f.add_shard(FleetShardSpec::new(
            "c",
            0.2,
            StaticShard::new(25.0, 10.0, 3),
        ))
        .unwrap();
        f.run_windows(6);
        assert!(f.timeline().last().unwrap().total_granted <= 13);
        f.remove_shard(2);
        f.run_windows(4);
        let w = f.timeline().last().unwrap();
        assert!(w.total_granted <= 13);
        assert_eq!(
            f.wasted_grants(),
            0,
            "churn must not reintroduce wasted grant/refuse round-trips"
        );
        assert!(
            f.timeline()
                .iter()
                .all(|w| w.shards.iter().all(|s| s.error.is_none())),
            "no deferrals anywhere: {:?}",
            f.timeline()
                .iter()
                .flat_map(|w| &w.shards)
                .filter_map(|s| s.error.clone())
                .collect::<Vec<_>>()
        );
    }

    /// The revert arm of the gate-aware pass: holding a's refused shrink
    /// would starve b below its minimum stable allocation, so the wobble
    /// is load-bearing — a's shrink is promoted past the gate and b's grow
    /// follows in the same window. The old flow livelocked here: a gated
    /// every window, b deferred every window.
    #[test]
    fn load_bearing_wobble_is_promoted_instead_of_stranded() {
        let mut f = fleet(
            12,
            vec![
                ("a", 0.2, StaticShard::new(55.0, 10.0, 8)),
                ("b", 0.2, StaticShard::new(42.0, 10.0, 4)),
            ],
        );
        f.run_windows(6);
        let w = f.timeline().last().unwrap();
        assert_eq!(w.shards[0].allocation, vec![7], "a's shrink must land");
        assert_eq!(w.shards[1].allocation, vec![5], "b's grow must land");
        assert_eq!(f.wasted_grants(), 0);
        assert!(
            f.timeline().iter().all(|w| w.shards.iter().all(|s| !s
                .error
                .as_deref()
                .unwrap_or("")
                .contains("deferred"))),
            "nothing may bounce off the over-commit guard: {:?}",
            f.timeline().last()
        );
    }

    /// End-to-end machine placement in the fleet: with a shared pool
    /// installed, every live shard with metadata gets a machine assignment
    /// (via `apply_placement` when its executor counts are unchanged),
    /// the assignment matches the running allocation, and the combined
    /// usage respects every machine's capacity vector.
    #[test]
    fn machine_pool_threads_placement_end_to_end() {
        let pool = PlacementPool::uniform(2, ResourceProfile::uniform(16.0)).unwrap();
        let profile = ResourceProfile::uniform(2.0);
        let info = ShardPlacementInfo {
            profiles: vec![profile],
            edges: vec![],
        };
        // Both shards already run their demanded allocation: no rebalance
        // ever fires, so the assignment must travel via `apply_placement`.
        let mut config = FleetDriverConfig::new(20);
        config.warmup_windows = 1;
        config.window_secs = 1.0;
        let mut f = FleetDriver::new(
            config,
            vec![
                FleetShardSpec::new("a", 0.2, StaticShard::new(40.0, 10.0, 5))
                    .with_placement(info.clone()),
                FleetShardSpec::new("b", 0.2, StaticShard::new(25.0, 10.0, 4))
                    .with_placement(info.clone()),
            ],
        )
        .unwrap();
        f.set_machine_pool(pool);
        f.run_windows(4);

        let mut usage = vec![ResourceProfile::uniform(0.0); 2];
        for i in 0..2 {
            let p = f.shard_placement(i).expect("placement in force");
            assert_eq!(p.allocation(), f.backend(i).allocation, "shard {i}");
            for (m, u) in p.usage(&info.profiles).iter().enumerate() {
                usage[m].cpu += u.cpu;
                usage[m].mem += u.mem;
                usage[m].net += u.net;
            }
            assert!(
                f.backend(i).placement_calls >= 1,
                "assignment must go through apply_placement"
            );
        }
        for u in &usage {
            assert!(u.cpu <= 16.0 && u.mem <= 16.0 && u.net <= 16.0, "{u}");
        }
        // In-force assignments are stable: re-solving an unchanged fleet
        // must not keep issuing placement commands.
        let calls: Vec<usize> = (0..2).map(|i| f.backend(i).placement_calls).collect();
        f.run_windows(3);
        assert_eq!(
            calls,
            (0..2)
                .map(|i| f.backend(i).placement_calls)
                .collect::<Vec<_>>(),
            "converged fleet must not re-issue identical assignments"
        );
    }

    /// Two placement-enabled shards on a 2-machine pool, both already
    /// running their demanded allocation, settled for six windows.
    fn settled_placed_pair() -> FleetDriver<StaticShard> {
        let pool = PlacementPool::uniform(2, ResourceProfile::uniform(16.0)).unwrap();
        let info = ShardPlacementInfo {
            profiles: vec![ResourceProfile::uniform(2.0)],
            edges: vec![],
        };
        let mut config = FleetDriverConfig::new(20);
        config.warmup_windows = 1;
        config.window_secs = 1.0;
        let mut f = FleetDriver::new(
            config,
            vec![
                FleetShardSpec::new("a", 0.2, StaticShard::new(40.0, 10.0, 5))
                    .with_placement(info.clone()),
                FleetShardSpec::new("b", 0.2, StaticShard::new(25.0, 10.0, 4)).with_placement(info),
            ],
        )
        .unwrap();
        f.set_machine_pool(pool);
        f.run_windows(6);
        f
    }

    /// Regression: a settled placement-enabled fleet performs *zero*
    /// per-shard solver calls per window — the warm state sees every
    /// request unchanged and replans nothing.
    #[test]
    fn unchanged_fleet_performs_zero_placement_solver_calls() {
        let mut f = settled_placed_pair();
        let solver_calls = f.placement_solver_calls();
        let full_solves = f.placement_full_solves();
        assert!(full_solves >= 1, "the first window batch-solves");
        f.run_windows(10);
        assert_eq!(
            f.placement_solver_calls(),
            solver_calls,
            "settled windows must not touch the placement solver"
        );
        assert_eq!(f.placement_full_solves(), full_solves);
        // An explicit invalidation forces exactly one batch re-solve.
        f.invalidate_placement_cache();
        f.run_windows(1);
        assert_eq!(f.placement_full_solves(), full_solves + 1);
    }

    /// Phase 5b decides on the solve id alone while a shard's warm slot
    /// has not been re-solved: the in-force assignment is swapped for a
    /// different one behind the driver's back, and no settled window
    /// notices. A re-solve (new id) brings the comparison back, which
    /// then finds the difference and re-sends the assignment.
    #[test]
    fn placement_only_moves_skip_unresolved_shards_on_the_solve_id() {
        let mut f = settled_placed_pair();
        let in_force_is_planned = |f: &FleetDriver<StaticShard>| {
            (0..2).all(|i| {
                let slot = f.scratch.place_slots[i].expect("placed");
                let id = f.scratch.place.solve_id(slot as usize);
                id != 0 && f.shards[i].placement_id == id
            })
        };
        assert!(in_force_is_planned(&f));

        let solved = f.shards[0].placement.clone().expect("in force");
        let decoy = Placement::from_counts(vec![vec![7, 7]]);
        f.shards[0].placement = Some(decoy.clone());
        let calls = f.backend(0).placement_calls;
        f.run_windows(5);
        assert_eq!(
            f.shard_placement(0),
            Some(&decoy),
            "5b compared assignments"
        );
        assert_eq!(f.backend(0).placement_calls, calls);
        assert!(in_force_is_planned(&f));

        f.invalidate_placement_cache();
        f.run_windows(1);
        assert_eq!(f.shard_placement(0), Some(&solved));
        assert_eq!(f.backend(0).placement_calls, calls + 1);
        // "b" was re-solved to the same assignment: compared, found equal,
        // nothing sent, and its id caught up for the next window.
        assert!(in_force_is_planned(&f));
    }

    /// The placement rate band: edge-rate wobble inside
    /// [`FleetDriverConfig::placement_rate_band`] must not dirty a shard
    /// (no solver call), while a shift beyond the band must.
    #[test]
    fn revived_shard_is_placed_afresh() {
        let mut f = settled_placed_pair();
        let pool = f.machine_pool().unwrap().clone();
        let placed_usage = |f: &FleetDriver<StaticShard>| -> f64 {
            let full: f64 = pool.machines().iter().map(|m| m.capacity.cpu).sum();
            full - f
                .scratch
                .place
                .remaining()
                .iter()
                .map(|r| r.cpu)
                .sum::<f64>()
        };
        let both = placed_usage(&f);

        // "b" dies: the sweep refunds its machine usage and frees its slot.
        f.backend_mut(1).silent = true;
        f.run_windows(f.config().lease_windows + 1);
        assert!(f.shard_dead(1));
        assert_eq!(f.scratch.place.slot_of("b"), None);
        assert_eq!(f.scratch.place_slots[1], None);
        assert!(placed_usage(&f) < both);

        // Revived, it must not be handed its tombstoned slot back: it is
        // inserted, solved and charged to the pool again.
        f.backend_mut(1).silent = false;
        f.run_windows(3);
        assert!(!f.shard_dead(1));
        let slot = f.scratch.place.slot_of("b").expect("a live slot again");
        assert_eq!(f.scratch.place_slots[1], Some(slot_u32(slot)));
        assert!(f
            .shard_placement(1)
            .is_some_and(|p| p.allocation_matches(&f.backend(1).allocation)));
        assert!((placed_usage(&f) - both).abs() < 1e-9);
    }

    #[test]
    fn placement_rate_band_absorbs_wobble_but_tracks_real_shifts() {
        let pool = PlacementPool::uniform(2, ResourceProfile::uniform(16.0)).unwrap();
        let info = ShardPlacementInfo {
            profiles: vec![ResourceProfile::uniform(2.0)],
            // A self-loop edge whose rate is the operator's measured
            // arrival rate — the only input that wobbles below.
            edges: vec![(0, 0, 1.0)],
        };
        let mut config = FleetDriverConfig::new(20);
        config.warmup_windows = 1;
        config.window_secs = 1.0;
        // Generous latency target: rate wobble in (40, 49] keeps the
        // demanded allocation at the minimum stable 5, so only the edge
        // rate moves.
        let mut f = FleetDriver::new(
            config,
            vec![
                FleetShardSpec::new("a", 0.5, StaticShard::new(40.0, 10.0, 5)).with_placement(info),
            ],
        )
        .unwrap();
        f.set_machine_pool(pool);
        f.run_windows(6);
        let settled = f.placement_solver_calls();

        // +2.5% wobble: inside the 5% band, absorbed.
        f.backend_mut(0).rate = 41.0;
        f.run_windows(3);
        assert_eq!(
            f.placement_solver_calls(),
            settled,
            "in-band rate wobble must not re-solve placement"
        );

        // +20%: outside the band, the shard goes dirty and re-solves.
        f.backend_mut(0).rate = 48.0;
        f.run_windows(3);
        assert!(
            f.placement_solver_calls() > settled,
            "an out-of-band rate shift must reach the solver"
        );
    }

    /// An allocation that changes behind the driver's back — no command
    /// of its own moved it — is seen on the next window: the record shows
    /// it and the shard is sent back to its grant.
    #[test]
    fn allocation_moved_behind_the_driver_is_seen() {
        let mut f = fleet(
            20,
            vec![
                ("a", 0.5, StaticShard::new(40.0, 10.0, 7)),
                ("b", 0.5, StaticShard::new(20.0, 10.0, 5)),
            ],
        );
        f.run_windows(8);
        let settled = f.timeline().last().unwrap().shards[0].allocation.clone();
        assert!(f
            .timeline()
            .last()
            .unwrap()
            .shards
            .iter()
            .all(|s| !s.rebalanced));
        f.backend_mut(0).allocation = vec![settled[0] + 3];
        let w = f.step();
        assert_eq!(w.shards[0].allocation, settled, "moved back at once");
        assert!(w.shards[0].rebalanced);
        assert_eq!(f.backend(0).allocation, settled);
    }

    /// A shard that first reports after warm-up — the first negotiated
    /// window found nothing to fit — and whose load no budget can fit gets
    /// its fit error on record the window it appears, even with the
    /// liveness lease off (no revival lists it).
    #[test]
    fn late_fit_error_reaches_the_record() {
        let mut config = FleetDriverConfig::new(20);
        config.warmup_windows = 1;
        config.window_secs = 1.0;
        config.lease_windows = 0;
        let mut late = StaticShard::new(500.0, 10.0, 4);
        late.silent = true;
        let mut f = FleetDriver::new(
            config,
            vec![
                FleetShardSpec::new("a", 0.5, StaticShard::new(40.0, 10.0, 7)),
                FleetShardSpec::new("late", 0.5, late),
            ],
        )
        .unwrap();
        f.run_windows(4);
        assert!(f.timeline().iter().all(|w| w.shards[1].error.is_none()));
        f.backend_mut(1).silent = false;
        let w = f.step();
        assert!(w.shards[1].error.is_some(), "{w:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Visiting only the change list is exact: under rate shifts,
        /// refused applies, deaths and revivals, on budgets from contended
        /// to roomy (and below the floors, where negotiation fails), a
        /// driver that walks the change list records the same windows,
        /// grants, commands and placements as one forced to visit every
        /// shard every window.
        #[test]
        fn change_list_equals_visiting_every_shard(
            // Per shard: λ and the µ of each operator, from small sets so
            // that neighbouring shards often hold equal grants.
            shards in vec((0usize..3, 0usize..2, 0usize..2), 2..=6),
            headroom in 0.6f64..1.3,
            script in vec((0u8..6, 0usize..64, 5.0f64..60.0), 6..=30),
        ) {
            let shards: Vec<(f64, f64, f64)> = shards
                .iter()
                .map(|&(r, m0, m1)| ([12.0, 24.0, 36.0][r], [8.0, 14.0][m0], [8.0, 14.0][m1]))
                .collect();
            let info = ShardPlacementInfo {
                profiles: vec![ResourceProfile::uniform(1.0), ResourceProfile::uniform(2.0)],
                edges: vec![(0, 1, 1.0)],
            };
            let mut demand = 0.0;
            let specs = |demand: &mut f64| -> Vec<FleetShardSpec<StaticShard>> {
                shards
                    .iter()
                    .enumerate()
                    .map(|(id, &(rate, mu0, mu1))| {
                        let k = |mu: f64| (rate / mu).ceil() as u32 + 1;
                        let allocation = vec![k(mu0), k(mu1)];
                        *demand += f64::from(allocation[0] + allocation[1]);
                        let shard = StaticShard::chain(rate, vec![mu0, mu1], allocation);
                        FleetShardSpec::new(format!("s{id}"), 0.3, shard)
                            .with_placement(info.clone())
                    })
                    .collect()
            };
            let build = |specs: Vec<FleetShardSpec<StaticShard>>, k_max: u32| {
                let mut config = FleetDriverConfig::new(k_max);
                config.warmup_windows = 1;
                config.window_secs = 1.0;
                let mut f = FleetDriver::new(config, specs).unwrap();
                f.set_machine_pool(
                    PlacementPool::uniform(3, ResourceProfile::uniform(60.0)).unwrap(),
                );
                f
            };
            let first = specs(&mut demand);
            let k_max = (demand * headroom) as u32;
            let (mut sparse, mut every) = (build(first, k_max), build(specs(&mut 0.0), k_max));
            for &(action, pick, rate) in &script {
                for f in [&mut sparse, &mut every] {
                    let shard = f.backend_mut(pick % shards.len());
                    match action {
                        0..=2 => shard.rate = rate,
                        3 => shard.silent = !shard.silent,
                        4 => shard.fail_applies = 1,
                        _ => {}
                    }
                }
                // A stale roster stamp makes every window a full one.
                every.roster += 1;
                every.step();
                sparse.step();
                prop_assert_eq!(sparse.last_window(), every.last_window());
                prop_assert_eq!(sparse.negotiator().grants(), every.negotiator().grants());
                for i in 0..shards.len() {
                    prop_assert_eq!(sparse.shard_placement(i), every.shard_placement(i));
                    prop_assert_eq!(&sparse.backend(i).allocation, &every.backend(i).allocation);
                }
            }
            prop_assert_eq!(sparse.timeline(), every.timeline());
            prop_assert_eq!(sparse.placement_solver_calls(), every.placement_solver_calls());
            prop_assert_eq!(sparse.wasted_grants(), every.wasted_grants());
        }
    }
}
