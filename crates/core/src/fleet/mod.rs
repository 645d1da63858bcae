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
//!   shard (each shard is an independent
//!   [`CspBackend`](crate::driver::CspBackend) on its own clock)
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
//! One [`FleetDriver::step`] runs the nine phases of [`WINDOW_PHASES`], and
//! the measurement overhead of the whole loop (the paper's third challenge)
//! is what they cost together. Only the first walks every shard. It also
//! builds the window's **change list**: the shards whose grant, placement
//! or record can differ from the last window's. Every later phase walks
//! that list in index order, or a subset of it; a shard off the list runs
//! its grant, keeps its assignment and its record, so skipping it changes
//! nothing (debug builds check this after every window). The list is the
//! union of
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
//! A join or a leave, the first negotiated window and a new machine pool —
//! the windows where every shard's inputs change — list every shard.
//! [`FleetDriver::phase_times`] clocks each phase under its name; a warm-up
//! window runs only the first and the last.
//!
//! 1. **`pass`**, one per shard, segment by segment on several threads
//!    (next section): advance the backend a window, feed the sample to the
//!    measurer, judge the liveness lease, cache the running allocation, and
//!    — past warm-up, when the smoothed estimates moved — refit the shard's
//!    demand *in place*: estimates into one reused buffer
//!    (`crate::measurer::Measurer::write_estimates`), rates into the cached
//!    network ([`drs_queueing::jackson::JacksonNetwork::set_rates`]),
//!    Program 6 into the cached `desired` vector
//!    (`crate::scheduler::min_processors_for_target_into`). The pass
//!    reads and writes only its own shard's state and row of the window
//!    buffers, so it runs on one shard while its buffers are in cache; a
//!    refit whose answer stands allocates nothing. A segment in which some
//!    shard gained or lost its model (the first negotiated window, deaths,
//!    revivals, joins) then re-packs its demands: they move, none is
//!    cloned. As each segment comes home, the caller's thread writes the
//!    fields of its shards' records that move every window off their
//!    reports. Last, it merges what the segments found, in segment order:
//!    the shards they listed and — after a re-pack — every shard from the
//!    first one whose demand slot moved.
//! 2. **`negotiate`** once, warm-started (see below): it walks the demand
//!    list, but reports only the slots whose published grant or floored
//!    desire it changed.
//! 3. **`gate`**: the gate-aware pass consults the gate of the listed
//!    shards whose grant differs from what they run.
//! 4. **`present`**, when a shared machine pool is installed: compare the
//!    listed shards' placement requests with their inputs.
//! 5. **`replan`**: re-solve only the changed requests, in sorted-name
//!    order; the shards re-solved join the change list.
//! 6. **`order`** the listed shards whose grant differs from what they
//!    run, shrinks before grows.
//! 7. **`actuate`** them in that order, each grow re-checked against the
//!    executors the fleet actually runs.
//! 8. **`moves`**: send placement-only moves to the listed shards whose
//!    counts stood still.
//! 9. **`record`** the listed shards into [`FleetDriver::last_window`] in
//!    place, and carry the ones left unsettled into the next window's list.
//!
//! # Segments and threads
//!
//! The driver keeps its shards in contiguous segments of
//! [`SEGMENT_SHARDS`] (every segment but the last is full), and a segment
//! owns its shards' lasting state and their row of the window: the
//! measurement report and the packed demands of its modeled shards. The
//! fleet's demand list is the segments' packed demands in segment order,
//! which is the list of every modeled shard in index order.
//!
//! The `pass` runs on `available_parallelism()` threads, at most one per
//! segment: the caller's and persistent workers. The workers start on the
//! first window with more than one segment, park between windows, and are
//! joined when the driver is dropped; a clone of the driver starts workers
//! of its own, and shares none. Each window the caller's thread measures
//! segments from the front while the workers take segments from the back,
//! until the two ends meet, so a thread that runs slower measures fewer. A
//! segment goes to whichever worker is idle by value, over a bounded
//! channel, and comes back the same way to its place: the split needs no
//! lock on any shard, spawns nothing and allocates nothing. It is why a
//! backend must be `Send + 'static`. A backend that panics on a worker
//! panics the caller's `step` once every segment is back.
//!
//! The thread count changes only speed. A shard's pass depends on nothing
//! but the shard, so each segment's findings are what one thread would have
//! found, whichever thread measured it, and they merge in segment order:
//! the change list, the demand list and its re-pack, every record, and
//! every later phase — all on the caller's thread — are bit for bit what a
//! single thread computes.
//!
//! Only the window record is keyed by shard index across windows. After
//! [`FleetDriver::add_shard`] or [`FleetDriver::remove_shard`] has shifted
//! the indices under its names, the next window is full and records every
//! name afresh.
//!
//! # Where a shard's state lives
//!
//! What lasts as long as the shard — backend, sample builder, measurer,
//! the actuation epoch and backoff, lease, the allocation and the placement
//! in force, its slot in the warm placement state — is one entry of its
//! segment, and leaves with it. What a window rewrites in place is one
//! entry per shard in each of the window buffers: in the shard's segment
//! the report and a `u32` slot into the segment's packed demands; on the
//! driver the flags, errors and planned placements.
//! What only the shard being measured needs — its raw sample, its smoothed
//! estimates — is one buffer per pass thread, reused for every shard. A
//! fitted demand has two copies: the packed demand in its segment, which
//! the pass refits in place and the negotiator is handed, and the
//! negotiator's per-slot cache, which it diffs the list against bit for
//! bit. That slot keeps the floor
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
//!   `*_into` hooks on [`CspBackend`](crate::driver::CspBackend), and a
//!   counting-allocator test holds the zero.
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
//!   exponential backoff (1, 2, 4, … capped at 8 windows, by the same
//!   actuation step as [`crate::driver::DrsDriver`]'s); windows inside the
//!   backoff record an `actuation deferred` error instead of spamming
//!   the channel. Any acknowledgement — success *or* refusal — proves
//!   the channel alive and resets the backoff.
//! * **Rejected** — every actuation carries a per-shard monotonically
//!   increasing epoch ([`crate::driver::RebalancePlan::epoch`]); a backend must apply
//!   only strictly newer epochs, so a late or duplicated command is
//!   rejected at the shard instead of double-counted.
//! * **Discounted** — measurement reports may be stale (delayed, or a
//!   starved window substituted from history):
//!   [`crate::measurer::SampleBuilder`] tracks the age of every fallback rate and the
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
//! A `FleetDriver<B: Clone>` is its own checkpoint: a clone holds the entire
//! control plane — negotiator, per-shard measurement state, epochs, backoff
//! state, timeline, and the backends with their virtual clocks — so long
//! scenario sweeps can branch from a common prefix and replay
//! deterministically. Clones share the negotiator's warm state
//! copy-on-write: whichever negotiates first pays the one deep copy.
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

mod driver;
mod negotiator;
mod scratch;
mod segment;
mod shard;
mod workers;

pub use driver::FleetDriver;
pub use negotiator::{FleetError, FleetNegotiator, ShardDemand, ShardGrant};

use crate::decision::DecisionPolicy;
use crate::driver::WindowSample;
use crate::measurer::Smoothing;
use crate::placement::{EdgeTraffic, OperatorLoad, PlacementRequest};
use drs_topology::ResourceProfile;
use std::fmt;

/// Shards per storage segment of a [`FleetDriver`]: a segment is what one
/// thread of the window's `pass` measures at a time (see [the control
/// window](self#the-control-window)). The crate's own unit tests use 4, so
/// that their small fleets straddle segment boundaries.
pub const SEGMENT_SHARDS: usize = if cfg!(test) { 4 } else { 1024 };

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
    /// [`crate::measurer::SampleBuilder::weight`]). `1.0` disables staleness discounting;
    /// values are clamped to `(0, 1]`.
    pub stale_decay: f64,
    /// Whether every window is appended to [`FleetDriver::timeline`]
    /// (default `true`). Large fleets driven for many windows turn this
    /// off: the driver then keeps only [`FleetDriver::last_window`] —
    /// updated in place, so a steady-state window records itself without
    /// allocating — and `timeline()` stays empty.
    pub record_timeline: bool,
    /// Relative dead-band on measured edge rates for placement purposes:
    /// a shard's cached placement inputs count as *changed* (re-solving
    /// its machine assignment) only when an edge's new rate differs from
    /// the cached one by more than this fraction of the cached rate.
    /// Absorbs measurement wobble that would otherwise dirty every shard
    /// every window; allocation or resource-profile changes always count.
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

    /// Writes the placement request for running `allocation` given this
    /// window's measured `sample` into a reused buffer — the warm placement
    /// state rewrites its requests in place.
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
    /// counting as a change. A `false` here is what dirties a shard's
    /// machine assignment.
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
    /// ([`crate::scheduler::min_processors_for_target`]) for this target.
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

#[cfg(test)]
mod tests;
