//! The warm fleet negotiator: shard demands, their grants and the one budget they share.

use super::executor_total;
use crate::scheduler::Candidate;
use drs_queueing::incremental::NetworkSojourn;
use drs_queueing::jackson::JacksonNetwork;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

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
    /// A demand with no operators yet, for a first refit to fill
    /// (allocation-free until then).
    pub(super) fn unfitted() -> Self {
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
type Descend = Reverse<Ascend>;

/// Whether `allocation` is the position `walk` is parked at.
fn at_walk(walk: &NetworkSojourn, allocation: &[u32]) -> bool {
    allocation.len() == walk.len()
        && allocation
            .iter()
            .enumerate()
            .all(|(op, &k)| walk.servers(op) == k)
}

/// Per-shard warm state carried across windows by the incremental
/// negotiator (see [`FleetNegotiator::negotiate_within_incremental`]).
#[derive(Debug, Clone)]
pub(super) struct SlotState {
    /// The demand the warm state was built from (bitwise cache key — see
    /// `demand_bits_equal`).
    demand: ShardDemand,
    /// Per op, the minimum stable allocation; then per op, `demand.desired`
    /// raised to it. One buffer, read through [`SlotState::floor`] and
    /// [`SlotState::desired_floored`].
    floored: Vec<u32>,
    floor_total: u64,
    pub(super) desired_total: u64,
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
    pub(super) fn desired_floored(&self) -> &[u32] {
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
/// per-topology demands (see the [module docs](super)).
///
/// [`FleetNegotiator::negotiate_within_incremental`] is the negotiation
/// [`FleetDriver`](super::FleetDriver) runs: warm-started from the previous window's state,
/// `O(changed shards + executor moves)` per call and allocation-free when
/// nothing changed. The stateless [`negotiate_within`] computes the same
/// grants from scratch in `O(fleet)` and serves only as its oracle (see the
/// [module docs](super)).
///
/// The warm state is a pure cache: any warm position converges to the same
/// bit-identical grants a cold run computes, so a driver's clones,
/// mid-sequence errors and restores are all safe.
///
/// [`negotiate_within`]: FleetNegotiator::negotiate_within
#[derive(Debug, Clone)]
pub struct FleetNegotiator {
    k_max: u32,
    /// Warm per-shard state, indexed like the demand slice.
    pub(super) slots: Vec<SlotState>,
    /// Published grants, indexed like the demand slice.
    pub(super) grants: Vec<ShardGrant>,
    /// Frontier steps, best first (lazy, stamped — see [`WarmEntry`]).
    ascent: BinaryHeap<Ascend>,
    /// Taken steps, weakest first (lazy, stamped).
    descent: BinaryHeap<Descend>,
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
    pub(super) changed: Vec<u32>,
    /// Slots whose published grant differs from their floored desire —
    /// the only ones the gate-aware re-offer resolves differently from
    /// their grant. Exact after a successful call.
    pub(super) off_desire: Vec<u32>,
    /// Published grants with `capped` set.
    pub(super) capped_count: usize,
}

impl FleetNegotiator {
    /// Creates a negotiator owning a global budget of `k_max` processors.
    pub fn new(k_max: u32) -> Self {
        FleetNegotiator {
            k_max,
            slots: Vec::new(),
            grants: Vec::new(),
            ascent: BinaryHeap::new(),
            descent: BinaryHeap::new(),
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
    /// [`crate::scheduler::min_processors_for_target`] /
    /// [`crate::scheduler::assign_processors`] never sit below it.)
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
        let mut heap: BinaryHeap<Candidate<(usize, usize)>> = states
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

    /// The gate-aware re-offer (see the [module docs](super)): with held
    /// shards keeping `held_current` executors in force and their floored
    /// desires `held_desired` withdrawn, do the other shards' floored desires
    /// fit what is left of `budget`?
    pub(super) fn reoffer_fits(&self, budget: u32, held_desired: u64, held_current: u64) -> bool {
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
    /// [`FleetNegotiator::grants`]. `demands` is any exact-size walk over
    /// the demand list — a slice, or the driver's segments in order.
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
    pub fn negotiate_within_incremental<'a, D>(
        &mut self,
        budget: u32,
        demands: D,
    ) -> Result<(), FleetError>
    where
        D: IntoIterator<Item = &'a ShardDemand>,
        D::IntoIter: ExactSizeIterator,
    {
        let demands = demands.into_iter();
        let n = demands.len();
        debug_assert!(u32::try_from(n).is_ok());
        self.changed.clear();
        // Slots beyond the end of the demand slice retire (fleet shrank or
        // re-packed); their heap entries die by the slot-index bound check.
        if self.slots.len() > n {
            self.off_desire.retain(|&i| (i as usize) < n);
        }
        if let Some(retired) = self.grants.get(n..) {
            self.capped_count -= retired.iter().filter(|g| g.capped).count();
        }
        while self.slots.len() > n {
            let slot = self.slots.pop().expect("len checked above");
            self.sum_floor -= slot.floor_total;
            self.sum_desired -= slot.desired_total;
            self.sum_taken -= slot.taken_total;
            self.total_ops -= slot.demand.network.len();
        }
        self.grants.truncate(n);

        // Diff pass, in slot order (so the first invalid changed slot
        // reports the same `DemandLength` a from-scratch validation would).
        for (i, d) in demands.enumerate() {
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
            self.mark_touched(i);
        }
        if self.grants.len() < n {
            self.grants.resize_with(n, || ShardGrant {
                allocation: Vec::new(),
                capped: false,
            });
        }
        debug_assert_eq!(self.slots.len(), n);

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
                if !at_walk(walk, &self.grants[i].allocation) {
                    self.mark_touched(i);
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
        // While a frontier step of a below-cap shard outranks a taken step
        // in the greedy order, the warm state is not the greedy equilibrium
        // and the pair must be exchanged.
        while let (Some(f), Some(a)) = (self.clean_ascent_top(), self.clean_descent_top()) {
            if Ascend(f) <= Ascend(a) {
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
            let moved = !at_walk(walk, &grant.allocation);
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
        self.mark_touched(i);
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
            let e = self.descent.peek()?.0 .0;
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
            self.descent.push(Reverse(Ascend(WarmEntry {
                delta: top,
                ..entry
            })));
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
            let mut live = std::mem::take(&mut self.ascent).into_vec();
            live.retain(|e| self.entry_live(&e.0));
            self.ascent = BinaryHeap::from(live);
        }
        if self.descent.len() > cap {
            let mut live = std::mem::take(&mut self.descent).into_vec();
            live.retain(|e| self.entry_live(&e.0 .0));
            self.descent = BinaryHeap::from(live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

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
        let grants = negotiator
            .negotiate_within(negotiator.k_max(), &demands)
            .unwrap();
        assert_eq!(grants[0].allocation, vec![6]);
        assert_eq!(grants[1].allocation, vec![4]);
        assert!(grants.iter().all(|g| !g.capped));
    }

    #[test]
    fn contended_grants_spend_exactly_the_budget() {
        let negotiator = FleetNegotiator::new(12);
        // Desired 9 + 7 = 16 > 12; min stable 5 + 3 = 8 ≤ 12.
        let demands = vec![demand(45.0, 10.0, vec![9]), demand(25.0, 10.0, vec![7])];
        let grants = negotiator
            .negotiate_within(negotiator.k_max(), &demands)
            .unwrap();
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
        let grants = negotiator
            .negotiate_within(negotiator.k_max(), &demands)
            .unwrap();
        assert!(grants[0].allocation[0] > grants[1].allocation[0]);
    }

    #[test]
    fn insufficient_budget_detected() {
        let negotiator = FleetNegotiator::new(6);
        // Min stables: 5 + 3 = 8 > 6.
        let demands = vec![demand(45.0, 10.0, vec![9]), demand(25.0, 10.0, vec![7])];
        let err = negotiator
            .negotiate_within(negotiator.k_max(), &demands)
            .unwrap_err();
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
            .negotiate_within(negotiator.k_max(), &[demand(45.0, 10.0, vec![1])])
            .unwrap();
        assert_eq!(grants[0].allocation, vec![5]);
        assert!(!grants[0].capped);
        // …and under contention (second shard forces the greedy branch).
        let negotiator = FleetNegotiator::new(9);
        let demands = vec![demand(45.0, 10.0, vec![1]), demand(25.0, 10.0, vec![7])];
        let grants = negotiator
            .negotiate_within(negotiator.k_max(), &demands)
            .unwrap();
        assert!(grants[0].allocation[0] >= 5);
        let total: u64 = grants.iter().map(ShardGrant::total).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn demand_length_mismatch_detected() {
        let negotiator = FleetNegotiator::new(10);
        let demands = vec![demand(10.0, 10.0, vec![2, 2])];
        assert!(matches!(
            negotiator
                .negotiate_within(negotiator.k_max(), &demands)
                .unwrap_err(),
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
        let a = negotiator
            .negotiate_within(negotiator.k_max(), &demands)
            .unwrap();
        let b = negotiator
            .negotiate_within(negotiator.k_max(), &demands)
            .unwrap();
        assert_eq!(a, b);
    }
}
