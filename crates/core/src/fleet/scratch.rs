//! The window's working buffers: the change list, the per-shard flags and the phase clock.

use super::negotiator::{FleetNegotiator, ShardDemand};
use super::shard::PassBuffers;
use super::{slot_u32, WINDOW_PHASES};
use crate::driver::WindowSample;
use crate::placement;
use std::time::{Duration, Instant};

/// Index of each entry of [`WINDOW_PHASES`].
#[derive(Debug, Clone, Copy)]
pub(super) enum Phase {
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
pub(super) struct PhaseClock {
    pub(super) times: [Duration; WINDOW_PHASES.len()],
    last: Instant,
}

impl PhaseClock {
    pub(super) fn start() -> Self {
        PhaseClock {
            times: [Duration::ZERO; WINDOW_PHASES.len()],
            last: Instant::now(),
        }
    }

    /// Ends `phase`: charges it the time since the previous boundary.
    pub(super) fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        self.times[phase as usize] = now - self.last;
        self.last = now;
    }
}

/// One shard's verdicts of the window, set by the phases that decide them
/// and cleared by the record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct ShardFlags {
    /// The negotiator capped the shard's grant below its demand.
    pub(super) capped: bool,
    /// The shard's decision gate holds its grant: it keeps what it runs.
    pub(super) gated: bool,
    /// A shrink the gate-aware pass promoted to urgent (holding it would
    /// starve another shard): it bypasses the actuation-time gate.
    pub(super) urgent: bool,
    /// A rebalance was applied to the shard.
    pub(super) rebalanced: bool,
}

/// Per-window working buffers, reused across windows so the fleet loop
/// allocates nothing per shard in steady state. A window resets the flags,
/// errors and planned slots of the shards it visited on its way out, so the
/// next one starts clean without sweeping the fleet; only a full window
/// (see `FleetDriver::run_window`) re-sizes everything. The packed
/// demand buffer (`demands`/`demand_idx`) deliberately persists across
/// windows, so unchanged shards hand the incremental negotiator
/// bitwise-identical slots — its no-op fast path.
#[derive(Debug, Clone, Default)]
pub(super) struct FleetScratch {
    /// Permutation check for a caller-supplied advance order.
    pub(super) seen: Vec<bool>,
    /// This window's measurement report per shard (buffers reused; every
    /// entry is overwritten by `advance_into` before it is read).
    pub(super) samples: Vec<WindowSample>,
    /// Actuation or placement error per shard (a refit error stays on the
    /// shard, `ShardState::demand_error`).
    pub(super) errors: Vec<Option<String>>,
    /// Index into `demands` per shard (`None`: no usable model). Slots
    /// ascend with the shard index. Persists across windows together with
    /// `demands`; `FleetDriver::remove_shard` keeps both aligned.
    pub(super) demand_idx: Vec<Option<u32>>,
    /// `demand_idx` inverted: the shard of each packed demand slot.
    pub(super) demand_shard: Vec<usize>,
    /// Packed negotiation demands, one per modeled shard in shard index
    /// order — the only copy of a shard's fitted demand outside the
    /// negotiator's cache. A refit rewrites the shard's slot in place and
    /// the list is handed to the negotiator directly.
    pub(super) demands: Vec<ShardDemand>,
    /// Shards that gained (`Some`, their first fit) or lost (`None`) their
    /// model this window: `demands` is re-packed around them.
    pub(super) remodeled: Vec<(usize, Option<ShardDemand>)>,
    /// The buffers the per-shard pass reuses from shard to shard.
    pub(super) pass: PassBuffers,
    /// This window's verdicts per shard, all clear between windows.
    pub(super) flags: Vec<ShardFlags>,
    /// Whether this window's negotiation succeeded (the negotiator's
    /// published grants are usable).
    pub(super) negotiated_ok: bool,
    /// The gate-aware re-offer was accepted: every ungated modeled shard
    /// resolves to its floored desire, not its (possibly capped) grant.
    pub(super) reoffered: bool,
    /// The allocation in force per shard, cached once per window (buffers
    /// reused), replaced by what a rebalance put in force, and kept across
    /// windows, so the pass can tell which shards' allocations moved.
    pub(super) current_allocs: Vec<Vec<u32>>,
    /// This window's change list: the shards every phase after the
    /// per-shard pass visits, in index order from the negotiation on.
    pub(super) visit: Vec<usize>,
    /// Membership of `visit`, per shard.
    pub(super) listed: Vec<bool>,
    /// The shards the last window left unsettled: they open the next
    /// window's change list.
    pub(super) carry: Vec<usize>,
    /// The shards whose grant differs from what they run, shrinks first.
    pub(super) actuation_order: Vec<usize>,
    /// The growers among them, until they are appended to the order.
    pub(super) growers: Vec<usize>,
    /// Shards held back by the gate-aware pass.
    pub(super) held: Vec<usize>,
    /// This window's solved machine assignment per visited shard, as a
    /// slot into the warm placement state (`place`) — the placement itself
    /// stays cached there and is cloned only when a command actually
    /// carries it.
    pub(super) planned_slots: Vec<Option<u32>>,
    /// The warm-start placement cache (persists across windows): cached
    /// requests, solved placements, residual pool capacity, per-shard
    /// placement epochs. See [`placement::FleetPlacementState`].
    pub(super) place: placement::FleetPlacementState,
    /// Shard index → warm-state slot, persisted across windows. Valid
    /// while the roster stands still (`place_roster`); re-validated by
    /// name after churn, which shifts shard indices.
    pub(super) place_slots: Vec<Option<u32>>,
    /// `place_slots` inverted: the shard each warm-state slot was last
    /// presented for, to visit the shards `replan` re-solved.
    pub(super) place_owner: Vec<usize>,
    /// `FleetDriver::roster` as of the last validation of `place_slots`.
    pub(super) place_roster: u64,
}

impl FleetScratch {
    /// Starts a window over `n` shards. A full window re-sizes every
    /// per-shard buffer and lists every shard; any other starts its change
    /// list from the shards the last window left unsettled. Either finds
    /// the flags, errors and planned slots clear, and the packed demands
    /// untouched.
    pub(super) fn reset(&mut self, n: usize, full: bool) {
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
        self.errors.resize_with(n, || None);
        // A joined shard starts without a model; a removed one already
        // took its entry with it.
        self.demand_idx.resize(n, None);
        self.flags.resize(n, ShardFlags::default());
        self.current_allocs.resize_with(n, Vec::new);
        self.planned_slots.resize(n, None);
        // `place`/`place_slots` persist across windows (the warm-start
        // placement cache); see `place_roster`.
        if self.place_slots.len() != n {
            self.place_slots.clear();
            self.place_slots.resize(n, None);
        }
    }

    /// Adds shard `i` to this window's change list (once).
    pub(super) fn list(&mut self, i: usize) {
        if !self.listed[i] {
            self.listed[i] = true;
            self.visit.push(i);
        }
    }

    /// Re-derives `demand_shard` from `demand_idx`.
    pub(super) fn index_demands(&mut self) {
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
    pub(super) fn repack_demands(&mut self) {
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
    /// negotiator's published grant otherwise. The grant borrows only the
    /// negotiator, so callers may go on writing the scratch while they hold
    /// it.
    pub(super) fn grant<'n>(&self, negotiator: &'n FleetNegotiator, i: usize) -> Option<&'n [u32]> {
        if !self.negotiated_ok || self.flags[i].gated {
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
