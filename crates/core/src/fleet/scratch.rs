//! The window's working buffers: the change list, the per-shard flags and the phase clock.

use super::negotiator::FleetNegotiator;
use super::shard::PassBuffers;
use super::WINDOW_PHASES;
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
/// (see `FleetDriver::step`) re-sizes everything. The shards' own
/// rows — samples and packed demands — live in their segments.
#[derive(Debug, Clone, Default)]
pub(super) struct FleetScratch {
    /// Actuation or placement error per shard (a refit error stays on the
    /// shard, `ShardState::demand_error`).
    pub(super) errors: Vec<Option<String>>,
    /// The shard of each slot of the fleet's demand list (see
    /// `Segments::demands`).
    pub(super) demand_shard: Vec<usize>,
    /// The buffers the caller's thread reuses from shard to shard in the
    /// pass (each pass worker has its own).
    pub(super) pass: PassBuffers,
    /// This window's verdicts per shard, all clear between windows.
    pub(super) flags: Vec<ShardFlags>,
    /// Whether this window's negotiation succeeded (the negotiator's
    /// published grants are usable).
    pub(super) negotiated_ok: bool,
    /// The gate-aware re-offer was accepted: every ungated modeled shard
    /// resolves to its floored desire, not its (possibly capped) grant.
    pub(super) reoffered: bool,
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
    /// requests, solved placements, residual pool capacity. Each placed
    /// shard keeps its slot (`ShardState::place_slot`). See
    /// [`placement::FleetPlacementState`].
    pub(super) place: placement::FleetPlacementState,
    /// The shards' slots inverted: the shard each warm-state slot was last
    /// presented for, to visit the shards `replan` re-solved.
    pub(super) place_owner: Vec<usize>,
}

impl FleetScratch {
    /// Starts a window over `n` shards. A full window re-sizes every
    /// per-shard buffer and lists every shard; any other starts its change
    /// list from the shards the last window left unsettled. Either finds
    /// the flags, errors and planned slots clear.
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
        self.errors.resize_with(n, || None);
        self.flags.resize(n, ShardFlags::default());
        self.planned_slots.resize(n, None);
    }

    /// Adds shard `i` to this window's change list (once).
    pub(super) fn list(&mut self, i: usize) {
        if !self.listed[i] {
            self.listed[i] = true;
            self.visit.push(i);
        }
    }

    /// The allocation shard `i`, at `slot` of the demand list while it has
    /// a usable model, should actuate this window: `None` when negotiation
    /// failed, the shard has no usable model, or its gate holds the grant;
    /// its floored desire where the re-offer was accepted; the
    /// negotiator's published grant otherwise. The grant borrows only the
    /// negotiator, so callers may go on writing the scratch while they hold
    /// it.
    pub(super) fn grant<'n>(
        &self,
        negotiator: &'n FleetNegotiator,
        i: usize,
        slot: Option<u32>,
    ) -> Option<&'n [u32]> {
        if !self.negotiated_ok || self.flags[i].gated {
            return None;
        }
        let slot = slot? as usize;
        Some(if self.reoffered {
            negotiator.slots[slot].desired_floored()
        } else {
            &negotiator.grants[slot].allocation
        })
    }
}
