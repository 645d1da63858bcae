//! Where the shards live: fixed-size segments, each the owner of its shards'
//! lasting state and of their row of the window, and each measured whole by
//! one thread.

use super::negotiator::ShardDemand;
use super::scratch::FleetScratch;
use super::shard::{self, PassBuffers, ShardRow, ShardState};
use super::{slot_u32, FleetDriverConfig, ShardPoint, SEGMENT_SHARDS};
use crate::driver::{CspBackend, WindowSample};
use std::ops::{Index, IndexMut};

/// Up to [`SEGMENT_SHARDS`] consecutive shards: their lasting state and
/// their row of the window, which the `pass` phase reads and writes, and
/// what the pass found. A segment moves to a pass worker by value and
/// comes back the same way.
#[derive(Debug, Clone)]
pub(super) struct Segment<B> {
    pub(super) shards: Vec<ShardState<B>>,
    /// This window's measurement report per shard (buffers reused; every
    /// entry is overwritten by `advance_into` before it is read).
    pub(super) samples: Vec<WindowSample>,
    /// Index into `demands` per shard (`None`: no usable model). Slots
    /// ascend with the shard index.
    pub(super) demand_idx: Vec<Option<u32>>,
    /// Packed negotiation demands, one per modeled shard in index order:
    /// the only copy of a shard's fitted demand outside the negotiator's
    /// cache. A refit rewrites the shard's slot in place.
    pub(super) demands: Vec<ShardDemand>,
    /// The fleet-wide slot of `demands[0]`: how many demands the segments
    /// before this one hold.
    base: u32,
    /// The pass's findings: the shards (local indices, ascending) that
    /// join the change list,
    listed: Vec<u32>,
    /// the shards that gained (`Some`, their first fit) or lost (`None`)
    /// their model, until `demands` is re-packed around them,
    remodeled: Vec<(u32, Option<ShardDemand>)>,
    /// the first shard whose demand slot the re-pack moved,
    repacked_from: Option<u32>,
    /// and the executors in force on live shards, and, of those, the ones
    /// on shards without a usable model (see [`shard::PassOutcome`]).
    live: u64,
    reserved: u64,
}

impl<B> Default for Segment<B> {
    fn default() -> Self {
        Segment::with_capacity(0)
    }
}

impl<B> Segment<B> {
    fn with_capacity(shards: usize) -> Self {
        Segment {
            shards: Vec::with_capacity(shards),
            samples: Vec::with_capacity(shards),
            demand_idx: Vec::with_capacity(shards),
            demands: Vec::new(),
            base: 0,
            listed: Vec::new(),
            remodeled: Vec::new(),
            repacked_from: None,
            live: 0,
            reserved: 0,
        }
    }

    fn push(&mut self, shard: ShardState<B>, demand: Option<ShardDemand>) {
        self.shards.push(shard);
        self.samples.push(WindowSample::default());
        self.demand_idx.push(demand.map(|demand| {
            self.demands.push(demand);
            slot_u32(self.demands.len() - 1)
        }));
    }

    /// Writes the fields of each shard's record that move every window,
    /// visited or not, off its report: `points` starts at the segment's
    /// first shard.
    pub(super) fn record_measured(&self, points: &mut [ShardPoint]) {
        for (point, sample) in points.iter_mut().zip(&self.samples) {
            point.mean_sojourn_ms = sample.mean_sojourn.map(|s| s * 1e3);
            point.completed = sample.completed;
        }
    }

    /// Takes shard `local` out, with its demand; later slots close up.
    fn remove(&mut self, local: usize) -> (ShardState<B>, Option<ShardDemand>) {
        let shard = self.shards.remove(local);
        self.samples.remove(local);
        let demand = self.demand_idx.remove(local).map(|slot| {
            for later in self.demand_idx[local..].iter_mut().flatten() {
                *later -= 1;
            }
            self.demands.remove(slot as usize)
        });
        (shard, demand)
    }
}

impl<B: CspBackend> Segment<B> {
    /// The `pass` phase over this segment: [`shard::pass`] over each of its
    /// shards in index order, each on its own row, then the re-pack of
    /// `demands` if a shard gained or lost its model. Touches nothing
    /// outside the segment but `buffers`.
    pub(super) fn pass(
        &mut self,
        config: &FleetDriverConfig,
        negotiating: bool,
        buffers: &mut PassBuffers,
    ) {
        // Reserved up front: the list never grows mid-pass.
        self.listed.clear();
        self.listed.reserve(self.shards.len());
        self.repacked_from = None;
        let (mut live, mut reserved) = (0, 0);
        for (local, shard) in self.shards.iter_mut().enumerate() {
            let row = ShardRow {
                sample: &mut self.samples[local],
                demand: self.demand_idx[local].map(|slot| &mut self.demands[slot as usize]),
            };
            let out = shard::pass(shard, row, config, negotiating, buffers);
            if out.listed {
                self.listed.push(slot_u32(local));
            }
            live += out.live;
            reserved += out.reserved;
            if let Some(demand) = out.remodel {
                self.remodeled.push((slot_u32(local), demand));
            }
        }
        (self.live, self.reserved) = (live, reserved);
        if !self.remodeled.is_empty() {
            self.repack();
        }
    }

    /// Re-packs `demands` around the shards in `remodeled` (listed in index
    /// order by the pass), keeping it in index order: a shard that lost its
    /// model gives its slot up, a newly modeled one takes the slot its index
    /// calls for, and every other demand moves (never clones) to its new
    /// slot. Runs only on windows where the modeled set changed — the first
    /// negotiated one, deaths, revivals, joins.
    fn repack(&mut self) {
        self.repacked_from = self.remodeled.first().map(|&(local, _)| local);
        let mut changes = std::mem::take(&mut self.remodeled).into_iter().peekable();
        let old = std::mem::take(&mut self.demands);
        self.demands.reserve(old.len() + changes.len());
        let mut old = old.into_iter();
        for (local, slot) in self.demand_idx.iter_mut().enumerate() {
            // Slots ascend with the shard index, so the next old entry is
            // this shard's.
            let kept = slot
                .take()
                .map(|_| old.next().expect("one packed demand per slot"));
            let demand = match changes.next_if(|&(shard, _)| shard as usize == local) {
                Some((_, fresh)) => fresh,
                None => kept,
            };
            if let Some(demand) = demand {
                *slot = Some(slot_u32(self.demands.len()));
                self.demands.push(demand);
            }
        }
        debug_assert!(changes.next().is_none(), "remodels in index order");
    }
}

/// The fleet's shards, in index order: shard `i` is entry
/// `i % SEGMENT_SHARDS` of segment `i / SEGMENT_SHARDS`, and every segment
/// but the last is full.
#[derive(Debug, Clone)]
pub(super) struct Segments<B> {
    pub(super) segments: Vec<Segment<B>>,
    len: usize,
}

impl<B> Segments<B> {
    pub(super) fn new(shards: Vec<ShardState<B>>) -> Self {
        let len = shards.len();
        let mut segments = Vec::with_capacity(len.div_ceil(SEGMENT_SHARDS));
        let mut shards = shards.into_iter();
        while shards.len() > 0 {
            let mut segment = Segment::with_capacity(shards.len().min(SEGMENT_SHARDS));
            for shard in shards.by_ref().take(SEGMENT_SHARDS) {
                segment.push(shard, None);
            }
            segments.push(segment);
        }
        Segments { segments, len }
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Appends a shard without a model.
    pub(super) fn push(&mut self, shard: ShardState<B>) {
        if self
            .segments
            .last()
            .is_none_or(|s| s.shards.len() == SEGMENT_SHARDS)
        {
            self.segments.push(Segment::default());
        }
        let last = self.segments.last_mut().expect("just ensured");
        last.push(shard, None);
        self.len += 1;
    }

    /// Takes shard `i` out, with its packed demand: later shards shift
    /// down by one, each segment's first moving to the end of the segment
    /// before. The next merge re-derives the base slots; call
    /// [`Segments::index_demands`] after.
    pub(super) fn remove(&mut self, i: usize) -> ShardState<B> {
        let k = i / SEGMENT_SHARDS;
        let (shard, _) = self.segments[k].remove(i % SEGMENT_SHARDS);
        for next in k + 1..self.segments.len() {
            let (moved, demand) = self.segments[next].remove(0);
            self.segments[next - 1].push(moved, demand);
        }
        if self.segments.last().is_some_and(|s| s.shards.is_empty()) {
            self.segments.pop();
        }
        self.len -= 1;
        shard
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = &ShardState<B>> {
        self.segments.iter().flat_map(|s| &s.shards)
    }

    /// Shard `i`'s segment and its index there.
    fn locate(&self, i: usize) -> (&Segment<B>, usize) {
        (&self.segments[i / SEGMENT_SHARDS], i % SEGMENT_SHARDS)
    }

    /// Shard `i`'s measurement report of this window.
    pub(super) fn sample(&self, i: usize) -> &WindowSample {
        let (segment, local) = self.locate(i);
        &segment.samples[local]
    }

    /// Shard `i`, mutably, and its measurement report of this window.
    pub(super) fn with_sample_mut(&mut self, i: usize) -> (&mut ShardState<B>, &WindowSample) {
        let segment = &mut self.segments[i / SEGMENT_SHARDS];
        let local = i % SEGMENT_SHARDS;
        (&mut segment.shards[local], &segment.samples[local])
    }

    /// Shard `i`'s slot in the fleet's demand list, while it has a usable
    /// model.
    pub(super) fn slot(&self, i: usize) -> Option<u32> {
        let (segment, local) = self.locate(i);
        segment.demand_idx[local].map(|slot| segment.base + slot)
    }

    /// Shard `i`'s packed demand, while it has a usable model.
    pub(super) fn demand(&self, i: usize) -> Option<&ShardDemand> {
        let (segment, local) = self.locate(i);
        segment.demand_idx[local].map(|slot| &segment.demands[slot as usize])
    }

    /// The fleet's demand list — every segment's packed demands, in
    /// segment order — as the negotiator takes it.
    pub(super) fn demands(&self) -> Demands<'_, B> {
        Demands {
            segments: self.segments.iter(),
            current: [].iter(),
            remaining: self.segments.iter().map(|s| s.demands.len()).sum(),
        }
    }

    /// Re-derives the shard of each slot of the fleet's demand list into
    /// `demand_shard`.
    pub(super) fn index_demands(&self, demand_shard: &mut Vec<usize>) {
        demand_shard.clear();
        for (k, segment) in self.segments.iter().enumerate() {
            let first = k * SEGMENT_SHARDS;
            let slots = segment.demand_idx.iter().enumerate();
            demand_shard.extend(slots.filter_map(|(local, slot)| slot.map(|_| first + local)));
        }
    }

    /// Merges what the segments' passes found, in segment order: sets each
    /// segment's base slot, lists each segment's listed shards, and
    /// re-indexes the demand list after a re-pack — then lists every shard
    /// from the first one whose demand slot moved. Returns the executors
    /// in force on live shards and, of those, the ones without a usable
    /// model.
    pub(super) fn merge(&mut self, scratch: &mut FleetScratch) -> (u64, u64) {
        let (mut live, mut reserved, mut base) = (0, 0, 0);
        let mut repacked = None;
        for (k, segment) in self.segments.iter_mut().enumerate() {
            let first = k * SEGMENT_SHARDS;
            segment.base = base;
            base += slot_u32(segment.demands.len());
            for &local in &segment.listed {
                scratch.list(first + local as usize);
            }
            live += segment.live;
            reserved += segment.reserved;
            repacked = repacked.or(segment.repacked_from.map(|local| first + local as usize));
        }
        // Every shard from the first re-packed one on has a new slot, so
        // its negotiated state is re-derived: each is visited.
        if let Some(first) = repacked {
            self.index_demands(&mut scratch.demand_shard);
            for i in first..self.len {
                scratch.list(i);
            }
        }
        (live, reserved)
    }
}

impl<B> Index<usize> for Segments<B> {
    type Output = ShardState<B>;

    fn index(&self, i: usize) -> &ShardState<B> {
        let (segment, local) = self.locate(i);
        &segment.shards[local]
    }
}

impl<B> IndexMut<usize> for Segments<B> {
    fn index_mut(&mut self, i: usize) -> &mut ShardState<B> {
        &mut self.segments[i / SEGMENT_SHARDS].shards[i % SEGMENT_SHARDS]
    }
}

/// The fleet's demand list ([`Segments::demands`]): an exact-size walk over
/// the segments' packed demands.
pub(super) struct Demands<'a, B> {
    segments: std::slice::Iter<'a, Segment<B>>,
    current: std::slice::Iter<'a, ShardDemand>,
    remaining: usize,
}

impl<'a, B> Iterator for Demands<'a, B> {
    type Item = &'a ShardDemand;

    fn next(&mut self) -> Option<&'a ShardDemand> {
        loop {
            if let Some(demand) = self.current.next() {
                self.remaining -= 1;
                return Some(demand);
            }
            self.current = self.segments.next()?.demands.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<B> ExactSizeIterator for Demands<'_, B> {}
