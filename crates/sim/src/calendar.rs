//! A hierarchical calendar/ladder queue for simulation events.
//!
//! The simulator's hot loop is pop-one-event / push-a-few-events. A binary
//! heap makes every one of those O(log m) comparator calls with `m` pending
//! events; at fleet scale (10⁵–10⁶ pending events) the pops dominate the
//! profile. [`CalendarQueue`] replaces the heap with a calendar-queue /
//! ladder-queue hybrid (Brown 1988; Tang & Goh 2005) that makes both
//! operations O(1) amortized:
//!
//! * a **near-horizon band** of `n` buckets, each `width` nanoseconds wide,
//!   covering `[epoch_start, epoch_start + n·width)`. An insert in the band
//!   is an append to its bucket; with the resize heuristic keeping ~2 events
//!   per bucket, a pop is a pop from the current bucket;
//! * a **lazy overflow ladder** for events beyond the band's horizon:
//!   far-future events are appended unsorted in O(1) and only touched again
//!   when the band drains, at which point the nearest stratum of the
//!   overflow is spilled into a fresh band (one O(1) touch per event per
//!   spill rung, as in a ladder queue);
//! * **resize heuristics keyed off the observed event interarrival**: at
//!   every re-seed the bucket count tracks the pending population and the
//!   bucket width is set from the measured mean gap of the nearest pending
//!   events (falling back to an EMA of recent pop gaps when the sample
//!   degenerates to ties), so the band stays ~2 events per bucket across
//!   workload drift. A band that over-fills mid-epoch (> `REBUILD_FACTOR` ×
//!   the bucket count) is lazily rebuilt through the same path.
//!
//! # Re-spill cost bound
//!
//! The overflow is a *single* unsorted rung: every re-seed scans the whole
//! overflow once — an O(|overflow|) `swap_remove` partition — and spills
//! only the nearest stratum into the new band. For the simulator's actual
//! workloads (service/arrival events scheduled within a bounded horizon of
//! *now*) the overflow is small and re-seeds are rare, so the amortized
//! cost per event stays O(1). The adversarial worst case is a
//! **far-future-heavy** schedule: `S` well-separated strata of `m/S`
//! events each force one re-seed per stratum, each scanning the events of
//! every later stratum again — `Σ_{s=1..S} s·(m/S) = O(m·S)` total touches,
//! i.e. each event is re-scanned once per earlier stratum, up to O(S)
//! times. Correctness is unaffected (the regression test in
//! `crates/sim/tests/calendar_properties.rs` pins pop order through
//! exactly this shape), only the constant grows. A multi-rung ladder would
//! bound the re-spill work to O(1) touches per event per *rung*
//! (O(log horizon) total); no simulator workload has needed it.
//!
//! # Determinism
//!
//! Every event carries a monotonically increasing sequence number assigned
//! at insertion; events are popped in strictly ascending `(time, seq)`
//! order. That total order is exactly the one the previous
//! `BinaryHeap<Scheduled>` implementation produced, so simulator timelines
//! are bit-identical across the swap — same-timestamp events still fire in
//! FIFO scheduling order. `CalendarQueue::push_with_seq` and
//! `CalendarQueue::peek_key` let a caller draw the sequence numbers from
//! a counter it shares with other event stores and merge on the same key,
//! which is how the simulator's [`crate::event::EventQueue`] keeps its
//! fixed-delay lanes in the same total order. Property tests
//! (`crates/sim/tests/calendar_properties.rs`) assert pop-order equivalence
//! against a binary-heap reference over random schedules, including tie
//! storms and far-future spills.
//!
//! # Examples
//!
//! ```
//! use drs_sim::calendar::CalendarQueue;
//!
//! let mut q = CalendarQueue::new();
//! q.push(50, "late");
//! q.push(10, "early");
//! q.push(10, "early-tie"); // same instant: FIFO
//! assert_eq!(q.peek_time(), Some(10));
//! assert_eq!(q.pop(), Some((10, "early")));
//! assert_eq!(q.pop(), Some((10, "early-tie")));
//! assert_eq!(q.pop(), Some((50, "late")));
//! assert_eq!(q.pop(), None);
//! ```

/// Initial/minimum number of band buckets.
const MIN_BUCKETS: usize = 16;
/// Maximum number of band buckets (caps re-seed cost and memory).
const MAX_BUCKETS: usize = 1 << 16;
/// Band width before any interarrival observation exists (1 ms in nanos).
const DEFAULT_WIDTH: u64 = 1 << 20;
/// Mid-epoch rebuild trigger: band population beyond `REBUILD_FACTOR × n`
/// re-seeds with more, narrower buckets.
const REBUILD_FACTOR: usize = 8;
/// Smoothing factor of the pop-gap EMA (1/8 per observation).
const GAP_EMA_SHIFT: u32 = 3;

#[derive(Debug, Clone)]
struct Entry<E> {
    time: u64,
    seq: u64,
    event: E,
}

/// A deterministic O(1)-amortized event scheduler keyed by `u64` timestamps.
/// See the [module docs](self) for the design and the determinism contract.
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    /// The near-horizon band: the first `n_buckets` buckets. Only
    /// `buckets[cursor]` is kept sorted (descending `(time, seq)`, so the
    /// minimum pops from the back); later buckets are unsorted append-only
    /// until the cursor reaches them. Buckets past `n_buckets` are empty
    /// spares kept with their capacity, so a band that shrinks and grows
    /// again reuses its storage instead of reallocating it.
    buckets: Vec<Vec<Entry<E>>>,
    n_buckets: usize,
    cursor: usize,
    cursor_sorted: bool,
    epoch_start: u64,
    /// Bucket width in nanoseconds (≥ 1).
    width: u64,
    /// First instant beyond the band.
    epoch_end: u64,
    /// Events in the band.
    band_len: usize,
    /// Far-future events (time ≥ `epoch_end`), unsorted.
    overflow: Vec<Entry<E>>,
    /// Scratch buffer reused by re-seeds for the width sample.
    scratch: Vec<u64>,
    next_seq: u64,
    /// EMA of gaps between consecutively popped timestamps (nanos).
    gap_ema: u64,
    last_pop: Option<u64>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            n_buckets: MIN_BUCKETS,
            cursor: 0,
            cursor_sorted: true,
            epoch_start: 0,
            width: DEFAULT_WIDTH,
            epoch_end: DEFAULT_WIDTH.saturating_mul(MIN_BUCKETS as u64),
            band_len: 0,
            overflow: Vec::new(),
            scratch: Vec::new(),
            next_seq: 0,
            gap_ema: 0,
            last_pop: None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.band_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at `time` (nanoseconds). O(1) amortized.
    pub fn push(&mut self, time: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(time, seq, event);
    }

    /// Schedules `event` at `time` under a caller-assigned sequence number,
    /// for a caller that orders this queue's events against events it keeps
    /// elsewhere ([`crate::event::EventQueue`]'s lanes). Ties at one
    /// instant pop in ascending `seq`; the caller keeps sequence numbers
    /// unique and does not mix this with [`push`](Self::push), whose
    /// counter is the queue's own. O(1) amortized.
    pub(crate) fn push_with_seq(&mut self, time: u64, seq: u64, event: E) {
        let entry = Entry { time, seq, event };
        if self.is_empty() {
            // Re-anchor the (empty) band at the new event so the common
            // streak of near-future scheduling lands in the band.
            self.cursor = 0;
            self.cursor_sorted = true;
            self.epoch_start = time;
            self.epoch_end = time.saturating_add(self.band_span());
        }
        if entry.time >= self.epoch_end {
            self.overflow.push(entry);
            return;
        }
        self.insert_in_band(entry);
        if self.band_len > REBUILD_FACTOR * self.n_buckets && self.n_buckets < MAX_BUCKETS {
            // The band over-filled mid-epoch: spill everything and re-seed
            // with a bucket count/width matched to the new population.
            self.spill_band_to_overflow();
            self.reseed();
        }
    }

    /// The timestamp of the earliest pending event. Amortized O(1); may
    /// advance internal cursors (never changes the pop order).
    pub fn peek_time(&mut self) -> Option<u64> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` key of the earliest pending event — the key it
    /// pops under. Amortized O(1); may advance internal cursors (never
    /// changes the pop order).
    pub(crate) fn peek_key(&mut self) -> Option<(u64, u64)> {
        if !self.position_at_min() {
            return None;
        }
        self.buckets[self.cursor].last().map(|e| (e.time, e.seq))
    }

    /// Removes and returns the earliest `(time, event)`; ties pop in
    /// insertion (FIFO) order. O(1) amortized.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        if !self.position_at_min() {
            return None;
        }
        let entry = self.buckets[self.cursor].pop().expect("positioned bucket");
        self.band_len -= 1;
        if let Some(last) = self.last_pop {
            let gap = entry.time - last;
            // ema += (gap - ema) / 8, in integers.
            self.gap_ema = self
                .gap_ema
                .wrapping_add((gap.wrapping_sub(self.gap_ema) as i64 >> GAP_EMA_SHIFT) as u64);
        }
        self.last_pop = Some(entry.time);
        Some((entry.time, entry.event))
    }

    /// Advances `cursor` to the bucket holding the global minimum, sorting
    /// it if needed and re-seeding the band from the overflow ladder when
    /// the band is empty. Returns `false` when the queue is empty.
    fn position_at_min(&mut self) -> bool {
        loop {
            if self.band_len > 0 {
                while self.buckets[self.cursor].is_empty() {
                    self.cursor += 1;
                    self.cursor_sorted = false;
                }
                if !self.cursor_sorted {
                    // Descending (time, seq): the minimum sits at the back.
                    self.buckets[self.cursor]
                        .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                    self.cursor_sorted = true;
                }
                return true;
            }
            if self.overflow.is_empty() {
                return false;
            }
            self.reseed();
        }
    }

    fn band_span(&self) -> u64 {
        self.width.saturating_mul(self.n_buckets as u64)
    }

    /// Inserts an in-horizon entry into its bucket. Entries whose window has
    /// already passed (possible right after a re-anchor or when the caller's
    /// clock lags the cursor) clamp to the cursor bucket: they are still
    /// ahead of every pending event, and the bucket's sort order keeps them
    /// poppable first.
    fn insert_in_band(&mut self, entry: Entry<E>) {
        let idx = ((entry.time.saturating_sub(self.epoch_start)) / self.width) as usize;
        let idx = idx.clamp(self.cursor, self.n_buckets - 1);
        let bucket = &mut self.buckets[idx];
        if idx == self.cursor && self.cursor_sorted {
            // Keep the live bucket sorted: binary-search the descending
            // position (ties order by descending seq, i.e. FIFO on pop).
            let key = (entry.time, entry.seq);
            let at = bucket.partition_point(|e| (e.time, e.seq) > key);
            bucket.insert(at, entry);
        } else {
            bucket.push(entry);
        }
        self.band_len += 1;
    }

    fn spill_band_to_overflow(&mut self) {
        for bucket in &mut self.buckets[..self.n_buckets] {
            self.overflow.append(bucket);
        }
        self.band_len = 0;
    }

    /// Re-seeds the band from the overflow ladder: anchors the epoch at the
    /// earliest far event, sizes the bucket count to the pending population
    /// and the bucket width to the observed interarrival of the nearest
    /// pending events, then spills that nearest stratum into the band.
    /// Events beyond the new horizon stay in the overflow for a later rung.
    fn reseed(&mut self) {
        debug_assert_eq!(self.band_len, 0);
        let m = self.overflow.len();
        debug_assert!(m > 0);
        let n = m.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() < n {
            self.buckets.resize_with(n, Vec::new);
        }
        self.n_buckets = n;

        // Width from observed interarrival: the mean gap of the nearest
        // `q ≤ 2n` pending events, so the spilled stratum averages ~2 events
        // per bucket. Degenerate samples (tie storms) fall back to the
        // pop-gap EMA, then to 1 ns.
        self.scratch.clear();
        self.scratch.extend(self.overflow.iter().map(|e| e.time));
        let q = m.min(2 * n);
        let t_q = if q == m {
            *self.scratch.iter().max().expect("overflow is non-empty")
        } else {
            let (_, nth, _) = self.scratch.select_nth_unstable(q - 1);
            *nth
        };
        let t_min = *self.scratch.iter().min().expect("overflow is non-empty");
        let width = if t_q == t_min {
            // Pure tie stratum: the sample carries no gap information, so
            // fall back to the pop-gap EMA.
            (self.gap_ema >> 1).max(1)
        } else {
            (t_q - t_min + 1).div_ceil(n as u64).max(1)
        };

        self.epoch_start = t_min;
        self.width = width;
        self.epoch_end = t_min.saturating_add(self.band_span());
        self.cursor = 0;
        self.cursor_sorted = false;

        // Spill the in-horizon stratum; `swap_remove` keeps this O(m), and
        // overflow order is irrelevant (buckets sort on first contact).
        let mut i = 0;
        while i < self.overflow.len() {
            // The `== epoch_start` arm only matters when `epoch_end`
            // saturated at u64::MAX: the anchor stratum must always spill
            // or the re-seed would not progress.
            if self.overflow[i].time < self.epoch_end || self.overflow[i].time == self.epoch_start {
                let entry = self.overflow.swap_remove(i);
                let idx = ((entry.time - self.epoch_start) / self.width) as usize;
                let idx = idx.min(self.n_buckets - 1);
                self.buckets[idx].push(entry);
                self.band_len += 1;
            } else {
                i += 1;
            }
        }
        debug_assert!(self.band_len > 0, "epoch must cover its anchor event");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue_behaviour() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pops_in_time_order_across_band_and_overflow() {
        let mut q = CalendarQueue::new();
        // Mix of near, far and very far events, inserted out of order.
        let times = [
            5u64,
            1 << 40, // far beyond the initial band
            17,
            1 << 41,
            3,
            999,
            (1 << 40) + 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let mut popped = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t);
        }
        assert_eq!(popped, sorted);
    }

    #[test]
    fn ties_pop_in_fifo_order() {
        let mut q = CalendarQueue::new();
        for i in 0..100u32 {
            q.push(42, i);
        }
        for expect in 0..100u32 {
            assert_eq!(q.pop(), Some((42, expect)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::new();
        let mut xorshift = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            xorshift ^= xorshift << 13;
            xorshift ^= xorshift >> 7;
            xorshift ^= xorshift << 17;
            xorshift
        };
        let mut clock = 0u64;
        let mut last_popped = 0u64;
        q.push(0, 0u64);
        for _ in 0..50_000 {
            // Emulate the simulator: pop the min, schedule 0–2 future
            // events relative to the popped time.
            if let Some((t, _)) = q.pop() {
                assert!(t >= last_popped, "pop went backwards");
                last_popped = t;
                clock = t;
            }
            for _ in 0..(next() % 3) {
                let horizon = if next() % 50 == 0 { 1 << 34 } else { 1 << 22 };
                q.push(clock + next() % horizon, clock);
            }
        }
        // Drain; order must stay non-decreasing to the end.
        while let Some((t, _)) = q.pop() {
            assert!(t >= last_popped);
            last_popped = t;
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut q = CalendarQueue::new();
        for t in [900u64, 100, 500, 100] {
            q.push(t, t);
        }
        assert_eq!(q.peek_time(), Some(100));
        assert_eq!(q.peek_time(), Some(100), "peek must not consume");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((100, 100)));
        assert_eq!(q.peek_time(), Some(100));
        assert_eq!(q.pop(), Some((100, 100)));
        assert_eq!(q.peek_time(), Some(500));
    }

    #[test]
    fn mid_epoch_rebuild_keeps_order() {
        let mut q = CalendarQueue::new();
        // Flood a tiny time range so the initial band over-fills and the
        // rebuild path triggers.
        for i in 0..5_000u64 {
            q.push(i % 97, i);
        }
        let mut last = (0u64, 0u64);
        let mut count = 0;
        while let Some((t, seq)) = q.pop() {
            assert!((t, seq) > last || count == 0, "order violated at {count}");
            last = (t, seq);
            count += 1;
        }
        assert_eq!(count, 5_000);
    }

    #[test]
    fn reanchors_after_full_drain() {
        let mut q = CalendarQueue::new();
        q.push(10, "a");
        assert_eq!(q.pop(), Some((10, "a")));
        // Far ahead of the drained epoch: must re-anchor, not misfile.
        q.push(1 << 50, "b");
        q.push((1 << 50) + 5, "c");
        assert_eq!(q.pop(), Some((1 << 50, "b")));
        assert_eq!(q.pop(), Some(((1 << 50) + 5, "c")));
    }

    #[test]
    fn push_earlier_than_cursor_window_still_pops_first() {
        let mut q = CalendarQueue::new();
        for t in [0u64, 1 << 30, (1 << 30) + 1] {
            q.push(t, t);
        }
        assert_eq!(q.pop(), Some((0, 0)));
        // The cursor has moved past t=0's window; a push below the current
        // window (legal: the simulator's clock is at the last popped time)
        // must still pop before the pending far events.
        q.push(5, 5);
        assert_eq!(q.pop(), Some((5, 5)));
        assert_eq!(q.pop(), Some((1 << 30, 1 << 30)));
    }
}
