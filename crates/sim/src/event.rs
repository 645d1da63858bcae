//! The simulator's event queue: a calendar plus one FIFO lane per fixed
//! edge delay.
//!
//! Events are ordered by `(time, sequence)`, where the sequence number is a
//! monotonically increasing tie-breaker. This makes event processing fully
//! deterministic: two events scheduled for the same instant fire in the order
//! they were scheduled.
//!
//! Two stores hold the pending events:
//!
//! * **lanes** — one FIFO per distinct fixed edge delay `d`. A tuple sent
//!   over a `Distribution::Deterministic` edge and not crossing machines
//!   arrives at `now + d`; the clock never runs backwards, so every lane
//!   receives its arrivals in time order and is sorted by construction.
//!   A lane push is an append and a lane pop takes the front: no priority
//!   queue at all for the hops that make up half of a fan-out topology's
//!   events;
//! * the **calendar** ([`crate::calendar::CalendarQueue`], O(1) amortized
//!   insert and pop) for everything else: random-delay and crossed tuples
//!   (the cross-machine delay can change mid-run), service completions,
//!   external arrivals and [`Event::Resume`].
//!
//! # Determinism
//!
//! The queue owns one sequence counter, shared by the calendar
//! (`CalendarQueue::push_with_seq`) and the lanes, and
//! [`EventQueue::pop_due`] pops the least `(time, seq)` key among the
//! calendar head and the lane heads. That is the total order a single
//! binary heap over every event produces, so timelines are bit-identical to
//! a one-store queue: the split only changes where an event waits, never
//! when it fires. `crates/sim/tests/calendar_properties.rs` checks the pop
//! order against a `BinaryHeap` reference across lanes, ties and spills.

use crate::calendar::CalendarQueue;
use crate::time::SimTime;
use std::collections::VecDeque;

/// A scheduled occurrence inside the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An external tuple arrives at a spout; the spout immediately emits
    /// downstream and schedules its next arrival.
    ExternalArrival {
        /// Index of the spout operator.
        spout: usize,
    },
    /// A tuple arrives at an operator's input queue (possibly after a
    /// network delay).
    TupleArrival {
        /// Destination operator index.
        op: usize,
        /// Slot of the tuple-tree the tuple belongs to, in the simulator's
        /// dense tree slab (slots are recycled once a tree completes).
        tree: u32,
    },
    /// An executor at `op` finishes serving a tuple.
    ServiceComplete {
        /// Operator index.
        op: usize,
        /// Tree-slab slot of the tuple that finished service.
        tree: u32,
        /// When the service started (for busy-time accounting).
        started: SimTime,
    },
    /// End of a rebalance pause: apply the pending allocation and restart
    /// processing.
    Resume,
}

/// A tuple arrival waiting in a fixed-delay lane.
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    time: u64,
    seq: u64,
    op: u32,
    tree: u32,
}

/// A deterministic priority queue of [`Event`]s keyed by [`SimTime`]. See
/// the [module docs](self) for the lanes and the ordering contract.
///
/// # Examples
///
/// ```
/// use drs_sim::event::{Event, EventQueue};
/// use drs_sim::time::SimTime;
///
/// let mut q = EventQueue::with_lanes(1);
/// q.schedule(SimTime::from_nanos(20), Event::Resume);
/// q.schedule_lane(0, SimTime::from_nanos(10), 3, 7);
/// q.schedule(SimTime::from_nanos(10), Event::ExternalArrival { spout: 0 });
/// // Same instant: the lane's arrival was scheduled first, so it fires first.
/// let (t, e) = q.pop_due(SimTime::from_nanos(15)).unwrap();
/// assert_eq!(t.as_nanos(), 10);
/// assert_eq!(e, Event::TupleArrival { op: 3, tree: 7 });
/// let (_, e) = q.pop_due(SimTime::from_nanos(15)).unwrap();
/// assert_eq!(e, Event::ExternalArrival { spout: 0 });
/// // Nothing else is due by t = 15.
/// assert!(q.pop_due(SimTime::from_nanos(15)).is_none());
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    calendar: CalendarQueue<Event>,
    lanes: Vec<VecDeque<LaneEntry>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue with `lanes` fixed-delay lanes, numbered
    /// `0..lanes`.
    pub fn with_lanes(lanes: usize) -> Self {
        EventQueue {
            lanes: vec![VecDeque::new(); lanes],
            ..EventQueue::default()
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `time` on the calendar. O(1) amortized.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        let seq = self.take_seq();
        self.calendar.push_with_seq(time.as_nanos(), seq, event);
    }

    /// Schedules a [`Event::TupleArrival`] of `tree` at `op` on `lane`.
    /// O(1).
    ///
    /// A lane is a FIFO: every push must be at or after the lane's latest
    /// pending time (true for `now + d` with one fixed `d` per lane and a
    /// clock that never runs backwards), which debug builds check.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `op` does not fit in a `u32`
    /// (operator ids are `u32` in the compiled topology).
    pub fn schedule_lane(&mut self, lane: usize, time: SimTime, op: usize, tree: u32) {
        let op = u32::try_from(op).expect("operator ids fit in u32");
        let seq = self.take_seq();
        let time = time.as_nanos();
        let lane = &mut self.lanes[lane];
        debug_assert!(
            lane.back().is_none_or(|last| last.time <= time),
            "lane push at {time} ns behind its tail"
        );
        lane.push_back(LaneEntry {
            time,
            seq,
            op,
            tree,
        });
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`; `None` when the queue is empty or its earliest event is
    /// later. Amortized O(1 + lanes).
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, Event)> {
        let mut key = self.calendar.peek_key().unwrap_or((u64::MAX, u64::MAX));
        let mut from_lane = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(head) = lane.front() {
                if (head.time, head.seq) < key {
                    key = (head.time, head.seq);
                    from_lane = Some(i);
                }
            }
        }
        if key.0 > deadline.as_nanos() {
            return None;
        }
        let event = match from_lane {
            Some(i) => {
                let head = self.lanes[i].pop_front().expect("lane head was read");
                Event::TupleArrival {
                    op: head.op as usize,
                    tree: head.tree,
                }
            }
            None => self.calendar.pop()?.1,
        };
        Some((SimTime::from_nanos(key.0), event))
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_due(SimTime::from_nanos(u64::MAX))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.schedule(SimTime::from_nanos(30), Event::Resume);
        q.schedule(SimTime::from_nanos(10), Event::ExternalArrival { spout: 1 });
        q.schedule(
            SimTime::from_nanos(20),
            Event::ServiceComplete {
                op: 0,
                tree: 7,
                started: SimTime::from_nanos(15),
            },
        );
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::default();
        let t = SimTime::from_nanos(5);
        for spout in 0..10 {
            q.schedule(t, Event::ExternalArrival { spout });
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::ExternalArrival { spout } => spout,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_leaves_later_events_pending() {
        let mut q = EventQueue::with_lanes(1);
        assert!(q.is_empty());
        q.schedule(SimTime::from_nanos(42), Event::Resume);
        q.schedule_lane(0, SimTime::from_nanos(40), 0, 1);
        assert!(q.pop_due(SimTime::from_nanos(39)).is_none());
        assert_eq!(q.len(), 2);
        let (t, _) = q.pop_due(SimTime::from_nanos(41)).unwrap();
        assert_eq!(t.as_nanos(), 40);
        assert!(q.pop_due(SimTime::from_nanos(41)).is_none());
        assert!(q.pop_due(SimTime::from_nanos(42)).is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "behind its tail")]
    fn lane_push_behind_its_tail_is_caught() {
        let mut q = EventQueue::with_lanes(1);
        q.schedule_lane(0, SimTime::from_nanos(10), 0, 0);
        q.schedule_lane(0, SimTime::from_nanos(9), 0, 0);
    }
}
