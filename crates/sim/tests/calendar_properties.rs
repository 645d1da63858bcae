//! Property tests pinning the calendar queue's determinism contract: pop
//! order must be *identical* to a binary-heap reference ordered by
//! `(time, insertion sequence)` — the order the simulator's old
//! `BinaryHeap<Scheduled>` produced — across random schedules, including
//! same-timestamp FIFO ties and far-future overflow spills. The same holds
//! for the simulator's `EventQueue`, which splits events between the
//! calendar and its fixed-delay lanes.

use drs_sim::calendar::CalendarQueue;
use drs_sim::event::{Event, EventQueue};
use drs_sim::time::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The binary-heap reference: a min-heap over `(time, seq)`.
#[derive(Default)]
struct HeapReference {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    next_seq: u64,
}

impl HeapReference {
    fn push(&mut self, time: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq)));
        seq
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse(pair)| pair)
    }
}

/// One scripted operation: push at a time offset class, or pop.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push `count` events at `base + jitter` (near horizon).
    PushNear(u64, u8),
    /// Push one event far beyond the band horizon (overflow ladder).
    PushFar(u64),
    /// Push `count` events at exactly the same instant (FIFO ties).
    PushTies(u64, u8),
    /// Pop `count` events.
    Pop(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0u64..u64::MAX, 1u8..6).prop_map(|(kind, raw, count)| match kind {
        0 => Op::PushNear(raw % (1 << 22), count),
        1 => Op::PushFar(raw % (1 << 44)),
        2 => Op::PushTies(raw % (1 << 20), count),
        _ => Op::Pop(count),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pop_order_equals_binary_heap_reference(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut calendar: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = HeapReference::default();
        // The virtual clock: pushes are always >= the last popped time,
        // exactly like the simulator's schedule-at-now-plus-delay pattern.
        let mut clock = 0u64;
        for op in ops {
            match op {
                Op::PushNear(jitter, count) => {
                    for i in 0..u64::from(count) {
                        let t = clock + jitter + i * 17;
                        let seq = reference.push(t);
                        calendar.push(t, seq);
                    }
                }
                Op::PushFar(jitter) => {
                    let t = clock + (1 << 34) + jitter;
                    let seq = reference.push(t);
                    calendar.push(t, seq);
                }
                Op::PushTies(jitter, count) => {
                    let t = clock + jitter;
                    for _ in 0..count {
                        let seq = reference.push(t);
                        calendar.push(t, seq);
                    }
                }
                Op::Pop(count) => {
                    for _ in 0..count {
                        let expected = reference.pop();
                        prop_assert_eq!(calendar.peek_time(), expected.map(|(t, _)| t));
                        let got = calendar.pop();
                        prop_assert_eq!(got, expected);
                        if let Some((t, _)) = got {
                            clock = t;
                        }
                    }
                }
            }
            prop_assert_eq!(calendar.len(), reference.heap.len());
        }
        // Drain both completely: every remaining event must agree too
        // (this is where far-future overflow spills get exercised).
        loop {
            let expected = reference.pop();
            let got = calendar.pop();
            prop_assert_eq!(got, expected);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(calendar.is_empty());
    }

    #[test]
    fn tie_storms_stay_fifo(groups in prop::collection::vec((0u64..1_000, 1u8..40), 1..30)) {
        // Many events at few distinct instants: pops must come back sorted
        // by time and, within one instant, in insertion order.
        let mut calendar: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = HeapReference::default();
        for &(t, count) in &groups {
            for _ in 0..count {
                let seq = reference.push(t);
                calendar.push(t, seq);
            }
        }
        while let Some(expected) = reference.pop() {
            prop_assert_eq!(calendar.pop(), Some(expected));
        }
        prop_assert!(calendar.is_empty());
    }

    #[test]
    fn massive_same_time_batch_triggers_rebuild_and_stays_ordered(
        t in 0u64..1_000_000,
        count in 200u32..2_000,
    ) {
        // Over-filling one instant forces the mid-epoch rebuild path; the
        // FIFO contract must survive it.
        let mut calendar: CalendarQueue<u32> = CalendarQueue::new();
        for i in 0..count {
            calendar.push(t, i);
        }
        for expect in 0..count {
            prop_assert_eq!(calendar.pop(), Some((t, expect)));
        }
    }
}

/// Deterministic regression for the adversarial far-future-heavy shape the
/// module docs' re-spill bound describes: `S` well-separated strata (each
/// far beyond any band horizon) force one overflow re-seed per stratum,
/// and every re-seed re-scans all later strata. Pop order must stay
/// bit-identical to the heap reference through *every* one of those
/// re-seeds — including FIFO tie storms inside a stratum, fresh far pushes
/// injected mid-drain, and re-anchoring after full drains.
#[test]
fn far_future_heavy_schedule_pins_pop_order_through_repeated_reseeds() {
    const STRATA: u64 = 48;
    const PER_STRATUM: u64 = 97;
    const STRATUM_GAP: u64 = 1 << 41; // far beyond any adaptive band span

    let mut calendar: CalendarQueue<u64> = CalendarQueue::new();
    let mut reference = HeapReference::default();
    let mut xorshift = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        xorshift ^= xorshift << 13;
        xorshift ^= xorshift >> 7;
        xorshift ^= xorshift << 17;
        xorshift
    };

    // Interleave the strata so consecutive pushes never land in the same
    // one: every stratum is pure overflow at insertion time.
    for i in 0..PER_STRATUM {
        for s in 0..STRATA {
            let base = (s + 1) * STRATUM_GAP;
            let t = match i % 3 {
                0 => base,                        // tie storm at the stratum anchor
                1 => base + (next() % (1 << 18)), // near-anchor jitter
                _ => base + (next() % (1 << 30)), // wide in-stratum spread
            };
            let seq = reference.push(t);
            calendar.push(t, seq);
        }
    }

    let mut popped = 0u64;
    let mut last = (0u64, 0u64);
    while let Some((t, seq)) = calendar.pop() {
        let expect = reference.pop().expect("reference in lockstep");
        assert_eq!(
            (t, seq),
            expect,
            "divergence at pop {popped} (last = {last:?})"
        );
        assert!((t, seq) > last || popped == 0, "order went backwards");
        last = (t, seq);
        popped += 1;

        // Mid-drain adversarial refills: every ~150 pops, push a burst of
        // new far-future events (later strata the pending overflow has
        // already been scanned against) plus a few near-now events that
        // must cut ahead of everything far.
        if popped.is_multiple_of(150) {
            for b in 0..5 {
                let far = t + STRATUM_GAP * (3 + b) + (next() % (1 << 25));
                let seq = reference.push(far);
                calendar.push(far, seq);
            }
            let near = t + (next() % 1_000);
            let seq = reference.push(near);
            calendar.push(near, seq);
        }
    }
    assert!(reference.pop().is_none(), "calendar drained early");
    assert!(
        popped >= STRATA * PER_STRATUM,
        "drained {popped} events, expected at least {}",
        STRATA * PER_STRATUM
    );
}

/// The reference for `EventQueue`: one binary heap over every event, keyed
/// by `(time, scheduling sequence)`.
#[derive(Default)]
struct EventReference {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    events: Vec<Event>,
}

impl EventReference {
    fn push(&mut self, time: u64, event: Event) {
        self.heap.push(Reverse((time, self.events.len() as u64)));
        self.events.push(event);
    }

    fn pop_due(&mut self, deadline: u64) -> Option<(u64, Event)> {
        let &Reverse((time, seq)) = self.heap.peek()?;
        if time > deadline {
            return None;
        }
        self.heap.pop();
        Some((time, self.events[seq as usize].clone()))
    }
}

/// One scripted `EventQueue` operation.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// `count` calendar events at `clock + offset`, 17 ns apart.
    Calendar(u64, u8),
    /// One calendar event far beyond any band horizon (overflow ladder).
    Far(u64),
    /// `count` arrivals on lane `lane % lanes`, each at `clock + delay`.
    Lane(usize, u8),
    /// A tie storm at the instant lane `lane % lanes` receives: `count`
    /// events rotating over that lane, every other lane with the same
    /// delay, and the calendar.
    Storm(usize, u8),
    /// Pops up to `count` events due by `clock + horizon`; once none is
    /// due, the clock moves to the deadline, as in `Simulator::run_until`.
    PopDue(u64, u8),
}

fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
    (0u8..6, 0u64..u64::MAX, 1u8..8).prop_map(|(kind, raw, count)| match kind {
        0 => QueueOp::Calendar(raw % (1 << 22), count),
        1 => QueueOp::Far(raw % (1 << 44)),
        2 => QueueOp::Lane(raw as usize, count),
        3 => QueueOp::Storm(raw as usize, count),
        _ => QueueOp::PopDue(raw % (1 << 22), count),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_queue_pops_in_binary_heap_order_across_lanes(
        // 1–4 lanes; equal delays make ties across lanes.
        delays in prop::collection::vec((0usize..4).prop_map(|k| [0, 300, 40_000, 1 << 21][k]), 1..5),
        ops in prop::collection::vec(queue_op_strategy(), 1..160),
    ) {
        let mut queue = EventQueue::with_lanes(delays.len());
        let mut reference = EventReference::default();
        let mut clock = 0u64;
        let mut id = 0usize;
        let mut next_id = move || {
            id += 1;
            id
        };
        for op in ops {
            match op {
                QueueOp::Calendar(offset, count) => {
                    for i in 0..u64::from(count) {
                        let t = clock + offset + i * 17;
                        let event = Event::ExternalArrival { spout: next_id() };
                        queue.schedule(SimTime::from_nanos(t), event.clone());
                        reference.push(t, event);
                    }
                }
                QueueOp::Far(offset) => {
                    let t = clock + (1 << 34) + offset;
                    let event = Event::ExternalArrival { spout: next_id() };
                    queue.schedule(SimTime::from_nanos(t), event.clone());
                    reference.push(t, event);
                }
                QueueOp::Lane(lane, count) => {
                    let lane = lane % delays.len();
                    let t = clock + delays[lane];
                    for _ in 0..count {
                        let op = next_id();
                        queue.schedule_lane(lane, SimTime::from_nanos(t), op, lane as u32);
                        reference.push(t, Event::TupleArrival { op, tree: lane as u32 });
                    }
                }
                QueueOp::Storm(lane, count) => {
                    let lane = lane % delays.len();
                    let t = clock + delays[lane];
                    let mut targets: Vec<Option<usize>> = (0..delays.len())
                        .filter(|&j| delays[j] == delays[lane])
                        .map(Some)
                        .collect();
                    targets.push(None);
                    for i in 0..usize::from(count) {
                        let op = next_id();
                        match targets[i % targets.len()] {
                            Some(j) => {
                                queue.schedule_lane(j, SimTime::from_nanos(t), op, j as u32);
                                reference.push(t, Event::TupleArrival { op, tree: j as u32 });
                            }
                            None => {
                                let event = Event::ExternalArrival { spout: op };
                                queue.schedule(SimTime::from_nanos(t), event.clone());
                                reference.push(t, event);
                            }
                        }
                    }
                }
                QueueOp::PopDue(horizon, count) => {
                    let deadline = clock + horizon;
                    for _ in 0..count {
                        let expected = reference.pop_due(deadline);
                        let got = queue
                            .pop_due(SimTime::from_nanos(deadline))
                            .map(|(t, e)| (t.as_nanos(), e));
                        prop_assert_eq!(&got, &expected);
                        match got {
                            Some((t, _)) => clock = t,
                            None => {
                                // Nothing else is due: the clock jumps to
                                // the deadline.
                                clock = deadline;
                                break;
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(queue.len(), reference.heap.len());
        }
        // Drain both: far-future spills and the lanes' tails must agree too.
        loop {
            let expected = reference.pop_due(u64::MAX);
            let got = queue.pop().map(|(t, e)| (t.as_nanos(), e));
            prop_assert_eq!(&got, &expected);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(queue.is_empty());
    }
}
