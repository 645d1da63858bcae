//! A settled simulator window is allocation-free: once the event queue, the
//! operator queues and the tuple-tree slab have grown to their working
//! size, `CspBackend::advance_into` — run a window of events, close the
//! measurement window, fill the caller's sample — performs **zero** heap
//! allocations. A simulator-backed fleet pays no allocator traffic per
//! shard per window, and neither does one of `drs_sim::synthetic`'s
//! analytic shards.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms the simulator up, then asserts the counter does not advance across
//! further windows. The pinned workload's laws are all fixed, so its event
//! schedule turns periodic after the warm-up and "settled" is exact. Under
//! random laws the calendar's buckets still grow, rarely, whenever one of
//! them holds more events than it ever has — amortized growth of the
//! queue's storage, not a per-window cost — and a second test bounds it
//! below one allocation per window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use drs_core::driver::{CspBackend, WindowSample};
use drs_queueing::distribution::Distribution;
use drs_sim::synthetic::{Draws, SyntheticFleet};
use drs_sim::time::SimDuration;
use drs_sim::workload::{CountDistribution, EdgeBehavior, OperatorBehavior};
use drs_sim::{SimulationBuilder, Simulator};
use drs_topology::{EdgeOptions, TopologyBuilder};

/// System allocator wrapper counting allocations and reallocations.
struct CountingAlloc;

// Per thread: libtest runs the tests of a binary on parallel threads.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count() {
    ALLOCS.with(|a| a.set(a.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The laws a test simulator runs under.
#[derive(Clone, Copy, PartialEq)]
enum Laws {
    /// Every law fixed: one root every 2.5 ms, three children per `a`
    /// tuple, fixed service times. The event schedule turns periodic.
    Fixed,
    /// The same means under exponential, Poisson and Bernoulli laws, a
    /// random-delay loop on `b`, and half of the edge tuples crossing
    /// machines with a 2 ms hop.
    Random,
}

/// spout → a → b, plus a loop on `b`. The forward edges have fixed delays
/// (two event-queue lanes); service completions, external arrivals, the
/// loop and crossed tuples take the calendar.
fn simulator(laws: Laws) -> Simulator {
    let mut t = TopologyBuilder::new();
    let spout = t.spout("src");
    let a = t.bolt("a");
    let b = t.bolt("b");
    t.edge(spout, a).unwrap();
    t.edge_with(
        a,
        b,
        EdgeOptions {
            gain: 3.0,
            ..Default::default()
        },
    )
    .unwrap();
    t.edge_with(
        b,
        b,
        EdgeOptions {
            gain: 0.2,
            ..Default::default()
        },
    )
    .unwrap();
    let law = |mean: f64| match laws {
        Laws::Fixed => Distribution::deterministic(mean).unwrap(),
        Laws::Random => Distribution::exponential(1.0 / mean).unwrap(),
    };
    let (fan_out, loop_back) = match laws {
        Laws::Fixed => (CountDistribution::fixed(3), CountDistribution::fixed(0)),
        Laws::Random => (
            CountDistribution::poisson(3.0).unwrap(),
            CountDistribution::bernoulli(0.2).unwrap(),
        ),
    };
    let mut sim = SimulationBuilder::new(t.build().unwrap())
        .behavior(
            spout,
            OperatorBehavior::Spout {
                interarrival: law(0.0025),
            },
        )
        .behavior(
            a,
            OperatorBehavior::Bolt {
                service: law(0.006),
            },
        )
        .behavior(
            b,
            OperatorBehavior::Bolt {
                service: law(0.002),
            },
        )
        .edge_behavior(
            spout,
            a,
            EdgeBehavior::with_fixed_delay(CountDistribution::fixed(1), 0.004),
        )
        .edge_behavior(a, b, EdgeBehavior::with_fixed_delay(fan_out, 0.010))
        .edge_behavior(
            b,
            b,
            EdgeBehavior {
                count: loop_back,
                delay: law(0.001),
            },
        )
        .allocation(vec![1, 4, 5])
        .cross_machine_delay(SimDuration::from_millis(2))
        .seed(11)
        .build()
        .unwrap();
    if laws == Laws::Random {
        sim.set_edge_cross_probabilities(vec![0.5, 0.5, 0.0])
            .unwrap();
    }
    sim
}

/// Allocations made by 40 one-second windows after a 20-window warm-up,
/// and the trees they completed.
fn allocations_over_settled_windows(laws: Laws) -> (u64, u64) {
    let mut sim = simulator(laws);
    let mut sample = WindowSample::default();
    for _ in 0..20 {
        sim.advance_into(1.0, &mut sample);
    }
    let before = allocs();
    let mut completed = 0;
    for _ in 0..40 {
        sim.advance_into(1.0, &mut sample);
        completed += sample.completed;
    }
    (allocs() - before, completed)
}

#[test]
fn settled_simulator_window_allocates_nothing() {
    let (allocated, completed) = allocations_over_settled_windows(Laws::Fixed);
    assert!(completed > 10_000, "only {completed} trees completed");
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over 40 settled windows"
    );
}

/// The synthetic fleet's shards measure into the caller's buffers: once
/// those hold a window, further windows (and allocation reads) allocate
/// nothing, at one and at two operators.
#[test]
fn synthetic_shard_window_allocates_nothing() {
    for operators in [1, 2] {
        let mut generator = SyntheticFleet::new(50, operators, Draws::seeded(7));
        let mut shards: Vec<_> = generator.by_ref().map(|spec| spec.backend).collect();
        let (mut sample, mut allocation) = (WindowSample::default(), Vec::new());
        for shard in &mut shards {
            shard.advance_into(1.0, &mut sample);
            shard.current_allocation_into(&mut allocation);
        }
        let before = allocs();
        for window in 0..10 {
            generator
                .draws
                .redraw(shards.len(), |i, u| shards[i].drift(u));
            for shard in &mut shards {
                shard.advance_into(1.0, &mut sample);
                shard.current_allocation_into(&mut allocation);
                assert_eq!(sample.operators.len(), operators, "window {window}");
            }
        }
        assert_eq!(allocs() - before, 0, "{operators} operators");
    }
}

#[test]
fn random_laws_grow_the_queue_only_at_record_loads() {
    // A calendar band that shrinks and grows back keeps its buckets' storage
    // (dropping it cost this run ≈ 210 allocations per window); what is left
    // is a bucket now and then holding more events than it ever has (15
    // allocations in these 40 windows).
    let (allocated, completed) = allocations_over_settled_windows(Laws::Random);
    assert!(completed > 10_000, "only {completed} trees completed");
    assert!(
        allocated < 40,
        "{allocated} allocations over 40 windows: more than one per window"
    );
}
