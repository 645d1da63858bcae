//! A bolt hop is allocation-free in steady state: a pool worker keeps the
//! field buffer and the `Arc` allocation of every tuple it finishes with,
//! hands them to the next tuple built through `Collector::fields`, and
//! trades its surplus or shortfall with the other workers in batches
//! through the pool's depot (see "Tuple storage" in the pool module's docs).
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! only on threads that have executed a bolt — the pool's workers. The
//! spout thread allocates two blocks per root by design (it never consumes
//! a tuple, so it has nothing to recycle; the worker that finishes a root
//! frees them) and is left out of the count.
//! Without recycling the chain below costs its workers sixteen allocations
//! per root over nine hops, ≈ 1.8 a hop.

use drs_runtime::operator::{Bolt, Collector, Spout, SpoutEmission};
use drs_runtime::tuple::{Tuple, Value};
use drs_runtime::RuntimeBuilder;
use drs_topology::TopologyBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct CountingAlloc;

thread_local! {
    // `const`-initialised, no destructor: reading it never allocates.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    /// This worker's bit in a stage's `ran_on` mask (`u32::MAX`: none yet).
    static WORKER_BIT: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// Allocations and reallocations made on worker threads (frees are not
/// counted: the claim is "no new memory").
static WORKER_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Those of at least [`BATCH_BYTES`]: the size of a batch `Vec` a full
/// stash splits off for the depot (half of 1 024 tuples' storage).
static WORKER_BATCH_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// The smallest batch `Vec`: 512 `Arc` shells.
const BATCH_BYTES: usize = 512 * std::mem::size_of::<usize>();
/// Worker bits handed out so far.
static WORKER_BITS: AtomicU32 = AtomicU32::new(0);

fn count(bytes: usize) {
    if IS_WORKER.with(Cell::get) {
        WORKER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        if bytes >= BATCH_BYTES {
            WORKER_BATCH_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Emits single-field roots as fast as backpressure allows until stopped.
struct FloodSpout {
    next: i64,
    stop: Arc<AtomicBool>,
}

impl Spout for FloodSpout {
    fn next(&mut self) -> Option<SpoutEmission> {
        if self.stop.load(Ordering::Acquire) {
            return None;
        }
        self.next += 1;
        Some(SpoutEmission {
            tuple: Tuple::of(self.next),
            wait: Duration::ZERO,
        })
    }
}

/// Emits `fanout` tuples of `width` integer fields, each built in the
/// collector's buffer, counts the hop, and marks the worker it ran on.
struct Stage {
    fanout: i64,
    width: usize,
    hops: Arc<AtomicU64>,
    ran_on: Arc<AtomicU64>,
}

impl Bolt for Stage {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        IS_WORKER.with(|w| w.set(true));
        let bit = WORKER_BIT.with(|bit| {
            if bit.get() == u32::MAX {
                bit.set(WORKER_BITS.fetch_add(1, Ordering::Relaxed) % 64);
            }
            bit.get()
        });
        self.ran_on.fetch_or(1 << bit, Ordering::Relaxed);
        let id = tuple.field(0).and_then(Value::as_int).expect("an id field");
        for copy in 0..self.fanout {
            let mut fields = collector.fields();
            assert!(fields.is_empty(), "a recycled buffer must arrive empty");
            fields.push(Value::Int(id));
            fields.resize(self.width, Value::Int(copy));
            collector.emit(Tuple::new(fields));
        }
        self.hops.fetch_add(1, Ordering::Relaxed);
    }
}

/// Floods the chain `src → split (×4) → map → sink` through 128-slot
/// channels on `workers` pinned workers and returns the worker-thread
/// allocations per bolt hop over 10⁵ hops, after a warm-up.
fn worker_allocs_per_hop(workers: usize) -> f64 {
    const WARM_UP_HOPS: u64 = 50_000;
    const MEASURED_HOPS: u64 = 100_000;

    let mut b = TopologyBuilder::new();
    let src = b.spout("src");
    let split = b.bolt("split");
    let map = b.bolt("map");
    let sink = b.bolt("sink");
    b.edge(src, split).unwrap();
    b.edge(split, map).unwrap();
    b.edge(map, sink).unwrap();
    let topo = b.build().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let hops = Arc::new(AtomicU64::new(0));
    // Per stage, the workers that ran it in the measured hops.
    let ran_on: [Arc<AtomicU64>; 3] = Default::default();
    let stage = |fanout: i64, width: usize, ran_on: &Arc<AtomicU64>| {
        let hops = Arc::clone(&hops);
        let ran_on = Arc::clone(ran_on);
        move || Stage {
            fanout,
            width,
            hops: Arc::clone(&hops),
            ran_on: Arc::clone(&ran_on),
        }
    };
    let engine = RuntimeBuilder::new(topo)
        .spout(
            src,
            Box::new(FloodSpout {
                next: 0,
                stop: Arc::clone(&stop),
            }),
        )
        .bolt(split, stage(4, 9, &ran_on[0]))
        .bolt(map, stage(1, 2, &ran_on[1]))
        // The sink's emission goes nowhere: its buffer is recycled too.
        .bolt(sink, stage(1, 2, &ran_on[2]))
        .allocation(vec![1, 2, 2, 1])
        .channel_capacity(128)
        .workers(workers)
        .start()
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(60);
    let wait_for = |target: u64| {
        while hops.load(Ordering::Relaxed) < target {
            assert!(Instant::now() < deadline, "the flood stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let read = || {
        let suspended: u64 = engine.suspensions().iter().flatten().sum();
        (
            hops.load(Ordering::Relaxed),
            WORKER_ALLOCS.load(Ordering::Relaxed),
            WORKER_BATCH_ALLOCS.load(Ordering::Relaxed),
            suspended,
        )
    };
    wait_for(WARM_UP_HOPS);
    for mask in &ran_on {
        mask.store(0, Ordering::Relaxed);
    }
    let (hops_before, allocs_before, batches_before, suspended_before) = read();
    wait_for(hops_before + MEASURED_HOPS);
    let (hops_after, allocs_after, batches_after, suspended_after) = read();
    let shared = ran_on
        .iter()
        .all(|mask| mask.load(Ordering::Relaxed).count_ones() as usize == workers);
    stop.store(true, Ordering::Release);
    assert!(engine.wait_until_drained(Duration::from_secs(30)));
    assert_eq!(engine.open_trees(), 0);
    engine.shutdown(Duration::from_secs(1));

    let (measured, allocs) = (hops_after - hops_before, allocs_after - allocs_before);
    let per_hop = allocs as f64 / measured as f64;
    // Which case ran, and what the allocations were: task suspensions (each
    // parks a record) and batch `Vec`s split off for the depot.
    let case = if shared {
        "every worker ran every stage"
    } else {
        "the workers split the stages and trade storage through the depot"
    };
    println!(
        "{workers} worker(s), {case}: {allocs} allocations over {measured} hops = {per_hop:.4} \
         per hop; {} suspensions, {} batch-sized blocks",
        suspended_after - suspended_before,
        batches_after - batches_before,
    );
    per_hop
}

#[test]
fn bolt_hops_allocate_nothing_in_steady_state() {
    // One worker runs every operator, so every buffer it releases is there
    // for its next emission: what is left is the task-suspension records a
    // full channel costs, a handful per slice (≈ 0.02 per hop).
    let one = worker_allocs_per_hop(1);
    assert!(
        one <= 0.05,
        "{one:.3} allocations per bolt hop on one worker (allowed 0.05; \
         ≈ 1.8 means tuple storage is not being recycled)"
    );
    // Two workers may run every stage each, or settle into a pipeline —
    // one on `split`, which emits four tuples per root it frees, the other
    // on `map` and `sink`, which consume more than they emit. Which it is
    // depends on how the box schedules the three threads. In a pipeline the
    // second worker's full stash spills half into the depot and the first
    // takes it back when its own runs low, so either way the workers
    // allocate about what one worker does (≈ 0.03: suspension records,
    // plus one batch `Vec` per ≈ 512 tuples traded). Without the depot the
    // pipelined case costs up to the eight blocks per root of `split`
    // alone (≈ 0.9 per hop).
    let two = worker_allocs_per_hop(2);
    assert!(
        two <= 0.05,
        "{two:.3} allocations per bolt hop on two workers (allowed 0.05; \
         ≈ 0.9 means the workers are not trading storage, ≈ 1.8 that it \
         is not being recycled at all)"
    );
}
