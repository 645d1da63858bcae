//! The steady-state fleet window is allocation-free: once every shard's
//! smoothed measurements reach their bitwise fixpoint (constant input ⇒
//! the α-smoother stops moving ⇒ the demand epoch stands still) a full
//! `FleetDriver::step` — advance, measure, negotiate, grant, gate — must
//! perform **zero** heap allocations. This pins the tentpole guarantee of
//! the incremental negotiator end-to-end, not just in the negotiate path:
//! a million-entity fleet whose demand does not move pays no allocator
//! traffic per window. With a machine pool installed the guarantee
//! extends through the placement phase: the warm epoch-stamped placement
//! state compares each shard's request in place and replans nothing — and
//! a window that does repair a shard re-solves it into the buffers it
//! already owns, so `replan` itself stays allocation-free there too. A
//! *drifting* fleet, finally, pays per shard it moves, not per shard it
//! measures: a refit writes into buffers the shard already owns, so a
//! window's allocations are bounded by the shards it rebalances or
//! re-places.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! on every thread, pass workers included; the test
//! warms the fleet past the smoothing fixpoint, then asserts the counter
//! does not advance across further windows. The allocator also keeps the
//! live heap bytes, so a test can pin what a fleet *holds*: placement
//! memory follows the executors a shard runs, not the width of the pool
//! they run on. Backends override
//! `advance_into` / `current_allocation_into` so the measurement side is
//! allocation-free too — exactly the contract production backends are
//! expected to meet for large fleets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use drs_core::fleet::{
    FleetDriver, FleetDriverConfig, FleetShardSpec, ShardPlacementInfo, SEGMENT_SHARDS,
    WINDOW_PHASES,
};
use drs_core::placement::{
    EdgeTraffic, FleetPlacementState, MachinePool, OperatorLoad, PlacementRequest, ReplanOutcome,
};
use drs_core::scheduler;
use drs_queueing::jackson::JacksonNetwork;
use drs_sim::synthetic::{Draws, SyntheticFleet, SyntheticShard};
use drs_topology::ResourceProfile;

/// System allocator wrapper that counts every allocation and reallocation
/// (frees are uncounted: the claim under test is "no new memory", not
/// "no memory"), and separately tracks the bytes live on the heap.
struct CountingAlloc;

// Counters and trap are process-wide, so they see the allocations of a
// fleet's pass workers as well as the caller's. The tests of this binary
// therefore run one at a time (`serial`): libtest's parallel threads would
// charge one test with another's allocations.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Requested bytes allocated minus bytes freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Blocks allocated minus blocks freed.
static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);
/// Failure diagnostics: while non-zero, each counted allocation prints a
/// backtrace of its call site (and decrements the budget), so a
/// regression names the allocating line instead of just a count.
static TRAP: AtomicU64 = AtomicU64::new(0);

/// Held by every test of this binary for its whole run.
fn serial() -> MutexGuard<'static, ()> {
    static TESTS: Mutex<()> = Mutex::new(());
    TESTS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn count_and_trace() {
    ALLOCS.fetch_add(1, Relaxed);
    // The trap is disarmed while the backtrace is captured and printed:
    // both allocate, and a nested print would re-lock the output sink this
    // thread already holds.
    let n = TRAP.swap(0, Relaxed);
    if n > 0 {
        eprintln!(
            "ALLOC SITE ({:?}):\n{}",
            std::thread::current().name(),
            std::backtrace::Backtrace::force_capture()
        );
        TRAP.store(n - 1, Relaxed);
    }
}

fn track_live(bytes: i64, blocks: i64) {
    LIVE.fetch_add(bytes, Relaxed);
    LIVE_BLOCKS.fetch_add(blocks, Relaxed);
}

/// Heap allocations so far, on every thread.
fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_and_trace();
        track_live(layout.size() as i64, 1);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_and_trace();
        track_live(layout.size() as i64, 1);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_and_trace();
        track_live(new_size as i64 - layout.size() as i64, 0);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_live(-(layout.size() as i64), -1);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The live heap, as `(bytes, blocks)`.
fn live_heap() -> (i64, i64) {
    (LIVE.load(Relaxed), LIVE_BLOCKS.load(Relaxed))
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The shard's own Program 6 schedule for its target — started there, a
/// constant-load shard has no wobble for the decision gate to chew on, so
/// the settled fleet reaches the true zero-churn state (grant == running
/// allocation everywhere) instead of a permanently gated ±1 disagreement.
fn desired_k(rate: f64, mu: f64, t_max: f64) -> u32 {
    let net = JacksonNetwork::from_rates(rate, &[(rate, mu)]).expect("positive rates");
    scheduler::min_processors_for_target(&net, t_max, 512)
        .expect("reachable target")
        .into_vec()[0]
}

/// `copies` of a three-shard constant-load fleet under a budget of `k_max`
/// per copy.
fn steady_fleet_with(
    k_max: u32,
    placement: Option<ShardPlacementInfo>,
    copies: usize,
) -> FleetDriver<SyntheticShard> {
    let mut config = FleetDriverConfig::new(k_max * copies as u32);
    config.warmup_windows = 2;
    config.window_secs = 1.0;
    // No timeline: steady-state windows must not even record themselves.
    config.record_timeline = false;
    let shard = |name: &str, rate: f64| {
        let spec = FleetShardSpec::new(
            name,
            0.2,
            SyntheticShard::new(rate, vec![10.0], vec![desired_k(rate, 10.0, 0.2)]),
        );
        match &placement {
            Some(info) => spec.with_placement(info.clone()),
            None => spec,
        }
    };
    let specs = (0..copies).flat_map(|copy| {
        [("a", 40.0), ("b", 25.0), ("c", 55.0)]
            .map(|(name, rate)| shard(&format!("{name}{copy}"), rate))
    });
    FleetDriver::new(config, specs.collect()).expect("fleet construction")
}

fn steady_fleet(k_max: u32) -> FleetDriver<SyntheticShard> {
    steady_fleet_with(k_max, None, 1)
}

/// The same steady fleet with a shared machine pool and per-shard
/// placement metadata installed: the placement phase (warm epoch-stamped
/// state, request comparison, replan) runs every window and must stay
/// allocation-free once nothing changes.
fn steady_placed_fleet(k_max: u32) -> FleetDriver<SyntheticShard> {
    // A self-loop edge keeps the measured-rate comparison in play; the
    // rate is constant, so it always lands inside the band.
    let info = ShardPlacementInfo {
        profiles: vec![ResourceProfile::uniform(0.5)],
        edges: vec![(0, 0, 1.0)],
    };
    let mut fleet = steady_fleet_with(k_max, Some(info), 1);
    fleet.set_machine_pool(
        MachinePool::uniform(4, ResourceProfile::uniform(64.0)).expect("valid pool"),
    );
    fleet
}

fn assert_steady_windows_allocation_free(mut fleet: FleetDriver<SyntheticShard>, label: &str) {
    // Warm past the α-smoothing bitwise fixpoint (α = 0.5 converges in
    // well under 100 constant-input windows) so the demand epoch stops
    // advancing and grants go quiescent.
    fleet.run_windows(120);
    let settled = fleet.completed_windows();

    let before = allocs();
    TRAP.store(12, Relaxed);
    fleet.run_windows(10);
    TRAP.store(0, Relaxed);
    let after = allocs();

    assert_eq!(fleet.completed_windows(), settled + 10);
    assert_eq!(
        after - before,
        0,
        "{label}: {} heap allocations across 10 zero-churn steady-state \
         windows (expected 0)",
        after - before
    );
}

#[test]
fn steady_state_windows_allocate_nothing() {
    let _serial = serial();
    // Uncontended: the budget fits every desired allocation.
    assert_steady_windows_allocation_free(steady_fleet(40), "uncontended");
    // Contended: desired totals exceed the budget, so the warm negotiator
    // holds live walk state and the capped fix-up path runs every window.
    assert_steady_windows_allocation_free(steady_fleet(14), "contended");
}

#[test]
fn steady_placement_windows_allocate_nothing() {
    let _serial = serial();
    // Placement-enabled: the warm placement state compares every shard's
    // request against its cache each window (including the rate-banded
    // edge comparison) and replans nothing — still zero allocations.
    assert_steady_windows_allocation_free(steady_placed_fleet(40), "placed uncontended");
    assert_steady_windows_allocation_free(steady_placed_fleet(14), "placed contended");
    // Sanity: the placed fleet actually solved placements at warm-up (the
    // zero-alloc windows above exercised the warm path, not a no-op).
    let mut fleet = steady_placed_fleet(40);
    fleet.run_windows(20);
    assert!(fleet.placement_full_solves() >= 1);
    assert!((0..fleet.shard_count()).all(|i| fleet.shard_placement(i).is_some()));
}

/// A settled fleet of three segments allocates nothing per window either:
/// not the handoff of the segments to the pass workers and back, not a
/// worker's pass over its segments, not the merge of what they found. (On a
/// host with one core the caller's thread measures every segment.)
#[test]
fn settled_segmented_windows_allocate_nothing() {
    let _serial = serial();
    let fleet = steady_fleet_with(40, None, SEGMENT_SHARDS);
    assert!(fleet.shard_count() >= 3 * SEGMENT_SHARDS);
    assert_steady_windows_allocation_free(fleet, "three segments, uncontended");
    let fleet = steady_fleet_with(14, None, SEGMENT_SHARDS);
    assert_steady_windows_allocation_free(fleet, "three segments, contended");
}

/// A shard whose model can never be fitted — λ/µ = 50 needs 51 executors
/// for stability, more than `Kmax = 40` — keeps its fit error on the record
/// every window while its estimates stand still. Replaying that standing
/// error must not allocate either.
#[test]
fn standing_fit_error_windows_allocate_nothing() {
    let _serial = serial();
    let mut config = FleetDriverConfig::new(40);
    config.warmup_windows = 2;
    config.window_secs = 1.0;
    config.record_timeline = false;
    let shard = |name: &str, rate: f64, k: u32| {
        FleetShardSpec::new(name, 0.2, SyntheticShard::new(rate, vec![10.0], vec![k]))
    };
    let mut fleet = FleetDriver::new(
        config,
        vec![
            shard("a", 40.0, desired_k(40.0, 10.0, 0.2)),
            shard("overloaded", 500.0, 4),
            shard("b", 25.0, desired_k(25.0, 10.0, 0.2)),
        ],
    )
    .expect("fleet construction");
    fleet.run_windows(120);
    let error = fleet.last_window().shards[1].error.clone();
    assert!(error.is_some(), "the overloaded shard's fit must fail");

    let before = allocs();
    TRAP.store(12, Relaxed);
    fleet.run_windows(10);
    TRAP.store(0, Relaxed);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "{} heap allocations across 10 settled windows with a standing fit error",
        after - before
    );
    assert_eq!(fleet.last_window().shards[1].error, error);
}

/// One warm-state window: every shard presented, then `replan`. Returns
/// the outcome and the heap allocations `replan` made.
fn replan_counted(state: &mut FleetPlacementState, pool: &MachinePool) -> (ReplanOutcome, u64) {
    state.begin_window();
    state.sync_pool(pool);
    for slot in 0..state.len() {
        state.mark_seen(slot);
    }
    let before = allocs();
    TRAP.store(12, Relaxed);
    let outcome = state.replan().expect("the pool holds every shard");
    TRAP.store(0, Relaxed);
    (outcome, allocs() - before)
}

#[test]
fn placement_repair_windows_allocate_nothing() {
    let _serial = serial();
    let pool = MachinePool::uniform(4, ResourceProfile::uniform(64.0)).expect("valid pool");
    let chain = |ks: [u32; 2]| PlacementRequest {
        operators: ks
            .iter()
            .map(|&executors| OperatorLoad {
                executors,
                profile: ResourceProfile::uniform(0.5),
            })
            .collect(),
        edges: vec![EdgeTraffic {
            from: 0,
            to: 1,
            rate: 10.0,
        }],
    };
    // "exact" is solved by the branch-and-bound (4² placements), "greedy"
    // is far beyond `EXACT_LIMIT`; the others only have to stand still.
    let fleet = [
        ("exact", [1, 1]),
        ("greedy", [12, 12]),
        ("idle-a", [2, 3]),
        ("idle-b", [1, 2]),
        ("idle-c", [3, 1]),
        ("idle-d", [2, 2]),
    ];
    let mut state = FleetPlacementState::new();
    for (name, ks) in fleet {
        let slot = state.insert(name);
        *state.touch(slot) = chain(ks);
    }
    assert_eq!(
        replan_counted(&mut state, &pool).0,
        ReplanOutcome::FullSolve
    );
    let ids = |state: &FleetPlacementState| -> Vec<u64> {
        (0..state.len()).map(|slot| state.solve_id(slot)).collect()
    };

    // One shard's edge rate leaves the band, window after window: only
    // that shard is re-solved — into its own rows, with the state's
    // scratch — and only its solve id moves.
    for (window, name) in ["exact", "greedy", "exact"].into_iter().enumerate() {
        let slot = state.slot_of(name).expect("inserted above");
        let before = ids(&state);
        let calls = state.solver_calls();
        state.touch(slot).edges[0].rate *= 1.5;
        let (outcome, allocs) = replan_counted(&mut state, &pool);
        assert_eq!(outcome, ReplanOutcome::Repaired(1), "window {window}");
        assert_eq!(allocs, 0, "window {window}: repairing {name} allocated");
        assert_eq!(state.solver_calls(), calls + 1);
        for (other, (&was, now)) in before.iter().zip(ids(&state)).enumerate() {
            if other == slot {
                assert_eq!(now, state.solver_calls(), "a fresh id for {name}");
                assert!(before.iter().all(|&b| b < now));
            } else {
                assert_eq!(now, was, "slot {other} was not re-solved");
            }
        }
        assert!(state.placement(slot).allocation_matches(&fleet[slot].1));
    }

    // No entry re-solved: no id moves, so an owner that remembers the ids
    // it put in force has nothing to compare.
    let before = ids(&state);
    assert_eq!(
        replan_counted(&mut state, &pool),
        (ReplanOutcome::Unchanged, 0)
    );
    assert_eq!(ids(&state), before);
}

/// A drifting window pays for what it moves, not for what it measures: with
/// 5 % of 3 000 placed shards re-drawing their rate every window, nine in
/// ten shards refit (α-smoothing keeps their estimates moving for dozens of
/// windows), yet a refit whose grant stands allocates nothing, and a
/// window's allocations are bounded by a small constant times the shards it
/// rebalances or re-places.
#[test]
fn drifting_windows_allocate_only_for_the_shards_they_move() {
    let _serial = serial();
    const SHARDS: usize = 3_000;
    /// Allocations a moved shard may cost: its grant and machine assignment
    /// cloned into the command, the backend's acknowledgement, the
    /// assignment put in force.
    const PER_MOVED_SHARD: u64 = 8;

    let mut generator = SyntheticFleet::new(SHARDS, 2, Draws(0x9e37_79b9_7f4a_7c15));
    let specs: Vec<_> = generator.by_ref().collect();
    // An uncontended budget: every grant is the shard's own schedule.
    let mut config = FleetDriverConfig::new(2 * generator.demand as u32);
    config.window_secs = 1.0;
    config.warmup_windows = 2;
    config.record_timeline = false;
    let mut fleet = FleetDriver::new(config, specs).expect("fleet construction");
    let capacity = generator.units / 16.0 * 1.3;
    fleet.set_machine_pool(
        MachinePool::uniform(16, ResourceProfile::uniform(capacity)).expect("valid pool"),
    );

    // One window under `redraw`, which re-draws 5 % of the shards' rates.
    // Returns the allocations the window made and the shards it moved.
    let mut draws = generator.draws;
    let mut window = |fleet: &mut FleetDriver<SyntheticShard>,
                      redraw: &dyn Fn(&mut SyntheticShard, f64)| {
        draws.redraw(SHARDS, |i, u| redraw(fleet.backend_mut(i), u));
        let solved = fleet.placement_solver_calls();
        let before = allocs();
        fleet.step();
        let allocs = allocs() - before;
        let last = fleet.last_window();
        assert!(last.error.is_none() && last.shards.iter().all(|s| s.error.is_none()));
        let rebalanced = last.shards.iter().filter(|s| s.rebalanced).count() as u64;
        (allocs, rebalanced + fleet.placement_solver_calls() - solved)
    };

    // Drift: a re-drawn shard lands anywhere in [0.7, 1.3) of its base.
    let drift = |shard: &mut SyntheticShard, u: f64| shard.drift(u);
    let mut moved_total = 0;
    for w in 0..40 {
        let (allocs, moved) = window(&mut fleet, &drift);
        moved_total += moved;
        if w >= 10 {
            assert!(
                allocs <= PER_MOVED_SHARD * moved,
                "drifting window {w}: {allocs} allocations for {moved} shards rebalanced or re-placed"
            );
        }
    }
    assert!(
        moved_total > 1_000,
        "the drift moved only {moved_total} shards"
    );

    // Wobble: a re-drawn shard's rate moves by under 0.1 % — every smoothed
    // estimate that was moving keeps moving and 5 % more start, so the fleet
    // goes on refitting, but no schedule and no placement request changes.
    let wobble = |shard: &mut SyntheticShard, u: f64| shard.rate *= 1.0 + 1e-3 * (u - 0.5);
    let mut quiet = 0;
    for w in 0..20 {
        let (allocs, moved) = window(&mut fleet, &wobble);
        assert!(
            allocs <= PER_MOVED_SHARD * moved,
            "wobbling window {w}: {allocs} allocations for {moved} shards rebalanced or re-placed"
        );
        quiet += u32::from(moved == 0);
    }
    assert!(
        quiet >= 8,
        "only {quiet} of 20 wobbling windows moved no shard"
    );
}

/// The drifting placed fleet above, on another stream: the first `shards`
/// of its 3 000 shards, settled on `machines` machines sized for all 3 000.
/// Returns the fleet and the live heap `(bytes, blocks)` it holds, counted
/// from before its specs were drawn.
fn settled_drifting_fleet(
    shards: usize,
    machines: usize,
) -> (FleetDriver<SyntheticShard>, (i64, i64)) {
    let generate = || SyntheticFleet::new(3_000, 2, Draws(0x2545_f491_4f6c_dd1d));
    let mut all = generate();
    all.by_ref().for_each(drop);
    let before = live_heap();
    let mut generator = generate();
    let specs: Vec<_> = generator.by_ref().take(shards).collect();
    let mut config = FleetDriverConfig::new(2 * generator.demand as u32);
    config.window_secs = 1.0;
    config.warmup_windows = 2;
    config.record_timeline = false;
    let mut fleet = FleetDriver::new(config, specs).expect("fleet construction");
    let capacity = all.units / machines as f64 * 1.3;
    fleet.set_machine_pool(
        MachinePool::uniform(machines, ResourceProfile::uniform(capacity)).expect("valid pool"),
    );
    fleet.run_windows(8);
    let last = fleet.last_window();
    assert!(last.error.is_none() && last.shards.iter().all(|s| s.error.is_none()));
    let after = live_heap();
    (fleet, (after.0 - before.0, after.1 - before.1))
}

/// Placement memory follows the executors, not the pool: the 3 000-shard
/// drifting placed fleet, settled on a 4-machine pool and on a 4 096-machine
/// one, holds the same live heap per shard to within 64 B. (Dense
/// `counts[op][machine]` rows, two operators in each of a shard's two
/// copies, would differ by 2 × 2 × 4 092 × 4 B ≈ 64 KB.) A shard's heap is
/// the slope between 300 and 3 000 shards on the same pool, which cancels
/// what the pool costs once (its capacities and residuals, the solvers'
/// dense scratch rows). And a placement in force is one buffer: cloning it
/// into an actuation command is one allocation.
#[test]
fn placement_memory_follows_the_executors_not_the_pool() {
    let _serial = serial();
    const SHARDS: usize = 3_000;
    const FEW: usize = 300;
    let settled_heap = |shards: usize, machines: usize| -> i64 {
        let (fleet, (heap, _)) = settled_drifting_fleet(shards, machines);
        let before = allocs();
        for i in 0..shards {
            std::hint::black_box(fleet.shard_placement(i).expect("placed").clone());
        }
        assert_eq!(
            allocs() - before,
            shards as u64,
            "{machines} machines: one allocation per placement cloned"
        );
        heap
    };
    let per_shard = |machines: usize| {
        (settled_heap(SHARDS, machines) - settled_heap(FEW, machines)) as f64
            / (SHARDS - FEW) as f64
    };
    let (narrow, wide) = (per_shard(4), per_shard(4096));
    assert!(
        (wide - narrow).abs() < 64.0,
        "live heap per shard: {narrow:.0} B on 4 machines, {wide:.0} B on 4 096"
    );
}

/// What a settled shard holds, all told — its spec, its loop state, its
/// slots in the negotiator and the placement state, its record — in live
/// bytes and live heap blocks: the slope between 300 and 3 000 shards of
/// the drifting placed fleet, on 4 machines. Pinned within 3 %, so a
/// field that comes back inline or a buffer that splits in two shows.
#[test]
fn a_settled_shard_holds_few_small_blocks() {
    let _serial = serial();
    const BYTES_PER_SHARD: f64 = 2_311.6;
    const BLOCKS_PER_SHARD: f64 = 23.0;
    let (few, many) = (
        settled_drifting_fleet(300, 4).1,
        settled_drifting_fleet(3_000, 4).1,
    );
    let bytes = (many.0 - few.0) as f64 / 2_700.0;
    let blocks = (many.1 - few.1) as f64 / 2_700.0;
    println!("a settled shard holds {bytes:.1} B in {blocks:.2} blocks");
    assert!(
        (bytes / BYTES_PER_SHARD - 1.0).abs() <= 0.03,
        "{bytes:.1} B per shard, pinned at {BYTES_PER_SHARD} B"
    );
    assert!(
        (blocks / BLOCKS_PER_SHARD - 1.0).abs() <= 0.03,
        "{blocks:.2} blocks per shard, pinned at {BLOCKS_PER_SHARD}"
    );
}

/// The `fleet_window` benchmark workload's fleet: 50 000 two-operator
/// shards on 64 machines, the budget 1 % above the fleet's demand, the pool
/// 30 % above its resource units. Returns the generator, whose draws then
/// drive the drift (5 % of the shards re-draw their rate every window),
/// and the specs.
fn window_specs() -> (SyntheticFleet, Vec<FleetShardSpec<SyntheticShard>>) {
    let mut generator = SyntheticFleet::new(50_000, 2, Draws(0x2545_f491_4f6c_dd1d));
    let specs = generator.by_ref().collect();
    (generator, specs)
}

fn window_fleet(
    generator: &SyntheticFleet,
    specs: Vec<FleetShardSpec<SyntheticShard>>,
) -> FleetDriver<SyntheticShard> {
    const MACHINES: usize = 64;
    let mut config = FleetDriverConfig::new((generator.demand as f64 * 1.01) as u32);
    config.window_secs = 1.0;
    config.warmup_windows = 2;
    config.record_timeline = false;
    let mut fleet = FleetDriver::new(config, specs).expect("fleet construction");
    fleet.set_machine_pool(
        MachinePool::uniform(
            MACHINES,
            ResourceProfile::uniform(generator.units / MACHINES as f64 * 1.3),
        )
        .expect("valid pool"),
    );
    fleet
}

/// Re-draws the rates of 5 % of the `fleet_window` fleet's shards.
fn drift(fleet: &mut FleetDriver<SyntheticShard>, generator: &mut SyntheticFleet) {
    let shards = fleet.shard_count();
    generator
        .draws
        .redraw(shards, |i, u| fleet.backend_mut(i).drift(u));
}

/// Where a large drifting window's time goes: the `fleet_window` fleet,
/// timed by the driver's own phase clocks. Prints each phase's median over
/// 300 windows, the window's median and mean, and how many windows capped
/// some shard (the budget bound).
///
/// `cargo test --release -p drs-core --test fleet_allocs -- --ignored --nocapture`
#[test]
#[ignore = "a timing report, not a check"]
fn fleet_window_phase_times() {
    let _serial = serial();
    const SETTLE: usize = 11;
    const WINDOWS: usize = 300;

    let (mut generator, specs) = window_specs();
    let mut fleet = window_fleet(&generator, specs);
    let mut phases: Vec<Vec<f64>> = vec![Vec::new(); WINDOW_PHASES.len()];
    let mut windows = Vec::with_capacity(WINDOWS);
    let mut capped = 0;
    for w in 0..SETTLE + WINDOWS {
        drift(&mut fleet, &mut generator);
        let started = Instant::now();
        fleet.step();
        let took = started.elapsed().as_secs_f64() * 1e3;
        if w >= SETTLE {
            windows.push(took);
            for (times, t) in phases.iter_mut().zip(fleet.phase_times()) {
                times.push(t.as_secs_f64() * 1e3);
            }
            capped += usize::from(fleet.last_window().shards.iter().any(|s| s.capped));
        }
    }
    let summary = |v: &mut Vec<f64>| {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        v.sort_by(f64::total_cmp);
        (v[v.len() / 2], mean)
    };
    let shards = fleet.shard_count();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let segments = shards.div_ceil(SEGMENT_SHARDS);
    println!("{shards} shards, 64 machines, {WINDOWS} windows: ms per window");
    println!("  available_parallelism {threads}, {segments} segments of {SEGMENT_SHARDS}");
    println!("  {:<10} {:>7} {:>7}", "phase", "median", "mean");
    for (name, times) in WINDOW_PHASES.iter().zip(&mut phases) {
        let (median, mean) = summary(times);
        println!("  {name:<10} {median:>7.3} {mean:>7.3}");
    }
    let (median, mean) = summary(&mut windows);
    println!("  {:<10} {median:>7.3} {mean:>7.3}", "window");
    println!("  {:.2} M shard-windows/s", shards as f64 / mean / 1e3);
    println!("  {capped} of {WINDOWS} windows with any capped shard");
}

/// What the `fleet_window` fleet holds per shard, stage by stage: the live
/// heap each stage adds, in requested bytes and blocks per shard — drawing
/// the specs, building the driver, the warm-up windows, the first
/// negotiated and placed window, and 48 drifting windows after it.
///
/// `cargo test --release -p drs-core --test fleet_allocs -- --ignored --nocapture`
#[test]
#[ignore = "a memory report, not a check"]
fn fleet_window_heap_by_stage() {
    let _serial = serial();
    let start = live_heap();
    let mut last = start;
    let mut stages = Vec::new();
    let mut stage = |name: &'static str| {
        let now = live_heap();
        stages.push((name, now.0 - last.0, now.1 - last.1));
        last = now;
    };
    let (mut generator, specs) = window_specs();
    stage("specs");
    let mut fleet = window_fleet(&generator, specs);
    stage("driver");
    let warmup = fleet.config().warmup_windows;
    for _ in 0..warmup {
        drift(&mut fleet, &mut generator);
        fleet.step();
    }
    stage("warm-up");
    drift(&mut fleet, &mut generator);
    fleet.step();
    stage("first negotiated window");
    for _ in 0..48 {
        drift(&mut fleet, &mut generator);
        fleet.step();
    }
    stage("48 drifting windows");
    let shards = fleet.shard_count() as f64;
    println!("{shards} shards, 64 machines: live heap added per shard");
    println!("  {:<24} {:>8} {:>8}", "stage", "B/shard", "blocks");
    for (name, bytes, blocks) in stages {
        println!(
            "  {name:<24} {:>8.1} {:>8.2}",
            bytes as f64 / shards,
            blocks as f64 / shards
        );
    }
    let (bytes, blocks) = (last.0 - start.0, last.1 - start.1);
    println!(
        "  {:<24} {:>8.1} {:>8.2}",
        "total",
        bytes as f64 / shards,
        blocks as f64 / shards
    );
}
