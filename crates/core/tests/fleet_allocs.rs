//! The steady-state fleet window is allocation-free: once every shard's
//! smoothed measurements reach their bitwise fixpoint (constant input ⇒
//! the α-smoother stops moving ⇒ the demand epoch stands still) a full
//! `FleetDriver::step` — advance, measure, negotiate, grant, gate — must
//! perform **zero** heap allocations. This pins the tentpole guarantee of
//! the incremental negotiator end-to-end, not just in the negotiate path:
//! a million-entity fleet whose demand does not move pays no allocator
//! traffic per window. With a machine pool installed the guarantee
//! extends through the placement phase: the warm epoch-stamped placement
//! state compares each shard's request in place and replans nothing.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms the fleet past the smoothing fixpoint, then asserts the counter
//! does not advance across further windows. Backends override
//! `advance_into` / `current_allocation_into` so the measurement side is
//! allocation-free too — exactly the contract production backends are
//! expected to meet for large fleets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use drs_core::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use drs_core::fleet::{
    mmk_measured_sojourn, FleetDriver, FleetDriverConfig, FleetShardSpec, ShardPlacementInfo,
};
use drs_core::placement::MachinePool;
use drs_core::scheduler;
use drs_queueing::jackson::JacksonNetwork;
use drs_topology::ResourceProfile;

/// System allocator wrapper that counts every allocation and reallocation
/// (frees are uncounted: the claim under test is "no new memory", not
/// "no memory").
struct CountingAlloc;

// Counter and trap are per thread: libtest runs the tests of this binary on
// parallel threads, and a process-wide counter would charge one test with
// the other's warm-up allocations. `const`-initialised `Cell`s need no lazy
// initialisation and no destructor, so touching them never allocates.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Failure diagnostics: while non-zero, each counted allocation prints a
    /// backtrace of its call site (and decrements the budget), so a
    /// regression names the allocating line instead of just a count.
    static TRAP: Cell<u64> = const { Cell::new(0) };
}

fn count_and_trace() {
    ALLOCS.with(|a| a.set(a.get() + 1));
    // The trap is disarmed while the backtrace is captured and printed:
    // both allocate, and a nested print would re-lock the output sink this
    // thread already holds.
    let n = TRAP.replace(0);
    if n > 0 {
        eprintln!(
            "ALLOC SITE:\n{}",
            std::backtrace::Backtrace::force_capture()
        );
        TRAP.set(n - 1);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_and_trace();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_and_trace();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_and_trace();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A shard under perfectly constant load, with allocation-free overrides
/// of the measurement hooks.
#[derive(Debug)]
struct SteadyShard {
    rate: f64,
    mu: f64,
    allocation: Vec<u32>,
}

impl SteadyShard {
    fn new(rate: f64, mu: f64, k: u32) -> Self {
        SteadyShard {
            rate,
            mu,
            allocation: vec![k],
        }
    }
}

impl CspBackend for SteadyShard {
    fn backend_name(&self) -> &'static str {
        "steady"
    }
    fn operator_names(&self) -> Vec<String> {
        vec!["work".to_owned()]
    }
    fn current_allocation(&self) -> Vec<u32> {
        self.allocation.clone()
    }
    fn current_allocation_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.allocation);
    }
    fn advance(&mut self, window_secs: f64) -> WindowSample {
        let mut out = WindowSample::default();
        self.advance_into(window_secs, &mut out);
        out
    }
    fn advance_into(&mut self, _window_secs: f64, out: &mut WindowSample) {
        out.external_rate = Some(self.rate);
        out.operators.clear();
        out.operators.push(OperatorSample {
            arrival_rate: Some(self.rate),
            service_rate: Some(self.mu),
        });
        out.mean_sojourn = Some(mmk_measured_sojourn(self.rate, self.mu, self.allocation[0]));
        out.std_sojourn = None;
        out.completed = 100;
    }
    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        self.allocation = plan.allocation.clone();
        Ok(AppliedRebalance {
            allocation: plan.allocation.clone(),
            pause_secs: plan.pause_secs,
        })
    }
}

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

fn steady_fleet_with(
    k_max: u32,
    placement: Option<ShardPlacementInfo>,
) -> FleetDriver<SteadyShard> {
    let mut config = FleetDriverConfig::new(k_max);
    config.warmup_windows = 2;
    config.window_secs = 1.0;
    // No timeline: steady-state windows must not even record themselves.
    config.record_timeline = false;
    let shard = |name: &str, rate: f64| {
        let spec = FleetShardSpec::new(
            name,
            0.2,
            SteadyShard::new(rate, 10.0, desired_k(rate, 10.0, 0.2)),
        );
        match &placement {
            Some(info) => spec.with_placement(info.clone()),
            None => spec,
        }
    };
    FleetDriver::new(
        config,
        vec![shard("a", 40.0), shard("b", 25.0), shard("c", 55.0)],
    )
    .expect("fleet construction")
}

fn steady_fleet(k_max: u32) -> FleetDriver<SteadyShard> {
    steady_fleet_with(k_max, None)
}

/// The same steady fleet with a shared machine pool and per-shard
/// placement metadata installed: the placement phase (warm epoch-stamped
/// state, request comparison, replan) runs every window and must stay
/// allocation-free once nothing changes.
fn steady_placed_fleet(k_max: u32) -> FleetDriver<SteadyShard> {
    // A self-loop edge keeps the measured-rate comparison in play; the
    // rate is constant, so it always lands inside the band.
    let info = ShardPlacementInfo {
        profiles: vec![ResourceProfile::uniform(0.5)],
        edges: vec![(0, 0, 1.0)],
    };
    let mut fleet = steady_fleet_with(k_max, Some(info));
    fleet.set_machine_pool(
        MachinePool::uniform(4, ResourceProfile::uniform(64.0)).expect("valid pool"),
    );
    fleet
}

fn assert_steady_windows_allocation_free(mut fleet: FleetDriver<SteadyShard>, label: &str) {
    // Warm past the α-smoothing bitwise fixpoint (α = 0.5 converges in
    // well under 100 constant-input windows) so the demand epoch stops
    // advancing and grants go quiescent.
    fleet.run_windows(120);
    let settled = fleet.completed_windows();

    let before = ALLOCS.get();
    TRAP.set(12);
    fleet.run_windows(10);
    TRAP.set(0);
    let after = ALLOCS.get();

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
    // Uncontended: the budget fits every desired allocation.
    assert_steady_windows_allocation_free(steady_fleet(40), "uncontended");
    // Contended: desired totals exceed the budget, so the warm negotiator
    // holds live walk state and the capped fix-up path runs every window.
    assert_steady_windows_allocation_free(steady_fleet(14), "contended");
}

#[test]
fn steady_placement_windows_allocate_nothing() {
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
