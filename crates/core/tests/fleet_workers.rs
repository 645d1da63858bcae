//! The failure paths of the fleet's pass workers: a backend that panics on a
//! worker's segment panics the caller's `step` instead of hanging it, and
//! dropping a driver, or one of its clones, joins that driver's workers.
//!
//! Both tests read how many threads the process runs (`/proc/self/task`),
//! so they run one at a time.

use drs_core::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use drs_core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec, SEGMENT_SHARDS};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One operator at fixed rates. A shard with a `fuse` panics in the window
/// it counts down to, naming the thread it panics on; one with a `stall`
/// takes a second to measure the window it counts down to.
#[derive(Debug, Clone)]
struct FixedShard {
    allocation: Vec<u32>,
    fuse: Option<u32>,
    stall: Option<u32>,
}

impl CspBackend for FixedShard {
    fn backend_name(&self) -> &'static str {
        "fixed"
    }
    fn operator_names(&self) -> Vec<String> {
        vec!["work".to_owned()]
    }
    fn current_allocation(&self) -> Vec<u32> {
        self.allocation.clone()
    }
    fn advance(&mut self, window_secs: f64) -> WindowSample {
        let mut out = WindowSample::default();
        self.advance_into(window_secs, &mut out);
        out
    }
    fn advance_into(&mut self, _window_secs: f64, out: &mut WindowSample) {
        if let Some(fuse) = &mut self.fuse {
            *fuse -= 1;
            if *fuse == 0 {
                panic!("backend failed on {:?}", std::thread::current().name());
            }
        }
        if let Some(stall) = &mut self.stall {
            *stall -= 1;
            if *stall == 0 {
                std::thread::sleep(Duration::from_secs(1));
            }
        }
        out.external_rate = Some(20.0);
        out.operators.clear();
        out.operators.push(OperatorSample {
            arrival_rate: Some(20.0),
            service_rate: Some(10.0),
        });
        out.mean_sojourn = Some(0.2);
        out.std_sojourn = None;
        out.completed = 20;
    }
    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        self.allocation.clone_from(&plan.allocation);
        Ok(AppliedRebalance {
            allocation: plan.allocation.clone(),
            pause_secs: plan.pause_secs,
        })
    }
}

/// Segments of the fleet the tests drive.
const SEGMENTS: usize = 3;

/// `SEGMENTS` segments of shards; shard `fused`, if any, panics in window 3,
/// and then the first shard stalls in that window.
fn fleet(fused: Option<usize>) -> FleetDriver<FixedShard> {
    let shards = SEGMENTS * SEGMENT_SHARDS;
    let mut config = FleetDriverConfig::new(4 * shards as u32);
    config.window_secs = 1.0;
    config.warmup_windows = 1;
    config.record_timeline = false;
    let specs = (0..shards)
        .map(|i| {
            let shard = FixedShard {
                allocation: vec![3],
                fuse: (fused == Some(i)).then_some(3),
                stall: (fused.is_some() && i == 0).then_some(3),
            };
            FleetShardSpec::new(format!("s{i}"), 0.5, shard)
        })
        .collect();
    FleetDriver::new(config, specs).expect("a valid fleet")
}

fn serial() -> MutexGuard<'static, ()> {
    static TESTS: Mutex<()> = Mutex::new(());
    TESTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Threads the process runs now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the process's threads")
        .count()
}

/// Threads the process runs once it has settled at `want` (a joined
/// thread may take a moment to leave the list), or after 10 s.
fn settled_threads(want: usize) -> usize {
    let started = Instant::now();
    loop {
        let now = threads();
        if now == want || started.elapsed() > Duration::from_secs(10) {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The workers the fleet starts.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(SEGMENTS)) - 1
}

#[test]
fn a_backend_panic_on_a_worker_panics_the_callers_step() {
    let _serial = serial();
    // The fused shard is the first of the last segment, which the pass
    // hands to a worker first; the caller's thread, stalled on the first
    // shard meanwhile, cannot take it back. (On a host with one core, the
    // caller measures it, and the panic is the caller's own.)
    let (sent, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let mut fleet = fleet(Some((SEGMENTS - 1) * SEGMENT_SHARDS));
        fleet.run_windows(2);
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fleet.step();
        }));
        let message = stepped
            .err()
            .and_then(|payload| payload.downcast_ref::<String>().cloned());
        drop(fleet);
        sent.send(message).expect("the test waits for the outcome");
    });
    let message = outcome
        .recv_timeout(Duration::from_secs(120))
        .expect("the step returns (panicking) instead of hanging");
    let thread = (workers() > 0).then_some("fleet-pass");
    assert_eq!(message, Some(format!("backend failed on {thread:?}")));
}

#[test]
fn dropping_a_driver_or_a_clone_joins_its_workers() {
    let _serial = serial();
    let before = threads();
    let mut fleet = fleet(None);
    assert_eq!(threads(), before, "no worker before the first window");
    fleet.step();
    let with_workers = threads();
    assert_eq!(with_workers, before + workers());

    // A clone shares no worker: it starts its own when it first steps.
    let mut clone = fleet.clone();
    assert_eq!(threads(), with_workers);
    clone.step();
    assert_eq!(threads(), with_workers + workers());
    drop(clone);
    assert_eq!(settled_threads(with_workers), with_workers);

    // The original's workers still serve it, until it is dropped.
    fleet.step();
    assert_eq!(threads(), with_workers);
    drop(fleet);
    assert_eq!(settled_threads(before), before);
}

// A driver is `Sync` whenever its backend is: what its workers hand back
// waits in a channel the driver reaches only through `&mut self`. Checked
// when this file compiles.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<FleetDriver<FixedShard>>();
};
