//! Closed-loop regression tests for the backend-agnostic `DrsDriver` on the
//! Fig. 9 configuration:
//!
//! 1. **Determinism + convergence golden**: the driver replays a
//!    bit-identical timeline across runs and steers every initial
//!    allocation to the paper's optimum `(10:11:1)`. (This replaces the
//!    `SimHarness` parity test: the deprecated harness was deleted after
//!    the driver's timeline had been proven bit-identical to it for a full
//!    PR cycle; determinism and the converged endpoint are the properties
//!    that guarantee anchored.)
//! 2. **Pause-longer-than-window**: the old harness called
//!    `.expect("controller never issues invalid allocations")` on
//!    `Simulator::rebalance`, so a pause outlasting the measurement window
//!    panicked on the next rebalance attempt. The driver must surface it as
//!    a `BackendError` timeline event and resynchronise instead.

use drs_apps::VldProfile;
use drs_core::config::DrsConfig;
use drs_core::controller::DrsController;
use drs_core::driver::{DrsDriver, TimelinePoint};
use drs_core::negotiator::{MachineBudget, MachineBudgetConfig};
use drs_sim::Simulator;

fn controller(initial: [u32; 3], machines: u32) -> DrsController {
    let pool = MachineBudget::new(MachineBudgetConfig::default(), machines).expect("valid pool");
    let mut drs = DrsController::new(DrsConfig::min_latency(22), initial.to_vec(), pool)
        .expect("valid controller");
    drs.set_active(false); // passive until the Fig. 9 enable point
    drs
}

/// The Fig. 9 run shape: 27 windows, re-balancing enabled at window 13.
const WINDOWS: u64 = 27;
const ENABLE_AT: u64 = 13;

/// One full Fig. 9 run of the driver for the given starting allocation.
fn fig9_run(initial: [u32; 3], seed: u64) -> Vec<TimelinePoint> {
    let profile = VldProfile::paper();
    let window_secs = 20u64; // the quick Fig. 9 variant; 60 s in repro
    let mut driver: DrsDriver<Simulator> = DrsDriver::new(
        profile.build_simulation(initial, seed),
        controller(initial, 5),
        window_secs as f64,
    )
    .expect("wiring matches");
    driver.run_windows(ENABLE_AT);
    driver.controller_mut().set_active(true);
    driver.run_windows(WINDOWS - ENABLE_AT);
    driver.timeline().to_vec()
}

#[test]
fn driver_timeline_is_deterministic_and_converges_on_fig9() {
    for initial in [[8u32, 12, 2], [11, 9, 2], [10, 11, 1]] {
        let seed = 31;
        let a = fig9_run(initial, seed);
        let b = fig9_run(initial, seed);

        // Bit-identical across runs: the driver replays the exact same
        // event sequence, not merely a statistically similar one.
        assert_eq!(a, b, "initial {initial:?}");
        assert_eq!(a.len(), WINDOWS as usize);
        assert!(a.iter().all(|p| p.backend_error.is_none()));

        // Passive phase: the deliberately bad start stays in force.
        for p in &a[..ENABLE_AT as usize] {
            assert!(!p.rebalanced, "initial {initial:?} window {}", p.window);
            assert_eq!(p.allocation, initial.to_vec());
        }

        // Active phase: every start converges to the paper's optimum.
        let last = a.last().unwrap();
        assert_eq!(
            last.allocation,
            vec![10, 11, 1],
            "initial {initial:?} must converge to the Fig. 9 optimum"
        );
        // Bad starts must act at least once; every start settles — no
        // flapping in the tail.
        let rebalances = a.iter().filter(|p| p.rebalanced).count();
        if initial != [10, 11, 1] {
            assert!(rebalances >= 1, "initial {initial:?} never rebalanced");
        }
        assert!(
            a[a.len() - 5..].iter().all(|p| !p.rebalanced),
            "initial {initial:?} still rebalancing at the end"
        );
    }
}

#[test]
fn rebalance_improves_sojourn_across_transition() {
    // Fig. 9 shape: the post-transition steady state beats the
    // pre-transition one from a bad start.
    let timeline = fig9_run([8, 12, 2], 7);
    let first_rebalance = timeline
        .iter()
        .find(|p| p.rebalanced)
        .expect("bad start must rebalance")
        .window as usize;
    let mean_sojourn = |points: &[TimelinePoint]| {
        let measured: Vec<f64> = points.iter().filter_map(|p| p.mean_sojourn_ms).collect();
        assert!(!measured.is_empty(), "no measured windows to average");
        measured.iter().sum::<f64>() / measured.len() as f64
    };
    let before = mean_sojourn(&timeline[1..ENABLE_AT as usize]);
    let settled = timeline.get(first_rebalance + 2..).unwrap_or(&[]);
    assert!(
        !settled.is_empty(),
        "rebalance at window {first_rebalance} leaves no settled windows to average"
    );
    let after = mean_sojourn(settled);
    assert!(
        after < before,
        "after rebalance {after} ms should beat before {before} ms"
    );
}

#[test]
fn pause_longer_than_window_is_surfaced_not_a_panic() {
    // A rebalance pause covering several windows: while the simulator is
    // paused, a second rebalance attempt used to panic the old harness.
    let profile = VldProfile::paper();
    let initial = [8u32, 12, 2];
    let window_secs = 20.0;
    let pool_config = MachineBudgetConfig {
        steady_pause: 3.0 * window_secs, // pause >> window
        ..Default::default()
    };
    let pool = MachineBudget::new(pool_config, 5).expect("valid pool");
    let mut cfg = DrsConfig::min_latency(22);
    cfg.cooldown_windows = 0; // retry immediately, mid-pause
    let drs = DrsController::new(cfg, initial.to_vec(), pool).expect("valid controller");
    let mut driver = DrsDriver::new(profile.build_simulation(initial, 7), drs, window_secs)
        .expect("wiring matches");

    // Run until the first rebalance fires (warmup is 2 windows).
    driver.run_windows(4);
    let first = driver
        .timeline()
        .iter()
        .find(|p| p.rebalanced)
        .expect("the bad start must trigger a rebalance")
        .window;

    // The simulator is now paused for 60 s (three windows). Make the
    // controller believe the system is back at the bad start so it issues
    // another rebalance while the pause is still in effect — the scenario
    // that panicked `SimHarness::step`.
    driver.controller_mut().sync_allocation(initial.to_vec());
    let refused = driver.step().clone();

    assert!(refused.window > first);
    assert!(
        !refused.rebalanced,
        "the mid-pause rebalance must be refused"
    );
    assert!(
        refused
            .backend_error
            .as_deref()
            .is_some_and(|e| e.contains("rebalance unavailable")),
        "unexpected timeline point: {refused:?}"
    );
    // After the refusal the controller's view matches what the backend is
    // actually running.
    assert_eq!(
        refused.allocation,
        drs_core::driver::CspBackend::current_allocation(driver.backend())
    );

    // Once the pause elapses the loop recovers: a later rebalance applies
    // successfully and the full budget stays placed. (The long pauses
    // starve several windows of measurements, so the exact split may differ
    // from the steady-state optimum — convergence under normal pauses is
    // covered by the golden test above.)
    driver.run_windows(7);
    let successes = driver.timeline().iter().filter(|p| p.rebalanced).count();
    assert!(successes >= 2, "expected a post-pause rebalance to succeed");
    assert_eq!(
        driver
            .timeline()
            .last()
            .unwrap()
            .allocation
            .iter()
            .sum::<u32>(),
        22
    );
}
