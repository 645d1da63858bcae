//! Cross-crate integration: the full DRS stack (measurer → model →
//! scheduler → decision → negotiator) driving the discrete-event simulator.

use drs::apps::VldProfile;
use drs::core::config::DrsConfig;
use drs::core::controller::{ControlAction, DrsController};
use drs::core::driver::DrsDriver;
use drs::core::measurer::RawSample;
use drs::core::model::OperatorRates;
use drs::core::negotiator::{MachineBudget, MachineBudgetConfig};
use drs::queueing::erlang::MmKQueue;
use drs::sim::SimDuration;

fn pool(machines: u32) -> MachineBudget {
    MachineBudget::new(MachineBudgetConfig::default(), machines).unwrap()
}

#[test]
fn simulator_agrees_with_erlang_for_mmk_operator() {
    // A single M/M/4 operator: the simulator's measured sojourn must match
    // the closed-form Erlang expectation within stochastic tolerance.
    use drs::queueing::distribution::Distribution;
    use drs::sim::workload::OperatorBehavior;
    use drs::sim::SimulationBuilder;
    use drs::topology::TopologyBuilder;

    let mut b = TopologyBuilder::new();
    let spout = b.spout("src");
    let bolt = b.bolt("op");
    b.edge(spout, bolt).unwrap();
    let topo = b.build().unwrap();
    let mut sim = SimulationBuilder::new(topo)
        .behavior(
            spout,
            OperatorBehavior::Spout {
                interarrival: Distribution::exponential(120.0).unwrap(),
            },
        )
        .behavior(
            bolt,
            OperatorBehavior::Bolt {
                service: Distribution::exponential(40.0).unwrap(),
            },
        )
        .allocation(vec![1, 4])
        .seed(3)
        .build()
        .unwrap();
    sim.run_for(SimDuration::from_secs(400));
    let measured = sim.total_sojourn_stats().mean().unwrap();
    let expected = MmKQueue::new(120.0, 40.0).unwrap().expected_sojourn(4);
    let err = (measured - expected).abs() / expected;
    assert!(
        err < 0.08,
        "measured {measured:.4}s vs Erlang {expected:.4}s ({:.1}% off)",
        err * 100.0
    );
}

#[test]
fn controller_from_raw_rates_reaches_paper_optimum() {
    // Pure control path (no simulator): measured VLD rates in, the paper's
    // (10:11:1) out.
    let mut drs = DrsController::new(DrsConfig::min_latency(22), vec![8, 12, 2], pool(5)).unwrap();
    let sample = RawSample {
        external_rate: 13.0,
        operators: vec![
            OperatorRates {
                arrival_rate: 13.0,
                service_rate: 13.0 / 7.3,
            },
            OperatorRates {
                arrival_rate: 390.0,
                service_rate: 390.0 / 7.95,
            },
            OperatorRates {
                arrival_rate: 19.5,
                service_rate: 45.0,
            },
        ],
        mean_sojourn: Some(1.8),
    };
    let mut final_action = ControlAction::None;
    for _ in 0..4 {
        let action = drs.on_window(&sample);
        if action.is_rebalance() {
            final_action = action;
        }
    }
    match final_action {
        ControlAction::Rebalance { allocation, .. } => {
            assert_eq!(allocation, vec![10, 11, 1]);
        }
        ControlAction::None => panic!("controller never rebalanced"),
    }
}

#[test]
fn closed_loop_converges_and_stays_stable() {
    // Full loop on the simulator: from a bad start, DRS converges to the
    // optimum and then stops touching the system (no oscillation).
    let profile = VldProfile::paper();
    let sim = profile.build_simulation([12, 9, 1], 77);
    let mut drs = DrsController::new(DrsConfig::min_latency(22), vec![12, 9, 1], pool(5)).unwrap();
    drs.set_active(true);
    let mut driver = DrsDriver::new(sim, drs, 60.0).unwrap();
    driver.run_windows(12);
    let rebalance_count = driver.timeline().iter().filter(|p| p.rebalanced).count();
    assert!(
        (1..=3).contains(&rebalance_count),
        "expected 1-3 rebalances, got {rebalance_count}"
    );
    assert_eq!(
        driver.timeline().last().unwrap().allocation,
        vec![10, 11, 1]
    );
    // No rebalances in the last five windows (converged).
    assert!(driver.timeline()[7..].iter().all(|p| !p.rebalanced));
}

#[test]
fn model_estimate_tracks_measurement_rank_for_vld() {
    // A compact Fig. 7 check: where the model predicts clearly separated
    // sojourn times, the simulator's measurements agree on the ordering.
    // (Near-ties — allocations within a few percent of each other — are
    // left to the full bench sweep, which reports rank correlation.)
    let profile = VldProfile::paper();
    // Model ordering: (10:11:1) ≈ 1.34 s < (11:9:2) ≈ 1.55 s < (8:12:2) ≈ 1.69 s.
    let allocations = [[10u32, 11, 1], [11, 9, 2], [8, 12, 2]];
    let mut measured = Vec::new();
    for (i, &alloc) in allocations.iter().enumerate() {
        let mut sim = profile.build_simulation(alloc, 31 + i as u64);
        sim.run_for(SimDuration::from_secs(60)); // warm-up
        let _ = sim.take_window();
        sim.run_for(SimDuration::from_secs(300));
        let w = sim.take_window();
        measured.push(w.mean_sojourn().unwrap());
    }
    // The measured ordering matches the clearly separated model ordering.
    assert!(
        measured[0] < measured[2] * 0.95,
        "best {:.3}s should clearly beat worst {:.3}s",
        measured[0],
        measured[2]
    );
    assert!(
        measured[1] < measured[2] * 1.02,
        "middle {:.3}s should not exceed worst {:.3}s",
        measured[1],
        measured[2]
    );
    assert!(
        measured[0] < measured[1] * 1.02,
        "best {:.3}s should not exceed middle {:.3}s",
        measured[0],
        measured[1]
    );
}

#[test]
fn workload_drift_triggers_rescheduling() {
    // The paper's motivating scenario (§I): frames become feature-richer,
    // the extractor slows down, and DRS must move processors to it.
    use drs::queueing::distribution::Distribution;

    let profile = VldProfile::paper();
    let topo = profile.topology();
    let sift = topo.operator_by_name("sift-extractor").unwrap().id();
    let sim = profile.build_simulation([10, 11, 1], 13);
    let drs = DrsController::new(DrsConfig::min_latency(22), vec![10, 11, 1], pool(5)).unwrap();
    let mut driver = DrsDriver::new(sim, drs, 60.0).unwrap();

    // At the calibrated optimum: no action expected.
    driver.run_windows(4);
    assert!(driver.timeline().iter().all(|p| !p.rebalanced));

    // Feature-rich frames slow the extractor by ~33% (0.5615 s -> 0.75 s
    // per frame): its offered load jumps from 7.3 to 9.75, making the
    // 10-executor share a near-critical bottleneck.
    driver
        .backend_mut()
        .set_bolt_service(
            sift,
            Distribution::log_normal_with_mean_cv2(0.75, 1.0).unwrap(),
        )
        .unwrap();
    driver.run_windows(8);
    let post = driver.timeline().last().unwrap();
    // The extractor must have gained processors relative to the optimum.
    assert!(
        post.allocation[0] > 10,
        "extractor allocation should grow beyond 10, got {:?}",
        post.allocation
    );
}
