//! Micro-probes: direct, single-threaded calls into one public function
//! each, timed in a loop. They bound what a change to that function can buy
//! on `fleet_window`, whose control window is made of them.

use crate::report::RunResult;
use drs_core::decision::{self, DecisionInputs, DecisionPolicy};
use drs_core::measurer::{Measurer, RawSample, Smoothing};
use drs_core::model::{ModelInputs, OperatorRates, PerformanceModel};
use drs_core::scheduler;
use drs_queueing::erlang::MmKQueue;
use drs_queueing::incremental::ErlangStepper;
use drs_queueing::jackson::JacksonNetwork;
use drs_queueing::traffic::TrafficEquations;
use std::hint::black_box;
use std::time::Instant;

/// Mean seconds per call of `f` over `iters` calls, after a tenth as many
/// warm-up calls.
fn per_call(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    for i in 0..iters / 10 {
        f(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

/// The paper's VLD rates: a 3-operator network with offered loads 7.3,
/// 7.95 and 0.43.
fn vld_inputs() -> ModelInputs {
    ModelInputs {
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
    }
}

/// Runs every probe and records its metric.
pub fn run(r: &mut RunResult) {
    let inputs = vld_inputs();
    let network = JacksonNetwork::from_rates(
        inputs.external_rate,
        &inputs
            .operators
            .iter()
            .map(|o| (o.arrival_rate, o.service_rate))
            .collect::<Vec<_>>(),
    )
    .expect("positive rates");

    let queue = MmKQueue::new(390.0, 390.0 / 7.95).expect("positive rates");
    r.set(
        "queueing.erlang_ns",
        per_call(200_000, |i| {
            black_box(black_box(&queue).expected_sojourn(8 + i % 24));
        }) * 1e9,
    );

    // Walk a stepper up from the stability floor; restart at 192 servers.
    let floor = queue.min_stable_servers();
    let mut stepper = ErlangStepper::new(queue, floor);
    r.set(
        "queueing.incremental_step_ns",
        per_call(200_000, |_| {
            if stepper.servers() >= 192 {
                stepper = ErlangStepper::new(queue, floor);
            }
            stepper.step();
            black_box(stepper.marginal_benefit());
        }) * 1e9,
    );

    // A 20-operator chain with one feedback edge (the looped case costs
    // the spectral loop-gain check as well).
    let mut traffic = TrafficEquations::new(20);
    traffic.set_external_rate(0, 100.0).expect("valid rate");
    for i in 0..19 {
        traffic.set_gain(i, i + 1, 1.3).expect("valid gain");
    }
    traffic
        .set_gain(19, 0, 0.2 / 1.3f64.powi(19))
        .expect("valid gain");
    r.set(
        "queueing.traffic_solve_us",
        per_call(2_000, |_| {
            black_box(black_box(&traffic).solve().expect("sub-unit loop gain"));
        }) * 1e6,
    );

    let mut measurer = Measurer::new(3, Smoothing::Alpha { alpha: 0.5 }).expect("valid alpha");
    let raw = RawSample {
        external_rate: inputs.external_rate,
        operators: inputs.operators.clone(),
        mean_sojourn: Some(0.5),
    };
    r.set(
        "core.measurer.observe_ns",
        per_call(200_000, |_| measurer.observe(black_box(&raw))) * 1e9,
    );

    r.set(
        "core.model.fit_us",
        per_call(50_000, |_| {
            black_box(PerformanceModel::new(black_box(&inputs)).expect("stable inputs"));
        }) * 1e6,
    );

    r.set(
        "core.scheduler.assign_us",
        per_call(5_000, |_| {
            black_box(
                scheduler::assign_processors(black_box(&network), 192)
                    .expect("budget covers the floor"),
            );
        }) * 1e6,
    );

    r.set(
        "core.scheduler.min_target_us",
        per_call(20_000, |_| {
            black_box(
                scheduler::min_processors_for_target(black_box(&network), 1.5, 192)
                    .expect("1.5 s is above the no-queueing bound"),
            );
        }) * 1e6,
    );

    let policy = DecisionPolicy::default();
    let decision_inputs = DecisionInputs {
        current_allocation: vec![8, 12, 2],
        current_estimate: 0.9,
        candidate_allocation: vec![10, 11, 1],
        candidate_estimate: 0.5,
        pause_secs: 0.5,
        t_max: Some(1.0),
        measured_sojourn: Some(0.95),
    };
    r.set(
        "core.decision.decide_ns",
        per_call(200_000, |_| {
            black_box(decision::decide(&policy, black_box(&decision_inputs)));
        }) * 1e9,
    );
}
