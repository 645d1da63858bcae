//! Integration of DRS with the live threaded runtime: real threads, real
//! queues, real measurements feeding the model.

use drs::core::config::DrsConfig;
use drs::core::controller::DrsController;
use drs::core::driver::{CspBackend, DrsDriver};
use drs::core::model::{ModelInputs, OperatorRates, PerformanceModel};
use drs::core::negotiator::{MachineBudget, MachineBudgetConfig};
use drs::core::scheduler::assign_processors;
use drs::queueing::erlang::MmKQueue;
use drs::runtime::operator::{Bolt, Collector, Spout, SpoutEmission};
use drs::runtime::tuple::Tuple;
use drs::runtime::RuntimeBuilder;
use drs::topology::TopologyBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Poisson-ish spout: exponential inter-arrival at `rate`/s.
struct PoissonSpout {
    rng: StdRng,
    rate: f64,
    remaining: u64,
}

impl Spout for PoissonSpout {
    fn next(&mut self) -> Option<SpoutEmission> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let u: f64 = 1.0 - self.rng.gen::<f64>();
        Some(SpoutEmission {
            tuple: Tuple::of(self.remaining as i64),
            wait: Duration::from_secs_f64(-u.ln() / self.rate),
        })
    }
}

/// Bolt with exponential-ish service time (busy sleep).
struct ExpServiceBolt {
    rng: StdRng,
    mean_secs: f64,
    forward: bool,
}

impl Bolt for ExpServiceBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let u: f64 = 1.0 - self.rng.gen::<f64>();
        let service = -u.ln() * self.mean_secs;
        std::thread::sleep(Duration::from_secs_f64(service.min(0.05)));
        if self.forward {
            collector.emit(tuple.clone());
        }
    }
}

#[test]
fn live_measurements_fit_the_model() {
    // λ = 200/s, µ = 1/2ms = 500/s per executor, k = 2: a lightly loaded
    // M/M/2. The measured rates must support a sane model fit.
    let mut b = TopologyBuilder::new();
    let src = b.spout("src");
    let work = b.bolt("work");
    b.edge(src, work).unwrap();
    let topo = b.build().unwrap();
    let engine = RuntimeBuilder::new(topo)
        .spout(
            src,
            Box::new(PoissonSpout {
                rng: StdRng::seed_from_u64(1),
                rate: 200.0,
                remaining: 400,
            }),
        )
        .bolt(work, || ExpServiceBolt {
            rng: StdRng::seed_from_u64(2),
            mean_secs: 0.002,
            forward: false,
        })
        .allocation(vec![1, 2])
        .start()
        .unwrap();
    assert!(engine.wait_until_drained(Duration::from_secs(30)));
    let snap = engine.shutdown(Duration::from_secs(1));

    let m = snap.operators[work.index()];
    let lambda = m.arrival_rate(snap.window_secs).unwrap();
    let mu = m.service_rate().unwrap();
    assert!((lambda - 200.0).abs() < 40.0, "λ̂ = {lambda}");
    // Sleep-based service overshoots a little; it must not be meaningfully
    // faster than configured (±10% covers sampling variance at 400 draws:
    // the exponential's SE is mean/√400 = 5%).
    assert!(mu <= 550.0, "µ̂ = {mu}");
    assert!(mu > 150.0, "µ̂ = {mu}");

    // The model built from live rates predicts a sojourn in the right
    // ballpark of the measured one (loose: scheduling noise is real).
    let model = PerformanceModel::new(&ModelInputs {
        external_rate: lambda,
        operators: vec![OperatorRates {
            arrival_rate: lambda,
            service_rate: mu,
        }],
    })
    .unwrap();
    let estimated = model.expected_sojourn(&[2]).unwrap();
    let measured = snap.sojourn.mean().unwrap();
    assert!(
        measured > estimated * 0.3 && measured < estimated * 5.0,
        "measured {measured}s vs estimated {estimated}s"
    );
}

#[test]
fn scheduler_fixes_live_bottleneck() {
    // Stage 1 is 4x more expensive than stage 2; with 4 executors to split,
    // Algorithm 1 must give stage 1 the lion's share, and the re-balanced
    // engine must drain faster than the naive even split.
    let run = |k1: u32, k2: u32| {
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let heavy = b.bolt("heavy");
        let light = b.bolt("light");
        b.edge(src, heavy).unwrap();
        b.edge(heavy, light).unwrap();
        let topo = b.build().unwrap();
        let engine = RuntimeBuilder::new(topo)
            .spout(
                src,
                Box::new(PoissonSpout {
                    rng: StdRng::seed_from_u64(5),
                    rate: 300.0,
                    remaining: 600,
                }),
            )
            .bolt(heavy, || ExpServiceBolt {
                rng: StdRng::seed_from_u64(6),
                mean_secs: 0.008,
                forward: true,
            })
            .bolt(light, || ExpServiceBolt {
                rng: StdRng::seed_from_u64(7),
                mean_secs: 0.002,
                forward: false,
            })
            .allocation(vec![1, k1, k2])
            .start()
            .unwrap();
        assert!(engine.wait_until_drained(Duration::from_secs(60)));
        let snap = engine.shutdown(Duration::from_secs(1));
        snap.sojourn.mean().unwrap()
    };

    // What does DRS say for 6 executors, given the true rates?
    let model = PerformanceModel::new(&ModelInputs {
        external_rate: 300.0,
        operators: vec![
            OperatorRates {
                arrival_rate: 300.0,
                service_rate: 125.0,
            },
            OperatorRates {
                arrival_rate: 300.0,
                service_rate: 500.0,
            },
        ],
    })
    .unwrap();
    let best = assign_processors(model.network(), 6).unwrap();
    assert!(
        best.per_operator()[0] >= 4,
        "heavy stage should dominate: {best}"
    );

    let balanced = run(best.per_operator()[0], best.per_operator()[1]);
    let naive = run(3, 3);
    assert!(
        balanced < naive,
        "DRS allocation ({balanced}s) should beat naive 3:3 ({naive}s)"
    );
}

/// Deterministic-interval spout: one tuple every `gap`, forever (until the
/// engine stops it).
struct MetronomeSpout {
    gap: Duration,
}

impl Spout for MetronomeSpout {
    fn next(&mut self) -> Option<SpoutEmission> {
        Some(SpoutEmission {
            tuple: Tuple::of(0i64),
            wait: self.gap,
        })
    }
}

/// Sleeps `busy` per tuple, forwarding when asked.
struct SleepBolt {
    busy: Duration,
    forward: bool,
}

impl Bolt for SleepBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        if !self.busy.is_zero() {
            std::thread::sleep(self.busy);
        }
        if self.forward {
            collector.emit(tuple.clone());
        }
    }
}

#[test]
fn closed_loop_driver_autoscales_the_live_runtime() {
    // End to end over real threads: λ = 500/s against a single 4 ms-sleep
    // executor (µ ≈ 250/s, offered load ≈ 2) — unstable until DRS scales
    // the work stage out. The driver must detect it from live metrics,
    // rebalance, and the allocation must then hold steady while the
    // measured sojourn falls back to service-time scale.
    let mut b = TopologyBuilder::new();
    let src = b.spout("src");
    let work = b.bolt("work");
    let sink = b.bolt("sink");
    b.edge(src, work).unwrap();
    b.edge(work, sink).unwrap();
    let topo = b.build().unwrap();
    let engine = drs::runtime::RuntimeBuilder::new(topo)
        .spout(
            src,
            Box::new(MetronomeSpout {
                gap: Duration::from_micros(2_000),
            }),
        )
        .bolt(work, || SleepBolt {
            busy: Duration::from_millis(4),
            forward: true,
        })
        .bolt(sink, || SleepBolt {
            busy: Duration::ZERO,
            forward: false,
        })
        .allocation(vec![1, 1, 1])
        .start()
        .unwrap();

    let mut config = DrsConfig::min_latency(6);
    config.warmup_windows = 1;
    let pool = MachineBudget::new(MachineBudgetConfig::default(), 2).unwrap();
    let drs = DrsController::new(config, vec![1, 1], pool).unwrap();
    let mut driver = DrsDriver::new(engine, drs, 0.4).unwrap();
    driver.run_windows(10);

    let timeline = driver.timeline();
    assert!(
        timeline.iter().all(|p| p.backend_error.is_none()),
        "live rebalances must apply cleanly: {timeline:?}"
    );
    let rebalanced_at = timeline
        .iter()
        .find(|p| p.rebalanced)
        .expect("the overloaded stage must trigger a rebalance")
        .window as usize;

    // The work stage got enough executors for stability (offered load ≈ 2
    // means at least 3) and the backend really runs them.
    let last = timeline.last().unwrap();
    assert!(
        last.allocation[0] >= 3,
        "work stage should scale out, got {:?}",
        last.allocation
    );
    assert_eq!(last.allocation, driver.backend().current_allocation());

    // Convergence: the allocation holds over the final windows. (Two
    // windows, not more: the rates come from real sleeps, and a loaded
    // runner can wobble a mid-tail measurement.)
    let tail = &timeline[timeline.len() - 2..];
    assert!(
        tail.iter().all(|p| p.allocation == last.allocation),
        "allocation should stabilize: {timeline:?}"
    );
    assert!(!tail.iter().any(|p| p.rebalanced));

    // And the rebalance actually helped: the backlog-inflated sojourn
    // before the action dwarfs the drained steady state after it.
    let peak_before = timeline[..=rebalanced_at]
        .iter()
        .filter_map(|p| p.mean_sojourn_ms)
        .fold(0.0f64, f64::max);
    let steady_after = tail
        .iter()
        .filter_map(|p| p.mean_sojourn_ms)
        .fold(f64::INFINITY, f64::min);
    assert!(
        steady_after < peak_before,
        "sojourn should drop after rebalance: {steady_after} ms vs peak {peak_before} ms"
    );

    let (engine, _drs) = driver.into_parts();
    engine.shutdown(Duration::from_secs(1));
}

#[test]
fn erlang_theory_holds_on_live_threads() {
    // Sanity anchor: a live M/M/1 with λ=50, µ=200 has E[T] ≈ 6.7 ms; the
    // threaded engine should land within a loose band despite scheduler
    // noise.
    let mut b = TopologyBuilder::new();
    let src = b.spout("src");
    let work = b.bolt("work");
    b.edge(src, work).unwrap();
    let topo = b.build().unwrap();
    let engine = RuntimeBuilder::new(topo)
        .spout(
            src,
            Box::new(PoissonSpout {
                rng: StdRng::seed_from_u64(11),
                rate: 50.0,
                remaining: 250,
            }),
        )
        .bolt(work, || ExpServiceBolt {
            rng: StdRng::seed_from_u64(12),
            mean_secs: 0.005,
            forward: false,
        })
        .allocation(vec![1, 1])
        .start()
        .unwrap();
    assert!(engine.wait_until_drained(Duration::from_secs(30)));
    let snap = engine.shutdown(Duration::from_secs(1));
    let measured = snap.sojourn.mean().unwrap();
    let expected = MmKQueue::new(50.0, 200.0).unwrap().expected_sojourn(1);
    assert!(
        measured > expected * 0.5 && measured < expected * 4.0,
        "measured {measured}s vs theory {expected}s"
    );
}
