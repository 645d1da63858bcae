//! `repro drive`: the same `DrsDriver` configuration run against the
//! simulator *and* the live threaded runtime, timelines printed side by
//! side — a living demo that the `CspBackend` abstraction holds.
//!
//! Both backends execute the same two-stage workload (λ = 120 tuples/s
//! into a 20 ms work stage and a fast sink) from the same under-provisioned
//! start, supervised by an identically configured controller. The simulator
//! finishes in milliseconds of wall time; the runtime waits out real
//! windows on real threads — and both converge to the same allocation.

use crate::report::{fmt_allocation, render_table};
use drs_core::config::DrsConfig;
use drs_core::controller::DrsController;
use drs_core::driver::{DrsDriver, TimelinePoint};
use drs_core::negotiator::{MachineBudget, MachineBudgetConfig};
use drs_queueing::distribution::Distribution;
use drs_runtime::operator::{Bolt, Collector, Spout, SpoutEmission};
use drs_runtime::tuple::Tuple;
use drs_runtime::RuntimeBuilder;
use drs_sim::workload::OperatorBehavior;
use drs_sim::SimulationBuilder;
use drs_topology::{Topology, TopologyBuilder};
use std::time::Duration;

/// Nominal external rate (tuples/second).
const RATE: f64 = 120.0;
/// Nominal work-stage service time (seconds): µ = 50/s, offered load 2.4.
const WORK_SECS: f64 = 0.020;
/// Processor budget for the latency goal.
const K_MAX: u32 = 6;

/// The shared `drive` run shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveConfig {
    /// Measurement windows to run.
    pub windows: u64,
    /// Window length in seconds (the runtime waits this out for real).
    pub window_secs: f64,
    /// Simulator seed.
    pub seed: u64,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            windows: 8,
            window_secs: 1.0,
            seed: 2015,
        }
    }
}

/// Which backend(s) to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveBackend {
    /// Discrete-event simulator only.
    Sim,
    /// Live threaded runtime only.
    Runtime,
    /// Both, side by side.
    Both,
}

/// One backend's finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveRun {
    /// Backend label (`"sim"` / `"runtime"`).
    pub backend: &'static str,
    /// The recorded timeline.
    pub timeline: Vec<TimelinePoint>,
}

fn topology() -> (
    Topology,
    drs_topology::OperatorId,
    drs_topology::OperatorId,
    drs_topology::OperatorId,
) {
    let mut b = TopologyBuilder::new();
    let src = b.spout("src");
    let work = b.bolt("work");
    let sink = b.bolt("sink");
    b.edge(src, work).expect("valid edge");
    b.edge(work, sink).expect("valid edge");
    (b.build().expect("valid topology"), src, work, sink)
}

fn controller() -> DrsController {
    let mut config = DrsConfig::min_latency(K_MAX);
    config.warmup_windows = 1;
    let pool = MachineBudget::new(MachineBudgetConfig::default(), 2).expect("valid pool");
    let mut drs = DrsController::new(config, vec![1, 1], pool).expect("valid controller");
    drs.set_active(true);
    drs
}

/// Runs the drive workload on the simulator.
pub(crate) fn run_sim(config: DriveConfig) -> DriveRun {
    let (topo, src, work, sink) = topology();
    let sim = SimulationBuilder::new(topo)
        .behavior(
            src,
            OperatorBehavior::Spout {
                interarrival: Distribution::exponential(RATE).expect("valid exponential"),
            },
        )
        .behavior(
            work,
            OperatorBehavior::Bolt {
                service: Distribution::deterministic(WORK_SECS).expect("valid deterministic"),
            },
        )
        .behavior(
            sink,
            OperatorBehavior::Bolt {
                service: Distribution::deterministic(1e-4).expect("valid deterministic"),
            },
        )
        .allocation(vec![1, 1, 1])
        .seed(config.seed)
        .build()
        .expect("valid simulation");
    let mut driver = DrsDriver::new(sim, controller(), config.window_secs).expect("wiring matches");
    driver.run_windows(config.windows);
    DriveRun {
        backend: "sim",
        timeline: driver.timeline().to_vec(),
    }
}

/// Poisson spout for the live run, mirroring the simulator's arrival law.
struct PoissonSpout {
    state: u64,
}

impl PoissonSpout {
    /// xorshift64*: enough randomness for inter-arrival jitter without
    /// pulling a full RNG into the bench crate.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Spout for PoissonSpout {
    fn next(&mut self) -> Option<SpoutEmission> {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let gap = -(1.0 - u).ln() / RATE;
        Some(SpoutEmission {
            tuple: Tuple::of(0i64),
            wait: Duration::from_secs_f64(gap),
        })
    }
}

/// Sleeps the nominal work-stage service time, then forwards.
struct WorkBolt {
    busy: Duration,
    forward: bool,
}

impl Bolt for WorkBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        if !self.busy.is_zero() {
            std::thread::sleep(self.busy);
        }
        if self.forward {
            collector.emit(tuple.clone());
        }
    }
}

/// Runs the drive workload on the live threaded runtime. Wall-clock time:
/// `windows × window_secs` seconds.
pub(crate) fn run_runtime(config: DriveConfig) -> DriveRun {
    let (topo, src, work, sink) = topology();
    let engine = RuntimeBuilder::new(topo)
        .spout(
            src,
            Box::new(PoissonSpout {
                state: config.seed | 1,
            }),
        )
        .bolt(work, || WorkBolt {
            busy: Duration::from_secs_f64(WORK_SECS),
            forward: true,
        })
        .bolt(sink, || WorkBolt {
            busy: Duration::ZERO,
            forward: false,
        })
        .allocation(vec![1, 1, 1])
        .start()
        .expect("valid runtime");
    let mut driver =
        DrsDriver::new(engine, controller(), config.window_secs).expect("wiring matches");
    driver.run_windows(config.windows);
    let run = DriveRun {
        backend: "runtime",
        timeline: driver.timeline().to_vec(),
    };
    let (engine, _drs) = driver.into_parts();
    engine.shutdown(Duration::from_secs(1));
    run
}

/// Runs the selected backend(s).
pub fn run_drive(backend: DriveBackend, config: DriveConfig) -> Vec<DriveRun> {
    match backend {
        DriveBackend::Sim => vec![run_sim(config)],
        DriveBackend::Runtime => vec![run_runtime(config)],
        DriveBackend::Both => vec![run_sim(config), run_runtime(config)],
    }
}

fn point_cells(p: Option<&TimelinePoint>) -> [String; 3] {
    match p {
        Some(p) => [
            p.mean_sojourn_ms
                .map_or("-".to_owned(), |v| format!("{v:.1}")),
            fmt_allocation(&p.allocation),
            if p.rebalanced {
                "R".to_owned()
            } else if p.backend_error.is_some() {
                "E".to_owned()
            } else {
                String::new()
            },
        ],
        None => ["-".to_owned(), "-".to_owned(), String::new()],
    }
}

/// Renders the runs side by side, one window per row.
pub fn render_drive(config: &DriveConfig, runs: &[DriveRun]) -> String {
    let mut header: Vec<String> = vec!["window".to_owned()];
    for r in runs {
        header.push(format!("{} sojourn (ms)", r.backend));
        header.push(format!("{} (work:sink)", r.backend));
        header.push(String::new());
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..config.windows as usize)
        .map(|w| {
            let mut row = vec![format!("{}", w + 1)];
            for r in runs {
                row.extend(point_cells(r.timeline.get(w)));
            }
            row
        })
        .collect();
    let mut out = render_table(
        &format!(
            "drive — one DrsDriver config (λ={RATE}/s, 20 ms work stage, Kmax={K_MAX}, \
             {:.1} s windows) over {} backend(s)",
            config.window_secs,
            runs.len()
        ),
        &header_refs,
        &rows,
    );
    for r in runs {
        let last = r.timeline.last().expect("non-empty timeline");
        out.push_str(&format!(
            "{:>8}: final allocation {} after {} rebalance(s)\n",
            r.backend,
            fmt_allocation(&last.allocation),
            r.timeline.iter().filter(|p| p.rebalanced).count(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_drive_converges_to_stable_work_stage() {
        let run = run_sim(DriveConfig {
            windows: 6,
            window_secs: 5.0,
            seed: 7,
        });
        assert_eq!(run.timeline.len(), 6);
        let last = run.timeline.last().unwrap();
        // Offered load 2.4 needs at least 3 work executors.
        assert!(last.allocation[0] >= 3, "allocation {:?}", last.allocation);
        assert!(run.timeline.iter().any(|p| p.rebalanced));
    }

    #[test]
    fn both_backends_agree_on_the_work_stage() {
        // The living demo's core claim: the same driver config steers both
        // engines to a stable work stage. Short real-time windows keep the
        // runtime half under a second of wall clock per window.
        let config = DriveConfig {
            windows: 6,
            window_secs: 0.4,
            seed: 11,
        };
        let runs = run_drive(DriveBackend::Both, config);
        assert_eq!(runs.len(), 2);
        for run in &runs {
            let last = run.timeline.last().unwrap();
            assert!(
                last.allocation[0] >= 3,
                "{} allocation {:?}",
                run.backend,
                last.allocation
            );
        }
        let s = render_drive(&config, &runs);
        assert!(s.contains("sim sojourn"));
        assert!(s.contains("runtime sojourn"));
    }
}
