//! `live_step`: the closed control loop the north star names. `DrsDriver`
//! supervises a live `RuntimeEngine` running src → work → sink, where
//! `work` sleeps 4 ms per tuple, so an executor is real parallelism even on
//! a 2-core box and M/M/k applies. The load is an open-loop seeded Poisson
//! schedule stepping 300 → 600 → 300 tuples/s in three equal phases; DRS
//! (Program 6, `Tmax` 12 ms) must scale `work` up and back down.

use super::generator::{Gate, Load, LoadSpout};
use super::set_up_repeatedly;
use crate::decorators::{
    BackendClocks, Clock, SpoutClocks, Stage, TimedBackend, TimedBolt, TimedSpout,
};
use crate::report::{Ctx, RunResult};
use crate::schedule::{poisson_due_ns, Phase};
use crate::stats::{fastest, median};
use crate::trace;
use drs_core::config::DrsConfig;
use drs_core::controller::DrsController;
use drs_core::driver::DrsDriver;
use drs_core::negotiator::{MachinePool, MachinePoolConfig};
use drs_core::scheduler;
use drs_queueing::jackson::JacksonNetwork;
use drs_runtime::operator::{Bolt, Collector};
use drs_runtime::tuple::Tuple;
use drs_runtime::{RuntimeBuilder, RuntimeEngine};
use drs_topology::TopologyBuilder;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RATES: [f64; 3] = [300.0, 600.0, 300.0];
const WORK: Duration = Duration::from_millis(4);
const T_MAX_SECS: f64 = 0.012;
/// Initial bolt allocation `[work, sink]`.
const START: [u32; 2] = [2, 1];
/// Measurement windows per phase (the issue's 8 s phases of 1 s windows,
/// shortened proportionally with the run).
const WINDOWS_PER_PHASE: u64 = 8;
/// Service rate assumed for the sink when computing the reference
/// allocation; it does no work, so any large value gives `k = 1`.
const SINK_RATE: f64 = 1.0e5;
const MAX_LATE_P99_MS: f64 = 5.0;
/// DRS observes this many windows before it first acts; they are part of
/// set-up.
const WARMUP_WINDOWS: u64 = 1;
const SETUP_REPS: usize = 3;
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

static WORK_CLOCK: Clock = Clock::new();
static SINK_CLOCK: Clock = Clock::new();
static SPOUT: SpoutClocks = SpoutClocks::new();
static BACKEND: BackendClocks = BackendClocks::new();

struct SleepBolt;

impl Bolt for SleepBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        std::thread::sleep(WORK);
        collector.emit(tuple.clone());
    }
}

struct SinkBolt;

impl Bolt for SinkBolt {
    fn execute(&mut self, _tuple: &Tuple, _collector: &mut dyn Collector) {}
}

struct Rig {
    driver: DrsDriver<TimedBackend<RuntimeEngine>>,
    gate: Arc<Gate>,
    topology_build_us: f64,
    start_ms: f64,
}

/// Everything before the first window DRS may act in: the schedule, the
/// topology, the engine, the controller, and DRS's warm-up windows under
/// load.
fn set_up(ctx: &Ctx, window_secs: f64) -> Rig {
    let phase_secs = ctx.seconds / RATES.len() as f64;
    let phases = RATES.map(|rate_per_s| Phase {
        rate_per_s,
        secs: phase_secs,
    });
    let gate = Arc::new(Gate::default());
    let spout = LoadSpout::new(
        Load::Paced {
            due_ns: poisson_due_ns(ctx.seed, &phases),
        },
        Arc::clone(&gate),
        |id| Tuple::of(id as i64),
    );
    let built = Instant::now();
    let mut b = TopologyBuilder::new();
    let src = b.spout("src");
    let work = b.bolt("work");
    let sink = b.bolt("sink");
    b.edge(src, work).expect("valid edge");
    b.edge(work, sink).expect("valid edge");
    let topology = b.build().expect("a chain is a valid topology");
    let topology_build_us = built.elapsed().as_secs_f64() * 1e6;

    let builder = RuntimeBuilder::new(topology)
        .spout(src, Box::new(TimedSpout::new(spout, &SPOUT)))
        .bolt(work, || {
            TimedBolt::new(SleepBolt, "step.work", Stage::First, &WORK_CLOCK)
        })
        .bolt(sink, || {
            TimedBolt::new(SinkBolt, "step.sink", Stage::Later, &SINK_CLOCK)
        })
        .allocation(vec![1, START[0], START[1]]);
    let starting = Instant::now();
    let engine = builder.start().expect("the chain wiring is complete");
    let start_ms = starting.elapsed().as_secs_f64() * 1e3;

    let mut config = DrsConfig::min_resources(T_MAX_SECS);
    config.warmup_windows = WARMUP_WINDOWS;
    let pool = MachinePool::new(MachinePoolConfig::default(), 2).expect("valid pool");
    let mut drs = DrsController::new(config, START.to_vec(), pool).expect("valid controller");
    drs.set_active(true);
    let mut driver = DrsDriver::new(TimedBackend::new(engine, &BACKEND), drs, window_secs)
        .expect("controller and engine agree on the start allocation");
    // The schedule starts now; DRS's warm-up windows end the set-up.
    gate.release();
    driver.run_windows(WARMUP_WINDOWS);
    Rig {
        driver,
        gate,
        topology_build_us,
        start_ms,
    }
}

/// Program 6 on a phase's true rates: the allocation DRS should settle on.
fn reference_allocation(rate: f64) -> Vec<u32> {
    let work_rate = 1.0 / WORK.as_secs_f64();
    let network = JacksonNetwork::from_rates(rate, &[(rate, work_rate), (rate, SINK_RATE)])
        .expect("positive rates");
    scheduler::min_processors_for_target(&network, T_MAX_SECS, 64)
        .expect("the target is reachable with a handful of executors")
        .into_vec()
}

pub fn run(ctx: &Ctx) -> RunResult {
    let mut r = RunResult::new("live_step", ctx);
    trace::set_enabled(false);
    let windows = WINDOWS_PER_PHASE * RATES.len() as u64;
    let window_secs = ctx.seconds / windows as f64;

    let mut start_ms = Vec::new();
    let mut shutdown_ms = Vec::new();
    let (rig, setup_s) = set_up_repeatedly(
        SETUP_REPS,
        |_| {
            let rig = set_up(ctx, window_secs);
            start_ms.push(rig.start_ms);
            rig
        },
        |rig: Rig| {
            let (backend, _) = rig.driver.into_parts();
            let stopping = Instant::now();
            backend.into_inner().shutdown(Duration::ZERO);
            shutdown_ms.push(stopping.elapsed().as_secs_f64() * 1e3);
        },
    );
    let Rig {
        mut driver,
        gate,
        topology_build_us,
        ..
    } = rig;

    for clock in [
        &WORK_CLOCK,
        &SINK_CLOCK,
        &SPOUT.generate,
        &SPOUT.blocked,
        &BACKEND.advance,
        &BACKEND.apply,
        &BACKEND.current_allocation,
    ] {
        clock.take();
    }
    // A traced run records its first phase with the decorators idle.
    let trace_from = ctx.traced.then_some(WINDOWS_PER_PHASE);

    let measured_from = Instant::now();
    let mut step_overhead_us = Vec::new();
    let mut workers_peak = 0;
    for w in WARMUP_WINDOWS..windows {
        if trace_from == Some(w) {
            trace::set_enabled(true);
        }
        let (advance_before, apply_before) = (BACKEND.advance.read().1, BACKEND.apply.read().1);
        let start_ns = trace::now_ns();
        let step = Instant::now();
        driver.step();
        let took = step.elapsed().as_secs_f64();
        step_overhead_us.push((took - window_secs) * 1e6);
        workers_peak = workers_peak.max(driver.backend().inner().workers());
        if trace::enabled() {
            let end_ns = trace::now_ns();
            let root = trace::record(0, "driver.step", start_ns, end_ns, w);
            // One advance (first) and at most one apply (last) per step.
            let advance_ns = BACKEND.advance.read().1 - advance_before;
            let apply_ns = BACKEND.apply.read().1 - apply_before;
            trace::record(root, "backend.advance", start_ns, start_ns + advance_ns, w);
            if apply_ns > 0 {
                trace::record(root, "backend.apply", end_ns - apply_ns, end_ns, w);
            }
        }
    }
    trace::set_enabled(false);
    let wall_secs = measured_from.elapsed().as_secs_f64();

    let timeline = driver.timeline().to_vec();
    let log = driver.controller().log().to_vec();
    let (backend, _) = driver.into_parts();
    let engine = backend.into_inner();
    // The schedule ends with the last window; give stragglers a moment.
    let drained = engine.wait_until_drained(DRAIN_DEADLINE);
    let open_trees = engine.open_trees();
    let ack_ms = [0.50, 0.95, 0.99].map(|q| engine.sojourn_quantile(q).unwrap_or(0.0) * 1e3);
    let stopping = Instant::now();
    engine.shutdown(Duration::from_secs(1));
    shutdown_ms.push(stopping.elapsed().as_secs_f64() * 1e3);

    let emitted = gate.emitted();
    let (late, late_max) = gate.lateness_ms();
    let completed: u64 = timeline[WARMUP_WINDOWS as usize..]
        .iter()
        .map(|p| p.completed)
        .sum();
    let sojourns: Vec<f64> = timeline.iter().filter_map(|p| p.mean_sojourn_ms).collect();
    let refused = timeline
        .iter()
        .filter(|p| p.backend_error.is_some())
        .count() as u64;

    r.attempted = emitted.max(1);
    r.failed = open_trees + refused;
    if late.tail > MAX_LATE_P99_MS {
        r.invalid = Some(format!(
            "generator lateness p{} {:.3} ms exceeds {MAX_LATE_P99_MS} ms (max {late_max:.3} ms)",
            late.tail_pct, late.tail
        ));
    }
    r.set("setup_s", fastest(&setup_s));
    r.set("work_per_s", completed as f64 / wall_secs);
    r.set("latency_ms", median(&sojourns));

    r.check(
        "every tuple tree acked",
        drained && open_trees == 0,
        format!("drained {drained} with {open_trees} trees open of {emitted} emitted"),
    );
    r.check(
        "no actuation refused",
        refused == 0,
        format!("{refused} windows with a backend error"),
    );
    for (phase, rate) in RATES.iter().enumerate() {
        let last = &timeline[((phase as u64 + 1) * WINDOWS_PER_PHASE - 1) as usize];
        let want = reference_allocation(*rate);
        let (got_total, want_total): (u32, u32) = (last.allocation.iter().sum(), want.iter().sum());
        r.check(
            &format!("phase {phase} ends within one executor of Program 6"),
            got_total.abs_diff(want_total) <= 1,
            format!(
                "{rate} tuples/s: ended on {:?}, Program 6 gives {want:?}",
                last.allocation
            ),
        );
    }

    if ctx.traced {
        // `LogEntry.window` is 1-based; pair it with the timeline point of
        // the same window.
        let model_err: Vec<f64> = log
            .iter()
            .filter_map(|e| {
                let measured = timeline.get(e.window as usize - 1)?.mean_sojourn_ms? / 1e3;
                Some((e.current_estimate? - measured).abs() / measured)
            })
            .filter(|e| e.is_finite())
            .collect();
        let exec_secs: f64 = timeline
            .iter()
            .map(|p| f64::from(p.allocation.iter().sum::<u32>()) * window_secs)
            .sum();
        // Windows from each rate step until the allocation next changes.
        let react: u64 = (1..RATES.len() as u64)
            .map(|phase| {
                let from = phase * WINDOWS_PER_PHASE;
                timeline[from as usize..]
                    .iter()
                    .position(|p| p.rebalanced)
                    .map_or(windows - from, |i| i as u64 + 1)
            })
            .sum();
        let pauses_us: Vec<f64> = timeline
            .iter()
            .filter_map(|p| p.pause_secs)
            .map(|s| s * 1e6)
            .collect();
        r.set("topology.build_us", topology_build_us);
        r.set("runtime.start_ms", median(&start_ms));
        r.set("runtime.shutdown_ms", median(&shutdown_ms));
        r.set("runtime.workers_peak", workers_peak as f64);
        r.set("runtime.rebalance_pause_us", median(&pauses_us));
        r.set(
            "runtime.rebalance_pause_max_us",
            pauses_us.iter().copied().fold(0.0, f64::max),
        );
        r.set("runtime.rebalance_call_us", BACKEND.apply.mean_ns() / 1e3);
        r.set("runtime.ack_p50_ms", ack_ms[0]);
        r.set("runtime.ack_p95_ms", ack_ms[1]);
        r.set("runtime.ack_p99_ms", ack_ms[2]);
        r.set("core.driver.step_overhead_us", median(&step_overhead_us));
        r.set(
            "core.driver.rebalances",
            timeline.iter().filter(|p| p.rebalanced).count() as f64,
        );
        r.set("core.driver.react_windows", react as f64);
        r.set("core.driver.exec_secs", exec_secs);
        r.set("core.driver.model_err_rel", median(&model_err));
        r.set("bench.gen_late_p99_ms", late.tail);
        r.set("bench.gen_late_max_ms", late_max);
        // Sleep-paced service leaves the CPUs idle, so tracing cannot slow
        // the pipeline; its cost shows as sojourn added per tuple.
        let phase_sojourn = |phase: usize| {
            let from = phase * WINDOWS_PER_PHASE as usize;
            median(
                &timeline[from..from + WINDOWS_PER_PHASE as usize]
                    .iter()
                    .filter_map(|p| p.mean_sojourn_ms)
                    .collect::<Vec<_>>(),
            )
        };
        r.set(
            "bench.trace_overhead_frac",
            phase_sojourn(2) / phase_sojourn(0).max(1e-9) - 1.0,
        );
    }
    r
}
