//! `live_flood` and `live_paced`: the VLD live pipeline (frames → extract →
//! match(24 logos) → aggregate) on `RuntimeEngine`, two pinned workers.
//!
//! Both are driven by one benchmark-owned generator thread (the engine's
//! spout thread running [`LoadSpout`]) over a pool of frames generated from
//! the seed before the run. `live_flood` is a closed loop — the spout emits
//! as fast as backpressure lets it while the harness rewrites the executor
//! weights every 3 ms; `live_paced` is an open loop on a precomputed
//! Poisson schedule with no rebalances.

use super::generator::{Gate, Load, LoadSpout};
use super::set_up_repeatedly;
use crate::decorators::{Clock, SpoutClocks, Stage, TimedBolt, TimedSpout};
use crate::report::{Ctx, RunResult};
use crate::schedule::{poisson_due_ns, Phase};
use crate::stats::{fastest, mean, median};
use crate::trace;
use drs_apps::vld::live::{synth_frame, AggregateBolt, ExtractBolt, MatchBolt};
use drs_apps::VldProfile;
use drs_runtime::operator::{Bolt, Collector, VecCollector};
use drs_runtime::tuple::{Tuple, Value};
use drs_runtime::{RuntimeBuilder, RuntimeEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct frames generated from the seed; the generator cycles through
/// them under fresh frame ids.
const POOL_FRAMES: usize = 4096;
/// Frame ids repeat with this period. The aggregator keeps a count per
/// frame id and never forgets one, so unique ids would make its map — and
/// with it memory and per-tuple cost — grow with the length of the run.
const FRAME_ID_CYCLE: u64 = 1 << 16;
const CHANNEL_CAPACITY: usize = 128;
const WORKERS: usize = 2;
/// Scene complexity range the pool sweeps (the live spout's scene process
/// wanders around 0.5).
const COMPLEXITY: (f64, f64) = (0.2, 0.8);
const LOGOS: usize = 24;
/// The logo library is the program's configuration, not workload input:
/// it stays the same for every workload seed.
const LOGO_LIBRARY_SEED: u64 = 2015;
const MATCH_DISTANCE: f32 = 0.35;
const MIN_MATCHES: u32 = 3;
/// `live_flood` is a closed loop: the generator stays at most this many
/// frames ahead of the first bolt. Several times the channel capacity, so
/// every stage stays saturated and the spout parks on a full channel — but
/// bounded, because an unbounded flood does not reach a steady state on
/// this runtime (see the README's sizing observations).
const FLOOD_WINDOW: u64 = 2048;
/// Open-loop rate of `live_paced`, frames per second.
const PACED_RATE: f64 = 40_000.0;
const SNAPSHOT_EVERY: Duration = Duration::from_millis(500);
const REBALANCE_EVERY: Duration = Duration::from_millis(3);
/// A paced run whose generator lateness p99 exceeds this is invalid.
const MAX_LATE_P99_MS: f64 = 5.0;
const SETUP_REPS: usize = 21;
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// The allocation rotation of `repro soak`: grows, shrinks and reshapes
/// across a wide weight range, spout weight pinned at 1.
const ROTATION: [[u32; 4]; 6] = [
    [1, 8, 2, 1],
    [1, 2, 4, 1],
    [1, 4, 2, 1],
    [1, 6, 1, 2],
    [1, 1, 1, 1],
    [1, 4, 4, 2],
];
const STEADY_ALLOCATION: [u32; 4] = [1, 4, 2, 1];

static EXTRACT: Clock = Clock::new();
static MATCH: Clock = Clock::new();
static AGGREGATE: Clock = Clock::new();
static SPOUT: SpoutClocks = SpoutClocks::new();

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Flood,
    Paced,
}

/// Mean cost of each pipeline stage run directly, single-threaded, into a
/// `VecCollector` — what a bolt-kernel change can buy at most.
#[derive(Debug, Clone, Copy, Default)]
struct StageCosts {
    spout_ns: f64,
    extract_ns: f64,
    match_ns: f64,
    aggregate_ns: f64,
    /// Bolt executions one frame causes.
    fanout: f64,
}

/// The seeded frames and, per frame, the completions it must cause at
/// (extract, match, aggregate) — the single-threaded reference pass.
struct FramePool {
    frames: Vec<Vec<u8>>,
    completions: Vec<[u64; 3]>,
}

impl FramePool {
    /// Frame `i` of the pool has scene complexity swept evenly over
    /// `COMPLEXITY` with its texture drawn from the seed: every seed gives
    /// different frames but (to within sampling error over the pool) the
    /// same mix of cheap and feature-rich ones, so seeds are comparable.
    fn generate(seed: u64) -> (FramePool, StageCosts) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut extract = ExtractBolt::new();
        let mut matcher = MatchBolt::new(LOGOS, MATCH_DISTANCE, LOGO_LIBRARY_SEED);
        let mut aggregate = AggregateBolt::new(MIN_MATCHES);
        let mut frames = Vec::with_capacity(POOL_FRAMES);
        let mut completions = Vec::with_capacity(POOL_FRAMES);
        let mut nanos = [0u64; 4];
        let mut calls = [0u64; 4];
        let mut stage = |i: usize, f: &mut dyn FnMut()| {
            let start = Instant::now();
            f();
            nanos[i] += start.elapsed().as_nanos() as u64;
            calls[i] += 1;
        };
        let (mut descriptors, mut matches, mut sink) = (
            VecCollector::new(),
            VecCollector::new(),
            VecCollector::new(),
        );
        for i in 0..POOL_FRAMES {
            let share = (i as f64 + 0.5) / POOL_FRAMES as f64;
            let complexity = COMPLEXITY.0 + (COMPLEXITY.1 - COMPLEXITY.0) * share;
            let mut frame = Vec::new();
            stage(0, &mut || frame = synth_frame(&mut rng, complexity));
            let tuple = Tuple::new(vec![Value::Int(i as i64), Value::Bytes(frame.clone())]);
            stage(1, &mut || extract.execute(&tuple, &mut descriptors));
            let n_desc = descriptors.len() as u64;
            for d in descriptors.drain_tuples() {
                stage(2, &mut || matcher.execute(&d, &mut matches));
            }
            let n_match = matches.len() as u64;
            for m in matches.drain_tuples() {
                stage(3, &mut || aggregate.execute(&m, &mut sink));
            }
            sink.drain_tuples().for_each(drop);
            completions.push([1, n_desc, n_match]);
            frames.push(frame);
        }
        let per = |i: usize| nanos[i] as f64 / calls[i].max(1) as f64;
        let costs = StageCosts {
            spout_ns: per(0),
            extract_ns: per(1),
            match_ns: per(2),
            aggregate_ns: per(3),
            fanout: (calls[1] + calls[2] + calls[3]) as f64 / calls[0].max(1) as f64,
        };
        (
            FramePool {
                frames,
                completions,
            },
            costs,
        )
    }

    /// Completions per bolt that frames `0..emitted` must cause.
    fn reference(&self, emitted: u64) -> [u64; 3] {
        let n = self.frames.len() as u64;
        let mut total = [0u64; 3];
        let (cycles, rest) = (emitted / n, (emitted % n) as usize);
        for (i, c) in self.completions.iter().enumerate() {
            let times = cycles + u64::from(i < rest);
            for (t, &x) in total.iter_mut().zip(c) {
                *t += x * times;
            }
        }
        total
    }
}

/// Counts the frames the first stage has taken, for the flood's window.
struct Progress<B: Bolt> {
    inner: B,
    done: Arc<AtomicU64>,
}

impl<B: Bolt> Bolt for Progress<B> {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        self.inner.execute(tuple, collector);
        self.done.fetch_add(1, Ordering::Relaxed);
    }
}

struct Rig {
    engine: RuntimeEngine,
    pool: Arc<FramePool>,
    gate: Arc<Gate>,
    costs: StageCosts,
    topology_build_us: f64,
    start_ms: f64,
}

/// Everything before the first measured frame: seeded frames and their
/// reference pass, the topology, the engine with its pool and spout thread.
fn set_up(kind: Kind, ctx: &Ctx, workers: usize) -> Rig {
    let seed = ctx.seed;
    let (pool, costs) = FramePool::generate(seed);
    let pool = Arc::new(pool);
    let load = match kind {
        Kind::Flood => Load::Window {
            secs: ctx.seconds,
            ahead: FLOOD_WINDOW,
        },
        Kind::Paced => Load::Paced {
            due_ns: poisson_due_ns(
                seed,
                &[Phase {
                    rate_per_s: PACED_RATE,
                    secs: ctx.seconds,
                }],
            ),
        },
    };
    let gate = Arc::new(Gate::default());
    let extracted = Arc::clone(&gate.first_stage_done);
    let frames = Arc::clone(&pool);
    let spout = LoadSpout::new(load, Arc::clone(&gate), move |id| {
        let frame = &frames.frames[id as usize % frames.frames.len()];
        Tuple::new(vec![
            Value::Int((id % FRAME_ID_CYCLE) as i64),
            Value::Bytes(frame.clone()),
        ])
    });
    let built = Instant::now();
    let topology = VldProfile::paper().topology();
    let topology_build_us = built.elapsed().as_secs_f64() * 1e6;
    let ids: Vec<_> = topology.operators().iter().map(|o| o.id()).collect();
    let builder = RuntimeBuilder::new(topology)
        .spout(ids[0], Box::new(TimedSpout::new(spout, &SPOUT)))
        .bolt(ids[1], move || {
            let counted = Progress {
                inner: ExtractBolt::new(),
                done: Arc::clone(&extracted),
            };
            TimedBolt::new(counted, "vld.extract", Stage::First, &EXTRACT)
        })
        .bolt(ids[2], move || {
            TimedBolt::new(
                MatchBolt::new(LOGOS, MATCH_DISTANCE, LOGO_LIBRARY_SEED),
                "vld.match",
                Stage::Later,
                &MATCH,
            )
        })
        .bolt(ids[3], || {
            TimedBolt::new(
                AggregateBolt::new(MIN_MATCHES),
                "vld.aggregate",
                Stage::Later,
                &AGGREGATE,
            )
        })
        .allocation(STEADY_ALLOCATION.to_vec())
        .channel_capacity(CHANNEL_CAPACITY)
        .workers(workers);
    let starting = Instant::now();
    let engine = builder.start().expect("the VLD wiring is complete");
    let start_ms = starting.elapsed().as_secs_f64() * 1e3;
    Rig {
        engine,
        pool,
        gate,
        costs,
        topology_build_us,
        start_ms,
    }
}

/// One snapshot window of a run.
struct Window {
    start_s: f64,
    end_s: f64,
    completions: u64,
    mean_sojourn_ms: Option<f64>,
}

struct Drive {
    windows: Vec<Window>,
    /// Bolt completions per operator id, whole run.
    completions: Vec<u64>,
    wall_secs: f64,
    drained: bool,
    open_trees: u64,
    rebalance_pause_us: Vec<f64>,
    rebalance_call_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    workers_peak: usize,
    peak_queue_depth: u64,
    suspensions: u64,
    ack_ms: [f64; 3],
    shutdown_ms: f64,
}

/// Releases the generator and drives the engine until the stream has
/// drained, switching span recording on at `trace_from` seconds.
fn drive(kind: Kind, mut engine: RuntimeEngine, gate: &Gate, trace_from: Option<f64>) -> Drive {
    let n_ops = engine.topology().len();
    let mut d = Drive {
        windows: Vec::new(),
        completions: vec![0; n_ops],
        wall_secs: 0.0,
        drained: false,
        open_trees: 0,
        rebalance_pause_us: Vec::new(),
        rebalance_call_us: Vec::new(),
        snapshot_us: Vec::new(),
        workers_peak: 0,
        peak_queue_depth: 0,
        suspensions: 0,
        ack_ms: [0.0; 3],
        shutdown_ms: 0.0,
    };
    // Discard what the idle engine counted during set-up.
    engine.metrics_snapshot();
    let origin = gate.release();

    let mut next_snapshot = SNAPSHOT_EVERY;
    let mut window_start = 0.0;
    let mut rotation = 0usize;
    while !engine.spouts_finished() {
        match kind {
            Kind::Flood => {
                let next = ROTATION[rotation % ROTATION.len()];
                rotation += 1;
                let call = Instant::now();
                let pause = engine
                    .rebalance(next.to_vec())
                    .expect("rotation allocations are valid");
                d.rebalance_call_us.push(call.elapsed().as_secs_f64() * 1e6);
                d.rebalance_pause_us.push(pause.as_secs_f64() * 1e6);
                d.workers_peak = d.workers_peak.max(engine.workers());
                std::thread::sleep(REBALANCE_EVERY);
            }
            Kind::Paced => {
                d.workers_peak = d.workers_peak.max(engine.workers());
                let until = next_snapshot.saturating_sub(origin.elapsed());
                std::thread::sleep(until.min(Duration::from_millis(20)));
            }
        }
        let now = origin.elapsed();
        if let Some(from) = trace_from {
            if !trace::enabled() && now.as_secs_f64() >= from {
                trace::set_enabled(true);
            }
        }
        if now >= next_snapshot {
            let call = Instant::now();
            let snap = engine.metrics_snapshot();
            d.snapshot_us.push(call.elapsed().as_secs_f64() * 1e6);
            let end_s = origin.elapsed().as_secs_f64();
            for (total, op) in d.completions.iter_mut().zip(&snap.operators) {
                *total += op.completions;
            }
            d.windows.push(Window {
                start_s: window_start,
                end_s,
                completions: snap.operators.iter().map(|o| o.completions).sum(),
                mean_sojourn_ms: snap.sojourn.mean().map(|s| s * 1e3),
            });
            window_start = end_s;
            next_snapshot += SNAPSHOT_EVERY;
        }
    }
    d.drained = engine.wait_until_drained(DRAIN_DEADLINE);
    d.wall_secs = origin.elapsed().as_secs_f64();
    trace::set_enabled(false);
    d.open_trees = engine.open_trees();
    for (slot, q) in d.ack_ms.iter_mut().zip([0.50, 0.95, 0.99]) {
        *slot = engine.sojourn_quantile(q).unwrap_or(0.0) * 1e3;
    }
    d.peak_queue_depth = engine
        .peak_queue_depths()
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0);
    d.suspensions = engine.suspensions().into_iter().flatten().sum();
    let stopping = Instant::now();
    let last = engine.shutdown(Duration::from_secs(1));
    d.shutdown_ms = stopping.elapsed().as_secs_f64() * 1e3;
    for (total, op) in d.completions.iter_mut().zip(&last.operators) {
        *total += op.completions;
    }
    d
}

/// The windows lying wholly inside `[from, to]` seconds.
fn windows_between(windows: &[Window], from: f64, to: f64) -> impl Iterator<Item = &Window> {
    windows
        .iter()
        .filter(move |w| w.start_s >= from && w.end_s <= to)
}

/// Bolt completions per second over those windows.
fn rate_between(windows: &[Window], from: f64, to: f64) -> f64 {
    let (n, secs) = windows_between(windows, from, to).fold((0u64, 0.0), |(n, secs), w| {
        (n + w.completions, secs + w.end_s - w.start_s)
    });
    n as f64 / f64::max(secs, 1e-9)
}

/// Mean over those windows of the window's mean sojourn, milliseconds.
fn sojourn_between(windows: &[Window], from: f64, to: f64) -> f64 {
    let v: Vec<f64> = windows_between(windows, from, to)
        .filter_map(|w| w.mean_sojourn_ms)
        .collect();
    mean(&v)
}

pub fn run(kind: Kind, ctx: &Ctx) -> RunResult {
    let name = match kind {
        Kind::Flood => "live_flood",
        Kind::Paced => "live_paced",
    };
    let mut r = RunResult::new(name, ctx);
    trace::set_enabled(false);

    // Set up several times; the fastest is `setup_s`. The last rig runs.
    let mut start_ms = Vec::new();
    let mut idle_shutdown_ms = Vec::new();
    let (rig, setup_s) = set_up_repeatedly(
        SETUP_REPS,
        |_| {
            let rig = set_up(kind, ctx, WORKERS);
            start_ms.push(rig.start_ms);
            rig
        },
        |rig: Rig| {
            let stopping = Instant::now();
            rig.engine.shutdown(Duration::ZERO);
            idle_shutdown_ms.push(stopping.elapsed().as_secs_f64() * 1e3);
        },
    );
    let Rig {
        engine,
        pool,
        gate,
        costs,
        topology_build_us,
        ..
    } = rig;

    // A traced run measures its first third with the decorators idle and
    // the rest with them recording; the difference is the tracing overhead.
    let trace_from = ctx.traced.then_some(ctx.seconds / 3.0);
    for clock in [
        &EXTRACT,
        &MATCH,
        &AGGREGATE,
        &SPOUT.generate,
        &SPOUT.blocked,
    ] {
        clock.take();
    }
    let d = drive(kind, engine, &gate, trace_from);

    let emitted = gate.emitted();
    let (late, late_max) = gate.lateness_ms();
    let tuples: u64 = d.completions.iter().sum();
    let sojourns: Vec<f64> = d.windows.iter().filter_map(|w| w.mean_sojourn_ms).collect();

    r.attempted = emitted.max(1);
    r.failed = d.open_trees;
    if kind == Kind::Paced && late.tail > MAX_LATE_P99_MS {
        r.invalid = Some(format!(
            "generator lateness p{} {:.3} ms exceeds {MAX_LATE_P99_MS} ms (max {late_max:.3} ms)",
            late.tail_pct, late.tail
        ));
    }
    r.set("setup_s", fastest(&setup_s));
    r.set("work_per_s", tuples as f64 / d.wall_secs);
    r.set("latency_ms", median(&sojourns));

    // Outputs against the single-threaded reference pass.
    let want = pool.reference(emitted);
    let got = [d.completions[1], d.completions[2], d.completions[3]];
    r.check(
        "completions equal the reference pass",
        got == want,
        format!(
            "extract/match/aggregate measured {got:?}, reference {want:?} over {emitted} frames"
        ),
    );
    r.check(
        "every tuple tree acked",
        d.drained && d.open_trees == 0,
        format!("drained {} with {} trees open", d.drained, d.open_trees),
    );
    r.check(
        "queue depth within the channel bound",
        d.peak_queue_depth <= CHANNEL_CAPACITY as u64,
        format!("peak {} of capacity {CHANNEL_CAPACITY}", d.peak_queue_depth),
    );

    if let Some(from) = trace_from {
        let to = d.windows.last().map_or(0.0, |w| w.end_s);
        let on_secs = (ctx.seconds.min(to) - from).max(1e-9);
        let capacity_ns = WORKERS as f64 * on_secs * 1e9;
        let (extract_calls, extract_ns) = EXTRACT.read();
        let (match_calls, match_ns) = MATCH.read();
        let (aggregate_calls, aggregate_ns) = AGGREGATE.read();
        let traced_tuples = (extract_calls + match_calls + aggregate_calls).max(1);
        let bolt_ns = (extract_ns + match_ns + aggregate_ns) as f64;
        // What the same tuples cost single-threaded and undisturbed; the
        // decorators' wall time includes preemption on a shared box.
        let reference_ns = extract_calls as f64 * costs.extract_ns
            + match_calls as f64 * costs.match_ns
            + aggregate_calls as f64 * costs.aggregate_ns
            + SPOUT.generate.read().1 as f64;
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_ns = cores.min(WORKERS + 1) as f64 * on_secs * 1e9;
        r.set("topology.build_us", topology_build_us);
        r.set("runtime.start_ms", median(&start_ms));
        r.set(
            "runtime.shutdown_ms",
            match kind {
                // A flooded engine's shutdown is dominated by its drain;
                // report the idle engine's, which set-up repeats.
                Kind::Flood => median(&idle_shutdown_ms),
                Kind::Paced => d.shutdown_ms,
            },
        );
        r.set("runtime.rebalance_pause_us", median(&d.rebalance_pause_us));
        r.set(
            "runtime.rebalance_pause_max_us",
            d.rebalance_pause_us.iter().copied().fold(0.0, f64::max),
        );
        r.set("runtime.rebalance_call_us", median(&d.rebalance_call_us));
        r.set("runtime.suspensions", d.suspensions as f64);
        r.set("runtime.peak_queue_depth", d.peak_queue_depth as f64);
        r.set("runtime.workers_peak", d.workers_peak as f64);
        r.set(
            "runtime.busy_share.extract",
            extract_ns as f64 / capacity_ns,
        );
        r.set("runtime.busy_share.match", match_ns as f64 / capacity_ns);
        r.set(
            "runtime.busy_share.aggregate",
            aggregate_ns as f64 / capacity_ns,
        );
        r.set("runtime.snapshot_us", median(&d.snapshot_us));
        r.set("runtime.ack_p50_ms", d.ack_ms[0]);
        r.set("runtime.ack_p95_ms", d.ack_ms[1]);
        r.set("runtime.ack_p99_ms", d.ack_ms[2]);
        r.set("apps.vld.spout_ns", costs.spout_ns);
        r.set("apps.vld.extract_ns", costs.extract_ns);
        r.set("apps.vld.match_ns", costs.match_ns);
        r.set("apps.vld.aggregate_ns", costs.aggregate_ns);
        r.set("apps.vld.fanout", costs.fanout);
        r.set("bench.gen_late_p99_ms", late.tail);
        r.set("bench.gen_late_max_ms", late_max);
        match kind {
            Kind::Flood => {
                let off = rate_between(&d.windows, 0.0, from);
                let on = rate_between(&d.windows, from, ctx.seconds);
                r.set("bench.trace_overhead_frac", 1.0 - on / off.max(1e-9));
                // Who bounds the flood — generator or engine — and what the
                // engine adds per tuple; an open loop idles, so neither says
                // anything about `live_paced`.
                r.set(
                    "runtime.spout_gen_share",
                    SPOUT.generate.read().1 as f64 / (on_secs * 1e9),
                );
                r.set(
                    "runtime.spout_blocked_share",
                    SPOUT.blocked.read().1 as f64 / (on_secs * 1e9),
                );
                r.set(
                    "runtime.overhead_ns_per_tuple",
                    (cpu_ns - reference_ns) / traced_tuples as f64,
                );
                // Single-worker baseline of the same flood, a quarter as
                // long, so the flat worker sweep has an attributed ratio.
                let mut short = ctx.clone();
                short.seconds = ctx.seconds / 4.0;
                let one = set_up(kind, &short, 1);
                let w1 = drive(kind, one.engine, &one.gate, None);
                let w1_rate = w1.completions.iter().sum::<u64>() as f64 / w1.wall_secs;
                r.set("runtime.tuples_per_s_w1", w1_rate);
                r.set("runtime.scaling_w1_w2", off / w1_rate.max(1e-9));
            }
            Kind::Paced => {
                let off = sojourn_between(&d.windows, 0.0, from);
                let on = sojourn_between(&d.windows, from, ctx.seconds);
                r.set("bench.trace_overhead_frac", on / off.max(1e-9) - 1.0);
                let compute_us = bolt_ns / extract_calls.max(1) as f64 / 1e3;
                r.set("runtime.paced_overhead_us", on * 1e3 - compute_us);
            }
        }
    }
    r
}
