//! `repro soak`: saturation soak of the live runtime under continuous
//! control-plane churn — the production-grade number the throughput
//! benches don't measure.
//!
//! The scenario floods the VLD pipeline (synthetic frames → feature
//! extraction → logo matching → aggregation) through deliberately small
//! bounded channels so the suspension backpressure path is continuously
//! exercised, while the control plane rewrites executor weights every few
//! milliseconds — the rebalance-stress cadence, sustained for the whole
//! run. What comes out is not just throughput but the *latency
//! distribution under churn*: per-tuple ingress→ack sojourn recorded into
//! the runtime's HDR-style histogram, reported as p50/p95/p99, next to
//! the peak observed queue depth (which the hard channel bound caps at
//! the configured capacity) and the number of task suspensions taken.
//!
//! The numbers to cite are `BENCHMARK.json`'s `runtime.ack_p50_ms` /
//! `ack_p95_ms` / `ack_p99_ms`, `runtime.suspensions` and `work_per_s` on
//! the `live_flood` workload (`bash benchmark/run.sh --workload
//! live_flood`); this smoke asserts the drain, not a latency.

use crate::report::render_table;
use drs_apps::vld::live::{AggregateBolt, ExtractBolt, FrameSpout, MatchBolt};
use drs_apps::VldProfile;
use drs_runtime::operator::{Spout, SpoutEmission};
use drs_runtime::RuntimeBuilder;
use std::time::{Duration, Instant};

/// Configuration of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Seed for the frame generator and the matcher.
    pub seed: u64,
    /// Root frames flooded through the pipeline (backpressure is the only
    /// pacing; the run ends when the last tree acks).
    pub frames: u64,
    /// Delay between consecutive allocation rewrites.
    pub rebalance_every: Duration,
    /// Bounded-channel capacity. Deliberately small so the flood
    /// saturates every stage and the suspension path carries real load —
    /// the peak queue depth the run reports is capped here by the hard
    /// bound.
    pub channel_capacity: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            seed: 2015,
            frames: 600_000,
            rebalance_every: Duration::from_millis(3),
            channel_capacity: 128,
        }
    }
}

impl SoakConfig {
    /// The short CI variant: same shape and churn cadence, fewer frames.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            frames: 40_000,
            ..Self::default()
        }
    }
}

/// Everything one soak run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakRun {
    /// Wall-clock seconds from start until the last tuple tree acked.
    pub wall_secs: f64,
    /// Tuples executed across all bolts.
    pub tuples: u64,
    /// Allocation rewrites applied while the flood was live.
    pub rebalances: u64,
    /// Worst measured rebalance pause (shrink quiesce) across the run.
    pub worst_pause: Duration,
    /// Largest live worker count observed (the adaptive pool's high-water
    /// mark).
    pub peak_workers: usize,
    /// Median ingress→ack latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile ingress→ack latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile ingress→ack latency, milliseconds.
    pub p99_ms: f64,
    /// Largest input-queue depth observed on any `(operator, machine)`
    /// slot; never exceeds the configured channel capacity.
    pub max_queue_depth: u64,
    /// Executor-task suspensions taken on full downstream channels.
    pub suspensions: u64,
}

impl SoakRun {
    /// Tuples executed per wall-clock second over the whole soak.
    pub fn tuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.wall_secs
    }
}

/// Allocation rotation the control plane churns through: grows, shrinks
/// and reshapes across a wide weight range, spout weight pinned at 1.
const ALLOCATIONS: [[u32; 4]; 6] = [
    [1, 8, 2, 1],
    [1, 2, 4, 1],
    [1, 4, 2, 1],
    [1, 6, 1, 2],
    [1, 1, 1, 1],
    [1, 4, 4, 2],
];

/// A spout adapter stripping inter-emission waits, so the pipeline runs
/// throughput-bound rather than arrival-paced; overrides the batch hook so
/// the engine ships full spout batches through one channel send per edge.
struct Unthrottled<S>(S);

impl<S: Spout> Spout for Unthrottled<S> {
    fn next(&mut self) -> Option<SpoutEmission> {
        self.0.next().map(|e| SpoutEmission {
            wait: Duration::ZERO,
            ..e
        })
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<drs_runtime::Tuple>) -> Option<Duration> {
        for _ in 0..max {
            let Some(emission) = self.0.next() else {
                return (!out.is_empty()).then_some(Duration::ZERO);
            };
            out.push(emission.tuple);
        }
        Some(Duration::ZERO)
    }
}

/// Runs the soak: flood the VLD pipeline at saturation, rewrite the
/// allocation every [`SoakConfig::rebalance_every`] until the stream
/// drains, then read the latency histogram and the suspension/depth
/// counters off the engine.
///
/// # Panics
///
/// Panics when the flood fails to drain within a generous deadline — on
/// any machine fast enough for a meaningful measurement it finishes far
/// earlier, so a hang here is a runtime bug, not runner noise.
pub fn run_soak(config: &SoakConfig) -> SoakRun {
    let topo = VldProfile::paper().topology();
    let ids: Vec<_> = topo.operators().iter().map(|o| o.id()).collect();
    let seed = config.seed;
    let start = Instant::now();
    let mut engine = RuntimeBuilder::new(topo)
        .spout(
            ids[0],
            Box::new(Unthrottled(FrameSpout::new(
                1.0e6,
                seed,
                Some(config.frames),
            ))),
        )
        .bolt(ids[1], ExtractBolt::new)
        .bolt(ids[2], move || MatchBolt::new(24, 0.35, seed))
        .bolt(ids[3], || AggregateBolt::new(3))
        .allocation(ALLOCATIONS[2].to_vec())
        .channel_capacity(config.channel_capacity)
        .start()
        .expect("valid runtime");

    let mut rebalances = 0u64;
    let mut worst_pause = Duration::ZERO;
    let mut peak_workers = 0usize;
    let churn_deadline = start + Duration::from_secs(300);
    while !(engine.spouts_finished() && engine.open_trees() == 0) && Instant::now() < churn_deadline
    {
        let next = ALLOCATIONS[rebalances as usize % ALLOCATIONS.len()];
        let pause = engine.rebalance(next.to_vec()).expect("valid allocation");
        worst_pause = worst_pause.max(pause);
        rebalances += 1;
        peak_workers = peak_workers.max(engine.workers());
        std::thread::sleep(config.rebalance_every);
    }
    assert!(
        engine.wait_until_drained(Duration::from_secs(120)),
        "soak failed to drain {} frames: {} trees still open",
        config.frames,
        engine.open_trees()
    );
    let wall_secs = start.elapsed().as_secs_f64();

    let quantile_ms = |q: f64| {
        engine
            .sojourn_quantile(q)
            .expect("drained soak has completed trees")
            * 1e3
    };
    let p50_ms = quantile_ms(0.50);
    let p95_ms = quantile_ms(0.95);
    let p99_ms = quantile_ms(0.99);
    let max_queue_depth = engine
        .peak_queue_depths()
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0);
    let suspensions = engine.suspensions().into_iter().flatten().sum();
    let snap = engine.shutdown(Duration::from_secs(1));
    let tuples: u64 = snap.operators.iter().map(|o| o.completions).sum();

    SoakRun {
        wall_secs,
        tuples,
        rebalances,
        worst_pause,
        peak_workers,
        p50_ms,
        p95_ms,
        p99_ms,
        max_queue_depth,
        suspensions,
    }
}

/// Renders the soak result as ASCII tables.
pub fn render_soak(config: &SoakConfig, run: &SoakRun) -> String {
    let mut out = render_table(
        &format!(
            "Soak: vld_live flood, {} frames, rebalance every {:?}, capacity {}",
            config.frames, config.rebalance_every, config.channel_capacity
        ),
        &[
            "wall (s)",
            "tuples",
            "tuples/sec",
            "rebalances",
            "worst pause (µs)",
            "peak workers",
        ],
        &[vec![
            format!("{:.2}", run.wall_secs),
            run.tuples.to_string(),
            format!("{:.0}", run.tuples_per_sec()),
            run.rebalances.to_string(),
            format!("{:.1}", run.worst_pause.as_secs_f64() * 1e6),
            run.peak_workers.to_string(),
        ]],
    );
    out.push_str(&render_table(
        "Soak latency (ingress → ack) and backpressure under churn",
        &[
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "max queue depth",
            "suspensions",
        ],
        &[vec![
            format!("{:.3}", run.p50_ms),
            format!("{:.3}", run.p95_ms),
            format!("{:.3}", run.p99_ms),
            run.max_queue_depth.to_string(),
            run.suspensions.to_string(),
        ]],
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_reports_coherent_metrics() {
        // A miniature soak: the hard bound must hold on the reported peak,
        // the percentiles must be ordered, and churn must actually happen.
        let config = SoakConfig {
            seed: 7,
            frames: 2_000,
            rebalance_every: Duration::from_millis(1),
            channel_capacity: 32,
        };
        let run = run_soak(&config);
        assert!(run.tuples > 0);
        assert!(
            run.max_queue_depth <= config.channel_capacity as u64,
            "peak {} exceeds the hard bound {}",
            run.max_queue_depth,
            config.channel_capacity
        );
        assert!(run.p50_ms <= run.p95_ms && run.p95_ms <= run.p99_ms);
        assert!(run.p50_ms > 0.0);
        assert!(run.peak_workers >= 1);
        let rendered = render_soak(&config, &run);
        assert!(rendered.contains("p99 (ms)"));
        assert!(rendered.contains("suspensions"));
    }
}
