//! Live metrics registry shared by all executor threads.
//!
//! This is the runtime analogue of the paper's `DRSMetricCollector`: each
//! executor updates lock-free counters while processing; the DRS layer pulls
//! a consistent [`MetricsSnapshot`] every measurement interval.

use drs_queueing::stats::RunningStats;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-operator atomic counters.
#[derive(Debug, Default)]
pub(crate) struct OperatorCounters {
    /// Tuples delivered to the operator's input channel.
    pub arrivals: AtomicU64,
    /// Tuples whose execution finished.
    pub completions: AtomicU64,
    /// Nanoseconds executors spent inside `execute`.
    pub busy_nanos: AtomicU64,
}

/// Per-operator input-channel counters.
#[derive(Debug, Default)]
struct QueueCounters {
    /// Executor tasks that suspended on the operator's full input channel.
    suspensions: AtomicU64,
    /// Highest queue depth observed on the operator's input channel.
    peak_depth: AtomicU64,
}

/// A point-in-time copy of all metrics, with rates derived over the window
/// since the previous snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Wall-clock length of the window (seconds).
    pub window_secs: f64,
    /// Per-operator windows, indexed by operator id.
    pub operators: Vec<OperatorMetrics>,
    /// External (root) tuples emitted by spouts during the window.
    pub external_arrivals: u64,
    /// Sojourn statistics (seconds) of root tuples fully processed during
    /// the window.
    pub sojourn: RunningStats,
}

/// One operator's measurements for a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorMetrics {
    /// Tuples that arrived during the window.
    pub arrivals: u64,
    /// Executions completed during the window.
    pub completions: u64,
    /// Executor-seconds spent executing.
    pub busy_secs: f64,
}

impl OperatorMetrics {
    /// Measured arrival rate `λ̂` (tuples/second) over the window.
    pub fn arrival_rate(&self, window_secs: f64) -> Option<f64> {
        (window_secs > 0.0).then(|| self.arrivals as f64 / window_secs)
    }

    /// Measured per-executor service rate `µ̂` (completions per busy
    /// second).
    pub fn service_rate(&self) -> Option<f64> {
        (self.busy_secs > 0.0).then(|| self.completions as f64 / self.busy_secs)
    }
}

/// HDR-style end-to-end latency histogram: power-of-two exponent buckets
/// each split into [`SUBBUCKETS`] linear sub-buckets, covering 1 ns up to
/// 2⁶³ ns with a bounded (≈ 1/16) relative error per bucket. Recording is
/// one atomic add; percentile queries walk the bucket array.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    max_nanos: AtomicU64,
}

/// Linear sub-buckets per power-of-two range (16 → ~6% worst-case bucket
/// width).
const SUBBUCKETS: usize = 16;
const SUB_BITS: u32 = 4; // log2(SUBBUCKETS)
const HIST_BUCKETS: usize = (64 - SUB_BITS as usize) * SUBBUCKETS + SUBBUCKETS;

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    fn index_of(nanos: u64) -> usize {
        let n = nanos.max(1);
        if n < SUBBUCKETS as u64 {
            return n as usize;
        }
        let exp = 63 - n.leading_zeros();
        let sub = ((n >> (exp - SUB_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
        (exp - SUB_BITS + 1) as usize * SUBBUCKETS + sub
    }

    /// Lower bound (nanoseconds) of the values mapping to bucket `idx` —
    /// the value a percentile query reports.
    fn value_of(idx: usize) -> u64 {
        if idx < SUBBUCKETS {
            return idx as u64;
        }
        let exp = (idx / SUBBUCKETS) as u32 + SUB_BITS - 1;
        let sub = (idx % SUBBUCKETS) as u64;
        (SUBBUCKETS as u64 + sub) << (exp - SUB_BITS)
    }

    fn record(&self, nanos: u64) {
        self.buckets[Self::index_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// The value (nanoseconds) at quantile `q` (0..=1), or `None` while
    /// empty. Reports the lower bound of the matching bucket, clipped to
    /// the exact observed maximum for the tail.
    fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let max = self.max_nanos.load(Ordering::Relaxed);
                return Some(Self::value_of(idx).min(max));
            }
        }
        Some(self.max_nanos.load(Ordering::Relaxed))
    }
}

/// The shared registry. Cheap to clone behind an `Arc`; executors touch only
/// atomics on the hot path.
#[derive(Debug)]
pub struct MetricsRegistry {
    operators: Vec<OperatorCounters>,
    /// One entry per operator, same indexing as `operators`.
    queues: Vec<QueueCounters>,
    external: AtomicU64,
    sojourn: Mutex<RunningStats>,
    latency: LatencyHistogram,
    window_started: Mutex<Instant>,
    // Snapshot baselines (counters are cumulative; windows are deltas).
    baseline: Mutex<Baseline>,
}

#[derive(Debug, Clone, Default)]
struct Baseline {
    arrivals: Vec<u64>,
    completions: Vec<u64>,
    busy_nanos: Vec<u64>,
    external: u64,
}

impl MetricsRegistry {
    /// Creates a registry for `n_operators` operators.
    pub(crate) fn new(n_operators: usize) -> Self {
        MetricsRegistry {
            operators: (0..n_operators)
                .map(|_| OperatorCounters::default())
                .collect(),
            queues: (0..n_operators).map(|_| QueueCounters::default()).collect(),
            external: AtomicU64::new(0),
            sojourn: Mutex::new(RunningStats::new()),
            latency: LatencyHistogram::new(),
            window_started: Mutex::new(Instant::now()),
            baseline: Mutex::new(Baseline {
                arrivals: vec![0; n_operators],
                completions: vec![0; n_operators],
                busy_nanos: vec![0; n_operators],
                external: 0,
            }),
        }
    }

    /// Records `n` arrivals in one atomic add (the fan-out batch path).
    pub(crate) fn record_arrivals(&self, op: usize, n: u64) {
        self.operators[op].arrivals.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_completion(&self, op: usize, busy_nanos: u64) {
        self.operators[op]
            .completions
            .fetch_add(1, Ordering::Relaxed);
        self.operators[op]
            .busy_nanos
            .fetch_add(busy_nanos, Ordering::Relaxed);
    }

    /// Records `n` root emissions in one atomic add (the batched spout
    /// path).
    pub(crate) fn record_externals(&self, n: u64) {
        self.external.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_sojourn(&self, secs: f64) {
        self.sojourn.lock().record(secs);
        self.latency.record((secs * 1e9) as u64);
    }

    /// Records one executor-task suspension on operator `op`'s full input
    /// channel.
    pub(crate) fn record_suspension(&self, op: usize) {
        self.queues[op].suspensions.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds an observed depth of operator `op`'s input channel into its
    /// running maximum.
    pub(crate) fn record_queue_depth(&self, op: usize, depth: u64) {
        self.queues[op]
            .peak_depth
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Cumulative suspension counts, one row per operator and one entry
    /// per input channel (always one) — a suspension is an executor task
    /// parking itself on a full downstream channel (backpressure working
    /// as designed; sustained growth flags a hot operator).
    pub(crate) fn suspensions(&self) -> Vec<Vec<u64>> {
        self.per_queue(|q| q.suspensions.load(Ordering::Relaxed))
    }

    /// Peak observed input-queue depths, one row per operator and one
    /// entry per input channel (always one). Never exceeds the configured
    /// channel capacity — the bound is hard.
    pub(crate) fn peak_queue_depths(&self) -> Vec<Vec<u64>> {
        self.per_queue(|q| q.peak_depth.load(Ordering::Relaxed))
    }

    fn per_queue(&self, read: impl Fn(&QueueCounters) -> u64) -> Vec<Vec<u64>> {
        self.queues.iter().map(|q| vec![read(q)]).collect()
    }

    /// The end-to-end (root emission → tree fully acked) latency at
    /// quantile `q`, in seconds, over every tuple tree completed since the
    /// registry was created. `None` until the first tree completes.
    pub(crate) fn sojourn_quantile(&self, q: f64) -> Option<f64> {
        self.latency.quantile(q).map(|nanos| nanos as f64 / 1e9)
    }

    /// Takes a windowed snapshot: rates cover the interval since the last
    /// snapshot (or registry creation) and the window is reset.
    pub(crate) fn take_snapshot(&self) -> MetricsSnapshot {
        let mut started = self.window_started.lock();
        let window_secs = started.elapsed().as_secs_f64();
        *started = Instant::now();
        drop(started);

        let mut baseline = self.baseline.lock();
        let mut operators = Vec::with_capacity(self.operators.len());
        for (i, c) in self.operators.iter().enumerate() {
            let arrivals = c.arrivals.load(Ordering::Relaxed);
            let completions = c.completions.load(Ordering::Relaxed);
            let busy = c.busy_nanos.load(Ordering::Relaxed);
            operators.push(OperatorMetrics {
                arrivals: arrivals - baseline.arrivals[i],
                completions: completions - baseline.completions[i],
                busy_secs: (busy - baseline.busy_nanos[i]) as f64 / 1e9,
            });
            baseline.arrivals[i] = arrivals;
            baseline.completions[i] = completions;
            baseline.busy_nanos[i] = busy;
        }
        let external_total = self.external.load(Ordering::Relaxed);
        let external_arrivals = external_total - baseline.external;
        baseline.external = external_total;
        drop(baseline);

        let sojourn = std::mem::replace(&mut *self.sojourn.lock(), RunningStats::new());
        MetricsSnapshot {
            window_secs,
            operators,
            external_arrivals,
            sojourn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_window_resets() {
        let m = MetricsRegistry::new(2);
        m.record_arrivals(0, 2);
        m.record_arrivals(1, 1);
        m.record_completion(0, 1_000_000); // 1 ms
        m.record_externals(1);
        m.record_sojourn(0.25);
        m.record_suspension(1);
        m.record_suspension(1);
        m.record_queue_depth(1, 7);
        m.record_queue_depth(1, 4); // lower sample must not regress the peak

        let snap = m.take_snapshot();
        assert_eq!(snap.operators[0].arrivals, 2);
        assert_eq!(snap.operators[1].arrivals, 1);
        assert_eq!(snap.operators[0].completions, 1);
        assert!((snap.operators[0].busy_secs - 0.001).abs() < 1e-9);
        assert_eq!(snap.external_arrivals, 1);
        assert_eq!(snap.sojourn.count(), 1);

        // The next window starts empty.
        let snap2 = m.take_snapshot();
        assert_eq!(snap2.operators[0].arrivals, 0);
        assert_eq!(snap2.external_arrivals, 0);
        assert_eq!(snap2.sojourn.count(), 0);
        // Queue counters are cumulative: snapshots never reset them.
        assert_eq!(m.suspensions(), vec![vec![0], vec![2]]);
        assert_eq!(m.peak_queue_depths(), vec![vec![0], vec![7]]);
    }

    #[test]
    fn operator_metrics_rates() {
        let om = OperatorMetrics {
            arrivals: 100,
            completions: 80,
            busy_secs: 4.0,
        };
        assert_eq!(om.arrival_rate(10.0), Some(10.0));
        assert_eq!(om.service_rate(), Some(20.0));
        assert_eq!(om.arrival_rate(0.0), None);
        let idle = OperatorMetrics {
            arrivals: 0,
            completions: 0,
            busy_secs: 0.0,
        };
        assert_eq!(idle.service_rate(), None);
    }

    #[test]
    fn latency_histogram_brackets_quantiles() {
        let m = MetricsRegistry::new(1);
        assert_eq!(m.sojourn_quantile(0.5), None);
        for _ in 0..98 {
            m.record_sojourn(0.001); // 1 ms
        }
        m.record_sojourn(0.100); // two slow outliers
        m.record_sojourn(0.100);
        let p50 = m.sojourn_quantile(0.50).unwrap();
        let p99 = m.sojourn_quantile(0.99).unwrap();
        let p100 = m.sojourn_quantile(1.0).unwrap();
        // Bucketed values are lower bounds with ≤ 1/16 relative error.
        assert!((0.0009..=0.001).contains(&p50), "p50 = {p50}");
        assert!((0.09..=0.1).contains(&p99), "p99 = {p99}");
        assert!((0.09..=0.1).contains(&p100), "p100 = {p100}");
        assert!(p50 < p99);
    }

    #[test]
    fn latency_histogram_buckets_are_monotone() {
        use super::LatencyHistogram;
        let mut last = 0;
        for n in [1u64, 15, 16, 17, 255, 256, 1 << 20, (1 << 40) + 12345] {
            let idx = LatencyHistogram::index_of(n);
            assert!(idx >= last, "indices must be monotone in the value");
            last = idx;
            let lower = LatencyHistogram::value_of(idx);
            assert!(lower <= n, "bucket lower bound must not exceed the value");
            // Relative bucket error is bounded by one sub-bucket width.
            assert!((n - lower) as f64 <= (n as f64 / 16.0).max(1.0));
        }
    }

    #[test]
    fn concurrent_updates_are_counted() {
        use std::sync::Arc;
        let m = Arc::new(MetricsRegistry::new(1));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record_arrivals(0, 1);
                        m.record_completion(0, 10);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = m.take_snapshot();
        assert_eq!(snap.operators[0].arrivals, 4000);
        assert_eq!(snap.operators[0].completions, 4000);
    }
}
