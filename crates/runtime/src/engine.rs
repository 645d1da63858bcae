//! The execution engine: a miniature Storm on a work-stealing pool.
//!
//! Logical executors are decoupled from OS threads. A fixed pool of
//! workers (`crate::pool`) runs every bolt executor as a lightweight
//! task; an operator's allocation `k_i` is a *weight* bounding how many of
//! its executor tasks may be in flight at once, not a thread count
//! (`crate::executor::OpSlot`). Spouts keep their own threads (they pace
//! real time between emissions) and emit *batches* of root tuples per call
//! through one batched channel send per downstream edge. Tuple trees are
//! tracked acker-style — the engine measures the *complete sojourn time*
//! of every root tuple exactly as the paper defines it.
//!
//! # Re-balancing
//!
//! [`RuntimeEngine::rebalance`] is a control-plane write, not a thread
//! lifecycle operation: growing operators get their weight raised (plus
//! freshly built bolt instances) in O(1), and only *shrinking* operators
//! are quiesced — each excess in-flight task observes the lowered weight
//! at its next envelope boundary and retires. The measured pause is
//! therefore bounded by one envelope's service time on the shrinking
//! operators instead of the thread join/spawn latency the previous
//! thread-per-executor engine paid for every executor on every rebalance.
//! Queues are never touched: envelopes survive any weight change intact.
//!
//! # Allocation-free data path
//!
//! The per-envelope cost bounds the traffic any topology can absorb, so the
//! steady-state path performs no heap allocation per tuple:
//!
//! * **payloads are `Arc<Tuple>`**: a fan-out send is a reference-count bump
//!   per downstream edge, not a deep [`Tuple`] clone (a frame's byte buffer
//!   is shared by every consumer);
//! * **ack state lives in a slab**: tuple trees occupy recycled slots of
//!   pre-allocated ack segments managed by a free list — no per-root
//!   allocation and no locked map in the ack path; completing a tuple is
//!   one atomic decrement;
//! * **channels are bounded rings**: envelopes travel through the
//!   runtime's own channels (`crate::channel`, one per operator, owned by
//!   the pool), whose ring buffers are reused across messages. The capacity
//!   is a *hard* invariant (`len ≤ cap`, always):
//!   an executor task hitting a full downstream channel suspends itself
//!   into the channel's wait list and is woken by the consumer's drain
//!   (see `crate::pool`), so a finite worker set never parks an OS thread
//!   on — nor overruns — its own downstream channels;
//! * **out-edges are compiled CSR**: downstream targets come from the same
//!   [`drs_topology::CsrOutEdges`] layout the simulator's emit path walks;
//! * **buffers are reused**: each worker keeps one emission collector, one
//!   `Arc` outbox and one batched inbox across slices; each spout thread
//!   keeps its batch buffers across calls.
//!
//! `bash benchmark/run.sh --workload live_flood` measures end-to-end
//! throughput on the live VLD pipeline (`work_per_s`,
//! `runtime.tuples_per_s_w1`, `runtime.scaling_w1_w2`) and the rebalance
//! pause (`runtime.rebalance_pause_us`), the `BENCHMARK.json` metrics that
//! carry these numbers.

use crate::executor::{AckRef, BoltMaker, DataPath, Envelope, OpSlot};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::operator::{Bolt, Spout};
use crate::pool::{PoolShared, WorkerPool};
use crate::tuple::Tuple;
use drs_topology::{CsrOutEdges, OperatorId, OperatorKind, Topology};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Error from building or controlling a [`RuntimeEngine`].
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A spout implementation is missing for a spout operator.
    MissingSpout {
        /// Operator name.
        operator: String,
    },
    /// A bolt factory is missing for a bolt operator.
    MissingBolt {
        /// Operator name.
        operator: String,
    },
    /// The allocation vector had the wrong length.
    AllocationLength {
        /// Expected number of operators.
        expected: usize,
        /// Supplied length.
        actual: usize,
    },
    /// A bolt was allocated zero executors.
    ZeroAllocation {
        /// Operator name.
        operator: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::MissingSpout { operator } => {
                write!(f, "no spout implementation for {operator}")
            }
            RuntimeError::MissingBolt { operator } => {
                write!(f, "no bolt factory for {operator}")
            }
            RuntimeError::AllocationLength { expected, actual } => {
                write!(f, "allocation length {actual}, expected {expected}")
            }
            RuntimeError::ZeroAllocation { operator } => {
                write!(f, "bolt {operator} allocated zero executors")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Maximum root tuples a spout thread emits per [`Spout::next_batch`] call.
const SPOUT_BATCH: usize = 64;

/// Builder for [`RuntimeEngine`].
///
/// # Examples
///
/// ```no_run
/// use drs_runtime::engine::RuntimeBuilder;
/// use drs_runtime::operator::{Bolt, Collector, Spout, SpoutEmission};
/// use drs_runtime::tuple::Tuple;
/// use drs_topology::TopologyBuilder;
/// use std::time::Duration;
///
/// struct Ticker;
/// impl Spout for Ticker {
///     fn next(&mut self) -> Option<SpoutEmission> {
///         Some(SpoutEmission { tuple: Tuple::of(1i64), wait: Duration::from_millis(10) })
///     }
/// }
/// struct Sink;
/// impl Bolt for Sink {
///     fn execute(&mut self, _t: &Tuple, _c: &mut dyn Collector) {}
/// }
///
/// let mut b = TopologyBuilder::new();
/// let src = b.spout("src");
/// let sink = b.bolt("sink");
/// b.edge(src, sink).unwrap();
/// let topo = b.build().unwrap();
///
/// let engine = RuntimeBuilder::new(topo)
///     .spout(src, Box::new(Ticker))
///     .bolt(sink, || Sink)
///     .allocation(vec![1, 2])   // k_i: task weights, not thread counts
///     .workers(2)               // OS threads actually running executors
///     .start()
///     .unwrap();
/// std::thread::sleep(Duration::from_millis(100));
/// let snapshot = engine.metrics_snapshot();
/// engine.shutdown(Duration::from_secs(1));
/// ```
pub struct RuntimeBuilder {
    topology: Topology,
    spouts: Vec<Option<Box<dyn Spout>>>,
    bolts: Vec<Option<BoltMaker>>,
    allocation: Option<Vec<u32>>,
    channel_capacity: usize,
    workers: Option<usize>,
}

impl RuntimeBuilder {
    /// Default per-operator channel capacity (envelopes).
    pub const DEFAULT_CHANNEL_CAPACITY: usize = 64 * 1024;

    /// Floor on the default worker *cap*. Bolts are allowed to block
    /// (sleep-paced service is how the integration tests model real work),
    /// and a pool capped purely at the CPU count would serialise blocking
    /// executors that the thread-per-executor engine ran concurrently; a
    /// modest oversubscription floor preserves that behaviour on small
    /// hosts while still decoupling `k_i` from the thread count. The
    /// adaptive pool only grows to the cap while runnable tasks outnumber
    /// its live workers.
    pub const DEFAULT_WORKER_CAP: usize = 8;

    /// Starts a builder for the given topology.
    pub fn new(topology: Topology) -> Self {
        let n = topology.len();
        RuntimeBuilder {
            topology,
            spouts: (0..n).map(|_| None).collect(),
            bolts: (0..n).map(|_| None).collect(),
            allocation: None,
            channel_capacity: Self::DEFAULT_CHANNEL_CAPACITY,
            workers: None,
        }
    }

    /// Registers the spout implementation for a spout operator.
    #[must_use]
    pub fn spout(mut self, id: OperatorId, spout: Box<dyn Spout>) -> Self {
        self.spouts[id.index()] = Some(spout);
        self
    }

    /// Registers the bolt factory for a bolt operator; the engine creates
    /// one instance per logical executor.
    #[must_use]
    pub fn bolt<F, B>(mut self, id: OperatorId, factory: F) -> Self
    where
        F: Fn() -> B + Send + Sync + 'static,
        B: Bolt + 'static,
    {
        self.bolts[id.index()] = Some(Arc::new(move || Box::new(factory()) as Box<dyn Bolt>));
        self
    }

    /// Sets the initial allocation (executor weights per operator id; spout
    /// entries ignored). Defaults to one executor per operator.
    #[must_use]
    pub fn allocation(mut self, allocation: Vec<u32>) -> Self {
        self.allocation = Some(allocation);
        self
    }

    /// Pins the number of pool worker threads to exactly `workers`. By
    /// default the pool is **adaptive** instead: it starts one worker and
    /// grows on demand — a task wakeup that finds every live worker busy
    /// spawns another — up to the host's available parallelism floored at
    /// [`Self::DEFAULT_WORKER_CAP`] (see there for why the floor exists);
    /// persistently idle workers retire back down to one. Executor weights
    /// may exceed the worker count freely — that is the point of the pool.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "worker count must be positive");
        self.workers = Some(workers);
        self
    }

    /// Sets the per-operator input channel capacity (envelopes). The
    /// capacity is a hard bound: a full channel blocks spout producers and
    /// suspends executor tasks (woken by the consumer's drain), so queues
    /// never grow past it — backpressure instead of unbounded memory
    /// growth, even under extreme fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be positive");
        self.channel_capacity = capacity;
        self
    }

    /// Validates the wiring and launches the pool and spout threads.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::MissingSpout`] / [`RuntimeError::MissingBolt`] — an
    ///   operator lacks its implementation.
    /// * [`RuntimeError::AllocationLength`] / [`RuntimeError::ZeroAllocation`]
    ///   — bad initial allocation.
    pub fn start(self) -> Result<RuntimeEngine, RuntimeError> {
        let n = self.topology.len();
        let allocation = self.allocation.unwrap_or_else(|| vec![1; n]);
        validate_allocation(&self.topology, &allocation)?;

        // Validate implementations before spawning anything.
        for op in self.topology.operators() {
            let i = op.id().index();
            match op.kind() {
                OperatorKind::Spout => {
                    if self.spouts[i].is_none() {
                        return Err(RuntimeError::MissingSpout {
                            operator: op.name().to_owned(),
                        });
                    }
                }
                OperatorKind::Bolt => {
                    if self.bolts[i].is_none() {
                        return Err(RuntimeError::MissingBolt {
                            operator: op.name().to_owned(),
                        });
                    }
                }
            }
        }

        // The pool builds one channel per operator; spout channels stay
        // unused.
        let path = DataPath {
            csr: Arc::new(CsrOutEdges::compile(&self.topology)),
            acks: Arc::new(crate::executor::AckTable::new()),
            metrics: Arc::new(MetricsRegistry::new(n)),
            open_trees: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            channel_capacity: self.channel_capacity,
        };
        let slots: Vec<OpSlot> = self
            .bolts
            .into_iter()
            .zip(&allocation)
            .map(|(maker, &k)| OpSlot::new(maker, k))
            .collect();

        // Fixed pool when `.workers(n)` was set (min == max == n);
        // adaptive band otherwise.
        let (min_workers, max_workers) = match self.workers {
            Some(n) => (n, n),
            None => {
                let cap = std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1)
                    .max(Self::DEFAULT_WORKER_CAP);
                (1, cap)
            }
        };
        let pool = WorkerPool::start(slots, path.clone(), min_workers, max_workers);

        let mut engine = RuntimeEngine {
            topology: self.topology,
            path,
            pool,
            allocation,
            spout_stop: Arc::new(AtomicBool::new(false)),
            spout_threads: Vec::new(),
        };
        engine.spawn_spouts(self.spouts);
        Ok(engine)
    }
}

fn validate_allocation(topology: &Topology, allocation: &[u32]) -> Result<(), RuntimeError> {
    if allocation.len() != topology.len() {
        return Err(RuntimeError::AllocationLength {
            expected: topology.len(),
            actual: allocation.len(),
        });
    }
    for op in topology.operators() {
        if op.kind() == OperatorKind::Bolt && allocation[op.id().index()] == 0 {
            return Err(RuntimeError::ZeroAllocation {
                operator: op.name().to_owned(),
            });
        }
    }
    Ok(())
}

/// A running topology. Create via [`RuntimeBuilder::start`]; stop with
/// [`RuntimeEngine::shutdown`].
pub struct RuntimeEngine {
    topology: Topology,
    pub(crate) path: DataPath,
    pool: WorkerPool,
    allocation: Vec<u32>,
    spout_stop: Arc<AtomicBool>,
    spout_threads: Vec<JoinHandle<()>>,
}

impl fmt::Debug for RuntimeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeEngine")
            .field("topology", &self.topology.names())
            .field("allocation", &self.allocation)
            .field("workers", &self.pool.workers())
            .field("open_trees", &self.path.open_trees.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl RuntimeEngine {
    /// The running topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The current allocation (executor weights per operator id).
    pub fn allocation(&self) -> &[u32] {
        &self.allocation
    }

    /// Number of pool worker threads actually running executors.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Number of root tuples not yet fully processed.
    pub fn open_trees(&self) -> u64 {
        self.path.open_trees.load(Ordering::Acquire)
    }

    /// Whether every spout has exhausted its stream (finite spouts only;
    /// infinite spouts keep this `false` until shutdown).
    pub fn spouts_finished(&self) -> bool {
        self.spout_threads.iter().all(JoinHandle::is_finished)
    }

    /// Blocks until all spouts are exhausted and every in-flight tuple tree
    /// has completed, or until `timeout` elapses. Returns `true` when fully
    /// drained. Useful for finite workloads in tests and batch replays.
    pub fn wait_until_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.spouts_finished() && self.open_trees() == 0 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.spouts_finished() && self.open_trees() == 0
    }

    /// Takes a windowed metrics snapshot (rates since the previous
    /// snapshot).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.path.metrics.take_snapshot()
    }

    /// Cumulative task-suspension counts, one row per operator and one
    /// entry per input channel (always one): `suspensions()[op][0]` is how
    /// many times an executor task parked on that operator's full input
    /// channel. Never reset by
    /// [`RuntimeEngine::metrics_snapshot`]. Suspensions are the healthy
    /// backpressure signal replacing the old soft-overrun counter —
    /// capacity is a hard invariant now, so queues saturate and senders
    /// yield instead of overrunning.
    pub fn suspensions(&self) -> Vec<Vec<u64>> {
        self.path.metrics.suspensions()
    }

    /// Peak observed input-queue depth, one row per operator and one entry
    /// per input channel (always one). Sampled
    /// on every batch pull and on every suspension, so a saturated channel
    /// reports its full capacity. Bounded by
    /// [`RuntimeEngine::channel_capacity`] — the hard invariant.
    pub fn peak_queue_depths(&self) -> Vec<Vec<u64>> {
        self.path.metrics.peak_queue_depths()
    }

    /// Live input-queue depth per operator, indexed by operator id. Every
    /// entry is ≤
    /// [`RuntimeEngine::channel_capacity`] at any instant.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.pool
            .shared()
            .channels
            .iter()
            .map(|channel| channel.len())
            .collect()
    }

    /// The per-channel capacity (the hard queue bound).
    pub fn channel_capacity(&self) -> usize {
        self.path.channel_capacity
    }

    /// A quantile (`0.0 ..= 1.0`) of the cumulative end-to-end sojourn
    /// distribution, in seconds; `None` before the first completed tree.
    pub fn sojourn_quantile(&self, q: f64) -> Option<f64> {
        self.path.metrics.sojourn_quantile(q)
    }

    /// Re-balances to a new allocation: each operator's executor weight is
    /// rewritten atomically; growing operators gain pre-built bolt
    /// instances and are nudged immediately, and only *shrinking*
    /// operators are quiesced — their excess in-flight tasks retire at the
    /// next envelope boundary. Queues are untouched. Returns the measured
    /// pause duration (the quiesce wait; near zero for pure grows).
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::AllocationLength`] / [`RuntimeError::ZeroAllocation`]
    ///   — bad target allocation.
    pub fn rebalance(&mut self, allocation: Vec<u32>) -> Result<Duration, RuntimeError> {
        validate_allocation(&self.topology, &allocation)?;
        let pause = self.apply_weights(&allocation);
        self.allocation = allocation;
        Ok(pause)
    }

    /// Rewrites every bolt's weight to `allocation`: grows raise the weight
    /// (instances are built first) and nudge any backlog, shrinks lower it
    /// and are quiesced. Returns the measured pause.
    fn apply_weights(&self, allocation: &[u32]) -> Duration {
        let start = Instant::now();
        let shared = self.pool.shared();
        let mut shrinking = Vec::new();
        for (op, &new) in allocation.iter().enumerate() {
            let state = &shared.slots[op];
            if !state.is_executable() {
                continue;
            }
            let old = state.weight.load(Ordering::Acquire);
            match new.cmp(&old) {
                std::cmp::Ordering::Greater => {
                    state.grow_to(new);
                    if !shared.channels[op].is_empty() {
                        shared.nudge(op, None);
                    }
                }
                std::cmp::Ordering::Less => {
                    state.shrink_to(new);
                    shrinking.push(op);
                }
                std::cmp::Ordering::Equal => {}
            }
        }
        // Quiesce only the shrinking operators: the pause ends when none
        // runs more executor tasks than its new weight.
        for &op in &shrinking {
            let state = &shared.slots[op];
            while state.scheduled.load(Ordering::Acquire) > state.weight.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        start.elapsed()
    }

    /// Stops the spouts, waits up to `drain` for in-flight tuple trees to
    /// complete, stops the worker pool, and returns the final metrics
    /// window.
    pub fn shutdown(mut self, drain: Duration) -> MetricsSnapshot {
        self.spout_stop.store(true, Ordering::Release);
        for t in self.spout_threads.drain(..) {
            let _ = t.join();
        }
        let deadline = Instant::now() + drain;
        while self.open_trees() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.pool.shutdown();
        self.path.metrics.take_snapshot()
    }

    fn spawn_spouts(&mut self, spouts: Vec<Option<Box<dyn Spout>>>) {
        for (i, spout) in spouts.into_iter().enumerate() {
            let Some(mut spout) = spout else { continue };
            let stop = Arc::clone(&self.spout_stop);
            let path = self.path.clone();
            let shared = Arc::clone(self.pool.shared());
            let handle = std::thread::Builder::new()
                .name(format!("spout-{i}"))
                .spawn(move || {
                    let mut buf: Vec<Tuple> = Vec::new();
                    let mut arcs: Vec<Arc<Tuple>> = Vec::new();
                    let mut ack_refs: Vec<AckRef> = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        buf.clear();
                        let wait = spout.next_batch(SPOUT_BATCH, &mut buf);
                        if !buf.is_empty() {
                            emit_roots(
                                i,
                                &mut buf,
                                &mut arcs,
                                &mut ack_refs,
                                &path,
                                &shared,
                                &stop,
                            );
                        }
                        match wait {
                            Some(w) if !w.is_zero() => std::thread::sleep(w),
                            Some(_) => {}
                            None => break,
                        }
                    }
                })
                .expect("spawn spout thread");
            self.spout_threads.push(handle);
        }
    }
}

/// Emits one spout batch: every tuple becomes its own root tree (one ack
/// slot each), but the batch travels through batched sends per downstream
/// edge — one channel lock and at most one consumer wakeup per edge per
/// chunk, instead of per root. Sends are stop-aware so shutdown cannot
/// park the spout on a full channel forever; a send aborted mid-chunk
/// errors with its unsent count, and the corresponding pending counts are
/// reconciled so the trees still complete.
///
/// Chunks are capped at the channel capacity, with a consumer nudge after
/// every chunk. This is a liveness requirement, not a tuning knob: a
/// single batched send larger than the capacity of an *idle* operator's
/// channel would fill it and park the spout before the first nudge ever
/// spawns a consumer task — nobody would drain the channel and the
/// pipeline would stall. A chunk ≤ capacity starting from an empty channel
/// can never park, and once a chunk's nudge has run, a consumer cannot
/// retire while envelopes remain (its post-decrement re-check takes the
/// same channel lock the sender holds), so every later park has a live
/// consumer to unpark it.
fn emit_roots(
    op: usize,
    buf: &mut Vec<Tuple>,
    arcs: &mut Vec<Arc<Tuple>>,
    ack_refs: &mut Vec<AckRef>,
    path: &DataPath,
    shared: &PoolShared,
    stop: &AtomicBool,
) {
    let targets = path.csr.targets_of(op);
    let n = buf.len() as u64;
    path.metrics.record_externals(n);
    path.open_trees.fetch_add(n, Ordering::AcqRel);
    if targets.is_empty() {
        // Trivially complete; no ack slots needed.
        for _ in 0..n {
            path.metrics.record_sojourn(0.0);
        }
        path.open_trees.fetch_sub(n, Ordering::AcqRel);
        buf.clear();
        return;
    }
    arcs.clear();
    ack_refs.clear();
    for tuple in buf.drain(..) {
        arcs.push(Arc::new(tuple));
        ack_refs.push(path.acks.acquire(targets.len() as u64));
    }
    let chunk = path.channel_capacity.max(1);
    for &t in targets {
        path.metrics.record_arrivals(t as usize, arcs.len() as u64);
        let mut start = 0;
        while start < arcs.len() {
            let end = (start + chunk).min(arcs.len());
            let batch = arcs[start..end]
                .iter()
                .zip(ack_refs[start..end].iter())
                .map(|(tuple, ack)| Envelope {
                    tuple: Arc::clone(tuple),
                    ack: ack.clone(),
                });
            if let Err(unsent) = shared.channels[t as usize].send_abortable(batch, stop) {
                // Stop raised while full (engine tearing down): this edge
                // carries none of the batch's remaining roots — the last
                // `unsent` of this chunk *and* every root of the chunks
                // after it, which the `break` below never sends.
                // `ack_refs[end - unsent..]` cancels each of them once for
                // this edge, which is what keeps the ledger balanced.
                for ack in ack_refs[end - unsent..].iter() {
                    path.acks.cancel(ack, 1, &path.metrics, &path.open_trees);
                }
                break;
            }
            shared.nudge(t as usize, None);
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ACK_SEGMENT;
    use crate::operator::{Collector, SpoutEmission};
    use crate::tuple::Value;
    use drs_topology::TopologyBuilder;

    /// Emits `count` integer tuples spaced `gap` apart, then stops.
    struct BurstSpout {
        remaining: u64,
        gap: Duration,
    }

    impl Spout for BurstSpout {
        fn next(&mut self) -> Option<SpoutEmission> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(SpoutEmission {
                tuple: Tuple::of(self.remaining as i64),
                wait: self.gap,
            })
        }
    }

    /// Burns roughly `busy` of CPU-ish wall time, then forwards the tuple.
    struct WorkBolt {
        busy: Duration,
        fanout: usize,
    }

    impl Bolt for WorkBolt {
        fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
            if !self.busy.is_zero() {
                std::thread::sleep(self.busy);
            }
            for _ in 0..self.fanout {
                collector.emit(tuple.clone());
            }
        }
    }

    fn two_stage(
        n_tuples: u64,
        gap: Duration,
        busy: Duration,
        fanout: usize,
        k: Vec<u32>,
    ) -> RuntimeEngine {
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let work = b.bolt("work");
        let sink = b.bolt("sink");
        b.edge(src, work).unwrap();
        b.edge(work, sink).unwrap();
        let topo = b.build().unwrap();
        RuntimeBuilder::new(topo)
            .spout(
                src,
                Box::new(BurstSpout {
                    remaining: n_tuples,
                    gap,
                }),
            )
            .bolt(work, move || WorkBolt { busy, fanout })
            .bolt(sink, || WorkBolt {
                busy: Duration::ZERO,
                fanout: 0,
            })
            .allocation(k)
            .start()
            .unwrap()
    }

    #[test]
    fn processes_all_tuples_and_completes_trees() {
        let engine = two_stage(
            50,
            Duration::from_micros(200),
            Duration::from_micros(100),
            1,
            vec![1, 2, 1],
        );
        assert!(engine.wait_until_drained(Duration::from_secs(10)));
        let snap = engine.shutdown(Duration::from_secs(1));
        assert_eq!(snap.external_arrivals, 50);
        assert_eq!(snap.sojourn.count(), 50);
        assert_eq!(snap.operators[1].completions, 50);
        assert_eq!(snap.operators[2].completions, 50);
    }

    #[test]
    fn fanout_multiplies_downstream_arrivals() {
        let engine = two_stage(
            30,
            Duration::from_micros(200),
            Duration::ZERO,
            3,
            vec![1, 1, 2],
        );
        assert!(engine.wait_until_drained(Duration::from_secs(10)));
        let snap = engine.shutdown(Duration::from_secs(1));
        assert_eq!(snap.operators[1].arrivals, 30);
        assert_eq!(snap.operators[2].arrivals, 90);
        assert_eq!(snap.sojourn.count(), 30);
    }

    #[test]
    fn sojourn_reflects_service_time() {
        // One slow stage of ~2 ms per tuple, arrivals well spaced: sojourn
        // should be at least the service time.
        let engine = two_stage(
            20,
            Duration::from_millis(5),
            Duration::from_millis(2),
            1,
            vec![1, 1, 1],
        );
        assert!(engine.wait_until_drained(Duration::from_secs(10)));
        let snap = engine.shutdown(Duration::from_secs(1));
        let mean = snap.sojourn.mean().unwrap();
        assert!(mean >= 0.002, "mean sojourn {mean}");
        assert!(mean < 0.05, "mean sojourn {mean} unreasonably high");
    }

    #[test]
    fn busy_time_tracks_service_rate() {
        let engine = two_stage(
            40,
            Duration::from_millis(1),
            Duration::from_millis(2),
            1,
            vec![1, 4, 1],
        );
        assert!(engine.wait_until_drained(Duration::from_secs(10)));
        let snap = engine.shutdown(Duration::from_secs(1));
        let mu = snap.operators[1].service_rate().unwrap();
        // 2 ms of sleep per tuple -> ~500/s per executor; sleep overshoot
        // makes it slower, never faster.
        assert!(mu <= 520.0, "µ̂ = {mu}");
        assert!(mu > 100.0, "µ̂ = {mu}");
    }

    #[test]
    fn rebalance_changes_executors_and_preserves_tuples() {
        let mut engine = two_stage(
            300,
            Duration::from_micros(100),
            Duration::from_micros(300),
            1,
            vec![1, 1, 1],
        );
        std::thread::sleep(Duration::from_millis(10));
        let pause = engine.rebalance(vec![1, 4, 2]).unwrap();
        assert!(pause < Duration::from_secs(1));
        assert_eq!(engine.allocation(), &[1, 4, 2]);
        assert!(engine.wait_until_drained(Duration::from_secs(20)));
        let snap = engine.shutdown(Duration::from_secs(1));
        // Every tuple is still processed exactly once per stage.
        assert_eq!(snap.external_arrivals, 300);
        assert_eq!(snap.sojourn.count(), 300);
        assert_eq!(snap.operators[1].completions, 300);
    }

    #[test]
    fn more_executors_drain_faster() {
        // Offered load 2 executors' worth; weight 1 falls behind, weight 4
        // keeps up (the bolts sleep, so concurrency comes from the pool
        // honouring the weight, not from CPU count).
        let run = |k: u32| {
            let engine = two_stage(
                2_000,
                Duration::from_micros(50),
                Duration::from_micros(150),
                1,
                vec![1, k, 1],
            );
            std::thread::sleep(Duration::from_millis(120));
            let done = engine.metrics_snapshot().operators[1].completions;
            let _ = engine.shutdown(Duration::ZERO);
            done
        };
        let slow = run(1);
        let fast = run(4);
        assert!(
            fast > slow,
            "4 executors ({fast}) should outpace 1 ({slow})"
        );
    }

    #[test]
    fn weights_beyond_worker_count_still_drain() {
        // The decoupling claim: Σk_i = 14 logical executors on a 2-worker
        // pool processes everything; the weight is a cap, not a thread
        // count.
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let work = b.bolt("work");
        let sink = b.bolt("sink");
        b.edge(src, work).unwrap();
        b.edge(work, sink).unwrap();
        let topo = b.build().unwrap();
        let engine = RuntimeBuilder::new(topo)
            .spout(
                src,
                Box::new(BurstSpout {
                    remaining: 500,
                    gap: Duration::ZERO,
                }),
            )
            .bolt(work, || WorkBolt {
                busy: Duration::ZERO,
                fanout: 1,
            })
            .bolt(sink, || WorkBolt {
                busy: Duration::ZERO,
                fanout: 0,
            })
            .allocation(vec![1, 10, 4])
            .workers(2)
            .start()
            .unwrap();
        assert_eq!(engine.workers(), 2);
        assert!(engine.wait_until_drained(Duration::from_secs(20)));
        let snap = engine.shutdown(Duration::from_secs(1));
        assert_eq!(snap.external_arrivals, 500);
        assert_eq!(snap.sojourn.count(), 500);
        assert_eq!(snap.operators[1].completions, 500);
        assert_eq!(snap.operators[2].completions, 500);
    }

    #[test]
    fn grow_only_rebalance_pause_is_control_plane_cheap() {
        // A pure grow quiesces nothing: the pause is the weight write plus
        // bolt construction. The bound is generous — scheduler noise on a
        // loaded 1-CPU runner is real — but still far below the old
        // engine's thread join/spawn path, which paid at least one 5 ms
        // recv-park quantum per joined executor generation. The pause
        // itself is `runtime.rebalance_pause_us` in `BENCHMARK.json`.
        let mut engine = two_stage(
            2_000,
            Duration::from_micros(200),
            Duration::from_micros(50),
            1,
            vec![1, 1, 1],
        );
        std::thread::sleep(Duration::from_millis(20));
        let best = (0..3)
            .map(|i| {
                engine
                    .rebalance(vec![1, 4 + i, 2])
                    .expect("valid allocation")
            })
            .min()
            .expect("three attempts");
        assert!(
            best < Duration::from_millis(20),
            "grow-only rebalance took {best:?}"
        );
        let _ = engine.shutdown(Duration::ZERO);
    }

    #[test]
    fn missing_implementations_rejected() {
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let sink = b.bolt("sink");
        b.edge(src, sink).unwrap();
        let topo = b.build().unwrap();
        let err = RuntimeBuilder::new(topo.clone())
            .bolt(sink, || WorkBolt {
                busy: Duration::ZERO,
                fanout: 0,
            })
            .start()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::MissingSpout { .. }));

        let err = RuntimeBuilder::new(topo)
            .spout(
                src,
                Box::new(BurstSpout {
                    remaining: 1,
                    gap: Duration::ZERO,
                }),
            )
            .start()
            .unwrap_err();
        assert!(matches!(err, RuntimeError::MissingBolt { .. }));
    }

    #[test]
    fn bad_allocations_rejected() {
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let sink = b.bolt("sink");
        b.edge(src, sink).unwrap();
        let topo = b.build().unwrap();
        let build = |alloc: Vec<u32>| {
            RuntimeBuilder::new(topo.clone())
                .spout(
                    src,
                    Box::new(BurstSpout {
                        remaining: 1,
                        gap: Duration::ZERO,
                    }),
                )
                .bolt(sink, || WorkBolt {
                    busy: Duration::ZERO,
                    fanout: 0,
                })
                .allocation(alloc)
                .start()
        };
        assert!(matches!(
            build(vec![1]).unwrap_err(),
            RuntimeError::AllocationLength { .. }
        ));
        assert!(matches!(
            build(vec![1, 0]).unwrap_err(),
            RuntimeError::ZeroAllocation { .. }
        ));
    }

    #[test]
    fn loop_topology_completes_via_bounded_recursion() {
        // A bolt that re-emits a decremented counter to itself until zero:
        // tuple trees stay finite despite the cycle.
        struct LoopBolt;
        impl Bolt for LoopBolt {
            fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
                let v = tuple.field(0).and_then(Value::as_int).unwrap_or(0);
                if v > 0 {
                    collector.emit(Tuple::of(v - 1));
                }
            }
        }
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let looper = b.bolt("looper");
        b.edge(src, looper).unwrap();
        b.edge_with(
            looper,
            looper,
            drs_topology::EdgeOptions {
                gain: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let topo = b.build().unwrap();
        let engine = RuntimeBuilder::new(topo)
            .spout(
                src,
                Box::new(BurstSpout {
                    remaining: 20,
                    gap: Duration::from_micros(500),
                }),
            )
            .bolt(looper, || LoopBolt)
            .allocation(vec![1, 2])
            .start()
            .unwrap();
        assert!(engine.wait_until_drained(Duration::from_secs(10)));
        let snap = engine.shutdown(Duration::from_secs(1));
        assert_eq!(snap.external_arrivals, 20);
        assert_eq!(snap.sojourn.count(), 20, "all trees must complete");
        // Each root spawns `value` loop iterations: 19 + 18 + ... roots emit
        // multiple times through the loop edge.
        assert!(snap.operators[1].completions > 20);
    }

    #[test]
    fn payload_is_shared_not_cloned_across_fanout() {
        // A bolt recording the address identity of payloads it sees: with
        // Arc payloads, both downstream consumers of one emission observe
        // the same allocation.
        use std::sync::Mutex as StdMutex;
        let seen: Arc<StdMutex<Vec<usize>>> = Arc::new(StdMutex::new(Vec::new()));
        struct Probe {
            seen: Arc<StdMutex<Vec<usize>>>,
        }
        impl Bolt for Probe {
            fn execute(&mut self, tuple: &Tuple, _c: &mut dyn Collector) {
                self.seen
                    .lock()
                    .unwrap()
                    .push(tuple as *const Tuple as usize);
            }
        }
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let left = b.bolt("left");
        let right = b.bolt("right");
        b.edge(src, left).unwrap();
        b.edge(src, right).unwrap();
        let topo = b.build().unwrap();
        let engine = RuntimeBuilder::new(topo)
            .spout(
                src,
                Box::new(BurstSpout {
                    remaining: 1,
                    gap: Duration::ZERO,
                }),
            )
            .bolt(left, {
                let seen = Arc::clone(&seen);
                move || Probe {
                    seen: Arc::clone(&seen),
                }
            })
            .bolt(right, {
                let seen = Arc::clone(&seen);
                move || Probe {
                    seen: Arc::clone(&seen),
                }
            })
            .start()
            .unwrap();
        assert!(engine.wait_until_drained(Duration::from_secs(5)));
        engine.shutdown(Duration::from_secs(1));
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], seen[1], "both edges must share one payload");
    }

    #[test]
    fn ack_slab_recycles_slots() {
        // Many sequential roots reuse the same slab segment: the free list
        // holds whole segments again after draining, and no further
        // segment was allocated for a workload far larger than one segment.
        // A small emission gap keeps the in-flight population bounded while
        // the stages drain at full speed.
        let engine = two_stage(
            2_000,
            Duration::from_micros(5),
            Duration::ZERO,
            1,
            vec![1, 2, 1],
        );
        assert!(engine.wait_until_drained(Duration::from_secs(20)));
        let free = engine.path.acks.free.lock().len() as u32;
        let snap = engine.shutdown(Duration::from_secs(1));
        assert_eq!(snap.sojourn.count(), 2_000);
        assert!(
            free > 0 && free.is_multiple_of(ACK_SEGMENT),
            "drained slab must hold whole segments, got {free} free slots"
        );
        // The slab is bounded by the peak in-flight population, never the
        // total root count — but the peak itself is timing-dependent, so
        // the only hard upper bound asserted here is "far below one slot
        // per root".
        assert!(
            free < 2_000,
            "slab grew to {free} slots for 2000 sequential roots"
        );
    }

    /// Full-width batch emitter for the batch-spout tests: overrides
    /// `next_batch` (and asserts the engine never falls back to `next`).
    struct BatchSpout {
        remaining: u64,
    }

    impl Spout for BatchSpout {
        fn next(&mut self) -> Option<SpoutEmission> {
            unreachable!("the engine must use next_batch");
        }
        fn next_batch(&mut self, max: usize, out: &mut Vec<Tuple>) -> Option<Duration> {
            if self.remaining == 0 {
                return None;
            }
            let n = (max as u64).min(self.remaining);
            for i in 0..n {
                out.push(Tuple::of(i as i64));
            }
            self.remaining -= n;
            Some(Duration::ZERO)
        }
    }

    #[test]
    fn batch_spouts_preserve_root_accounting() {
        // A spout overriding next_batch: every tuple still becomes its own
        // root tree with its own sojourn sample.
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let work = b.bolt("work");
        let sink = b.bolt("sink");
        b.edge(src, work).unwrap();
        b.edge(work, sink).unwrap();
        let topo = b.build().unwrap();
        let engine = RuntimeBuilder::new(topo)
            .spout(src, Box::new(BatchSpout { remaining: 1_000 }))
            .bolt(work, || WorkBolt {
                busy: Duration::ZERO,
                fanout: 2,
            })
            .bolt(sink, || WorkBolt {
                busy: Duration::ZERO,
                fanout: 0,
            })
            .allocation(vec![1, 2, 2])
            .start()
            .unwrap();
        assert!(engine.wait_until_drained(Duration::from_secs(20)));
        let snap = engine.shutdown(Duration::from_secs(1));
        assert_eq!(snap.external_arrivals, 1_000);
        assert_eq!(snap.sojourn.count(), 1_000);
        assert_eq!(snap.operators[1].arrivals, 1_000);
        assert_eq!(snap.operators[2].arrivals, 2_000);
        assert_eq!(snap.operators[2].completions, 2_000);
    }

    #[test]
    fn spout_batch_larger_than_channel_capacity_does_not_deadlock() {
        // Regression test: the very first spout batch into an *idle*
        // operator, larger than the operator's channel capacity, must not
        // park the spout before a consumer task exists — emit_roots chunks
        // its batched sends to the capacity and nudges after every chunk.
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let sink = b.bolt("sink");
        b.edge(src, sink).unwrap();
        let topo = b.build().unwrap();
        let engine = RuntimeBuilder::new(topo)
            .spout(src, Box::new(BatchSpout { remaining: 500 }))
            .bolt(sink, || WorkBolt {
                busy: Duration::ZERO,
                fanout: 0,
            })
            .allocation(vec![1, 1])
            .channel_capacity(16) // far below the 64-tuple SPOUT_BATCH
            .workers(1)
            .start()
            .unwrap();
        assert!(
            engine.wait_until_drained(Duration::from_secs(10)),
            "spout deadlocked on its first over-capacity batch"
        );
        let snap = engine.shutdown(Duration::from_secs(1));
        assert_eq!(snap.external_arrivals, 500);
        assert_eq!(snap.sojourn.count(), 500);
        assert_eq!(snap.operators[1].completions, 500);
    }

    #[test]
    fn spout_stopped_mid_batch_cancels_every_unsent_root() {
        // One 64-root batch into an 8-slot channel whose consumer takes
        // ~2 ms a tuple: the spout parks on a full channel a few chunks in
        // and sees the stop flag there. Its abort must cancel the rest of
        // that chunk *and* the chunks it never reached, so shutdown drains
        // quickly and every root tree completes, processed or cancelled.
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let sink = b.bolt("sink");
        b.edge(src, sink).unwrap();
        let topo = b.build().unwrap();
        let engine = RuntimeBuilder::new(topo)
            .spout(src, Box::new(BatchSpout { remaining: 64 }))
            .bolt(sink, || WorkBolt {
                busy: Duration::from_millis(2),
                fanout: 0,
            })
            .allocation(vec![1, 1])
            .channel_capacity(8) // below the 64-root SPOUT_BATCH
            .start()
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let stopping = Instant::now();
        let snap = engine.shutdown(Duration::from_secs(3));
        let took = stopping.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        assert_eq!(snap.external_arrivals, 64);
        assert_eq!(snap.sojourn.count(), snap.external_arrivals);
        assert!(
            snap.operators[1].completions < 64,
            "the spout was never parked: all {} roots ran",
            snap.operators[1].completions
        );
    }

    #[test]
    fn rebalance_returns_under_full_channel_backpressure() {
        // Regression test: tiny capacity + a fan-out stage feeding a slow
        // sink keeps the downstream channel saturated; rebalance must
        // return promptly regardless (workers bound their backpressure
        // waits, and the quiesce only waits for envelope boundaries).
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let fan = b.bolt("fan");
        let sink = b.bolt("sink");
        b.edge(src, fan).unwrap();
        b.edge(fan, sink).unwrap();
        let topo = b.build().unwrap();
        let mut engine = RuntimeBuilder::new(topo)
            .spout(
                src,
                Box::new(BurstSpout {
                    remaining: 200,
                    gap: Duration::ZERO,
                }),
            )
            .bolt(fan, || WorkBolt {
                busy: Duration::ZERO,
                fanout: 8,
            })
            .bolt(sink, || WorkBolt {
                busy: Duration::from_millis(1),
                fanout: 0,
            })
            .allocation(vec![1, 1, 1])
            .channel_capacity(4)
            .start()
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let start = Instant::now();
        let pause = engine.rebalance(vec![1, 1, 2]).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "rebalance must not deadlock on backpressure (took {pause:?})"
        );
        // Nothing was lost across the weight change: every tree completes.
        assert!(engine.wait_until_drained(Duration::from_secs(30)));
        let snap = engine.shutdown(Duration::from_secs(1));
        assert_eq!(snap.external_arrivals, 200);
        assert_eq!(snap.sojourn.count(), 200);
        assert_eq!(snap.operators[2].arrivals, 1_600);
        assert_eq!(snap.operators[2].completions, 1_600);
    }
}
