//! A miniature stream-processing engine (the "CSP layer") on a
//! work-stealing executor pool.
//!
//! This crate stands in for Apache Storm in the DRS reproduction (Fu et al.,
//! ICDCS 2015): spouts and bolts run on real threads, tuples flow through
//! real channels, and the engine measures exactly what the paper's
//! `MeasurableSpout`/`MeasurableBolt` instrumentation measures — per-operator
//! arrival rates, per-executor service rates, and the complete sojourn time
//! of every root tuple via acker-style tuple trees.
//!
//! Use it to demonstrate DRS driving a *live* system (see the `live_runtime`
//! example at the repository root); the deterministic experiments of the
//! paper are reproduced on the `drs-sim` discrete-event simulator instead.
//!
//! # Workers vs. logical executors
//!
//! The execution layer decouples the paper's control variable `k_i` (the
//! executor count of operator `i`) from OS threads:
//!
//! * a pool of **workers** (pinned with `RuntimeBuilder::workers`; by
//!   default adaptive, capped at the available parallelism with a small
//!   oversubscription floor for blocking bolts) runs every bolt
//!   execution. Workers own local task deques and steal from a shared
//!   injector and from each other;
//! * a **logical executor** is a scheduling slot of one operator, backed
//!   by a dedicated pooled `Bolt` instance (so user bolts keep
//!   executor-local state without synchronisation, exactly as with one
//!   thread per executor). An operator's allocation `k_i` is a *weight*
//!   bounding how many of its executor tasks may be in flight at once —
//!   `k_i = 20` on a 4-worker pool means up to 20 claimable slots whose
//!   concurrency the pool arbitrates, not 20 oversubscribed threads;
//! * **`rebalance()` is a control-plane write**: weights are rewritten
//!   atomically, growing operators gain pre-built bolt instances in O(1),
//!   and only *shrinking* operators quiesce (each excess in-flight task
//!   retires at its next envelope boundary). The measured pause drops from
//!   thread join/spawn latency (≥ one 5 ms park quantum per generation) to
//!   envelope-boundary drain — `BENCHMARK.json`'s
//!   `runtime.rebalance_pause_us` / `rebalance_pause_max_us` on the
//!   `live_step` and `live_flood` workloads (`bash benchmark/run.sh
//!   --workload live_step`);
//! * **spouts keep dedicated threads** (they pace real time between
//!   emissions) and emit *batches* of root tuples per
//!   [`Spout::next_batch`] call, shipped through one
//!   batched channel send per downstream edge.
//!
//! # Architecture
//!
//! * [`mod@tuple`] — tuple values.
//! * [`operator`] — the `Spout`/`Bolt` traits users implement.
//! * [`engine`] — the builder, spout threads, re-balancing, shutdown.
//! * `executor` (private) — logical-executor state: weights, pooled bolt
//!   instances, the ack slab.
//! * `pool` (private) — the work-stealing workers and the task scheduling
//!   protocol.
//! * `channel` (private) — the hard-bounded queue behind every operator's
//!   input.
//! * [`metrics`] — the shared lock-free metrics registry.
//!
//! # Allocation-free data path
//!
//! The engine's steady state performs no heap allocation per envelope:
//! payloads travel as `Arc<Tuple>` (a fan-out send is a reference-count
//! bump, not a deep clone), tuple-tree ack state lives in a recycled slab
//! with a free list instead of per-root allocations, downstream targets
//! come from the compiled CSR layout shared with the simulator
//! ([`drs_topology::CsrOutEdges`]), envelopes flow through hard-bounded
//! channels whose ring buffers are reused (a full channel parks a spout
//! thread, while a pool task that finds one full suspends itself and frees
//! its worker, so a finite pool never blocks on its own downstream
//! channels), and each worker reuses its collector/outbox/inbox buffers across
//! slices. See the [`engine`] module docs for the full inventory; the
//! resulting throughput on the live VLD pipeline is `BENCHMARK.json`'s
//! `work_per_s` on the `live_flood` workload, with the one- and two-worker
//! points as `runtime.tuples_per_s_w1` and `runtime.scaling_w1_w2`
//! (`bash benchmark/run.sh --workload live_flood`).
//!
//! The engine is one host: the pool is a single scheduling domain, and an
//! operator's executors share its one input channel. Where executors run
//! across machines is the placement layer's concern (`drs_core::placement`),
//! honoured by the simulator; the runtime's [`backend`] accepts a plan's
//! placement and ignores it.
//!
//! Groupings: the engine distributes tuples to executors through one shared
//! queue per operator (shuffle semantics). Other Storm groupings affect
//! executor-level placement, not operator-level rates, which is what DRS
//! models; they are treated as shuffle here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
mod channel;
pub mod engine;
mod executor;
pub mod metrics;
pub mod operator;
mod pool;
pub mod tuple;

pub use engine::{RuntimeBuilder, RuntimeEngine, RuntimeError};
pub use metrics::{MetricsRegistry, MetricsSnapshot, OperatorMetrics};
pub use operator::{Bolt, BoltFactory, Collector, Spout, SpoutEmission, VecCollector};
pub use tuple::{Tuple, Value};
