//! Discrete-event simulator of a cloud stream-processing (CSP) layer.
//!
//! This crate is the executable substrate that replaces the paper's Storm
//! cluster (Fu et al., ICDCS 2015). It simulates operator networks with FIFO
//! queues and parallel executors, tracks the *complete sojourn time* of every
//! external tuple via Storm-acker-style tuple trees, supports runtime
//! re-balancing with configurable pause costs, and exposes exactly the
//! measurements the DRS controller consumes: per-operator arrival rates
//! `λ̂_i`, per-executor service rates `µ̂_i`, the external rate `λ̂0` and the
//! measured mean sojourn `E[T̂]`.
//!
//! # Hot path
//!
//! The per-event cost is what bounds how much simulated traffic fits in a
//! wall-clock second, so the whole step loop is allocation-free and O(1)
//! amortized:
//!
//! * **event scheduling** ([`event::EventQueue`]) splits pending events
//!   between two stores. A tuple crossing a fixed-delay edge locally — the
//!   builder's default edge, and about half of a fan-out topology's events
//!   — is appended to a FIFO *lane* for its delay: arrivals at `now + d`
//!   come in time order, so a lane needs no priority queue. Everything
//!   else (service completions, external arrivals, random or crossed
//!   delays, pause ends) goes on a [`calendar::CalendarQueue`] (calendar /
//!   ladder queue hybrid): O(1) amortized insert and pop with a lazy
//!   overflow ladder for far-future events and width/size heuristics keyed
//!   off the observed event interarrival. One sequence counter numbers
//!   both stores' events and a pop takes the least `(time, sequence)` key
//!   among the calendar head and the lane heads, so the order is the
//!   *identical* deterministic `(time, FIFO-sequence)` order one binary
//!   heap over every event would give;
//! * **tuple emission** walks a compiled CSR out-edge layout
//!   ([`drs_topology::CsrOutEdges`], shared with the threaded runtime) by
//!   value — no adjacency clone per processed tuple;
//! * **tuple-tree acking** lives in a slab with a free list and recycled
//!   dense `u32` slot ids — no per-root allocation or hashing;
//! * **measurement windows** close in place on the
//!   `CspBackend::advance_into` path: the per-operator counters are reset
//!   where they live (`tests/window_allocs.rs` pins zero allocations per
//!   settled window).
//!
//! The same structures back every simulator shard of a
//! `drs_core::fleet::FleetDriver<Simulator>`, so fleet stepping inherits
//! the O(1) event scheduling per shard. The queue's cost per operation is
//! `BENCHMARK.json`'s `sim.calendar_ns`, and the simulator's throughput
//! `sim.tuples_per_s`, both on the `sim_paper` workload (`bash
//! benchmark/run.sh --workload sim_paper`); `tests/calendar_properties.rs`
//! checks the pop order of the calendar, and of the calendar with lanes,
//! against a `BinaryHeap`.
//!
//! # Degraded control plane
//!
//! The fleet is also a stress lab for the control plane: the [`faults`]
//! module models each shard's link to the coordinator as a deterministic,
//! seedable [`faults::ControlChannel`] — per-message loss, latency +
//! jitter (quantized to measurement windows, delivered through the same
//! calendar queue and therefore naturally reordered), duplication, ack
//! loss, scheduled partitions with heal times, and machine-failure
//! crashes. A `FleetDriver<FaultyShard<Simulator>>` routes every
//! measurement report and actuation command through those channels, while
//! `drs_core::fleet` supplies the hardening that makes the loop converge
//! anyway: actuation epochs (stale/duplicate commands rejected),
//! capped-backoff retry on unacknowledged actuations, age-weighted stale
//! evidence and lease-style dead-shard budget reclaim. A
//! `FleetDriver<B: Clone>` is its own checkpoint: a clone holds the full
//! fleet (virtual clocks, in-flight messages and RNG state included), so
//! scenario sweeps branch from a common prefix. Every injected fault is recorded as a
//! [`faults::FaultEvent`] next to the control decisions it provoked;
//! `repro fleet --faults <scenario>` renders both.
//!
//! # Synthetic fleets
//!
//! Fleet-scale tests need thousands of shards whose measurements are the
//! model's own numbers, not a simulator per shard: the [`synthetic`] module
//! holds one seeded generator of analytic M/M/k chain shards and the rate
//! drift that moves them, shared by the fleet window's digests, allocation
//! pins and phase reports.
//!
//! See [`SimulationBuilder`] for the entry point and the `drs-apps` crate for
//! fully calibrated workloads (video logo detection, frequent pattern
//! detection, synthetic chains).
//!
//! # Example
//!
//! ```
//! use drs_queueing::distribution::Distribution;
//! use drs_sim::time::SimDuration;
//! use drs_sim::workload::OperatorBehavior;
//! use drs_sim::SimulationBuilder;
//! use drs_topology::TopologyBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = TopologyBuilder::new();
//! let spout = b.spout("frames");
//! let bolt = b.bolt("extract");
//! b.edge(spout, bolt)?;
//! let topo = b.build()?;
//!
//! let mut sim = SimulationBuilder::new(topo)
//!     .behavior(spout, OperatorBehavior::Spout {
//!         interarrival: Distribution::exponential(13.0)?,
//!     })
//!     .behavior(bolt, OperatorBehavior::Bolt {
//!         service: Distribution::exponential(2.0)?,
//!     })
//!     .allocation(vec![1, 8])
//!     .seed(1)
//!     .build()?;
//! sim.run_for(SimDuration::from_secs(60));
//! let window = sim.take_window();
//! println!("measured E[T] = {:?} s", window.mean_sojourn());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod calendar;
pub mod event;
pub mod faults;
pub mod metrics;
pub mod simulator;
pub mod synthetic;
pub mod time;
pub mod workload;

pub use faults::{
    ControlChannel, FaultEvent, FaultKind, FaultyShard, LinkFaults, Partition, WindowJitter,
};
pub use metrics::{MeasurementWindow, OperatorWindow, RunningStats};
pub use simulator::{SimError, SimulationBuilder, Simulator};
pub use time::{SimDuration, SimTime};
