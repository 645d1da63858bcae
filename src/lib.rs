//! # DRS — Dynamic Resource Scheduling for Real-Time Analytics over Fast Streams
//!
//! A comprehensive Rust reproduction of Fu, Ding, Ma, Winslett, Yang &
//! Zhang (ICDCS 2015). This facade crate re-exports the whole workspace:
//!
//! | Crate | Re-exported as | Contents |
//! |---|---|---|
//! | `drs-core` | [`core`] | the DRS scheduler: performance model (Eq. 1–3), Algorithm 1, Program 6, measurer, decision gate, negotiator, controller, and the backend-agnostic `DrsDriver` control plane |
//! | `drs-queueing` | [`queueing`] | Erlang `M/M/k`, Jackson networks, traffic equations with loops, distributions |
//! | `drs-topology` | [`topology`] | operator networks: spouts, bolts, edge gains and delays, validation |
//! | `drs-sim` | [`sim`] | deterministic discrete-event CSP-layer simulator with tuple-tree acking |
//! | `drs-runtime` | [`runtime`] | threaded mini-Storm: executor threads, channels, live metrics, re-balancing |
//! | `drs-apps` | [`apps`] | VLD, FPD (real maximal-frequent-pattern miner), synthetic chain workloads |
//!
//! See the repository `examples/` for runnable walkthroughs and
//! `crates/bench` for the harness regenerating every figure and table of
//! the paper. Performance numbers come from one place: the metrics
//! `BENCHMARK.json` declares, measured by `bash benchmark/run.sh
//! [--workload W]`.
//!
//! # Quick start: a closed loop in five lines
//!
//! DRS talks to any stream-processing engine through the narrow
//! [`core::driver::CspBackend`] interface (paper §III, Fig. 2); the
//! [`core::driver::DrsDriver`] owns the measure → model → schedule →
//! decide → actuate cycle. Both the deterministic simulator and the
//! threaded runtime implement the backend trait, so the same loop drives
//! either. Here it supervises the paper's video-logo-detection pipeline in
//! simulation, starting from a deliberately bad allocation:
//!
//! ```
//! use drs::apps::VldProfile;
//! use drs::core::config::DrsConfig;
//! use drs::core::controller::DrsController;
//! use drs::core::driver::DrsDriver;
//! use drs::core::negotiator::{MachinePool, MachinePoolConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sim = VldProfile::paper().build_simulation([8, 12, 2], 42);
//! let pool = MachinePool::new(MachinePoolConfig::default(), 5)?;
//! let drs = DrsController::new(DrsConfig::min_latency(22), vec![8, 12, 2], pool)?;
//! let mut driver = DrsDriver::new(sim, drs, 60.0)?; // 60 s windows
//! driver.run_windows(6);
//! // DRS has re-balanced the pipeline to the paper's optimum (10:11:1).
//! assert!(driver.timeline().iter().any(|p| p.rebalanced));
//! assert_eq!(driver.backend().allocation()[1..], [10, 11, 1]);
//! # Ok(())
//! # }
//! ```
//!
//! To autoscale a *live* engine instead, hand the driver a
//! [`runtime::RuntimeEngine`] — see the `live_runtime` example.
//!
//! # Fleet mode: many topologies, one budget
//!
//! A production cluster runs many topologies competing for one machine
//! pool. A [`core::fleet::FleetDriver`] over [`sim::Simulator`] shards
//! runs N independent simulators (one topology each, every one on its own
//! virtual clock) under a single global budget `Kmax`; each window every
//! shard computes its own Program 6 schedule and the
//! [`core::fleet::FleetNegotiator`] arbitrates contention with the paper's
//! max-marginal-benefit rule applied *across* topologies. When total
//! demand fits the budget every shard gets exactly its single-topology
//! schedule; when it does not, plans are capped (never below a shard's
//! minimum stable allocation) and capacity freed by a shard whose load
//! drops is re-offered to starved shards on the next window:
//!
//! ```
//! use drs::core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec};
//! use drs::queueing::distribution::Distribution;
//! use drs::sim::workload::OperatorBehavior;
//! use drs::sim::SimulationBuilder;
//! use drs::topology::TopologyBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chain = |lambda: f64, seed: u64| {
//!     let mut b = TopologyBuilder::new();
//!     let spout = b.spout("src");
//!     let bolt = b.bolt("work");
//!     b.edge(spout, bolt).unwrap();
//!     SimulationBuilder::new(b.build().unwrap())
//!         .behavior(spout, OperatorBehavior::Spout {
//!             interarrival: Distribution::exponential(lambda).unwrap(),
//!         })
//!         .behavior(bolt, OperatorBehavior::Bolt {
//!             service: Distribution::exponential(10.0).unwrap(),
//!         })
//!         .allocation(vec![1, 4])
//!         .seed(seed)
//!         .build()
//!         .unwrap()
//! };
//! let mut config = FleetDriverConfig::new(10); // Kmax across BOTH shards
//! config.window_secs = 30.0;
//! let mut fleet = FleetDriver::new(config, vec![
//!     FleetShardSpec::new("hot", 0.12, chain(45.0, 1)),
//!     FleetShardSpec::new("cold", 0.12, chain(25.0, 2)),
//! ])?;
//! fleet.run_windows(6);
//! let last = fleet.timeline().last().unwrap();
//! assert!(last.total_granted <= 10); // never over budget
//! # Ok(())
//! # }
//! ```
//!
//! `repro fleet` (in `crates/bench`) runs a four-topology mixed VLD+FPD
//! fleet under a contended budget, with a mid-run load collapse showing
//! capacity being redistributed:
//!
//! ```text
//! cargo run --release -p drs-bench --bin repro -- fleet           # full run
//! cargo run --release -p drs-bench --bin repro -- fleet --smoke   # CI smoke
//! cargo run --release --example fleet                             # walkthrough
//! ```
//!
//! # Placement: which machine runs which executor
//!
//! Program 6 decides *how many* executors each operator gets; the
//! [`core::placement`] layer decides *where they run*. A
//! [`core::placement::MachinePool`] describes per-machine capacity as a
//! cpu/mem/net [`topology::ResourceProfile`]; the R-Storm-style
//! greedy solver packs executors so heavily-trafficked edges stay on one
//! machine without any machine exceeding capacity. Shuffle grouping sends
//! each tuple to a uniformly random downstream executor, so the expected
//! cross-machine fraction of an edge falls out of the per-machine counts
//! alone:
//!
//! ```
//! use drs::core::placement::{self, EdgeTraffic, MachinePool, OperatorLoad, PlacementRequest};
//! use drs::topology::ResourceProfile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pool = MachinePool::uniform(4, ResourceProfile::uniform(4.0))?;
//! let unit = |executors| OperatorLoad { executors, profile: ResourceProfile::uniform(1.0) };
//! let request = PlacementRequest {
//!     operators: vec![unit(4), unit(6), unit(2)],
//!     // sift → matcher carries 30 features/frame; matcher → aggregator
//!     // only the 5% that matched. The solver co-locates the hot edge.
//!     edges: vec![
//!         EdgeTraffic { from: 0, to: 1, rate: 30.0 },
//!         EdgeTraffic { from: 1, to: 2, rate: 1.5 },
//!     ],
//! };
//! let placed = placement::solve(&pool, &request)?;
//! let dealt = placement::round_robin(&pool, &request)?;
//! assert!(placed.cross_fraction(&request.edges) < dealt.cross_fraction(&request.edges));
//! // Capacity is honoured: no machine holds more than 4 unit executors.
//! let profiles: Vec<_> = request.operators.iter().map(|o| o.profile).collect();
//! assert!(placed.usage(&profiles).iter().all(|u| u.cpu <= 4.0));
//! # Ok(())
//! # }
//! ```
//!
//! The placement flows end to end: hand the fleet driver a pool via
//! `FleetDriver::set_machine_pool` and each shard's `RebalancePlan` carries
//! a `Placement` that backends actuate through `CspBackend::apply_placement`
//! — the simulator charges a configurable network delay on cross-machine
//! hops, while the live runtime is one host and accepts the placement
//! without acting on it.
//! `repro place` benchmarks the solver against a round-robin deal on the
//! contended 8-machine fleet:
//!
//! ```text
//! cargo run --release -p drs-bench --bin repro -- place           # full run
//! cargo run --release -p drs-bench --bin repro -- place --smoke   # CI smoke
//! ```
//!
//! The pure model/scheduler layer remains available for one-shot
//! questions:
//!
//! ```
//! use drs::core::model::{ModelInputs, OperatorRates, PerformanceModel};
//! use drs::core::scheduler::assign_processors;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = PerformanceModel::new(&ModelInputs {
//!     external_rate: 13.0,
//!     operators: vec![
//!         OperatorRates { arrival_rate: 13.0,  service_rate: 1.78 },
//!         OperatorRates { arrival_rate: 390.0, service_rate: 49.1 },
//!         OperatorRates { arrival_rate: 19.5,  service_rate: 45.0 },
//!     ],
//! })?;
//! let best = assign_processors(model.network(), 22)?;
//! println!("optimal allocation: {best}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use drs_apps as apps;
pub use drs_core as core;
pub use drs_queueing as queueing;
pub use drs_runtime as runtime;
pub use drs_sim as sim;
pub use drs_topology as topology;
