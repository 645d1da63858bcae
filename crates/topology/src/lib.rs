//! Operator-network (topology) description for the DRS reproduction.
//!
//! A streaming application is a directed graph of operators — *spouts* (data
//! sources) and *bolts* (processing stages) in Storm's vocabulary — with
//! weighted edges describing expected tuple fan-out ("gains"). DRS supports
//! arbitrary topologies: splits, joins and feedback loops (paper Fig. 2).
//!
//! This crate is the shared vocabulary between:
//!
//! * the performance model (`drs-core`), which needs per-operator arrival
//!   rates derived from the [`Topology::traffic_equations`];
//! * the discrete-event simulator (`drs-sim`) and the threaded runtime
//!   (`drs-runtime`), which execute the topology;
//! * the applications (`drs-apps`), which build the paper's VLD and FPD
//!   topologies (Figs. 4–5).
//!
//! Every consumer assumes shuffle grouping among an operator's executors
//! (the model's load balance, §III-A), so a topology carries no grouping,
//! and per-executor resource demand is a placement input
//! (`drs_core::placement::OperatorLoad`), not part of the topology.
//!
//! # Example
//!
//! ```
//! use drs_topology::{EdgeOptions, TopologyBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = TopologyBuilder::new();
//! let frames = b.spout("frames");
//! let sift = b.bolt("sift");
//! let matcher = b.bolt("matcher");
//! b.edge(frames, sift)?;
//! b.edge_with(sift, matcher, EdgeOptions { gain: 30.0, ..Default::default() })?;
//! let topo = b.build()?;
//!
//! // Solve the traffic equations for 13 frames/s of external input:
//! let eqs = topo.traffic_equations(&[(frames, 13.0)])?;
//! let rates = eqs.solve()?;
//! assert!((rates[matcher.index()] - 390.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod build;
pub mod csr;
pub mod presets;
mod spec;
mod topology;

pub use build::{EdgeOptions, TopologyBuilder, TopologyError};
pub use csr::CsrOutEdges;
pub use spec::{EdgeSpec, OperatorId, OperatorKind, OperatorSpec, ResourceProfile};
pub use topology::Topology;
