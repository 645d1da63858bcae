//! # DRS — Dynamic Resource Scheduling for real-time stream analytics
//!
//! A reproduction of Fu, Ding, Ma, Winslett, Yang & Zhang, *DRS: Dynamic
//! Resource Scheduling for Real-Time Analytics over Fast Streams* (ICDCS
//! 2015). DRS supervises a streaming application running on a cloud stream
//! processing (CSP) layer and answers three questions every measurement
//! window:
//!
//! 1. **How much resource is needed?** The [`model::PerformanceModel`] fits
//!    an open Jackson network of `M/M/k` operators (paper Eq. 1–3) to the
//!    measured arrival/service rates and estimates the expected *total
//!    sojourn time* `E[T]` of an input under any allocation.
//! 2. **Where should it go?** [`scheduler::assign_processors`] (Algorithm 1)
//!    places a budget of `Kmax` processors optimally — greedy on marginal
//!    benefit, provably optimal by convexity — and
//!    [`scheduler::min_processors_for_target`] (Program 6) finds the
//!    cheapest allocation meeting a latency target `Tmax`.
//! 3. **Is a change worth it?** The [`decision`] gate weighs the predicted
//!    improvement against the rebalance pause, and the
//!    [`negotiator::MachineBudget`] adds/removes machines when the resource
//!    goal calls for it.
//! 4. **Where — on which machine — does each executor run?** The
//!    [`placement`] module turns the count schedule into a machine
//!    assignment: a [`placement::MachinePool`] of capacity vectors, operator
//!    [`drs_topology::ResourceProfile`]s, and a solver minimising
//!    cross-machine traffic (R-Storm style) whose result the
//!    [`fleet::FleetDriver`] ships in its [`driver::RebalancePlan`]s.
//!
//! The [`controller::DrsController`] wires these together behind a single
//! `on_window` call; the measurement side (two-level sampling and smoothing,
//! paper App. B) lives in [`measurer`]. The [`driver`] module closes the
//! loop over any CSP layer: implement [`driver::CspBackend`] for an engine
//! (the workspace ships the `drs-sim` simulator and the `drs-runtime`
//! threaded engine) and a [`driver::DrsDriver`] runs the full
//! measure → model → schedule → decide → actuate cycle against it.
//!
//! # Quick start
//!
//! ```
//! use drs_core::model::{ModelInputs, OperatorRates, PerformanceModel};
//! use drs_core::scheduler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Measured rates for a 3-operator video pipeline.
//! let model = PerformanceModel::new(&ModelInputs {
//!     external_rate: 13.0,
//!     operators: vec![
//!         OperatorRates { arrival_rate: 13.0,  service_rate: 1.6 },
//!         OperatorRates { arrival_rate: 390.0, service_rate: 40.0 },
//!         OperatorRates { arrival_rate: 390.0, service_rate: 450.0 },
//!     ],
//! })?;
//!
//! // Optimally place 22 executors (paper Fig. 6 setting).
//! let allocation = scheduler::assign_processors(model.network(), 22)?;
//! println!("best allocation: {allocation}");
//! assert_eq!(allocation.total(), 22);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod config;
pub mod controller;
pub mod decision;
pub mod driver;
pub mod fleet;
pub mod measurer;
pub mod model;
pub mod negotiator;
pub mod placement;
pub mod scheduler;

pub use config::{DrsConfig, OptimizationGoal};
pub use controller::{ControlAction, DrsController, LogEntry};
pub use decision::{Decision, DecisionPolicy};
pub use driver::{
    AppliedRebalance, BackendError, CspBackend, DriverError, DrsDriver, OperatorSample,
    RebalancePlan, TimelinePoint, WindowSample,
};
pub use fleet::{
    FleetDriver, FleetDriverConfig, FleetNegotiator, FleetShardSpec, FleetWindow, ShardDemand,
    ShardGrant, ShardPlacementInfo, ShardPoint,
};
pub use measurer::{Measurer, RawSample, SampleBuilder, SmoothedEstimates, Smoothing};
pub use model::{ModelInputs, OperatorRates, PerformanceModel};
pub use negotiator::{MachineBudget, MachineBudgetConfig, NegotiationPlan};
pub use placement::{EdgeTraffic, OperatorLoad, Placement, PlacementError, PlacementRequest};
pub use scheduler::{assign_processors, min_processors_for_target, Allocation, ScheduleError};
