//! Reference streaming-analytics applications for the DRS reproduction.
//!
//! The paper (Fu et al., ICDCS 2015, §V) evaluates DRS on two real-time
//! applications plus a synthetic chain; this crate implements all three,
//! each in two forms — a calibrated simulation profile (driving the
//! `drs-sim` discrete-event simulator, used for every figure/table
//! reproduction) and live operators (real computation on the `drs-runtime`
//! threaded engine):
//!
//! * [`vld`] — video logo detection: frame spout → SIFT-style feature
//!   extraction → logo matching → aggregation (paper Fig. 4);
//! * [`fpd`] — frequent pattern detection over a sliding microblog window,
//!   with a real maximal-frequent-itemset miner and the detector's loop
//!   edge (paper Fig. 5);
//! * [`synthetic`] — the three-bolt chain with tunable CPU burn used for
//!   the model-underestimation study (paper Fig. 8).
//!
//! The closed loop itself lives in `drs_core::driver`: a `DrsDriver`
//! supervises any `CspBackend` (simulator or threaded runtime)
//! window-by-window, producing the timelines of Figs. 9–10. (The original
//! simulator-only `SimHarness` loop was retired once the driver-parity
//! golden test had soaked; `crates/apps/tests/driver_closed_loop.rs` keeps
//! the determinism and convergence guarantees it used to anchor.)

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod fpd;
pub mod synthetic;
pub mod vld;

pub use fpd::FpdProfile;
pub use synthetic::SyntheticChain;
pub use vld::VldProfile;
