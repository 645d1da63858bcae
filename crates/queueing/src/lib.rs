//! Queueing-theory substrate for the DRS dynamic resource scheduler.
//!
//! This crate implements the mathematical machinery behind the DRS
//! performance model (Fu et al., *DRS: Dynamic Resource Scheduling for
//! Real-Time Analytics over Fast Streams*, ICDCS 2015, §III-B):
//!
//! * [`erlang`] — the per-operator `M/M/k` model (Erlang delay formula,
//!   Eq. 1–2 of the paper), evaluated through numerically stable recurrences,
//!   with the convexity property that makes greedy allocation optimal.
//! * [`jackson`] — open Jackson-network aggregation (Eq. 3): the expected
//!   total sojourn time of an external input is the λ-weighted average of
//!   per-operator sojourn times.
//! * [`incremental`] — carried-state evaluators for the scheduler's hot
//!   loop: [`incremental::ErlangStepper`] steps `E[T](k) → E[T](k+1)` in
//!   O(1) by carrying the Erlang-B recurrence, and
//!   [`incremental::NetworkSojourn`] updates the network-wide `E[T]` in O(1)
//!   when one operator's allocation changes, instead of re-aggregating all
//!   `n` operators. Together they drop Algorithm 1 from `O(Kmax·n·k̄)` to
//!   `O((n + Kmax)·log n)` — measured ≈ 25× faster at `Kmax = 192` on the
//!   3-operator Table II network and ≈ 140× on a 32-operator network with
//!   1024 surplus processors (see `crates/bench`).
//! * [`traffic`] — generalised traffic equations `λ = λ_ext + Gᵀλ` with
//!   amplification gains, supporting splits, joins and feedback loops
//!   (paper Fig. 2), solved on the edge list, plus loop-gain stability.
//! * [`distribution`] — service-time and inter-arrival laws (exponential,
//!   uniform, Erlang, log-normal, hyperexponential…) used by the simulator
//!   and by the model-robustness experiments.
//! * [`mgk`] — the Allen–Cunneen `M/G/k`/`G/G/k` burstiness correction:
//!   the paper's §VI "more sophisticated queueing theory" future work,
//!   implemented.
//! * [`stats`] — streaming mean/variance accumulators shared by the
//!   measurement paths.
//!
//! # Example: model a two-operator video pipeline
//!
//! ```
//! use drs_queueing::erlang::MmKQueue;
//! use drs_queueing::jackson::JacksonNetwork;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Operator A: 13 frames/s, each processor extracts features from
//! // 2 frames/s. Operator B: 390 features/s, 45 features/s per processor.
//! let net = JacksonNetwork::from_rates(13.0, &[(13.0, 2.0), (390.0, 45.0)])?;
//!
//! // Expected end-to-end sojourn under 8 + 10 processors:
//! let t = net.expected_sojourn(&[8, 10])?;
//! assert!(t.is_finite());
//!
//! // Each operator needs strictly more capacity than offered load:
//! let a = MmKQueue::new(13.0, 2.0)?;
//! assert_eq!(a.min_stable_servers(), 7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod distribution;
pub mod erlang;
pub mod incremental;
pub mod jackson;
pub mod mgk;
pub mod stats;
pub mod traffic;

pub use distribution::Distribution;
pub use erlang::{erlang_b, erlang_c, MmKQueue};
pub use incremental::{ErlangStepper, NetworkSojourn};
pub use jackson::{JacksonNetwork, OperatorSojourn};
pub use mgk::GgKQueue;
pub use stats::RunningStats;
pub use traffic::TrafficEquations;
