//! The backend-agnostic control plane: [`CspBackend`] + [`DrsDriver`].
//!
//! DRS is designed to sit on top of *any* CSP layer (paper §III, Fig. 2):
//! the scheduler talks to the engine through a narrow measure/rebalance
//! interface. This module is that interface. A [`CspBackend`] is anything
//! that can (a) run the topology for one measurement window and report a
//! [`WindowSample`], and (b) apply a [`RebalancePlan`]. The generic
//! [`DrsDriver`] owns the full closed loop on top of it — measure → smooth
//! → model → schedule → decide → actuate — plus timeline recording and the
//! last-known-rates fallback (see [`SampleBuilder`]). It schedules
//! executor counts only: machine placement belongs to the fleet, whose
//! [`crate::fleet::FleetDriver`] plans it warm over one shared
//! [`crate::placement::MachinePool`] and ships it in
//! [`RebalancePlan::placement`]. A `DrsDriver` plan carries `None`.
//!
//! The workspace ships two backends:
//!
//! * `drs-sim`'s `Simulator` — deterministic discrete-event simulation,
//!   used for every figure reproduction;
//! * `drs-runtime`'s `RuntimeEngine` — the threaded mini-Storm, giving the
//!   live runtime a closed-loop autoscaling path.
//!
//! This driver supersedes the retired `drs_apps::SimHarness`, which
//! hard-wired the identical loop to the simulator: every measurement
//! window it pulled the simulator's metrics, fed them to
//! `DrsController::on_window`, and executed any re-balance action against
//! the simulator — charging the pause cost the action carries — recording
//! one timeline point per window. Operators that record no service
//! activity in a window reuse the last known rates (brief starvation under
//! a rebalance pause must not zero the model); that fallback now lives in
//! [`SampleBuilder`] so every backend gets it. The harness's timeline was
//! proven bit-identical to the driver's on the Fig. 9 configuration before
//! its removal; `crates/apps/tests/driver_closed_loop.rs` keeps the
//! determinism and convergence guarantees anchored.
//!
//! # Implementing `CspBackend`
//!
//! A backend exposes the topology's *model operators* — the bolts, in a
//! fixed "model order" (spouts contribute no queueing and are excluded,
//! exactly as the paper's `Kmax` counts bolt executors only). Every
//! allocation vector crossing the interface is in model order. The
//! contract, method by method:
//!
//! * [`CspBackend::operator_names`] — the model operators, defining the
//!   model order. Must be stable across the backend's lifetime.
//! * [`CspBackend::current_allocation`] — executors per model operator
//!   actually in force right now.
//! * [`CspBackend::advance`] — run the system for (about) `window_secs`
//!   and return the window's raw measurements. Report `None` for any rate
//!   the window carries no evidence for (an idle or starved operator);
//!   the driver's [`SampleBuilder`] falls back to the last known rates so
//!   brief starvation under a rebalance pause does not zero the model.
//! * [`CspBackend::apply`] — actuate a rebalance, reporting in
//!   [`AppliedRebalance`] what was *actually* put in force (a backend may
//!   adjust the plan, e.g. clamp to capacity — the driver keeps the
//!   controller synchronised to it). Reject plans the engine cannot take
//!   right now with a [`BackendError`] instead of panicking: the driver
//!   records the error on the timeline, rolls back any machine
//!   provisioning the controller made for the plan, and resynchronises
//!   the controller with the backend's real allocation.
//!
//! A minimal backend (a fixed-rate mock, useful in tests):
//!
//! ```
//! use drs_core::driver::{
//!     AppliedRebalance, BackendError, CspBackend, DrsDriver, OperatorSample,
//!     RebalancePlan, WindowSample,
//! };
//! use drs_core::config::DrsConfig;
//! use drs_core::controller::DrsController;
//! use drs_core::negotiator::{MachinePool, MachinePoolConfig};
//!
//! /// One operator at fixed measured rates; rebalances always succeed.
//! struct StaticBackend {
//!     allocation: Vec<u32>,
//! }
//!
//! impl CspBackend for StaticBackend {
//!     fn backend_name(&self) -> &'static str {
//!         "static"
//!     }
//!
//!     fn operator_names(&self) -> Vec<String> {
//!         vec!["work".to_owned()]
//!     }
//!
//!     fn current_allocation(&self) -> Vec<u32> {
//!         self.allocation.clone()
//!     }
//!
//!     fn advance(&mut self, _window_secs: f64) -> WindowSample {
//!         WindowSample {
//!             external_rate: Some(40.0),
//!             operators: vec![OperatorSample {
//!                 arrival_rate: Some(40.0),
//!                 service_rate: Some(10.0),
//!             }],
//!             mean_sojourn: Some(0.9),
//!             std_sojourn: None,
//!             completed: 100,
//!         }
//!     }
//!
//!     fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
//!         self.allocation = plan.allocation.clone();
//!         Ok(AppliedRebalance {
//!             allocation: plan.allocation.clone(),
//!             pause_secs: plan.pause_secs,
//!         })
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let backend = StaticBackend { allocation: vec![2] };
//! let pool = MachinePool::new(MachinePoolConfig::default(), 3)?;
//! let drs = DrsController::new(DrsConfig::min_latency(8), vec![2], pool)?;
//! let mut driver = DrsDriver::new(backend, drs, 60.0)?;
//! driver.run_windows(5);
//! // λ/µ = 4 with 2 executors is unstable: DRS must have scaled out.
//! assert!(driver.timeline().iter().any(|p| p.rebalanced));
//! assert!(driver.backend().current_allocation()[0] > 2);
//! # Ok(())
//! # }
//! ```

use crate::controller::{ControlAction, DrsController};
use crate::measurer::SampleBuilder;
use crate::placement::Placement;
use std::fmt;

/// Raw measurements of one operator for one window, in model order.
///
/// Rates are `None` when the window carries no evidence (no arrivals, no
/// busy time): the driver falls back to the last known rates rather than
/// feeding zeros to the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorSample {
    /// Measured arrival rate `λ̂_i` (tuples/second), if observed.
    pub arrival_rate: Option<f64>,
    /// Measured per-executor service rate `µ̂_i`, if observed.
    pub service_rate: Option<f64>,
}

/// Everything a backend measured during one window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSample {
    /// Measured external arrival rate `λ̂0`, if the window saw time pass.
    pub external_rate: Option<f64>,
    /// Per-operator observations in model order.
    pub operators: Vec<OperatorSample>,
    /// Mean complete sojourn time (seconds) of tuples finished in the
    /// window, if any.
    pub mean_sojourn: Option<f64>,
    /// Standard deviation of those sojourn times (seconds), when defined.
    pub std_sojourn: Option<f64>,
    /// Tuples fully processed during the window.
    pub completed: u64,
}

/// A rebalance the driver asks a backend to actuate.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePlan {
    /// Target executors per model operator.
    pub allocation: Vec<u32>,
    /// Pause the controller expects the transition to cost (seconds).
    /// Backends that measure their own pause may ignore it; the simulator
    /// charges it.
    pub pause_secs: f64,
    /// Actuation epoch: a per-topology monotonically increasing sequence
    /// number stamped by the issuing driver. A backend (or the control
    /// channel in front of it) that sees commands out of order must apply
    /// only strictly increasing epochs and reject the rest, so a delayed or
    /// duplicated command can never double-actuate or roll the allocation
    /// back to a stale target. Backends on a reliable in-process channel
    /// may ignore it.
    pub epoch: u64,
    /// Machine assignment for the target allocation, set by the fleet
    /// driver when it has a machine pool
    /// ([`crate::fleet::FleetDriver::set_machine_pool`]):
    /// `placement.count(i, m)` executors of model operator `i` go to
    /// machine `m`. `None` (always, from [`DrsDriver`]) leaves the
    /// executor-to-machine mapping to the backend. Backends without a
    /// machine concept ignore it.
    pub placement: Option<Placement>,
}

/// What a backend actually did for a [`RebalancePlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedRebalance {
    /// The allocation now in force (model order).
    pub allocation: Vec<u32>,
    /// The pause charged or measured (seconds).
    pub pause_secs: f64,
}

/// Error from a backend refusing or failing an operation.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The plan's allocation was malformed (wrong length, zero executors).
    InvalidAllocation(String),
    /// The backend cannot rebalance right now (e.g. a previous rebalance
    /// pause is still in progress); retry on a later window.
    RebalanceUnavailable(String),
    /// The command was sent but no acknowledgement came back within the
    /// window: the actuation **may or may not** be in force. Unlike a
    /// refusal, the driver must not assume the previous allocation still
    /// runs — it re-synchronises from the backend's believed state and
    /// retries under capped backoff ([`ActuationRetry`]), relying on
    /// [`RebalancePlan::epoch`] for idempotence if the original command
    /// was merely delayed.
    Timeout(String),
    /// Any other backend-specific failure.
    Other(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::InvalidAllocation(s) => write!(f, "invalid allocation: {s}"),
            BackendError::RebalanceUnavailable(s) => write!(f, "rebalance unavailable: {s}"),
            BackendError::Timeout(s) => write!(f, "actuation unacknowledged: {s}"),
            BackendError::Other(s) => write!(f, "backend error: {s}"),
        }
    }
}

/// Capped-backoff retry schedule for unacknowledged actuations, shared by
/// [`DrsDriver`] and the fleet driver so the two loops keep identical
/// failure semantics.
///
/// A [`BackendError::Timeout`] means a command went out but no ack came
/// back — the actuation may or may not be in force. Retrying every window
/// would spam a partitioned backend, so after a timeout the driver holds
/// off for a geometrically growing number of windows (1, 2, 4, … capped at
/// 8) before issuing the next command, and relies on
/// [`RebalancePlan::epoch`] for idempotence when the original command was
/// merely delayed. Any *acknowledged* outcome — success or an explicit
/// refusal — proves the channel is alive and resets the backoff.
#[derive(Debug, Clone, PartialEq)]
pub struct ActuationRetry {
    backoff: u64,
    next_attempt: u64,
}

/// The cap, in windows, on [`ActuationRetry`]'s holdoff.
const RETRY_BACKOFF_CAP: u64 = 8;

impl ActuationRetry {
    /// Whether an actuation may be attempted during window `window`.
    pub(crate) fn ready(&self, window: u64) -> bool {
        window >= self.next_attempt
    }

    /// Windows remaining before the next attempt is allowed.
    pub(crate) fn holdoff(&self, window: u64) -> u64 {
        self.next_attempt.saturating_sub(window)
    }

    /// Records an unacknowledged attempt during `window`: the next attempt
    /// is pushed `backoff` windows out and the backoff doubles (capped).
    pub(crate) fn on_timeout(&mut self, window: u64) {
        self.next_attempt = window + self.backoff;
        self.backoff = (self.backoff * 2).min(RETRY_BACKOFF_CAP);
    }

    /// Records an acknowledged outcome (success *or* explicit refusal):
    /// the channel is alive, so the backoff resets.
    pub(crate) fn on_ack(&mut self) {
        self.backoff = 1;
        self.next_attempt = 0;
    }
}

impl Default for ActuationRetry {
    /// A fresh schedule: at most 8 windows between attempts.
    fn default() -> Self {
        ActuationRetry {
            backoff: 1,
            next_attempt: 0,
        }
    }
}

impl std::error::Error for BackendError {}

/// The narrow interface between DRS and a CSP layer (paper Fig. 2).
///
/// See the [module docs](self) for the implementor's guide and an example.
pub trait CspBackend {
    /// Short human-readable backend name (`"sim"`, `"runtime"`, …).
    fn backend_name(&self) -> &'static str;

    /// Names of the model operators (the bolts), fixing the model order
    /// used by every allocation and sample crossing this interface.
    fn operator_names(&self) -> Vec<String>;

    /// The allocation currently in force, in model order.
    fn current_allocation(&self) -> Vec<u32>;

    /// Writes the allocation currently in force into `out` (cleared
    /// first). The default delegates to
    /// [`current_allocation`](Self::current_allocation); backends driven in
    /// allocation-sensitive loops (the fleet driver polls this once per
    /// shard per window) should override it to fill `out` directly.
    fn current_allocation_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.current_allocation());
    }

    /// Runs the system for (about) `window_secs` and returns the window's
    /// measurements. A simulator advances virtual time; a live engine
    /// waits out the wall clock.
    fn advance(&mut self, window_secs: f64) -> WindowSample;

    /// In-place [`advance`](Self::advance): runs the window and writes its
    /// measurements into `out`, reusing `out`'s buffers where possible.
    /// The default delegates to `advance` (and therefore allocates the
    /// sample); backends that want allocation-free steady-state fleet
    /// windows override this to fill `out` directly.
    fn advance_into(&mut self, window_secs: f64, out: &mut WindowSample) {
        *out = self.advance(window_secs);
    }

    /// Actuates a rebalance.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the plan is malformed or the engine cannot
    /// take it right now; the backend must keep its previous allocation.
    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError>;

    /// Actuates a machine placement *without* changing executor counts —
    /// the placement-only fast path (no rebalance pause is implied). Used
    /// when measured rates shift enough that executors should move between
    /// machines while `k` stays put.
    ///
    /// The default accepts and ignores the placement, so backends without
    /// a machine concept (the live runtime, which is one host) need no
    /// changes. The simulator, which charges a delay on every
    /// cross-machine hop, overrides this.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the placement is malformed for this backend
    /// (wrong operator count, totals that disagree with the running
    /// allocation).
    fn apply_placement(&mut self, placement: &Placement) -> Result<(), BackendError> {
        let _ = placement;
        Ok(())
    }
}

/// One measurement window of a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Window index (0-based; one per `window_secs`, the paper uses
    /// minutes).
    pub window: u64,
    /// Measured mean complete sojourn time in milliseconds, when any tuple
    /// finished in the window.
    pub mean_sojourn_ms: Option<f64>,
    /// Standard deviation of the sojourn times (milliseconds).
    pub std_sojourn_ms: Option<f64>,
    /// Tuples fully processed during the window.
    pub completed: u64,
    /// The model-operator allocation in force at the *end* of the window.
    pub allocation: Vec<u32>,
    /// Whether DRS executed a re-balance during this window.
    pub rebalanced: bool,
    /// The pause the backend charged or measured for the rebalance.
    pub pause_secs: Option<f64>,
    /// A backend refusal, when the controller asked for a rebalance the
    /// backend could not take (the controller is resynchronised to the
    /// backend's real allocation).
    pub backend_error: Option<String>,
}

/// Error from [`DrsDriver::new`].
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// Controller and backend disagree on the number of model operators.
    OperatorCountMismatch {
        /// Operators the controller supervises.
        controller: usize,
        /// Model operators the backend exposes.
        backend: usize,
    },
    /// Controller and backend disagree on the allocation currently running.
    AllocationMismatch {
        /// The allocation the controller believes is in force.
        controller: Vec<u32>,
        /// The allocation the backend actually runs.
        backend: Vec<u32>,
    },
    /// The window length is not a positive finite number of seconds.
    InvalidWindow(f64),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::OperatorCountMismatch {
                controller,
                backend,
            } => write!(
                f,
                "controller supervises {controller} operators but the backend exposes {backend}"
            ),
            DriverError::AllocationMismatch {
                controller,
                backend,
            } => write!(
                f,
                "controller believes allocation {controller:?} is running but the backend runs {backend:?}"
            ),
            DriverError::InvalidWindow(w) => {
                write!(f, "window length must be positive and finite, got {w}")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// The generic DRS closed loop over any [`CspBackend`].
///
/// Each [`step`](DrsDriver::step) advances the backend one measurement
/// window, feeds the sample (with last-known-rates fallback) to the
/// [`DrsController`], executes any rebalance against the backend, and
/// records a [`TimelinePoint`]. This is the single control-loop driver
/// behind the paper's §V timelines (Figs. 9 and 10) on the simulator *and*
/// the live runtime's autoscaling path.
#[derive(Debug)]
pub struct DrsDriver<B: CspBackend> {
    backend: B,
    drs: DrsController,
    window_secs: f64,
    samples: SampleBuilder,
    timeline: Vec<TimelinePoint>,
    /// Epoch stamped on the next issued command (strictly increasing).
    epoch: u64,
    retry: ActuationRetry,
}

impl<B: CspBackend> DrsDriver<B> {
    /// Creates a driver closing the loop between `backend` and `drs`,
    /// measuring every `window_secs` seconds.
    ///
    /// # Errors
    ///
    /// * [`DriverError::OperatorCountMismatch`] — the controller's operator
    ///   count differs from the backend's model operators (a wiring error).
    /// * [`DriverError::AllocationMismatch`] — the allocation the
    ///   controller believes is running differs from what the backend
    ///   actually runs (the model would reason about the wrong system).
    /// * [`DriverError::InvalidWindow`] — non-positive or non-finite
    ///   window.
    pub fn new(backend: B, drs: DrsController, window_secs: f64) -> Result<Self, DriverError> {
        let backend_allocation = backend.current_allocation();
        let controller_allocation = drs.current_allocation();
        if backend_allocation.len() != controller_allocation.len() {
            return Err(DriverError::OperatorCountMismatch {
                controller: controller_allocation.len(),
                backend: backend_allocation.len(),
            });
        }
        if backend_allocation != controller_allocation {
            return Err(DriverError::AllocationMismatch {
                controller: controller_allocation.to_vec(),
                backend: backend_allocation,
            });
        }
        if !window_secs.is_finite() || window_secs <= 0.0 {
            return Err(DriverError::InvalidWindow(window_secs));
        }
        Ok(DrsDriver {
            backend,
            drs,
            window_secs,
            samples: SampleBuilder::new(),
            timeline: Vec::new(),
            epoch: 0,
            retry: ActuationRetry::default(),
        })
    }

    /// The retry schedule's state (for inspection in tests and reports).
    #[cfg(test)]
    pub(crate) fn actuation_retry(&self) -> &ActuationRetry {
        &self.retry
    }

    /// The timeline recorded so far.
    pub fn timeline(&self) -> &[TimelinePoint] {
        &self.timeline
    }

    /// The controller (for inspecting its log or recommendations).
    pub fn controller(&self) -> &DrsController {
        &self.drs
    }

    /// Mutable controller access (e.g. to enable re-balancing mid-run, as
    /// the paper does at minute 14).
    pub fn controller_mut(&mut self) -> &mut DrsController {
        &mut self.drs
    }

    /// The backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access, for injecting workload drift mid-run (e.g.
    /// slowing an operator's service law, the paper's §I motivating
    /// scenario).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Dissolves the driver, returning the backend and controller (e.g. to
    /// shut a live engine down).
    pub fn into_parts(self) -> (B, DrsController) {
        (self.backend, self.drs)
    }

    /// Runs `windows` measurement windows, returning the new timeline
    /// points.
    pub fn run_windows(&mut self, windows: u64) -> &[TimelinePoint] {
        let first_new = self.timeline.len();
        for _ in 0..windows {
            self.step();
        }
        &self.timeline[first_new..]
    }

    /// Runs one measurement window and returns its timeline point.
    pub fn step(&mut self) -> &TimelinePoint {
        let window = self.timeline.len() as u64;
        let sample = self.backend.advance(self.window_secs);
        let raw = self.samples.build(&sample);
        let mut rebalanced = false;
        let mut pause_secs = None;
        let mut backend_error = None;
        if let Some(raw) = raw {
            match self.drs.on_window(&raw) {
                ControlAction::None => {}
                ControlAction::Rebalance {
                    allocation,
                    pause_secs: pause,
                    plan: machine_plan,
                } => {
                    if !self.retry.ready(window) {
                        // Still backing off after an unacknowledged
                        // command: withhold the actuation, roll the
                        // controller back to reality, and try again once
                        // the holdoff expires.
                        backend_error = Some(format!(
                            "actuation deferred: backoff after timeout \
                             (next attempt in {} windows)",
                            self.retry.holdoff(window)
                        ));
                        let actual = self.backend.current_allocation();
                        self.drs.rebalance_rejected(machine_plan.as_ref(), actual);
                    } else {
                        self.epoch += 1;
                        let plan = RebalancePlan {
                            allocation,
                            pause_secs: pause,
                            epoch: self.epoch,
                            placement: None,
                        };
                        match self.backend.apply(&plan) {
                            Ok(applied) => {
                                rebalanced = true;
                                pause_secs = Some(applied.pause_secs);
                                self.retry.on_ack();
                                // A backend may legitimately adjust what it
                                // puts in force (e.g. a capacity clamp);
                                // keep the controller on what actually
                                // runs.
                                self.drs.sync_allocation(applied.allocation);
                            }
                            Err(e) => {
                                // Unacked commands open the backoff; a
                                // refusal is itself an ack and resets it.
                                if matches!(e, BackendError::Timeout(_)) {
                                    self.retry.on_timeout(window);
                                } else {
                                    self.retry.on_ack();
                                }
                                // Roll back the machine plan the controller
                                // provisioned for this rebalance and resync
                                // its view to the backend's (believed)
                                // allocation so later windows reason about
                                // reality.
                                backend_error = Some(e.to_string());
                                let actual = self.backend.current_allocation();
                                self.drs.rebalance_rejected(machine_plan.as_ref(), actual);
                            }
                        }
                    }
                }
            }
        }
        self.timeline.push(TimelinePoint {
            window: self.timeline.len() as u64,
            mean_sojourn_ms: sample.mean_sojourn.map(|s| s * 1e3),
            std_sojourn_ms: sample.std_sojourn.map(|s| s * 1e3),
            completed: sample.completed,
            allocation: self.drs.current_allocation().to_vec(),
            rebalanced,
            pause_secs,
            backend_error,
        });
        self.timeline.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DrsConfig;
    use crate::negotiator::{MachinePool, MachinePoolConfig};

    /// Scripted backend: replays a fixed sequence of samples; `apply`
    /// succeeds unless `fail_applies` has budget left.
    #[derive(Debug)]
    struct Scripted {
        samples: Vec<WindowSample>,
        cursor: usize,
        allocation: Vec<u32>,
        fail_applies: usize,
        /// Commands to drop on the floor (recorded, not applied, and
        /// answered with [`BackendError::Timeout`]) before behaving again.
        timeout_applies: usize,
        applied: Vec<RebalancePlan>,
    }

    impl Scripted {
        fn new(samples: Vec<WindowSample>, allocation: Vec<u32>) -> Self {
            Scripted {
                samples,
                cursor: 0,
                allocation,
                fail_applies: 0,
                timeout_applies: 0,
                applied: Vec::new(),
            }
        }
    }

    impl CspBackend for Scripted {
        fn backend_name(&self) -> &'static str {
            "scripted"
        }

        fn operator_names(&self) -> Vec<String> {
            (0..self.allocation.len())
                .map(|i| format!("op{i}"))
                .collect()
        }

        fn current_allocation(&self) -> Vec<u32> {
            self.allocation.clone()
        }

        fn advance(&mut self, _window_secs: f64) -> WindowSample {
            let s = self.samples[self.cursor.min(self.samples.len() - 1)].clone();
            self.cursor += 1;
            s
        }

        fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
            self.applied.push(plan.clone());
            if self.fail_applies > 0 {
                self.fail_applies -= 1;
                return Err(BackendError::RebalanceUnavailable(
                    "pause in progress".to_owned(),
                ));
            }
            if self.timeout_applies > 0 {
                self.timeout_applies -= 1;
                return Err(BackendError::Timeout("command lost".to_owned()));
            }
            self.allocation = plan.allocation.clone();
            Ok(AppliedRebalance {
                allocation: plan.allocation.clone(),
                pause_secs: plan.pause_secs,
            })
        }
    }

    fn overloaded_sample() -> WindowSample {
        // One operator at ρ = 4: unstable until DRS scales it out.
        WindowSample {
            external_rate: Some(40.0),
            operators: vec![OperatorSample {
                arrival_rate: Some(40.0),
                service_rate: Some(10.0),
            }],
            mean_sojourn: Some(1.5),
            std_sojourn: Some(0.4),
            completed: 30,
        }
    }

    fn starved_sample() -> WindowSample {
        WindowSample {
            external_rate: Some(40.0),
            operators: vec![OperatorSample {
                arrival_rate: None,
                service_rate: None,
            }],
            mean_sojourn: None,
            std_sojourn: None,
            completed: 0,
        }
    }

    fn driver(backend: Scripted) -> DrsDriver<Scripted> {
        let pool = MachinePool::new(MachinePoolConfig::default(), 3).unwrap();
        let drs = DrsController::new(DrsConfig::min_latency(8), vec![2], pool).unwrap();
        DrsDriver::new(backend, drs, 60.0).unwrap()
    }

    #[test]
    fn closed_loop_rebalances_and_records_timeline() {
        let mut d = driver(Scripted::new(vec![overloaded_sample()], vec![2]));
        d.run_windows(5);
        assert_eq!(d.timeline().len(), 5);
        let rebalances: Vec<_> = d.timeline().iter().filter(|p| p.rebalanced).collect();
        assert_eq!(rebalances.len(), 1, "exactly one rebalance to the optimum");
        assert!(rebalances[0].pause_secs.is_some());
        // The backend now runs what the controller believes is running.
        assert_eq!(
            d.backend().current_allocation(),
            d.timeline().last().unwrap().allocation
        );
        assert!(d.backend().current_allocation()[0] > 2);
        // Sojourn flows through in milliseconds.
        assert_eq!(d.timeline()[0].mean_sojourn_ms, Some(1500.0));
        assert_eq!(d.timeline()[0].completed, 30);
    }

    #[test]
    fn backend_refusal_is_a_timeline_event_not_a_panic() {
        let mut backend = Scripted::new(vec![overloaded_sample()], vec![2]);
        backend.fail_applies = 1;
        let mut d = driver(backend);
        // Warmup (2) + refused attempt + cooldown + successful retry.
        d.run_windows(5);
        let refused: Vec<_> = d
            .timeline()
            .iter()
            .filter(|p| p.backend_error.is_some())
            .collect();
        assert_eq!(refused.len(), 1);
        assert!(!refused[0].rebalanced);
        assert!(refused[0]
            .backend_error
            .as_deref()
            .unwrap()
            .contains("rebalance unavailable"));
        // The controller was resynchronised to the backend's real state…
        assert_eq!(refused[0].allocation, vec![2]);
        // …and a later window retries successfully.
        assert!(d.timeline().iter().any(|p| p.rebalanced));
        assert!(d.backend().current_allocation()[0] > 2);
    }

    #[test]
    fn starved_windows_reuse_last_known_rates() {
        let samples = vec![
            overloaded_sample(),
            overloaded_sample(),
            overloaded_sample(),
            starved_sample(),
        ];
        let mut d = driver(Scripted::new(samples, vec![2]));
        d.run_windows(4);
        // The starved window still reached the controller (last-known
        // rates), so its log has an entry per window.
        assert_eq!(d.controller().log().len(), 4);
    }

    #[test]
    fn starved_first_window_is_skipped() {
        let mut d = driver(Scripted::new(vec![starved_sample()], vec![2]));
        d.run_windows(2);
        // No usable rates ever: the controller never saw a window, but the
        // timeline still records what was measured.
        assert_eq!(d.controller().log().len(), 0);
        assert_eq!(d.timeline().len(), 2);
        assert_eq!(d.timeline()[0].mean_sojourn_ms, None);
    }

    #[test]
    fn refused_rebalance_rolls_back_the_machine_plan() {
        // Resource goal: the scale-up provisions a machine before the
        // backend is asked; when the backend refuses, the pool must not
        // keep the phantom machine.
        let mut backend = Scripted::new(vec![overloaded_sample()], vec![2]);
        backend.fail_applies = 1;
        let pool = MachinePool::new(MachinePoolConfig::default(), 1).unwrap();
        // Tight target: λ/µ = 4 and Tmax barely above the no-queue bound
        // force ~7 executors — beyond one 5-executor machine, so the plan
        // must add a machine.
        let mut cfg = DrsConfig::min_resources(0.11);
        cfg.warmup_windows = 1;
        let drs = DrsController::new(cfg, vec![2], pool).unwrap();
        let mut d = DrsDriver::new(backend, drs, 60.0).unwrap();
        d.run_windows(2);
        let refused = d
            .timeline()
            .iter()
            .find(|p| p.backend_error.is_some())
            .expect("the scale-up must be refused");
        assert!(!refused.rebalanced);
        // λ/µ = 4 needs 5+ executors: the plan added a machine; the
        // refusal must have reverted it.
        assert_eq!(d.controller().pool().active_machines(), 1);
        // The retry provisions it again, this time for real.
        d.run_windows(2);
        assert!(d.timeline().iter().any(|p| p.rebalanced));
        assert!(d.controller().pool().active_machines() > 1);
    }

    #[test]
    fn adjusted_applied_allocation_resyncs_controller() {
        /// Applies one executor fewer than asked, reporting it honestly.
        #[derive(Debug)]
        struct Clamping {
            inner: Scripted,
        }
        impl CspBackend for Clamping {
            fn backend_name(&self) -> &'static str {
                "clamping"
            }
            fn operator_names(&self) -> Vec<String> {
                self.inner.operator_names()
            }
            fn current_allocation(&self) -> Vec<u32> {
                self.inner.current_allocation()
            }
            fn advance(&mut self, window_secs: f64) -> WindowSample {
                self.inner.advance(window_secs)
            }
            fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
                let clamped = RebalancePlan {
                    allocation: plan.allocation.iter().map(|&k| k.max(2) - 1).collect(),
                    pause_secs: plan.pause_secs,
                    epoch: plan.epoch,
                    placement: None,
                };
                self.inner.apply(&clamped)
            }
        }
        let backend = Clamping {
            inner: Scripted::new(vec![overloaded_sample()], vec![2]),
        };
        let pool = MachinePool::new(MachinePoolConfig::default(), 3).unwrap();
        let drs = DrsController::new(DrsConfig::min_latency(8), vec![2], pool).unwrap();
        let mut d = DrsDriver::new(backend, drs, 60.0).unwrap();
        d.run_windows(4);
        // The controller tracks the clamped allocation the backend actually
        // runs (7 = 8 - 1), not the 8 it asked for.
        assert_eq!(d.controller().current_allocation(), &[7]);
        assert_eq!(d.backend().current_allocation(), vec![7]);
        assert_eq!(
            d.timeline()
                .iter()
                .find(|p| p.rebalanced)
                .unwrap()
                .allocation,
            vec![7]
        );
    }

    #[test]
    fn mismatched_initial_allocations_rejected() {
        let backend = Scripted::new(vec![overloaded_sample()], vec![3]);
        let pool = MachinePool::new(MachinePoolConfig::default(), 3).unwrap();
        let drs = DrsController::new(DrsConfig::min_latency(8), vec![2], pool).unwrap();
        assert_eq!(
            DrsDriver::new(backend, drs, 60.0).unwrap_err(),
            DriverError::AllocationMismatch {
                controller: vec![2],
                backend: vec![3]
            }
        );
    }

    #[test]
    fn mismatched_operator_counts_rejected() {
        let backend = Scripted::new(vec![overloaded_sample()], vec![2, 3]);
        let pool = MachinePool::new(MachinePoolConfig::default(), 3).unwrap();
        let drs = DrsController::new(DrsConfig::min_latency(8), vec![2], pool).unwrap();
        assert_eq!(
            DrsDriver::new(backend, drs, 60.0).unwrap_err(),
            DriverError::OperatorCountMismatch {
                controller: 1,
                backend: 2
            }
        );
    }

    #[test]
    fn invalid_window_rejected() {
        let backend = Scripted::new(vec![overloaded_sample()], vec![2]);
        let pool = MachinePool::new(MachinePoolConfig::default(), 3).unwrap();
        let drs = DrsController::new(DrsConfig::min_latency(8), vec![2], pool).unwrap();
        assert_eq!(
            DrsDriver::new(backend, drs, 0.0).unwrap_err(),
            DriverError::InvalidWindow(0.0)
        );
    }

    #[test]
    fn timeout_backs_off_then_retries_with_fresh_epoch() {
        // Two lost commands: the driver must not hammer the backend every
        // window — after each timeout it holds off (1 window, then 2) —
        // and every (re)issued command must carry a strictly larger epoch
        // so a late duplicate of the lost command can never supersede it.
        let mut backend = Scripted::new(vec![overloaded_sample()], vec![2]);
        backend.timeout_applies = 2;
        let mut d = driver(backend);
        d.run_windows(12);
        let timeline = d.timeline();
        let timeouts: Vec<_> = timeline
            .iter()
            .filter(|p| {
                p.backend_error
                    .as_deref()
                    .is_some_and(|e| e.contains("unacknowledged"))
            })
            .collect();
        assert_eq!(timeouts.len(), 2, "both lost commands must be visible");
        let deferred = timeline
            .iter()
            .filter(|p| {
                p.backend_error
                    .as_deref()
                    .is_some_and(|e| e.contains("deferred"))
            })
            .count();
        assert!(
            deferred >= 1,
            "the second attempt must respect the backoff holdoff"
        );
        // The loop recovers: the retry after the backoff lands.
        assert!(timeline.iter().any(|p| p.rebalanced));
        assert!(d.backend().current_allocation()[0] > 2);
        // Epochs on the wire are strictly increasing.
        let epochs: Vec<u64> = d.backend().applied.iter().map(|p| p.epoch).collect();
        assert!(epochs.windows(2).all(|w| w[0] < w[1]), "epochs: {epochs:?}");
        assert_eq!(epochs.len(), 3, "two lost + one landed");
    }

    #[test]
    fn refusal_is_an_ack_and_resets_backoff() {
        // A refusal proves the channel is alive: the very next window may
        // retry (the pre-existing behaviour), with no holdoff inserted.
        let mut backend = Scripted::new(vec![overloaded_sample()], vec![2]);
        backend.fail_applies = 1;
        let mut d = driver(backend);
        d.run_windows(5);
        assert!(d.timeline().iter().all(|p| !p
            .backend_error
            .as_deref()
            .is_some_and(|e| e.contains("deferred"))));
        assert!(d.timeline().iter().any(|p| p.rebalanced));
        assert!(d.actuation_retry().ready(d.timeline().len() as u64));
    }

    #[test]
    fn into_parts_returns_backend_and_controller() {
        let mut d = driver(Scripted::new(vec![overloaded_sample()], vec![2]));
        d.run_windows(3);
        let (backend, drs) = d.into_parts();
        assert_eq!(backend.current_allocation(), drs.current_allocation());
    }
}
