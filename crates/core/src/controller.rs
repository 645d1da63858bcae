//! The DRS decision core: measurements in, rebalance actions out.
//!
//! One [`DrsController`] instance supervises one streaming application. Each
//! measurement window a [`RawSample`] is fed to
//! [`DrsController::on_window`], which:
//!
//! 1. smooths the metrics through the [`Measurer`];
//! 2. fits the [`PerformanceModel`] (Eq. 1–3 of the paper);
//! 3. computes the candidate allocation for the configured goal — Algorithm 1
//!    for [`OptimizationGoal::MinLatency`], the Program 6 greedy plus machine
//!    negotiation for [`OptimizationGoal::MinResources`];
//! 4. passes the candidate through the cost/benefit [`decision`] gate;
//! 5. when *active*, emits a [`ControlAction::Rebalance`] for the CSP layer
//!    to execute; when *passive* (paper §V-C, "re-balancing disabled"), it
//!    only records the recommendation.
//!
//! Every round is appended to an inspectable log, which the experiment
//! harness uses to reproduce the paper's figures.
//!
//! The controller is engine-agnostic: it never touches a simulator or a
//! runtime directly. In almost every case you do not call `on_window`
//! yourself — a [`crate::driver::DrsDriver`] owns the loop, pulling
//! windows from a [`crate::driver::CspBackend`] (the `drs-sim` simulator,
//! the `drs-runtime` threaded engine, or your own adapter), building the
//! [`RawSample`] with last-known-rates fallback, and actuating the returned
//! [`ControlAction`] against the backend. Call `on_window` directly only
//! when you are wiring a custom loop by hand.

use crate::config::{DrsConfig, OptimizationGoal};
use crate::decision::{self, Decision, DecisionInputs};
use crate::measurer::{Measurer, RawSample, SmoothedEstimates};
use crate::model::PerformanceModel;
use crate::negotiator::{MachinePool, NegotiationPlan};
use crate::scheduler::{self, Allocation, ScheduleError};
use std::fmt;

/// What the CSP layer should do after a measurement window.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlAction {
    /// No change.
    None,
    /// Re-balance to `allocation`, pausing the topology for `pause_secs`;
    /// `plan` carries machine changes when the goal is resource
    /// minimisation.
    Rebalance {
        /// Target executors per operator (model index order).
        allocation: Vec<u32>,
        /// Pause the CSP layer should charge for the transition (seconds).
        pause_secs: f64,
        /// Machine provisioning accompanying the rebalance, if any.
        plan: Option<NegotiationPlan>,
    },
}

impl ControlAction {
    /// Whether the action changes the system.
    pub fn is_rebalance(&self) -> bool {
        matches!(self, ControlAction::Rebalance { .. })
    }
}

/// One record of the controller's reasoning for a window.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Window sequence number (1-based).
    pub window: u64,
    /// Smoothed estimates used this round, if the measurer had data.
    pub estimates: Option<SmoothedEstimates>,
    /// Model estimate of the *current* allocation's expected sojourn.
    pub current_estimate: Option<f64>,
    /// The optimiser's recommendation.
    pub recommendation: Option<Allocation>,
    /// The decision gate's verdict.
    pub decision: Option<Decision>,
    /// The action actually taken (always `None` while passive).
    pub action: ControlAction,
    /// Any scheduling error (e.g. insufficient processors).
    pub error: Option<String>,
}

/// Error from controller construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerError {
    /// The configuration failed validation.
    Config(crate::config::InvalidConfig),
    /// The smoothing parameters were rejected by the measurer.
    Smoothing(crate::measurer::InvalidSmoothing),
    /// The initial allocation is empty.
    EmptyAllocation,
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerError::Config(e) => write!(f, "{e}"),
            ControllerError::Smoothing(e) => write!(f, "{e}"),
            ControllerError::EmptyAllocation => write!(f, "initial allocation is empty"),
        }
    }
}

impl std::error::Error for ControllerError {}

/// The DRS controller. See the module docs for the per-window pipeline.
///
/// # Examples
///
/// Passive monitoring (the paper's "re-balancing disabled" mode):
///
/// ```
/// use drs_core::config::DrsConfig;
/// use drs_core::controller::DrsController;
/// use drs_core::measurer::RawSample;
/// use drs_core::model::OperatorRates;
/// use drs_core::negotiator::{MachinePool, MachinePoolConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pool = MachinePool::new(MachinePoolConfig::default(), 5)?;
/// let mut drs = DrsController::new(
///     DrsConfig::min_latency(22),
///     vec![8, 12, 2],
///     pool,
/// )?;
/// drs.set_active(false); // monitor only
///
/// for _ in 0..3 {
///     let action = drs.on_window(&RawSample {
///         external_rate: 13.0,
///         operators: vec![
///             OperatorRates { arrival_rate: 13.0, service_rate: 1.6 },
///             OperatorRates { arrival_rate: 390.0, service_rate: 40.0 },
///             OperatorRates { arrival_rate: 390.0, service_rate: 450.0 },
///         ],
///         mean_sojourn: Some(0.8),
///     });
///     assert!(!action.is_rebalance()); // passive: never acts
/// }
/// // ... but it still recommends the optimal allocation:
/// assert!(drs.last_recommendation().is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DrsController {
    config: DrsConfig,
    measurer: Measurer,
    pool: MachinePool,
    current_allocation: Vec<u32>,
    active: bool,
    log: Vec<LogEntry>,
    /// Windows remaining in the post-rebalance hold.
    cooldown_remaining: u64,
}

impl DrsController {
    /// Creates a controller supervising `initial_allocation.len()` operators.
    ///
    /// # Errors
    ///
    /// * [`ControllerError::Config`] — invalid [`DrsConfig`].
    /// * [`ControllerError::EmptyAllocation`] — no operators to supervise.
    pub fn new(
        config: DrsConfig,
        initial_allocation: Vec<u32>,
        pool: MachinePool,
    ) -> Result<Self, ControllerError> {
        config.validate().map_err(ControllerError::Config)?;
        if initial_allocation.is_empty() {
            return Err(ControllerError::EmptyAllocation);
        }
        let measurer = Measurer::new(initial_allocation.len(), config.smoothing)
            .map_err(ControllerError::Smoothing)?;
        Ok(DrsController {
            config,
            measurer,
            pool,
            current_allocation: initial_allocation,
            active: true,
            log: Vec::new(),
            cooldown_remaining: 0,
        })
    }

    /// Enables or disables re-balancing. While passive, the controller still
    /// monitors and recommends (paper §V-C experiments).
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// The allocation the controller believes is currently running.
    pub(crate) fn current_allocation(&self) -> &[u32] {
        &self.current_allocation
    }

    /// The machine pool state.
    pub fn pool(&self) -> &MachinePool {
        &self.pool
    }

    /// The full decision log.
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// The most recent recommendation, if any round produced one.
    pub fn last_recommendation(&self) -> Option<&Allocation> {
        self.log
            .iter()
            .rev()
            .find_map(|e| e.recommendation.as_ref())
    }

    /// Informs the controller of an externally applied allocation (e.g. an
    /// operator manually re-balanced the topology).
    pub fn sync_allocation(&mut self, allocation: Vec<u32>) {
        self.current_allocation = allocation;
    }

    /// Informs the controller that the CSP layer rejected the rebalance it
    /// just issued: reverts the machine plan provisioned for it (the
    /// machines were never actually used), resynchronises the allocation
    /// view to what the backend really runs, and lifts the post-rebalance
    /// cooldown so the next window may retry.
    pub(crate) fn rebalance_rejected(
        &mut self,
        plan: Option<&NegotiationPlan>,
        actual_allocation: Vec<u32>,
    ) {
        if let Some(p) = plan {
            self.pool.revert(p);
        }
        self.current_allocation = actual_allocation;
        self.cooldown_remaining = 0;
    }

    /// Ingests one measurement window and returns the action to execute.
    ///
    /// # Panics
    ///
    /// Panics if `raw.operators.len()` differs from the operator count fixed
    /// at construction (wiring error).
    pub fn on_window(&mut self, raw: &RawSample) -> ControlAction {
        self.measurer.observe(raw);
        let window = self.measurer.windows_seen();

        let mut entry = LogEntry {
            window,
            estimates: None,
            current_estimate: None,
            recommendation: None,
            decision: None,
            action: ControlAction::None,
            error: None,
        };

        if window <= self.config.warmup_windows {
            self.log.push(entry);
            return ControlAction::None;
        }
        if self.cooldown_remaining > 0 {
            self.cooldown_remaining -= 1;
            self.log.push(entry);
            return ControlAction::None;
        }
        let Some(estimates) = self.measurer.estimates() else {
            self.log.push(entry);
            return ControlAction::None;
        };
        entry.estimates = Some(estimates.clone());

        let model = match PerformanceModel::new(&estimates.to_model_inputs()) {
            Ok(m) => m,
            Err(e) => {
                entry.error = Some(e.to_string());
                self.log.push(entry);
                return ControlAction::None;
            }
        };
        let current_estimate = model
            .expected_sojourn(&self.current_allocation)
            .unwrap_or(f64::INFINITY);
        entry.current_estimate = Some(current_estimate);

        let outcome = self.optimize(&model);
        let (candidate, plan) = match outcome {
            Ok(pair) => pair,
            Err(e) => {
                entry.error = Some(e.to_string());
                self.log.push(entry);
                return ControlAction::None;
            }
        };
        entry.recommendation = Some(candidate.clone());

        let pause_secs = plan.map_or(self.pool.config().steady_pause, |p| p.pause_secs);
        let inputs = DecisionInputs {
            current_allocation: self.current_allocation.clone(),
            current_estimate,
            candidate_allocation: candidate.per_operator().to_vec(),
            candidate_estimate: candidate.expected_sojourn(),
            pause_secs,
            t_max: self.config.goal.t_max(),
            measured_sojourn: estimates.mean_sojourn,
        };
        let verdict = decision::decide(&self.config.policy, &inputs);
        entry.decision = Some(verdict.clone());

        let action = if self.active && verdict.is_rebalance() {
            if let Some(p) = plan {
                self.pool.apply(&p);
            }
            self.current_allocation = candidate.per_operator().to_vec();
            self.cooldown_remaining = self.config.cooldown_windows;
            ControlAction::Rebalance {
                allocation: self.current_allocation.clone(),
                pause_secs,
                plan,
            }
        } else {
            ControlAction::None
        };
        entry.action = action.clone();
        self.log.push(entry);
        action
    }

    /// Computes the candidate allocation (and machine plan, for the
    /// resource-minimisation goal) from the fitted model.
    fn optimize(
        &self,
        model: &PerformanceModel,
    ) -> Result<(Allocation, Option<NegotiationPlan>), ScheduleError> {
        match self.config.goal {
            OptimizationGoal::MinLatency { k_max } => {
                let allocation = scheduler::assign_processors(model.network(), k_max)?;
                Ok((allocation, None))
            }
            OptimizationGoal::MinResources { t_max_secs } => {
                let cap = self.pool.max_executor_capacity();
                let allocation =
                    scheduler::min_processors_for_target(model.network(), t_max_secs, cap)?;
                // The search is capped at the pool's maximum capacity, so
                // the plan cannot exceed it.
                let total = u32::try_from(allocation.total()).unwrap_or(u32::MAX);
                let plan = self
                    .pool
                    .plan(total)
                    .expect("allocation total bounded by pool capacity");
                Ok((allocation, Some(plan)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OperatorRates;
    use crate::negotiator::MachinePoolConfig;

    fn vld_sample(sojourn: f64) -> RawSample {
        RawSample {
            external_rate: 13.0,
            operators: vec![
                OperatorRates {
                    arrival_rate: 13.0,
                    service_rate: 1.6,
                },
                OperatorRates {
                    arrival_rate: 390.0,
                    service_rate: 40.0,
                },
                OperatorRates {
                    arrival_rate: 390.0,
                    service_rate: 450.0,
                },
            ],
            mean_sojourn: Some(sojourn),
        }
    }

    fn pool(machines: u32) -> MachinePool {
        MachinePool::new(MachinePoolConfig::default(), machines).unwrap()
    }

    fn feed(drs: &mut DrsController, n: usize, sojourn: f64) -> Vec<ControlAction> {
        (0..n)
            .map(|_| drs.on_window(&vld_sample(sojourn)))
            .collect()
    }

    #[test]
    fn warmup_windows_produce_no_action() {
        let mut drs =
            DrsController::new(DrsConfig::min_latency(22), vec![8, 12, 2], pool(5)).unwrap();
        let actions = feed(&mut drs, 2, 0.9);
        assert!(actions.iter().all(|a| !a.is_rebalance()));
        assert!(drs.log()[0].recommendation.is_none());
    }

    #[test]
    fn active_controller_rebalances_to_optimum() {
        let mut drs =
            DrsController::new(DrsConfig::min_latency(22), vec![8, 12, 2], pool(5)).unwrap();
        let actions = feed(&mut drs, 5, 0.9);
        let rebalance = actions.iter().find(|a| a.is_rebalance());
        assert!(rebalance.is_some(), "controller should rebalance");
        if let Some(ControlAction::Rebalance { allocation, .. }) = rebalance {
            let total: u32 = allocation.iter().sum();
            assert_eq!(total, 22);
            // The optimum differs from the deliberately bad start.
            assert_ne!(allocation.as_slice(), &[8, 12, 2]);
        }
        // After converging, no further rebalances.
        let more = feed(&mut drs, 3, 0.5);
        assert!(more.iter().all(|a| !a.is_rebalance()));
    }

    #[test]
    fn passive_controller_never_acts_but_recommends() {
        let mut drs =
            DrsController::new(DrsConfig::min_latency(22), vec![8, 12, 2], pool(5)).unwrap();
        drs.set_active(false);
        let actions = feed(&mut drs, 6, 0.9);
        assert!(actions.iter().all(|a| !a.is_rebalance()));
        assert_eq!(drs.current_allocation(), &[8, 12, 2]);
        let rec = drs.last_recommendation().unwrap();
        assert_eq!(rec.total(), 22);
    }

    #[test]
    fn optimal_start_stays_put() {
        // First find the optimum passively, then start a fresh controller on
        // it: no rebalance should occur.
        let mut probe =
            DrsController::new(DrsConfig::min_latency(22), vec![8, 12, 2], pool(5)).unwrap();
        probe.set_active(false);
        feed(&mut probe, 4, 0.7);
        let optimal = probe.last_recommendation().unwrap().per_operator().to_vec();

        let mut drs =
            DrsController::new(DrsConfig::min_latency(22), optimal.clone(), pool(5)).unwrap();
        let actions = feed(&mut drs, 6, 0.7);
        assert!(actions.iter().all(|a| !a.is_rebalance()));
        assert_eq!(drs.current_allocation(), optimal.as_slice());
    }

    #[test]
    fn min_resources_scales_up_on_violation() {
        // ExpA shape: a tight Tmax (just above the 1.44 s no-queueing bound
        // of this network) while running the under-provisioned (8:8:1) on 4
        // machines. The measured sojourn violates the target, so DRS must
        // grow the allocation and add a machine.
        let cfg = DrsConfig::min_resources(2.1);
        let mut drs = DrsController::new(cfg, vec![8, 8, 1], pool(4)).unwrap();
        let actions = feed(&mut drs, 5, 3.5);
        let rebalance = actions.iter().find_map(|a| match a {
            ControlAction::Rebalance {
                allocation, plan, ..
            } => Some((allocation.clone(), *plan)),
            ControlAction::None => None,
        });
        let (allocation, plan) = rebalance.expect("should scale up");
        let total: u32 = allocation.iter().sum();
        assert!(total > 20, "needs more executors, got {total}");
        let plan = plan.expect("resource goal negotiates machines");
        assert!(plan.add_machines > 0);
        assert!(drs.pool().active_machines() > 4);
    }

    #[test]
    fn min_resources_scales_down_when_overprovisioned() {
        // ExpB shape: a loose Tmax while running the 22-executor optimum on
        // 5 machines; DRS frees a machine while still meeting the target.
        // (The minimum stable allocation of this network is 20 executors
        // with E[T] ≈ 5.2 s, so Tmax = 6 s fits in 4 machines.)
        let cfg = DrsConfig::min_resources(6.0);
        let mut drs = DrsController::new(cfg, vec![10, 11, 1], pool(5)).unwrap();
        let actions = feed(&mut drs, 5, 2.0);
        let rebalance = actions.iter().find_map(|a| match a {
            ControlAction::Rebalance {
                allocation, plan, ..
            } => Some((allocation.clone(), *plan)),
            ControlAction::None => None,
        });
        let (allocation, plan) = rebalance.expect("should scale down");
        let total: u32 = allocation.iter().sum();
        assert!(total < 22, "should free executors, got {total}");
        let plan = plan.expect("resource goal negotiates machines");
        assert!(plan.remove_machines > 0);
        assert!(drs.pool().active_machines() < 5);
    }

    #[test]
    fn insufficient_budget_is_logged_not_fatal() {
        // Kmax far below the stability requirement.
        let mut drs =
            DrsController::new(DrsConfig::min_latency(5), vec![2, 2, 1], pool(1)).unwrap();
        let actions = feed(&mut drs, 4, 2.0);
        assert!(actions.iter().all(|a| !a.is_rebalance()));
        assert!(drs.log().iter().any(|e| e
            .error
            .as_deref()
            .is_some_and(|s| s.contains("insufficient"))));
    }

    #[test]
    fn sync_allocation_updates_view() {
        let mut drs =
            DrsController::new(DrsConfig::min_latency(22), vec![8, 12, 2], pool(5)).unwrap();
        drs.sync_allocation(vec![10, 11, 1]);
        assert_eq!(drs.current_allocation(), &[10, 11, 1]);
    }

    #[test]
    fn empty_allocation_rejected() {
        assert!(matches!(
            DrsController::new(DrsConfig::min_latency(22), vec![], pool(1)),
            Err(ControllerError::EmptyAllocation)
        ));
    }

    #[test]
    fn cooldown_holds_after_rebalance() {
        let mut cfg = DrsConfig::min_latency(22);
        cfg.cooldown_windows = 3;
        let mut drs = DrsController::new(cfg, vec![8, 12, 2], pool(5)).unwrap();
        let actions = feed(&mut drs, 10, 0.9);
        // Exactly one rebalance: the first active window acts, the next
        // three are held, and by then the system is at the optimum.
        let idx: Vec<usize> = actions
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_rebalance())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(idx.len(), 1, "actions: {idx:?}");
        // The windows during cooldown carry no recommendation in the log.
        let first = idx[0];
        for e in &drs.log()[first + 1..first + 4] {
            assert!(
                e.recommendation.is_none(),
                "window {} acted in cooldown",
                e.window
            );
        }
    }

    #[test]
    fn log_records_every_window() {
        let mut drs =
            DrsController::new(DrsConfig::min_latency(22), vec![8, 12, 2], pool(5)).unwrap();
        feed(&mut drs, 7, 0.8);
        assert_eq!(drs.log().len(), 7);
        assert!(drs.log()[6].estimates.is_some());
        assert!(drs.log()[6].current_estimate.is_some());
    }
}
