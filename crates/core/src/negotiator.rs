//! The resource negotiator: machine-level provisioning below the CSP
//! resource manager (paper App. B-B and §V, Fig. 10).
//!
//! The scheduler reasons in *executors*; the cloud bills in *machines*
//! (workers / VMs), each hosting a bounded number of executors — the paper
//! caps 5 executors per machine to avoid co-location interference. The
//! negotiator translates a target executor count into machine launch/stop
//! actions and reports the pause cost those actions impose on the running
//! topology: launching machines is expensive (JVM re-use does not help —
//! ExpA measured a ~4.8 s spike) while stopping machines is cheap (~1.1 s).

use std::fmt;

/// Static description of the machine budget's economics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineBudgetConfig {
    /// Executors hosted per machine (the paper uses 5).
    pub executors_per_machine: u32,
    /// Machines that must always stay up (the paper keeps spouts + DRS on
    /// dedicated executors).
    pub min_machines: u32,
    /// Upper bound on machines the budget allows.
    pub max_machines: u32,
    /// Rebalance pause when adding machines (seconds): machine boot +
    /// topology restart. ExpA observed ≈ 4.8 s.
    pub grow_pause: f64,
    /// Rebalance pause when only removing machines (seconds). ExpB observed
    /// ≈ 1.1 s.
    pub shrink_pause: f64,
    /// Rebalance pause when the machine set is unchanged (seconds) — the
    /// improved DRS re-balancing that re-uses JVMs.
    pub steady_pause: f64,
}

impl Default for MachineBudgetConfig {
    fn default() -> Self {
        MachineBudgetConfig {
            executors_per_machine: 5,
            min_machines: 1,
            max_machines: 64,
            grow_pause: 4.8,
            shrink_pause: 1.1,
            steady_pause: 0.5,
        }
    }
}

/// Error from negotiator operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NegotiatorError {
    /// The configuration is internally inconsistent.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// The requested executor count cannot be served within
    /// `max_machines`.
    CapacityExceeded {
        /// Executors requested.
        requested: u64,
        /// Maximum executors the pool can ever provide.
        capacity: u64,
    },
}

impl fmt::Display for NegotiatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegotiatorError::InvalidConfig { reason } => {
                write!(f, "invalid machine pool config: {reason}")
            }
            NegotiatorError::CapacityExceeded {
                requested,
                capacity,
            } => write!(
                f,
                "requested {requested} executors exceeds pool capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for NegotiatorError {}

/// A provisioning step computed by [`MachineBudget::plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegotiationPlan {
    /// Machines to launch (0 when shrinking or steady).
    pub add_machines: u32,
    /// Machines to stop (0 when growing or steady).
    pub remove_machines: u32,
    /// Machine count after applying the plan.
    pub target_machines: u32,
    /// Executor capacity after applying the plan.
    pub target_executors: u32,
    /// Pause the combined provisioning + rebalance will impose (seconds).
    pub pause_secs: f64,
}

/// The count-based machine budget: tracks how many identical machines are
/// active and plans provisioning. (Machines with capacity vectors, for
/// placement, are [`crate::placement::MachinePool`].)
///
/// # Examples
///
/// ```
/// use drs_core::negotiator::{MachineBudget, MachineBudgetConfig};
///
/// // Paper setup: 5 executors per machine, 4 machines running (Kmax=17 with
/// // 3 executors reserved elsewhere is modelled by the caller).
/// let mut pool = MachineBudget::new(MachineBudgetConfig::default(), 4)?;
/// assert_eq!(pool.executor_capacity(), 20);
///
/// // Needing 22 executors forces a 5th machine and a costly pause.
/// let plan = pool.plan(22)?;
/// assert_eq!(plan.add_machines, 1);
/// assert!(plan.pause_secs >= 4.0);
/// pool.apply(&plan);
/// assert_eq!(pool.active_machines(), 5);
/// # Ok::<(), drs_core::negotiator::NegotiatorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineBudget {
    config: MachineBudgetConfig,
    active: u32,
}

/// The former name of [`MachineBudget`].
#[deprecated(note = "renamed to `MachineBudget`")]
pub type MachinePool = MachineBudget;

/// The former name of [`MachineBudgetConfig`].
#[deprecated(note = "renamed to `MachineBudgetConfig`")]
pub type MachinePoolConfig = MachineBudgetConfig;

impl MachineBudget {
    /// Creates a budget with `active` machines already running.
    ///
    /// # Errors
    ///
    /// * [`NegotiatorError::InvalidConfig`] — zero executors per machine,
    ///   `min > max`, negative pauses, or `active` outside `[min, max]`.
    pub fn new(config: MachineBudgetConfig, active: u32) -> Result<Self, NegotiatorError> {
        if config.executors_per_machine == 0 {
            return Err(NegotiatorError::InvalidConfig {
                reason: "executors_per_machine must be >= 1".to_owned(),
            });
        }
        if config.min_machines > config.max_machines {
            return Err(NegotiatorError::InvalidConfig {
                reason: format!(
                    "min_machines {} > max_machines {}",
                    config.min_machines, config.max_machines
                ),
            });
        }
        for (name, v) in [
            ("grow_pause", config.grow_pause),
            ("shrink_pause", config.shrink_pause),
            ("steady_pause", config.steady_pause),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(NegotiatorError::InvalidConfig {
                    reason: format!("{name} must be finite and >= 0, got {v}"),
                });
            }
        }
        if active < config.min_machines || active > config.max_machines {
            return Err(NegotiatorError::InvalidConfig {
                reason: format!(
                    "active machines {} outside [{}, {}]",
                    active, config.min_machines, config.max_machines
                ),
            });
        }
        Ok(MachineBudget { config, active })
    }

    /// The pool configuration.
    pub fn config(&self) -> &MachineBudgetConfig {
        &self.config
    }

    /// Machines currently running.
    pub fn active_machines(&self) -> u32 {
        self.active
    }

    /// Executors currently available.
    pub fn executor_capacity(&self) -> u32 {
        self.active * self.config.executors_per_machine
    }

    /// Largest executor count the pool could ever provide.
    pub(crate) fn max_executor_capacity(&self) -> u32 {
        self.config.max_machines * self.config.executors_per_machine
    }

    /// Fewest machines that can host `executors` executors, clamped to
    /// `min_machines`.
    pub(crate) fn machines_for(&self, executors: u32) -> u32 {
        let per = self.config.executors_per_machine;
        executors.div_ceil(per).max(self.config.min_machines)
    }

    /// Plans the machine changes needed to host exactly `executors`
    /// executors (shrinking when fewer machines suffice).
    ///
    /// # Errors
    ///
    /// * [`NegotiatorError::CapacityExceeded`] — `executors` above
    ///   `MachineBudget::max_executor_capacity`.
    pub fn plan(&self, executors: u32) -> Result<NegotiationPlan, NegotiatorError> {
        if executors > self.max_executor_capacity() {
            return Err(NegotiatorError::CapacityExceeded {
                requested: u64::from(executors),
                capacity: u64::from(self.max_executor_capacity()),
            });
        }
        let target = self.machines_for(executors);
        let (add, remove) = if target > self.active {
            (target - self.active, 0)
        } else {
            (0, self.active - target)
        };
        let pause = if add > 0 {
            self.config.grow_pause
        } else if remove > 0 {
            self.config.shrink_pause
        } else {
            self.config.steady_pause
        };
        Ok(NegotiationPlan {
            add_machines: add,
            remove_machines: remove,
            target_machines: target,
            target_executors: target * self.config.executors_per_machine,
            pause_secs: pause,
        })
    }

    /// Applies a plan, updating the active machine count.
    pub fn apply(&mut self, plan: &NegotiationPlan) {
        self.active = plan.target_machines;
    }

    /// Reverts a previously applied plan, restoring the pre-plan machine
    /// count — used when the CSP layer rejects the rebalance the plan was
    /// provisioned for, so the pool does not track phantom machines.
    pub(crate) fn revert(&mut self, plan: &NegotiationPlan) {
        self.active = plan.target_machines + plan.remove_machines - plan.add_machines;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(active: u32) -> MachineBudget {
        MachineBudget::new(MachineBudgetConfig::default(), active).unwrap()
    }

    #[test]
    fn capacity_accounting() {
        let p = pool(4);
        assert_eq!(p.executor_capacity(), 20);
        assert_eq!(p.max_executor_capacity(), 320);
        assert_eq!(p.machines_for(17), 4);
        assert_eq!(p.machines_for(20), 4);
        assert_eq!(p.machines_for(21), 5);
        assert_eq!(p.machines_for(0), 1); // min_machines floor
    }

    #[test]
    fn grow_plan_has_expensive_pause() {
        // ExpA: 17 -> 22 executors needs a 5th machine; pause ≈ grow_pause.
        let p = pool(4);
        let plan = p.plan(22).unwrap();
        assert_eq!(plan.add_machines, 1);
        assert_eq!(plan.remove_machines, 0);
        assert_eq!(plan.target_executors, 25);
        assert!((plan.pause_secs - 4.8).abs() < 1e-12);
    }

    #[test]
    fn shrink_plan_has_cheap_pause() {
        // ExpB: 22 -> 17 executors frees a machine; pause ≈ shrink_pause.
        let p = pool(5);
        let plan = p.plan(17).unwrap();
        assert_eq!(plan.add_machines, 0);
        assert_eq!(plan.remove_machines, 1);
        assert!((plan.pause_secs - 1.1).abs() < 1e-12);
    }

    #[test]
    fn steady_plan_costs_least() {
        let p = pool(5);
        let plan = p.plan(22).unwrap();
        assert_eq!((plan.add_machines, plan.remove_machines), (0, 0));
        assert!((plan.pause_secs - 0.5).abs() < 1e-12);
    }

    #[test]
    fn apply_updates_active_count() {
        let mut p = pool(4);
        let plan = p.plan(22).unwrap();
        p.apply(&plan);
        assert_eq!(p.active_machines(), 5);
        let plan = p.plan(8).unwrap();
        p.apply(&plan);
        assert_eq!(p.active_machines(), 2);
    }

    #[test]
    fn capacity_exceeded_detected() {
        let p = pool(4);
        assert!(matches!(
            p.plan(10_000),
            Err(NegotiatorError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = MachineBudgetConfig {
            executors_per_machine: 0,
            ..Default::default()
        };
        assert!(MachineBudget::new(cfg, 1).is_err());

        let cfg = MachineBudgetConfig {
            min_machines: 10,
            max_machines: 2,
            ..Default::default()
        };
        assert!(MachineBudget::new(cfg, 1).is_err());

        let cfg = MachineBudgetConfig {
            grow_pause: -1.0,
            ..Default::default()
        };
        assert!(MachineBudget::new(cfg, 1).is_err());

        assert!(MachineBudget::new(MachineBudgetConfig::default(), 0).is_err());
        assert!(MachineBudget::new(MachineBudgetConfig::default(), 1000).is_err());
    }
}
