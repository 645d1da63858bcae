//! DRS configuration (paper App. B-C: the configuration reader).
//!
//! [`DrsConfig`] gathers the tunables the control loop reads: the optimisation
//! goal (Program 4 vs Program 6), measurement smoothing, the rebalance
//! decision policy and the warm-up horizon.

use crate::decision::DecisionPolicy;
use crate::measurer::{InvalidSmoothing, Smoothing};
use std::fmt;

/// Which optimisation problem DRS solves each round (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizationGoal {
    /// Program 4: minimise expected sojourn given at most `k_max`
    /// processors.
    MinLatency {
        /// The processor budget `Kmax`.
        k_max: u32,
    },
    /// Program 6: minimise processors subject to `E[T] ≤ t_max` seconds;
    /// machines are grown/shrunk through the negotiator.
    MinResources {
        /// The real-time constraint `Tmax` in seconds.
        t_max_secs: f64,
    },
}

impl OptimizationGoal {
    /// The latency target, when the goal has one.
    pub(crate) fn t_max(&self) -> Option<f64> {
        match *self {
            OptimizationGoal::MinLatency { .. } => None,
            OptimizationGoal::MinResources { t_max_secs } => Some(t_max_secs),
        }
    }
}

impl fmt::Display for OptimizationGoal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizationGoal::MinLatency { k_max } => {
                write!(f, "min-latency(Kmax={k_max})")
            }
            OptimizationGoal::MinResources { t_max_secs } => {
                write!(f, "min-resources(Tmax={t_max_secs}s)")
            }
        }
    }
}

/// Full DRS configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrsConfig {
    /// The optimisation goal.
    pub goal: OptimizationGoal,
    /// Metric smoothing strategy.
    pub smoothing: Smoothing,
    /// Rebalance cost/benefit policy.
    pub policy: DecisionPolicy,
    /// Number of initial measurement windows to observe before acting
    /// (estimates are unreliable while queues fill).
    pub warmup_windows: u64,
    /// Windows to hold after executing a rebalance before considering
    /// another. The pause pollutes the next window's sojourn measurements
    /// (queued tuples carry the pause in their latency); holding lets the
    /// queues drain and the smoothed metrics recover, preventing
    /// flap-chains after a scaling action.
    pub cooldown_windows: u64,
}

impl DrsConfig {
    /// A sensible configuration for Program 4 with the given budget.
    pub fn min_latency(k_max: u32) -> Self {
        DrsConfig {
            goal: OptimizationGoal::MinLatency { k_max },
            smoothing: Smoothing::Alpha { alpha: 0.5 },
            policy: DecisionPolicy::default(),
            warmup_windows: 2,
            cooldown_windows: 1,
        }
    }

    /// A sensible configuration for Program 6 with the given target
    /// (seconds).
    pub fn min_resources(t_max_secs: f64) -> Self {
        DrsConfig {
            goal: OptimizationGoal::MinResources { t_max_secs },
            smoothing: Smoothing::Alpha { alpha: 0.5 },
            policy: DecisionPolicy::default(),
            warmup_windows: 2,
            cooldown_windows: 1,
        }
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Rejects invalid smoothing parameters or a non-positive `Tmax`.
    pub(crate) fn validate(&self) -> Result<(), InvalidConfig> {
        self.smoothing
            .validate()
            .map_err(InvalidConfig::Smoothing)?;
        if let OptimizationGoal::MinResources { t_max_secs } = self.goal {
            if !t_max_secs.is_finite() || t_max_secs <= 0.0 {
                return Err(InvalidConfig::Other(format!(
                    "Tmax must be finite and positive, got {t_max_secs}"
                )));
            }
        }
        Ok(())
    }
}

/// Why a [`DrsConfig`] is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidConfig {
    /// The smoothing parameters are invalid.
    Smoothing(InvalidSmoothing),
    /// Another constraint failed.
    Other(String),
}

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidConfig::Smoothing(e) => write!(f, "{e}"),
            InvalidConfig::Other(s) => write!(f, "invalid DRS config: {s}"),
        }
    }
}

impl std::error::Error for InvalidConfig {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InvalidConfig::Smoothing(e) => Some(e),
            InvalidConfig::Other(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        DrsConfig::min_latency(22).validate().unwrap();
        DrsConfig::min_resources(0.5).validate().unwrap();
    }

    #[test]
    fn goal_exposes_t_max() {
        assert_eq!(OptimizationGoal::MinLatency { k_max: 22 }.t_max(), None);
        assert_eq!(
            OptimizationGoal::MinResources { t_max_secs: 0.5 }.t_max(),
            Some(0.5)
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = DrsConfig::min_resources(-1.0);
        assert!(c.validate().is_err());
        c = DrsConfig::min_latency(22);
        c.smoothing = Smoothing::Alpha { alpha: 2.0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn goals_display() {
        assert!(OptimizationGoal::MinLatency { k_max: 22 }
            .to_string()
            .contains("Kmax=22"));
        assert!(OptimizationGoal::MinResources { t_max_secs: 0.5 }
            .to_string()
            .contains("Tmax=0.5"));
    }
}
