//! The rebalance decision gate (paper App. B-B).
//!
//! "In a practical CSP system, resource allocation always incurs costs" —
//! pausing the topology, migrating state, restarting executors. The
//! scheduler therefore re-balances only when the *expected benefit* of the
//! candidate allocation outweighs the disruption. This module encodes that
//! cost/benefit policy.

use std::fmt;

/// Policy parameters for the rebalance gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionPolicy {
    /// Minimum *relative* improvement of expected sojourn
    /// `(E_cur − E_new)/E_cur` required before a rebalance is worthwhile
    /// when the system is currently meeting its target.
    pub min_relative_improvement: f64,
    /// Horizon (seconds) over which latency savings are credited when
    /// weighing them against the pause cost.
    pub amortization_horizon: f64,
    /// Hysteresis on the latency target: a violation triggers action only
    /// when the (smoothed) sojourn exceeds `t_max · (1 + violation_margin)`.
    /// Prevents flapping on windows that graze the target.
    pub violation_margin: f64,
    /// Minimum executors a scale-down must free to be worth its pause.
    pub min_executor_savings: u32,
}

impl Default for DecisionPolicy {
    fn default() -> Self {
        DecisionPolicy {
            min_relative_improvement: 0.10,
            amortization_horizon: 300.0,
            violation_margin: 0.05,
            min_executor_savings: 1,
        }
    }
}

/// Everything the gate needs to decide one round.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionInputs {
    /// The allocation currently running.
    pub current_allocation: Vec<u32>,
    /// Model-estimated `E[T]` of the current allocation (seconds); infinite
    /// when the current allocation is unstable under measured rates.
    pub current_estimate: f64,
    /// The candidate allocation from the optimiser.
    pub candidate_allocation: Vec<u32>,
    /// Model-estimated `E[T]` of the candidate (seconds).
    pub candidate_estimate: f64,
    /// Pause the rebalance (plus any machine changes) would impose
    /// (seconds).
    pub pause_secs: f64,
    /// The real-time constraint `Tmax` (seconds), if the application has
    /// one. A measured or predicted violation forces urgency.
    pub t_max: Option<f64>,
    /// Measured mean sojourn time (seconds), when available.
    pub measured_sojourn: Option<f64>,
}

/// The gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Keep the current allocation.
    Keep {
        /// Why the rebalance was declined.
        reason: KeepReason,
    },
    /// Re-balance to the candidate allocation.
    Rebalance {
        /// Why the rebalance is justified.
        reason: RebalanceReason,
    },
}

impl Decision {
    /// Whether the decision is to rebalance.
    pub(crate) fn is_rebalance(&self) -> bool {
        matches!(self, Decision::Rebalance { .. })
    }
}

/// Reasons for keeping the current allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// Candidate is identical to the current allocation.
    AlreadyOptimal,
    /// The improvement is below the policy threshold.
    ImprovementTooSmall,
    /// The pause cost exceeds the amortised benefit.
    CostExceedsBenefit,
    /// The candidate is no better than the current allocation.
    NoImprovement,
}

/// Reasons for re-balancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceReason {
    /// The measured sojourn violates `Tmax` and the candidate helps.
    TargetViolated,
    /// The model predicts the current allocation is unstable (infinite
    /// sojourn) under the measured rates.
    CurrentUnstable,
    /// The candidate frees resources while still meeting the target.
    SavesResources,
    /// The candidate improves latency enough to justify the pause.
    LatencyImprovement,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Keep { reason } => write!(f, "keep ({reason:?})"),
            Decision::Rebalance { reason } => write!(f, "rebalance ({reason:?})"),
        }
    }
}

/// [`DecisionInputs`] over borrowed allocations: what [`decide`] actually
/// reads. The fleet driver consults the gate for thousands of shards per
/// window straight from buffers it already holds, without cloning either
/// allocation into an owned `DecisionInputs`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecisionView<'a> {
    pub(crate) current_allocation: &'a [u32],
    pub(crate) current_estimate: f64,
    pub(crate) candidate_allocation: &'a [u32],
    pub(crate) candidate_estimate: f64,
    pub(crate) pause_secs: f64,
    pub(crate) t_max: Option<f64>,
    pub(crate) measured_sojourn: Option<f64>,
}

/// Applies the policy to one round of inputs.
///
/// Decision order:
/// 1. identical candidate → keep;
/// 2. current allocation unstable under the fitted model → rebalance —
///    unless a latency target exists and the *measured* sojourn still meets
///    it (then the instability verdict is treated as model noise near the
///    stability boundary, avoiding flapping at utilisation ≈ 1);
/// 3. measured (or estimated) sojourn above `Tmax·(1+margin)` while the
///    candidate improves → rebalance;
/// 4. candidate frees at least `min_executor_savings` processors while
///    meeting `Tmax` → rebalance (the ExpB scale-down of Fig. 10);
/// 5. otherwise require the relative improvement threshold *and* an
///    amortised benefit `(E_cur − E_new)·horizon` exceeding the pause cost.
pub fn decide(policy: &DecisionPolicy, inputs: &DecisionInputs) -> Decision {
    decide_view(
        policy,
        &DecisionView {
            current_allocation: &inputs.current_allocation,
            current_estimate: inputs.current_estimate,
            candidate_allocation: &inputs.candidate_allocation,
            candidate_estimate: inputs.candidate_estimate,
            pause_secs: inputs.pause_secs,
            t_max: inputs.t_max,
            measured_sojourn: inputs.measured_sojourn,
        },
    )
}

/// [`decide`] on borrowed allocations.
pub(crate) fn decide_view(policy: &DecisionPolicy, inputs: &DecisionView<'_>) -> Decision {
    if inputs.candidate_allocation == inputs.current_allocation {
        return Decision::Keep {
            reason: KeepReason::AlreadyOptimal,
        };
    }
    let threshold = inputs.t_max.map(|t| t * (1.0 + policy.violation_margin));
    if inputs.current_estimate.is_infinite() && inputs.candidate_estimate.is_finite() {
        let delivering = match (threshold, inputs.measured_sojourn) {
            (Some(t), Some(m)) => m <= t,
            _ => false,
        };
        if !delivering {
            return Decision::Rebalance {
                reason: RebalanceReason::CurrentUnstable,
            };
        }
        // Model says unstable but the measured latency meets the target:
        // treat as boundary noise and fall through to the economic gates.
    }
    let improvement = inputs.current_estimate - inputs.candidate_estimate;

    if let (Some(t_max), Some(threshold)) = (inputs.t_max, threshold) {
        let violated = inputs
            .measured_sojourn
            .map_or(inputs.current_estimate > threshold, |m| m > threshold);
        if violated && (improvement > 0.0 || inputs.current_estimate.is_infinite()) {
            return Decision::Rebalance {
                reason: RebalanceReason::TargetViolated,
            };
        }
        // Scale-down: candidate meets the target with enough fewer
        // processors to pay for the pause.
        let current_total: u64 = inputs
            .current_allocation
            .iter()
            .map(|&k| u64::from(k))
            .sum();
        let candidate_total: u64 = inputs
            .candidate_allocation
            .iter()
            .map(|&k| u64::from(k))
            .sum();
        if !violated
            && candidate_total + u64::from(policy.min_executor_savings) <= current_total
            && inputs.candidate_estimate <= t_max
        {
            return Decision::Rebalance {
                reason: RebalanceReason::SavesResources,
            };
        }
        // Near-boundary cases (model unstable but measured fine) stop here:
        // latency-improvement economics below need a finite current
        // estimate.
        if inputs.current_estimate.is_infinite() {
            return Decision::Keep {
                reason: KeepReason::NoImprovement,
            };
        }
    }

    if improvement <= 0.0 {
        return Decision::Keep {
            reason: KeepReason::NoImprovement,
        };
    }
    let relative = improvement / inputs.current_estimate;
    if relative < policy.min_relative_improvement {
        return Decision::Keep {
            reason: KeepReason::ImprovementTooSmall,
        };
    }
    // Credit the latency saving over the horizon and compare with the pause:
    // during `pause_secs` the pipeline effectively adds that much latency to
    // in-flight tuples once.
    let benefit = improvement * policy.amortization_horizon;
    if benefit <= inputs.pause_secs {
        return Decision::Keep {
            reason: KeepReason::CostExceedsBenefit,
        };
    }
    Decision::Rebalance {
        reason: RebalanceReason::LatencyImprovement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_inputs() -> DecisionInputs {
        DecisionInputs {
            current_allocation: vec![8, 12, 2],
            current_estimate: 0.9,
            candidate_allocation: vec![10, 11, 1],
            candidate_estimate: 0.5,
            pause_secs: 0.5,
            t_max: None,
            measured_sojourn: None,
        }
    }

    #[test]
    fn identical_candidate_keeps() {
        let mut inputs = base_inputs();
        inputs.candidate_allocation = inputs.current_allocation.clone();
        let d = decide(&DecisionPolicy::default(), &inputs);
        assert_eq!(
            d,
            Decision::Keep {
                reason: KeepReason::AlreadyOptimal
            }
        );
    }

    #[test]
    fn unstable_current_forces_rebalance() {
        let mut inputs = base_inputs();
        inputs.current_estimate = f64::INFINITY;
        let d = decide(&DecisionPolicy::default(), &inputs);
        assert_eq!(
            d,
            Decision::Rebalance {
                reason: RebalanceReason::CurrentUnstable
            }
        );
    }

    #[test]
    fn measured_violation_forces_rebalance() {
        let mut inputs = base_inputs();
        inputs.t_max = Some(0.5);
        inputs.measured_sojourn = Some(0.8); // above Tmax
        let d = decide(&DecisionPolicy::default(), &inputs);
        assert_eq!(
            d,
            Decision::Rebalance {
                reason: RebalanceReason::TargetViolated
            }
        );
    }

    #[test]
    fn scale_down_when_target_met_with_fewer_processors() {
        // ExpB: system comfortably under Tmax; candidate frees executors.
        let inputs = DecisionInputs {
            current_allocation: vec![10, 11, 1], // 22 executors
            current_estimate: 0.45,
            candidate_allocation: vec![8, 8, 1], // 17 executors
            candidate_estimate: 0.85,
            pause_secs: 1.1,
            t_max: Some(1.0),
            measured_sojourn: Some(0.5),
        };
        let d = decide(&DecisionPolicy::default(), &inputs);
        assert_eq!(
            d,
            Decision::Rebalance {
                reason: RebalanceReason::SavesResources
            }
        );
    }

    #[test]
    fn no_scale_down_if_candidate_would_violate() {
        let inputs = DecisionInputs {
            current_allocation: vec![10, 11, 1],
            current_estimate: 0.45,
            candidate_allocation: vec![8, 8, 1],
            candidate_estimate: 1.2, // would exceed Tmax = 1.0
            pause_secs: 1.1,
            t_max: Some(1.0),
            measured_sojourn: Some(0.5),
        };
        let d = decide(&DecisionPolicy::default(), &inputs);
        assert!(!d.is_rebalance(), "{d}");
    }

    #[test]
    fn latency_improvement_requires_threshold() {
        let mut inputs = base_inputs();
        inputs.candidate_estimate = 0.88; // only ~2% better
        let d = decide(&DecisionPolicy::default(), &inputs);
        assert_eq!(
            d,
            Decision::Keep {
                reason: KeepReason::ImprovementTooSmall
            }
        );
    }

    #[test]
    fn latency_improvement_requires_amortized_benefit() {
        let mut inputs = base_inputs();
        inputs.pause_secs = 1_000.0; // absurdly expensive rebalance
        let d = decide(
            &DecisionPolicy {
                min_relative_improvement: 0.1,
                amortization_horizon: 100.0,
                ..Default::default()
            },
            &inputs,
        );
        assert_eq!(
            d,
            Decision::Keep {
                reason: KeepReason::CostExceedsBenefit
            }
        );
    }

    #[test]
    fn clear_improvement_rebalances() {
        let d = decide(&DecisionPolicy::default(), &base_inputs());
        assert_eq!(
            d,
            Decision::Rebalance {
                reason: RebalanceReason::LatencyImprovement
            }
        );
    }

    #[test]
    fn worse_candidate_keeps() {
        let mut inputs = base_inputs();
        inputs.candidate_estimate = 1.5;
        let d = decide(&DecisionPolicy::default(), &inputs);
        assert_eq!(
            d,
            Decision::Keep {
                reason: KeepReason::NoImprovement
            }
        );
    }

    #[test]
    fn display_is_informative() {
        let d = decide(&DecisionPolicy::default(), &base_inputs());
        assert!(d.to_string().contains("rebalance"));
    }

    #[test]
    fn boundary_instability_with_healthy_measurement_keeps() {
        // ρ ≈ 1 noise: the model calls the current allocation unstable, but
        // the measured sojourn comfortably meets Tmax — no flapping.
        let inputs = DecisionInputs {
            current_allocation: vec![8, 8, 1],
            current_estimate: f64::INFINITY,
            candidate_allocation: vec![8, 9, 1],
            candidate_estimate: 1.8,
            pause_secs: 0.5,
            t_max: Some(15.0),
            measured_sojourn: Some(2.0),
        };
        let d = decide(&DecisionPolicy::default(), &inputs);
        assert!(!d.is_rebalance(), "{d}");
    }

    #[test]
    fn boundary_instability_with_violation_still_rebalances() {
        let inputs = DecisionInputs {
            current_allocation: vec![8, 8, 1],
            current_estimate: f64::INFINITY,
            candidate_allocation: vec![10, 11, 1],
            candidate_estimate: 1.3,
            pause_secs: 4.8,
            t_max: Some(1.4),
            measured_sojourn: Some(3.0), // well above target
        };
        let d = decide(&DecisionPolicy::default(), &inputs);
        assert!(d.is_rebalance(), "{d}");
    }

    #[test]
    fn violation_margin_damps_grazing_windows() {
        // Measured 1.43 s against Tmax 1.4 s: within the 5% margin, so no
        // action.
        let inputs = DecisionInputs {
            current_allocation: vec![10, 11, 1],
            current_estimate: 1.35,
            candidate_allocation: vec![11, 11, 1],
            candidate_estimate: 1.30,
            pause_secs: 0.5,
            t_max: Some(1.4),
            measured_sojourn: Some(1.43),
        };
        let d = decide(&DecisionPolicy::default(), &inputs);
        assert!(!d.is_rebalance(), "{d}");
        // Beyond the margin it acts.
        let mut hot = inputs;
        hot.measured_sojourn = Some(1.55);
        let d = decide(&DecisionPolicy::default(), &hot);
        assert_eq!(
            d,
            Decision::Rebalance {
                reason: RebalanceReason::TargetViolated
            }
        );
    }

    #[test]
    fn min_executor_savings_blocks_marginal_scale_down() {
        let policy = DecisionPolicy {
            min_executor_savings: 2,
            ..Default::default()
        };
        let inputs = DecisionInputs {
            current_allocation: vec![10, 11, 1], // 22
            current_estimate: 1.2,
            candidate_allocation: vec![10, 10, 1], // 21: saves only 1
            candidate_estimate: 1.35,
            pause_secs: 1.1,
            t_max: Some(15.0),
            measured_sojourn: Some(1.25),
        };
        let d = decide(&policy, &inputs);
        assert!(!d.is_rebalance(), "{d}");
        // Freeing two executors clears the bar.
        let mut bigger = inputs;
        bigger.candidate_allocation = vec![9, 10, 1];
        bigger.candidate_estimate = 1.6;
        let d = decide(&policy, &bigger);
        assert_eq!(
            d,
            Decision::Rebalance {
                reason: RebalanceReason::SavesResources
            }
        );
    }
}
