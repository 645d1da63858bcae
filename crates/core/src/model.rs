//! The DRS performance model (paper §III-B).
//!
//! [`PerformanceModel`] packages the measured quantities — external rate
//! `λ̂0` and per-operator `(λ̂_i, µ̂_i)` — into the Jackson/Erlang estimator
//! of Eq. 1–3 and exposes the queries the controller needs: expected sojourn
//! under an allocation, per-operator breakdowns and stability boundaries.
//!
//! The model deliberately ignores network delay (paper §III-A/B): when
//! transfer costs dominate — as in the FPD application — estimates are
//! systematically low but remain *rank-correlated* with the truth, which is
//! all the optimiser needs (shown in paper Figs. 7–8 and reproduced by the
//! `fig7`/`fig8` benches).

use drs_queueing::jackson::{JacksonError, JacksonNetwork};

/// Measured rates of one operator, as produced by the measurer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorRates {
    /// Mean aggregate arrival rate `λ̂_i` (tuples/second).
    pub arrival_rate: f64,
    /// Mean per-executor service rate `µ̂_i` (tuples/second).
    pub service_rate: f64,
}

/// The model inputs for one scheduling round.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInputs {
    /// External arrival rate `λ̂0` into the whole application.
    pub external_rate: f64,
    /// Per-operator measured rates in model index order.
    pub operators: Vec<OperatorRates>,
}

/// The DRS performance model: estimates `E[T]` for arbitrary allocations.
///
/// # Examples
///
/// ```
/// use drs_core::model::{ModelInputs, OperatorRates, PerformanceModel};
///
/// let model = PerformanceModel::new(&ModelInputs {
///     external_rate: 13.0,
///     operators: vec![
///         OperatorRates { arrival_rate: 13.0, service_rate: 1.6 },
///         OperatorRates { arrival_rate: 390.0, service_rate: 40.0 },
///         OperatorRates { arrival_rate: 390.0, service_rate: 450.0 },
///     ],
/// })?;
/// let t = model.expected_sojourn(&[10, 11, 1])?;
/// assert!(t.is_finite());
/// # Ok::<(), drs_queueing::jackson::JacksonError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceModel {
    network: JacksonNetwork,
}

impl PerformanceModel {
    /// Builds the model from measured inputs.
    ///
    /// # Errors
    ///
    /// Rejects non-positive `external_rate`, negative arrival rates or
    /// non-positive service rates.
    pub fn new(inputs: &ModelInputs) -> Result<Self, JacksonError> {
        let pairs: Vec<(f64, f64)> = inputs
            .operators
            .iter()
            .map(|r| (r.arrival_rate, r.service_rate))
            .collect();
        Ok(PerformanceModel {
            network: JacksonNetwork::from_rates(inputs.external_rate, &pairs)?,
        })
    }

    /// The underlying Jackson network (for direct use by the scheduler).
    pub fn network(&self) -> &JacksonNetwork {
        &self.network
    }

    /// Expected total sojourn time (seconds) under `allocation` (Eq. 3).
    /// Infinite if any operator would be unstable.
    ///
    /// # Errors
    ///
    /// Returns an error when `allocation.len()` differs from the number of
    /// operators.
    pub fn expected_sojourn(&self, allocation: &[u32]) -> Result<f64, JacksonError> {
        self.network.expected_sojourn(allocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vld_inputs() -> ModelInputs {
        ModelInputs {
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
        }
    }

    #[test]
    fn model_estimates_finite_sojourn_for_stable_allocations() {
        let model = PerformanceModel::new(&vld_inputs()).unwrap();
        let t = model.expected_sojourn(&[10, 11, 1]).unwrap();
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn unstable_allocation_is_infinite() {
        let model = PerformanceModel::new(&vld_inputs()).unwrap();
        // Operator 0 needs ceil(13/1.6)=9 executors; 8 is unstable.
        let t = model.expected_sojourn(&[8, 13, 1]).unwrap();
        assert!(t.is_infinite());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut bad = vld_inputs();
        bad.external_rate = 0.0;
        assert!(PerformanceModel::new(&bad).is_err());

        let mut bad = vld_inputs();
        bad.operators[1].service_rate = 0.0;
        assert!(PerformanceModel::new(&bad).is_err());
    }
}
