//! Open Jackson-network aggregation of per-operator `M/M/k` models.
//!
//! The DRS performance model (paper §III-B, Eq. 3) estimates the expected
//! *total sojourn time* of an external input — the time from its arrival
//! until it is *fully processed*, i.e. until every intermediate tuple derived
//! from it has been processed — as the λ-weighted average of per-operator
//! expected sojourn times:
//!
//! ```text
//! E[T](k) = (1/λ0) · Σ_i  λ_i · E[T_i](k_i)
//! ```
//!
//! where `λ0` is the external arrival rate into the whole network, `λ_i` the
//! equilibrium arrival rate at operator `i`, and `E[T_i](k_i)` the Erlang
//! sojourn time of [`crate::erlang::MmKQueue`]. The weights `λ_i/λ0` count
//! the expected number of visits each external input induces at operator `i`
//! (including fan-out amplification), which is exactly how Jackson's theorem
//! aggregates node delays in an open network.

use crate::erlang::{InvalidQueue, MmKQueue};
use std::fmt;

/// Error from building or evaluating a Jackson network.
#[derive(Debug, Clone, PartialEq)]
pub enum JacksonError {
    /// A per-node queue had invalid rates.
    InvalidQueue(InvalidQueue),
    /// The external rate λ0 was non-positive or non-finite.
    InvalidExternalRate {
        /// The rejected rate.
        rate: f64,
    },
    /// An allocation vector had the wrong length.
    AllocationLength {
        /// Expected number of operators.
        expected: usize,
        /// Supplied allocation length.
        actual: usize,
    },
}

impl fmt::Display for JacksonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JacksonError::InvalidQueue(e) => write!(f, "{e}"),
            JacksonError::InvalidExternalRate { rate } => {
                write!(
                    f,
                    "external arrival rate must be finite and > 0, got {rate}"
                )
            }
            JacksonError::AllocationLength { expected, actual } => write!(
                f,
                "allocation vector length {actual} does not match {expected} operators"
            ),
        }
    }
}

impl std::error::Error for JacksonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JacksonError::InvalidQueue(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InvalidQueue> for JacksonError {
    fn from(e: InvalidQueue) -> Self {
        JacksonError::InvalidQueue(e)
    }
}

/// Per-operator contribution to the network sojourn time, returned by
/// [`JacksonNetwork::sojourn_breakdown`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorSojourn {
    /// Operator index.
    pub index: usize,
    /// Equilibrium arrival rate λ_i.
    pub arrival_rate: f64,
    /// Processors allocated.
    pub servers: u32,
    /// Expected per-visit sojourn time `E[T_i](k_i)`.
    pub sojourn: f64,
    /// Contribution `λ_i · E[T_i](k_i) / λ0` to the network total.
    pub weighted: f64,
}

/// An open Jackson network of `M/M/k` operators.
///
/// Constructed from measured rates ([`JacksonNetwork::from_rates`]): the
/// measurer observes every `λ̂_i` directly. For a gain topology, solve the
/// traffic equations first and pass the rates they give.
///
/// # Examples
///
/// ```
/// use drs_queueing::jackson::JacksonNetwork;
///
/// // Two-operator video pipeline: frames at 13/s fan out to 390 features/s.
/// let net = JacksonNetwork::from_rates(13.0, &[(13.0, 2.0), (390.0, 45.0)])?;
/// let t = net.expected_sojourn(&[8, 10])?;
/// assert!(t.is_finite() && t > 0.0);
/// // Starving an operator gives an infinite estimate.
/// assert!(net.expected_sojourn(&[6, 10])?.is_infinite());
/// # Ok::<(), drs_queueing::jackson::JacksonError>(())
/// ```
#[derive(Debug, PartialEq)]
pub struct JacksonNetwork {
    external_rate: f64,
    nodes: Vec<MmKQueue>,
}

// Manual impl so `clone_from` reuses the node buffer: callers that refresh
// a cached network in place (the fleet driver does, every time a shard's
// smoothed demand changes) must not pay an allocation per refresh.
impl Clone for JacksonNetwork {
    fn clone(&self) -> Self {
        JacksonNetwork {
            external_rate: self.external_rate,
            nodes: self.nodes.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.external_rate = source.external_rate;
        self.nodes.clone_from(&source.nodes);
    }
}

impl JacksonNetwork {
    /// Builds a network from the external arrival rate `λ0` and per-operator
    /// `(λ_i, µ_i)` pairs — the measured form used by the DRS controller.
    ///
    /// # Errors
    ///
    /// * [`JacksonError::InvalidExternalRate`] — `λ0` non-positive/non-finite.
    /// * [`JacksonError::InvalidQueue`] — some `(λ_i, µ_i)` pair is invalid.
    pub fn from_rates(external_rate: f64, operators: &[(f64, f64)]) -> Result<Self, JacksonError> {
        let mut network = JacksonNetwork {
            external_rate,
            nodes: Vec::new(),
        };
        network.set_rates(external_rate, operators.iter().copied())?;
        Ok(network)
    }

    /// In-place [`from_rates`](Self::from_rates): refits this network to
    /// `λ0` and the `(λ_i, µ_i)` pairs, reusing the node buffer — a caller
    /// that refits one cached network per measurement window pays no
    /// allocation once the buffer fits. The buffer is sized to the operator
    /// count exactly, never grown amortised.
    ///
    /// # Errors
    ///
    /// As for [`from_rates`](Self::from_rates), in the same precedence. On
    /// an invalid `λ0` the network is untouched; on an invalid pair it is
    /// left with no operators.
    pub fn set_rates<I>(&mut self, external_rate: f64, operators: I) -> Result<(), JacksonError>
    where
        I: IntoIterator<Item = (f64, f64)>,
        I::IntoIter: ExactSizeIterator,
    {
        if !external_rate.is_finite() || external_rate <= 0.0 {
            return Err(JacksonError::InvalidExternalRate {
                rate: external_rate,
            });
        }
        let operators = operators.into_iter();
        self.external_rate = external_rate;
        self.nodes.clear();
        self.nodes.reserve_exact(operators.len());
        for (lambda, mu) in operators {
            match MmKQueue::new(lambda, mu) {
                Ok(node) => self.nodes.push(node),
                Err(e) => {
                    self.nodes.clear();
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// External arrival rate λ0.
    pub fn external_rate(&self) -> f64 {
        self.external_rate
    }

    /// The per-operator `M/M/k` models.
    pub fn operators(&self) -> &[MmKQueue] {
        &self.nodes
    }

    /// Expected total sojourn time `E[T](k)` under allocation `k` (Eq. 3).
    ///
    /// Returns `f64::INFINITY` if any operator is unstable under its
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`JacksonError::AllocationLength`] if `allocation.len()`
    /// differs from the operator count.
    pub fn expected_sojourn(&self, allocation: &[u32]) -> Result<f64, JacksonError> {
        self.check_allocation(allocation)?;
        let mut total = 0.0;
        for (node, &k) in self.nodes.iter().zip(allocation) {
            let t = node.expected_sojourn(k);
            if t.is_infinite() {
                return Ok(f64::INFINITY);
            }
            total += node.arrival_rate() * t;
        }
        Ok(total / self.external_rate)
    }

    /// Per-operator breakdown of Eq. 3 under allocation `k`.
    ///
    /// # Errors
    ///
    /// Returns [`JacksonError::AllocationLength`] on length mismatch.
    pub fn sojourn_breakdown(
        &self,
        allocation: &[u32],
    ) -> Result<Vec<OperatorSojourn>, JacksonError> {
        self.check_allocation(allocation)?;
        Ok(self
            .nodes
            .iter()
            .zip(allocation)
            .enumerate()
            .map(|(index, (node, &k))| {
                let sojourn = node.expected_sojourn(k);
                OperatorSojourn {
                    index,
                    arrival_rate: node.arrival_rate(),
                    servers: k,
                    sojourn,
                    weighted: node.arrival_rate() * sojourn / self.external_rate,
                }
            })
            .collect())
    }

    /// The minimum feasible allocation: each operator gets its
    /// [`MmKQueue::min_stable_servers`].
    pub fn min_stable_allocation(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .map(MmKQueue::min_stable_servers)
            .collect()
    }

    /// Total processors of the minimum feasible allocation.
    pub fn min_total_servers(&self) -> u64 {
        self.nodes
            .iter()
            .map(|node| u64::from(node.min_stable_servers()))
            .sum()
    }

    /// Whether every operator is stable under `allocation`.
    ///
    /// # Errors
    ///
    /// Returns [`JacksonError::AllocationLength`] on length mismatch.
    pub fn is_stable(&self, allocation: &[u32]) -> Result<bool, JacksonError> {
        self.check_allocation(allocation)?;
        Ok(self
            .nodes
            .iter()
            .zip(allocation)
            .all(|(node, &k)| node.is_stable(k)))
    }

    fn check_allocation(&self, allocation: &[u32]) -> Result<(), JacksonError> {
        if allocation.len() != self.nodes.len() {
            Err(JacksonError::AllocationLength {
                expected: self.nodes.len(),
                actual: allocation.len(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficEquations;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b} (tol {tol})");
    }

    #[test]
    fn single_node_network_reduces_to_erlang() {
        let net = JacksonNetwork::from_rates(5.0, &[(5.0, 2.0)]).unwrap();
        let q = MmKQueue::new(5.0, 2.0).unwrap();
        for k in 3..10 {
            assert_close(
                net.expected_sojourn(&[k]).unwrap(),
                q.expected_sojourn(k),
                1e-12,
            );
        }
    }

    #[test]
    fn eq3_weighted_average() {
        // Two nodes visited once each (λ_i = λ0): E[T] = E[T1] + E[T2],
        // i.e. a tandem line where sojourn times add.
        let net = JacksonNetwork::from_rates(4.0, &[(4.0, 3.0), (4.0, 6.0)]).unwrap();
        let q1 = MmKQueue::new(4.0, 3.0).unwrap();
        let q2 = MmKQueue::new(4.0, 6.0).unwrap();
        let t = net.expected_sojourn(&[3, 2]).unwrap();
        assert_close(t, q1.expected_sojourn(3) + q2.expected_sojourn(2), 1e-12);
    }

    #[test]
    fn fanout_weights_scale_contribution() {
        // Second operator sees 10x the external rate (fan-out), so its
        // per-visit delay is weighted 10x.
        let net = JacksonNetwork::from_rates(2.0, &[(2.0, 1.0), (20.0, 8.0)]).unwrap();
        let q1 = MmKQueue::new(2.0, 1.0).unwrap();
        let q2 = MmKQueue::new(20.0, 8.0).unwrap();
        let t = net.expected_sojourn(&[4, 4]).unwrap();
        let expect = (2.0 * q1.expected_sojourn(4) + 20.0 * q2.expected_sojourn(4)) / 2.0;
        assert_close(t, expect, 1e-12);
    }

    #[test]
    fn unstable_operator_makes_network_infinite() {
        let net = JacksonNetwork::from_rates(10.0, &[(10.0, 3.0), (10.0, 3.0)]).unwrap();
        assert!(net.expected_sojourn(&[3, 4]).unwrap().is_infinite());
        assert!(!net.is_stable(&[3, 4]).unwrap());
        assert!(net.is_stable(&[4, 4]).unwrap());
    }

    #[test]
    fn min_stable_allocation_is_feasible_and_tight() {
        let net = JacksonNetwork::from_rates(10.0, &[(10.0, 3.0), (390.0, 45.0)]).unwrap();
        let min = net.min_stable_allocation();
        assert!(net.is_stable(&min).unwrap());
        // Removing any processor breaks stability.
        for i in 0..min.len() {
            let mut less = min.clone();
            if less[i] == 0 {
                continue;
            }
            less[i] -= 1;
            assert!(!net.is_stable(&less).unwrap(), "operator {i}");
        }
        assert_eq!(net.min_total_servers(), u64::from(min[0] + min[1]));
    }

    #[test]
    fn breakdown_sums_to_total() {
        let net = JacksonNetwork::from_rates(13.0, &[(13.0, 2.0), (390.0, 45.0), (390.0, 400.0)])
            .unwrap();
        let alloc = [8u32, 10, 2];
        let total = net.expected_sojourn(&alloc).unwrap();
        let breakdown = net.sojourn_breakdown(&alloc).unwrap();
        let sum: f64 = breakdown.iter().map(|b| b.weighted).sum();
        assert_close(total, sum, 1e-12);
        assert_eq!(breakdown.len(), 3);
        assert_eq!(breakdown[1].servers, 10);
    }

    #[test]
    fn invalid_external_rate_rejected() {
        assert!(matches!(
            JacksonNetwork::from_rates(0.0, &[(1.0, 1.0)]),
            Err(JacksonError::InvalidExternalRate { .. })
        ));
        assert!(matches!(
            JacksonNetwork::from_rates(-3.0, &[(1.0, 1.0)]),
            Err(JacksonError::InvalidExternalRate { .. })
        ));
    }

    #[test]
    fn allocation_length_mismatch_rejected() {
        let net = JacksonNetwork::from_rates(1.0, &[(1.0, 2.0), (1.0, 2.0)]).unwrap();
        assert!(matches!(
            net.expected_sojourn(&[1]),
            Err(JacksonError::AllocationLength { .. })
        ));
        assert!(matches!(
            net.sojourn_breakdown(&[1, 1, 1]),
            Err(JacksonError::AllocationLength { .. })
        ));
    }

    #[test]
    fn adding_processors_never_hurts() {
        let net = JacksonNetwork::from_rates(13.0, &[(13.0, 2.0), (390.0, 45.0)]).unwrap();
        let base = net.expected_sojourn(&[8, 10]).unwrap();
        assert!(net.expected_sojourn(&[9, 10]).unwrap() <= base);
        assert!(net.expected_sojourn(&[8, 11]).unwrap() <= base);
    }

    #[test]
    fn loop_network_via_traffic_has_amplified_visits() {
        // Feedback loop inflates λ_i above λ0, so per-visit delays are
        // weighted by more than 1.
        let mut eqs = TrafficEquations::new(2);
        eqs.set_external_rate(0, 7.0).unwrap();
        eqs.set_gain(0, 1, 1.0).unwrap();
        eqs.set_gain(1, 0, 0.3).unwrap();
        let rates = eqs.solve().unwrap();
        let net = JacksonNetwork::from_rates(7.0, &[(rates[0], 5.0), (rates[1], 5.0)]).unwrap();
        assert_close(net.operators()[0].arrival_rate(), 10.0, 1e-9);
        // Visit ratio 10/7 > 1: network sojourn exceeds the tandem sum of a
        // loop-free network with the same per-visit delays at rate 7.
        let t = net.expected_sojourn(&[4, 4]).unwrap();
        assert!(t.is_finite());
        let per_visit =
            net.operators()[0].expected_sojourn(4) + net.operators()[1].expected_sojourn(4);
        assert!(t > per_visit, "{t} should exceed {per_visit}");
    }
}
