//! Traffic equations for operator networks with splits, joins and loops.
//!
//! In an open network, the total arrival rate at each operator is the sum of
//! external arrivals and internal traffic produced by upstream operators. For
//! stream analytics we generalise the classical Jackson routing probabilities
//! to *gains*: `g[i][j]` is the expected number of tuples emitted to operator
//! `j` per tuple processed at operator `i`. Gains above one model fan-out
//! (e.g. a video frame producing many SIFT features); gains below one model
//! selectivity (filters); a cycle in the gain graph models feedback loops
//! such as the detector self-notification edge in the FPD application.
//!
//! The equilibrium rates solve the linear fixed point
//!
//! ```text
//! λ = λ_ext + Gᵀ λ
//! ```
//!
//! which has a unique non-negative solution whenever the spectral radius of
//! `G` is below one (loop gain < 1). [`TrafficEquations::solve`] validates
//! that condition and then solves the system directly.

use crate::linalg::{LinalgError, Matrix};
use std::fmt;

/// Error from building or solving traffic equations.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// A gain or external rate was negative or non-finite.
    InvalidParameter {
        /// Description of the offending parameter.
        what: String,
    },
    /// An operator index was out of range.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The number of operators in the network.
        len: usize,
    },
    /// The loop gain (spectral radius of the gain matrix) is >= 1, so
    /// internal traffic amplifies itself without bound.
    UnstableLoopGain {
        /// The estimated spectral radius.
        spectral_radius: f64,
    },
    /// The linear system could not be solved.
    Linalg(LinalgError),
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::InvalidParameter { what } => {
                write!(f, "invalid traffic parameter: {what}")
            }
            TrafficError::IndexOutOfRange { index, len } => {
                write!(f, "operator index {index} out of range for {len} operators")
            }
            TrafficError::UnstableLoopGain { spectral_radius } => write!(
                f,
                "unstable loop gain: spectral radius {spectral_radius:.4} >= 1"
            ),
            TrafficError::Linalg(e) => write!(f, "traffic solve failed: {e}"),
        }
    }
}

impl std::error::Error for TrafficError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrafficError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for TrafficError {
    fn from(e: LinalgError) -> Self {
        TrafficError::Linalg(e)
    }
}

/// The traffic-equation system for an `n`-operator network.
///
/// # Examples
///
/// A two-operator chain where each input to operator 0 produces on average
/// 30 features routed to operator 1 (the VLD extractor → matcher edge):
///
/// ```
/// use drs_queueing::traffic::TrafficEquations;
///
/// let mut eqs = TrafficEquations::new(2);
/// eqs.set_external_rate(0, 13.0)?;   // 13 frames/s from outside
/// eqs.set_gain(0, 1, 30.0)?;         // 30 features per frame
/// let rates = eqs.solve()?;
/// assert!((rates[0] - 13.0).abs() < 1e-9);
/// assert!((rates[1] - 390.0).abs() < 1e-9);
/// # Ok::<(), drs_queueing::traffic::TrafficError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficEquations {
    n: usize,
    external: Vec<f64>,
    /// Row-major gains: `gains[i * n + j]` = tuples emitted to `j` per tuple
    /// processed at `i`.
    gains: Vec<f64>,
}

impl TrafficEquations {
    /// Creates an empty system for `n` operators (no external traffic, no
    /// internal edges).
    pub fn new(n: usize) -> Self {
        TrafficEquations {
            n,
            external: vec![0.0; n],
            gains: vec![0.0; n * n],
        }
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the network has no operators.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets the external (from outside the network) arrival rate into
    /// operator `i`.
    ///
    /// # Errors
    ///
    /// * [`TrafficError::IndexOutOfRange`] — `i >= self.len()`.
    /// * [`TrafficError::InvalidParameter`] — negative or non-finite rate.
    pub fn set_external_rate(&mut self, i: usize, rate: f64) -> Result<(), TrafficError> {
        self.check_index(i)?;
        if !rate.is_finite() || rate < 0.0 {
            return Err(TrafficError::InvalidParameter {
                what: format!("external rate into operator {i} must be >= 0, got {rate}"),
            });
        }
        self.external[i] = rate;
        Ok(())
    }

    /// Sets the gain on the edge `from → to`: the expected number of tuples
    /// emitted to `to` per tuple processed at `from`.
    ///
    /// # Errors
    ///
    /// * [`TrafficError::IndexOutOfRange`] — either index out of range.
    /// * [`TrafficError::InvalidParameter`] — negative or non-finite gain.
    pub fn set_gain(&mut self, from: usize, to: usize, gain: f64) -> Result<(), TrafficError> {
        self.check_index(from)?;
        self.check_index(to)?;
        if !gain.is_finite() || gain < 0.0 {
            return Err(TrafficError::InvalidParameter {
                what: format!("gain {from}->{to} must be >= 0, got {gain}"),
            });
        }
        self.gains[from * self.n + to] = gain;
        Ok(())
    }

    /// The external arrival rate into operator `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn external_rate(&self, i: usize) -> f64 {
        self.external[i]
    }

    /// The gain on edge `from → to` (zero when no edge was set).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn gain(&self, from: usize, to: usize) -> f64 {
        assert!(from < self.n && to < self.n, "index out of bounds");
        self.gains[from * self.n + to]
    }

    /// Total external arrival rate `λ0` into the whole network.
    pub fn total_external_rate(&self) -> f64 {
        self.external.iter().sum()
    }

    /// Estimates the spectral radius of the gain matrix (the *loop gain*).
    ///
    /// Values below 1 guarantee the traffic equations have a unique bounded
    /// solution; a fast-path returns the infinity norm when it is already
    /// below 1 (sufficient condition) and otherwise runs power iteration.
    pub fn loop_gain(&self) -> f64 {
        let g = self.gain_matrix();
        let bound = g.norm_inf();
        if bound < 1.0 {
            return g.spectral_radius(200).min(bound);
        }
        g.spectral_radius(500)
    }

    /// Solves the traffic equations, returning the equilibrium total arrival
    /// rate `λ_i` at every operator.
    ///
    /// # Errors
    ///
    /// * [`TrafficError::UnstableLoopGain`] — the gain matrix has spectral
    ///   radius `>= 1` (e.g. a feedback loop that amplifies its own traffic).
    /// * [`TrafficError::Linalg`] — the linear solve failed (should not occur
    ///   once the loop gain check passes, but surfaced for robustness).
    pub fn solve(&self) -> Result<Vec<f64>, TrafficError> {
        if self.n == 0 {
            return Ok(Vec::new());
        }
        let radius = self.loop_gain();
        if radius >= 1.0 - 1e-9 {
            return Err(TrafficError::UnstableLoopGain {
                spectral_radius: radius,
            });
        }
        // (I - G^T) λ = λ_ext
        let gt = self.gain_matrix().transpose();
        let system = Matrix::identity(self.n).sub(&gt)?;
        let mut rates = system.solve(&self.external)?;
        // Numerical noise can produce tiny negative values for zero-traffic
        // operators; clamp them.
        for r in &mut rates {
            if *r < 0.0 && *r > -1e-9 {
                *r = 0.0;
            }
        }
        Ok(rates)
    }

    /// Returns the gain matrix `G` as a dense [`Matrix`].
    pub fn gain_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                m.set(i, j, self.gains[i * self.n + j]);
            }
        }
        m
    }

    fn check_index(&self, i: usize) -> Result<(), TrafficError> {
        if i >= self.n {
            Err(TrafficError::IndexOutOfRange {
                index: i,
                len: self.n,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b} (tol {tol})");
    }

    #[test]
    fn empty_network_solves_trivially() {
        let eqs = TrafficEquations::new(0);
        assert!(eqs.is_empty());
        assert_eq!(eqs.solve().unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn single_operator_rate_is_external() {
        let mut eqs = TrafficEquations::new(1);
        eqs.set_external_rate(0, 5.0).unwrap();
        let rates = eqs.solve().unwrap();
        assert_close(rates[0], 5.0, 1e-12);
    }

    #[test]
    fn chain_applies_gains_multiplicatively() {
        // 0 -> 1 -> 2 with gains 2 and 0.5.
        let mut eqs = TrafficEquations::new(3);
        eqs.set_external_rate(0, 10.0).unwrap();
        eqs.set_gain(0, 1, 2.0).unwrap();
        eqs.set_gain(1, 2, 0.5).unwrap();
        let rates = eqs.solve().unwrap();
        assert_close(rates[0], 10.0, 1e-9);
        assert_close(rates[1], 20.0, 1e-9);
        assert_close(rates[2], 10.0, 1e-9);
    }

    #[test]
    fn split_and_join_rates_add_up() {
        // Fig. 2 shape: A -> B, A -> C; B -> E(D index 3 unused), C -> E.
        // A splits 60/40, both feed E.
        let mut eqs = TrafficEquations::new(4);
        eqs.set_external_rate(0, 100.0).unwrap();
        eqs.set_gain(0, 1, 0.6).unwrap();
        eqs.set_gain(0, 2, 0.4).unwrap();
        eqs.set_gain(1, 3, 1.0).unwrap();
        eqs.set_gain(2, 3, 1.0).unwrap();
        let rates = eqs.solve().unwrap();
        assert_close(rates[1], 60.0, 1e-9);
        assert_close(rates[2], 40.0, 1e-9);
        assert_close(rates[3], 100.0, 1e-9);
    }

    #[test]
    fn feedback_loop_amplifies_arrival_rate() {
        // Operator 1 feeds 30% of its output back to operator 0 (paper Fig. 2
        // E -> A loop). Fixed point: λ0 = ext + 0.3 λ1, λ1 = λ0.
        // => λ0 = ext / 0.7.
        let mut eqs = TrafficEquations::new(2);
        eqs.set_external_rate(0, 7.0).unwrap();
        eqs.set_gain(0, 1, 1.0).unwrap();
        eqs.set_gain(1, 0, 0.3).unwrap();
        let rates = eqs.solve().unwrap();
        assert_close(rates[0], 10.0, 1e-9);
        assert_close(rates[1], 10.0, 1e-9);
    }

    #[test]
    fn self_loop_geometric_series() {
        // Gain 0.5 self loop: λ = ext + 0.5 λ => λ = 2 ext.
        let mut eqs = TrafficEquations::new(1);
        eqs.set_external_rate(0, 3.0).unwrap();
        eqs.set_gain(0, 0, 0.5).unwrap();
        let rates = eqs.solve().unwrap();
        assert_close(rates[0], 6.0, 1e-9);
    }

    #[test]
    fn unstable_loop_is_rejected() {
        let mut eqs = TrafficEquations::new(1);
        eqs.set_external_rate(0, 1.0).unwrap();
        eqs.set_gain(0, 0, 1.0).unwrap();
        assert!(matches!(
            eqs.solve(),
            Err(TrafficError::UnstableLoopGain { .. })
        ));

        let mut eqs2 = TrafficEquations::new(2);
        eqs2.set_external_rate(0, 1.0).unwrap();
        eqs2.set_gain(0, 1, 2.0).unwrap();
        eqs2.set_gain(1, 0, 0.6).unwrap(); // loop gain 1.2
        assert!(matches!(
            eqs2.solve(),
            Err(TrafficError::UnstableLoopGain { .. })
        ));
    }

    #[test]
    fn amplifying_but_acyclic_gains_are_fine() {
        // Gain > 1 on a DAG edge is legal (fan-out), loop gain stays 0.
        let mut eqs = TrafficEquations::new(2);
        eqs.set_external_rate(0, 13.0).unwrap();
        eqs.set_gain(0, 1, 30.0).unwrap();
        assert_eq!(eqs.loop_gain(), 0.0);
        let rates = eqs.solve().unwrap();
        assert_close(rates[1], 390.0, 1e-9);
    }

    #[test]
    fn loop_gain_detects_cycle_strength() {
        let mut eqs = TrafficEquations::new(2);
        eqs.set_gain(0, 1, 1.0).unwrap();
        eqs.set_gain(1, 0, 0.25).unwrap();
        // Spectral radius of [[0,1],[0.25,0]] is 0.5.
        assert_close(eqs.loop_gain(), 0.5, 1e-6);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut eqs = TrafficEquations::new(2);
        assert!(matches!(
            eqs.set_external_rate(5, 1.0),
            Err(TrafficError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            eqs.set_external_rate(0, -1.0),
            Err(TrafficError::InvalidParameter { .. })
        ));
        assert!(matches!(
            eqs.set_gain(0, 3, 1.0),
            Err(TrafficError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            eqs.set_gain(0, 1, f64::NAN),
            Err(TrafficError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn accessors_round_trip() {
        let mut eqs = TrafficEquations::new(3);
        eqs.set_external_rate(1, 4.0).unwrap();
        eqs.set_gain(1, 2, 0.7).unwrap();
        assert_eq!(eqs.external_rate(1), 4.0);
        assert_eq!(eqs.gain(1, 2), 0.7);
        assert_eq!(eqs.gain(2, 1), 0.0);
        assert_close(eqs.total_external_rate(), 4.0, 1e-12);
        assert_eq!(eqs.len(), 3);
    }

    #[test]
    fn fig2_topology_with_loop_solves() {
        // Paper Fig. 2: A(0) -> B(1), A -> C(2); B -> D(3); C,D -> E(4); E -> A.
        let mut eqs = TrafficEquations::new(5);
        eqs.set_external_rate(0, 50.0).unwrap();
        eqs.set_gain(0, 1, 0.5).unwrap(); // A -> B
        eqs.set_gain(0, 2, 0.5).unwrap(); // A -> C
        eqs.set_gain(1, 3, 1.0).unwrap(); // B -> D
        eqs.set_gain(2, 4, 1.0).unwrap(); // C -> E
        eqs.set_gain(3, 4, 1.0).unwrap(); // D -> E
        eqs.set_gain(4, 0, 0.2).unwrap(); // E -> A (loop)
        let rates = eqs.solve().unwrap();
        // λA = 50 + 0.2 λE; λE = λC + λD = 0.5 λA + 0.5 λA = λA
        // => λA = 50 / 0.8 = 62.5.
        assert_close(rates[0], 62.5, 1e-9);
        assert_close(rates[4], 62.5, 1e-9);
        assert_close(rates[1], 31.25, 1e-9);
    }
}
