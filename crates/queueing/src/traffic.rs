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
//! `G` is below one (loop gain < 1), found on the edge list by power iteration
//! on `I + G` ([`TrafficEquations::loop_gain`]). [`TrafficEquations::solve`]
//! then sweeps Gauss–Seidel in topological order until no rate moves: once,
//! plus a check, for an acyclic network.

use std::fmt;

/// Sweeps (and power-iteration steps) after which the traffic solve gives up.
pub(crate) const MAX_SWEEPS: usize = 1 << 20;

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
    /// The Gauss–Seidel sweeps still moved a rate after `MAX_SWEEPS`
    /// (a loop gain just below one converges that slowly).
    NotConverged {
        /// The number of sweeps run.
        sweeps: usize,
    },
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
            TrafficError::NotConverged { sweeps } => write!(f, "no fixed point in {sweeps} sweeps"),
        }
    }
}

impl std::error::Error for TrafficError {}

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
    external: Vec<f64>,
    /// The positive gains as `(to, from, gain)`, sorted by `(to, from)`:
    /// each operator's inflow is one run of the list.
    edges: Vec<(usize, usize, f64)>,
}

impl TrafficEquations {
    /// Creates an empty system for `n` operators (no external traffic, no
    /// internal edges).
    pub fn new(n: usize) -> Self {
        TrafficEquations {
            external: vec![0.0; n],
            edges: Vec::new(),
        }
    }

    /// Number of operators.
    pub(crate) fn len(&self) -> usize {
        self.external.len()
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
        let at = self.edges.binary_search_by_key(&(to, from), |e| (e.0, e.1));
        match (at, gain > 0.0) {
            (Ok(k), true) => self.edges[k].2 = gain,
            (Ok(k), false) => drop(self.edges.remove(k)),
            (Err(k), true) => self.edges.insert(k, (to, from, gain)),
            (Err(_), false) => {}
        }
        Ok(())
    }

    /// The gain on edge `from → to` (zero when no edge was set).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn gain(&self, from: usize, to: usize) -> f64 {
        assert!(from < self.len() && to < self.len(), "index out of bounds");
        let at = self.edges.binary_search_by_key(&(to, from), |e| (e.0, e.1));
        at.map_or(0.0, |k| self.edges[k].2)
    }

    /// The spectral radius of the gain matrix (the *loop gain*); below 1 the
    /// traffic equations have a unique bounded solution. Exactly `0.0` for
    /// an acyclic network, else the upper Collatz–Wielandt bound (minus
    /// one) once within `1e-12` of the lower, or after `MAX_SWEEPS` steps.
    pub fn loop_gain(&self) -> f64 {
        let (starts, blocks) = self.components();
        self.loop_gain_below(&starts, &blocks, 0.0)
    }

    /// Solves the traffic equations, returning the equilibrium total arrival
    /// rate `λ_i` at every operator.
    ///
    /// # Errors
    ///
    /// * [`TrafficError::UnstableLoopGain`] — the gain matrix has spectral
    ///   radius `>= 1` (e.g. a feedback loop that amplifies its own traffic).
    /// * [`TrafficError::NotConverged`] — `MAX_SWEEPS` Gauss–Seidel sweeps
    ///   still moved a rate (a loop gain within a hair of one is that slow).
    pub fn solve(&self) -> Result<Vec<f64>, TrafficError> {
        let (starts, blocks) = self.components();
        let stable_below = 1.0 - 1e-9;
        let radius = self.loop_gain_below(&starts, &blocks, stable_below);
        if radius >= stable_below {
            return Err(TrafficError::UnstableLoopGain {
                spectral_radius: radius,
            });
        }
        let mut rates = vec![0.0; self.len()];
        for _ in 0..MAX_SWEEPS {
            let mut moved = false;
            for &i in blocks.iter().flatten() {
                let inflow: f64 = self.edges[starts[i]..starts[i + 1]]
                    .iter()
                    .filter(|&&(_, from, _)| from != i)
                    .map(|&(_, from, gain)| gain * rates[from])
                    .sum();
                let rate = (self.external[i] + inflow) / (1.0 - self.gain(i, i));
                moved |= rate != rates[i];
                rates[i] = rate;
            }
            if !moved {
                return Ok(rates);
            }
        }
        Err(TrafficError::NotConverged { sweeps: MAX_SWEEPS })
    }

    /// Power iteration on `I + G` over one strongly connected component at a
    /// time (primitive on its own; the upstream ones are zeroed), stopped on
    /// its Collatz–Wielandt bounds `min/maxᵢ ((I + Gᵀ)x)ᵢ / xᵢ` around `1 + ρ`
    /// once the upper is below `1 + enough` or within `1e-12` of the lower.
    fn loop_gain_below(&self, starts: &[usize], blocks: &[Vec<usize>], enough: f64) -> f64 {
        let (mut x, mut y) = (vec![1.0; self.len()], vec![0.0; self.len()]);
        let mut radius = 0.0;
        for block in blocks {
            let mut bound = f64::INFINITY;
            for _ in 0..MAX_SWEEPS {
                let (mut lo, mut hi) = (f64::INFINITY, 0.0);
                for &i in block {
                    let inflow: f64 = self.edges[starts[i]..starts[i + 1]]
                        .iter()
                        .map(|&(_, from, gain)| gain * x[from])
                        .sum();
                    y[i] = x[i] + inflow;
                    (lo, hi) = (f64::min(lo, y[i] / x[i]), f64::max(hi, y[i] / x[i]));
                }
                block.iter().for_each(|&i| x[i] = y[i] / hi);
                bound = hi - 1.0;
                if bound < enough || hi - lo <= 1e-12 * hi {
                    break;
                }
            }
            radius = f64::max(radius, bound);
            block.iter().for_each(|&i| x[i] = 0.0);
        }
        radius
    }

    /// Each operator's inflow, `edges[starts[i]..starts[i + 1]]`, and the
    /// strongly connected components of the gain graph in topological
    /// order: Tarjan's algorithm walking the inflow, so upstream components
    /// complete first.
    fn components(&self) -> (Vec<usize>, Vec<Vec<usize>>) {
        const UNSEEN: usize = usize::MAX;
        const DONE: usize = usize::MAX - 1; // lowers no link
        let n = self.len();
        let starts: Vec<usize> = (0..=n)
            .map(|i| self.edges.partition_point(|e| e.0 < i))
            .collect();
        let (mut index, mut low, mut seen) = (vec![UNSEEN; n], vec![0; n], 0);
        let (mut stack, mut calls, mut blocks) = (Vec::new(), Vec::new(), Vec::new());
        for root in 0..n {
            if index[root] == UNSEEN {
                calls.push((root, starts[root]));
            }
            while let Some((v, cursor)) = calls.pop() {
                if index[v] == UNSEEN {
                    (index[v], low[v], seen) = (seen, seen, seen + 1);
                    stack.push(v);
                }
                if cursor < starts[v + 1] {
                    let from = self.edges[cursor].1;
                    calls.push((v, cursor + 1));
                    if index[from] == UNSEEN {
                        calls.push((from, starts[from]));
                    } else {
                        low[v] = low[v].min(index[from]);
                    }
                } else if low[v] < index[v] {
                    // Not its component's root, so it has a caller.
                    let (caller, _) = calls[calls.len() - 1];
                    low[caller] = low[caller].min(low[v]);
                } else {
                    // The walk pushed them going upstream; reversed, a
                    // sweep follows the flow.
                    let at = stack.partition_point(|&w| index[w] < index[v]);
                    stack[at..].iter().for_each(|&w| index[w] = DONE);
                    blocks.push(stack.drain(at..).rev().collect());
                }
            }
        }
        (starts, blocks)
    }

    fn check_index(&self, i: usize) -> Result<(), TrafficError> {
        if i >= self.len() {
            Err(TrafficError::IndexOutOfRange {
                index: i,
                len: self.len(),
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
        assert_eq!(eqs.len(), 0);
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

        // A 2-cycle of unit gains: eigenvalues ±1.
        eqs2.set_gain(0, 1, 1.0).unwrap();
        eqs2.set_gain(1, 0, 1.0).unwrap();
        assert_close(eqs2.loop_gain(), 1.0, 1e-9);
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
        assert_eq!(TrafficEquations::new(3).loop_gain(), 0.0);
    }

    #[test]
    fn loop_gain_detects_cycle_strength() {
        let mut eqs = TrafficEquations::new(2);
        eqs.set_gain(0, 1, 1.0).unwrap();
        eqs.set_gain(1, 0, 0.25).unwrap();
        // Spectral radius of [[0,1],[0.25,0]] is 0.5.
        assert_close(eqs.loop_gain(), 0.5, 1e-6);

        let mut self_loops = TrafficEquations::new(2);
        self_loops.set_gain(0, 0, 0.5).unwrap();
        self_loops.set_gain(1, 1, 0.25).unwrap();
        assert_close(self_loops.loop_gain(), 0.5, 1e-9);
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
        assert_eq!(eqs.gain(1, 2), 0.7);
        assert_eq!(eqs.gain(2, 1), 0.0);
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

    #[test]
    fn long_ring_with_weak_back_edge_solves() {
        // Gains 1.3 and a back edge closing a loop of 0.2: the power
        // iterates' upper bound stalls for most of a lap before it falls.
        let mut eqs = TrafficEquations::new(20);
        eqs.set_external_rate(0, 100.0).unwrap();
        for i in 0..19 {
            eqs.set_gain(i, i + 1, 1.3).unwrap();
        }
        eqs.set_gain(19, 0, 0.2 / 1.3f64.powi(19)).unwrap();
        assert_close(eqs.loop_gain(), 0.922680834591, 1e-9);
        let rates = eqs.solve().unwrap();
        assert_close(rates[0], 125.0, 1e-9);
        assert_close(rates[19] / (125.0 * 1.3f64.powi(19)), 1.0, 1e-12);
    }
}
