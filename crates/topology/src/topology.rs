//! The validated [`Topology`] type and its structural queries.

use crate::spec::{EdgeSpec, OperatorId, OperatorKind, OperatorSpec};
use drs_queueing::traffic::{TrafficEquations, TrafficError};
use std::collections::HashMap;

/// A validated operator network: operators plus directed, weighted edges.
///
/// Construct via [`crate::TopologyBuilder`]. A `Topology` is purely
/// structural — it says nothing about arrival rates or allocations; those are
/// supplied by the measurer/simulator and by the scheduler respectively.
///
/// # Examples
///
/// ```
/// use drs_topology::presets;
///
/// let topo = presets::diamond_with_loop();
/// assert_eq!(topo.len(), 6); // source spout + operators A..E
/// assert!(!topo.is_acyclic()); // the E -> A feedback loop of paper Fig. 2
/// let a = topo.operator_by_name("A").unwrap();
/// assert_eq!(topo.downstream(a.id()).count(), 2); // splits to B and C
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    operators: Vec<OperatorSpec>,
    edges: Vec<EdgeSpec>,
    by_name: HashMap<String, usize>,
}

impl Topology {
    pub(crate) fn from_parts(operators: Vec<OperatorSpec>, edges: Vec<EdgeSpec>) -> Self {
        let by_name = operators
            .iter()
            .enumerate()
            .map(|(i, o)| (o.name().to_owned(), i))
            .collect();
        Topology {
            operators,
            edges,
            by_name,
        }
    }

    /// Number of operators (spouts + bolts). This is the `N` of the paper.
    pub fn len(&self) -> usize {
        self.operators.len()
    }

    /// Whether the topology has no operators (never true for built
    /// topologies, which require a spout).
    pub fn is_empty(&self) -> bool {
        self.operators.is_empty()
    }

    /// All operators in id order.
    pub fn operators(&self) -> &[OperatorSpec] {
        &self.operators
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[EdgeSpec] {
        &self.edges
    }

    /// Looks up an operator by name.
    pub fn operator_by_name(&self, name: &str) -> Option<&OperatorSpec> {
        self.by_name.get(name).map(|&i| &self.operators[i])
    }

    /// Iterator over the spouts.
    pub fn spouts(&self) -> impl Iterator<Item = &OperatorSpec> {
        self.operators.iter().filter(|o| o.is_spout())
    }

    /// Iterator over the bolts.
    pub fn bolts(&self) -> impl Iterator<Item = &OperatorSpec> {
        self.operators
            .iter()
            .filter(|o| o.kind() == OperatorKind::Bolt)
    }

    /// Expands a bolt-only allocation (bolts in id order — the "model
    /// order" the DRS scheduler reasons in, since spouts contribute no
    /// queueing) to a full per-operator vector; spouts keep one executor.
    ///
    /// Returns `None` when `bolts` does not have exactly one entry per
    /// bolt. This is the single definition of the model-order ↔ topology
    /// mapping shared by every CSP backend.
    pub fn expand_bolt_allocation(&self, bolts: &[u32]) -> Option<Vec<u32>> {
        if bolts.len() != self.bolts().count() {
            return None;
        }
        let mut full = vec![1u32; self.operators.len()];
        for (op, &k) in self.bolts().zip(bolts) {
            full[op.id().index()] = k;
        }
        Some(full)
    }

    /// Edges leaving `id`.
    pub fn downstream(&self, id: OperatorId) -> impl Iterator<Item = &EdgeSpec> {
        self.edges.iter().filter(move |e| e.from() == id)
    }

    /// Whether the edge graph contains no directed cycle.
    ///
    /// Loops are a supported feature (paper Fig. 2); this query lets callers
    /// know whether they must worry about loop gain.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm: the graph is acyclic iff all nodes get sorted.
        let n = self.operators.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.to().index()] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for e in &self.edges {
                if e.from().index() == u {
                    let v = e.to().index();
                    indegree[v] -= 1;
                    if indegree[v] == 0 {
                        queue.push(v);
                    }
                }
            }
        }
        seen == n
    }

    /// Builds the traffic-equation system for this topology given the
    /// external arrival rate into each *spout* (keyed by operator id).
    ///
    /// Bolts receive no external traffic; spout-to-bolt edges propagate it.
    ///
    /// # Errors
    ///
    /// Propagates [`TrafficError`] for invalid rates (negative/non-finite) or
    /// ids outside the topology.
    pub fn traffic_equations(
        &self,
        spout_rates: &[(OperatorId, f64)],
    ) -> Result<TrafficEquations, TrafficError> {
        let mut eqs = TrafficEquations::new(self.len());
        for &(id, rate) in spout_rates {
            eqs.set_external_rate(id.index(), rate)?;
        }
        for e in &self.edges {
            // Accumulate in case of parallel edges (builder forbids them,
            // but stay safe for hand-constructed systems).
            let current = eqs.gain(e.from().index(), e.to().index());
            eqs.set_gain(e.from().index(), e.to().index(), current + e.gain())?;
        }
        Ok(eqs)
    }

    /// The loop gain of the topology's gain matrix (spectral radius), found
    /// by power iteration on the edge list: exactly `0.0` for a DAG; values
    /// `>= 1` make the traffic equations divergent. See
    /// [`TrafficEquations::loop_gain`].
    pub fn loop_gain(&self) -> f64 {
        // External rates are irrelevant to the gain matrix.
        let eqs = self.traffic_equations(&[]).expect("no rates: cannot fail");
        eqs.loop_gain()
    }

    /// Names of all operators, in id order. Convenient for labelling
    /// allocation vectors in reports.
    pub fn names(&self) -> Vec<&str> {
        self.operators.iter().map(|o| o.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{EdgeOptions, TopologyBuilder};

    fn chain3() -> Topology {
        let mut b = TopologyBuilder::new();
        let s = b.spout("s");
        let x = b.bolt("x");
        let y = b.bolt("y");
        b.edge(s, x).unwrap();
        b.edge_with(
            x,
            y,
            EdgeOptions {
                gain: 2.0,
                ..Default::default()
            },
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn structural_queries() {
        let t = chain3();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.spouts().count(), 1);
        assert_eq!(t.bolts().count(), 2);
        let s = t.operator_by_name("s").unwrap().id();
        assert_eq!(t.downstream(s).count(), 1);
        assert_eq!(t.names(), vec!["s", "x", "y"]);
    }

    #[test]
    fn missing_name_lookup_is_none() {
        let t = chain3();
        assert!(t.operator_by_name("nope").is_none());
    }

    #[test]
    fn chain_is_acyclic() {
        assert!(chain3().is_acyclic());
    }

    #[test]
    fn traffic_equations_respect_gains() {
        let t = chain3();
        let s = t.operator_by_name("s").unwrap().id();
        let eqs = t.traffic_equations(&[(s, 10.0)]).unwrap();
        let rates = eqs.solve().unwrap();
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 10.0).abs() < 1e-9);
        assert!((rates[2] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn loop_gain_zero_for_dag() {
        assert_eq!(chain3().loop_gain(), 0.0);
    }

    #[test]
    fn loop_gain_positive_for_cycle() {
        let mut b = TopologyBuilder::new();
        let s = b.spout("s");
        let d = b.bolt("d");
        b.edge(s, d).unwrap();
        b.edge_with(
            d,
            d,
            EdgeOptions {
                gain: 0.4,
                ..Default::default()
            },
        )
        .unwrap();
        let t = b.build().unwrap();
        assert!(!t.is_acyclic());
        assert!((t.loop_gain() - 0.4).abs() < 1e-6);
    }
}
