//! Builder and validation for operator topologies.

use crate::spec::{EdgeSpec, OperatorId, OperatorKind, OperatorSpec};
use crate::topology::Topology;
use std::collections::HashSet;
use std::fmt;

/// Error produced while building or validating a [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// Two operators were declared with the same name.
    DuplicateName {
        /// The conflicting name.
        name: String,
    },
    /// An edge referenced an id that does not belong to this builder.
    UnknownOperator {
        /// The offending id.
        id: OperatorId,
    },
    /// An edge pointed *into* a spout; spouts only produce data.
    EdgeIntoSpout {
        /// Name of the spout that received an edge.
        spout: String,
    },
    /// The gain or network delay on an edge was negative or non-finite.
    InvalidEdgeParameter {
        /// Description of the bad parameter.
        what: String,
    },
    /// The topology has no spout, so no data can enter it.
    NoSpout,
    /// A bolt cannot be reached from any spout, so it would never receive a
    /// tuple.
    UnreachableOperator {
        /// Name of the unreachable operator.
        name: String,
    },
    /// Two identical directed edges were declared. Merge their gains instead.
    DuplicateEdge {
        /// Source operator name.
        from: String,
        /// Destination operator name.
        to: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateName { name } => {
                write!(f, "duplicate operator name: {name}")
            }
            TopologyError::UnknownOperator { id } => {
                write!(f, "unknown operator id {id}")
            }
            TopologyError::EdgeIntoSpout { spout } => {
                write!(f, "edge into spout {spout}: spouts cannot receive tuples")
            }
            TopologyError::InvalidEdgeParameter { what } => {
                write!(f, "invalid edge parameter: {what}")
            }
            TopologyError::NoSpout => write!(f, "topology has no spout"),
            TopologyError::UnreachableOperator { name } => {
                write!(f, "operator {name} is unreachable from any spout")
            }
            TopologyError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Options of one edge, used with [`TopologyBuilder::edge_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeOptions {
    /// Expected tuples emitted per tuple processed at the source (default 1).
    pub gain: f64,
    /// Mean one-way network delay in seconds (default 0).
    pub network_delay: f64,
}

impl Default for EdgeOptions {
    fn default() -> Self {
        EdgeOptions {
            gain: 1.0,
            network_delay: 0.0,
        }
    }
}

/// Incremental builder for [`Topology`] values.
///
/// # Examples
///
/// The paper's Fig. 1 pipeline (video frames → feature extraction → object
/// recognition):
///
/// ```
/// use drs_topology::{EdgeOptions, TopologyBuilder};
///
/// let mut b = TopologyBuilder::new();
/// let frames = b.spout("frames");
/// let extract = b.bolt("extractor");
/// let recognize = b.bolt("recognizer");
/// b.edge(frames, extract)?;
/// b.edge_with(extract, recognize, EdgeOptions { gain: 30.0, ..Default::default() })?;
/// let topo = b.build()?;
/// assert_eq!(topo.len(), 3);
/// # Ok::<(), drs_topology::TopologyError>(())
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    operators: Vec<OperatorSpec>,
    edges: Vec<EdgeSpec>,
    names: HashSet<String>,
    name_collision: Option<String>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Declares a spout (data source). Returns its id.
    pub fn spout(&mut self, name: impl Into<String>) -> OperatorId {
        self.add_operator(name.into(), OperatorKind::Spout)
    }

    /// Declares a bolt (processing operator). Returns its id.
    pub fn bolt(&mut self, name: impl Into<String>) -> OperatorId {
        self.add_operator(name.into(), OperatorKind::Bolt)
    }

    fn add_operator(&mut self, name: String, kind: OperatorKind) -> OperatorId {
        let id = OperatorId(self.operators.len());
        if !self.names.insert(name.clone()) && self.name_collision.is_none() {
            // Defer the error to build(): the add methods stay infallible so
            // ids can be captured fluently.
            self.name_collision = Some(name.clone());
        }
        self.operators.push(OperatorSpec { id, name, kind });
        id
    }

    /// Adds an edge with default options (gain 1, no network delay).
    ///
    /// # Errors
    ///
    /// See [`TopologyBuilder::edge_with`].
    pub fn edge(&mut self, from: OperatorId, to: OperatorId) -> Result<(), TopologyError> {
        self.edge_with(from, to, EdgeOptions::default())
    }

    /// Adds an edge with explicit [`EdgeOptions`].
    ///
    /// # Errors
    ///
    /// * [`TopologyError::UnknownOperator`] — an endpoint id is out of range.
    /// * [`TopologyError::EdgeIntoSpout`] — the destination is a spout.
    /// * [`TopologyError::InvalidEdgeParameter`] — negative/non-finite gain
    ///   or network delay.
    /// * [`TopologyError::DuplicateEdge`] — the directed edge already exists.
    pub fn edge_with(
        &mut self,
        from: OperatorId,
        to: OperatorId,
        options: EdgeOptions,
    ) -> Result<(), TopologyError> {
        for id in [from, to] {
            if id.0 >= self.operators.len() {
                return Err(TopologyError::UnknownOperator { id });
            }
        }
        let dst = &self.operators[to.0];
        if dst.kind == OperatorKind::Spout {
            return Err(TopologyError::EdgeIntoSpout {
                spout: dst.name.clone(),
            });
        }
        if !options.gain.is_finite() || options.gain < 0.0 {
            return Err(TopologyError::InvalidEdgeParameter {
                what: format!("gain must be finite and >= 0, got {}", options.gain),
            });
        }
        if !options.network_delay.is_finite() || options.network_delay < 0.0 {
            return Err(TopologyError::InvalidEdgeParameter {
                what: format!(
                    "network delay must be finite and >= 0, got {}",
                    options.network_delay
                ),
            });
        }
        if self.edges.iter().any(|e| e.from == from && e.to == to) {
            return Err(TopologyError::DuplicateEdge {
                from: self.operators[from.0].name.clone(),
                to: self.operators[to.0].name.clone(),
            });
        }
        self.edges.push(EdgeSpec {
            from,
            to,
            gain: options.gain,
            network_delay: options.network_delay,
        });
        Ok(())
    }

    /// Validates the accumulated operators and edges and produces a
    /// [`Topology`].
    ///
    /// # Errors
    ///
    /// * [`TopologyError::DuplicateName`] — two operators share a name.
    /// * [`TopologyError::NoSpout`] — the topology has no data source.
    /// * [`TopologyError::UnreachableOperator`] — a bolt no spout can reach.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if let Some(name) = self.name_collision {
            return Err(TopologyError::DuplicateName { name });
        }
        if !self.operators.iter().any(|o| o.kind == OperatorKind::Spout) {
            return Err(TopologyError::NoSpout);
        }
        // Reachability from the set of spouts.
        let n = self.operators.len();
        let mut adjacency = vec![Vec::new(); n];
        for e in &self.edges {
            adjacency[e.from.0].push(e.to.0);
        }
        let mut reachable = vec![false; n];
        let mut stack: Vec<usize> = self
            .operators
            .iter()
            .filter(|o| o.kind == OperatorKind::Spout)
            .map(|o| o.id.0)
            .collect();
        for &s in &stack {
            reachable[s] = true;
        }
        while let Some(u) = stack.pop() {
            for &v in &adjacency[u] {
                if !reachable[v] {
                    reachable[v] = true;
                    stack.push(v);
                }
            }
        }
        if let Some(o) = self.operators.iter().find(|o| !reachable[o.id.0]) {
            return Err(TopologyError::UnreachableOperator {
                name: o.name.clone(),
            });
        }
        Ok(Topology::from_parts(self.operators, self.edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_chain() {
        let mut b = TopologyBuilder::new();
        let s = b.spout("s");
        let x = b.bolt("x");
        b.edge(s, x).unwrap();
        let topo = b.build().unwrap();
        assert_eq!(topo.len(), 2);
        assert_eq!(topo.edges().len(), 1);
    }

    #[test]
    fn duplicate_names_rejected_at_build() {
        let mut b = TopologyBuilder::new();
        let s = b.spout("same");
        let x = b.bolt("same");
        b.edge(s, x).unwrap();
        assert_eq!(
            b.build(),
            Err(TopologyError::DuplicateName {
                name: "same".into()
            })
        );
    }

    #[test]
    fn edge_into_spout_rejected() {
        let mut b = TopologyBuilder::new();
        let s = b.spout("s");
        let x = b.bolt("x");
        assert!(matches!(
            b.edge(x, s),
            Err(TopologyError::EdgeIntoSpout { .. })
        ));
    }

    #[test]
    fn unknown_operator_rejected() {
        // Ids are dense indices; an id minted by a *larger* builder is out of
        // range for a smaller one and must be rejected.
        let mut other = TopologyBuilder::new();
        let _ = other.spout("s0");
        let foreign = other.bolt("far"); // index 1

        let mut b = TopologyBuilder::new();
        let s = b.spout("s"); // only index 0 exists here
        assert!(matches!(
            b.edge(s, foreign),
            Err(TopologyError::UnknownOperator { .. })
        ));
    }

    #[test]
    fn invalid_gain_rejected() {
        let mut b = TopologyBuilder::new();
        let s = b.spout("s");
        let x = b.bolt("x");
        assert!(matches!(
            b.edge_with(
                s,
                x,
                EdgeOptions {
                    gain: -1.0,
                    ..Default::default()
                }
            ),
            Err(TopologyError::InvalidEdgeParameter { .. })
        ));
        assert!(matches!(
            b.edge_with(
                s,
                x,
                EdgeOptions {
                    network_delay: f64::NAN,
                    ..Default::default()
                }
            ),
            Err(TopologyError::InvalidEdgeParameter { .. })
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = TopologyBuilder::new();
        let s = b.spout("s");
        let x = b.bolt("x");
        b.edge(s, x).unwrap();
        assert!(matches!(
            b.edge(s, x),
            Err(TopologyError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn no_spout_rejected() {
        let mut b = TopologyBuilder::new();
        let _ = b.bolt("x");
        assert_eq!(b.build().unwrap_err(), TopologyError::NoSpout);
    }

    #[test]
    fn unreachable_bolt_rejected() {
        let mut b = TopologyBuilder::new();
        let _s = b.spout("s");
        let _orphan = b.bolt("orphan");
        assert!(matches!(
            b.build(),
            Err(TopologyError::UnreachableOperator { .. })
        ));
    }

    #[test]
    fn loops_are_allowed() {
        // FPD-style self loop on the detector.
        let mut b = TopologyBuilder::new();
        let s = b.spout("s");
        let d = b.bolt("detector");
        b.edge(s, d).unwrap();
        b.edge_with(
            d,
            d,
            EdgeOptions {
                gain: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        let topo = b.build().unwrap();
        assert!(!topo.is_acyclic());
    }

    #[test]
    fn errors_display() {
        let e = TopologyError::NoSpout;
        assert!(!e.to_string().is_empty());
        let e = TopologyError::DuplicateEdge {
            from: "a".into(),
            to: "b".into(),
        };
        assert!(e.to_string().contains("a -> b"));
    }
}
