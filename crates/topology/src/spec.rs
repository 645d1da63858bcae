//! Identifier and specification types for operators and edges.

use std::fmt;

/// Opaque identifier of an operator inside one [`crate::Topology`].
///
/// Ids are dense indices assigned in insertion order by the
/// [`crate::TopologyBuilder`]; they index directly into allocation vectors
/// `k = (k_1, …, k_N)` used by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperatorId(pub(crate) usize);

impl OperatorId {
    /// The dense index of this operator (0-based insertion order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for OperatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// The role of an operator, following Storm's vocabulary (paper App. C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// A data source connected to external streams; spouts receive no
    /// internal edges.
    Spout,
    /// Any non-source operator.
    Bolt,
}

impl fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperatorKind::Spout => write!(f, "spout"),
            OperatorKind::Bolt => write!(f, "bolt"),
        }
    }
}

/// Per-executor resource demand vector, R-Storm style (PAPERS.md).
///
/// Each executor of an operator consumes this much of a machine's CPU,
/// memory and network budget while scheduled there. Units are abstract;
/// only the ratios against [machine capacities] matter. The default is one
/// unit of each, which reduces placement to a pure slot-count problem.
///
/// [machine capacities]: https://dl.acm.org/doi/10.14778/2831360.2831367
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceProfile {
    /// CPU demand per executor (abstract units).
    pub cpu: f64,
    /// Memory demand per executor (abstract units).
    pub mem: f64,
    /// Network-bandwidth demand per executor (abstract units).
    pub net: f64,
}

impl Default for ResourceProfile {
    fn default() -> Self {
        ResourceProfile {
            cpu: 1.0,
            mem: 1.0,
            net: 1.0,
        }
    }
}

impl ResourceProfile {
    /// A uniform profile demanding `units` of every resource.
    pub fn uniform(units: f64) -> Self {
        ResourceProfile {
            cpu: units,
            mem: units,
            net: units,
        }
    }

    /// Whether every component is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        [self.cpu, self.mem, self.net]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl fmt::Display for ResourceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={:.2} mem={:.2} net={:.2}",
            self.cpu, self.mem, self.net
        )
    }
}

/// Static description of one operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpec {
    pub(crate) id: OperatorId,
    pub(crate) name: String,
    pub(crate) kind: OperatorKind,
}

impl OperatorSpec {
    /// The operator id.
    pub fn id(&self) -> OperatorId {
        self.id
    }

    /// The unique operator name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this is a spout or a bolt.
    pub fn kind(&self) -> OperatorKind {
        self.kind
    }

    /// Convenience: `kind() == OperatorKind::Spout`.
    pub(crate) fn is_spout(&self) -> bool {
        self.kind == OperatorKind::Spout
    }
}

/// Static description of a directed edge between two operators.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSpec {
    pub(crate) from: OperatorId,
    pub(crate) to: OperatorId,
    pub(crate) gain: f64,
    pub(crate) network_delay: f64,
}

impl EdgeSpec {
    /// Source operator.
    pub fn from(&self) -> OperatorId {
        self.from
    }

    /// Destination operator.
    pub fn to(&self) -> OperatorId {
        self.to
    }

    /// Expected number of tuples emitted on this edge per tuple processed at
    /// the source (selectivity < 1, fan-out > 1).
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Mean one-way network delay in seconds experienced by tuples crossing
    /// this edge. The DRS performance model deliberately ignores this (paper
    /// §III-B); the simulator applies it, which reproduces the measured-vs-
    /// estimated gap of Figs. 7–8.
    pub fn network_delay(&self) -> f64 {
        self.network_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_id_exposes_index_and_displays() {
        let id = OperatorId(3);
        assert_eq!(id.index(), 3);
        assert_eq!(id.to_string(), "op#3");
    }

    #[test]
    fn kinds_display() {
        assert_eq!(OperatorKind::Spout.to_string(), "spout");
        assert_eq!(OperatorKind::Bolt.to_string(), "bolt");
    }

    #[test]
    fn operator_spec_accessors() {
        let spec = OperatorSpec {
            id: OperatorId(0),
            name: "frames".into(),
            kind: OperatorKind::Spout,
        };
        assert_eq!(spec.name(), "frames");
        assert!(spec.is_spout());
        assert_eq!(spec.id().index(), 0);
    }

    #[test]
    fn resource_profile_validation_and_display() {
        assert!(ResourceProfile::default().is_valid());
        assert!(ResourceProfile::uniform(0.0).is_valid());
        assert!(!ResourceProfile {
            cpu: f64::NAN,
            ..Default::default()
        }
        .is_valid());
        assert!(!ResourceProfile {
            mem: -1.0,
            ..Default::default()
        }
        .is_valid());
        let p = ResourceProfile {
            cpu: 4.0,
            mem: 1.0,
            net: 0.5,
        };
        assert!(p.to_string().contains("cpu=4.00"));
    }

    #[test]
    fn edge_spec_accessors() {
        let edge = EdgeSpec {
            from: OperatorId(0),
            to: OperatorId(1),
            gain: 30.0,
            network_delay: 0.002,
        };
        assert_eq!(edge.from().index(), 0);
        assert_eq!(edge.to().index(), 1);
        assert_eq!(edge.gain(), 30.0);
        assert_eq!(edge.network_delay(), 0.002);
    }
}
