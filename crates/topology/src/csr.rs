//! Compiled compressed-sparse-row (CSR) adjacency of a [`Topology`].
//!
//! Both execution substrates — the discrete-event simulator (`drs-sim`) and
//! the threaded runtime (`drs-runtime`) — walk every operator's outgoing
//! edges once per processed tuple. Iterating `Topology::downstream` (a
//! filtered scan of the edge list) or a per-operator `Vec<Vec<_>>` is either
//! O(edges) per tuple or an extra pointer chase per hop; the CSR form packs
//! edge indices and target operators into two flat arrays walkable by value,
//! so the emit hot path performs no allocation and no indirection beyond two
//! slice reads.
//!
//! Edge order within one operator follows the topology's edge declaration
//! order (a stable counting sort), so compiling is deterministic and both
//! substrates agree on emission order — which the simulator's FIFO
//! tie-breaking turns into bit-identical timelines.
//!
//! # Examples
//!
//! ```
//! use drs_topology::{CsrOutEdges, TopologyBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = TopologyBuilder::new();
//! let spout = b.spout("src");
//! let a = b.bolt("a");
//! let c = b.bolt("c");
//! b.edge(spout, a)?;
//! b.edge(a, c)?;
//! b.edge(spout, c)?;
//! let topo = b.build()?;
//!
//! let csr = CsrOutEdges::compile(&topo);
//! assert_eq!(csr.edges_of(spout.index()), &[0, 2]); // declaration order
//! assert_eq!(csr.targets_of(a.index()), &[c.index() as u32]);
//! assert_eq!(csr.targets_of(c.index()), &[]);
//! # Ok(())
//! # }
//! ```

use crate::topology::Topology;

/// Flat CSR layout of a topology's outgoing edges. See the [module
/// docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrOutEdges {
    /// Operator `op`'s out-edges occupy `start[op]..start[op + 1]` in the
    /// flat arrays.
    start: Vec<u32>,
    /// Edge indices into `Topology::edges`, grouped by source operator.
    edge_index: Vec<u32>,
    /// Target operator index of the matching `edge_index` entry.
    target: Vec<u32>,
}

impl CsrOutEdges {
    /// Compiles the CSR adjacency from a topology. O(operators + edges).
    pub fn compile(topology: &Topology) -> Self {
        let n = topology.len();
        let mut start = vec![0u32; n + 1];
        for e in topology.edges() {
            start[e.from().index() + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        // Stable counting sort: edges of one operator keep declaration order.
        let mut cursor = start.clone();
        let mut edge_index = vec![0u32; topology.edges().len()];
        let mut target = vec![0u32; topology.edges().len()];
        for (idx, e) in topology.edges().iter().enumerate() {
            let slot = cursor[e.from().index()] as usize;
            edge_index[slot] = idx as u32;
            target[slot] = e.to().index() as u32;
            cursor[e.from().index()] += 1;
        }
        CsrOutEdges {
            start,
            edge_index,
            target,
        }
    }

    /// Out-degree of operator `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn out_degree(&self, op: usize) -> usize {
        (self.start[op + 1] - self.start[op]) as usize
    }

    /// Edge indices (into `Topology::edges`) of `op`'s outgoing edges, in
    /// declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn edges_of(&self, op: usize) -> &[u32] {
        &self.edge_index[self.start[op] as usize..self.start[op + 1] as usize]
    }

    /// Target operator indices of `op`'s outgoing edges, aligned with
    /// [`CsrOutEdges::edges_of`].
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn targets_of(&self, op: usize) -> &[u32] {
        &self.target[self.start[op] as usize..self.start[op + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologyBuilder;

    #[test]
    fn compile_matches_downstream_queries() {
        let topo = crate::presets::diamond_with_loop();
        let csr = CsrOutEdges::compile(&topo);
        for op in topo.operators() {
            let expected: Vec<u32> = topo
                .downstream(op.id())
                .map(|e| e.to().index() as u32)
                .collect();
            assert_eq!(csr.targets_of(op.id().index()), expected.as_slice());
            assert_eq!(csr.out_degree(op.id().index()), expected.len());
            let op_edges = csr.edges_of(op.id().index());
            for (&edge_idx, &target) in op_edges.iter().zip(csr.targets_of(op.id().index())) {
                let e = &topo.edges()[edge_idx as usize];
                assert_eq!(e.from(), op.id());
                assert_eq!(e.to().index() as u32, target);
            }
        }
    }

    #[test]
    fn edge_order_is_declaration_order() {
        let mut b = TopologyBuilder::new();
        let s = b.spout("s");
        let x = b.bolt("x");
        let y = b.bolt("y");
        let z = b.bolt("z");
        b.edge(s, z).unwrap();
        b.edge(s, x).unwrap();
        b.edge(s, y).unwrap();
        let topo = b.build().unwrap();
        let csr = CsrOutEdges::compile(&topo);
        assert_eq!(csr.edges_of(s.index()), &[0, 1, 2]);
        assert_eq!(
            csr.targets_of(s.index()),
            &[z.index() as u32, x.index() as u32, y.index() as u32]
        );
    }
}
