//! Structural presets: bare operator networks (names, edges, gains) from
//! the paper's figures, for tests and examples that need a non-trivial
//! shape. The calibrated VLD and FPD applications of Figs. 4–5 build their
//! own topologies in `drs-apps` (`VldProfile::topology`,
//! `FpdProfile::topology`).

use crate::build::{EdgeOptions, TopologyBuilder};
use crate::topology::Topology;

/// The complex operator network of paper Fig. 2: a split (`A → B, C`), a
/// join (`C, D → E`) and a feedback loop (`E → A`).
///
/// Gains are chosen so the loop gain stays well below 1 (E routes 20% of its
/// output back to A).
pub fn diamond_with_loop() -> Topology {
    let mut b = TopologyBuilder::new();
    let source = b.spout("source");
    let a = b.bolt("A");
    let b_op = b.bolt("B");
    let c = b.bolt("C");
    let d = b.bolt("D");
    let e = b.bolt("E");
    b.edge(source, a).expect("valid edge");
    b.edge_with(
        a,
        b_op,
        EdgeOptions {
            gain: 0.5,
            ..Default::default()
        },
    )
    .expect("valid edge");
    b.edge_with(
        a,
        c,
        EdgeOptions {
            gain: 0.5,
            ..Default::default()
        },
    )
    .expect("valid edge");
    b.edge(b_op, d).expect("valid edge");
    b.edge(c, e).expect("valid edge");
    b.edge(d, e).expect("valid edge");
    b.edge_with(
        e,
        a,
        EdgeOptions {
            gain: 0.2,
            ..Default::default()
        },
    )
    .expect("valid edge");
    b.build().expect("diamond is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_matches_fig2() {
        let t = diamond_with_loop();
        assert_eq!(t.len(), 6); // source + A..E
        assert!(!t.is_acyclic());
        let a = t.operator_by_name("A").unwrap().id();
        assert_eq!(t.downstream(a).count(), 2); // split
        let e = t.operator_by_name("E").unwrap().id();
        assert_eq!(t.edges().iter().filter(|x| x.to() == e).count(), 2); // join
        assert!(t.loop_gain() < 1.0);
    }

    #[test]
    fn diamond_traffic_solves() {
        let t = diamond_with_loop();
        let source = t.operator_by_name("source").unwrap().id();
        let eqs = t.traffic_equations(&[(source, 50.0)]).unwrap();
        let rates = eqs.solve().unwrap();
        let a = t.operator_by_name("A").unwrap().id().index();
        // λA = 50 + 0.2 λE and λE = λA (all of A's output reaches E).
        assert!((rates[a] - 62.5).abs() < 1e-6, "λA = {}", rates[a]);
    }
}
