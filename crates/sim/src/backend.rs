//! [`CspBackend`] implementation for the discrete-event [`Simulator`].
//!
//! The simulator's *model operators* are its bolts in operator-id order
//! (spouts are sources, not servers; the paper's `Kmax` counts bolt
//! executors only). `advance` runs virtual time forward and closes a
//! measurement window; `apply` expands the bolt allocation to the full
//! topology (spouts keep one executor) and charges the plan's pause as the
//! re-balancing cost, exactly as the paper's §V timelines do.

use crate::simulator::{SimError, Simulator};
use crate::time::SimDuration;
use drs_core::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use drs_core::placement::Placement;
use drs_topology::OperatorKind;

impl CspBackend for Simulator {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn operator_names(&self) -> Vec<String> {
        self.topology()
            .bolts()
            .map(|op| op.name().to_owned())
            .collect()
    }

    fn current_allocation(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.current_allocation_into(&mut out);
        out
    }

    fn current_allocation_into(&self, out: &mut Vec<u32>) {
        // Filled in place so a settled fleet window polling every shard
        // stays allocation-free once `out` has bolt capacity.
        let allocation = self.allocation();
        out.clear();
        out.extend(
            self.topology()
                .bolts()
                .map(|op| allocation[op.id().index()]),
        );
    }

    fn advance(&mut self, window_secs: f64) -> WindowSample {
        let mut out = WindowSample::default();
        self.advance_into(window_secs, &mut out);
        out
    }

    fn advance_into(&mut self, window_secs: f64, out: &mut WindowSample) {
        self.run_for(SimDuration::from_secs_f64(window_secs));
        // The window is closed in place, so a settled simulator-backed
        // shard allocates nothing here once `out` has bolt capacity.
        self.close_window_with(|sim, w| {
            out.operators.clear();
            out.operators.extend(sim.topology().bolts().map(|op| {
                let i = op.id().index();
                OperatorSample {
                    arrival_rate: w.operator_arrival_rate(i),
                    service_rate: w.operator_service_rate(i),
                }
            }));
            out.external_rate = w.external_rate();
            out.mean_sojourn = w.mean_sojourn();
            out.std_sojourn = w.sojourn.std_dev();
            out.completed = w.sojourn.count();
        });
    }

    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        let full = self
            .topology()
            .expand_bolt_allocation(&plan.allocation)
            .ok_or_else(|| {
                BackendError::InvalidAllocation(format!(
                    "allocation length {}, expected one entry per bolt",
                    plan.allocation.len()
                ))
            })?;
        self.rebalance(full, SimDuration::from_secs_f64(plan.pause_secs))
            .map_err(|e| match e {
                SimError::RebalanceInProgress => BackendError::RebalanceUnavailable(e.to_string()),
                SimError::AllocationLength { .. } | SimError::ZeroAllocation { .. } => {
                    BackendError::InvalidAllocation(e.to_string())
                }
                SimError::BehaviorMismatch { .. } | SimError::PlacementMismatch { .. } => {
                    BackendError::Other(e.to_string())
                }
            })?;
        if let Some(placement) = &plan.placement {
            self.apply_placement(placement)?;
        }
        Ok(AppliedRebalance {
            allocation: plan.allocation.clone(),
            pause_secs: plan.pause_secs,
        })
    }

    fn apply_placement(&mut self, placement: &Placement) -> Result<(), BackendError> {
        // The placement indexes *model operators* (bolts in id order); map
        // every topology operator to its model index, spouts to `None`.
        let topology = self.topology();
        let mut model_idx = vec![None; topology.len()];
        let mut bolts = 0;
        for op in topology.operators() {
            if op.kind() == OperatorKind::Bolt {
                model_idx[op.id().index()] = Some(bolts);
                bolts += 1;
            }
        }
        if placement.operators() != bolts {
            return Err(BackendError::InvalidAllocation(format!(
                "placement covers {} operators, topology has {bolts} bolts",
                placement.operators()
            )));
        }
        // Under shuffle grouping a tuple on edge u→v crosses machines with
        // probability 1 − Σ_m share_u[m]·share_v[m]. Spouts are not placed
        // by the solver; they are pinned to machine 0, so a spout→bolt edge
        // crosses whenever the chosen target executor is off machine 0.
        let probs: Vec<f64> = topology
            .edges()
            .iter()
            .map(|edge| {
                let to = match model_idx[edge.to().index()] {
                    Some(v) => v,
                    None => return 0.0, // edges into spouts cannot exist
                };
                match model_idx[edge.from().index()] {
                    Some(u) => placement.cross_probability(u, to),
                    None => {
                        let k = placement.executors_of(to);
                        if k == 0 {
                            0.0
                        } else {
                            1.0 - placement.count(to, 0) as f64 / k as f64
                        }
                    }
                }
            })
            .collect();
        self.set_edge_cross_probabilities(probs)
            .map_err(|e| BackendError::Other(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::OperatorBehavior;
    use crate::SimulationBuilder;
    use drs_queueing::distribution::Distribution;
    use drs_topology::TopologyBuilder;

    fn chain_sim(lambda: f64, mu: f64, k: u32) -> Simulator {
        let mut b = TopologyBuilder::new();
        let spout = b.spout("src");
        let bolt = b.bolt("work");
        b.edge(spout, bolt).unwrap();
        SimulationBuilder::new(b.build().unwrap())
            .behavior(
                spout,
                OperatorBehavior::Spout {
                    interarrival: Distribution::exponential(lambda).unwrap(),
                },
            )
            .behavior(
                bolt,
                OperatorBehavior::Bolt {
                    service: Distribution::exponential(mu).unwrap(),
                },
            )
            .allocation(vec![1, k])
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn model_operators_are_bolts_only() {
        let sim = chain_sim(50.0, 30.0, 3);
        assert_eq!(sim.operator_names(), vec!["work".to_owned()]);
        assert_eq!(CspBackend::current_allocation(&sim), vec![3]);
        assert_eq!(sim.backend_name(), "sim");
    }

    #[test]
    fn advance_measures_configured_rates() {
        let mut sim = chain_sim(100.0, 40.0, 4);
        let w = sim.advance(300.0);
        assert!((w.external_rate.unwrap() - 100.0).abs() < 5.0);
        assert!((w.operators[0].arrival_rate.unwrap() - 100.0).abs() < 5.0);
        assert!((w.operators[0].service_rate.unwrap() - 40.0).abs() < 2.0);
        assert!(w.completed > 10_000);
        assert!(w.mean_sojourn.unwrap() > 0.0);
    }

    #[test]
    fn apply_expands_to_full_topology() {
        let mut sim = chain_sim(50.0, 30.0, 2);
        let applied = sim
            .apply(&RebalancePlan {
                allocation: vec![5],
                pause_secs: 0.0,
                epoch: 0,
                placement: None,
            })
            .unwrap();
        assert_eq!(applied.allocation, vec![5]);
        assert_eq!(sim.allocation(), &[1, 5]); // spout keeps one executor
    }

    #[test]
    fn apply_during_pause_is_unavailable_not_a_panic() {
        let mut sim = chain_sim(50.0, 30.0, 2);
        sim.advance(10.0);
        sim.apply(&RebalancePlan {
            allocation: vec![4],
            pause_secs: 30.0,
            epoch: 0,
            placement: None,
        })
        .unwrap();
        // The pause outlasts the next window: a second apply must fail
        // cleanly.
        sim.advance(5.0);
        let err = sim
            .apply(&RebalancePlan {
                allocation: vec![6],
                pause_secs: 1.0,
                epoch: 0,
                placement: None,
            })
            .unwrap_err();
        assert!(matches!(err, BackendError::RebalanceUnavailable(_)));
    }

    #[test]
    fn apply_placement_translates_counts_to_crossing_probabilities() {
        // spout → a → b, with a and b split evenly over two machines. Under
        // shuffle grouping the a→b edge stays local with probability
        // 0.5·0.5 + 0.5·0.5 = 0.5; the spout (pinned to machine 0) reaches
        // a's off-machine executor half the time too.
        let mut t = TopologyBuilder::new();
        let spout = t.spout("src");
        let a = t.bolt("a");
        let b = t.bolt("b");
        t.edge(spout, a).unwrap();
        t.edge(a, b).unwrap();
        let mut sim = SimulationBuilder::new(t.build().unwrap())
            .behavior(
                spout,
                OperatorBehavior::Spout {
                    interarrival: Distribution::exponential(50.0).unwrap(),
                },
            )
            .behavior(
                a,
                OperatorBehavior::Bolt {
                    service: Distribution::exponential(60.0).unwrap(),
                },
            )
            .behavior(
                b,
                OperatorBehavior::Bolt {
                    service: Distribution::exponential(60.0).unwrap(),
                },
            )
            .allocation(vec![1, 2, 2])
            .seed(3)
            .build()
            .unwrap();
        sim.apply(&RebalancePlan {
            allocation: vec![2, 2],
            pause_secs: 0.0,
            epoch: 0,
            placement: Some(Placement::from_counts(vec![vec![1, 1], vec![1, 1]])),
        })
        .unwrap();
        assert_eq!(sim.edge_cross_probabilities(), &[0.5, 0.5]);

        // Packing everything back onto machine 0 makes every edge local.
        sim.apply_placement(&Placement::from_counts(vec![vec![2, 0], vec![2, 0]]))
            .unwrap();
        assert_eq!(sim.edge_cross_probabilities(), &[0.0, 0.0]);
    }

    #[test]
    fn apply_placement_rejects_wrong_operator_count() {
        let mut sim = chain_sim(50.0, 30.0, 2);
        let err = sim
            .apply_placement(&Placement::from_counts(vec![vec![1, 1], vec![1, 1]]))
            .unwrap_err();
        assert!(matches!(err, BackendError::InvalidAllocation(_)));
        // Nothing installed: the single edge still never crosses.
        assert_eq!(sim.edge_cross_probabilities(), &[0.0]);
    }

    #[test]
    fn apply_rejects_malformed_plans() {
        let mut sim = chain_sim(50.0, 30.0, 2);
        let err = sim
            .apply(&RebalancePlan {
                allocation: vec![2, 2],
                pause_secs: 0.0,
                epoch: 0,
                placement: None,
            })
            .unwrap_err();
        assert!(matches!(err, BackendError::InvalidAllocation(_)));
        let err = sim
            .apply(&RebalancePlan {
                allocation: vec![0],
                pause_secs: 0.0,
                epoch: 0,
                placement: None,
            })
            .unwrap_err();
        assert!(matches!(err, BackendError::InvalidAllocation(_)));
    }
}
