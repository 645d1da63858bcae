//! [`CspBackend`] implementation for the threaded [`RuntimeEngine`] — the
//! live runtime's closed-loop autoscaling path.
//!
//! The engine's *model operators* are its bolts in operator-id order
//! (spouts emit on their own threads and are excluded from the model,
//! exactly as the paper's `Kmax` counts bolt executors only). `advance`
//! waits out `window_secs` of wall-clock time and takes a windowed
//! [`crate::MetricsSnapshot`]; `apply` performs a real stop-the-executors
//! rebalance (queues preserved) and reports the *measured* pause, not the
//! controller's estimate.
//!
//! The engine is one host, so it has no machine concept: `apply` ignores
//! a plan's placement, and `apply_placement` is the trait's default
//! (accept and ignore), as for any backend without machines.

use crate::engine::{RuntimeEngine, RuntimeError};
use drs_core::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use std::time::Duration;

impl CspBackend for RuntimeEngine {
    fn backend_name(&self) -> &'static str {
        "runtime"
    }

    fn operator_names(&self) -> Vec<String> {
        self.topology()
            .bolts()
            .map(|op| op.name().to_owned())
            .collect()
    }

    fn current_allocation(&self) -> Vec<u32> {
        let allocation = self.allocation();
        self.topology()
            .bolts()
            .map(|op| allocation[op.id().index()])
            .collect()
    }

    fn advance(&mut self, window_secs: f64) -> WindowSample {
        std::thread::sleep(Duration::from_secs_f64(window_secs.max(0.0)));
        let snap = self.metrics_snapshot();
        let elapsed = snap.window_secs;
        let operators = self
            .topology()
            .bolts()
            .map(|op| {
                let m = snap.operators[op.id().index()];
                OperatorSample {
                    arrival_rate: m.arrival_rate(elapsed).filter(|_| m.arrivals > 0),
                    service_rate: m.service_rate(),
                }
            })
            .collect();
        WindowSample {
            external_rate: (elapsed > 0.0).then(|| snap.external_arrivals as f64 / elapsed),
            operators,
            mean_sojourn: snap.sojourn.mean(),
            std_sojourn: snap.sojourn.std_dev(),
            completed: snap.sojourn.count(),
        }
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
        let pause = self.rebalance(full).map_err(|e| match e {
            RuntimeError::AllocationLength { .. } | RuntimeError::ZeroAllocation { .. } => {
                BackendError::InvalidAllocation(e.to_string())
            }
            RuntimeError::MissingSpout { .. } | RuntimeError::MissingBolt { .. } => {
                BackendError::Other(e.to_string())
            }
        })?;
        Ok(AppliedRebalance {
            allocation: plan.allocation.clone(),
            pause_secs: pause.as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RuntimeBuilder;
    use crate::operator::{Bolt, Collector, Spout, SpoutEmission};
    use crate::tuple::Tuple;
    use drs_core::placement::Placement;
    use drs_topology::TopologyBuilder;

    struct Ticker {
        remaining: u64,
        gap: Duration,
    }

    impl Spout for Ticker {
        fn next(&mut self) -> Option<SpoutEmission> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(SpoutEmission {
                tuple: Tuple::of(self.remaining as i64),
                wait: self.gap,
            })
        }
    }

    struct Sink;
    impl Bolt for Sink {
        fn execute(&mut self, _t: &Tuple, _c: &mut dyn Collector) {}
    }

    fn engine(k: u32) -> RuntimeEngine {
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let sink = b.bolt("sink");
        b.edge(src, sink).unwrap();
        RuntimeBuilder::new(b.build().unwrap())
            .spout(
                src,
                Box::new(Ticker {
                    remaining: 200,
                    gap: Duration::from_micros(500),
                }),
            )
            .bolt(sink, || Sink)
            .allocation(vec![1, k])
            .start()
            .unwrap()
    }

    #[test]
    fn model_operators_are_bolts_only() {
        let e = engine(2);
        assert_eq!(e.operator_names(), vec!["sink".to_owned()]);
        assert_eq!(CspBackend::current_allocation(&e), vec![2]);
        assert_eq!(e.backend_name(), "runtime");
        e.shutdown(Duration::from_secs(1));
    }

    #[test]
    fn advance_measures_live_rates() {
        let mut e = engine(2);
        let w = e.advance(0.06);
        // ~2000/s nominal emission; scheduling noise makes this loose.
        assert!(w.external_rate.unwrap() > 100.0);
        assert!(w.operators[0].arrival_rate.unwrap() > 100.0);
        assert!(w.completed > 0);
        e.shutdown(Duration::from_secs(1));
    }

    #[test]
    fn apply_rebalances_live_and_measures_pause() {
        let mut e = engine(1);
        let applied = e
            .apply(&RebalancePlan {
                allocation: vec![4],
                pause_secs: 99.0, // estimate ignored: the engine measures
                epoch: 0,
                placement: None,
            })
            .unwrap();
        assert_eq!(applied.allocation, vec![4]);
        assert!(applied.pause_secs < 5.0);
        assert_eq!(e.allocation(), &[1, 4]);
        e.shutdown(Duration::from_secs(1));
    }

    #[test]
    fn apply_accepts_any_placement_and_installs_the_allocation() {
        let mut e = engine(1);
        // One machine, then three: neither is refused.
        for width in [1, 3] {
            let mut row = vec![0; width];
            row[width - 1] = 3;
            let applied = e
                .apply(&RebalancePlan {
                    allocation: vec![3],
                    pause_secs: 0.0,
                    epoch: 0,
                    placement: Some(Placement::from_counts(vec![row])),
                })
                .unwrap();
            assert_eq!(applied.allocation, vec![3]);
            assert_eq!(e.allocation(), &[1, 3]);
            e.apply(&RebalancePlan {
                allocation: vec![1],
                pause_secs: 0.0,
                epoch: 0,
                placement: None,
            })
            .unwrap();
        }
        e.shutdown(Duration::from_secs(1));
    }

    #[test]
    fn apply_rejects_malformed_plans() {
        let mut e = engine(1);
        assert!(matches!(
            e.apply(&RebalancePlan {
                allocation: vec![1, 1],
                pause_secs: 0.0,
                epoch: 0,
                placement: None,
            })
            .unwrap_err(),
            BackendError::InvalidAllocation(_)
        ));
        assert!(matches!(
            e.apply(&RebalancePlan {
                allocation: vec![0],
                pause_secs: 0.0,
                epoch: 0,
                placement: None,
            })
            .unwrap_err(),
            BackendError::InvalidAllocation(_)
        ));
        e.shutdown(Duration::from_secs(1));
    }
}
