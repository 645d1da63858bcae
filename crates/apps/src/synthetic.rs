//! The synthetic chain topology of the paper's Fig. 8 experiment.
//!
//! "A separate experiment over a synthetic topology with a simple chain of
//! three operators. Each operator simply performs some computations (such
//! as empty for-loops) with varying load" (§V-C). The paper sweeps the
//! total CPU time of the three bolts from 0.567 ms to 309.1 ms and shows
//! the ratio of measured to estimated sojourn time decaying toward 1 as
//! computation grows — network delay (which the model ignores) stops
//! mattering once compute dominates.

use drs_queueing::distribution::Distribution;
use drs_queueing::jackson::JacksonNetwork;
use drs_runtime::operator::{Bolt, Collector};
use drs_runtime::tuple::Tuple;
use drs_sim::workload::{CountDistribution, EdgeBehavior, OperatorBehavior};
use drs_sim::{SimulationBuilder, Simulator};
use drs_topology::{OperatorId, Topology, TopologyBuilder};
use std::hint::black_box;
use std::time::Instant;

/// The synthetic 3-bolt chain workload.
#[derive(Debug, Clone)]
pub struct SyntheticChain {
    /// External tuple rate (tuples/second).
    pub arrival_rate: f64,
    /// Total CPU time across the three bolts per tuple (seconds); split
    /// evenly, as in the paper's sweep.
    pub total_cpu_secs: f64,
    /// One-way network delay per hop (seconds). The model ignores it.
    pub network_delay_secs: f64,
}

impl SyntheticChain {
    /// The paper's six workloads: total bolt CPU time from 0.567 ms to
    /// 309.1 ms (log-spaced).
    pub fn paper_workloads() -> Vec<f64> {
        vec![0.000_567, 0.002, 0.007, 0.025, 0.088, 0.309_1]
    }

    /// Creates a chain workload with the given total CPU time.
    pub fn new(total_cpu_secs: f64) -> Self {
        SyntheticChain {
            arrival_rate: 20.0,
            total_cpu_secs,
            network_delay_secs: 0.014, // ~56 ms across 4 hops
        }
    }

    /// The chain topology `source → bolt0 → bolt1 → bolt2`.
    pub(crate) fn topology(&self) -> Topology {
        let mut b = TopologyBuilder::new();
        let source = b.spout("source");
        let mut prev = source;
        for i in 0..3 {
            let bolt = b.bolt(format!("bolt{i}"));
            b.edge(prev, bolt).expect("valid edge");
            prev = bolt;
        }
        b.build().expect("chain topology is valid")
    }

    /// The bolt ids in chain order.
    pub(crate) fn bolt_ids(&self, topology: &Topology) -> [OperatorId; 3] {
        [0, 1, 2].map(|i| {
            topology
                .operator_by_name(&format!("bolt{i}"))
                .expect("chain topology")
                .id()
        })
    }

    /// Per-bolt mean service time (seconds).
    pub(crate) fn per_bolt_cpu_secs(&self) -> f64 {
        self.total_cpu_secs / 3.0
    }

    /// A reference performance model for this workload (λ and µ identical
    /// across the three bolts).
    ///
    /// # Panics
    ///
    /// Panics if the workload parameters are invalid (zero CPU time).
    pub fn reference_model(&self) -> JacksonNetwork {
        let mu = 1.0 / self.per_bolt_cpu_secs();
        JacksonNetwork::from_rates(
            self.arrival_rate,
            &[
                (self.arrival_rate, mu),
                (self.arrival_rate, mu),
                (self.arrival_rate, mu),
            ],
        )
        .expect("valid reference model")
    }

    /// An allocation with ample headroom (utilisation ≈ 0.5 per bolt), as
    /// in the paper's 30-executor deployment.
    pub fn ample_allocation(&self) -> [u32; 3] {
        let net = self.reference_model();
        let min = net.min_stable_allocation();
        [min[0] * 2, min[1] * 2, min[2] * 2]
    }

    /// Builds the simulator under the given bolt allocation.
    pub fn build_simulation(&self, allocation: [u32; 3], seed: u64) -> Simulator {
        let topology = self.topology();
        let source = topology
            .operator_by_name("source")
            .expect("chain topology")
            .id();
        let bolts = self.bolt_ids(&topology);
        let service =
            Distribution::exponential(1.0 / self.per_bolt_cpu_secs()).expect("valid exponential");

        let mut full_allocation = vec![1u32; topology.len()];
        for (bolt, k) in bolts.iter().zip(allocation) {
            full_allocation[bolt.index()] = k;
        }

        let mut builder = SimulationBuilder::new(topology.clone())
            .behavior(
                source,
                OperatorBehavior::Spout {
                    interarrival: Distribution::exponential(self.arrival_rate)
                        .expect("valid exponential"),
                },
            )
            .allocation(full_allocation)
            .seed(seed);
        for bolt in bolts {
            builder = builder.behavior(
                bolt,
                OperatorBehavior::Bolt {
                    service: service.clone(),
                },
            );
        }
        // Every hop carries the fixed network delay the model cannot see.
        let hops = [
            (source, bolts[0]),
            (bolts[0], bolts[1]),
            (bolts[1], bolts[2]),
        ];
        for (from, to) in hops {
            builder = builder.edge_behavior(
                from,
                to,
                EdgeBehavior::with_fixed_delay(
                    CountDistribution::fixed(1),
                    self.network_delay_secs,
                ),
            );
        }
        builder.build().expect("chain simulation is valid")
    }
}

/// A bolt that burns approximately `busy_secs` of CPU per tuple with an
/// empty spin loop (the paper's "empty for-loops"), then forwards the
/// tuple. Used by the live runtime variant of the Fig. 8 experiment.
#[derive(Debug, Clone, Copy)]
pub struct SpinBolt {
    /// CPU time to burn per tuple (seconds).
    pub busy_secs: f64,
    /// Whether to forward the input downstream.
    pub forward: bool,
}

impl Bolt for SpinBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let start = Instant::now();
        let mut acc = 0u64;
        while start.elapsed().as_secs_f64() < self.busy_secs {
            // Empty-ish for loop the optimiser cannot remove.
            for i in 0..64u64 {
                acc = black_box(acc.wrapping_add(i));
            }
        }
        black_box(acc);
        if self.forward {
            let mut fields = collector.fields();
            fields.extend_from_slice(tuple.fields());
            collector.emit(Tuple::new(fields));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_runtime::operator::VecCollector;
    use drs_sim::SimDuration;

    #[test]
    fn paper_workloads_span_the_sweep() {
        let w = SyntheticChain::paper_workloads();
        assert_eq!(w.len(), 6);
        assert!((w[0] - 0.000_567).abs() < 1e-9);
        assert!((w[5] - 0.309_1).abs() < 1e-9);
        assert!(w.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn reference_model_estimate_tracks_cpu_time() {
        let light = SyntheticChain::new(0.000_567);
        let heavy = SyntheticChain::new(0.309_1);
        let e_light = light
            .reference_model()
            .expected_sojourn(&light.ample_allocation())
            .unwrap();
        let e_heavy = heavy
            .reference_model()
            .expected_sojourn(&heavy.ample_allocation())
            .unwrap();
        assert!(e_heavy > 100.0 * e_light);
    }

    #[test]
    fn measured_to_estimated_ratio_decays_with_cpu() {
        // The Fig. 8 shape in miniature: light workload ratio >> heavy.
        let ratio = |total_cpu: f64| {
            let chain = SyntheticChain::new(total_cpu);
            let alloc = chain.ample_allocation();
            let mut sim = chain.build_simulation(alloc, 13);
            sim.run_for(SimDuration::from_secs(120));
            let measured = sim.total_sojourn_stats().mean().unwrap();
            let estimated = chain.reference_model().expected_sojourn(&alloc).unwrap();
            measured / estimated
        };
        let light = ratio(0.000_567);
        let heavy = ratio(0.309_1);
        assert!(
            light > 10.0 * heavy,
            "light ratio {light} should dwarf heavy ratio {heavy}"
        );
        assert!(
            heavy < 2.0,
            "heavy workload ratio {heavy} should approach 1"
        );
    }

    #[test]
    fn spin_bolt_burns_requested_time() {
        let mut bolt = SpinBolt {
            busy_secs: 0.002,
            forward: true,
        };
        let mut out = VecCollector::new();
        let start = Instant::now();
        bolt.execute(&Tuple::of(1i64), &mut out);
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.002, "elapsed {elapsed}");
        assert!(elapsed < 0.05, "elapsed {elapsed} unreasonably long");
        assert_eq!(out.tuples().len(), 1);
    }

    #[test]
    fn spin_bolt_sink_mode() {
        let mut bolt = SpinBolt {
            busy_secs: 0.0,
            forward: false,
        };
        let mut out = VecCollector::new();
        bolt.execute(&Tuple::of(1i64), &mut out);
        assert!(out.tuples().is_empty());
    }
}
