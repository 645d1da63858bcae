//! Frequent pattern detection (FPD), the paper's second test application
//! (§V-A).
//!
//! Topology (paper Fig. 5): two spouts emit window *enter* (`+`) and
//! *leave* (`−`) events for a sliding window over a microblog stream; a
//! pattern generator expands each event into candidate itemsets; a detector
//! maintains occurrence counts and maximal-frequent flags, feeding state
//! changes back to itself through a loop edge (so all partitions learn of
//! changes) and forward to a reporter.
//!
//! Two realisations:
//!
//! * [`FpdProfile`] — the calibrated simulation workload (Poisson arrivals
//!   at 320 tweets/s, window 50 000, per the paper's setup);
//! * [`live`] — operators running the real [`mfp::SlidingWindowMiner`] on a
//!   Zipf-synthetic tweet stream (the original Twitter crawl is
//!   proprietary; see DESIGN.md for the substitution argument).
//!
//! # Calibration
//!
//! Offered loads are calibrated so every allocation of the paper's Fig. 6
//! FPD panel is stable (`x1 ≥ 5, x2 ≥ 12, x3 ≥ 2`) and the DRS optimum
//! under `Kmax = 22` is the paper's starred `(6:13:3)`. FPD is the paper's
//! *data-intensive* case: per-hop network delays dominate the model's
//! compute-only estimate, reproducing the systematic underestimation of
//! Fig. 7 (right).

pub mod live;
pub mod mfp;
pub mod zipf;

use drs_queueing::distribution::Distribution;
use drs_sim::workload::{CountDistribution, EdgeBehavior, OperatorBehavior};
use drs_sim::{SimulationBuilder, Simulator};
use drs_topology::{OperatorId, Topology, TopologyBuilder};

/// Calibrated FPD simulation profile.
#[derive(Debug, Clone)]
pub struct FpdProfile {
    /// Mean tweet arrival rate (tweets/second); enter and leave spouts each
    /// run at this rate in the steady sliding-window state.
    pub tweet_rate: f64,
    /// Mean candidate itemsets generated per window event.
    pub candidates_per_event: f64,
    /// Mean pattern-generation time per event (seconds).
    pub generate_mean_secs: f64,
    /// Mean detector time per candidate (seconds).
    pub detect_mean_secs: f64,
    /// Probability a candidate triggers a state-change notification looped
    /// back to the detector.
    pub notify_probability: f64,
    /// Probability a candidate produces a report to the reporter.
    pub report_probability: f64,
    /// Mean reporting time per update (seconds).
    pub report_mean_secs: f64,
    /// One-way network delay per hop (seconds) — deliberately large: FPD is
    /// the paper's data-intensive application.
    pub network_delay_secs: f64,
}

impl FpdProfile {
    /// The calibration used throughout the experiments (see module docs).
    pub fn paper() -> Self {
        FpdProfile {
            tweet_rate: 320.0,
            candidates_per_event: 8.0,
            generate_mean_secs: 1.0 / 136.0, // a1 = 640/136 ≈ 4.7 → min 5
            detect_mean_secs: 1.0 / 465.0,   // a2 = 5389/465 ≈ 11.6 → min 12
            notify_probability: 0.05,
            report_probability: 0.1,
            report_mean_secs: 1.0 / 299.0, // a3 = 539/299 ≈ 1.8 → min 2
            network_delay_secs: 0.025,
        }
    }

    /// Builds the Fig. 5 topology (two spouts, generator, looping detector,
    /// reporter) with this profile's mean gains.
    pub fn topology(&self) -> Topology {
        let mut b = TopologyBuilder::new();
        let enter = b.spout("window-enter");
        let leave = b.spout("window-leave");
        let generator = b.bolt("pattern-generator");
        let detector = b.bolt("detector");
        let reporter = b.bolt("reporter");
        b.edge(enter, generator).expect("valid edge");
        b.edge(leave, generator).expect("valid edge");
        b.edge_with(
            generator,
            detector,
            drs_topology::EdgeOptions {
                gain: self.candidates_per_event,
                ..Default::default()
            },
        )
        .expect("valid edge");
        b.edge_with(
            detector,
            detector,
            drs_topology::EdgeOptions {
                gain: self.notify_probability,
                ..Default::default()
            },
        )
        .expect("valid edge");
        b.edge_with(
            detector,
            reporter,
            drs_topology::EdgeOptions {
                gain: self.report_probability,
                ..Default::default()
            },
        )
        .expect("valid edge");
        b.build().expect("fpd topology is valid")
    }

    /// The bolt ids in model order `(generator, detector, reporter)`.
    pub fn bolt_ids(&self, topology: &Topology) -> [OperatorId; 3] {
        [
            topology
                .operator_by_name("pattern-generator")
                .expect("fpd topology")
                .id(),
            topology
                .operator_by_name("detector")
                .expect("fpd topology")
                .id(),
            topology
                .operator_by_name("reporter")
                .expect("fpd topology")
                .id(),
        ]
    }

    /// Theoretical `(λ0, per-operator (λ, µ))` for a reference model: the
    /// traffic equations account for the detector's self-loop
    /// (`λ_det = g·λ0 / (1 − p_notify)`).
    pub fn reference_rates(&self) -> (f64, Vec<(f64, f64)>) {
        let lambda0 = 2.0 * self.tweet_rate; // enter + leave events
        let lambda_gen = lambda0;
        let lambda_det = lambda_gen * self.candidates_per_event / (1.0 - self.notify_probability);
        let lambda_rep = lambda_det * self.report_probability;
        (
            lambda0,
            vec![
                (lambda_gen, 1.0 / self.generate_mean_secs),
                (lambda_det, 1.0 / self.detect_mean_secs),
                (lambda_rep, 1.0 / self.report_mean_secs),
            ],
        )
    }

    /// Builds the simulator. `allocation` is the bolt allocation
    /// `(x1, x2, x3) = (generator, detector, reporter)`.
    pub fn build_simulation(&self, allocation: [u32; 3], seed: u64) -> Simulator {
        let topology = self.topology();
        let enter = topology
            .operator_by_name("window-enter")
            .expect("fpd topology")
            .id();
        let leave = topology
            .operator_by_name("window-leave")
            .expect("fpd topology")
            .id();
        let [generator, detector, reporter] = self.bolt_ids(&topology);

        let interarrival = Distribution::exponential(self.tweet_rate).expect("valid exponential");
        let generate =
            Distribution::exponential(1.0 / self.generate_mean_secs).expect("valid exponential");
        let detect =
            Distribution::exponential(1.0 / self.detect_mean_secs).expect("valid exponential");
        let report =
            Distribution::exponential(1.0 / self.report_mean_secs).expect("valid exponential");
        let delay = self.network_delay_secs;

        let mut full_allocation = vec![1u32; topology.len()];
        full_allocation[generator.index()] = allocation[0];
        full_allocation[detector.index()] = allocation[1];
        full_allocation[reporter.index()] = allocation[2];

        SimulationBuilder::new(topology)
            .behavior(
                enter,
                OperatorBehavior::Spout {
                    interarrival: interarrival.clone(),
                },
            )
            .behavior(leave, OperatorBehavior::Spout { interarrival })
            .behavior(generator, OperatorBehavior::Bolt { service: generate })
            .behavior(detector, OperatorBehavior::Bolt { service: detect })
            .behavior(reporter, OperatorBehavior::Bolt { service: report })
            .edge_behavior(
                enter,
                generator,
                EdgeBehavior::with_fixed_delay(CountDistribution::fixed(1), delay),
            )
            .edge_behavior(
                leave,
                generator,
                EdgeBehavior::with_fixed_delay(CountDistribution::fixed(1), delay),
            )
            .edge_behavior(
                generator,
                detector,
                EdgeBehavior::with_fixed_delay(
                    CountDistribution::poisson(self.candidates_per_event).expect("valid poisson"),
                    delay,
                ),
            )
            .edge_behavior(
                detector,
                detector,
                EdgeBehavior::with_fixed_delay(
                    CountDistribution::bernoulli(self.notify_probability).expect("valid bernoulli"),
                    delay / 5.0, // loop messages stay node-local more often
                ),
            )
            .edge_behavior(
                detector,
                reporter,
                EdgeBehavior::with_fixed_delay(
                    CountDistribution::bernoulli(self.report_probability).expect("valid bernoulli"),
                    delay,
                ),
            )
            .allocation(full_allocation)
            .seed(seed)
            .build()
            .expect("fpd simulation is valid")
    }
}

impl Default for FpdProfile {
    fn default() -> Self {
        FpdProfile::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_core::scheduler::assign_processors;
    use drs_queueing::jackson::JacksonNetwork;
    use drs_sim::SimDuration;

    #[test]
    fn topology_matches_fig5() {
        let p = FpdProfile::paper();
        let t = p.topology();
        assert_eq!(t.len(), 5);
        assert_eq!(t.spouts().count(), 2);
        assert!(!t.is_acyclic()); // the detector loop
        let detector = t.operator_by_name("detector").unwrap().id();
        assert!(t
            .edges()
            .iter()
            .any(|e| e.from() == detector && e.to() == detector));
        // Inputs: the generator and the detector's own loop.
        assert_eq!(t.edges().iter().filter(|e| e.to() == detector).count(), 2);
        assert!((t.loop_gain() - p.notify_probability).abs() < 1e-9);
    }

    #[test]
    fn reference_rates_have_paper_offered_loads() {
        let p = FpdProfile::paper();
        let (lambda0, rates) = p.reference_rates();
        assert!((lambda0 - 640.0).abs() < 1e-9);
        let net = JacksonNetwork::from_rates(lambda0, &rates).unwrap();
        // Minimum stable allocation keeps every Fig. 6 FPD config feasible.
        assert_eq!(net.min_stable_allocation(), vec![5, 12, 2]);
    }

    #[test]
    fn drs_recommends_paper_allocation_under_kmax_22() {
        let p = FpdProfile::paper();
        let (lambda0, rates) = p.reference_rates();
        let net = JacksonNetwork::from_rates(lambda0, &rates).unwrap();
        let alloc = assign_processors(&net, 22).unwrap();
        assert_eq!(
            alloc.per_operator(),
            &[6, 13, 3],
            "expected the paper's (6:13:3), got {alloc}"
        );
    }

    #[test]
    fn simulated_loop_amplifies_detector_rate() {
        let p = FpdProfile::paper();
        let mut sim = p.build_simulation([6, 13, 3], 5);
        sim.run_for(SimDuration::from_secs(60));
        let w = sim.take_window();
        let topology = p.topology();
        let [_, detector, _] = p.bolt_ids(&topology);
        let rate = w.operator_arrival_rate(detector.index()).unwrap();
        // λ_det = 640·8/(1−0.05) ≈ 5389/s.
        assert!(
            (rate - 5389.0).abs() < 300.0,
            "detector arrival rate {rate}"
        );
    }

    #[test]
    fn network_delay_dominates_sojourn() {
        // The FPD hallmark: measured sojourn far exceeds the compute-only
        // model estimate because of per-hop delays.
        let p = FpdProfile::paper();
        let mut sim = p.build_simulation([6, 13, 3], 9);
        sim.run_for(SimDuration::from_secs(120));
        let measured = sim.total_sojourn_stats().mean().unwrap();
        let (lambda0, rates) = p.reference_rates();
        let net = JacksonNetwork::from_rates(lambda0, &rates).unwrap();
        let estimated = net.expected_sojourn(&[6, 13, 3]).unwrap();
        assert!(
            measured > 2.0 * estimated,
            "measured {measured}s should dwarf estimated {estimated}s"
        );
    }
}
