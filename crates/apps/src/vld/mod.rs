//! Video logo detection (VLD), the paper's first test application (§V-A).
//!
//! Topology (paper Fig. 4): `video spout → SIFT feature extractor →
//! feature matcher → matching aggregator`. Frames arrive at a uniformly
//! distributed rate with mean 13 frames/second; each frame yields tens of
//! SIFT features; matching compares features against a logo library;
//! aggregation decides per frame whether a logo appears.
//!
//! Two realisations are provided:
//!
//! * [`VldProfile`] — the calibrated simulation workload used to reproduce
//!   the paper's figures on the discrete-event simulator;
//! * [`live`] — real operator implementations (synthetic frames, an actual
//!   gradient-histogram feature kernel, L2 matching) for the threaded
//!   runtime.
//!
//! # Calibration
//!
//! Rates are chosen so the *structure* of the paper's results reproduces:
//! offered loads put the minimum stable allocation at `(8:8:1)` with 17
//! executors (the paper's ExpA starting point) and the DRS optimum under
//! `Kmax = 22` at `(10:11:1)`, the allocation the paper's passive DRS
//! recommends. Absolute sojourn times sit a small constant factor above the
//! paper's (our synthetic SIFT cost model is not their C++ kernel); every
//! comparison in EXPERIMENTS.md is shape-based, as the reproduction brief
//! prescribes.

pub mod live;
pub mod scene;

use drs_queueing::distribution::Distribution;
use drs_sim::workload::{CountDistribution, EdgeBehavior, OperatorBehavior};
use drs_sim::{SimulationBuilder, Simulator};
use drs_topology::{OperatorId, Topology, TopologyBuilder};

/// Calibrated VLD simulation profile.
#[derive(Debug, Clone)]
pub struct VldProfile {
    /// Mean external frame rate (frames/second).
    pub frame_rate: f64,
    /// Mean SIFT features extracted per frame.
    pub features_per_frame: f64,
    /// Mean SIFT extraction time per frame (seconds).
    pub extract_mean_secs: f64,
    /// Squared coefficient of variation of extraction time (frame-to-frame
    /// feature variance).
    pub extract_cv2: f64,
    /// Mean feature-matching time per feature (seconds).
    pub match_mean_secs: f64,
    /// Probability a feature matches a logo and reaches the aggregator.
    pub match_selectivity: f64,
    /// Mean aggregation time per match (seconds).
    pub aggregate_mean_secs: f64,
    /// One-way network delay on the frame hop (seconds). The model ignores
    /// it.
    pub network_delay_secs: f64,
    /// Unmodelled per-tuple overhead on the feature-carrying hops
    /// (serialization, transfer and framework cost of shipping SIFT feature
    /// sets between workers). The DRS model cannot see this either; it is
    /// the counterweight to the model's sequential-visit accounting of the
    /// parallel feature fan-out, reproducing the paper's Fig. 7 finding
    /// that VLD estimates land close to (slightly below) measurements.
    pub feature_hop_delay_secs: f64,
}

impl VldProfile {
    /// The calibration used throughout the experiments (see module docs).
    ///
    /// Offered loads: extractor `a1 = 7.3`, matcher `a2 = 7.95`, aggregator
    /// `a3 ≈ 0.43` — so the minimum stable allocation is the paper's ExpA
    /// starting point `(8:8:1)` (17 executors) and the greedy optimum under
    /// `Kmax = 22` is the paper's starred `(10:11:1)`, with the aggregator's
    /// marginal benefit well below the contested extractor/matcher margins
    /// (robust to measurement noise).
    pub fn paper() -> Self {
        VldProfile {
            frame_rate: 13.0,
            features_per_frame: 30.0,
            extract_mean_secs: 7.3 / 13.0, // µ1 ≈ 1.78/s, offered load 7.3
            // SIFT cost varies strongly with per-frame feature counts
            // (paper §V-A); cv² = 2 makes extractor queueing decisively
            // sensitive to its executor share, as the paper measures.
            extract_cv2: 2.0,
            match_mean_secs: 7.95 / 390.0, // µ2 ≈ 49.1/s, offered load 7.95
            match_selectivity: 0.05,       // λ3 = 19.5/s
            aggregate_mean_secs: 1.0 / 45.0, // µ3 = 45/s, offered load 0.43
            network_delay_secs: 0.002,
            feature_hop_delay_secs: 0.25,
        }
    }

    /// Builds the Fig. 4 topology with this profile's mean gains.
    pub fn topology(&self) -> Topology {
        let mut b = TopologyBuilder::new();
        let spout = b.spout("video-spout");
        let sift = b.bolt("sift-extractor");
        let matcher = b.bolt("feature-matcher");
        let aggregator = b.bolt("matching-aggregator");
        b.edge(spout, sift).expect("valid edge");
        b.edge_with(
            sift,
            matcher,
            drs_topology::EdgeOptions {
                gain: self.features_per_frame,
                ..Default::default()
            },
        )
        .expect("valid edge");
        b.edge_with(
            matcher,
            aggregator,
            drs_topology::EdgeOptions {
                gain: self.match_selectivity,
                ..Default::default()
            },
        )
        .expect("valid edge");
        b.build().expect("vld topology is valid")
    }

    /// The bolt ids in model order `(sift, matcher, aggregator)` — the
    /// order of allocation vectors like the paper's `(x1:x2:x3)`.
    pub fn bolt_ids(&self, topology: &Topology) -> [OperatorId; 3] {
        [
            topology
                .operator_by_name("sift-extractor")
                .expect("vld topology")
                .id(),
            topology
                .operator_by_name("feature-matcher")
                .expect("vld topology")
                .id(),
            topology
                .operator_by_name("matching-aggregator")
                .expect("vld topology")
                .id(),
        ]
    }

    /// Theoretical per-operator `(λ, µ)` pairs in model order, for building
    /// a reference performance model without measurement.
    pub fn reference_rates(&self) -> (f64, Vec<(f64, f64)>) {
        let lambda0 = self.frame_rate;
        let lambda_features = lambda0 * self.features_per_frame;
        let lambda_matches = lambda_features * self.match_selectivity;
        (
            lambda0,
            vec![
                (lambda0, 1.0 / self.extract_mean_secs),
                (lambda_features, 1.0 / self.match_mean_secs),
                (lambda_matches, 1.0 / self.aggregate_mean_secs),
            ],
        )
    }

    /// Builds the simulator with the paper's stochastic laws:
    /// uniformly distributed inter-arrival times (mean rate
    /// [`VldProfile::frame_rate`], deliberately not exponential), log-normal
    /// extraction, Poisson feature fan-out.
    ///
    /// `allocation` is the bolt allocation `(x1, x2, x3)`.
    ///
    /// # Panics
    ///
    /// Panics if the profile parameters are out of range (all constructors
    /// validate).
    pub fn build_simulation(&self, allocation: [u32; 3], seed: u64) -> Simulator {
        let topology = self.topology();
        let spout = topology
            .operator_by_name("video-spout")
            .expect("vld topology")
            .id();
        let [sift, matcher, aggregator] = self.bolt_ids(&topology);

        // Uniform inter-arrival on [0, 2/rate]: mean rate preserved, uniform
        // law violating the model's exponential assumption (paper §V-C
        // stresses the model's robustness to exactly this).
        let interarrival =
            Distribution::uniform(0.0, 2.0 / self.frame_rate).expect("valid uniform");
        let extract =
            Distribution::log_normal_with_mean_cv2(self.extract_mean_secs, self.extract_cv2)
                .expect("valid log-normal");
        let matching =
            Distribution::exponential(1.0 / self.match_mean_secs).expect("valid exponential");
        let aggregate =
            Distribution::exponential(1.0 / self.aggregate_mean_secs).expect("valid exponential");
        let delay = self.network_delay_secs;
        let feature_delay = self.feature_hop_delay_secs;

        let mut full_allocation = vec![1u32; topology.len()];
        full_allocation[sift.index()] = allocation[0];
        full_allocation[matcher.index()] = allocation[1];
        full_allocation[aggregator.index()] = allocation[2];

        SimulationBuilder::new(topology)
            .behavior(spout, OperatorBehavior::Spout { interarrival })
            .behavior(sift, OperatorBehavior::Bolt { service: extract })
            .behavior(matcher, OperatorBehavior::Bolt { service: matching })
            .behavior(aggregator, OperatorBehavior::Bolt { service: aggregate })
            .edge_behavior(
                spout,
                sift,
                EdgeBehavior::with_fixed_delay(CountDistribution::fixed(1), delay),
            )
            .edge_behavior(
                sift,
                matcher,
                EdgeBehavior::with_fixed_delay(
                    CountDistribution::poisson(self.features_per_frame).expect("valid poisson"),
                    feature_delay,
                ),
            )
            .edge_behavior(
                matcher,
                aggregator,
                EdgeBehavior::with_fixed_delay(
                    CountDistribution::bernoulli(self.match_selectivity).expect("valid bernoulli"),
                    feature_delay,
                ),
            )
            .allocation(full_allocation)
            .seed(seed)
            .build()
            .expect("vld simulation is valid")
    }
}

impl Default for VldProfile {
    fn default() -> Self {
        VldProfile::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_core::scheduler::assign_processors;
    use drs_queueing::jackson::JacksonNetwork;
    use drs_sim::SimDuration;

    #[test]
    fn topology_matches_fig4() {
        let p = VldProfile::paper();
        let t = p.topology();
        assert_eq!(t.len(), 4);
        assert!(t.is_acyclic());
        assert_eq!(t.spouts().count(), 1);
        let sift = t.operator_by_name("sift-extractor").unwrap().id();
        let matcher = t.operator_by_name("feature-matcher").unwrap().id();
        let edge = t
            .edges()
            .iter()
            .find(|e| e.from() == sift && e.to() == matcher)
            .expect("sift -> matcher edge");
        assert_eq!(edge.gain(), p.features_per_frame);
    }

    #[test]
    fn reference_rates_have_paper_offered_loads() {
        let p = VldProfile::paper();
        let (lambda0, rates) = p.reference_rates();
        assert!((lambda0 - 13.0).abs() < 1e-9);
        // Offered loads: 7.3, 7.95, 0.43 => min allocation (8:8:1).
        let net = JacksonNetwork::from_rates(lambda0, &rates).unwrap();
        assert_eq!(net.min_stable_allocation(), vec![8, 8, 1]);
        assert_eq!(net.min_total_servers(), 17); // the paper's ExpA Kmax
    }

    #[test]
    fn drs_recommends_paper_allocation_under_kmax_22() {
        let p = VldProfile::paper();
        let (lambda0, rates) = p.reference_rates();
        let net = JacksonNetwork::from_rates(lambda0, &rates).unwrap();
        let alloc = assign_processors(&net, 22).unwrap();
        assert_eq!(
            alloc.per_operator(),
            &[10, 11, 1],
            "expected the paper's (10:11:1), got {alloc}"
        );
    }

    #[test]
    fn simulation_rates_match_reference() {
        let p = VldProfile::paper();
        let mut sim = p.build_simulation([10, 11, 1], 42);
        sim.run_for(SimDuration::from_secs(300));
        let w = sim.take_window();
        let topology = p.topology();
        let [sift, matcher, aggregator] = p.bolt_ids(&topology);
        let lam0 = w.external_rate().unwrap();
        assert!((lam0 - 13.0).abs() < 1.0, "λ̂0 = {lam0}");
        let lam_sift = w.operator_arrival_rate(sift.index()).unwrap();
        assert!((lam_sift - 13.0).abs() < 1.0, "λ̂_sift = {lam_sift}");
        let lam_match = w.operator_arrival_rate(matcher.index()).unwrap();
        assert!((lam_match - 390.0).abs() < 30.0, "λ̂_match = {lam_match}");
        let lam_agg = w.operator_arrival_rate(aggregator.index()).unwrap();
        assert!((lam_agg - 19.5).abs() < 4.0, "λ̂_agg = {lam_agg}");
        let mu_sift = w.operator_service_rate(sift.index()).unwrap();
        assert!((mu_sift - 1.78).abs() < 0.2, "µ̂_sift = {mu_sift}");
    }

    #[test]
    fn optimal_allocation_beats_alternatives_in_simulation() {
        // A compressed Fig. 6 check: the starred allocation has lower
        // measured sojourn than a clearly worse one.
        let p = VldProfile::paper();
        let measure = |alloc: [u32; 3]| {
            let mut sim = p.build_simulation(alloc, 7);
            sim.run_for(SimDuration::from_secs(240));
            sim.total_sojourn_stats().mean().unwrap()
        };
        let best = measure([10, 11, 1]);
        let worse = measure([12, 9, 1]); // starves the matcher
        assert!(
            best < worse,
            "(10:11:1) = {best}s should beat (12:9:1) = {worse}s"
        );
    }
}
