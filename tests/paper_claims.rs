//! The paper's headline claims, verified end to end on this reproduction.

use drs::apps::{FpdProfile, SyntheticChain, VldProfile};
use drs::core::scheduler::{
    assign_processors, assign_processors_exhaustive, min_processors_for_target,
};
use drs::queueing::jackson::JacksonNetwork;
use drs::sim::SimDuration;
use drs::topology::presets;
use drs_bench::sweep::{run_sweep, App};

fn vld_network() -> JacksonNetwork {
    let (l0, rates) = VldProfile::paper().reference_rates();
    JacksonNetwork::from_rates(l0, &rates).unwrap()
}

fn fpd_network() -> JacksonNetwork {
    let (l0, rates) = FpdProfile::paper().reference_rates();
    JacksonNetwork::from_rates(l0, &rates).unwrap()
}

#[test]
fn theorem1_greedy_is_optimal_on_both_applications() {
    for net in [vld_network(), fpd_network()] {
        for k_max in [20u32, 22, 26] {
            let greedy = assign_processors(&net, k_max).unwrap();
            let brute = assign_processors_exhaustive(&net, k_max).unwrap();
            assert!(
                (greedy.expected_sojourn() - brute.expected_sojourn()).abs() < 1e-12,
                "greedy must equal exhaustive at Kmax={k_max}"
            );
        }
    }
}

#[test]
fn paper_recommendations_reproduce() {
    // Fig. 6's starred allocations.
    let vld = assign_processors(&vld_network(), 22).unwrap();
    assert_eq!(vld.per_operator(), &[10, 11, 1]);
    let fpd = assign_processors(&fpd_network(), 22).unwrap();
    assert_eq!(fpd.per_operator(), &[6, 13, 3]);
}

#[test]
fn starred_allocation_wins_in_simulation() {
    // Compressed Fig. 6: the DRS recommendation beats the other five paper
    // allocations under simulation (VLD; the full sweep runs in the bench
    // harness).
    let profile = VldProfile::paper();
    let allocations: [[u32; 3]; 6] = [
        [8, 12, 2],
        [9, 11, 2],
        [10, 11, 1],
        [11, 9, 2],
        [11, 10, 1],
        [12, 9, 1],
    ];
    let mut results = Vec::new();
    for (i, &alloc) in allocations.iter().enumerate() {
        let mut sim = profile.build_simulation(alloc, 100 + i as u64);
        sim.run_for(SimDuration::from_secs(60)); // warm-up
        let _ = sim.take_window();
        sim.run_for(SimDuration::from_secs(300));
        let w = sim.take_window();
        results.push((alloc, w.mean_sojourn().unwrap()));
    }
    let best = results
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let starred = results.iter().find(|(a, _)| *a == [10, 11, 1]).unwrap();
    // Within noise of the best (its neighbour (11:10:1) is a near-tie in
    // the paper too) and decisively ahead of the worst.
    assert!(
        starred.1 <= best.1 * 1.03,
        "starred {} vs best {:?}: {results:?}",
        starred.1,
        best
    );
    let worst = results.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    assert!(starred.1 < worst * 0.85, "sweep results: {results:?}");
}

#[test]
fn model_ranks_fig6_allocations_as_measured() {
    // Figs. 6–8: the Jackson/Erlang estimate misses the unmodelled per-hop
    // cost (FPD's by 1.5–2.3×) but orders the six Fig. 6 allocations as the
    // simulator measures them, which is all Algorithm 1 needs. Spearman ρ
    // between estimated and measured E[T] over `sweep.rs`'s allocations, on
    // `repro fig7`'s seed. With six allocations ρ moves in steps of 2/35;
    // measured: VLD 0.829 over the paper's ten minutes (= `repro fig7`),
    // FPD 0.943 over one minute (`repro fig7` reads 1.000 over ten; one
    // minute keeps the debug build quick).
    let vld = run_sweep(App::Vld, 600, 2015).rank_correlation();
    assert!(vld >= 0.8, "VLD rank correlation {vld}");
    let fpd = run_sweep(App::Fpd, 60, 2015).rank_correlation();
    assert!(fpd >= 0.9, "FPD rank correlation {fpd}");
}

#[test]
fn loops_splits_and_joins_are_supported() {
    // The Fig. 2 diamond-with-loop topology: traffic equations solve and
    // the resulting network schedules.
    let topo = presets::diamond_with_loop();
    assert!(!topo.is_acyclic());
    let source = topo.operator_by_name("source").unwrap().id();
    let eqs = topo.traffic_equations(&[(source, 50.0)]).unwrap();
    let rates = eqs.solve().unwrap();
    // Loop amplification: A sees more than the external rate.
    let a = topo.operator_by_name("A").unwrap().id().index();
    assert!(rates[a] > 50.0);

    // Build a model over the bolts and schedule it.
    let bolt_rates: Vec<(f64, f64)> = topo
        .bolts()
        .map(|op| (rates[op.id().index()], 30.0))
        .collect();
    let net = JacksonNetwork::from_rates(50.0, &bolt_rates).unwrap();
    let alloc = assign_processors(&net, 40).unwrap();
    assert_eq!(alloc.total(), 40);
    assert!(alloc.expected_sojourn().is_finite());
}

#[test]
fn program6_uses_fewer_resources_for_looser_targets() {
    // Fig. 10's premise, on both applications.
    for net in [vld_network(), fpd_network()] {
        let bound: f64 = net
            .operators()
            .iter()
            .map(|op| op.arrival_rate() / op.service_rate())
            .sum::<f64>()
            / net.external_rate();
        let tight = min_processors_for_target(&net, bound * 1.15, 4096).unwrap();
        let loose = min_processors_for_target(&net, bound * 3.0, 4096).unwrap();
        assert!(
            tight.total() > loose.total(),
            "tight {} <= loose {}",
            tight.total(),
            loose.total()
        );
    }
}

#[test]
fn model_underestimates_when_network_dominates() {
    // Fig. 8's two endpoints on the synthetic chain.
    let light = SyntheticChain::new(0.000_567);
    let heavy = SyntheticChain::new(0.309_1);
    let ratio = |chain: &SyntheticChain, seed: u64| {
        let alloc = chain.ample_allocation();
        let mut sim = chain.build_simulation(alloc, seed);
        sim.run_for(SimDuration::from_secs(150));
        let measured = sim.total_sojourn_stats().mean().unwrap();
        let estimated = chain.reference_model().expected_sojourn(&alloc).unwrap();
        measured / estimated
    };
    let light_ratio = ratio(&light, 21);
    let heavy_ratio = ratio(&heavy, 23);
    assert!(
        light_ratio > 20.0,
        "network-dominated ratio should be large, got {light_ratio}"
    );
    assert!(
        heavy_ratio < 1.5,
        "compute-dominated ratio should approach 1, got {heavy_ratio}"
    );
}

#[test]
fn deterministic_reproduction_under_fixed_seed() {
    // Figure regeneration is exactly reproducible: same seed, same numbers.
    let run = || {
        let mut sim = VldProfile::paper().build_simulation([10, 11, 1], 2015);
        sim.run_for(SimDuration::from_secs(120));
        sim.total_sojourn_stats().mean().unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.to_bits(), b.to_bits(), "bit-identical reruns expected");
}
