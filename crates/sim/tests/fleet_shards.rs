//! Simulator shards under a `FleetDriver`: each shard keeps its own virtual
//! clock and RNG, grants and machine placements reach the simulators they
//! were made for, and drift injected into one shard moves the budget.

use drs_core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec};
use drs_queueing::distribution::Distribution;
use drs_sim::workload::OperatorBehavior;
use drs_sim::{SimulationBuilder, Simulator};
use drs_topology::TopologyBuilder;

fn chain_sim(lambda: f64, mu: f64, k: u32, seed: u64) -> Simulator {
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
        .seed(seed)
        .build()
        .unwrap()
}

fn coordinator(k_max: u32, shards: Vec<(&str, f64, Simulator)>) -> FleetDriver<Simulator> {
    let mut config = FleetDriverConfig::new(k_max);
    config.window_secs = 30.0;
    config.warmup_windows = 1;
    FleetDriver::new(
        config,
        shards
            .into_iter()
            .map(|(name, t_max, sim)| FleetShardSpec::new(name, t_max, sim))
            .collect(),
    )
    .unwrap()
}

#[test]
fn shard_clocks_are_isolated() {
    // A shard inside a fleet measures exactly what the same simulator
    // measures standing alone: the other shards' event streams never
    // touch its clock or its RNG.
    let mut fleet = coordinator(
        32,
        vec![
            ("b", 1.0, chain_sim(80.0, 30.0, 4, 11)),
            ("a", 1.0, chain_sim(50.0, 20.0, 4, 7)),
        ],
    );
    // Advance only via the fleet, b before a.
    fleet.step();

    let mut solo = chain_sim(50.0, 20.0, 4, 7);
    solo.run_for(drs_sim::time::SimDuration::from_secs(30));
    let w = solo.take_window();

    let shard_a = fleet.backend(1);
    assert_eq!(shard_a.now(), solo.now());
    assert_eq!(
        shard_a.total_external_arrivals(),
        solo.total_external_arrivals()
    );
    assert_eq!(
        fleet.timeline()[0].shards[1].completed,
        w.sojourn.count(),
        "fleet shard must replay the standalone event stream exactly"
    );
}

#[test]
fn contended_fleet_caps_to_budget() {
    // Both shards want ~6+ executors for a 0.12 s target; the budget
    // holds 9. The coordinator must spend exactly the budget and keep
    // both shards at or above their minimum stable allocation.
    let mut fleet = coordinator(
        9,
        vec![
            ("hot", 0.12, chain_sim(45.0, 10.0, 5, 3)),
            ("cold", 0.12, chain_sim(25.0, 10.0, 3, 5)),
        ],
    );
    fleet.run_windows(6);
    let last = fleet.timeline().last().unwrap();
    assert!(last.contended, "budget 9 must contend: {last:?}");
    assert_eq!(last.total_granted, 9);
    assert!(last.shards.iter().any(|s| s.capped));
    assert!(last.shards[0].allocation[0] >= 5);
    assert!(last.shards[1].allocation[0] >= 3);
    // The allocations really are in force in the simulators.
    assert_eq!(
        fleet.backend(0).allocation()[1],
        last.shards[0].allocation[0]
    );
    assert_eq!(
        fleet.backend(1).allocation()[1],
        last.shards[1].allocation[0]
    );
}

#[test]
fn machine_placement_reaches_the_shard_simulators() {
    use drs_core::fleet::ShardPlacementInfo;
    use drs_core::placement::MachinePool as PlacementPool;
    use drs_topology::ResourceProfile;

    // One stable shard (λ=25, μ=10, k=4 meets a 0.3 s target) on a
    // 2-machine pool whose per-machine capacity only fits two of its
    // four executors: the solver must split 2/2, and the placement-only
    // actuation path must install the resulting 0.5 crossing
    // probability on the spout→bolt edge of the live simulator.
    let mut config = FleetDriverConfig::new(8);
    config.window_secs = 30.0;
    config.warmup_windows = 1;
    let spec = FleetShardSpec::new("a", 0.3, chain_sim(25.0, 10.0, 4, 9)).with_placement(
        ShardPlacementInfo {
            profiles: vec![ResourceProfile::uniform(1.0)],
            edges: vec![],
        },
    );
    let mut fleet = FleetDriver::new(config, vec![spec]).unwrap();
    fleet.set_machine_pool(PlacementPool::uniform(2, ResourceProfile::uniform(2.0)).unwrap());
    fleet.run_windows(4);

    let placement = fleet
        .shard_placement(0)
        .expect("placement must be in force");
    assert_eq!(placement.allocation(), vec![4]);
    assert_eq!(placement.counts_of(0).collect::<Vec<_>>(), [(0, 2), (1, 2)]);
    assert_eq!(fleet.backend(0).edge_cross_probabilities(), &[0.5]);
    let last = fleet.timeline().last().unwrap();
    assert!(last.shards[0].error.is_none(), "no errors: {last:?}");
}

#[test]
fn drift_injection_redistributes_capacity() {
    let mut fleet = coordinator(
        9,
        vec![
            ("hot", 0.12, chain_sim(45.0, 10.0, 5, 3)),
            ("cold", 0.12, chain_sim(25.0, 10.0, 3, 5)),
        ],
    );
    fleet.run_windows(6);
    let before = fleet.timeline().last().unwrap().shards[1].granted();
    // The hot shard's load collapses; its freed executors must flow to
    // the cold shard over the following windows.
    let spout = fleet
        .backend(0)
        .topology()
        .operator_by_name("src")
        .unwrap()
        .id();
    fleet
        .backend_mut(0)
        .set_spout_interarrival(spout, Distribution::exponential(5.0).unwrap())
        .unwrap();
    fleet.run_windows(8);
    let last = fleet.timeline().last().unwrap();
    assert!(
        last.shards[1].granted() > before,
        "cold shard should inherit freed capacity: {} vs {before}",
        last.shards[1].granted()
    );
    assert!(last.total_granted <= 9);
}
