//! Shard-interleaving determinism: two runs of the same fleet config (same
//! seeds) produce bit-identical per-shard timelines even when the shards
//! are advanced in different orders within every window — the guarantee
//! that shard virtual clocks (and RNGs) are fully isolated from each other.

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

/// The same three-shard fleet every time: mixed loads under a contended
/// budget, so arbitration (not just measurement) is exercised.
fn fleet() -> FleetDriver<Simulator> {
    let mut config = FleetDriverConfig::new(13);
    config.window_secs = 20.0;
    config.warmup_windows = 1;
    FleetDriver::new(
        config,
        vec![
            FleetShardSpec::new("hot", 0.12, chain_sim(45.0, 10.0, 5, 101)),
            FleetShardSpec::new("warm", 0.12, chain_sim(25.0, 10.0, 3, 202)),
            FleetShardSpec::new("cold", 0.12, chain_sim(12.0, 10.0, 2, 303)),
        ],
    )
    .unwrap()
}

const WINDOWS: usize = 10;

#[test]
fn interleaving_order_does_not_change_any_shard_timeline() {
    // Run A: shards advanced in index order every window.
    let mut a = fleet();
    for _ in 0..WINDOWS {
        a.step();
    }

    // Run B: a different permutation every window (rotations and the
    // reverse), exercising every relative order of the three shards.
    let orders: [[usize; 3]; 4] = [[2, 1, 0], [1, 2, 0], [2, 0, 1], [1, 0, 2]];
    let mut b = fleet();
    for w in 0..WINDOWS {
        b.step_with_order(&orders[w % orders.len()]);
    }

    // Bit-identical: PartialEq on the timeline compares every float the
    // shards measured and every allocation the negotiator granted.
    assert_eq!(a.timeline(), b.timeline());

    // The shard clocks themselves ended in identical states.
    for i in 0..a.shard_count() {
        assert_eq!(a.backend(i).now(), b.backend(i).now());
        assert_eq!(
            a.backend(i).total_external_arrivals(),
            b.backend(i).total_external_arrivals()
        );
        assert_eq!(
            a.backend(i).total_sojourn_stats().mean(),
            b.backend(i).total_sojourn_stats().mean()
        );
        assert_eq!(a.backend(i).allocation(), b.backend(i).allocation());
    }
}

#[test]
fn identical_runs_are_bit_identical() {
    let mut a = fleet();
    let mut b = fleet();
    a.run_windows(WINDOWS as u64);
    b.run_windows(WINDOWS as u64);
    assert_eq!(a.timeline(), b.timeline());
}
