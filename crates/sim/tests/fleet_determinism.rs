//! Shard-interleaving determinism: two runs of the same fleet config (same
//! seeds) produce bit-identical per-shard timelines even when the shards
//! are advanced in different orders within every window — the guarantee
//! that shard virtual clocks (and RNGs) are fully isolated from each other,
//! and what lets the driver advance segments of shards on several threads
//! at once. A fleet advances its shards in index order (one segment at a
//! time on each thread), so listing the same shards in another order
//! advances them in another order.

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

/// The same three shards every time, listed in `order` (indices into
/// hot, warm, cold): mixed loads under a contended budget, so arbitration
/// (not just measurement) is exercised.
fn fleet_in(order: [usize; 3]) -> FleetDriver<Simulator> {
    let mut config = FleetDriverConfig::new(13);
    config.window_secs = 20.0;
    config.warmup_windows = 1;
    let specs = [
        ("hot", 45.0, 5, 101),
        ("warm", 25.0, 3, 202),
        ("cold", 12.0, 2, 303),
    ];
    FleetDriver::new(
        config,
        order
            .iter()
            .map(|&i| {
                let (name, lambda, k, seed) = specs[i];
                FleetShardSpec::new(name, 0.12, chain_sim(lambda, 10.0, k, seed))
            })
            .collect(),
    )
    .unwrap()
}

fn fleet() -> FleetDriver<Simulator> {
    fleet_in([0, 1, 2])
}

const WINDOWS: usize = 10;

#[test]
fn interleaving_order_does_not_change_any_shard_timeline() {
    // Run A: hot, warm, cold advanced in that order every window.
    let mut a = fleet();
    a.run_windows(WINDOWS as u64);

    // Runs B: the same shards listed, and so advanced, in every other
    // relative order (rotations and the reverse).
    for order in [[2, 1, 0], [1, 2, 0], [2, 0, 1], [1, 0, 2]] {
        let mut b = fleet_in(order);
        b.run_windows(WINDOWS as u64);
        // Shard `i` of A is shard `at(i)` of B.
        let at = |i: usize| order.iter().position(|&o| o == i).unwrap();

        // Bit-identical, shard by shard: PartialEq on a record compares
        // every float the shard measured and every allocation the
        // negotiator granted it.
        for (wa, wb) in a.timeline().iter().zip(b.timeline()) {
            assert_eq!(
                (wa.window, wa.contended, wa.total_granted, &wa.error),
                (wb.window, wb.contended, wb.total_granted, &wb.error),
                "order {order:?}"
            );
            for (i, point) in wa.shards.iter().enumerate() {
                assert_eq!(point, &wb.shards[at(i)], "order {order:?}");
            }
        }
        assert_eq!(a.timeline().len(), b.timeline().len());

        // The shard clocks themselves ended in identical states.
        for i in 0..a.shard_count() {
            let (sa, sb) = (a.backend(i), b.backend(at(i)));
            assert_eq!(sa.now(), sb.now());
            assert_eq!(sa.total_external_arrivals(), sb.total_external_arrivals());
            assert_eq!(
                sa.total_sojourn_stats().mean(),
                sb.total_sojourn_stats().mean()
            );
            assert_eq!(sa.allocation(), sb.allocation());
        }
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
