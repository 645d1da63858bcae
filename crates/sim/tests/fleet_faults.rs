//! Acceptance tests for the fault-injected control plane (the robustness
//! contract of `drs_core::fleet` + `drs_sim::faults`):
//!
//! * **convergence parity** — under ≥20% actuation loss plus 1–2-window
//!   report delays, every shard converges to the *same* steady-state
//!   allocation the fault-free fleet reaches, and stays there (no
//!   post-convergence oscillation);
//! * **crash reclaim** — after a machine failure the negotiator declares
//!   the shard dead within the lease and re-offers its budget to the
//!   starved survivors;
//! * **checkpoint/restore** — a fault-injected fleet restored from a
//!   checkpoint continues bit-identically to one that never stopped
//!   (virtual clocks, in-flight messages and channel RNG state
//!   included);
//! * **invariants under arbitrary faults** (property-based) — for random
//!   loss/delay/duplication/ack-loss mixes and random crash windows, the
//!   live fleet never exceeds `Kmax`, never strips an operator to zero
//!   executors, never shrinks a live shard below its stable floor, and
//!   replays bit-identically from the same seed.

use drs_core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec, FleetWindow, ShardPoint};
use drs_queueing::distribution::Distribution;
use drs_sim::workload::OperatorBehavior;
use drs_sim::{
    ControlChannel, FaultKind, FaultyShard, LinkFaults, SimulationBuilder, Simulator, WindowJitter,
};
use drs_topology::TopologyBuilder;
use proptest::prelude::*;

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

/// The reference two-shard contended fleet: both shards want more than
/// the budget of 9 holds, so arbitration (not just measurement) is
/// always in the loop.
fn fleet(faults: LinkFaults) -> FleetDriver<FaultyShard<Simulator>> {
    let mut config = FleetDriverConfig::new(9);
    config.window_secs = 30.0;
    config.warmup_windows = 1;
    FleetDriver::new(
        config,
        vec![
            FleetShardSpec::new(
                "hot",
                0.12,
                FaultyShard::new(chain_sim(45.0, 10.0, 5, 3), ControlChannel::new(71, faults)),
            ),
            FleetShardSpec::new(
                "cold",
                0.12,
                FaultyShard::new(chain_sim(25.0, 10.0, 3, 5), ControlChannel::new(72, faults)),
            ),
        ],
    )
    .unwrap()
}

fn allocations(w: &FleetWindow) -> Vec<(String, Vec<u32>)> {
    w.shards
        .iter()
        .map(|p| (p.name.clone(), p.allocation.clone()))
        .collect()
}

#[test]
fn faulty_fleet_converges_to_the_fault_free_allocation() {
    // The fault-free reference run.
    let mut clean = fleet(LinkFaults::none());
    clean.run_windows(12);
    let reference = allocations(clean.timeline().last().unwrap());

    // ≥20% of actuations lost, some acks lost, every report 1–2 windows
    // late: the hardened loop must reach the *same* steady state — the
    // workload (and therefore the model and the arbitration) is
    // identical, faults only delay the way there.
    let degraded = LinkFaults {
        command_loss: 0.2,
        ack_loss: 0.05,
        report_delay: WindowJitter { base: 1, jitter: 1 },
        ..LinkFaults::none()
    };
    let mut faulty = fleet(degraded);
    faulty.run_windows(30);
    let timeline = faulty.timeline();
    assert_eq!(
        allocations(timeline.last().unwrap()),
        reference,
        "the degraded fleet must converge to the fault-free allocation"
    );

    // No post-convergence oscillation: the last third of the run holds
    // one allocation per shard, flat.
    let tail = &timeline[20..];
    for w in tail {
        assert_eq!(
            allocations(w),
            reference,
            "allocation oscillated after convergence at window {}",
            w.window
        );
    }

    // The faults really happened — this was not a silently clean channel.
    let injected: usize = (0..faulty.shard_count())
        .map(|i| faulty.backend(i).fault_log().len())
        .sum();
    assert!(
        injected > 10,
        "expected a meaningfully faulty run, saw {injected} events"
    );
    // And at least one actuation was retried after a timeout.
    assert!(
        timeline
            .iter()
            .flat_map(|w| &w.shards)
            .any(|p| p.error.is_some()),
        "a 20% command-loss run must surface at least one actuation error"
    );
}

#[test]
fn crashed_shard_budget_is_reoffered_within_the_lease() {
    let mut fleet = fleet(LinkFaults::none());
    fleet.run_windows(8);
    let crash_window = fleet.backend(1).channel().window();
    let hot_before = fleet.timeline().last().unwrap().shards[0].granted();
    fleet.backend_mut(1).crash_now();
    let lease = fleet.config().lease_windows;
    fleet.run_windows(lease + 3);

    let last = fleet.timeline().last().unwrap();
    assert!(last.shards[1].dead, "crashed shard must be lease-expired");
    assert!(
        !last.shards[0].dead,
        "the survivor must not be swept up by the lease"
    );
    // The survivor was starved at 9-budget contention (demand ~6, granted
    // less); the reclaimed budget must reach it.
    assert!(
        last.shards[0].granted() > hot_before,
        "freed budget must be re-offered: {} vs {hot_before}",
        last.shards[0].granted()
    );
    // Dead within the lease: the first window the lease could fire.
    let first_dead = fleet
        .timeline()
        .iter()
        .find(|w| w.shards[1].dead)
        .expect("shard must die")
        .window;
    assert!(
        first_dead < crash_window + lease + 1,
        "lease must fire within {lease} missed windows of the crash at \
         {crash_window}; first dead at {first_dead}"
    );
    assert!(fleet
        .backend(1)
        .fault_log()
        .iter()
        .any(|e| e.kind == FaultKind::Crashed));
}

#[test]
fn checkpoint_restore_continue_matches_uninterrupted_run() {
    let degraded = LinkFaults {
        report_loss: 0.2,
        command_loss: 0.2,
        report_delay: WindowJitter { base: 0, jitter: 1 },
        command_duplicate: 0.1,
        ..LinkFaults::none()
    };
    // The uninterrupted reference.
    let mut straight = fleet(degraded);
    straight.run_windows(14);

    // Prefix, checkpoint, restore, continue.
    let mut prefix = fleet(degraded);
    prefix.run_windows(5);
    let checkpoint = prefix.clone();
    // Poison the original: the restored branch must not alias any of its
    // state.
    prefix.run_windows(4);
    let mut restored = checkpoint.clone();
    restored.run_windows(9);

    assert_eq!(
        straight.timeline(),
        restored.timeline(),
        "restore must continue bit-identically (timeline)"
    );
    for i in 0..straight.shard_count() {
        assert_eq!(
            straight.backend(i).fault_log(),
            restored.backend(i).fault_log(),
            "restore must continue bit-identically (shard {i} fault log)"
        );
        assert_eq!(
            straight.backend(i).ground_truth_allocation(),
            restored.backend(i).ground_truth_allocation(),
        );
        assert_eq!(
            straight.backend(i).inner().now(),
            restored.backend(i).inner().now(),
            "shard {i} virtual clock diverged after restore"
        );
    }
}

/// A randomly drawn link fault model (all probabilities kept below the
/// point where the control plane is pure noise).
fn arb_faults() -> impl Strategy<Value = LinkFaults> {
    (
        0.0f64..0.45,
        0u64..=2,
        0u64..=2,
        0.0f64..0.45,
        0u64..=2,
        0.0f64..0.3,
        0.0f64..0.3,
    )
        .prop_map(
            |(report_loss, rd_base, rd_jitter, command_loss, cd_jitter, duplicate, ack_loss)| {
                LinkFaults {
                    report_loss,
                    report_delay: WindowJitter {
                        base: rd_base,
                        jitter: rd_jitter,
                    },
                    command_loss,
                    command_delay: WindowJitter {
                        base: 0,
                        jitter: cd_jitter,
                    },
                    command_duplicate: duplicate,
                    ack_loss,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Σ grants ≤ Kmax, no operator stripped to zero, no live shard
    /// pushed below its stable floor, bit-identical replay — under any
    /// fault interleaving and an optional mid-run crash.
    #[test]
    fn fleet_invariants_hold_under_arbitrary_faults(
        faults in arb_faults(),
        crash in proptest::option::of(2u64..10),
        channel_seed in 0u64..1_000,
    ) {
        let run = || {
            let mut config = FleetDriverConfig::new(9);
            config.window_secs = 30.0;
            config.warmup_windows = 1;
            let mut fleet = FleetDriver::new(
                config,
                vec![
                    FleetShardSpec::new(
                        "hot",
                        0.12,
                        FaultyShard::new(
                            chain_sim(45.0, 10.0, 5, 3),
                            ControlChannel::new(channel_seed, faults),
                        ),
                    ),
                    FleetShardSpec::new(
                        "cold",
                        0.12,
                        FaultyShard::new(
                            chain_sim(25.0, 10.0, 3, 5),
                            ControlChannel::new(channel_seed + 1, faults),
                        ),
                    ),
                ],
            )
            .unwrap();
            if let Some(w) = crash {
                fleet.backend_mut(1).crash_at(w);
            }
            fleet.run_windows(12);
            (
                fleet.timeline().to_vec(),
                (0..fleet.shard_count())
                    .map(|i| fleet.backend(i).fault_log().to_vec())
                    .collect::<Vec<_>>(),
            )
        };
        let (timeline, logs) = run();
        for w in &timeline {
            // The live fleet never exceeds the budget.
            prop_assert!(
                w.total_granted <= 9,
                "window {} over budget: {w:?}", w.window
            );
            let live: u64 = w
                .shards
                .iter()
                .filter(|p| !p.dead)
                .map(ShardPoint::granted)
                .sum();
            prop_assert_eq!(live, w.total_granted);
            for p in &w.shards {
                // No operator is ever stripped of its last executor.
                prop_assert!(
                    p.allocation.iter().all(|&k| k >= 1),
                    "window {} zeroed an operator: {p:?}", w.window
                );
                // No live shard sinks below its stable floor: grants are
                // min-stable-raised by the negotiator, and both initial
                // allocations start at or above it (hot λ/µ = 4.5,
                // cold λ/µ = 2.5; floors allow generous measurement
                // noise).
                if !p.dead {
                    let floor = if p.name == "hot" { 4 } else { 2 };
                    prop_assert!(
                        p.allocation[0] >= floor,
                        "window {} put live shard {} below stable floor: {p:?}",
                        w.window,
                        p.name
                    );
                }
            }
        }
        // Same seeds, same faults, same timeline: the whole fault-injected
        // fleet replays bit-identically.
        prop_assert_eq!((timeline, logs), run());
    }

    /// Checkpoint → restore → continue is bit-identical to never
    /// stopping, wherever the cut lands and whatever the channel rolls.
    #[test]
    fn checkpoint_restore_is_bit_identical_under_faults(
        faults in arb_faults(),
        prefix in 1u64..9,
        channel_seed in 0u64..1_000,
    ) {
        let build = || {
            let mut config = FleetDriverConfig::new(9);
            config.window_secs = 20.0;
            config.warmup_windows = 1;
            FleetDriver::new(
                config,
                vec![
                    FleetShardSpec::new(
                        "hot",
                        0.12,
                        FaultyShard::new(
                            chain_sim(45.0, 10.0, 5, 3),
                            ControlChannel::new(channel_seed, faults),
                        ),
                    ),
                    FleetShardSpec::new(
                        "cold",
                        0.12,
                        FaultyShard::new(
                            chain_sim(25.0, 10.0, 3, 5),
                            ControlChannel::new(channel_seed + 1, faults),
                        ),
                    ),
                ],
            )
            .unwrap()
        };
        const TOTAL: u64 = 10;
        let mut straight = build();
        straight.run_windows(TOTAL);

        let mut head = build();
        head.run_windows(prefix);
        let checkpoint = head.clone();
        drop(head);
        let mut branch = checkpoint.clone();
        branch.run_windows(TOTAL - prefix);

        prop_assert_eq!(straight.timeline(), branch.timeline());
        for i in 0..straight.shard_count() {
            prop_assert_eq!(straight.backend(i).fault_log(), branch.backend(i).fault_log());
            prop_assert_eq!(
                straight.backend(i).ground_truth_allocation(),
                branch.backend(i).ground_truth_allocation()
            );
        }
    }
}
