//! The fleet driver's unit tests, over a fixed-rate mock shard.

use super::*;
use crate::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use crate::placement::{MachinePool, Placement};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Fixed-rate mock shard: a chain whose operators all see the shard's
/// arrival rate, each serving at its own `mu`; the rate can be changed
/// mid-run. Reports the M/M/k-consistent measured sojourn via
/// [`mmk_measured_sojourn`] so the decision gate sees the same world a
/// live engine would. Can be silenced (crash: reports stop), can refuse
/// applies (mid-pause) or time them out (lost command/ack); records
/// every epoch and placement it is commanded with.
#[derive(Debug, Clone)]
struct StaticShard {
    rate: f64,
    mu: Vec<f64>,
    allocation: Vec<u32>,
    fail_applies: usize,
    timeout_applies: usize,
    silent: bool,
    seen_epochs: Vec<u64>,
    placement_calls: usize,
}

impl StaticShard {
    /// One operator serving at `mu`, running `k` executors.
    fn new(rate: f64, mu: f64, k: u32) -> Self {
        Self::chain(rate, vec![mu], vec![k])
    }

    fn chain(rate: f64, mu: Vec<f64>, allocation: Vec<u32>) -> Self {
        StaticShard {
            rate,
            mu,
            allocation,
            fail_applies: 0,
            timeout_applies: 0,
            silent: false,
            seen_epochs: Vec::new(),
            placement_calls: 0,
        }
    }
}

impl CspBackend for StaticShard {
    fn backend_name(&self) -> &'static str {
        "static"
    }
    fn operator_names(&self) -> Vec<String> {
        (0..self.mu.len()).map(|op| format!("op{op}")).collect()
    }
    fn current_allocation(&self) -> Vec<u32> {
        self.allocation.clone()
    }
    fn advance(&mut self, _window_secs: f64) -> WindowSample {
        let fresh = |x: f64| (!self.silent).then_some(x);
        let mut sojourn = 0.0;
        let operators = self
            .mu
            .iter()
            .zip(&self.allocation)
            .map(|(&mu, &k)| {
                sojourn += mmk_measured_sojourn(self.rate, mu, k);
                OperatorSample {
                    arrival_rate: fresh(self.rate),
                    service_rate: fresh(mu),
                }
            })
            .collect();
        WindowSample {
            external_rate: fresh(self.rate),
            operators,
            mean_sojourn: fresh(sojourn),
            std_sojourn: None,
            completed: if self.silent { 0 } else { 100 },
        }
    }
    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        self.seen_epochs.push(plan.epoch);
        if self.timeout_applies > 0 {
            self.timeout_applies -= 1;
            return Err(BackendError::Timeout("command lost".to_owned()));
        }
        if self.fail_applies > 0 {
            self.fail_applies -= 1;
            return Err(BackendError::RebalanceUnavailable(
                "pause in progress".to_owned(),
            ));
        }
        self.allocation.clone_from(&plan.allocation);
        Ok(AppliedRebalance {
            allocation: plan.allocation.clone(),
            pause_secs: plan.pause_secs,
        })
    }
    fn apply_placement(&mut self, _placement: &Placement) -> Result<(), BackendError> {
        self.placement_calls += 1;
        Ok(())
    }
}

fn fleet(k_max: u32, shards: Vec<(&str, f64, StaticShard)>) -> FleetDriver<StaticShard> {
    let mut config = FleetDriverConfig::new(k_max);
    config.warmup_windows = 1;
    config.window_secs = 1.0;
    FleetDriver::new(
        config,
        shards
            .into_iter()
            .map(|(name, t_max, backend)| FleetShardSpec::new(name, t_max, backend))
            .collect(),
    )
    .unwrap()
}

#[test]
fn driver_arbitrates_within_budget_and_records_timeline() {
    let mut f = fleet(
        12,
        vec![
            ("hot", 0.11, StaticShard::new(60.0, 10.0, 7)),
            ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
        ],
    );
    f.run_windows(4);
    assert_eq!(f.timeline().len(), 4);
    let last = f.timeline().last().unwrap();
    assert!(last.total_granted <= 12);
    assert!(last.contended, "0.11 s targets at these loads must contend");
    assert!(last.shards.iter().any(|s| s.capped));
    // The hot shard out-ranks the cold one under contention.
    assert!(last.shards[0].allocation[0] > last.shards[1].allocation[0]);
    // Demands are recorded once the model warms up.
    assert!(last.shards.iter().all(|s| s.demand.is_some()));
    assert_eq!(f.shard_names(), vec!["hot", "cold"]);
}

#[test]
fn warmup_windows_do_not_negotiate() {
    let mut f = fleet(12, vec![("only", 0.5, StaticShard::new(30.0, 10.0, 4))]);
    f.step();
    let w = &f.timeline()[0];
    assert!(w.shards[0].demand.is_none());
    assert!(!w.shards[0].rebalanced);
    assert_eq!(w.shards[0].allocation, vec![4]);
}

#[test]
fn freed_capacity_is_reoffered_when_demand_drops() {
    let mut f = fleet(
        12,
        vec![
            ("a", 0.11, StaticShard::new(60.0, 10.0, 7)),
            ("b", 0.11, StaticShard::new(30.0, 10.0, 5)),
        ],
    );
    f.run_windows(4);
    let before = f.timeline().last().unwrap().shards[1].granted();
    assert!(f.timeline().last().unwrap().contended);
    // Shard a's load collapses: its demand shrinks and the freed
    // executors flow to shard b on later windows (α-smoothing takes a
    // couple of rounds to fade the old rate out).
    f.backend_mut(0).rate = 5.0;
    f.run_windows(6);
    let last = f.timeline().last().unwrap();
    assert!(
        last.shards[1].granted() > before,
        "shard b should inherit freed capacity: {} vs {before}",
        last.shards[1].granted()
    );
    assert!(last.total_granted <= 12);
}

#[test]
fn backend_refusal_is_recorded_and_retried() {
    let mut hot = StaticShard::new(60.0, 10.0, 7);
    hot.fail_applies = 1;
    let mut f = fleet(
        12,
        vec![
            ("hot", 0.11, hot),
            ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
        ],
    );
    f.run_windows(4);
    let refused = f
        .timeline()
        .iter()
        .flat_map(|w| &w.shards)
        .find(|s| s.error.is_some())
        .expect("the refused apply must be recorded");
    assert!(refused
        .error
        .as_deref()
        .unwrap()
        .contains("rebalance unavailable"));
    // A later window retries and the fleet still lands within budget.
    assert!(f.timeline().last().unwrap().total_granted <= 12);
}

#[test]
fn refused_shrink_defers_grows_instead_of_overcommitting() {
    // Shard a runs 8 but now only needs ~4; shard b runs 4 and wants 9.
    // a's shrink is refused (mid-pause): applying b's grow anyway would
    // put 17 executors on a 12-processor pool. The driver must defer
    // the grow and catch up once the shrink lands.
    let mut a = StaticShard::new(15.0, 10.0, 8);
    a.fail_applies = 1;
    let mut f = fleet(
        12,
        vec![("a", 0.11, a), ("b", 0.11, StaticShard::new(60.0, 10.0, 4))],
    );
    f.run_windows(2);
    let w = f.timeline().last().unwrap();
    assert!(
        w.total_granted <= 12,
        "fleet over budget after refused shrink: {w:?}"
    );
    assert!(w.shards[0]
        .error
        .as_deref()
        .is_some_and(|e| e.contains("rebalance unavailable")));
    assert!(
        w.shards[1]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("deferred")),
        "the grow must be deferred: {w:?}"
    );
    assert_eq!(w.shards[1].allocation, vec![4], "b must not grow yet");
    // Next window the shrink applies and the deferred grow catches up.
    f.run_windows(2);
    let w = f.timeline().last().unwrap();
    assert!(w.total_granted <= 12);
    assert!(w.shards[1].granted() > 4, "b grows once capacity is freed");
}

#[test]
fn rebalanced_flag_tracks_actual_changes_only() {
    let mut f = fleet(
        20,
        vec![
            ("a", 0.5, StaticShard::new(40.0, 10.0, 7)),
            ("b", 0.5, StaticShard::new(20.0, 10.0, 5)),
        ],
    );
    f.run_windows(6);
    // Once converged, no shard keeps reporting rebalances.
    let last = f.timeline().last().unwrap();
    assert!(last.shards.iter().all(|s| !s.rebalanced));
    // But some earlier window did rebalance.
    assert!(f
        .timeline()
        .iter()
        .any(|w| w.shards.iter().any(|s| s.rebalanced)));
}

#[test]
fn construction_errors() {
    let config = FleetDriverConfig::new(10);
    assert_eq!(
        FleetDriver::<StaticShard>::new(config, vec![]).unwrap_err(),
        FleetDriverError::NoShards
    );
    let mut bad = FleetDriverConfig::new(10);
    bad.window_secs = 0.0;
    assert_eq!(
        FleetDriver::new(
            bad,
            vec![FleetShardSpec::new(
                "s",
                1.0,
                StaticShard::new(10.0, 10.0, 2)
            )]
        )
        .unwrap_err(),
        FleetDriverError::InvalidWindow(0.0)
    );
    assert!(matches!(
        FleetDriver::new(
            config,
            vec![FleetShardSpec::new(
                "s",
                -1.0,
                StaticShard::new(10.0, 10.0, 2)
            )]
        )
        .unwrap_err(),
        FleetDriverError::InvalidTarget { .. }
    ));
}

#[test]
fn timeout_backs_off_then_retries_with_fresh_epochs() {
    // The shard needs to grow but its first two commands vanish.
    let mut shard = StaticShard::new(60.0, 10.0, 4);
    shard.timeout_applies = 2;
    let mut f = fleet(20, vec![("only", 0.11, shard)]);
    f.run_windows(10);

    let errors: Vec<String> = f
        .timeline()
        .iter()
        .filter_map(|w| w.shards[0].error.clone())
        .collect();
    let timeouts = errors
        .iter()
        .filter(|e| e.contains("unacknowledged"))
        .count();
    let deferred = errors
        .iter()
        .filter(|e| e.contains("deferred: backoff"))
        .count();
    assert_eq!(timeouts, 2, "both lost commands recorded: {errors:?}");
    assert!(
        deferred >= 1,
        "the doubled backoff must hold at least one window: {errors:?}"
    );
    // The third attempt lands and the shard converges.
    assert!(f.timeline().iter().any(|w| w.shards[0].rebalanced));
    assert!(f.backend(0).allocation[0] > 4);
    // Every command on the wire carried a fresh, strictly increasing
    // epoch — a replaying channel could never double-apply.
    let epochs = &f.backend(0).seen_epochs;
    assert_eq!(epochs.len(), 3, "two timeouts + one success: {epochs:?}");
    assert!(epochs.windows(2).all(|p| p[0] < p[1]), "{epochs:?}");
    // After the ack the backoff is fully reset.
    assert_eq!(
        f.shards[0].actuator.deferred(f.timeline().len() as u64),
        None
    );
}

#[test]
fn refusal_acks_the_channel_and_resets_backoff() {
    let mut shard = StaticShard::new(60.0, 10.0, 4);
    shard.fail_applies = 1;
    let mut f = fleet(20, vec![("only", 0.11, shard)]);
    f.run_windows(6);
    // A refusal is an acknowledgement: no window is ever spent in
    // backoff, and the retry lands on the very next round.
    assert!(f.timeline().iter().all(|w| !w.shards[0]
        .error
        .as_deref()
        .unwrap_or("")
        .contains("backoff")));
    assert!(f.timeline().iter().any(|w| w.shards[0].rebalanced));
}

#[test]
fn dead_shard_budget_is_reclaimed_within_lease_windows() {
    // Contended: hot wants more than the remainder cold leaves it.
    let mut f = fleet(
        12,
        vec![
            ("hot", 0.11, StaticShard::new(60.0, 10.0, 7)),
            ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
        ],
    );
    f.run_windows(5);
    let before = f.timeline().last().unwrap();
    assert!(before.contended);
    let hot_before = before.shards[0].granted();

    // Cold's machine dies: reports stop. Within lease_windows (3) +
    // one negotiation round, the lease expires and hot inherits the
    // reclaimed budget.
    f.backend_mut(1).silent = true;
    let lease = f.config().lease_windows;
    f.run_windows(lease + 2);
    let after = f.timeline().last().unwrap();
    assert!(after.shards[1].dead, "cold's lease must expire: {after:?}");
    assert!(f.shard_dead(1));
    assert!(
        after.shards[0].granted() > hot_before,
        "hot must inherit reclaimed budget: {} vs {hot_before}",
        after.shards[0].granted()
    );
    // Live-only accounting keeps the pool within budget.
    assert!(after.total_granted <= 12);

    // The shard heals: the first report renews the lease and it
    // negotiates again; grows elsewhere defer until the fleet
    // re-converges under Kmax.
    f.backend_mut(1).silent = false;
    f.run_windows(6);
    let healed = f.timeline().last().unwrap();
    assert!(!healed.shards[1].dead);
    assert!(
        healed.total_granted <= 12,
        "over budget after heal: {healed:?}"
    );
}

/// Over a fleet that spans two segments, so the clones pass on threads.
#[test]
fn checkpoint_restore_continue_is_bit_identical() {
    let build = || {
        let mut shards = vec![
            ("hot", 0.11, StaticShard::new(60.0, 10.0, 7)),
            ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
        ];
        let names = ["w0", "w1", "w2", "w3"];
        shards.extend((0..SEGMENT_SHARDS).map(|i| {
            let rate = 15.0 + 4.0 * i as f64;
            (names[i], 0.11, StaticShard::new(rate, 10.0, 3))
        }));
        fleet(24, shards)
    };
    // Uninterrupted run.
    let mut straight = build();
    straight.run_windows(12);

    // Same run, checkpointed mid-way and branched twice.
    let mut prefix = build();
    prefix.run_windows(5);
    let ckpt = prefix.clone();
    assert_eq!(ckpt.completed_windows(), 5);
    // A clone starts pass workers of its own, once it steps.
    assert_eq!(ckpt.workers.threads(), 0);
    // The checkpoint shares the negotiator's warm state copy-on-write:
    // no deep clone until one of the branches actually negotiates.
    assert!(
        Arc::ptr_eq(&prefix.negotiator, &ckpt.negotiator),
        "checkpoint must share, not clone, the negotiator"
    );
    let mut branch_a = ckpt.clone();
    assert!(Arc::ptr_eq(&prefix.negotiator, &branch_a.negotiator));
    let mut branch_b = ckpt.clone();
    // The original keeps running past the checkpoint too: its lazy
    // clone at the negotiate site must not leak into the branches.
    prefix.run_windows(7);
    branch_a.run_windows(7);
    branch_b.run_windows(7);
    assert!(
        !Arc::ptr_eq(&prefix.negotiator, &branch_a.negotiator),
        "diverging branches must have unshared after negotiating"
    );
    assert_eq!(branch_a.workers.threads(), prefix.workers.threads());

    assert_eq!(straight.timeline(), prefix.timeline());
    assert_eq!(straight.timeline(), branch_a.timeline());
    assert_eq!(straight.timeline(), branch_b.timeline());
}

#[test]
fn churn_add_and_remove_shards_mid_run() {
    let mut f = fleet(
        20,
        vec![
            ("a", 0.11, StaticShard::new(40.0, 10.0, 5)),
            ("b", 0.11, StaticShard::new(30.0, 10.0, 4)),
        ],
    );
    f.run_windows(3);
    assert_eq!(f.timeline().last().unwrap().shards.len(), 2);

    // A topology joins mid-run…
    let joined = f
        .add_shard(FleetShardSpec::new(
            "c",
            0.11,
            StaticShard::new(20.0, 10.0, 3),
        ))
        .unwrap();
    assert_eq!(joined, 2);
    f.run_windows(4);
    let w = f.timeline().last().unwrap();
    assert_eq!(w.shards.len(), 3);
    assert_eq!(w.shards[2].name, "c");
    assert!(w.shards[2].demand.is_some(), "joined shard negotiates");
    assert!(w.total_granted <= 20);

    // …and another leaves. Names keep the timeline correlatable.
    let removed = f.remove_shard(0);
    assert_eq!(removed.rate, 40.0);
    f.run_windows(2);
    let w = f.timeline().last().unwrap();
    assert_eq!(w.shards.len(), 2);
    assert_eq!(
        w.shards.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
        vec!["b", "c"]
    );
    assert!(w.total_granted <= 20);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Only churn needs a full window: under joins, leaves (shard
    /// indices shift, across segment boundaries too), join-and-leave
    /// between two windows (they shift while the count stands), deaths and
    /// revivals, a driver that runs a full window only after churn records
    /// the same names, slots, placements, commands and timeline as one
    /// that runs every window full. The fleet starts one segment full, so
    /// its first join opens a second segment.
    #[test]
    fn roster_stamp_equals_name_validation_under_churn(
        script in vec((0u8..10, 0usize..64, 1.0f64..60.0), 6..24),
    ) {
        let info = ShardPlacementInfo {
            profiles: vec![ResourceProfile::uniform(1.0)],
            edges: vec![(0, 0, 1.0)],
        };
        let spec = |id: usize, rate: f64| {
            FleetShardSpec::new(format!("s{id}"), 0.2, StaticShard::new(rate, 10.0, 3))
                .with_placement(info.clone())
        };
        let build = || {
            let mut config = FleetDriverConfig::new(48);
            config.warmup_windows = 1;
            config.window_secs = 1.0;
            let specs = (0..SEGMENT_SHARDS).map(|id| spec(id, 12.0 + 9.0 * id as f64)).collect();
            let mut f = FleetDriver::new(config, specs).unwrap();
            f.set_machine_pool(
                MachinePool::uniform(3, ResourceProfile::uniform(40.0)).unwrap(),
            );
            f
        };
        let (mut stamped, mut validating) = (build(), build());
        for (next_id, &(action, pick, rate)) in (SEGMENT_SHARDS..).zip(&script) {
            for f in [&mut stamped, &mut validating] {
                let n = f.shard_count();
                match action {
                    0 => {
                        f.add_shard(spec(next_id, rate)).unwrap();
                    }
                    1 if n > 1 => {
                        f.remove_shard(pick % n);
                    }
                    2 => {
                        f.add_shard(spec(next_id, rate)).unwrap();
                        f.remove_shard(pick % n);
                    }
                    3 | 4 => f.backend_mut(pick % n).rate = rate,
                    5 => {
                        let shard = f.backend_mut(pick % n);
                        shard.silent = !shard.silent;
                    }
                    _ => {}
                }
            }

            // Every window full: every name recorded, every shard presented.
            validating.churned = true;
            validating.step();
            stamped.step();

            prop_assert_eq!(stamped.last_window(), validating.last_window());
            let n = stamped.shard_count();
            for i in 0..n {
                prop_assert_eq!(stamped.shards.slot(i), validating.shards.slot(i));
                prop_assert_eq!(&stamped.last_window().shards[i].name, &stamped.shards[i].name);
                prop_assert_eq!(stamped.shards[i].place_slot, validating.shards[i].place_slot);
                prop_assert_eq!(stamped.shard_placement(i), validating.shard_placement(i));
                let (a, b) = (stamped.backend(i), validating.backend(i));
                prop_assert_eq!(&a.allocation, &b.allocation);
                prop_assert_eq!(&a.seen_epochs, &b.seen_epochs);
                prop_assert_eq!(a.placement_calls, b.placement_calls);
            }
        }
        prop_assert_eq!(stamped.timeline(), validating.timeline());
        prop_assert_eq!(stamped.placement_solver_calls(), validating.placement_solver_calls());
    }
}

#[test]
#[should_panic(expected = "at least one shard")]
fn removing_the_last_shard_panics() {
    let mut f = fleet(10, vec![("only", 0.5, StaticShard::new(10.0, 10.0, 2))]);
    f.remove_shard(0);
}

/// The gate-aware pass: shard a's −1 wobble shrink is refused by its
/// gate at *negotiation* time, so shard b's grow is sized to the
/// realized pool (a keeps its 8) and actuates without a deferral. The
/// old flow discovered a's refusal at actuation and granted b a grow
/// that could only bounce off the over-commit guard — one wasted
/// grant/refuse round-trip per window, forever. Churn (a third shard
/// joining and leaving) must not reintroduce any.
#[test]
fn gate_aware_negotiation_avoids_wasted_round_trips_under_churn() {
    let mut f = fleet(
        13,
        vec![
            ("a", 0.2, StaticShard::new(55.0, 10.0, 8)),
            ("b", 0.2, StaticShard::new(25.0, 10.0, 3)),
        ],
    );
    f.run_windows(5);
    let w = f.timeline().last().unwrap();
    // a's shrink 8→7 saves one executor: held by its gate, visibly.
    assert!(w.shards[0].gated, "a's wobble shrink must be held: {w:?}");
    assert_eq!(w.shards[0].allocation, vec![8]);
    // b still actuated its grow out of the free budget.
    assert_eq!(w.shards[1].allocation, vec![4], "b must reach its demand");
    assert_eq!(f.wasted_grants(), 0, "no refusal discovered at actuation");

    // Churn: a third shard joins (the pool tightens, a's held surplus
    // becomes load-bearing and must flow), then leaves again.
    f.add_shard(FleetShardSpec::new(
        "c",
        0.2,
        StaticShard::new(25.0, 10.0, 3),
    ))
    .unwrap();
    f.run_windows(6);
    assert!(f.timeline().last().unwrap().total_granted <= 13);
    f.remove_shard(2);
    f.run_windows(4);
    let w = f.timeline().last().unwrap();
    assert!(w.total_granted <= 13);
    assert_eq!(
        f.wasted_grants(),
        0,
        "churn must not reintroduce wasted grant/refuse round-trips"
    );
    assert!(
        f.timeline()
            .iter()
            .all(|w| w.shards.iter().all(|s| s.error.is_none())),
        "no deferrals anywhere: {:?}",
        f.timeline()
            .iter()
            .flat_map(|w| &w.shards)
            .filter_map(|s| s.error.clone())
            .collect::<Vec<_>>()
    );
}

/// The revert arm of the gate-aware pass: holding a's refused shrink
/// would starve b below its minimum stable allocation, so the wobble
/// is load-bearing — a's shrink is promoted past the gate and b's grow
/// follows in the same window. The old flow livelocked here: a gated
/// every window, b deferred every window.
#[test]
fn load_bearing_wobble_is_promoted_instead_of_stranded() {
    let mut f = fleet(
        12,
        vec![
            ("a", 0.2, StaticShard::new(55.0, 10.0, 8)),
            ("b", 0.2, StaticShard::new(42.0, 10.0, 4)),
        ],
    );
    f.run_windows(6);
    let w = f.timeline().last().unwrap();
    assert_eq!(w.shards[0].allocation, vec![7], "a's shrink must land");
    assert_eq!(w.shards[1].allocation, vec![5], "b's grow must land");
    assert_eq!(f.wasted_grants(), 0);
    assert!(
        f.timeline().iter().all(|w| w.shards.iter().all(|s| !s
            .error
            .as_deref()
            .unwrap_or("")
            .contains("deferred"))),
        "nothing may bounce off the over-commit guard: {:?}",
        f.timeline().last()
    );
}

/// End-to-end machine placement in the fleet: with a shared pool
/// installed, every live shard with metadata gets a machine assignment
/// (via `apply_placement` when its executor counts are unchanged),
/// the assignment matches the running allocation, and the combined
/// usage respects every machine's capacity vector.
#[test]
fn machine_pool_threads_placement_end_to_end() {
    let pool = MachinePool::uniform(2, ResourceProfile::uniform(16.0)).unwrap();
    let profile = ResourceProfile::uniform(2.0);
    let info = ShardPlacementInfo {
        profiles: vec![profile],
        edges: vec![],
    };
    // Both shards already run their demanded allocation: no rebalance
    // ever fires, so the assignment must travel via `apply_placement`.
    let mut config = FleetDriverConfig::new(20);
    config.warmup_windows = 1;
    config.window_secs = 1.0;
    let mut f = FleetDriver::new(
        config,
        vec![
            FleetShardSpec::new("a", 0.2, StaticShard::new(40.0, 10.0, 5))
                .with_placement(info.clone()),
            FleetShardSpec::new("b", 0.2, StaticShard::new(25.0, 10.0, 4))
                .with_placement(info.clone()),
        ],
    )
    .unwrap();
    f.set_machine_pool(pool);
    f.run_windows(4);

    let mut usage = vec![ResourceProfile::uniform(0.0); 2];
    for i in 0..2 {
        let p = f.shard_placement(i).expect("placement in force");
        assert_eq!(p.allocation(), f.backend(i).allocation, "shard {i}");
        for (m, u) in p.usage(&info.profiles).iter().enumerate() {
            usage[m].cpu += u.cpu;
            usage[m].mem += u.mem;
            usage[m].net += u.net;
        }
        assert!(
            f.backend(i).placement_calls >= 1,
            "assignment must go through apply_placement"
        );
    }
    for u in &usage {
        assert!(u.cpu <= 16.0 && u.mem <= 16.0 && u.net <= 16.0, "{u}");
    }
    // In-force assignments are stable: re-solving an unchanged fleet
    // must not keep issuing placement commands.
    let calls: Vec<usize> = (0..2).map(|i| f.backend(i).placement_calls).collect();
    f.run_windows(3);
    assert_eq!(
        calls,
        (0..2)
            .map(|i| f.backend(i).placement_calls)
            .collect::<Vec<_>>(),
        "converged fleet must not re-issue identical assignments"
    );
}

/// Two placement-enabled shards on a 2-machine pool, both already
/// running their demanded allocation, settled for six windows.
fn settled_placed_pair() -> FleetDriver<StaticShard> {
    let pool = MachinePool::uniform(2, ResourceProfile::uniform(16.0)).unwrap();
    let info = ShardPlacementInfo {
        profiles: vec![ResourceProfile::uniform(2.0)],
        edges: vec![],
    };
    let mut config = FleetDriverConfig::new(20);
    config.warmup_windows = 1;
    config.window_secs = 1.0;
    let mut f = FleetDriver::new(
        config,
        vec![
            FleetShardSpec::new("a", 0.2, StaticShard::new(40.0, 10.0, 5))
                .with_placement(info.clone()),
            FleetShardSpec::new("b", 0.2, StaticShard::new(25.0, 10.0, 4)).with_placement(info),
        ],
    )
    .unwrap();
    f.set_machine_pool(pool);
    f.run_windows(6);
    f
}

/// Regression: a settled placement-enabled fleet performs *zero*
/// per-shard solver calls per window — the warm state sees every
/// request unchanged and replans nothing.
#[test]
fn unchanged_fleet_performs_zero_placement_solver_calls() {
    let mut f = settled_placed_pair();
    let solver_calls = f.placement_solver_calls();
    let full_solves = f.placement_full_solves();
    assert!(full_solves >= 1, "the first window batch-solves");
    f.run_windows(10);
    assert_eq!(
        f.placement_solver_calls(),
        solver_calls,
        "settled windows must not touch the placement solver"
    );
    assert_eq!(f.placement_full_solves(), full_solves);
    // An explicit invalidation forces exactly one batch re-solve.
    f.scratch.place.invalidate();
    f.run_windows(1);
    assert_eq!(f.placement_full_solves(), full_solves + 1);
}

/// The `moves` phase decides on the solve id alone while a shard's warm slot
/// has not been re-solved: the in-force assignment is swapped for a
/// different one behind the driver's back, and no settled window
/// notices. A re-solve (new id) brings the comparison back, which
/// then finds the difference and re-sends the assignment.
#[test]
fn placement_only_moves_skip_unresolved_shards_on_the_solve_id() {
    let mut f = settled_placed_pair();
    let in_force_is_planned = |f: &FleetDriver<StaticShard>| {
        (0..2).all(|i| {
            let slot = f.shards[i].place_slot.expect("placed");
            let id = f.scratch.place.solve_id(slot as usize);
            id != 0 && f.shards[i].placement_id == id
        })
    };
    assert!(in_force_is_planned(&f));

    let solved = f.shards[0].placement.clone().expect("in force");
    let decoy = Placement::from_counts(vec![vec![7, 7]]);
    f.shards[0].placement = Some(decoy.clone());
    let calls = f.backend(0).placement_calls;
    f.run_windows(5);
    assert_eq!(
        f.shard_placement(0),
        Some(&decoy),
        "the moves phase compared assignments"
    );
    assert_eq!(f.backend(0).placement_calls, calls);
    assert!(in_force_is_planned(&f));

    f.scratch.place.invalidate();
    f.run_windows(1);
    assert_eq!(f.shard_placement(0), Some(&solved));
    assert_eq!(f.backend(0).placement_calls, calls + 1);
    // "b" was re-solved to the same assignment: compared, found equal,
    // nothing sent, and its id caught up for the next window.
    assert!(in_force_is_planned(&f));
}

/// The placement rate band: edge-rate wobble inside
/// [`FleetDriverConfig::placement_rate_band`] must not dirty a shard
/// (no solver call), while a shift beyond the band must.
#[test]
fn revived_shard_is_placed_afresh() {
    let mut f = settled_placed_pair();
    let pool = f.machine_pool().unwrap().clone();
    let placed_usage = |f: &FleetDriver<StaticShard>| -> f64 {
        let full: f64 = pool.machines().iter().map(|m| m.capacity.cpu).sum();
        full - f
            .scratch
            .place
            .remaining()
            .iter()
            .map(|r| r.cpu)
            .sum::<f64>()
    };
    let both = placed_usage(&f);

    // "b" dies: the sweep refunds its machine usage and frees its slot.
    f.backend_mut(1).silent = true;
    f.run_windows(f.config().lease_windows + 1);
    assert!(f.shard_dead(1));
    assert_eq!(f.scratch.place.slot_of("b"), None);
    assert_eq!(f.shards[1].place_slot, None);
    assert!(placed_usage(&f) < both);

    // Revived, it must not be handed its tombstoned slot back: it is
    // inserted, solved and charged to the pool again.
    f.backend_mut(1).silent = false;
    f.run_windows(3);
    assert!(!f.shard_dead(1));
    let slot = f.scratch.place.slot_of("b").expect("a live slot again");
    assert_eq!(f.shards[1].place_slot, Some(slot_u32(slot)));
    assert!(f
        .shard_placement(1)
        .is_some_and(|p| p.allocation_matches(&f.backend(1).allocation)));
    assert!((placed_usage(&f) - both).abs() < 1e-9);
}

#[test]
fn placement_rate_band_absorbs_wobble_but_tracks_real_shifts() {
    let pool = MachinePool::uniform(2, ResourceProfile::uniform(16.0)).unwrap();
    let info = ShardPlacementInfo {
        profiles: vec![ResourceProfile::uniform(2.0)],
        // A self-loop edge whose rate is the operator's measured
        // arrival rate — the only input that wobbles below.
        edges: vec![(0, 0, 1.0)],
    };
    let mut config = FleetDriverConfig::new(20);
    config.warmup_windows = 1;
    config.window_secs = 1.0;
    // Generous latency target: rate wobble in (40, 49] keeps the
    // demanded allocation at the minimum stable 5, so only the edge
    // rate moves.
    let mut f = FleetDriver::new(
        config,
        vec![FleetShardSpec::new("a", 0.5, StaticShard::new(40.0, 10.0, 5)).with_placement(info)],
    )
    .unwrap();
    f.set_machine_pool(pool);
    f.run_windows(6);
    let settled = f.placement_solver_calls();

    // +2.5% wobble: inside the 5% band, absorbed.
    f.backend_mut(0).rate = 41.0;
    f.run_windows(3);
    assert_eq!(
        f.placement_solver_calls(),
        settled,
        "in-band rate wobble must not re-solve placement"
    );

    // +20%: outside the band, the shard goes dirty and re-solves.
    f.backend_mut(0).rate = 48.0;
    f.run_windows(3);
    assert!(
        f.placement_solver_calls() > settled,
        "an out-of-band rate shift must reach the solver"
    );
}

/// An allocation that changes behind the driver's back — no command
/// of its own moved it — is seen on the next window: the record shows
/// it and the shard is sent back to its grant.
#[test]
fn allocation_moved_behind_the_driver_is_seen() {
    let mut f = fleet(
        20,
        vec![
            ("a", 0.5, StaticShard::new(40.0, 10.0, 7)),
            ("b", 0.5, StaticShard::new(20.0, 10.0, 5)),
        ],
    );
    f.run_windows(8);
    let settled = f.timeline().last().unwrap().shards[0].allocation.clone();
    assert!(f
        .timeline()
        .last()
        .unwrap()
        .shards
        .iter()
        .all(|s| !s.rebalanced));
    f.backend_mut(0).allocation = vec![settled[0] + 3];
    let w = f.step();
    assert_eq!(w.shards[0].allocation, settled, "moved back at once");
    assert!(w.shards[0].rebalanced);
    assert_eq!(f.backend(0).allocation, settled);
}

/// A shard that first reports after warm-up — the first negotiated
/// window found nothing to fit — and whose load no budget can fit gets
/// its fit error on record the window it appears, even with the
/// liveness lease off (no revival lists it).
#[test]
fn late_fit_error_reaches_the_record() {
    let mut config = FleetDriverConfig::new(20);
    config.warmup_windows = 1;
    config.window_secs = 1.0;
    config.lease_windows = 0;
    let mut late = StaticShard::new(500.0, 10.0, 4);
    late.silent = true;
    let mut f = FleetDriver::new(
        config,
        vec![
            FleetShardSpec::new("a", 0.5, StaticShard::new(40.0, 10.0, 7)),
            FleetShardSpec::new("late", 0.5, late),
        ],
    )
    .unwrap();
    f.run_windows(4);
    assert!(f.timeline().iter().all(|w| w.shards[1].error.is_none()));
    f.backend_mut(1).silent = false;
    let w = f.step();
    assert!(w.shards[1].error.is_some(), "{w:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Visiting only the change list is exact: under rate shifts,
    /// refused applies, deaths and revivals, joins and leaves at random
    /// indices, on fleets that straddle segment boundaries and on budgets
    /// from contended to roomy (and below the floors, where negotiation
    /// fails), a driver that walks the change list records the same
    /// windows, grants, commands and placements as one forced to visit
    /// every shard every window.
    #[test]
    fn change_list_equals_visiting_every_shard(
        // Per shard: λ and the µ of each operator, from small sets so
        // that neighbouring shards often hold equal grants.
        shards in vec((0usize..3, 0usize..2, 0usize..2), 2..=2 * SEGMENT_SHARDS + 1),
        headroom in 0.6f64..1.3,
        script in vec((0u8..8, 0usize..64, 5.0f64..60.0), 6..=30),
    ) {
        let shards: Vec<(f64, f64, f64)> = shards
            .iter()
            .map(|&(r, m0, m1)| ([12.0, 24.0, 36.0][r], [8.0, 14.0][m0], [8.0, 14.0][m1]))
            .collect();
        let info = ShardPlacementInfo {
            profiles: vec![ResourceProfile::uniform(1.0), ResourceProfile::uniform(2.0)],
            edges: vec![(0, 1, 1.0)],
        };
        let spec = |id: usize, demand: &mut f64| {
            let (rate, mu0, mu1) = shards[id % shards.len()];
            let k = |mu: f64| (rate / mu).ceil() as u32 + 1;
            let allocation = vec![k(mu0), k(mu1)];
            *demand += f64::from(allocation[0] + allocation[1]);
            let shard = StaticShard::chain(rate, vec![mu0, mu1], allocation);
            FleetShardSpec::new(format!("s{id}"), 0.3, shard).with_placement(info.clone())
        };
        let mut demand = 0.0;
        let specs = |demand: &mut f64| -> Vec<FleetShardSpec<StaticShard>> {
            (0..shards.len()).map(|id| spec(id, demand)).collect()
        };
        let build = |specs: Vec<FleetShardSpec<StaticShard>>, k_max: u32| {
            let mut config = FleetDriverConfig::new(k_max);
            config.warmup_windows = 1;
            config.window_secs = 1.0;
            let mut f = FleetDriver::new(config, specs).unwrap();
            f.set_machine_pool(
                MachinePool::uniform(3, ResourceProfile::uniform(60.0)).unwrap(),
            );
            f
        };
        let first = specs(&mut demand);
        let k_max = (demand * headroom) as u32;
        let (mut sparse, mut every) = (build(first, k_max), build(specs(&mut 0.0), k_max));
        for (next_id, &(action, pick, rate)) in (shards.len()..).zip(&script) {
            for f in [&mut sparse, &mut every] {
                let n = f.shard_count();
                match action {
                    0..=2 => f.backend_mut(pick % n).rate = rate,
                    3 => {
                        let shard = f.backend_mut(pick % n);
                        shard.silent = !shard.silent;
                    }
                    4 => f.backend_mut(pick % n).fail_applies = 1,
                    5 => {
                        f.add_shard(spec(next_id, &mut 0.0)).unwrap();
                    }
                    6 if n > 1 => {
                        f.remove_shard(pick % n);
                    }
                    _ => {}
                }
            }
            // A churned flag makes every window a full one.
            every.churned = true;
            every.step();
            sparse.step();
            prop_assert_eq!(sparse.last_window(), every.last_window());
            prop_assert_eq!(sparse.negotiator().grants(), every.negotiator().grants());
            for i in 0..sparse.shard_count() {
                prop_assert_eq!(sparse.shard_placement(i), every.shard_placement(i));
                prop_assert_eq!(&sparse.backend(i).allocation, &every.backend(i).allocation);
            }
        }
        prop_assert_eq!(sparse.timeline(), every.timeline());
        prop_assert_eq!(sparse.placement_solver_calls(), every.placement_solver_calls());
        prop_assert_eq!(sparse.wasted_grants(), every.wasted_grants());
    }
}
