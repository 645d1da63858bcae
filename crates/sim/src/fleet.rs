//! The sharded multi-topology fleet simulator.
//!
//! A [`FleetCoordinator`] runs N independent [`Simulator`] shards — one
//! topology each, every one on its **own virtual clock** with its own RNG —
//! under a single global processor budget `Kmax`. Each shard remains a
//! plain [`drs_core::driver::CspBackend`]; the coordinator delegates the
//! per-window loop and the cross-topology arbitration to
//! [`drs_core::fleet::FleetDriver`] / [`drs_core::fleet::FleetNegotiator`]
//! and adds the simulator-specific surface: shard construction from
//! [`Simulator`]s, mid-run workload drift injection, and interleaved
//! stepping (shards may be advanced in any order within a window without
//! changing any shard's measurements — the clocks are isolated).
//!
//! Each [`Simulator`] shard overrides the `*_into` backend hooks
//! ([`drs_core::driver::CspBackend::advance_into`] and
//! [`drs_core::driver::CspBackend::current_allocation_into`]) to fill the
//! driver's reusable buffers in place, so a settled fleet — demand epochs
//! quiet, grants equal to current allocations — runs its steady-state
//! window without heap allocation regardless of shard count.
//!
//! A [`FaultyFleetCoordinator`] is the same fleet with every shard behind
//! a fault-injected control channel ([`crate::faults`]): lossy/delayed
//! reports and actuations, partitions, churn and crashes — the substrate
//! for the robustness scenarios (`repro fleet --faults`) and the
//! checkpoint/restore sweeps ([`FleetCoordinator::checkpoint`]).
//!
//! ```
//! use drs_core::fleet::{FleetDriverConfig, FleetShardSpec};
//! use drs_queueing::distribution::Distribution;
//! use drs_sim::fleet::FleetCoordinator;
//! use drs_sim::workload::OperatorBehavior;
//! use drs_sim::SimulationBuilder;
//! use drs_topology::TopologyBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chain = |lambda: f64, seed: u64| {
//!     let mut b = TopologyBuilder::new();
//!     let spout = b.spout("src");
//!     let bolt = b.bolt("work");
//!     b.edge(spout, bolt).unwrap();
//!     SimulationBuilder::new(b.build().unwrap())
//!         .behavior(spout, OperatorBehavior::Spout {
//!             interarrival: Distribution::exponential(lambda).unwrap(),
//!         })
//!         .behavior(bolt, OperatorBehavior::Bolt {
//!             service: Distribution::exponential(10.0).unwrap(),
//!         })
//!         .allocation(vec![1, 4])
//!         .seed(seed)
//!         .build()
//!         .unwrap()
//! };
//! let mut config = FleetDriverConfig::new(10); // global budget
//! config.window_secs = 30.0;
//! let mut fleet = FleetCoordinator::new(config, vec![
//!     FleetShardSpec::new("hot", 0.3, chain(30.0, 1)),
//!     FleetShardSpec::new("cold", 0.3, chain(12.0, 2)),
//! ])?;
//! fleet.run_windows(5);
//! assert!(fleet.timeline().last().unwrap().total_granted <= 10);
//! # Ok(())
//! # }
//! ```

use crate::faults::{FaultEvent, FaultyShard};
use crate::simulator::Simulator;
use drs_core::fleet::{
    FleetCheckpoint, FleetDriver, FleetDriverConfig, FleetDriverError, FleetShardSpec, FleetWindow,
};

/// N topologies, N virtual clocks, one processor budget. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct FleetCoordinator {
    driver: FleetDriver<Simulator>,
}

impl FleetCoordinator {
    /// Creates a coordinator over simulator shards.
    ///
    /// # Errors
    ///
    /// As for [`FleetDriver::new`].
    pub fn new(
        config: FleetDriverConfig,
        shards: Vec<FleetShardSpec<Simulator>>,
    ) -> Result<Self, FleetDriverError> {
        Ok(FleetCoordinator {
            driver: FleetDriver::new(config, shards)?,
        })
    }

    /// The global processor budget `Kmax`.
    pub fn k_max(&self) -> u32 {
        self.driver.negotiator().k_max()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.driver.shard_count()
    }

    /// The shard names, in shard index order.
    pub fn shard_names(&self) -> Vec<&str> {
        self.driver.shard_names()
    }

    /// Shard `i`'s simulator (virtual clock, queues, metrics).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &Simulator {
        self.driver.backend(i)
    }

    /// Mutable access to shard `i`'s simulator — the hook for workload
    /// drift ([`Simulator::set_spout_interarrival`],
    /// [`Simulator::set_bolt_service`]) mid-run.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_mut(&mut self, i: usize) -> &mut Simulator {
        self.driver.backend_mut(i)
    }

    /// The underlying generic fleet driver.
    pub fn driver(&self) -> &FleetDriver<Simulator> {
        &self.driver
    }

    /// Mutable access to the underlying driver.
    pub fn driver_mut(&mut self) -> &mut FleetDriver<Simulator> {
        &mut self.driver
    }

    /// The fleet timeline recorded so far.
    pub fn timeline(&self) -> &[FleetWindow] {
        self.driver.timeline()
    }

    /// Runs `windows` fleet windows (shards advanced in index order).
    pub fn run_windows(&mut self, windows: u64) -> &[FleetWindow] {
        self.driver.run_windows(windows)
    }

    /// Runs one fleet window.
    pub fn step(&mut self) -> &FleetWindow {
        self.driver.step()
    }

    /// Runs one fleet window advancing the shards in the given order.
    /// Shard clocks are isolated, so any interleaving yields bit-identical
    /// per-shard timelines (locked in by `tests/fleet_determinism.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..shard_count()`.
    pub fn step_with_order(&mut self, order: &[usize]) -> &FleetWindow {
        self.driver.step_with_order(order)
    }

    /// Snapshots the full fleet — control plane and every shard's virtual
    /// clock (see [`drs_core::fleet::FleetCheckpoint`]).
    pub fn checkpoint(&self) -> FleetCheckpoint<Simulator> {
        self.driver.checkpoint()
    }

    /// Restores a coordinator from a checkpoint without consuming it, so
    /// one common prefix branches into many continuations.
    pub fn from_checkpoint(checkpoint: &FleetCheckpoint<Simulator>) -> Self {
        FleetCoordinator {
            driver: FleetDriver::from_checkpoint(checkpoint),
        }
    }
}

/// The fault-injected fleet: every shard is a
/// [`FaultyShard`]`<`[`Simulator`]`>`, so all measurement reports and
/// actuation commands run through per-shard
/// [`crate::faults::ControlChannel`]s (loss, delay + jitter, reordering,
/// duplication, partitions, crashes) while the coordinator runs the
/// hardened `drs_core::fleet` loop against them — epoch-guarded
/// actuations, capped-backoff retries, stale-evidence discounting and
/// lease-style dead-shard budget reclaim. See [`crate::faults`] for the
/// channel model and `repro fleet --faults` for named scenarios.
#[derive(Debug, Clone)]
pub struct FaultyFleetCoordinator {
    driver: FleetDriver<FaultyShard<Simulator>>,
}

impl FaultyFleetCoordinator {
    /// Creates a fault-injected coordinator over wrapped simulator shards.
    ///
    /// # Errors
    ///
    /// As for [`FleetDriver::new`].
    pub fn new(
        config: FleetDriverConfig,
        shards: Vec<FleetShardSpec<FaultyShard<Simulator>>>,
    ) -> Result<Self, FleetDriverError> {
        Ok(FaultyFleetCoordinator {
            driver: FleetDriver::new(config, shards)?,
        })
    }

    /// The global processor budget `Kmax`.
    pub fn k_max(&self) -> u32 {
        self.driver.negotiator().k_max()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.driver.shard_count()
    }

    /// The shard names, in shard index order.
    pub fn shard_names(&self) -> Vec<&str> {
        self.driver.shard_names()
    }

    /// Shard `i`'s fault-injected backend (channel, fault log, crash
    /// state, wrapped simulator).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &FaultyShard<Simulator> {
        self.driver.backend(i)
    }

    /// Mutable access to shard `i` — the hook for mid-run workload drift
    /// (via [`FaultyShard::inner_mut`]) and for scheduling crashes
    /// ([`FaultyShard::crash_at`] / [`FaultyShard::crash_now`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_mut(&mut self, i: usize) -> &mut FaultyShard<Simulator> {
        self.driver.backend_mut(i)
    }

    /// Shard `i`'s fault log: every injected fault and shard-side
    /// rejection, in window order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fault_log(&self, i: usize) -> &[FaultEvent] {
        self.driver.backend(i).fault_log()
    }

    /// The underlying generic fleet driver (timeline, negotiator, churn
    /// via `add_shard`/`remove_shard`, per-shard retry/lease state).
    pub fn driver(&self) -> &FleetDriver<FaultyShard<Simulator>> {
        &self.driver
    }

    /// Mutable access to the underlying driver.
    pub fn driver_mut(&mut self) -> &mut FleetDriver<FaultyShard<Simulator>> {
        &mut self.driver
    }

    /// The fleet timeline recorded so far.
    pub fn timeline(&self) -> &[FleetWindow] {
        self.driver.timeline()
    }

    /// Runs `windows` fleet windows (shards advanced in index order).
    pub fn run_windows(&mut self, windows: u64) -> &[FleetWindow] {
        self.driver.run_windows(windows)
    }

    /// Runs one fleet window.
    pub fn step(&mut self) -> &FleetWindow {
        self.driver.step()
    }

    /// Snapshots the full fault-injected fleet: control plane, virtual
    /// clocks, in-flight messages and channel RNG state — continuing from
    /// a restore is bit-identical to never having stopped.
    pub fn checkpoint(&self) -> FleetCheckpoint<FaultyShard<Simulator>> {
        self.driver.checkpoint()
    }

    /// Restores a coordinator from a checkpoint without consuming it.
    pub fn from_checkpoint(checkpoint: &FleetCheckpoint<FaultyShard<Simulator>>) -> Self {
        FaultyFleetCoordinator {
            driver: FleetDriver::from_checkpoint(checkpoint),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::OperatorBehavior;
    use crate::SimulationBuilder;
    use drs_queueing::distribution::Distribution;
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

    fn coordinator(k_max: u32, shards: Vec<(&str, f64, Simulator)>) -> FleetCoordinator {
        let mut config = FleetDriverConfig::new(k_max);
        config.window_secs = 30.0;
        config.warmup_windows = 1;
        FleetCoordinator::new(
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
                ("a", 1.0, chain_sim(50.0, 20.0, 4, 7)),
                ("b", 1.0, chain_sim(80.0, 30.0, 4, 11)),
            ],
        );
        // Advance only via the fleet, interleaving b before a.
        fleet.step_with_order(&[1, 0]);

        let mut solo = chain_sim(50.0, 20.0, 4, 7);
        solo.run_for(crate::time::SimDuration::from_secs(30));
        let w = solo.take_window();

        let shard_a = fleet.shard(0);
        assert_eq!(shard_a.now(), solo.now());
        assert_eq!(
            shard_a.total_external_arrivals(),
            solo.total_external_arrivals()
        );
        assert_eq!(
            fleet.timeline()[0].shards[0].completed,
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
        assert_eq!(fleet.shard(0).allocation()[1], last.shards[0].allocation[0]);
        assert_eq!(fleet.shard(1).allocation()[1], last.shards[1].allocation[0]);
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
        let mut fleet = FleetCoordinator::new(config, vec![spec]).unwrap();
        fleet
            .driver_mut()
            .set_machine_pool(PlacementPool::uniform(2, ResourceProfile::uniform(2.0)).unwrap());
        fleet.run_windows(4);

        let placement = fleet
            .driver()
            .shard_placement(0)
            .expect("placement must be in force");
        assert_eq!(placement.allocation(), vec![4]);
        assert_eq!(placement.counts_of(0).collect::<Vec<_>>(), [(0, 2), (1, 2)]);
        assert_eq!(fleet.shard(0).edge_cross_probabilities(), &[0.5]);
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
            .shard(0)
            .topology()
            .operator_by_name("src")
            .unwrap()
            .id();
        fleet
            .shard_mut(0)
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
}
