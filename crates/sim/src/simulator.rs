//! The discrete-event CSP-layer simulator.
//!
//! This is the executable substrate standing in for the paper's Storm
//! cluster. It faithfully reproduces the execution model DRS reasons about:
//!
//! * each operator has one FIFO input queue served by `k_i` identical
//!   parallel executors (paper Fig. 1);
//! * external tuples enter at spouts; every processed tuple may emit
//!   children downstream according to per-edge emission laws (splits, joins
//!   and loops all work);
//! * an external tuple is *fully processed* once every descendant tuple has
//!   been processed — tracked exactly like Storm's acker, yielding the
//!   *complete sojourn time* that DRS targets;
//! * edges may impose network delays, which the DRS model deliberately does
//!   not see (reproducing the underestimation of paper Figs. 7–8);
//! * the allocation can be changed at runtime (the `CspBackend::apply` of
//!   [`crate::backend`]),
//!   with a configurable pause cost emulating Storm's (or DRS's improved)
//!   re-balancing mechanism.
//!
//! Runs are deterministic for a fixed seed.

use crate::event::{Event, EventQueue};
use crate::metrics::{MeasurementWindow, OperatorWindow, RunningStats};
use crate::time::{SimDuration, SimTime};
use crate::workload::{CountDistribution, EdgeBehavior, OperatorBehavior};
use drs_queueing::distribution::Distribution;
use drs_topology::{CsrOutEdges, OperatorId, OperatorKind, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// Error from building or driving a [`Simulator`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A behaviour is missing or mismatched for an operator.
    BehaviorMismatch {
        /// Operator name.
        operator: String,
        /// What was wrong.
        problem: String,
    },
    /// An allocation vector had the wrong length.
    AllocationLength {
        /// Expected length (number of operators).
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A bolt was allocated zero executors.
    ZeroAllocation {
        /// Operator name.
        operator: String,
    },
    /// A control action was issued while a rebalance pause is in progress.
    RebalanceInProgress,
    /// A machine-placement input did not fit the topology.
    PlacementMismatch {
        /// What was wrong.
        problem: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BehaviorMismatch { operator, problem } => {
                write!(f, "behaviour mismatch for operator {operator}: {problem}")
            }
            SimError::AllocationLength { expected, actual } => {
                write!(f, "allocation length {actual}, expected {expected}")
            }
            SimError::ZeroAllocation { operator } => {
                write!(f, "bolt {operator} allocated zero executors")
            }
            SimError::RebalanceInProgress => {
                write!(f, "a rebalance pause is already in progress")
            }
            SimError::PlacementMismatch { problem } => {
                write!(f, "placement mismatch: {problem}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Builder for [`Simulator`] instances.
///
/// # Examples
///
/// ```
/// use drs_queueing::distribution::Distribution;
/// use drs_sim::{SimulationBuilder, workload::{CountDistribution, EdgeBehavior, OperatorBehavior}};
/// use drs_sim::time::SimDuration;
/// use drs_topology::TopologyBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TopologyBuilder::new();
/// let spout = b.spout("src");
/// let bolt = b.bolt("work");
/// b.edge(spout, bolt)?;
/// let topo = b.build()?;
///
/// let mut sim = SimulationBuilder::new(topo)
///     .behavior(spout, OperatorBehavior::Spout {
///         interarrival: Distribution::exponential(100.0)?,
///     })
///     .behavior(bolt, OperatorBehavior::Bolt {
///         service: Distribution::exponential(30.0)?,
///     })
///     .allocation(vec![1, 4])
///     .seed(7)
///     .build()?;
///
/// sim.run_for(SimDuration::from_secs(30));
/// let window = sim.take_window();
/// assert!(window.mean_sojourn().unwrap() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimulationBuilder {
    topology: Topology,
    behaviors: Vec<Option<OperatorBehavior>>,
    edge_behaviors: Vec<Option<EdgeBehavior>>,
    allocation: Option<Vec<u32>>,
    seed: u64,
}

impl SimulationBuilder {
    /// Starts a builder for the given topology.
    pub fn new(topology: Topology) -> Self {
        let n_ops = topology.len();
        let n_edges = topology.edges().len();
        SimulationBuilder {
            topology,
            behaviors: vec![None; n_ops],
            edge_behaviors: vec![None; n_edges],
            allocation: None,
            seed: 0,
        }
    }

    /// Sets the behaviour of one operator.
    #[must_use]
    pub fn behavior(mut self, id: OperatorId, behavior: OperatorBehavior) -> Self {
        self.behaviors[id.index()] = Some(behavior);
        self
    }

    /// Sets the behaviour of the edge `from → to`. Unset edges default to a
    /// mean-preserving count law matching the topology gain and a
    /// deterministic delay equal to the edge's `network_delay`.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no such edge.
    #[must_use]
    pub fn edge_behavior(
        mut self,
        from: OperatorId,
        to: OperatorId,
        behavior: EdgeBehavior,
    ) -> Self {
        let idx = self
            .topology
            .edges()
            .iter()
            .position(|e| e.from() == from && e.to() == to)
            .expect("edge must exist in the topology");
        self.edge_behaviors[idx] = Some(behavior);
        self
    }

    /// Sets the initial allocation (executors per operator, indexed by
    /// operator id; spout entries are ignored). Defaults to one executor per
    /// operator.
    #[must_use]
    pub fn allocation(mut self, allocation: Vec<u32>) -> Self {
        self.allocation = Some(allocation);
        self
    }

    /// Sets the RNG seed (default 0). Equal seeds give bit-identical runs.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates and constructs the [`Simulator`].
    ///
    /// # Errors
    ///
    /// * [`SimError::BehaviorMismatch`] — an operator lacks a behaviour or
    ///   has one of the wrong kind (spout behaviour on a bolt etc.).
    /// * [`SimError::AllocationLength`] / [`SimError::ZeroAllocation`] — bad
    ///   initial allocation.
    pub fn build(self) -> Result<Simulator, SimError> {
        let n = self.topology.len();
        let mut behaviors = Vec::with_capacity(n);
        for (i, behavior) in self.behaviors.into_iter().enumerate() {
            let op = &self.topology.operators()[i];
            let behavior = behavior.ok_or_else(|| SimError::BehaviorMismatch {
                operator: op.name().to_owned(),
                problem: "no behaviour configured".to_owned(),
            })?;
            let matches = matches!(
                (&behavior, op.kind()),
                (OperatorBehavior::Spout { .. }, OperatorKind::Spout)
                    | (OperatorBehavior::Bolt { .. }, OperatorKind::Bolt)
            );
            if !matches {
                return Err(SimError::BehaviorMismatch {
                    operator: op.name().to_owned(),
                    problem: format!("behaviour kind does not match operator kind {}", op.kind()),
                });
            }
            behaviors.push(behavior);
        }

        let edge_behaviors: Vec<EdgeBehavior> = self
            .edge_behaviors
            .into_iter()
            .enumerate()
            .map(|(i, behavior)| {
                behavior.unwrap_or_else(|| {
                    let edge = &self.topology.edges()[i];
                    EdgeBehavior {
                        count: CountDistribution::MeanPreserving { mean: edge.gain() },
                        delay: Distribution::Deterministic {
                            value: edge.network_delay(),
                        },
                    }
                })
            })
            .collect();

        // One event-queue lane per distinct fixed delay: a local tuple over
        // such an edge arrives at `now + d`, so each lane fills in time
        // order (see `crate::event`).
        let mut lanes = 0;
        let mut edge_lanes: Vec<Option<FixedHop>> = Vec::with_capacity(edge_behaviors.len());
        for behavior in &edge_behaviors {
            let hop = match behavior.delay {
                Distribution::Deterministic { value } => {
                    let delay = SimDuration::from_secs_f64(value);
                    let lane = match edge_lanes.iter().flatten().find(|hop| hop.delay == delay) {
                        Some(hop) => hop.lane,
                        None => {
                            lanes += 1;
                            lanes - 1
                        }
                    };
                    Some(FixedHop { lane, delay })
                }
                _ => None,
            };
            edge_lanes.push(hop);
        }

        let n_edges = edge_behaviors.len();
        let allocation = self.allocation.unwrap_or_else(|| vec![1; n]);
        validate_allocation(&self.topology, &allocation)?;

        // Compiled CSR layout of outgoing edges, shared with the threaded
        // runtime: the hot emit path walks flat arrays by value, so no
        // per-tuple clone of an adjacency Vec is needed.
        let csr = CsrOutEdges::compile(&self.topology);

        let mut sim = Simulator {
            ops: (0..n)
                .map(|_| OpState {
                    queue: VecDeque::new(),
                    busy: 0,
                })
                .collect(),
            window_ops: vec![OperatorWindow::default(); n],
            topology: self.topology,
            behaviors,
            edge_behaviors,
            edge_lanes,
            csr,
            allocation,
            now: SimTime::ZERO,
            events: EventQueue::with_lanes(lanes),
            rng: StdRng::seed_from_u64(self.seed),
            trees: Vec::new(),
            free_trees: Vec::new(),
            open: 0,
            paused_until: None,
            pending_allocation: None,
            edge_cross_prob: vec![0.0; n_edges],
            cross_delay: SimDuration::ZERO,
            cross_tuples: 0,
            edge_tuples: 0,
            window_start: SimTime::ZERO,
            window_external: 0,
            window_sojourn: RunningStats::new(),
            total_sojourn: RunningStats::new(),
            total_external: 0,
        };
        sim.prime_spouts();
        Ok(sim)
    }
}

fn validate_allocation(topology: &Topology, allocation: &[u32]) -> Result<(), SimError> {
    if allocation.len() != topology.len() {
        return Err(SimError::AllocationLength {
            expected: topology.len(),
            actual: allocation.len(),
        });
    }
    for op in topology.operators() {
        if op.kind() == OperatorKind::Bolt && allocation[op.id().index()] == 0 {
            return Err(SimError::ZeroAllocation {
                operator: op.name().to_owned(),
            });
        }
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct OpState {
    queue: VecDeque<QueuedTuple>,
    busy: u32,
}

#[derive(Debug, Clone, Copy)]
struct QueuedTuple {
    tree: u32,
    enqueued: SimTime,
}

/// One open tuple tree in the slab. `pending` counts every descendant tuple
/// that is scheduled, queued or in service; the tree completes — and its
/// slot returns to the free list — exactly when `pending` drops to zero, at
/// which point no event can reference the slot any more, making recycling
/// safe without generation counters.
#[derive(Debug, Clone, Copy)]
struct TreeState {
    root_time: SimTime,
    pending: u32,
}

/// A fixed-delay edge's event-queue lane and its delay.
#[derive(Debug, Clone, Copy)]
struct FixedHop {
    lane: usize,
    delay: SimDuration,
}

/// The discrete-event stream-processing simulator. See the module docs for
/// the execution model and [`SimulationBuilder`] for construction.
#[derive(Debug, Clone)]
pub struct Simulator {
    topology: Topology,
    behaviors: Vec<OperatorBehavior>,
    edge_behaviors: Vec<EdgeBehavior>,
    /// Per edge id: the lane its local tuples take when its delay is fixed.
    edge_lanes: Vec<Option<FixedHop>>,
    /// Compiled CSR adjacency shared with the runtime's layout
    /// ([`drs_topology::CsrOutEdges`]): flat out-edge arrays walked by
    /// value on the emit path.
    csr: CsrOutEdges,
    allocation: Vec<u32>,
    now: SimTime,
    events: EventQueue,
    rng: StdRng,
    ops: Vec<OpState>,
    /// Tuple-tree slab; slots listed in `free_trees` are recyclable.
    trees: Vec<TreeState>,
    free_trees: Vec<u32>,
    /// Number of live (non-free) slots in `trees`.
    open: usize,
    paused_until: Option<SimTime>,
    pending_allocation: Option<Vec<u32>>,
    // Machine-placement state: per-edge probability that a tuple crosses a
    // machine boundary (indexed by edge id, all zero until a placement is
    // installed), the extra delay charged per crossing, and cumulative
    // crossing counters.
    edge_cross_prob: Vec<f64>,
    cross_delay: SimDuration,
    cross_tuples: u64,
    edge_tuples: u64,
    // Measurement-window accumulators.
    window_start: SimTime,
    window_ops: Vec<OperatorWindow>,
    window_external: u64,
    window_sojourn: RunningStats,
    // Cumulative statistics.
    total_sojourn: RunningStats,
    total_external: u64,
}

impl Simulator {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulated topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The current allocation (executors per operator id).
    pub fn allocation(&self) -> &[u32] {
        &self.allocation
    }

    /// Current input-queue length of operator `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn queue_len(&self, op: OperatorId) -> usize {
        self.ops[op.index()].queue.len()
    }

    /// Number of currently busy executors at `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    #[cfg(test)]
    pub(crate) fn busy_executors(&self, op: OperatorId) -> u32 {
        self.ops[op.index()].busy
    }

    /// Number of external tuples whose processing trees are still open.
    pub fn open_trees(&self) -> usize {
        self.open
    }

    /// Total external tuples injected so far.
    pub fn total_external_arrivals(&self) -> u64 {
        self.total_external
    }

    /// Cumulative complete-sojourn-time statistics since simulation start
    /// (seconds).
    pub fn total_sojourn_stats(&self) -> &RunningStats {
        &self.total_sojourn
    }

    /// Whether a rebalance pause is currently in effect.
    pub(crate) fn is_paused(&self) -> bool {
        self.paused_until.is_some_and(|t| t > self.now)
    }

    /// Runs the simulation until `deadline`, then sets the clock to exactly
    /// `deadline`.
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        while let Some((time, event)) = self.events.pop_due(deadline) {
            self.now = time;
            self.handle(event);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs the simulation for `duration` from the current clock.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// Closes the current measurement window: returns all counters
    /// accumulated since the previous call (or since start) and resets them.
    ///
    /// This is the simulator-side analogue of the DRS measurer's periodic
    /// metric pull (paper App. B).
    pub fn take_window(&mut self) -> MeasurementWindow {
        self.close_window_with(|_, window| window.clone())
    }

    /// Closes the current measurement window like [`take_window`], but
    /// lends it (with the simulator) to `read` instead of returning it: the
    /// per-operator counters are reset where they live, so closing a window
    /// allocates nothing (the `CspBackend::advance_into` path).
    ///
    /// [`take_window`]: Simulator::take_window
    pub(crate) fn close_window_with<R>(
        &mut self,
        read: impl FnOnce(&Simulator, &MeasurementWindow) -> R,
    ) -> R {
        let mut operators = std::mem::take(&mut self.window_ops);
        for (w, op) in operators.iter_mut().zip(&self.ops) {
            w.queue_len_end = op.queue.len();
        }
        let window = MeasurementWindow {
            start: self.window_start,
            end: self.now,
            operators,
            external_arrivals: self.window_external,
            sojourn: self.window_sojourn,
        };
        let out = read(self, &window);
        self.window_ops = window.operators;
        self.window_ops.fill(OperatorWindow::default());
        self.window_start = self.now;
        self.window_external = 0;
        self.window_sojourn = RunningStats::new();
        out
    }

    /// Applies a new allocation after a pause of `pause` (the re-balancing
    /// cost). During the pause no executor starts new work; queues keep
    /// filling; in-flight services still complete. A zero pause applies the
    /// allocation immediately.
    ///
    /// # Errors
    ///
    /// * [`SimError::AllocationLength`] / [`SimError::ZeroAllocation`] — bad
    ///   target allocation.
    /// * [`SimError::RebalanceInProgress`] — a previous pause has not ended.
    pub(crate) fn rebalance(
        &mut self,
        allocation: Vec<u32>,
        pause: SimDuration,
    ) -> Result<(), SimError> {
        validate_allocation(&self.topology, &allocation)?;
        if self.is_paused() {
            return Err(SimError::RebalanceInProgress);
        }
        if pause == SimDuration::ZERO {
            self.allocation = allocation;
            self.kick_start_all();
            return Ok(());
        }
        let resume_at = self.now + pause;
        self.paused_until = Some(resume_at);
        self.pending_allocation = Some(allocation);
        self.events.schedule(resume_at, Event::Resume);
        Ok(())
    }

    /// Replaces the inter-arrival law of a spout (workload drift).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BehaviorMismatch`] if `spout` is not a spout.
    pub fn set_spout_interarrival(
        &mut self,
        spout: OperatorId,
        interarrival: Distribution,
    ) -> Result<(), SimError> {
        let i = spout.index();
        match &mut self.behaviors[i] {
            OperatorBehavior::Spout { interarrival: slot } => {
                *slot = interarrival;
                Ok(())
            }
            OperatorBehavior::Bolt { .. } => Err(SimError::BehaviorMismatch {
                operator: self.topology.operators()[i].name().to_owned(),
                problem: "not a spout".to_owned(),
            }),
        }
    }

    /// Replaces the service law of a bolt (workload drift, e.g. frames
    /// becoming feature-rich and slower to process).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BehaviorMismatch`] if `bolt` is not a bolt.
    pub fn set_bolt_service(
        &mut self,
        bolt: OperatorId,
        service: Distribution,
    ) -> Result<(), SimError> {
        let i = bolt.index();
        match &mut self.behaviors[i] {
            OperatorBehavior::Bolt { service: slot } => {
                *slot = service;
                Ok(())
            }
            OperatorBehavior::Spout { .. } => Err(SimError::BehaviorMismatch {
                operator: self.topology.operators()[i].name().to_owned(),
                problem: "not a bolt".to_owned(),
            }),
        }
    }

    /// Installs per-edge machine-crossing probabilities (indexed by edge id,
    /// each in `[0, 1]`). A tuple emitted over edge `e` then crosses a
    /// machine boundary with probability `probs[e]`, picking up the
    /// configured cross-machine delay. This is how a
    /// [`drs_core::placement::Placement`](../../drs_core/placement) reaches
    /// the simulator: the `CspBackend` impl translates executor counts into
    /// shuffle-grouping crossing probabilities and calls this.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PlacementMismatch`] if `probs` has the wrong
    /// length or contains a value outside `[0, 1]`.
    pub fn set_edge_cross_probabilities(&mut self, probs: Vec<f64>) -> Result<(), SimError> {
        if probs.len() != self.edge_cross_prob.len() {
            return Err(SimError::PlacementMismatch {
                problem: format!(
                    "{} edge probabilities, topology has {} edges",
                    probs.len(),
                    self.edge_cross_prob.len()
                ),
            });
        }
        if let Some(p) = probs.iter().find(|p| !(0.0..=1.0).contains(*p)) {
            return Err(SimError::PlacementMismatch {
                problem: format!("crossing probability {p} outside [0, 1]"),
            });
        }
        self.edge_cross_prob = probs;
        Ok(())
    }

    /// Sets the extra network delay charged to every tuple that travels
    /// between two different (simulated) machines. Defaults to zero. Edges
    /// only start crossing machines once a machine placement is installed
    /// via [`Simulator::set_edge_cross_probabilities`].
    pub fn set_cross_machine_delay(&mut self, delay: SimDuration) {
        self.cross_delay = delay;
    }

    /// Tuples so far that crossed a machine boundary in transit.
    pub fn cross_machine_tuples(&self) -> u64 {
        self.cross_tuples
    }

    /// Total tuples sent over edges so far (crossing or not).
    pub fn edge_tuples(&self) -> u64 {
        self.edge_tuples
    }

    /// Fraction of edge tuples that crossed machines (0 when nothing has
    /// been sent yet).
    pub fn cross_machine_fraction(&self) -> f64 {
        if self.edge_tuples == 0 {
            0.0
        } else {
            self.cross_tuples as f64 / self.edge_tuples as f64
        }
    }

    /// The installed per-edge machine-crossing probabilities (indexed by
    /// edge id; all zero until a placement is installed).
    pub fn edge_cross_probabilities(&self) -> &[f64] {
        &self.edge_cross_prob
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn prime_spouts(&mut self) {
        let spout_ids: Vec<usize> = self.topology.spouts().map(|s| s.id().index()).collect();
        for spout in spout_ids {
            let next = self.sample_interarrival(spout);
            self.events
                .schedule(self.now + next, Event::ExternalArrival { spout });
        }
    }

    fn sample_interarrival(&mut self, spout: usize) -> SimDuration {
        match &self.behaviors[spout] {
            OperatorBehavior::Spout { interarrival } => {
                SimDuration::from_secs_f64(interarrival.sample(&mut self.rng))
            }
            OperatorBehavior::Bolt { .. } => unreachable!("validated at build"),
        }
    }

    fn sample_service(&mut self, op: usize) -> SimDuration {
        match &self.behaviors[op] {
            OperatorBehavior::Bolt { service } => {
                SimDuration::from_secs_f64(service.sample(&mut self.rng))
            }
            OperatorBehavior::Spout { .. } => unreachable!("spouts never serve"),
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::ExternalArrival { spout } => self.on_external_arrival(spout),
            Event::TupleArrival { op, tree } => self.on_tuple_arrival(op, tree),
            Event::ServiceComplete { op, tree, started } => {
                self.on_service_complete(op, tree, started)
            }
            Event::Resume => self.on_resume(),
        }
    }

    /// Claims a tree slot from the slab (recycling a free one if possible).
    fn alloc_tree(&mut self) -> u32 {
        self.open += 1;
        let state = TreeState {
            root_time: self.now,
            pending: 0,
        };
        if let Some(slot) = self.free_trees.pop() {
            self.trees[slot as usize] = state;
            slot
        } else {
            self.trees.push(state);
            (self.trees.len() - 1) as u32
        }
    }

    fn on_external_arrival(&mut self, spout: usize) {
        // Register the root tuple.
        let tree_id = self.alloc_tree();
        self.window_external += 1;
        self.total_external += 1;
        // The spout emits instantly (spouts are sources, not servers; their
        // executors in the paper's experiments are excluded from Kmax).
        let emitted = self.emit_children(spout, tree_id);
        let tree = &mut self.trees[tree_id as usize];
        tree.pending += emitted;
        if tree.pending == 0 {
            // A root that spawns nothing is trivially fully processed.
            self.complete_tree(tree_id);
        }
        // Schedule the next external arrival.
        let next = self.sample_interarrival(spout);
        self.events
            .schedule(self.now + next, Event::ExternalArrival { spout });
    }

    /// Samples emissions for every outgoing edge of `op`, scheduling child
    /// arrivals. Returns the number of children created.
    ///
    /// Iterates the CSR adjacency by value, so the hot path performs no
    /// allocation per processed tuple.
    fn emit_children(&mut self, op: usize, tree: u32) -> u32 {
        let mut emitted = 0;
        for slot in 0..self.csr.out_degree(op) {
            let edge_idx = self.csr.edges_of(op)[slot] as usize;
            let target = self.csr.targets_of(op)[slot] as usize;
            let n = self.edge_behaviors[edge_idx].count.sample(&mut self.rng);
            let cross_prob = self.edge_cross_prob[edge_idx];
            let fixed = self.edge_lanes[edge_idx];
            for _ in 0..n {
                // A fixed delay draws nothing from the RNG, so taking the
                // precomputed one keeps the random stream.
                let mut delay = match fixed {
                    Some(hop) => hop.delay,
                    None => SimDuration::from_secs_f64(
                        self.edge_behaviors[edge_idx].delay.sample(&mut self.rng),
                    ),
                };
                // With a placement installed, the tuple may land on an
                // executor of `target` that lives on another machine; it
                // then pays the cross-machine network delay. Edges with
                // probability zero draw nothing, so runs without a
                // placement keep their exact event stream per seed.
                self.edge_tuples += 1;
                let crossed = cross_prob > 0.0 && self.rng.gen_bool(cross_prob);
                if crossed {
                    self.cross_tuples += 1;
                    delay += self.cross_delay;
                }
                match fixed {
                    Some(hop) if !crossed => {
                        self.events
                            .schedule_lane(hop.lane, self.now + delay, target, tree);
                    }
                    _ => self
                        .events
                        .schedule(self.now + delay, Event::TupleArrival { op: target, tree }),
                }
            }
            emitted += n;
        }
        emitted
    }

    fn on_tuple_arrival(&mut self, op: usize, tree: u32) {
        self.window_ops[op].arrivals += 1;
        let can_serve = !self.is_paused() && self.ops[op].busy < self.allocation[op];
        if can_serve {
            self.ops[op].busy += 1;
            let service = self.sample_service(op);
            self.events.schedule(
                self.now + service,
                Event::ServiceComplete {
                    op,
                    tree,
                    started: self.now,
                },
            );
        } else {
            self.ops[op].queue.push_back(QueuedTuple {
                tree,
                enqueued: self.now,
            });
        }
    }

    fn on_service_complete(&mut self, op: usize, tree: u32, started: SimTime) {
        let w = &mut self.window_ops[op];
        w.completions += 1;
        w.busy_time += self.now.duration_since(started).as_secs_f64();

        // Emit children, then settle the tree bookkeeping: +children − self.
        let children = self.emit_children(op, tree);
        let state = &mut self.trees[tree as usize];
        state.pending = state.pending + children - 1;
        if state.pending == 0 {
            self.complete_tree(tree);
        }

        // Keep the executor working if allowed.
        let state = &mut self.ops[op];
        let paused = self.paused_until.is_some_and(|t| t > self.now);
        if !paused && state.busy <= self.allocation[op] {
            if let Some(next) = state.queue.pop_front() {
                let wait = self.now.duration_since(next.enqueued).as_secs_f64();
                self.window_ops[op].queue_wait += wait;
                let service = self.sample_service(op);
                self.events.schedule(
                    self.now + service,
                    Event::ServiceComplete {
                        op,
                        tree: next.tree,
                        started: self.now,
                    },
                );
                return; // executor stays busy
            }
        }
        self.ops[op].busy -= 1;
    }

    fn complete_tree(&mut self, tree: u32) {
        let state = self.trees[tree as usize];
        self.free_trees.push(tree);
        self.open -= 1;
        let sojourn = self.now.duration_since(state.root_time).as_secs_f64();
        self.window_sojourn.record(sojourn);
        self.total_sojourn.record(sojourn);
    }

    fn on_resume(&mut self) {
        self.paused_until = None;
        if let Some(allocation) = self.pending_allocation.take() {
            self.allocation = allocation;
        }
        self.kick_start_all();
    }

    fn kick_start_all(&mut self) {
        for op in 0..self.ops.len() {
            while self.ops[op].busy < self.allocation[op] {
                let Some(next) = self.ops[op].queue.pop_front() else {
                    break;
                };
                let wait = self.now.duration_since(next.enqueued).as_secs_f64();
                self.window_ops[op].queue_wait += wait;
                self.ops[op].busy += 1;
                let service = self.sample_service(op);
                self.events.schedule(
                    self.now + service,
                    Event::ServiceComplete {
                        op,
                        tree: next.tree,
                        started: self.now,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_topology::{EdgeOptions, TopologyBuilder};

    fn chain_sim(lambda: f64, mu: f64, k: u32, seed: u64) -> Simulator {
        let mut b = TopologyBuilder::new();
        let spout = b.spout("src");
        let bolt = b.bolt("work");
        b.edge(spout, bolt).unwrap();
        let topo = b.build().unwrap();
        SimulationBuilder::new(topo)
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

    #[test]
    fn cross_probability_counts_and_charges_delay() {
        // Identical seeds; one sim routes half its edge tuples across
        // machines with a hefty 50 ms hop.
        let mut local = chain_sim(80.0, 30.0, 4, 11);
        let mut split = chain_sim(80.0, 30.0, 4, 11);
        split.set_edge_cross_probabilities(vec![0.5]).unwrap();
        split.set_cross_machine_delay(SimDuration::from_secs_f64(0.05));
        local.run_for(SimDuration::from_secs(200));
        split.run_for(SimDuration::from_secs(200));

        assert_eq!(local.cross_machine_tuples(), 0);
        assert_eq!(local.cross_machine_fraction(), 0.0);
        assert!(local.edge_tuples() > 10_000);

        let fraction = split.cross_machine_fraction();
        assert!(
            (fraction - 0.5).abs() < 0.02,
            "cross fraction {fraction}, expected ~0.5"
        );
        let local_sojourn = local.total_sojourn_stats().mean().unwrap();
        let split_sojourn = split.total_sojourn_stats().mean().unwrap();
        assert!(
            split_sojourn > local_sojourn + 0.02,
            "cross-machine hops must inflate sojourn: {split_sojourn} vs {local_sojourn}"
        );
    }

    #[test]
    fn zero_cross_probability_keeps_the_event_stream_bit_identical() {
        let mut plain = chain_sim(60.0, 25.0, 3, 5);
        let mut placed = chain_sim(60.0, 25.0, 3, 5);
        // Probability zero everywhere: no extra RNG draws, so the run is
        // exactly the run an un-placed simulator produces.
        placed.set_edge_cross_probabilities(vec![0.0]).unwrap();
        placed.set_cross_machine_delay(SimDuration::from_secs_f64(0.25));
        plain.run_for(SimDuration::from_secs(100));
        placed.run_for(SimDuration::from_secs(100));
        assert_eq!(
            plain.total_external_arrivals(),
            placed.total_external_arrivals()
        );
        assert_eq!(
            plain.total_sojourn_stats().mean(),
            placed.total_sojourn_stats().mean()
        );
        assert_eq!(placed.cross_machine_tuples(), 0);
    }

    #[test]
    fn cross_probabilities_are_validated() {
        let mut sim = chain_sim(50.0, 30.0, 2, 1);
        let err = sim
            .set_edge_cross_probabilities(vec![0.5, 0.5])
            .unwrap_err();
        assert!(matches!(err, SimError::PlacementMismatch { .. }));
        let err = sim.set_edge_cross_probabilities(vec![1.5]).unwrap_err();
        assert!(matches!(err, SimError::PlacementMismatch { .. }));
        assert_eq!(sim.edge_cross_probabilities(), &[0.0]);
        sim.set_edge_cross_probabilities(vec![1.0]).unwrap();
        assert_eq!(sim.edge_cross_probabilities(), &[1.0]);
    }

    #[test]
    fn builder_requires_all_behaviors() {
        let mut b = TopologyBuilder::new();
        let spout = b.spout("src");
        let bolt = b.bolt("work");
        b.edge(spout, bolt).unwrap();
        let topo = b.build().unwrap();
        let err = SimulationBuilder::new(topo).build().unwrap_err();
        assert!(matches!(err, SimError::BehaviorMismatch { .. }));
    }

    #[test]
    fn builder_rejects_kind_mismatch() {
        let mut b = TopologyBuilder::new();
        let spout = b.spout("src");
        let bolt = b.bolt("work");
        b.edge(spout, bolt).unwrap();
        let topo = b.build().unwrap();
        let err = SimulationBuilder::new(topo)
            .behavior(
                spout,
                OperatorBehavior::Bolt {
                    service: Distribution::exponential(1.0).unwrap(),
                },
            )
            .behavior(
                bolt,
                OperatorBehavior::Bolt {
                    service: Distribution::exponential(1.0).unwrap(),
                },
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::BehaviorMismatch { .. }));
    }

    #[test]
    fn builder_rejects_bad_allocation() {
        let mut b = TopologyBuilder::new();
        let spout = b.spout("src");
        let bolt = b.bolt("work");
        b.edge(spout, bolt).unwrap();
        let topo = b.build().unwrap();
        let base = |topo: Topology| {
            SimulationBuilder::new(topo)
                .behavior(
                    spout,
                    OperatorBehavior::Spout {
                        interarrival: Distribution::exponential(1.0).unwrap(),
                    },
                )
                .behavior(
                    bolt,
                    OperatorBehavior::Bolt {
                        service: Distribution::exponential(1.0).unwrap(),
                    },
                )
        };
        let err = base(topo.clone()).allocation(vec![1]).build().unwrap_err();
        assert!(matches!(err, SimError::AllocationLength { .. }));
        let err = base(topo).allocation(vec![1, 0]).build().unwrap_err();
        assert!(matches!(err, SimError::ZeroAllocation { .. }));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut a = chain_sim(50.0, 20.0, 4, 42);
        let mut b = chain_sim(50.0, 20.0, 4, 42);
        a.run_for(SimDuration::from_secs(20));
        b.run_for(SimDuration::from_secs(20));
        assert_eq!(
            a.total_sojourn_stats().mean(),
            b.total_sojourn_stats().mean()
        );
        assert_eq!(a.total_external_arrivals(), b.total_external_arrivals());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = chain_sim(50.0, 20.0, 4, 1);
        let mut b = chain_sim(50.0, 20.0, 4, 2);
        a.run_for(SimDuration::from_secs(20));
        b.run_for(SimDuration::from_secs(20));
        assert_ne!(
            a.total_sojourn_stats().mean(),
            b.total_sojourn_stats().mean()
        );
    }

    #[test]
    fn mm1_sojourn_matches_theory() {
        // M/M/1 with λ=30, µ=50: E[T] = 1/(µ-λ) = 50 ms.
        let mut sim = chain_sim(30.0, 50.0, 1, 7);
        sim.run_for(SimDuration::from_secs(400));
        let measured = sim.total_sojourn_stats().mean().unwrap();
        let expected = 1.0 / (50.0 - 30.0);
        assert!(
            (measured - expected).abs() / expected < 0.08,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn mmk_sojourn_matches_erlang_formula() {
        use drs_queueing::erlang::MmKQueue;
        // M/M/3 with λ=100, µ=40.
        let mut sim = chain_sim(100.0, 40.0, 3, 11);
        sim.run_for(SimDuration::from_secs(400));
        let measured = sim.total_sojourn_stats().mean().unwrap();
        let expected = MmKQueue::new(100.0, 40.0).unwrap().expected_sojourn(3);
        assert!(
            (measured - expected).abs() / expected < 0.08,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn tree_slab_recycles_slots() {
        let mut sim = chain_sim(200.0, 60.0, 5, 97);
        sim.run_for(SimDuration::from_secs(120));
        assert!(sim.total_external_arrivals() > 10_000);
        // The slab only ever grows to the peak number of simultaneously
        // open trees — completed slots are recycled, not leaked.
        assert!(
            sim.trees.len() < 1_000,
            "slab grew to {} slots for {} trees",
            sim.trees.len(),
            sim.total_external_arrivals()
        );
        assert_eq!(
            sim.open_trees() + sim.free_trees.len(),
            sim.trees.len(),
            "every slot is either open or free"
        );
        assert_eq!(
            sim.total_external_arrivals(),
            sim.total_sojourn_stats().count() + sim.open_trees() as u64
        );
    }

    #[test]
    fn conservation_arrivals_equal_completions_plus_open() {
        let mut sim = chain_sim(80.0, 30.0, 4, 3);
        sim.run_for(SimDuration::from_secs(60));
        let completed = sim.total_sojourn_stats().count();
        let open = sim.open_trees() as u64;
        assert_eq!(sim.total_external_arrivals(), completed + open);
    }

    #[test]
    fn measured_rates_match_configuration() {
        let mut sim = chain_sim(100.0, 40.0, 4, 5);
        sim.run_for(SimDuration::from_secs(300));
        let w = sim.take_window();
        let bolt = 1;
        let lambda = w.operator_arrival_rate(bolt).unwrap();
        let mu = w.operator_service_rate(bolt).unwrap();
        assert!((lambda - 100.0).abs() < 5.0, "λ̂ = {lambda}");
        assert!((mu - 40.0).abs() < 2.0, "µ̂ = {mu}");
        let lambda0 = w.external_rate().unwrap();
        assert!((lambda0 - 100.0).abs() < 5.0, "λ̂0 = {lambda0}");
    }

    #[test]
    fn take_window_resets_counters() {
        let mut sim = chain_sim(50.0, 30.0, 3, 9);
        sim.run_for(SimDuration::from_secs(10));
        let w1 = sim.take_window();
        assert!(w1.external_arrivals > 0);
        let w2 = sim.take_window();
        assert_eq!(w2.external_arrivals, 0);
        assert_eq!(w2.elapsed(), SimDuration::ZERO);
        assert_eq!(w2.start, w1.end);
    }

    #[test]
    fn underprovisioned_operator_grows_queue() {
        // λ=100, µ=30, k=2 -> offered load 3.33 > 2: unstable.
        let mut sim = chain_sim(100.0, 30.0, 2, 13);
        sim.run_for(SimDuration::from_secs(60));
        let bolt = sim.topology().operator_by_name("work").unwrap().id();
        assert!(
            sim.queue_len(bolt) > 500,
            "queue should explode, got {}",
            sim.queue_len(bolt)
        );
    }

    #[test]
    fn rebalance_recovers_overload() {
        let mut sim = chain_sim(100.0, 30.0, 2, 17);
        sim.run_for(SimDuration::from_secs(30));
        let bolt = sim.topology().operator_by_name("work").unwrap().id();
        let backlog = sim.queue_len(bolt);
        assert!(backlog > 100);
        // Scale out to 6 executors with a 2-second pause.
        sim.rebalance(vec![1, 6], SimDuration::from_secs(2))
            .unwrap();
        assert!(sim.is_paused());
        sim.run_for(SimDuration::from_secs(120));
        assert!(
            sim.queue_len(bolt) < 50,
            "queue should drain, got {}",
            sim.queue_len(bolt)
        );
        assert_eq!(sim.allocation()[1], 6);
    }

    #[test]
    fn pause_blocks_service_starts() {
        let mut sim = chain_sim(100.0, 50.0, 3, 23);
        sim.run_for(SimDuration::from_secs(5));
        sim.rebalance(vec![1, 3], SimDuration::from_secs(3))
            .unwrap();
        // Run 1 s into the pause: busy executors drain, none restart.
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.is_paused());
        let bolt = sim.topology().operator_by_name("work").unwrap().id();
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.busy_executors(bolt), 0);
        let queued_during_pause = sim.queue_len(bolt);
        assert!(queued_during_pause > 0, "arrivals must queue during pause");
        // After the pause everything restarts.
        sim.run_for(SimDuration::from_secs(60));
        assert!(!sim.is_paused());
        assert!(sim.queue_len(bolt) < queued_during_pause);
    }

    #[test]
    fn double_rebalance_rejected_during_pause() {
        let mut sim = chain_sim(10.0, 30.0, 2, 29);
        sim.run_for(SimDuration::from_secs(1));
        sim.rebalance(vec![1, 3], SimDuration::from_secs(5))
            .unwrap();
        sim.run_for(SimDuration::from_millis(100));
        let err = sim
            .rebalance(vec![1, 4], SimDuration::from_secs(1))
            .unwrap_err();
        assert_eq!(err, SimError::RebalanceInProgress);
    }

    #[test]
    fn zero_pause_rebalance_is_immediate() {
        let mut sim = chain_sim(100.0, 30.0, 2, 31);
        sim.run_for(SimDuration::from_secs(20));
        sim.rebalance(vec![1, 8], SimDuration::ZERO).unwrap();
        assert_eq!(sim.allocation()[1], 8);
        assert!(!sim.is_paused());
    }

    #[test]
    fn shrinking_allocation_drains_gracefully() {
        let mut sim = chain_sim(20.0, 30.0, 6, 37);
        sim.run_for(SimDuration::from_secs(10));
        sim.rebalance(vec![1, 1], SimDuration::ZERO).unwrap();
        sim.run_for(SimDuration::from_secs(60));
        let bolt = sim.topology().operator_by_name("work").unwrap().id();
        // λ=20 < µ=30 so even one executor keeps up.
        assert!(sim.busy_executors(bolt) <= 1);
        assert!(sim.queue_len(bolt) < 20);
    }

    #[test]
    fn fanout_topology_tracks_full_processing() {
        // spout -> a (emits 3 to b) -> b; tree completes only after all
        // three b-tuples are served.
        let mut tb = TopologyBuilder::new();
        let spout = tb.spout("src");
        let a = tb.bolt("a");
        let b = tb.bolt("b");
        tb.edge(spout, a).unwrap();
        tb.edge_with(
            a,
            b,
            EdgeOptions {
                gain: 3.0,
                ..Default::default()
            },
        )
        .unwrap();
        let topo = tb.build().unwrap();
        let mut sim = SimulationBuilder::new(topo)
            .behavior(
                spout,
                OperatorBehavior::Spout {
                    interarrival: Distribution::exponential(10.0).unwrap(),
                },
            )
            .behavior(
                a,
                OperatorBehavior::Bolt {
                    service: Distribution::exponential(40.0).unwrap(),
                },
            )
            .behavior(
                b,
                OperatorBehavior::Bolt {
                    service: Distribution::exponential(40.0).unwrap(),
                },
            )
            .allocation(vec![1, 2, 2])
            .seed(41)
            .build()
            .unwrap();
        sim.run_for(SimDuration::from_secs(120));
        let w = sim.take_window();
        // b sees ~3x the external rate.
        let rate_b = w.operator_arrival_rate(b.index()).unwrap();
        assert!((rate_b - 30.0).abs() < 3.0, "rate_b = {rate_b}");
        // Sojourn must exceed a's sojourn alone: full processing waits for b.
        assert!(w.mean_sojourn().unwrap() > 1.0 / 40.0);
    }

    #[test]
    fn loop_topology_terminates_and_completes_trees() {
        // Detector-style self loop with gain 0.5.
        let mut tb = TopologyBuilder::new();
        let spout = tb.spout("src");
        let d = tb.bolt("detector");
        tb.edge(spout, d).unwrap();
        tb.edge_with(
            d,
            d,
            EdgeOptions {
                gain: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let topo = tb.build().unwrap();
        let mut sim = SimulationBuilder::new(topo)
            .behavior(
                spout,
                OperatorBehavior::Spout {
                    interarrival: Distribution::exponential(20.0).unwrap(),
                },
            )
            .behavior(
                d,
                OperatorBehavior::Bolt {
                    service: Distribution::exponential(100.0).unwrap(),
                },
            )
            .allocation(vec![1, 2])
            .seed(43)
            .build()
            .unwrap();
        sim.run_for(SimDuration::from_secs(120));
        let w = sim.take_window();
        // λ_detector = 20 / (1 - 0.5) = 40 by the traffic equations.
        let rate = w.operator_arrival_rate(d.index()).unwrap();
        assert!((rate - 40.0).abs() < 4.0, "detector rate = {rate}");
        // Trees complete despite the loop.
        assert!(sim.total_sojourn_stats().count() > 1000);
        assert!(sim.open_trees() < 50);
    }

    #[test]
    fn network_delay_inflates_sojourn_but_not_model_inputs() {
        // Same queueing parameters, 50 ms per-hop network delay: sojourn
        // grows by ~the delay while λ̂ and µ̂ stay unchanged.
        let build = |delay: f64, seed: u64| {
            let mut tb = TopologyBuilder::new();
            let spout = tb.spout("src");
            let a = tb.bolt("a");
            tb.edge_with(
                spout,
                a,
                EdgeOptions {
                    network_delay: delay,
                    ..Default::default()
                },
            )
            .unwrap();
            let topo = tb.build().unwrap();
            SimulationBuilder::new(topo)
                .behavior(
                    spout,
                    OperatorBehavior::Spout {
                        interarrival: Distribution::exponential(50.0).unwrap(),
                    },
                )
                .behavior(
                    a,
                    OperatorBehavior::Bolt {
                        service: Distribution::exponential(30.0).unwrap(),
                    },
                )
                .allocation(vec![1, 3])
                .seed(seed)
                .build()
                .unwrap()
        };
        let mut fast = build(0.0, 47);
        let mut slow = build(0.050, 47);
        fast.run_for(SimDuration::from_secs(200));
        slow.run_for(SimDuration::from_secs(200));
        let t_fast = fast.total_sojourn_stats().mean().unwrap();
        let t_slow = slow.total_sojourn_stats().mean().unwrap();
        assert!(
            (t_slow - t_fast - 0.050).abs() < 0.01,
            "Δ = {}",
            t_slow - t_fast
        );
    }

    #[test]
    fn spout_rate_change_takes_effect() {
        let mut sim = chain_sim(20.0, 50.0, 2, 53);
        sim.run_for(SimDuration::from_secs(60));
        let _ = sim.take_window();
        let spout = sim.topology().operator_by_name("src").unwrap().id();
        sim.set_spout_interarrival(spout, Distribution::exponential(80.0).unwrap())
            .unwrap();
        sim.run_for(SimDuration::from_secs(60));
        let w = sim.take_window();
        let rate = w.external_rate().unwrap();
        assert!((rate - 80.0).abs() < 8.0, "rate = {rate}");
    }

    #[test]
    fn bolt_service_change_takes_effect() {
        let mut sim = chain_sim(20.0, 50.0, 2, 59);
        let bolt = sim.topology().operator_by_name("work").unwrap().id();
        sim.run_for(SimDuration::from_secs(30));
        let _ = sim.take_window();
        sim.set_bolt_service(bolt, Distribution::exponential(25.0).unwrap())
            .unwrap();
        sim.run_for(SimDuration::from_secs(120));
        let w = sim.take_window();
        let mu = w.operator_service_rate(bolt.index()).unwrap();
        assert!((mu - 25.0).abs() < 2.5, "µ̂ = {mu}");
    }

    #[test]
    fn behavior_setters_reject_wrong_kind() {
        let mut sim = chain_sim(20.0, 50.0, 2, 61);
        let spout = sim.topology().operator_by_name("src").unwrap().id();
        let bolt = sim.topology().operator_by_name("work").unwrap().id();
        assert!(sim
            .set_spout_interarrival(bolt, Distribution::exponential(1.0).unwrap())
            .is_err());
        assert!(sim
            .set_bolt_service(spout, Distribution::exponential(1.0).unwrap())
            .is_err());
    }
}
