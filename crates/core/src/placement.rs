//! Machine-granular, resource-aware executor placement (R-Storm style).
//!
//! DRS (the paper) schedules executor *counts* `k = (k_1, …, k_N)`; real
//! clusters hand those executors out *on machines* with finite CPU, memory
//! and network budgets. This module closes that gap:
//!
//! * a [`MachinePool`] describes the machines — per-machine capacity
//!   vectors ([`drs_topology::ResourceProfile`] reused as the capacity
//!   type), shared across fleet shards;
//! * a [`PlacementRequest`] carries each operator's executor count, its
//!   per-executor resource demand, and the measured tuple rate on every
//!   edge (from `WindowSample`-derived rates);
//! * [`solve`] maps executors onto machines to minimise expected
//!   **cross-machine traffic** subject to per-machine capacity.
//!
//! # Objective
//!
//! Under shuffle grouping, an edge `u → v` carrying `r` tuples/s crosses
//! machines with probability `1 − Σ_m (c_u[m]/k_u)·(c_v[m]/k_v)` where
//! `c_i[m]` is the number of `i`-executors placed on machine `m`. The
//! solver minimises `Σ_edges r_e · crossprob_e` subject to
//! `Σ_i c_i[m] · profile_i ≤ capacity_m` componentwise on every machine.
//!
//! # Solvers
//!
//! [`solve`] dispatches between two strategies:
//!
//! * **exact branch-and-bound** — when the enumeration size
//!   `Π_i C(k_i+m−1, m−1)` is at most [`EXACT_LIMIT`]. Operators are placed
//!   in index order, each operator's per-machine counts enumerated in
//!   *ascending lexicographic order* (machine 0 count 0, 1, …), so the
//!   enumeration order is the tie-break order: the first optimum found is
//!   the lexicographically smallest, and a later placement replaces it
//!   only by being cheaper by more than `1e-9`. A partial placement's
//!   lower bound is the cost of the edges whose endpoints are both fully
//!   placed; its subtree is cut once that is within `1e-9` of the best
//!   cost. Each edge's co-location term is carried as the integer dot
//!   product `Σ_m c_from[m]·c_to[m]`, updated per placed executor
//!   (`+c_other[m]`, or `+2c−1` on a self-loop), so a node costs O(E)
//!   integer work: worst case `O(EXACT_LIMIT · E)`, no heap allocation.
//! * **greedy by resource distance** — R-Storm style: operators in
//!   descending order of adjacent traffic, each executor placed on the
//!   feasible machine with the highest co-location affinity to
//!   already-placed neighbours, ties broken by smallest resource distance
//!   (best fit), then lowest machine index.
//!
//! The exact solver equals a clone-per-leaf exhaustive search and never
//! loses to the greedy heuristic (proptests in
//! `tests/placement_properties.rs`); both always stay within capacity.
//!
//! # Representation
//!
//! A [`Placement`] is sparse: one buffer of `(op, machine, count)` cells,
//! sorted by `(op, machine)` and holding the non-zero counts only. An
//! operator's executors occupy at most as many machines as it has
//! executors, so a placement's size follows its executors, not the pool:
//! a fleet shard running six executors on a 10 000-machine pool holds at
//! most six cells, where a dense `counts[op][machine]` matrix would hold
//! 20 000 counts.
//!
//! The solvers still search on dense per-machine rows — both read and
//! write `counts[op][m]` for every machine they consider — but those rows
//! are scratch, reused from solve to solve. A finished solve compresses
//! its rows into the placement's cell buffer, which is sized to the
//! request's executor total (capped at `operators × machines`): that
//! bounds the number of cells, so a re-solve that keeps the executor
//! counts reuses the buffer without allocating. Skipping the zero cells
//! is exact: every sum over machines ([`Placement::usage`],
//! [`Placement::cross_probability`]) adds the same non-zero terms in the
//! same machine order, and a dropped term was a `+0.0`.
//!
//! # Fleet sharing
//!
//! [`plan`] places *several* topologies (fleet shards) into one shared
//! pool. Shards are processed in sorted-name order regardless of argument
//! order, so the outcome is deterministic across shard-advance orders.
//! It re-solves every shard from an empty pool — correct, but at 10⁵+
//! shards a settled window would pay full placement cost for zero demand
//! change. The fleet driver therefore plans through the warm-start state
//! below and uses [`plan`] only as the from-scratch reference.
//!
//! # Warm-start protocol ([`FleetPlacementState`])
//!
//! [`FleetPlacementState`] persists across windows what [`plan`] rebuilds
//! each call: every shard's cached [`PlacementRequest`] and solved
//! [`Placement`], the usage each placement charges per machine, and the
//! pool's **residual capacity**. Each shard carries a **placement epoch**
//! that the owner bumps (via [`FleetPlacementState::touch`]) only when the
//! shard's inputs actually changed — its allocation, its operator resource
//! loads, or (rate-banded by the caller, to absorb measurement wobble) its
//! edge traffic. The per-window protocol:
//!
//! 1. [`sync_pool`](FleetPlacementState::sync_pool) — a capacity change
//!    invalidates everything — after
//!    [`begin_window`](FleetPlacementState::begin_window) when the owner
//!    presents every shard this window (a *presence round*);
//! 2. per presented shard: look the slot up
//!    ([`slot_of`](FleetPlacementState::slot_of) /
//!    [`insert`](FleetPlacementState::insert)), compare the cached
//!    [`request`](FleetPlacementState::request) against this window's
//!    inputs, rewrite it in place via
//!    [`touch`](FleetPlacementState::touch) only on a real change, and
//!    [`mark_seen`](FleetPlacementState::mark_seen) it in a presence round;
//!    a shard that left is either not marked in a presence round or named
//!    with `remove`;
//! 3. [`replan`](FleetPlacementState::replan) — shards that left are
//!    swept out (their usage refunded to the residual), and then only
//!    **dirty** shards are re-placed: each one's stale usage is released
//!    delta-style and the shard re-solved via [`solve_into`] against the
//!    residual capacity, in sorted-name order. No fresh pool build, no
//!    untouched shard re-solved, and outside a presence round no walk of
//!    the live set; an unchanged fleet performs zero solver calls and zero
//!    heap allocations. `resolved` lists
//!    the slots it re-solved.
//!
//! The fleet driver presents every shard only on a full window and
//! otherwise just the shards whose inputs may have changed, so a drifting
//! window's placement phase costs what changed, not what exists.
//!
//! Sequential repair can stray from the batch greedy optimum (later
//! shards re-solve against capacity fragmented by earlier history), so
//! the state tracks a **drift score** — the fraction of the fleet
//! repaired or removed since the last batch solve. When it reaches 1.0,
//! `replan` runs a bounded full re-solve: residual reset to the full
//! capacities, every shard solved in sorted-name order — **bit-for-bit
//! what [`plan`] returns** for the same requests (the property tests in
//! `tests/placement_properties.rs` pin this, along with capacity safety
//! on every path). At churn fraction `c` this amortizes one batch solve
//! over ~`1/c` windows of O(changed shards) repairs.
//!
//! [`round_robin`] provides the locality-blind baseline the `repro place`
//! bench compares against: same executor counts, machines cycled.

use drs_topology::ResourceProfile;
use std::fmt;

/// Above this estimated enumeration size `Π_i C(k_i+m−1, m−1)`, [`solve`]
/// switches from the exact branch-and-bound (whose worst case visits every
/// one of those placements) to the greedy heuristic.
pub const EXACT_LIMIT: u64 = 50_000;

/// Slack tolerance for floating-point capacity comparisons.
const EPS: f64 = 1e-9;

/// One machine: a name and a capacity vector.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Human-readable machine name (unique within a pool by convention).
    pub name: String,
    /// Total resource capacity of this machine.
    pub capacity: ResourceProfile,
}

/// A set of machines with per-machine CPU/mem/network capacity, shared by
/// every shard of a fleet.
///
/// The pool itself is immutable during solving; remaining capacity is
/// tracked per [`solve`]/[`plan`] call so concurrent planners cannot
/// interfere.
#[derive(Debug, Clone, PartialEq)]
pub struct MachinePool {
    machines: Vec<MachineSpec>,
}

impl MachinePool {
    /// Creates a pool from explicit machine specs.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidPool`] if the pool is empty or any capacity
    /// component is negative/non-finite.
    pub fn new(machines: Vec<MachineSpec>) -> Result<Self, PlacementError> {
        if machines.is_empty() {
            return Err(PlacementError::InvalidPool {
                what: "pool has no machines".into(),
            });
        }
        for m in &machines {
            if !m.capacity.is_valid() {
                return Err(PlacementError::InvalidPool {
                    what: format!("machine {} has an invalid capacity vector", m.name),
                });
            }
        }
        Ok(MachinePool { machines })
    }

    /// A homogeneous pool of `count` machines named `m0, m1, …`, each with
    /// the same capacity.
    ///
    /// # Errors
    ///
    /// See [`MachinePool::new`].
    pub fn uniform(count: usize, capacity: ResourceProfile) -> Result<Self, PlacementError> {
        MachinePool::new(
            (0..count)
                .map(|i| MachineSpec {
                    name: format!("m{i}"),
                    capacity,
                })
                .collect(),
        )
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the pool is empty (never true for constructed pools).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The machine specs, in index order.
    pub fn machines(&self) -> &[MachineSpec] {
        &self.machines
    }

    fn capacities(&self) -> Vec<ResourceProfile> {
        self.machines.iter().map(|m| m.capacity).collect()
    }
}

/// One operator's placement inputs: how many executors it runs and what
/// each executor demands.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorLoad {
    /// Executor count `k_i` (model order — the caller decides which
    /// operators participate; spouts may be included with `k = 1`).
    pub executors: u32,
    /// Per-executor resource demand.
    pub profile: ResourceProfile,
}

/// Measured traffic on one operator edge, used as the cross-machine cost
/// weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeTraffic {
    /// Source operator index (into [`PlacementRequest::operators`]).
    pub from: usize,
    /// Destination operator index.
    pub to: usize,
    /// Measured tuple rate on this edge (tuples/s, from `WindowSample`
    /// arrival rates × gains).
    pub rate: f64,
}

/// Everything the solver needs for one topology: operator loads plus
/// rate-weighted edges.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlacementRequest {
    /// Operator loads, indexed by the operator indices used in `edges`.
    pub operators: Vec<OperatorLoad>,
    /// Rate-weighted edges between the operators.
    pub edges: Vec<EdgeTraffic>,
}

impl PlacementRequest {
    fn validate(&self, machines: usize) -> Result<(), PlacementError> {
        for (i, op) in self.operators.iter().enumerate() {
            if !op.profile.is_valid() {
                return Err(PlacementError::InvalidRequest {
                    what: format!("operator {i} has an invalid resource profile"),
                });
            }
        }
        for e in &self.edges {
            if e.from >= self.operators.len() || e.to >= self.operators.len() {
                return Err(PlacementError::InvalidRequest {
                    what: format!("edge {} -> {} references an unknown operator", e.from, e.to),
                });
            }
            if !e.rate.is_finite() || e.rate < 0.0 {
                return Err(PlacementError::InvalidRequest {
                    what: format!("edge {} -> {} has invalid rate {}", e.from, e.to, e.rate),
                });
            }
        }
        if machines == 0 {
            return Err(PlacementError::InvalidPool {
                what: "pool has no machines".into(),
            });
        }
        Ok(())
    }
}

/// One non-zero entry of a [`Placement`]: `count` executors of operator
/// `op` run on `machine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    op: u32,
    machine: u32,
    count: u32,
}

/// A machine assignment: how many executors of each operator run on each
/// machine. Produced by [`solve`]/[`plan`]/[`round_robin`]; carried by
/// `RebalancePlan` through the control plane.
///
/// Stored as cells (see the [module docs](self#representation)): the
/// non-zero `(op, machine, count)` entries sorted by `(op, machine)`,
/// plus the operator and machine counts. Its memory is O(executors)
/// whatever the pool's width. The cells are canonical, so `==` holds
/// exactly when two placements have the same dimensions and the same
/// count on every machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    cells: Vec<Cell>,
    operators: u32,
    machines: u32,
}

impl Placement {
    /// A placement of no operators on no machines.
    const fn empty() -> Self {
        Placement {
            cells: Vec::new(),
            operators: 0,
            machines: 0,
        }
    }

    /// Builds a placement from dense counts: `counts[op][machine]`
    /// executors of `op` run on `machine`. Only the non-zero counts are
    /// kept. Intended for tests and backends reconstructing state; solver
    /// output is always capacity-checked.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged (a row spans a different number of
    /// machines than row 0).
    pub fn from_counts(counts: Vec<Vec<u32>>) -> Self {
        let machines = counts.first().map_or(0, Vec::len);
        for (op, row) in counts.iter().enumerate() {
            assert!(
                row.len() == machines,
                "Placement::from_counts: ragged rows (row {op} spans {} machines, row 0 spans \
                 {machines})",
                row.len()
            );
        }
        let nonzero = counts.iter().flatten().filter(|&&c| c > 0).count();
        let mut placement = Placement::empty();
        placement.compress(&counts, machines, nonzero);
        placement
    }

    /// Rewrites this placement from dense rows `rows[op][machine]`, each
    /// `machines` long, reusing the cell buffer. `capacity` must bound
    /// the number of non-zero counts: the buffer grows to it once and
    /// then never allocates again for rows that fit.
    fn compress(&mut self, rows: &[Vec<u32>], machines: usize, capacity: usize) {
        let dim = |n: usize| u32::try_from(n).expect("placement dimension fits u32");
        self.operators = dim(rows.len());
        self.machines = dim(machines);
        self.cells.clear();
        self.cells.reserve_exact(capacity);
        for (op, row) in (0..).zip(rows) {
            for (machine, &count) in (0..).zip(row) {
                if count > 0 {
                    self.cells.push(Cell { op, machine, count });
                }
            }
        }
    }

    /// The cells of one operator, ascending by machine.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    fn row(&self, op: usize) -> &[Cell] {
        assert!(
            op < self.operators(),
            "operator {op} out of range for a placement of {} operators",
            self.operators
        );
        let op = op as u32;
        let start = self.cells.partition_point(|c| c.op < op);
        let len = self.cells[start..].partition_point(|c| c.op == op);
        &self.cells[start..start + len]
    }

    /// Executors of `op` on `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `op` or `machine` is out of range.
    pub fn count(&self, op: usize, machine: usize) -> u32 {
        assert!(
            machine < self.machines(),
            "machine {machine} out of range for a placement on {} machines",
            self.machines
        );
        let row = self.row(op);
        row.binary_search_by_key(&(machine as u32), |c| c.machine)
            .map_or(0, |at| row[at].count)
    }

    /// The machines running executors of `op`, ascending, as `(machine,
    /// count)` pairs; machines without one are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn counts_of(&self, op: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.row(op).iter().map(|c| (c.machine as usize, c.count))
    }

    /// Number of operators covered.
    pub fn operators(&self) -> usize {
        self.operators as usize
    }

    /// Number of machines covered (0 for an empty placement).
    pub fn machines(&self) -> usize {
        self.machines as usize
    }

    /// Total executors of one operator.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn executors_of(&self, op: usize) -> u32 {
        self.row(op).iter().map(|c| c.count).sum()
    }

    /// Per-operator totals, i.e. the allocation vector this placement
    /// realises.
    pub fn allocation(&self) -> Vec<u32> {
        let mut totals = vec![0; self.operators()];
        for c in &self.cells {
            totals[c.op as usize] += c.count;
        }
        totals
    }

    /// Whether this placement realises exactly `allocation` — the
    /// allocation-free form of `placement.allocation() == allocation`,
    /// for comparisons on the steady-state fleet path.
    pub fn allocation_matches(&self, allocation: &[u32]) -> bool {
        self.operators() == allocation.len()
            && (0..)
                .zip(allocation)
                .all(|(op, &k)| self.executors_of(op) == k)
    }

    /// Resource usage per machine given the operators' demand profiles.
    pub fn usage(&self, profiles: &[ResourceProfile]) -> Vec<ResourceProfile> {
        let mut usage = vec![ResourceProfile::uniform(0.0); self.machines()];
        for c in &self.cells {
            accumulate(
                &mut usage[c.machine as usize],
                c.count,
                &profiles[c.op as usize],
            );
        }
        usage
    }

    /// Probability that a tuple on edge `from → to` crosses machines under
    /// shuffle grouping: `1 − Σ_m (c_from[m]/k_from)·(c_to[m]/k_to)`.
    ///
    /// Edges touching an operator with zero executors contribute 0.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is out of range.
    pub fn cross_probability(&self, from: usize, to: usize) -> f64 {
        let kf = self.executors_of(from) as f64;
        let kt = self.executors_of(to) as f64;
        if kf == 0.0 || kt == 0.0 {
            return 0.0;
        }
        // A merge of the two rows: the machines both operators use,
        // ascending, which is where every non-zero term of the sum lies.
        let mut colocated = 0.0;
        let mut to_cells = self.row(to).iter().peekable();
        for f in self.row(from) {
            while to_cells.next_if(|t| t.machine < f.machine).is_some() {}
            if let Some(t) = to_cells.next_if(|t| t.machine == f.machine) {
                colocated += (f.count as f64 / kf) * (t.count as f64 / kt);
            }
        }
        (1.0 - colocated).max(0.0)
    }

    /// Expected cross-machine tuple rate: `Σ_e rate_e · crossprob_e`.
    pub fn cross_rate(&self, edges: &[EdgeTraffic]) -> f64 {
        edges
            .iter()
            .map(|e| e.rate * self.cross_probability(e.from, e.to))
            .sum()
    }

    /// Expected fraction of edge traffic that crosses machines (0 when the
    /// edges carry no traffic).
    pub fn cross_fraction(&self, edges: &[EdgeTraffic]) -> f64 {
        let total: f64 = edges.iter().map(|e| e.rate).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.cross_rate(edges) / total
    }
}

/// Errors produced by the placement solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The machine pool was empty or carried invalid capacities.
    InvalidPool {
        /// Description of the problem.
        what: String,
    },
    /// The request referenced unknown operators or invalid rates/profiles.
    InvalidRequest {
        /// Description of the problem.
        what: String,
    },
    /// No machine had room for one more executor of `op` — the demand does
    /// not fit the pool.
    Infeasible {
        /// Operator index that could not be placed.
        op: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InvalidPool { what } => write!(f, "invalid machine pool: {what}"),
            PlacementError::InvalidRequest { what } => {
                write!(f, "invalid placement request: {what}")
            }
            PlacementError::Infeasible { op } => {
                write!(f, "no machine has capacity for operator {op}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

fn fits(remaining: &ResourceProfile, demand: &ResourceProfile) -> bool {
    remaining.cpu + EPS >= demand.cpu
        && remaining.mem + EPS >= demand.mem
        && remaining.net + EPS >= demand.net
}

fn charge(remaining: &mut ResourceProfile, demand: &ResourceProfile) {
    remaining.cpu -= demand.cpu;
    remaining.mem -= demand.mem;
    remaining.net -= demand.net;
}

fn refund(remaining: &mut ResourceProfile, demand: &ResourceProfile) {
    remaining.cpu += demand.cpu;
    remaining.mem += demand.mem;
    remaining.net += demand.net;
}

/// Adds what `count` executors of demand `profile` use to `used`.
fn accumulate(used: &mut ResourceProfile, count: u32, profile: &ResourceProfile) {
    let c = f64::from(count);
    used.cpu += c * profile.cpu;
    used.mem += c * profile.mem;
    used.net += c * profile.net;
}

/// R-Storm's resource distance: Euclidean distance between what the
/// executor demands and what the machine still has. Smaller = tighter fit.
fn resource_distance(remaining: &ResourceProfile, demand: &ResourceProfile) -> f64 {
    let d = |r: f64, w: f64| (r - w) * (r - w);
    (d(remaining.cpu, demand.cpu) + d(remaining.mem, demand.mem) + d(remaining.net, demand.net))
        .sqrt()
}

/// Places one topology into the pool, minimising cross-machine traffic.
///
/// Dispatches to the exact branch-and-bound when the instance is small
/// (see [`EXACT_LIMIT`]) and to the greedy heuristic otherwise. Both
/// respect per-machine capacity exactly; both are deterministic.
///
/// # Errors
///
/// [`PlacementError::Infeasible`] when the executors do not fit,
/// [`PlacementError::InvalidRequest`]/[`PlacementError::InvalidPool`] for
/// malformed inputs.
pub fn solve(pool: &MachinePool, request: &PlacementRequest) -> Result<Placement, PlacementError> {
    let mut remaining = pool.capacities();
    solve_into(&mut remaining, request)
}

/// Like [`solve`], but draws from (and updates) externally tracked
/// remaining capacities — the building block [`plan`] and
/// [`FleetPlacementState`] use to share one pool across shards.
///
/// # Errors
///
/// Same conditions as [`solve`]; `remaining.len() == 0` reports
/// [`PlacementError::InvalidPool`]. On any `Err`, `remaining` is left
/// exactly as it was passed, bit for bit — nothing stays charged for the
/// executors a failed solve had already placed.
pub fn solve_into(
    remaining: &mut [ResourceProfile],
    request: &PlacementRequest,
) -> Result<Placement, PlacementError> {
    solve_fresh(remaining, request, EXACT_LIMIT)
}

/// [`solve_rows`] into a fresh [`Placement`] with throw-away scratch.
fn solve_fresh(
    remaining: &mut [ResourceProfile],
    request: &PlacementRequest,
    exact_limit: u64,
) -> Result<Placement, PlacementError> {
    let mut placement = Placement::empty();
    let mut scratch = SolveScratch::default();
    solve_rows(
        remaining,
        request,
        &mut placement,
        &mut scratch,
        exact_limit,
    )?;
    Ok(placement)
}

/// Solver working memory, reused across solves so the warm fleet path
/// allocates nothing per shard.
#[derive(Debug, Clone, Default)]
struct SolveScratch {
    /// The dense assignment under construction, `rows[op][machine]`: the
    /// solvers search on it, and a finished solve compresses it into the
    /// caller's [`Placement`].
    rows: Vec<Vec<u32>>,
    kernel: KernelScratch,
}

/// The solvers' search state besides the dense rows.
#[derive(Debug, Clone, Default)]
struct KernelScratch {
    /// Exact: per edge, `Σ_m c_from[m]·c_to[m]` of the partial placement.
    dots: Vec<u64>,
    /// Exact: the machine of every executor placed so far, in placement
    /// order, and the same for the best placement found.
    path: Vec<usize>,
    best_path: Vec<usize>,
    /// Greedy: adjacent traffic per operator and the placement order.
    traffic: Vec<f64>,
    order: Vec<usize>,
    /// Greedy: the adjacent edges of the operator being placed.
    adjacent: Vec<(usize, f64, f64)>,
    /// Greedy: `(machine, capacity before the charge)` per placed
    /// executor, replayed backwards to undo a failed solve exactly.
    undo: Vec<(usize, ResourceProfile)>,
}

/// [`solve_into`] writing the assignment into a caller-owned placement
/// (its cell buffer reused) with caller-owned scratch; instances up to
/// `exact_limit` placements are solved exactly. On `Err` `out` is left
/// as it was.
fn solve_rows(
    remaining: &mut [ResourceProfile],
    request: &PlacementRequest,
    out: &mut Placement,
    scratch: &mut SolveScratch,
    exact_limit: u64,
) -> Result<(), PlacementError> {
    request.validate(remaining.len())?;
    let (operators, machines) = (request.operators.len(), remaining.len());
    let SolveScratch { rows, kernel } = scratch;
    rows.resize_with(operators, Vec::new);
    for row in rows.iter_mut() {
        row.clear();
        row.resize(machines, 0);
    }
    if enumeration_size(request, machines) <= exact_limit {
        oracle_into(remaining, request, rows, kernel)?;
    } else {
        greedy_into(remaining, request, rows, kernel)?;
    }
    // Each executor fills at most one cell.
    let executors: usize = request.operators.iter().map(|o| o.executors as usize).sum();
    out.compress(rows, machines, executors.min(operators * machines));
    Ok(())
}

/// Estimated exhaustive-search size: `Π_i C(k_i+m−1, m−1)`, saturating.
fn enumeration_size(request: &PlacementRequest, machines: usize) -> u64 {
    let mut size: u64 = 1;
    for op in &request.operators {
        let comps = compositions_count(op.executors as u64, machines as u64);
        size = size.saturating_mul(comps);
        if size > EXACT_LIMIT {
            return u64::MAX;
        }
    }
    size
}

/// `C(k+m−1, m−1)`: number of ways to split `k` identical executors over
/// `m` machines. Saturating.
fn compositions_count(k: u64, m: u64) -> u64 {
    let n = k + m - 1;
    let r = (m - 1).min(k);
    let mut acc: u64 = 1;
    for i in 0..r {
        acc = acc.saturating_mul(n - i) / (i + 1);
        if acc > EXACT_LIMIT {
            return u64::MAX;
        }
    }
    acc
}

/// Greedy solver: operators in descending adjacent-traffic order; each
/// executor goes to the feasible machine with the best
/// (affinity, −resource distance, −index) score. `counts` arrives zeroed.
fn greedy_into(
    remaining: &mut [ResourceProfile],
    request: &PlacementRequest,
    counts: &mut [Vec<u32>],
    scratch: &mut KernelScratch,
) -> Result<(), PlacementError> {
    let n = request.operators.len();
    let KernelScratch {
        traffic,
        order,
        adjacent,
        undo,
        ..
    } = scratch;

    // Adjacent traffic per operator decides placement order: the heaviest
    // communicators choose machines first, so their neighbours can follow.
    traffic.clear();
    traffic.resize(n, 0.0);
    for e in &request.edges {
        traffic[e.from] += e.rate;
        traffic[e.to] += e.rate;
    }
    order.clear();
    order.extend(0..n);
    // Unstable is deterministic here (every key ends in the unique index)
    // and, unlike the stable sort, allocates no merge buffer.
    order.sort_unstable_by(|&a, &b| {
        traffic[b]
            .partial_cmp(&traffic[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    undo.clear();
    for &op in order.iter() {
        let load = &request.operators[op];
        // The operator's adjacent edges, in edge order: `(neighbour, rate,
        // neighbour's executor count)`. A self-loop lists the operator as
        // its own neighbour, once.
        adjacent.clear();
        adjacent.extend(request.edges.iter().filter_map(|e| {
            let other = if e.from == op {
                e.to
            } else if e.to == op {
                e.from
            } else {
                return None;
            };
            let k_other = request.operators[other].executors.max(1) as f64;
            Some((other, e.rate, k_other))
        }));
        for _ in 0..load.executors {
            let mut best: Option<(f64, f64, usize)> = None; // (affinity, dist, machine)
            for (m, rem) in remaining.iter().enumerate() {
                if !fits(rem, &load.profile) {
                    continue;
                }
                // Affinity: traffic to executors already sitting on m,
                // normalised by the neighbour's executor count so one
                // co-located neighbour executor is worth rate/k.
                let mut affinity = 0.0;
                for &(other, rate, k_other) in adjacent.iter() {
                    affinity += rate * counts[other][m] as f64 / k_other;
                }
                // The resource distance only breaks affinity ties: a
                // machine that loses on affinity never pays its square root.
                let dist = match &best {
                    None => resource_distance(rem, &load.profile),
                    Some((ba, _, _)) if affinity > ba + EPS => {
                        resource_distance(rem, &load.profile)
                    }
                    Some((ba, bd, _)) if (affinity - ba).abs() <= EPS => {
                        let dist = resource_distance(rem, &load.profile);
                        if dist < bd - EPS {
                            dist
                        } else {
                            continue;
                        }
                    }
                    Some(_) => continue,
                };
                best = Some((affinity, dist, m));
            }
            let Some((_, _, m)) = best else {
                for &(m, before) in undo.iter().rev() {
                    remaining[m] = before;
                }
                return Err(PlacementError::Infeasible { op });
            };
            counts[op][m] += 1;
            undo.push((m, remaining[m]));
            charge(&mut remaining[m], &load.profile);
        }
    }
    Ok(())
}

/// Exact solver: branch-and-bound over the operators in index order, each
/// operator's per-machine counts in ascending lexicographic order, so the
/// first optimum found is the lexicographically smallest (see the module
/// docs). `counts` arrives zeroed; `remaining` is charged for the winner
/// and untouched on `Err`.
fn oracle_into(
    remaining: &mut [ResourceProfile],
    request: &PlacementRequest,
    counts: &mut [Vec<u32>],
    scratch: &mut KernelScratch,
) -> Result<(), PlacementError> {
    scratch.dots.clear();
    scratch.dots.resize(request.edges.len(), 0);
    scratch.path.clear();
    let mut search = ExactSearch {
        request,
        remaining,
        counts,
        scratch,
        best: None,
    };
    search.place(0, 0, 0, 0.0);
    if search.best.is_none() {
        // Report the first operator that cannot fit anywhere as the
        // infeasible one (operator 0 if even it has no machine).
        let op = request
            .operators
            .iter()
            .position(|load| {
                load.executors > 0 && !remaining.iter().any(|r| fits(r, &load.profile))
            })
            .unwrap_or(0);
        return Err(PlacementError::Infeasible { op });
    }
    // Commit the winner (operator by operator, machines ascending) so
    // fleet-shared solving stays consistent.
    let mut machines = scratch.best_path.iter();
    for (op, load) in request.operators.iter().enumerate() {
        for &m in machines.by_ref().take(load.executors as usize) {
            counts[op][m] += 1;
            charge(&mut remaining[m], &load.profile);
        }
    }
    Ok(())
}

/// The state of one [`oracle_into`] search. `counts` and `remaining`
/// reflect the partial placement `path` and are restored exactly on the
/// way back up.
struct ExactSearch<'a> {
    request: &'a PlacementRequest,
    remaining: &'a mut [ResourceProfile],
    counts: &'a mut [Vec<u32>],
    scratch: &'a mut KernelScratch,
    /// Cost of `scratch.best_path`; `None` until a full placement is found.
    best: Option<f64>,
}

impl ExactSearch<'_> {
    /// Whether a subtree whose placed edges already cost `bound` can be
    /// skipped: it cannot beat the best cost by more than `EPS`.
    fn cut(&self, bound: f64) -> bool {
        self.best.is_some_and(|best| bound >= best - EPS)
    }

    /// What placing one more `op`-executor on machine `m` adds to edge
    /// `e`'s dot product (`counts[op][m]` already counts that executor).
    fn dot_step(&self, e: &EdgeTraffic, op: usize, m: usize) -> u64 {
        match (e.from == op, e.to == op) {
            (true, true) => 2 * u64::from(self.counts[op][m]) - 1,
            (true, false) => u64::from(self.counts[e.to][m]),
            (false, true) => u64::from(self.counts[e.from][m]),
            (false, false) => 0,
        }
    }

    /// Places executor `exec` of operator `op` on every feasible machine
    /// from the last one down to `min_machine` (an operator's executors
    /// take non-decreasing machines, which enumerates its per-machine
    /// counts in ascending lexicographic order), then recurses. `bound`
    /// is the cost of the edges among operators `< op`.
    fn place(&mut self, op: usize, exec: u32, min_machine: usize, mut bound: f64) {
        if self.cut(bound) {
            return;
        }
        let request = self.request;
        let Some(load) = request.operators.get(op) else {
            self.best = Some(bound);
            self.scratch.best_path.clone_from(&self.scratch.path);
            return;
        };
        if exec == load.executors {
            // Edges whose later endpoint is `op` are now fully placed.
            let k = |i: usize| f64::from(request.operators[i].executors);
            for (e, &dot) in request.edges.iter().zip(&self.scratch.dots) {
                if e.from.max(e.to) == op && k(e.from) * k(e.to) > 0.0 {
                    bound += e.rate * (1.0 - dot as f64 / (k(e.from) * k(e.to))).max(0.0);
                }
            }
            return self.place(op + 1, 0, 0, bound);
        }
        for m in (min_machine..self.remaining.len()).rev() {
            if !fits(&self.remaining[m], &load.profile) {
                continue;
            }
            let before = self.remaining[m];
            charge(&mut self.remaining[m], &load.profile);
            self.counts[op][m] += 1;
            self.scratch.path.push(m);
            for (i, e) in request.edges.iter().enumerate() {
                self.scratch.dots[i] += self.dot_step(e, op, m);
            }
            self.place(op, exec + 1, m, bound);
            for (i, e) in request.edges.iter().enumerate() {
                self.scratch.dots[i] -= self.dot_step(e, op, m);
            }
            self.scratch.path.pop();
            self.counts[op][m] -= 1;
            self.remaining[m] = before;
            if self.cut(bound) {
                return;
            }
        }
    }
}

/// The greedy heuristic on its own, regardless of instance size. Mainly
/// for tests and benchmarks comparing it against [`oracle`].
///
/// # Errors
///
/// Same conditions as [`solve`].
pub fn greedy(pool: &MachinePool, request: &PlacementRequest) -> Result<Placement, PlacementError> {
    solve_fresh(&mut pool.capacities(), request, 0)
}

/// The exact branch-and-bound on its own, regardless of instance size.
/// Worst case `O(Π_i C(k_i+m−1, m−1) · E)` — only call on small
/// instances (guard with [`EXACT_LIMIT`]-sized problems).
///
/// # Errors
///
/// Same conditions as [`solve`].
pub fn oracle(pool: &MachinePool, request: &PlacementRequest) -> Result<Placement, PlacementError> {
    solve_fresh(&mut pool.capacities(), request, u64::MAX)
}

/// Round-robin baseline: executors cycled over machines, skipping machines
/// without capacity. Locality-blind by construction — the control the
/// `repro place` bench compares [`solve`] against.
///
/// # Errors
///
/// Same conditions as [`solve`].
pub fn round_robin(
    pool: &MachinePool,
    request: &PlacementRequest,
) -> Result<Placement, PlacementError> {
    request.validate(pool.len())?;
    let machines = pool.len();
    let mut remaining = pool.capacities();
    let mut counts = vec![vec![0u32; machines]; request.operators.len()];
    let mut cursor = 0usize;
    for (op, load) in request.operators.iter().enumerate() {
        for _ in 0..load.executors {
            let mut placed = false;
            for probe in 0..machines {
                let m = (cursor + probe) % machines;
                if fits(&remaining[m], &load.profile) {
                    counts[op][m] += 1;
                    charge(&mut remaining[m], &load.profile);
                    cursor = (m + 1) % machines;
                    placed = true;
                    break;
                }
            }
            if !placed {
                return Err(PlacementError::Infeasible { op });
            }
        }
    }
    Ok(Placement::from_counts(counts))
}

/// Places several shards into one shared pool.
///
/// Shards are solved in sorted-`name` order (ties by argument index are
/// impossible for unique names; duplicate names fall back to argument
/// order), each drawing down the same remaining capacity, so the result is
/// independent of the order shards advanced or reported. Returns
/// placements aligned with the *argument* order.
///
/// # Errors
///
/// Fails with the first shard (in sorted order) whose executors do not
/// fit in what the earlier shards left behind.
pub fn plan(
    pool: &MachinePool,
    shards: &[(String, PlacementRequest)],
) -> Result<Vec<Placement>, PlacementError> {
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by(|&a, &b| shards[a].0.cmp(&shards[b].0).then(a.cmp(&b)));
    let mut remaining = pool.capacities();
    let mut scratch = SolveScratch::default();
    let mut out: Vec<Option<Placement>> = vec![None; shards.len()];
    for &i in &order {
        let (_, request) = &shards[i];
        let mut placement = Placement::empty();
        solve_rows(
            &mut remaining,
            request,
            &mut placement,
            &mut scratch,
            EXACT_LIMIT,
        )?;
        out[i] = Some(placement);
    }
    Ok(out
        .into_iter()
        .map(|p| p.expect("all shards solved"))
        .collect())
}

/// Outcome of one [`FleetPlacementState::replan`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanOutcome {
    /// Nothing was dirty, removed, or invalidated: every cached placement
    /// stands and no solver call was made.
    Unchanged,
    /// Only the dirty shards (count attached) were re-solved against the
    /// residual capacity; everything else kept its cached placement.
    Repaired(usize),
    /// Accumulated drift, a pool change, or an explicit invalidation
    /// triggered a batch re-solve of every shard from the full capacities
    /// — bit-for-bit what [`plan`] returns for the same requests.
    FullSolve,
}

/// One shard's warm placement state (see [`FleetPlacementState`]).
/// Entries live at stable slot indices; a removed shard's slot is
/// tombstoned and recycled so surviving slots never shift.
#[derive(Debug, Clone)]
struct WarmEntry {
    name: String,
    live: bool,
    /// Placement epoch: bumped by [`FleetPlacementState::touch`] exactly
    /// when the shard's placement inputs actually changed.
    epoch: u64,
    /// Window stamp of the last [`FleetPlacementState::mark_seen`].
    seen: u64,
    /// [`FleetPlacementState::remove`] was called: the next replan
    /// refunds and tombstones the slot.
    leaving: bool,
    /// Queued for re-solving: the slot sits in `FleetPlacementState::dirty`.
    dirty: bool,
    /// The cached placement inputs (buffers rewritten in place on change).
    request: PlacementRequest,
    /// The solved assignment for `request` (cells re-solved in place).
    placement: Placement,
    /// Which solve produced `placement`: the state's `solver_calls` count
    /// right after it, so no two solves ever share an id (0: never solved).
    solve_id: u64,
    /// What `placement` charges each machine it touches, as `(machine,
    /// usage)` — recorded at solve time, so the refund stays correct even
    /// after `request` is rewritten.
    usage: Vec<(usize, ResourceProfile)>,
}

/// Warm-start fleet placement: the epoch-stamped, residual-capacity cache
/// the fleet driver persists across windows so a settled window performs
/// zero solver calls and a drifting one re-places only the shards that
/// changed. See the [module docs](self) for the per-window protocol and
/// the drift-bounded full re-solve that keeps sequential repair honest
/// against the batch optimum.
///
/// **Removal.** A shard leaves in one of two ways, and both are refunded
/// by the next [`replan`](FleetPlacementState::replan) in sorted-name
/// order before any repair: it is not marked seen in a *presence round*
/// (opened by [`begin_window`](FleetPlacementState::begin_window), which
/// makes `replan` sweep every live slot once), or its owner names it with
/// `remove`. An owner that presents only
/// the shards whose inputs changed skips `begin_window` and removes
/// departures explicitly; presence then stands from window to window, and
/// a window with no departure never walks the live set.
///
/// **Repair.** [`insert`](FleetPlacementState::insert) and
/// [`touch`](FleetPlacementState::touch) queue a slot once on a dirty
/// list. `replan` sorts that list into sorted-name order (by each slot's
/// position in the live set, re-indexed only after the set changed),
/// releases every queued slot's usage, then re-solves the queued slots in
/// that order: its cost follows the dirty shards, not the fleet.
/// `resolved` then names the slots that
/// were re-solved, so the owner can visit exactly those.
#[derive(Debug, Clone, Default)]
pub struct FleetPlacementState {
    entries: Vec<WarmEntry>,
    /// Live slots in sorted-name order — the solve order, identical to
    /// [`plan`]'s.
    order: Vec<usize>,
    /// Each live slot's position in `order` (indexed by slot); stale while
    /// `ranks_stale`.
    rank: Vec<u32>,
    /// `order` changed since `rank` was last derived.
    ranks_stale: bool,
    /// Tombstoned slots available for reuse.
    free: Vec<usize>,
    /// Slots queued for re-solving, each once (its entry's `dirty` flag).
    dirty: Vec<usize>,
    /// The slots the last `replan` re-solved, in sorted-name order.
    resolved: Vec<usize>,
    /// A presence round is open: `replan` sweeps out every live slot not
    /// marked seen since [`FleetPlacementState::begin_window`].
    sweeping: bool,
    /// Slots named by [`FleetPlacementState::remove`] since the last replan.
    leaving: usize,
    /// The pool's full capacities, snapshotted by
    /// [`FleetPlacementState::sync_pool`].
    capacities: Vec<ResourceProfile>,
    /// Residual capacity: `capacities` minus every live entry's `usage`.
    remaining: Vec<ResourceProfile>,
    /// Fraction of the fleet repaired or removed since the last batch
    /// solve; `>= 1.0` triggers one.
    drift: f64,
    /// Window stamp (bumped by [`FleetPlacementState::begin_window`]).
    stamp: u64,
    seen_count: usize,
    /// Sticky full-solve request: set by pool changes, repair dead ends,
    /// solver errors, and [`FleetPlacementState::invalidate`]; cleared
    /// only by a completed batch solve.
    needs_full: bool,
    solver_calls: u64,
    full_solves: u64,
    scratch: SolveScratch,
}

impl FleetPlacementState {
    /// An empty warm state (no shards, no pool snapshot).
    pub fn new() -> Self {
        FleetPlacementState::default()
    }

    /// Opens a presence round: bumps the stamp that
    /// [`mark_seen`](FleetPlacementState::mark_seen) records, so the next
    /// [`replan`](FleetPlacementState::replan) sweeps out every shard that
    /// was not presented since. Without it presence stands, and shards
    /// leave only through `remove`.
    pub fn begin_window(&mut self) {
        self.stamp += 1;
        self.seen_count = 0;
        self.sweeping = true;
    }

    /// Adopts `pool`'s capacities. A change (count or any capacity
    /// component) invalidates every cached placement — the next
    /// [`replan`](FleetPlacementState::replan) runs a full re-solve.
    /// Allocation-free when the pool is unchanged.
    pub fn sync_pool(&mut self, pool: &MachinePool) {
        let same = self.capacities.len() == pool.machines().len()
            && self
                .capacities
                .iter()
                .zip(pool.machines())
                .all(|(c, m)| *c == m.capacity);
        if !same {
            self.capacities.clear();
            self.capacities
                .extend(pool.machines().iter().map(|m| m.capacity));
            self.needs_full = true;
        }
    }

    /// Number of live shards in the state.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the state holds no live shards.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The slot of the shard named `name`, if present (binary search over
    /// the sorted live set; allocation-free).
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.order
            .binary_search_by(|&s| self.entries[s].name.as_str().cmp(name))
            .ok()
            .map(|pos| self.order[pos])
    }

    /// The name of the shard at `slot` (for validating a cached slot
    /// across churn without a lookup).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub(crate) fn slot_name(&self, slot: usize) -> &str {
        &self.entries[slot].name
    }

    /// Inserts a shard named `name` (or returns its existing slot, which
    /// cancels a pending `remove`),
    /// recycling a tombstoned slot when one is free. A new shard starts
    /// dirty with an empty request — the caller fills it via
    /// [`touch`](FleetPlacementState::touch). Slot indices of existing
    /// shards are never disturbed.
    pub fn insert(&mut self, name: &str) -> usize {
        let pos = match self
            .order
            .binary_search_by(|&s| self.entries[s].name.as_str().cmp(name))
        {
            Ok(pos) => {
                let slot = self.order[pos];
                let e = &mut self.entries[slot];
                if e.leaving {
                    e.leaving = false;
                    self.leaving -= 1;
                }
                return slot;
            }
            Err(pos) => pos,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                let e = &mut self.entries[slot];
                e.name.clear();
                e.name.push_str(name);
                e.live = true;
                e.epoch = 0;
                e.seen = 0;
                e.leaving = false;
                e.dirty = true;
                e.request.operators.clear();
                e.request.edges.clear();
                e.solve_id = 0;
                e.usage.clear();
                slot
            }
            None => {
                self.entries.push(WarmEntry {
                    name: name.to_owned(),
                    live: true,
                    epoch: 0,
                    seen: 0,
                    leaving: false,
                    dirty: true,
                    request: PlacementRequest::default(),
                    placement: Placement::empty(),
                    solve_id: 0,
                    usage: Vec::new(),
                });
                self.entries.len() - 1
            }
        };
        self.dirty.push(slot);
        self.order.insert(pos, slot);
        self.ranks_stale = true;
        slot
    }

    /// Takes the shard at `slot` out of the fleet: the next
    /// [`replan`](FleetPlacementState::replan) refunds its usage and
    /// tombstones the slot, exactly as a presence round sweeps a shard
    /// that was not marked seen. A no-op on a tombstoned slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub(crate) fn remove(&mut self, slot: usize) {
        let e = &mut self.entries[slot];
        if e.live && !e.leaving {
            e.leaving = true;
            self.leaving += 1;
        }
    }

    /// Marks the shard at `slot` as presented this window, shielding it
    /// from [`replan`](FleetPlacementState::replan)'s removal sweep.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn mark_seen(&mut self, slot: usize) {
        let e = &mut self.entries[slot];
        if e.seen != self.stamp {
            e.seen = self.stamp;
            self.seen_count += 1;
        }
    }

    /// The cached placement inputs of the shard at `slot` — compare this
    /// window's inputs against it and call
    /// [`touch`](FleetPlacementState::touch) only on a real change.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn request(&self, slot: usize) -> &PlacementRequest {
        &self.entries[slot].request
    }

    /// Declares the shard at `slot` changed: bumps its placement epoch,
    /// marks it dirty for the next [`replan`](FleetPlacementState::replan),
    /// and hands back the cached request buffers to rewrite in place.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn touch(&mut self, slot: usize) -> &mut PlacementRequest {
        let e = &mut self.entries[slot];
        if !e.dirty {
            e.dirty = true;
            self.dirty.push(slot);
        }
        e.epoch += 1;
        &mut e.request
    }

    /// The shard's placement epoch: bumped by
    /// [`touch`](FleetPlacementState::touch) exactly when its placement
    /// inputs actually changed.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn epoch(&self, slot: usize) -> u64 {
        self.entries[slot].epoch
    }

    /// The solved assignment of the shard at `slot`, valid after the last
    /// successful [`replan`](FleetPlacementState::replan).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn placement(&self, slot: usize) -> &Placement {
        &self.entries[slot].placement
    }

    /// Identifies the solve that produced the placement at `slot`: each
    /// (re-)solve stamps its entry with an id never reused within this
    /// state, so an owner that remembers the id it put in force knows in
    /// O(1) that [`placement`](FleetPlacementState::placement) still is
    /// that assignment. A new id says only that the shard was re-solved —
    /// possibly to the same assignment. `0` before the first solve.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn solve_id(&self, slot: usize) -> u64 {
        self.entries[slot].solve_id
    }

    /// Forces the next [`replan`](FleetPlacementState::replan) to run the
    /// batch re-solve regardless of drift (the from-scratch cross-check
    /// hook, also useful after external state surgery).
    pub fn invalidate(&mut self) {
        self.needs_full = true;
    }

    /// Total [`solve_into`] invocations so far (one per shard actually
    /// re-placed — the "unchanged fleet performs zero solver calls"
    /// regression counter).
    pub fn solver_calls(&self) -> u64 {
        self.solver_calls
    }

    /// Batch re-solves performed so far.
    pub fn full_solves(&self) -> u64 {
        self.full_solves
    }

    /// The current drift score: fraction of the fleet repaired or removed
    /// since the last batch solve (`0.0` right after one).
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// The residual capacity per machine (capacities minus every live
    /// shard's solved usage).
    pub fn remaining(&self) -> &[ResourceProfile] {
        &self.remaining
    }

    /// Ends the window: refunds and tombstones the shards that left — those
    /// `remove`d, and, when a presence round
    /// is open, those not [`mark_seen`](FleetPlacementState::mark_seen)
    /// since [`begin_window`](FleetPlacementState::begin_window) — then
    /// re-places exactly the dirty shards against the residual capacity —
    /// or the whole fleet, batch-style, when the pool changed, drift
    /// reached 1.0, or a repair hit a dead end the batch solver might
    /// escape. Sorted-name solve order on both paths keeps the outcome
    /// independent of presentation order; the slots it re-solved are then
    /// listed by `resolved`.
    ///
    /// On [`ReplanOutcome::Unchanged`] the call performs no solver work
    /// and no heap allocation.
    ///
    /// # Errors
    ///
    /// Any [`PlacementError`] from the underlying solver. After an error
    /// the cached placements are not trusted (the caller should plan no
    /// moves this window); the state heals itself by batch re-solving on
    /// the next call.
    pub fn replan(&mut self) -> Result<ReplanOutcome, PlacementError> {
        // Removals: refund every leaving entry's usage and tombstone its
        // slot, in sorted-name order. Only a window with a departure (or an
        // open presence round missing a shard) walks the live set.
        let sweep = std::mem::take(&mut self.sweeping) && self.seen_count < self.order.len();
        let mut removed = 0usize;
        if sweep || self.leaving > 0 {
            let FleetPlacementState {
                entries,
                order,
                free,
                remaining,
                stamp,
                ..
            } = self;
            order.retain(|&slot| {
                let e = &mut entries[slot];
                if !e.leaving && (!sweep || e.seen == *stamp) {
                    return true;
                }
                for (m, u) in e.usage.drain(..) {
                    refund(&mut remaining[m], &u);
                }
                e.live = false;
                e.leaving = false;
                e.dirty = false;
                free.push(slot);
                removed += 1;
                false
            });
            self.leaving = 0;
            self.ranks_stale = true;
        }
        self.resolved.clear();
        {
            let entries = &self.entries;
            self.dirty.retain(|&slot| entries[slot].dirty);
        }
        if removed == 0 && self.dirty.is_empty() && !self.needs_full {
            return Ok(ReplanOutcome::Unchanged);
        }
        self.drift += (self.dirty.len() + removed) as f64 / self.order.len().max(1) as f64;
        if self.needs_full || self.drift >= 1.0 {
            self.full_solve()?;
            return Ok(ReplanOutcome::FullSolve);
        }
        // Repair: release every dirty shard's stale usage first (so one
        // dirty shard's freed capacity is visible to another's re-solve),
        // then re-place them in sorted-name order against the residual.
        self.sort_dirty();
        let repaired = self.dirty.len();
        {
            let FleetPlacementState {
                entries,
                dirty,
                remaining,
                ..
            } = self;
            for &slot in dirty.iter() {
                for (m, u) in entries[slot].usage.drain(..) {
                    refund(&mut remaining[m], &u);
                }
            }
        }
        for idx in 0..self.dirty.len() {
            let slot = self.dirty[idx];
            match self.resolve(slot) {
                Ok(()) => self.entries[slot].dirty = false,
                Err(PlacementError::Infeasible { .. }) => {
                    // Sequential repair painted itself into a corner the
                    // batch solver might escape (capacity fragmented by
                    // history): fall back to the full re-solve.
                    self.full_solve()?;
                    return Ok(ReplanOutcome::FullSolve);
                }
                Err(e) => {
                    // Malformed request: heal by batch re-solving once the
                    // caller fixes its inputs.
                    self.needs_full = true;
                    return Err(e);
                }
            }
        }
        std::mem::swap(&mut self.dirty, &mut self.resolved);
        Ok(ReplanOutcome::Repaired(repaired))
    }

    /// Puts the dirty list in sorted-name order — each slot's position in
    /// the live set, re-derived only after that set changed — dropping
    /// tombstoned slots and duplicates.
    fn sort_dirty(&mut self) {
        self.refresh_ranks();
        let FleetPlacementState {
            entries,
            rank,
            dirty,
            ..
        } = self;
        dirty.retain(|&slot| {
            let live = entries[slot].live;
            entries[slot].dirty &= live;
            live
        });
        dirty.sort_unstable_by_key(|&slot| rank[slot]);
        dirty.dedup();
    }

    /// Re-derives every live slot's position in the live set, if it moved.
    fn refresh_ranks(&mut self) {
        if self.ranks_stale {
            self.rank.resize(self.entries.len(), 0);
            for (pos, &slot) in self.order.iter().enumerate() {
                self.rank[slot] = pos as u32;
            }
            self.ranks_stale = false;
        }
    }

    /// The slots the last [`replan`](FleetPlacementState::replan)
    /// re-solved, in sorted-name order: the repaired dirty shards, every
    /// live shard after a batch re-solve, none after
    /// [`ReplanOutcome::Unchanged`]. Unspecified after an error.
    pub(crate) fn resolved(&self) -> &[usize] {
        &self.resolved
    }

    /// Batch re-solve: residual reset to the full capacities, every live
    /// shard solved in sorted-name order — bit-for-bit [`plan`] on the
    /// cached requests. `needs_full` stays sticky until this completes,
    /// so a failed attempt retries batch-style next window.
    fn full_solve(&mut self) -> Result<(), PlacementError> {
        self.needs_full = true;
        self.remaining.clear();
        self.remaining.extend_from_slice(&self.capacities);
        for idx in 0..self.order.len() {
            self.resolve(self.order[idx])?;
        }
        for &slot in &self.dirty {
            self.entries[slot].dirty = false;
        }
        self.dirty.clear();
        self.resolved.clear();
        self.resolved.extend_from_slice(&self.order);
        // The live set a batch solve walked is the one the next repairs
        // sort by: index it now, while allocating is expected.
        self.refresh_ranks();
        self.drift = 0.0;
        self.needs_full = false;
        self.full_solves += 1;
        Ok(())
    }

    /// Solves the shard at `slot` against the residual capacity into its
    /// own placement cells, and stamps the entry with the solve's id and
    /// the usage it now charges. Allocation-free once the entry's buffers
    /// fit the shard. On `Err` the entry's placement is stale (id 0).
    fn resolve(&mut self, slot: usize) -> Result<(), PlacementError> {
        let e = &mut self.entries[slot];
        e.solve_id = 0;
        e.usage.clear();
        solve_rows(
            &mut self.remaining,
            &e.request,
            &mut e.placement,
            &mut self.scratch,
            EXACT_LIMIT,
        )?;
        self.solver_calls += 1;
        e.solve_id = self.solver_calls;
        // The sums [`Placement::usage`] forms, for the machines the shard
        // touches only (elsewhere an exact 0.0, a no-op to refund). The
        // cells come operator by operator, so each machine adds its terms
        // in operator order, as `usage` does.
        for c in &e.placement.cells {
            let m = c.machine as usize;
            let at = match e.usage.binary_search_by_key(&m, |&(m, _)| m) {
                Ok(at) => at,
                Err(at) => {
                    e.usage.insert(at, (m, ResourceProfile::uniform(0.0)));
                    at
                }
            };
            let profile = &e.request.operators[c.op as usize].profile;
            accumulate(&mut e.usage[at].1, c.count, profile);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_request(ks: &[u32]) -> PlacementRequest {
        PlacementRequest {
            operators: ks
                .iter()
                .map(|&k| OperatorLoad {
                    executors: k,
                    profile: ResourceProfile::default(),
                })
                .collect(),
            edges: Vec::new(),
        }
    }

    fn chain_edges(rates: &[f64]) -> Vec<EdgeTraffic> {
        rates
            .iter()
            .enumerate()
            .map(|(i, &rate)| EdgeTraffic {
                from: i,
                to: i + 1,
                rate,
            })
            .collect()
    }

    #[test]
    fn pool_validation() {
        assert!(matches!(
            MachinePool::new(Vec::new()),
            Err(PlacementError::InvalidPool { .. })
        ));
        assert!(matches!(
            MachinePool::new(vec![MachineSpec {
                name: "bad".into(),
                capacity: ResourceProfile {
                    cpu: -1.0,
                    ..Default::default()
                },
            }]),
            Err(PlacementError::InvalidPool { .. })
        ));
        let pool = MachinePool::uniform(3, ResourceProfile::uniform(4.0)).unwrap();
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
        assert_eq!(pool.machines()[2].name, "m2");
    }

    #[test]
    fn chain_colocates_on_one_machine_when_it_fits() {
        let pool = MachinePool::uniform(4, ResourceProfile::uniform(10.0)).unwrap();
        let mut request = uniform_request(&[2, 2, 2]);
        request.edges = chain_edges(&[100.0, 100.0]);
        let p = solve(&pool, &request).unwrap();
        assert_eq!(p.allocation(), vec![2, 2, 2]);
        assert!(
            p.cross_fraction(&request.edges) < 1e-9,
            "chain that fits one machine should be fully co-located: {p:?}"
        );
    }

    #[test]
    fn capacity_forces_spread_but_is_respected() {
        // 6 executors of unit demand, machines hold 2 each: must use 3.
        let pool = MachinePool::uniform(4, ResourceProfile::uniform(2.0)).unwrap();
        let mut request = uniform_request(&[3, 3]);
        request.edges = chain_edges(&[50.0]);
        let p = solve(&pool, &request).unwrap();
        assert_eq!(p.allocation(), vec![3, 3]);
        for usage in p.usage(
            &request
                .operators
                .iter()
                .map(|o| o.profile)
                .collect::<Vec<_>>(),
        ) {
            assert!(usage.cpu <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn infeasible_demand_reported() {
        let pool = MachinePool::uniform(2, ResourceProfile::uniform(1.0)).unwrap();
        let request = uniform_request(&[3]);
        assert_eq!(
            solve(&pool, &request),
            Err(PlacementError::Infeasible { op: 0 })
        );
    }

    /// A failed solve leaves the shared capacities exactly as passed, on
    /// both dispatch arms: the greedy one has by then charged a whole
    /// operator, in amounts (0.3) whose add-back would not round-trip.
    #[test]
    fn failed_solve_leaves_remaining_untouched() {
        let oversized = ResourceProfile::uniform(11.0);
        for first in [24, 1] {
            let mut request = uniform_request(&[first, 1]);
            request.operators[0].profile = ResourceProfile::uniform(0.3);
            request.operators[1].profile = oversized;
            request.edges = chain_edges(&[5.0]);
            assert_eq!(
                enumeration_size(&request, 8) > EXACT_LIMIT,
                first == 24,
                "one instance per dispatch arm"
            );
            let mut remaining = vec![ResourceProfile::uniform(10.0); 8];
            remaining[3] = ResourceProfile::uniform(0.7);
            let before = remaining.clone();
            assert_eq!(
                solve_into(&mut remaining, &request),
                Err(PlacementError::Infeasible { op: 1 })
            );
            assert_eq!(remaining, before, "{first} executors were left charged");
        }
    }

    #[test]
    fn solver_beats_round_robin_on_a_hot_chain() {
        let pool = MachinePool::uniform(8, ResourceProfile::uniform(16.0)).unwrap();
        let mut request = uniform_request(&[1, 8, 8, 2]);
        request.edges = chain_edges(&[13.0, 390.0, 195.0]);
        let solved = solve(&pool, &request).unwrap();
        let rr = round_robin(&pool, &request).unwrap();
        assert_eq!(solved.allocation(), rr.allocation());
        let sf = solved.cross_fraction(&request.edges);
        let rf = rr.cross_fraction(&request.edges);
        assert!(
            sf < 0.7 * rf,
            "solver cross fraction {sf:.3} should be well below round-robin {rf:.3}"
        );
    }

    #[test]
    fn greedy_large_instance_stays_within_capacity() {
        // Force the greedy path: enumeration size far above EXACT_LIMIT.
        let pool = MachinePool::uniform(8, ResourceProfile::uniform(40.0)).unwrap();
        let mut request = uniform_request(&[1, 24, 24, 12, 8, 16]);
        request.edges = chain_edges(&[10.0, 500.0, 250.0, 100.0, 50.0]);
        assert!(enumeration_size(&request, pool.len()) > EXACT_LIMIT);
        let p = solve(&pool, &request).unwrap();
        assert_eq!(p.allocation(), vec![1, 24, 24, 12, 8, 16]);
        let profiles: Vec<_> = request.operators.iter().map(|o| o.profile).collect();
        for usage in p.usage(&profiles) {
            assert!(usage.cpu <= 40.0 + 1e-9);
        }
    }

    #[test]
    fn resource_profiles_steer_heavy_ops_apart() {
        // Two CPU-hungry operators cannot share the small machine.
        let pool = MachinePool::new(vec![
            MachineSpec {
                name: "big".into(),
                capacity: ResourceProfile {
                    cpu: 8.0,
                    mem: 8.0,
                    net: 8.0,
                },
            },
            MachineSpec {
                name: "small".into(),
                capacity: ResourceProfile {
                    cpu: 2.0,
                    mem: 8.0,
                    net: 8.0,
                },
            },
        ])
        .unwrap();
        let request = PlacementRequest {
            operators: vec![
                OperatorLoad {
                    executors: 2,
                    profile: ResourceProfile {
                        cpu: 4.0,
                        mem: 1.0,
                        net: 1.0,
                    },
                },
                OperatorLoad {
                    executors: 2,
                    profile: ResourceProfile {
                        cpu: 1.0,
                        mem: 1.0,
                        net: 1.0,
                    },
                },
            ],
            edges: vec![EdgeTraffic {
                from: 0,
                to: 1,
                rate: 10.0,
            }],
        };
        let p = solve(&pool, &request).unwrap();
        // Both cpu-heavy executors must land on "big" (index 0).
        assert_eq!(p.count(0, 0), 2);
        let profiles: Vec<_> = request.operators.iter().map(|o| o.profile).collect();
        let usage = p.usage(&profiles);
        assert!(usage[1].cpu <= 2.0 + 1e-9);
    }

    #[test]
    fn plan_is_order_independent_across_shards() {
        let pool = MachinePool::uniform(4, ResourceProfile::uniform(8.0)).unwrap();
        let mut ra = uniform_request(&[2, 3]);
        ra.edges = chain_edges(&[40.0]);
        let mut rb = uniform_request(&[3, 2]);
        rb.edges = chain_edges(&[60.0]);
        let fwd = plan(&pool, &[("a".into(), ra.clone()), ("b".into(), rb.clone())]).unwrap();
        let rev = plan(&pool, &[("b".into(), rb), ("a".into(), ra)]).unwrap();
        assert_eq!(fwd[0], rev[1], "shard a placement must not depend on order");
        assert_eq!(fwd[1], rev[0], "shard b placement must not depend on order");
    }

    #[test]
    fn round_robin_skips_full_machines() {
        let pool = MachinePool::new(vec![
            MachineSpec {
                name: "tiny".into(),
                capacity: ResourceProfile::uniform(1.0),
            },
            MachineSpec {
                name: "roomy".into(),
                capacity: ResourceProfile::uniform(10.0),
            },
        ])
        .unwrap();
        let request = uniform_request(&[4]);
        let p = round_robin(&pool, &request).unwrap();
        assert_eq!(p.counts_of(0).collect::<Vec<_>>(), [(0, 1), (1, 3)]);
    }

    #[test]
    fn cross_probability_math() {
        // 2 executors each, perfectly split across 2 machines.
        let p = Placement::from_counts(vec![vec![1, 1], vec![1, 1]]);
        let prob = p.cross_probability(0, 1);
        assert!((prob - 0.5).abs() < 1e-12);
        // Fully co-located.
        let p = Placement::from_counts(vec![vec![2, 0], vec![2, 0]]);
        assert!(p.cross_probability(0, 1) < 1e-12);
        // Fully separated.
        let p = Placement::from_counts(vec![vec![2, 0], vec![0, 2]]);
        assert!((p.cross_probability(0, 1) - 1.0).abs() < 1e-12);
        // Zero-executor edge contributes nothing.
        let p = Placement::from_counts(vec![vec![0, 0], vec![1, 0]]);
        assert_eq!(p.cross_probability(0, 1), 0.0);
        assert_eq!(p.cross_fraction(&[]), 0.0);
    }

    #[test]
    fn errors_display() {
        assert!(!PlacementError::Infeasible { op: 3 }.to_string().is_empty());
        assert!(!PlacementError::InvalidPool { what: "x".into() }
            .to_string()
            .is_empty());
        assert!(!PlacementError::InvalidRequest { what: "x".into() }
            .to_string()
            .is_empty());
    }

    /// Drives one warm-state window the way the fleet driver does:
    /// present every shard, rewrite requests that changed, replan.
    fn warm_window(
        state: &mut FleetPlacementState,
        pool: &MachinePool,
        shards: &[(&str, PlacementRequest)],
    ) -> Result<ReplanOutcome, PlacementError> {
        state.begin_window();
        state.sync_pool(pool);
        for (name, req) in shards {
            let slot = state.slot_of(name).unwrap_or_else(|| state.insert(name));
            if state.request(slot) != req {
                state.touch(slot).clone_from(req);
            }
            state.mark_seen(slot);
        }
        state.replan()
    }

    fn warm_placements<'a>(
        state: &'a FleetPlacementState,
        shards: &[(&str, PlacementRequest)],
    ) -> Vec<&'a Placement> {
        shards
            .iter()
            .map(|(name, _)| state.placement(state.slot_of(name).unwrap()))
            .collect()
    }

    #[test]
    fn warm_state_first_window_is_a_full_solve_matching_plan() {
        let pool = MachinePool::uniform(4, ResourceProfile::uniform(8.0)).unwrap();
        let mut ra = uniform_request(&[2, 3]);
        ra.edges = chain_edges(&[40.0]);
        let mut rb = uniform_request(&[3, 2]);
        rb.edges = chain_edges(&[60.0]);
        let shards = [("a", ra.clone()), ("b", rb.clone())];

        let mut state = FleetPlacementState::new();
        assert_eq!(
            warm_window(&mut state, &pool, &shards).unwrap(),
            ReplanOutcome::FullSolve
        );
        let reference = plan(&pool, &[("a".into(), ra), ("b".into(), rb)]).unwrap();
        for (got, want) in warm_placements(&state, &shards).iter().zip(&reference) {
            assert_eq!(*got, want, "first warm solve must equal plan()");
        }
        assert_eq!(state.len(), 2);
        assert_eq!(state.full_solves(), 1);
        assert_eq!(state.drift(), 0.0);

        // Second window, nothing changed: zero solver calls, placements
        // and epochs stand.
        let calls = state.solver_calls();
        let epoch_a = state.epoch(state.slot_of("a").unwrap());
        assert_eq!(
            warm_window(&mut state, &pool, &shards).unwrap(),
            ReplanOutcome::Unchanged
        );
        assert_eq!(state.solver_calls(), calls);
        assert_eq!(state.epoch(state.slot_of("a").unwrap()), epoch_a);
        for (got, want) in warm_placements(&state, &shards).iter().zip(&reference) {
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn warm_repair_resolves_only_dirty_shards_and_respects_capacity() {
        let pool = MachinePool::uniform(4, ResourceProfile::uniform(8.0)).unwrap();
        let mut ra = uniform_request(&[2, 3]);
        ra.edges = chain_edges(&[40.0]);
        let mut rb = uniform_request(&[3, 2]);
        rb.edges = chain_edges(&[60.0]);
        let mut rc = uniform_request(&[1, 1]);
        rc.edges = chain_edges(&[5.0]);
        let mut shards = [("a", ra), ("b", rb), ("c", rc)];

        let mut state = FleetPlacementState::new();
        warm_window(&mut state, &pool, &shards).unwrap();
        let calls = state.solver_calls();
        let epoch_b = state.epoch(state.slot_of("b").unwrap());
        let placement_a = state.placement(state.slot_of("a").unwrap()).clone();

        // Only b changes (one more executor on operator 1).
        shards[1].1.operators[1].executors = 3;
        assert_eq!(
            warm_window(&mut state, &pool, &shards).unwrap(),
            ReplanOutcome::Repaired(1)
        );
        assert_eq!(state.solver_calls(), calls + 1, "only b re-solved");
        assert_eq!(state.epoch(state.slot_of("b").unwrap()), epoch_b + 1);
        assert_eq!(
            state.placement(state.slot_of("a").unwrap()),
            &placement_a,
            "untouched shard keeps its cached placement"
        );
        let b = state.placement(state.slot_of("b").unwrap());
        assert!(b.allocation_matches(&[3, 3]));
        // Residual capacity never goes negative.
        for r in state.remaining() {
            assert!(r.cpu >= -EPS && r.mem >= -EPS && r.net >= -EPS, "{r:?}");
        }
    }

    #[test]
    fn warm_sweep_refunds_removed_shards() {
        let pool = MachinePool::uniform(2, ResourceProfile::uniform(10.0)).unwrap();
        let ra = uniform_request(&[4]);
        let rb = uniform_request(&[3]);
        let mut state = FleetPlacementState::new();
        warm_window(&mut state, &pool, &[("a", ra.clone()), ("b", rb)]).unwrap();
        assert_eq!(state.len(), 2);

        // b leaves the fleet: its usage must flow back to the residual.
        warm_window(&mut state, &pool, &[("a", ra)]).unwrap();
        assert_eq!(state.len(), 1);
        assert!(state.slot_of("b").is_none());
        let total_remaining: f64 = state.remaining().iter().map(|r| r.cpu).sum();
        // 2 machines x 10 capacity - 4 executors x 1 cpu.
        assert!((total_remaining - 16.0).abs() < 1e-9, "{total_remaining}");

        // A recycled slot serves a newcomer without disturbing survivors.
        let slot_a = state.slot_of("a").unwrap();
        warm_window(
            &mut state,
            &pool,
            &[("a", uniform_request(&[4])), ("z", uniform_request(&[2]))],
        )
        .unwrap();
        assert_eq!(state.slot_of("a").unwrap(), slot_a);
        assert_eq!(state.slot_name(state.slot_of("z").unwrap()), "z");
    }

    /// Outside a presence round nothing is swept; naming the leavers with
    /// `remove` then refunds exactly what the round's sweep does, to the
    /// bit, and `resolved` lists the re-solved slots in sorted-name order.
    #[test]
    fn warm_remove_equals_the_presence_sweep() {
        let pool = MachinePool::uniform(3, ResourceProfile::uniform(40.0)).unwrap();
        let request = |i: u32, rate: f64| {
            let mut r = uniform_request(&[1 + i % 3, 1 + i % 2]);
            r.edges = chain_edges(&[rate]);
            r
        };
        // Presented out of name order; ten shards keep the drift of the
        // second window below a batch re-solve.
        let names = ["j", "c", "h", "a", "f", "b", "i", "e", "g", "d"];
        let all: Vec<(&str, PlacementRequest)> = (0u32..)
            .zip(names)
            .map(|(i, n)| (n, request(i, 10.0 + f64::from(i))))
            .collect();
        let mut swept = FleetPlacementState::new();
        warm_window(&mut swept, &pool, &all).unwrap();
        let mut removed = swept.clone();

        // No round, no change: every shard stays although none was seen.
        removed.sync_pool(&pool);
        assert_eq!(removed.replan().unwrap(), ReplanOutcome::Unchanged);
        assert_eq!(removed.len(), 10);
        assert!(removed.resolved().is_empty());

        // "b" and "h" leave while "i" and "c" change.
        let leaving = ["h", "b"];
        let stay: Vec<(&str, PlacementRequest)> = all
            .iter()
            .filter(|(n, _)| !leaving.contains(n))
            .map(|(n, r)| {
                let mut r = r.clone();
                if ["i", "c"].contains(n) {
                    r.edges[0].rate *= 3.0;
                }
                (*n, r)
            })
            .collect();
        warm_window(&mut swept, &pool, &stay).unwrap();
        removed.sync_pool(&pool);
        for name in leaving {
            removed.remove(removed.slot_of(name).unwrap());
        }
        for name in ["i", "c"] {
            let slot = removed.slot_of(name).unwrap();
            removed.touch(slot).edges[0].rate *= 3.0;
        }
        assert_eq!(removed.replan().unwrap(), ReplanOutcome::Repaired(2));
        let bits = |s: &FleetPlacementState| -> Vec<[u64; 3]> {
            let r = s.remaining().iter();
            r.map(|r| [r.cpu.to_bits(), r.mem.to_bits(), r.net.to_bits()])
                .collect()
        };
        assert_eq!(bits(&removed), bits(&swept));
        assert_eq!(removed.len(), 8);
        assert_eq!(
            warm_placements(&removed, &stay),
            warm_placements(&swept, &stay)
        );
        let sorted: Vec<usize> = ["c", "i"].map(|n| removed.slot_of(n).unwrap()).to_vec();
        assert_eq!(removed.resolved(), sorted);
        assert_eq!(swept.resolved(), sorted);
    }

    #[test]
    fn warm_drift_triggers_a_batch_resolve() {
        let pool = MachinePool::uniform(2, ResourceProfile::uniform(20.0)).unwrap();
        let names = ["a", "b", "c", "d"];
        let mut shards: Vec<(&str, PlacementRequest)> =
            names.iter().map(|&n| (n, uniform_request(&[2]))).collect();
        let mut state = FleetPlacementState::new();
        warm_window(&mut state, &pool, &shards).unwrap();
        let full_before = state.full_solves();

        // One shard of four wobbles every window: drift grows by 1/4 per
        // window, so the 4th dirty window must trigger the batch solve.
        let mut outcomes = Vec::new();
        for w in 0..4 {
            shards[0].1.operators[0].executors = 2 + (w as u32 % 2) + 1;
            outcomes.push(warm_window(&mut state, &pool, &shards).unwrap());
        }
        assert_eq!(
            outcomes,
            vec![
                ReplanOutcome::Repaired(1),
                ReplanOutcome::Repaired(1),
                ReplanOutcome::Repaired(1),
                ReplanOutcome::FullSolve,
            ]
        );
        assert_eq!(state.full_solves(), full_before + 1);
        assert_eq!(state.drift(), 0.0, "batch solve resets drift");
    }

    #[test]
    fn warm_pool_change_invalidates_everything() {
        let pool = MachinePool::uniform(2, ResourceProfile::uniform(10.0)).unwrap();
        let shards = [("a", uniform_request(&[2])), ("b", uniform_request(&[2]))];
        let mut state = FleetPlacementState::new();
        warm_window(&mut state, &pool, &shards).unwrap();

        let grown = MachinePool::uniform(3, ResourceProfile::uniform(10.0)).unwrap();
        assert_eq!(
            warm_window(&mut state, &grown, &shards).unwrap(),
            ReplanOutcome::FullSolve
        );
        let reference = plan(
            &grown,
            &[
                ("a".into(), shards[0].1.clone()),
                ("b".into(), shards[1].1.clone()),
            ],
        )
        .unwrap();
        for (got, want) in warm_placements(&state, &shards).iter().zip(&reference) {
            assert_eq!(*got, want);
        }
        // An explicit invalidation forces the batch path too.
        state.invalidate();
        assert_eq!(
            warm_window(&mut state, &grown, &shards).unwrap(),
            ReplanOutcome::FullSolve
        );
    }

    #[test]
    fn warm_infeasible_heals_by_batch_resolving() {
        let pool = MachinePool::uniform(2, ResourceProfile::uniform(4.0)).unwrap();
        let mut shards = vec![("a", uniform_request(&[3])), ("b", uniform_request(&[3]))];
        let mut state = FleetPlacementState::new();
        warm_window(&mut state, &pool, &shards).unwrap();

        // a grows beyond what the pool can hold at all: repair falls back
        // to the batch solve, which also fails — the error surfaces.
        shards[0].1.operators[0].executors = 9;
        assert!(matches!(
            warm_window(&mut state, &pool, &shards),
            Err(PlacementError::Infeasible { .. })
        ));

        // The demand relaxes: the sticky full-solve request heals the
        // state with one batch solve, matching plan() bit-for-bit.
        shards[0].1.operators[0].executors = 4;
        assert_eq!(
            warm_window(&mut state, &pool, &shards).unwrap(),
            ReplanOutcome::FullSolve
        );
        let reference = plan(
            &pool,
            &[
                ("a".into(), shards[0].1.clone()),
                ("b".into(), shards[1].1.clone()),
            ],
        )
        .unwrap();
        for (got, want) in warm_placements(&state, &shards).iter().zip(&reference) {
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn allocation_matches_agrees_with_allocation() {
        let p = Placement::from_counts(vec![vec![1, 2], vec![0, 3]]);
        assert!(p.allocation_matches(&[3, 3]));
        assert!(!p.allocation_matches(&[3, 2]));
        assert!(!p.allocation_matches(&[3]));
        assert!(!p.allocation_matches(&[3, 3, 0]));
        assert_eq!(p.allocation(), vec![3, 3]);
        let empty = Placement::from_counts(Vec::new());
        assert_eq!((empty.operators(), empty.machines()), (0, 0));
        assert!(empty.allocation_matches(&[]));
    }

    #[test]
    #[should_panic(expected = "ragged rows (row 1 spans 2 machines, row 0 spans 1)")]
    fn from_counts_rejects_a_longer_later_row() {
        Placement::from_counts(vec![vec![1], vec![1, 1]]);
    }

    #[test]
    #[should_panic(expected = "ragged rows (row 1 spans 1 machines, row 0 spans 2)")]
    fn from_counts_rejects_a_shorter_later_row() {
        Placement::from_counts(vec![vec![1, 1], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "machine 2 out of range")]
    fn count_rejects_a_machine_past_the_pool() {
        Placement::from_counts(vec![vec![1, 1]]).count(0, 2);
    }

    /// The cell buffer holds the executor total from the first solve, so
    /// a re-solve spreading the same executors wider reuses it.
    #[test]
    fn cell_buffer_holds_the_executor_total() {
        let mut p = Placement::empty();
        p.compress(&[vec![3, 0, 0], vec![3, 0, 0]], 3, 6);
        assert!(p.cells.capacity() >= 6, "{}", p.cells.capacity());
        let buffer = (p.cells.as_ptr(), p.cells.capacity());
        p.compress(&[vec![1, 1, 1], vec![1, 1, 1]], 3, 6);
        assert_eq!((p.cells.as_ptr(), p.cells.capacity()), buffer);
        assert_eq!(
            p,
            Placement::from_counts(vec![vec![1, 1, 1], vec![1, 1, 1]])
        );
    }

    #[test]
    fn invalid_request_rejected() {
        let pool = MachinePool::uniform(2, ResourceProfile::uniform(4.0)).unwrap();
        let mut request = uniform_request(&[1, 1]);
        request.edges = vec![EdgeTraffic {
            from: 0,
            to: 5,
            rate: 1.0,
        }];
        assert!(matches!(
            solve(&pool, &request),
            Err(PlacementError::InvalidRequest { .. })
        ));
        request.edges = vec![EdgeTraffic {
            from: 0,
            to: 1,
            rate: f64::NAN,
        }];
        assert!(matches!(
            solve(&pool, &request),
            Err(PlacementError::InvalidRequest { .. })
        ));
    }
}
