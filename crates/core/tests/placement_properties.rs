//! Property tests for the machine-placement solver — for random pools and
//! topologies, every executor is placed exactly once, no machine's
//! capacity vector is ever exceeded, the dispatcher is exact on
//! oracle-sized instances (the production branch-and-bound equals the
//! clone-per-leaf exhaustive search kept here as the reference, and never
//! loses to the greedy heuristic), the greedy kernel equals the
//! per-machine edge-scanning one it replaced (also kept here) bit for bit,
//! the sparse [`Placement`] reads exactly as the dense matrix it stores,
//! fleet planning is deterministic
//! regardless of the order
//! shards are presented in, and the warm incremental path
//! ([`placement::FleetPlacementState`]) stays capacity-safe under
//! randomized drift/churn while matching [`placement::plan`] bit-for-bit
//! at every full re-solve and every settled window.

use drs_core::placement::{
    self, EdgeTraffic, FleetPlacementState, MachinePool, MachineSpec, OperatorLoad, Placement,
    PlacementError, PlacementRequest, ReplanOutcome,
};
use drs_topology::ResourceProfile;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

const EPS: f64 = 1e-9;

/// Builds a request from raw draws: `ops` are (executors, profile-units)
/// pairs, `raw_edges` are (from, to, rate) with indices folded into range.
fn request(ops: &[(u32, f64)], raw_edges: &[(usize, usize, f64)]) -> PlacementRequest {
    let n = ops.len();
    let operators = ops
        .iter()
        .map(|&(executors, units)| OperatorLoad {
            executors,
            profile: ResourceProfile::uniform(units),
        })
        .collect();
    let edges = raw_edges
        .iter()
        .filter_map(|&(from, to, rate)| {
            let (from, to) = (from % n, to % n);
            (from != to).then_some(EdgeTraffic { from, to, rate })
        })
        .collect();
    PlacementRequest { operators, edges }
}

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

/// The exhaustive search the production exact solver replaced, kept as its
/// reference: a depth-first walk over every per-executor machine choice
/// that clones the whole assignment at each leaf, re-derives the objective
/// from scratch there, and keeps the lexicographically smallest optimum.
fn reference_oracle(
    remaining: &mut [ResourceProfile],
    request: &PlacementRequest,
) -> Result<Placement, PlacementError> {
    let machines = remaining.len();
    let n = request.operators.len();
    let mut counts = vec![vec![0u32; machines]; n];
    let mut best: Option<(f64, Vec<Vec<u32>>)> = None;

    // DFS over operators; within an operator, enumerate non-increasing-free
    // compositions via per-executor choices m >= previous machine to avoid
    // revisiting permutations of identical executors.
    fn dfs(
        op: usize,
        exec: u32,
        min_machine: usize,
        request: &PlacementRequest,
        remaining: &mut [ResourceProfile],
        counts: &mut Vec<Vec<u32>>,
        best: &mut Option<(f64, Vec<Vec<u32>>)>,
    ) {
        let n = request.operators.len();
        if op == n {
            let placement = Placement::from_counts(counts.clone());
            let cost = placement.cross_rate(&request.edges);
            let better = match best {
                None => true,
                Some((bc, bcounts)) => {
                    cost < *bc - EPS || ((cost - *bc).abs() <= EPS && counts < bcounts)
                }
            };
            if better {
                *best = Some((cost, counts.clone()));
            }
            return;
        }
        let load = &request.operators[op];
        if exec == load.executors {
            // Prune: cost of edges fully placed so far already exceeds best.
            if let Some((bc, _)) = best {
                let placement = Placement::from_counts(counts.clone());
                let mut partial = 0.0;
                for e in &request.edges {
                    if e.from <= op && e.to <= op {
                        partial += e.rate * placement.cross_probability(e.from, e.to);
                    }
                }
                if partial > *bc + EPS {
                    return;
                }
            }
            dfs(op + 1, 0, 0, request, remaining, counts, best);
            return;
        }
        for m in min_machine..remaining.len() {
            if !fits(&remaining[m], &load.profile) {
                continue;
            }
            charge(&mut remaining[m], &load.profile);
            counts[op][m] += 1;
            dfs(op, exec + 1, m, request, remaining, counts, best);
            counts[op][m] -= 1;
            refund(&mut remaining[m], &load.profile);
        }
    }

    dfs(0, 0, 0, request, remaining, &mut counts, &mut best);
    match best {
        Some((_, counts)) => {
            // Commit the winning placement's resource usage to `remaining`
            // so fleet-shared solving stays consistent.
            for (op, per_machine) in counts.iter().enumerate() {
                let profile = request.operators[op].profile;
                for (m, &c) in per_machine.iter().enumerate() {
                    for _ in 0..c {
                        charge(&mut remaining[m], &profile);
                    }
                }
            }
            Ok(Placement::from_counts(counts))
        }
        None => {
            // Report the first operator that cannot fit anywhere as the
            // infeasible one (operator 0 if even it has no machine).
            let op = request
                .operators
                .iter()
                .position(|load| {
                    load.executors > 0 && !remaining.iter().any(|r| fits(r, &load.profile))
                })
                .unwrap_or(0);
            Err(PlacementError::Infeasible { op })
        }
    }
}

/// The greedy kernel the production one replaced, kept as its reference:
/// for every executor and every machine it re-walks the whole edge list for
/// the affinity and takes the resource distance's square root, whether or
/// not the machine can still win.
fn reference_greedy(
    remaining: &mut [ResourceProfile],
    request: &PlacementRequest,
) -> Result<Placement, PlacementError> {
    let n = request.operators.len();
    let mut counts = vec![vec![0u32; remaining.len()]; n];
    let mut traffic = vec![0.0; n];
    for e in &request.edges {
        traffic[e.from] += e.rate;
        traffic[e.to] += e.rate;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        traffic[b]
            .partial_cmp(&traffic[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let resource_distance = |rem: &ResourceProfile, demand: &ResourceProfile| {
        let d = |r: f64, w: f64| (r - w) * (r - w);
        (d(rem.cpu, demand.cpu) + d(rem.mem, demand.mem) + d(rem.net, demand.net)).sqrt()
    };
    let mut undo: Vec<(usize, ResourceProfile)> = Vec::new();
    for &op in &order {
        let load = &request.operators[op];
        for _ in 0..load.executors {
            let mut best: Option<(f64, f64, usize)> = None;
            for (m, rem) in remaining.iter().enumerate() {
                if !fits(rem, &load.profile) {
                    continue;
                }
                let mut affinity = 0.0;
                for e in &request.edges {
                    let other = if e.from == op {
                        e.to
                    } else if e.to == op {
                        e.from
                    } else {
                        continue;
                    };
                    let k_other = request.operators[other].executors.max(1) as f64;
                    affinity += e.rate * counts[other][m] as f64 / k_other;
                }
                let dist = resource_distance(rem, &load.profile);
                let better = match &best {
                    None => true,
                    Some((ba, bd, _)) => {
                        affinity > ba + EPS || ((affinity - ba).abs() <= EPS && dist < bd - EPS)
                    }
                };
                if better {
                    best = Some((affinity, dist, m));
                }
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
    Ok(Placement::from_counts(counts))
}

/// `Π_i C(k_i+m−1, m−1)`, the enumeration size [`placement::solve_into`]
/// dispatches on (saturating; only its side of `EXACT_LIMIT` matters).
fn enumeration_size(request: &PlacementRequest, machines: u64) -> u64 {
    request.operators.iter().fold(1u64, |size, op| {
        let k = u64::from(op.executors);
        let comps = (0..(machines - 1).min(k)).fold(1u64, |acc, i| {
            acc.saturating_mul(k + machines - 1 - i) / (i + 1)
        });
        size.saturating_mul(comps)
    })
}

fn capacities(pool: &MachinePool) -> Vec<ResourceProfile> {
    pool.machines().iter().map(|m| m.capacity).collect()
}

/// What the `exact_solver_cases` draw covered, so the wrapping test can
/// insist that it exercised every kind of instance.
static FEASIBLE: AtomicU32 = AtomicU32::new(0);
static INFEASIBLE: AtomicU32 = AtomicU32::new(0);
static NONZERO_COST: AtomicU32 = AtomicU32::new(0);

/// Per-machine resource usage must fit the pool's capacity vectors.
fn assert_within_capacity(
    placement: &Placement,
    pool: &MachinePool,
    req: &PlacementRequest,
    label: &str,
) -> Result<(), TestCaseError> {
    let profiles: Vec<ResourceProfile> = req.operators.iter().map(|o| o.profile).collect();
    let usage = placement.usage(&profiles);
    for (m, (used, spec)) in usage.iter().zip(pool.machines()).enumerate() {
        prop_assert!(
            used.cpu <= spec.capacity.cpu + EPS
                && used.mem <= spec.capacity.mem + EPS
                && used.net <= spec.capacity.net + EPS,
            "{label}: machine {m} over capacity: used {used:?}, capacity {:?}",
            spec.capacity
        );
    }
    Ok(())
}

/// The fleet-layer epoch band, replicated for the drift proptest: exact
/// on executors/profiles and edge endpoints, a 5% relative dead-band on
/// edge rates.
fn band_matches(cached: &PlacementRequest, measured: &PlacementRequest) -> bool {
    cached.operators == measured.operators
        && cached.edges.len() == measured.edges.len()
        && cached.edges.iter().zip(&measured.edges).all(|(c, m)| {
            c.from == m.from && c.to == m.to && (m.rate - c.rate).abs() <= 0.05 * c.rate.abs()
        })
}

/// Combined usage of every live shard's cached placement fits the pool.
fn assert_fleet_within_capacity(
    state: &FleetPlacementState,
    fleet: &[(String, PlacementRequest)],
    pool: &MachinePool,
    window: usize,
) -> Result<(), TestCaseError> {
    let machines = pool.machines().len();
    let mut used = vec![ResourceProfile::uniform(0.0); machines];
    for (name, _) in fleet {
        let slot = state.slot_of(name).unwrap();
        let profiles: Vec<ResourceProfile> = state
            .request(slot)
            .operators
            .iter()
            .map(|o| o.profile)
            .collect();
        for (m, u) in state
            .placement(slot)
            .usage(&profiles)
            .into_iter()
            .enumerate()
        {
            used[m].cpu += u.cpu;
            used[m].mem += u.mem;
            used[m].net += u.net;
        }
    }
    for (m, (u, spec)) in used.iter().zip(pool.machines()).enumerate() {
        prop_assert!(
            u.cpu <= spec.capacity.cpu + EPS
                && u.mem <= spec.capacity.mem + EPS
                && u.net <= spec.capacity.net + EPS,
            "window {window}: machine {m} over capacity after repair: {u:?} vs {:?}",
            spec.capacity
        );
    }
    Ok(())
}

/// The cached request of every live shard, keyed for [`placement::plan`].
fn cached_fleet(
    state: &FleetPlacementState,
    fleet: &[(String, PlacementRequest)],
) -> Vec<(String, PlacementRequest)> {
    fleet
        .iter()
        .map(|(n, _)| (n.clone(), state.request(state.slot_of(n).unwrap()).clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The body of `exact_solver_matches_exhaustive_reference` (run from
    /// there, so the coverage counters can be checked afterwards): small
    /// instances over heterogeneous pools whose capacities and demands are
    /// multiples of 0.25 — machines fill to the brim exactly — with
    /// zero-executor operators, self-loops, and duplicate and reversed
    /// edges. The production solver and the reference must agree on the
    /// assignment, on the error (including the operator `Infeasible`
    /// names), and on the residual capacity.
    fn exact_solver_cases(
        caps in vec((0u32..=10, 0u32..=10), 2..=4),
        ops in vec((0u32..=3, 1u32..=4, 1u32..=4), 1..=3),
        raw_edges in vec((0usize..3, 0usize..3, 0.1f64..10.0, 0u8..4), 1..=5),
    ) {
        let quarter = |q: u32| f64::from(q) * 0.25;
        let pool = MachinePool::new(
            caps.iter()
                .enumerate()
                .map(|(i, &(cpu, mem))| MachineSpec {
                    name: format!("m{i}"),
                    capacity: ResourceProfile { cpu: quarter(cpu), mem: quarter(mem), net: 2.0 },
                })
                .collect(),
        )
        .unwrap();
        let n = ops.len();
        let mut req = PlacementRequest {
            operators: ops
                .iter()
                .map(|&(executors, cpu, mem)| OperatorLoad {
                    executors,
                    profile: ResourceProfile { cpu: quarter(cpu), mem: quarter(mem), net: 0.5 },
                })
                .collect(),
            edges: Vec::new(),
        };
        for &(from, to, rate, kind) in &raw_edges {
            let (from, to) = (from % n, to % n);
            req.edges.push(EdgeTraffic { from, to, rate });
            match kind {
                0 => req.edges.push(EdgeTraffic { from, to, rate }),
                1 => req.edges.push(EdgeTraffic { from: to, to: from, rate: rate * 0.5 }),
                _ => {}
            }
        }

        let mut want_left = capacities(&pool);
        let want = reference_oracle(&mut want_left, &req);
        let mut got_left = capacities(&pool);
        let got = placement::solve_into(&mut got_left, &req);
        prop_assert_eq!(&placement::oracle(&pool, &req), &got, "oracle() and solve_into() differ");
        match (&want, &got) {
            (Ok(w), Ok(g)) => {
                prop_assert_eq!(w, g, "cost {}", w.cross_rate(&req.edges));
                FEASIBLE.fetch_add(1, Ordering::Relaxed);
                if w.cross_rate(&req.edges) > EPS {
                    NONZERO_COST.fetch_add(1, Ordering::Relaxed);
                }
            }
            (Err(w), Err(g)) => {
                prop_assert_eq!(w, g);
                prop_assert_eq!(&got_left, &capacities(&pool), "a failed solve charged the pool");
                INFEASIBLE.fetch_add(1, Ordering::Relaxed);
            }
            _ => prop_assert!(false, "feasibility differs: {want:?} vs {got:?}"),
        }
        for (w, g) in want_left.iter().zip(&got_left) {
            prop_assert!(
                (w.cpu - g.cpu).abs() <= EPS
                    && (w.mem - g.mem).abs() <= EPS
                    && (w.net - g.net).abs() <= EPS,
                "residual capacity differs: {w:?} vs {g:?}"
            );
        }
    }
}

#[test]
fn exact_solver_matches_exhaustive_reference() {
    exact_solver_cases();
    let [feasible, infeasible, nonzero] =
        [&FEASIBLE, &INFEASIBLE, &NONZERO_COST].map(|c| c.load(Ordering::Relaxed));
    assert!(
        feasible >= 200 && infeasible >= 100 && nonzero >= 100,
        "draw too narrow: {feasible} feasible, {infeasible} infeasible, {nonzero} nonzero-cost"
    );
}

/// What the `greedy_kernel_cases` draw covered: `[feasible, infeasible
/// after at least one charge (the undo path), an operator with more than 8
/// adjacent edges, a self-loop, a zero-executor operator, an instance
/// beyond EXACT_LIMIT (solve_into runs the greedy kernel)]`.
static GREEDY_COVERED: [AtomicU32; 6] = [const { AtomicU32::new(0) }; 6];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The body of `greedy_kernel_matches_the_kernel_it_replaced`: pools
    /// and demands in quarters (brim-full machines, affinity and distance
    /// ties), zero-executor operators, self-loops, duplicate and reversed
    /// edges, up to 14 of them over at most 4 operators. Same assignment,
    /// same error, and — through `solve_into` on instances the dispatcher
    /// hands to the greedy kernel — the same residual capacity to the bit,
    /// untouched after a failure.
    fn greedy_kernel_cases(
        caps in vec((0u32..=24, 0u32..=24, 0u8..3), 3..=9),
        ops in vec((0u32..=9, 1u32..=4, 1u32..=4), 1..=4),
        raw_edges in vec((0usize..4, 0usize..4, 0.0f64..10.0, 0u8..5), 0..=10),
    ) {
        let quarter = |q: u32| f64::from(q) * 0.25;
        // A sub-`EPS` jitter on some capacities, and (below) sub-`EPS`
        // rates on some edges: near-ties the kernel must call ties.
        let pool = MachinePool::new(
            caps.iter()
                .enumerate()
                .map(|(i, &(cpu, mem, jitter))| MachineSpec {
                    name: format!("m{i}"),
                    capacity: ResourceProfile {
                        cpu: quarter(cpu) + f64::from(jitter) * 4e-10,
                        mem: quarter(mem),
                        net: 4.0,
                    },
                })
                .collect(),
        )
        .unwrap();
        let n = ops.len();
        let mut req = PlacementRequest {
            operators: ops
                .iter()
                .map(|&(executors, cpu, mem)| OperatorLoad {
                    executors,
                    profile: ResourceProfile { cpu: quarter(cpu), mem: quarter(mem), net: 0.25 },
                })
                .collect(),
            edges: Vec::new(),
        };
        for &(from, to, rate, kind) in &raw_edges {
            let (from, to) = (from % n, to % n);
            let rate = if kind == 4 { rate * 1e-10 } else { rate };
            req.edges.push(EdgeTraffic { from, to, rate });
            match kind {
                0 => req.edges.push(EdgeTraffic { from, to, rate }),
                1 => req.edges.push(EdgeTraffic { from: to, to: from, rate: rate * 0.5 }),
                _ => {}
            }
        }

        let full = capacities(&pool);
        let mut want_left = full.clone();
        let want = reference_greedy(&mut want_left, &req);
        prop_assert_eq!(&placement::greedy(&pool, &req), &want);
        let bits = |left: &[ResourceProfile]| -> Vec<[u64; 3]> {
            left.iter().map(|r| [r.cpu, r.mem, r.net].map(f64::to_bits)).collect()
        };
        if want.is_err() {
            prop_assert_eq!(bits(&want_left), bits(&full));
        }
        let greedy_sized = enumeration_size(&req, pool.len() as u64) > placement::EXACT_LIMIT;
        if greedy_sized {
            let mut got_left = full.clone();
            prop_assert_eq!(&placement::solve_into(&mut got_left, &req), &want);
            prop_assert_eq!(bits(&got_left), bits(&want_left));
        }

        let adjacent = |op: usize| req.edges.iter().filter(|e| e.from == op || e.to == op).count();
        let undone = matches!(&want, Err(PlacementError::Infeasible { op })
            if req.operators.iter().enumerate().any(|(i, o)| i != *op && o.executors > 0)
                || req.operators[*op].executors > 1);
        for (slot, hit) in [
            want.is_ok(),
            undone,
            (0..n).any(|op| adjacent(op) > 8),
            req.edges.iter().any(|e| e.from == e.to),
            req.operators.iter().any(|o| o.executors == 0),
            greedy_sized,
        ]
        .into_iter()
        .enumerate()
        {
            GREEDY_COVERED[slot].fetch_add(u32::from(hit), Ordering::Relaxed);
        }
    }
}

#[test]
fn greedy_kernel_matches_the_kernel_it_replaced() {
    greedy_kernel_cases();
    let covered = GREEDY_COVERED.each_ref().map(|c| c.load(Ordering::Relaxed));
    assert!(
        covered.iter().all(|&c| c >= 50),
        "draw too narrow: {covered:?} (feasible, infeasible, >8 adjacent edges, self-loop, \
         zero-executor operator, beyond EXACT_LIMIT)"
    );
}

/// Two optima of equal cost: the chain co-locates on either machine for
/// free, and the solver must return the lexicographically smallest
/// `counts` — all of operator 0 on the last machine that holds the chain.
#[test]
fn exact_solver_breaks_ties_towards_smallest_counts() {
    let pool = MachinePool::uniform(3, ResourceProfile::uniform(2.0)).unwrap();
    let req = request(&[(1, 1.0), (1, 1.0)], &[(0, 1, 5.0)]);
    let solved = placement::solve(&pool, &req).unwrap();
    assert_eq!(
        solved,
        Placement::from_counts(vec![vec![0, 0, 1], vec![0, 0, 1]])
    );
    assert_eq!(
        solved,
        reference_oracle(&mut capacities(&pool), &req).unwrap()
    );
    // With the last machine too small for the pair, the tie is between
    // machines 0 and 1, and machine 1 gives the smaller counts.
    let mut specs = pool.machines().to_vec();
    specs[2].capacity = ResourceProfile::uniform(1.0);
    let pool = MachinePool::new(specs).unwrap();
    let solved = placement::solve(&pool, &req).unwrap();
    assert_eq!(
        solved,
        Placement::from_counts(vec![vec![0, 1, 0], vec![0, 1, 0]])
    );
}

/// The exact solver's worst case at the `EXACT_LIMIT` edge: a `(1,1)`
/// chain on 64 machines (64² = 4096 placements) that each hold exactly
/// one executor, so co-location is impossible everywhere, no placement
/// beats the first and the bound never cuts. Still solved exactly.
#[test]
fn exact_solver_survives_a_pool_with_no_colocation() {
    let pool = MachinePool::uniform(64, ResourceProfile::uniform(1.0)).unwrap();
    let req = request(&[(1, 1.0), (1, 1.0)], &[(0, 1, 7.0)]);
    let solved = placement::solve(&pool, &req).unwrap();
    assert_eq!(solved, placement::oracle(&pool, &req).unwrap());
    assert_eq!(
        solved,
        reference_oracle(&mut capacities(&pool), &req).unwrap()
    );
    assert_eq!(solved.count(0, 63), 1);
    assert_eq!(solved.count(1, 62), 1);
    assert!((solved.cross_rate(&req.edges) - 7.0).abs() < EPS);
}

/// One drawn row of a dense placement matrix over `machines` machines:
/// kind 0 is a zero row (a zero-executor operator), kind 1 scatters the
/// drawn `(machine, count)` cells, kind 2 fills every machine from a
/// xorshift stream seeded with `seed` (mostly non-zero, counts up to 3).
fn dense_row(machines: usize, kind: u8, seed: u64, cells: &[(usize, u32)]) -> Vec<u32> {
    let mut row = vec![0u32; machines];
    match kind {
        0 => {}
        1 => {
            for &(m, c) in cells {
                row[m % machines] += c;
            }
        }
        _ => {
            let mut state = seed | 1;
            for count in &mut row {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *count = (state % 4) as u32;
            }
        }
    }
    row
}

/// `1 − Σ_m (c_from[m]/k_from)·(c_to[m]/k_to)` over every machine, zero
/// terms included: the dense formula the sparse one must match bit for bit.
fn dense_cross_probability(dense: &[Vec<u32>], from: usize, to: usize) -> f64 {
    let kf = dense[from].iter().sum::<u32>() as f64;
    let kt = dense[to].iter().sum::<u32>() as f64;
    if kf == 0.0 || kt == 0.0 {
        return 0.0;
    }
    let mut colocated = 0.0;
    for (&cf, &ct) in dense[from].iter().zip(&dense[to]) {
        colocated += (cf as f64 / kf) * (ct as f64 / kt);
    }
    (1.0 - colocated).max(0.0)
}

/// What the `sparse_placement_cases` draw covered: `[a zero row, a machine
/// with no executor of any operator, two equal matrices, two different
/// ones of the same shape, more than 100 machines]`.
static SPARSE_COVERED: [AtomicU32; 5] = [const { AtomicU32::new(0) }; 5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The body of `sparse_placement_equals_its_dense_matrix`: dense
    /// matrices of 1–5 operators on 1–300 machines — zero rows, scattered
    /// cells and fully dense rows — read through the sparse placement,
    /// against the dense reference computed here. Every accessor returns
    /// the same value (floats to the bit), `==` agrees with matrix
    /// equality, and the dense rows come back out exactly.
    fn sparse_placement_cases(
        machines in 1usize..=300,
        rows in vec((0u8..3, 0u64..u64::MAX, vec((0usize..300, 1u32..=5), 0..=8)), 1..=5),
        profiles in vec((0u32..=9, 0u32..=9, 0u32..=9), 5),
        raw_edges in vec((0usize..5, 0usize..5, 0.0f64..10.0), 0..=6),
        tweak in (0usize..5, 0usize..300, 0u32..4),
    ) {
        let dense: Vec<Vec<u32>> = rows
            .iter()
            .map(|(kind, seed, cells)| dense_row(machines, *kind, *seed, cells))
            .collect();
        let n = dense.len();
        let placement = Placement::from_counts(dense.clone());
        prop_assert_eq!((placement.operators(), placement.machines()), (n, machines));

        // Counts, totals, and the round trip back to dense rows.
        let totals: Vec<u32> = dense.iter().map(|row| row.iter().sum()).collect();
        let mut round_trip = vec![vec![0u32; machines]; n];
        for (op, row) in dense.iter().enumerate() {
            for (m, &c) in row.iter().enumerate() {
                prop_assert_eq!(placement.count(op, m), c);
            }
            let cells: Vec<(usize, u32)> = placement.counts_of(op).collect();
            prop_assert!(cells.windows(2).all(|w| w[0].0 < w[1].0), "machines ascend");
            for (m, c) in cells {
                prop_assert!(c > 0, "a zero cell was kept");
                round_trip[op][m] = c;
            }
            prop_assert_eq!(placement.executors_of(op), totals[op]);
        }
        prop_assert_eq!(&round_trip, &dense);
        prop_assert_eq!(placement.allocation(), totals.clone());
        prop_assert!(placement.allocation_matches(&totals));
        let mut off_by_one = totals.clone();
        off_by_one[tweak.0 % n] += 1;
        prop_assert!(!placement.allocation_matches(&off_by_one));
        prop_assert!(!placement.allocation_matches(&totals[..n - 1]));

        // Usage, with profiles whose products round.
        let profiles: Vec<ResourceProfile> = profiles[..n]
            .iter()
            .map(|&(cpu, mem, net)| {
                let units = |u: u32| f64::from(u) * 0.1 + 0.013;
                ResourceProfile { cpu: units(cpu), mem: units(mem), net: units(net) }
            })
            .collect();
        let mut want_usage = vec![ResourceProfile::uniform(0.0); machines];
        for (row, p) in dense.iter().zip(&profiles) {
            for (used, &c) in want_usage.iter_mut().zip(row) {
                let c = c as f64;
                used.cpu += c * p.cpu;
                used.mem += c * p.mem;
                used.net += c * p.net;
            }
        }
        let bits = |usage: &[ResourceProfile]| -> Vec<[u64; 3]> {
            usage.iter().map(|u| [u.cpu, u.mem, u.net].map(f64::to_bits)).collect()
        };
        prop_assert_eq!(bits(&placement.usage(&profiles)), bits(&want_usage));

        // Crossing probabilities on every ordered pair, self-loops included,
        // and the rate-weighted sums over the drawn edges.
        for from in 0..n {
            for to in 0..n {
                prop_assert_eq!(
                    placement.cross_probability(from, to).to_bits(),
                    dense_cross_probability(&dense, from, to).to_bits(),
                    "edge {} -> {}", from, to
                );
            }
        }
        let edges: Vec<EdgeTraffic> = raw_edges
            .iter()
            .map(|&(from, to, rate)| EdgeTraffic { from: from % n, to: to % n, rate })
            .collect();
        let want_rate: f64 = edges
            .iter()
            .map(|e| e.rate * dense_cross_probability(&dense, e.from, e.to))
            .sum();
        prop_assert_eq!(placement.cross_rate(&edges).to_bits(), want_rate.to_bits());
        let total_rate: f64 = edges.iter().map(|e| e.rate).sum();
        let want_fraction = if total_rate <= 0.0 { 0.0 } else { want_rate / total_rate };
        prop_assert_eq!(placement.cross_fraction(&edges).to_bits(), want_fraction.to_bits());

        // Equality: a matrix with one count raised by `tweak.2` (equal when
        // it is 0) or cleared (3), and one with an extra, empty machine.
        let mut other = dense.clone();
        let (op, m) = (tweak.0 % n, tweak.1 % machines);
        other[op][m] = if tweak.2 == 3 { 0 } else { other[op][m] + tweak.2 };
        prop_assert_eq!(placement == Placement::from_counts(other.clone()), other == dense);
        let mut wider = dense.clone();
        for row in &mut wider {
            row.push(0);
        }
        prop_assert!(placement != Placement::from_counts(wider));

        for (slot, hit) in [
            totals.contains(&0),
            (0..machines).any(|m| dense.iter().all(|row| row[m] == 0)),
            other == dense,
            other != dense,
            machines > 100,
        ]
        .into_iter()
        .enumerate()
        {
            SPARSE_COVERED[slot].fetch_add(u32::from(hit), Ordering::Relaxed);
        }
    }
}

#[test]
fn sparse_placement_equals_its_dense_matrix() {
    sparse_placement_cases();
    let covered = SPARSE_COVERED.each_ref().map(|c| c.load(Ordering::Relaxed));
    assert!(
        covered.iter().all(|&c| c >= 50),
        "draw too narrow: {covered:?} (zero row, empty machine, equal, different, > 100 machines)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every solver places each operator's executors exactly once and
    /// never exceeds any machine's capacity vector.
    #[test]
    fn placements_are_exact_and_capacity_respecting(
        machines in 1usize..=4,
        cap in 2.0f64..8.0,
        ops in vec((1u32..=4, 0.2f64..1.0), 1..=6),
        raw_edges in vec((0usize..6, 0usize..6, 0.1f64..10.0), 0..=8),
    ) {
        let pool = MachinePool::uniform(machines, ResourceProfile::uniform(cap)).unwrap();
        let req = request(&ops, &raw_edges);
        let want: Vec<u32> = ops.iter().map(|&(k, _)| k).collect();
        for (label, result) in [
            ("solve", placement::solve(&pool, &req)),
            ("greedy", placement::greedy(&pool, &req)),
            ("round_robin", placement::round_robin(&pool, &req)),
        ] {
            let Ok(p) = result else {
                // Infeasible draws are legitimate (demand can exceed the
                // pool); nothing to check for this solver.
                continue;
            };
            prop_assert_eq!(
                p.allocation(), want.clone(),
                "{} lost or duplicated executors", label
            );
            prop_assert_eq!(p.machines(), machines);
            assert_within_capacity(&p, &pool, &req, label)?;
        }
    }

    /// On oracle-sized instances the dispatcher IS the exhaustive oracle,
    /// and the oracle's cross-machine traffic never exceeds the greedy
    /// heuristic's (it enumerates every split the greedy could pick).
    #[test]
    fn solver_is_exact_on_small_instances(
        machines in 2usize..=3,
        cap in 2.0f64..8.0,
        ops in vec((1u32..=3, 0.2f64..0.9), 1..=3),
        raw_edges in vec((0usize..3, 0usize..3, 0.1f64..10.0), 0..=6),
    ) {
        let pool = MachinePool::uniform(machines, ResourceProfile::uniform(cap)).unwrap();
        let req = request(&ops, &raw_edges);
        let oracle = placement::oracle(&pool, &req);
        let solved = placement::solve(&pool, &req);
        match (&oracle, &solved) {
            (Ok(o), Ok(s)) => {
                prop_assert_eq!(
                    o, s,
                    "solve() must dispatch to the oracle on small instances"
                );
                if let Ok(g) = placement::greedy(&pool, &req) {
                    prop_assert!(
                        o.cross_rate(&req.edges) <= g.cross_rate(&req.edges) + EPS,
                        "oracle ({}) lost to greedy ({})",
                        o.cross_rate(&req.edges),
                        g.cross_rate(&req.edges)
                    );
                }
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(
                false,
                "oracle and solve disagree on feasibility: {oracle:?} vs {solved:?}"
            ),
        }
    }

    /// Fleet planning is order-independent: permuting the shard list
    /// produces the identical placement for every shard name, and the
    /// shards' combined usage still fits the shared pool.
    #[test]
    fn fleet_plan_is_deterministic_across_shard_orders(
        machines in 2usize..=4,
        cap in 4.0f64..12.0,
        shards in vec((vec((1u32..=3, 0.2f64..0.8), 1..=3), vec((0usize..3, 0usize..3, 0.1f64..5.0), 0..=4)), 2..=4),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let pool = MachinePool::uniform(machines, ResourceProfile::uniform(cap)).unwrap();
        let named: Vec<(String, PlacementRequest)> = shards
            .iter()
            .enumerate()
            .map(|(i, (ops, edges))| (format!("shard-{i}"), request(ops, edges)))
            .collect();

        // Fisher–Yates with a deterministic xorshift: an arbitrary
        // presentation order for the same fleet.
        let mut permuted = named.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..permuted.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            permuted.swap(i, (state % (i as u64 + 1)) as usize);
        }

        match (placement::plan(&pool, &named), placement::plan(&pool, &permuted)) {
            (Ok(a), Ok(b)) => {
                for (i, (name, req)) in named.iter().enumerate() {
                    let j = permuted.iter().position(|(n, _)| n == name).unwrap();
                    prop_assert_eq!(
                        &a[i], &b[j],
                        "shard {} placed differently depending on order", name
                    );
                    let want: Vec<u32> =
                        req.operators.iter().map(|o| o.executors).collect();
                    prop_assert_eq!(a[i].allocation(), want);
                }
                // Combined usage across all shards fits every machine.
                let mut used = vec![ResourceProfile::uniform(0.0); machines];
                for (p, (_, req)) in a.iter().zip(&named) {
                    let profiles: Vec<ResourceProfile> =
                        req.operators.iter().map(|o| o.profile).collect();
                    for (m, u) in p.usage(&profiles).into_iter().enumerate() {
                        used[m].cpu += u.cpu;
                        used[m].mem += u.mem;
                        used[m].net += u.net;
                    }
                }
                for (m, u) in used.iter().enumerate() {
                    prop_assert!(
                        u.cpu <= cap + EPS && u.mem <= cap + EPS && u.net <= cap + EPS,
                        "machine {m} over shared capacity: {u:?}"
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "plan feasibility depends on shard order: {a:?} vs {b:?}"
            ),
        }
    }

    /// The warm incremental path under randomized drift: each window one
    /// event fires — allocation drift, edge-rate wobble inside or outside
    /// the 5% band, shard add/remove churn, or a pool capacity change —
    /// and the epoch-band protocol drives [`FleetPlacementState`].
    /// Invariants: live placements always fit the pool; a window with no
    /// real change replans `Unchanged`; and wherever a full re-solve fires
    /// (or the state is settled at zero drift) the cached placements equal
    /// [`placement::plan`] from scratch, bit for bit — including
    /// feasibility, when the drawn demand exceeds the pool.
    #[test]
    fn incremental_placement_tracks_plan_under_drift(
        machines in 2usize..=4,
        cap in 6.0f64..14.0,
        base in vec((vec((1u32..=3, 0.2f64..0.8), 1..=3), vec((0usize..3, 0usize..3, 0.5f64..5.0), 0..=4)), 2..=5),
        events in vec((0usize..8, 0usize..8, 0u8..5, 0.0f64..1.0), 1..=12),
    ) {
        let mut cur_cap = cap;
        let mut pool = MachinePool::uniform(machines, ResourceProfile::uniform(cur_cap)).unwrap();
        // The fleet's *measured* requests; the state caches what it last
        // accepted through the band.
        let mut fleet: Vec<(String, PlacementRequest)> = base
            .iter()
            .enumerate()
            .map(|(i, (ops, edges))| (format!("shard-{i}"), request(ops, edges)))
            .collect();
        let mut state = FleetPlacementState::new();
        let mut prev_ok = true;

        for (w, &(s_raw, o_raw, kind, mag)) in events.iter().enumerate() {
            // One drift event.
            let mut pool_changed = false;
            let mut churned = false;
            match kind {
                0 => {
                    // Allocation drift: cycle one operator's executors.
                    let s = s_raw % fleet.len();
                    let (_, req) = &mut fleet[s];
                    let o = o_raw % req.operators.len();
                    let op = &mut req.operators[o];
                    op.executors = op.executors % 3 + 1;
                }
                1 => {
                    // In-band rate wobble (≤ 4% of the measured rate —
                    // usually inside the 5% band of the cached one).
                    let s = s_raw % fleet.len();
                    let (_, req) = &mut fleet[s];
                    if !req.edges.is_empty() {
                        let n = req.edges.len();
                        req.edges[o_raw % n].rate *= 1.0 + 0.04 * mag;
                    }
                }
                2 => {
                    // Out-of-band shift: far past any band.
                    let s = s_raw % fleet.len();
                    let (_, req) = &mut fleet[s];
                    if !req.edges.is_empty() {
                        let n = req.edges.len();
                        req.edges[o_raw % n].rate = req.edges[o_raw % n].rate * 1.5 + 1.0;
                    }
                }
                3 => {
                    // Churn: drop a shard (never the last) or add one.
                    churned = true;
                    if fleet.len() > 1 && s_raw % 2 == 0 {
                        let s = s_raw % fleet.len();
                        fleet.remove(s);
                    } else {
                        fleet.push((format!("new-{w}"), request(&[(1, 0.3)], &[])));
                    }
                }
                _ => {
                    // Pool capacity change: every machine grows ≥ 5%.
                    pool_changed = true;
                    cur_cap *= 1.05 + 0.15 * mag;
                    pool =
                        MachinePool::uniform(machines, ResourceProfile::uniform(cur_cap)).unwrap();
                }
            }

            // The fleet-layer window protocol, band included.
            state.begin_window();
            state.sync_pool(&pool);
            let mut touched = false;
            for (name, measured) in &fleet {
                let slot = match state.slot_of(name) {
                    Some(slot) => slot,
                    None => {
                        touched = true;
                        state.insert(name)
                    }
                };
                if !band_matches(state.request(slot), measured) {
                    touched = true;
                    state.touch(slot).clone_from(measured);
                }
                state.mark_seen(slot);
            }
            match state.replan() {
                Ok(outcome) => {
                    assert_fleet_within_capacity(&state, &fleet, &pool, w)?;
                    if prev_ok && !touched && !churned && !pool_changed {
                        prop_assert_eq!(
                            outcome,
                            ReplanOutcome::Unchanged,
                            "window {}: nothing changed but the state replanned",
                            w
                        );
                    }
                    if outcome == ReplanOutcome::FullSolve
                        || (outcome == ReplanOutcome::Unchanged && state.drift() == 0.0)
                    {
                        let cached = cached_fleet(&state, &fleet);
                        let reference = placement::plan(&pool, &cached);
                        prop_assert!(
                            reference.is_ok(),
                            "window {w}: warm path solved what plan cannot"
                        );
                        for ((name, _), want) in cached.iter().zip(&reference.unwrap()) {
                            prop_assert_eq!(
                                state.placement(state.slot_of(name).unwrap()),
                                want,
                                "window {}: shard {} diverged from plan()",
                                w,
                                name
                            );
                        }
                    }
                    prev_ok = true;
                }
                Err(_) => {
                    // A failed batch solve must mean the demand genuinely
                    // does not fit — plan() from scratch fails identically.
                    let cached = cached_fleet(&state, &fleet);
                    prop_assert!(
                        placement::plan(&pool, &cached).is_err(),
                        "window {w}: warm path failed where plan succeeds"
                    );
                    prev_ok = false;
                }
            }
        }

        // Closing anchor: force a batch re-solve and cross-check against
        // plan one last time (covers runs that ended mid-repair).
        state.begin_window();
        state.sync_pool(&pool);
        for (name, _) in &fleet {
            let slot = state.slot_of(name).unwrap_or_else(|| state.insert(name));
            state.mark_seen(slot);
        }
        state.invalidate();
        let cached = cached_fleet(&state, &fleet);
        match (state.replan(), placement::plan(&pool, &cached)) {
            (Ok(outcome), Ok(reference)) => {
                prop_assert_eq!(outcome, ReplanOutcome::FullSolve);
                for ((name, _), want) in cached.iter().zip(&reference) {
                    prop_assert_eq!(
                        state.placement(state.slot_of(name).unwrap()),
                        want,
                        "forced full solve diverged from plan() for {}",
                        name
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "forced full solve and plan disagree on feasibility: {a:?} vs {b:?}"
            ),
        }
    }
}
