//! The DRS resource-scheduling algorithms (paper §III-C).
//!
//! Two optimisation problems are solved:
//!
//! * **Program 4** — given at most `Kmax` processors, place them on operators
//!   to minimise the expected total sojourn time `E[T]`. Solved by
//!   [`assign_processors`] (Algorithm 1): start every operator at its minimum
//!   stable count, then repeatedly give one processor to the operator with
//!   the largest marginal benefit `δ_i = λ_i·(E[T_i](k_i) − E[T_i](k_i+1))`.
//!   Because each `E[T_i]` is convex in `k_i`, the greedy solution is exactly
//!   optimal (Theorem 1).
//! * **Program 6** — find the *fewest* processors for which `E[T] ≤ Tmax`.
//!   Solved by [`min_processors_for_target`] with the same greedy ascent,
//!   stopping as soon as the target is met.
//!
//! Heterogeneous processors (paper §III-A) need no solver of their own: a
//! class `s` times as fast serves at `s·µ_i`, so the caller scales `µ_i`
//! when it builds the network, and each `E[T_i]` stays convex.
//!
//! # Incremental complexity
//!
//! The paper argues (Table II) that the scheduling computation must stay
//! negligible inside the measure→schedule→migrate loop. Both solvers
//! therefore run on a max-heap of per-operator marginal benefits backed by
//! the O(1)-stepping evaluators of [`drs_queueing::incremental`]:
//! convexity guarantees that granting a processor to operator `i` changes
//! only `δ_i`, so each greedy step is one heap pop + one O(1) model update +
//! one push, for `O((n + Kmax)·log n)` total instead of the naive
//! `O(Kmax·n·k̄)` rescan (each rescan re-running the `O(k)` Erlang-B
//! recurrence per operator). The original from-scratch implementation is
//! retained as [`assign_processors_reference`] /
//! [`min_processors_for_target_reference`]: an oracle for property tests and
//! the `crates/bench` comparison benchmarks, which measure the heap path
//! ≈ 25× faster at `Kmax = 192` on the 3-operator Table II network (7.9 µs
//! vs 197.5 µs) and ≈ 140× faster on a 32-operator network with 1024
//! surplus processors.
//!
//! [`assign_processors_exhaustive`] provides a brute-force reference used by
//! tests and the ablation benchmarks to confirm greedy optimality.

use drs_queueing::incremental::NetworkSojourn;
use drs_queueing::jackson::{JacksonError, JacksonNetwork};
use std::collections::BinaryHeap;
use std::fmt;

/// Error from the scheduling algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Even the minimum stable allocation needs more processors than are
    /// available (Algorithm 1, line 5).
    InsufficientProcessors {
        /// Processors required for stability.
        required: u64,
        /// Processors available (`Kmax`).
        available: u32,
    },
    /// The latency target is below the no-queueing lower bound
    /// `Σ λ_i/µ_i / λ0`, so no finite allocation can reach it.
    TargetUnreachable {
        /// The requested expected-sojourn target (seconds).
        target: f64,
        /// The theoretical lower bound (seconds).
        lower_bound: f64,
    },
    /// The target was not met within the provided processor cap.
    CapExceeded {
        /// The processor cap that was hit.
        cap: u32,
        /// Best expected sojourn achieved at the cap (seconds).
        best: f64,
    },
    /// The underlying performance model rejected the inputs.
    Model(JacksonError),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::InsufficientProcessors {
                required,
                available,
            } => write!(
                f,
                "insufficient processors: stability needs {required}, only {available} available"
            ),
            ScheduleError::TargetUnreachable {
                target,
                lower_bound,
            } => write!(
                f,
                "target {target}s unreachable: lower bound is {lower_bound}s"
            ),
            ScheduleError::CapExceeded { cap, best } => {
                write!(f, "processor cap {cap} reached; best E[T] = {best}s")
            }
            ScheduleError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScheduleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScheduleError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JacksonError> for ScheduleError {
    fn from(e: JacksonError) -> Self {
        ScheduleError::Model(e)
    }
}

/// The result of a scheduling run: an allocation plus its model-predicted
/// expected sojourn time.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    per_operator: Vec<u32>,
    expected_sojourn: f64,
}

impl Allocation {
    /// Processors assigned to each operator, in model index order.
    pub fn per_operator(&self) -> &[u32] {
        &self.per_operator
    }

    /// Total processors used.
    pub fn total(&self) -> u64 {
        self.per_operator.iter().map(|&k| u64::from(k)).sum()
    }

    /// The model-predicted expected total sojourn time (seconds).
    pub fn expected_sojourn(&self) -> f64 {
        self.expected_sojourn
    }

    /// Consumes the allocation, returning the raw vector.
    pub fn into_vec(self) -> Vec<u32> {
        self.per_operator
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, k) in self.per_operator.iter().enumerate() {
            if i > 0 {
                write!(f, ":")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, ") E[T]={:.4}s", self.expected_sojourn)
    }
}

/// A benefit-heap entry: the marginal benefit of granting `key` its next
/// processor, valid until `key` is incremented (by convexity nothing else
/// invalidates it). Largest δ wins; ties break towards the smallest key so
/// the heap picks exactly what a reference argmax scan would. `key` is an
/// operator index here and a `(shard, operator)` pair in the fleet
/// negotiator (`crate::fleet`), which shares this ordering.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate<K> {
    pub(crate) delta: f64,
    pub(crate) key: K,
}

impl<K: Ord> PartialEq for Candidate<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl<K: Ord> Eq for Candidate<K> {}

impl<K: Ord> PartialOrd for Candidate<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for Candidate<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.delta
            .total_cmp(&other.delta)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// Builds the initial benefit heap over all operators of `state`.
fn benefit_heap(state: &NetworkSojourn) -> BinaryHeap<Candidate<usize>> {
    (0..state.len())
        .map(|op| Candidate {
            delta: state.weighted_marginal_benefit(op),
            key: op,
        })
        .collect()
}

/// Pops the best candidate, grants it a processor, and re-inserts its
/// refreshed benefit. O(log n).
fn grant_best(state: &mut NetworkSojourn, heap: &mut BinaryHeap<Candidate<usize>>) {
    let best = heap.pop().expect("heap has one entry per operator");
    state.increment(best.key);
    heap.push(Candidate {
        delta: state.weighted_marginal_benefit(best.key),
        key: best.key,
    });
}

/// Algorithm 1 (`AssignProcessors`): optimally place at most `k_max`
/// processors to minimise `E[T]`.
///
/// Uses *all* `k_max` processors: by monotonicity an extra processor never
/// hurts, and by convexity the greedy argmax placement is exactly optimal.
///
/// Runs in `O((n + Kmax)·log n)` via the lazy benefit heap (see the module
/// docs); produces bit-identical allocations to
/// [`assign_processors_reference`].
///
/// # Errors
///
/// * [`ScheduleError::InsufficientProcessors`] — stability alone needs more
///   than `k_max` processors.
pub fn assign_processors(
    network: &JacksonNetwork,
    k_max: u32,
) -> Result<Allocation, ScheduleError> {
    let mut state = NetworkSojourn::at_min_stable(network);
    let required: u64 = state.allocation().iter().map(|&k| u64::from(k)).sum();
    if required > u64::from(k_max) {
        return Err(ScheduleError::InsufficientProcessors {
            required,
            available: k_max,
        });
    }
    if !state.is_empty() {
        let mut heap = benefit_heap(&state);
        for _ in 0..(u64::from(k_max) - required) {
            grant_best(&mut state, &mut heap);
        }
    }
    let per_operator = state.allocation();
    // One exact O(n) re-aggregation so the reported figure carries no
    // incremental rounding at all.
    let expected_sojourn = network
        .expected_sojourn(&per_operator)
        .expect("allocation length matches network");
    Ok(Allocation {
        per_operator,
        expected_sojourn,
    })
}

/// Greedy steps attempted with the plain reference walk before the heap
/// machinery is built. For loose targets the answer sits within a handful
/// of grants of the min-stable floor, where stepper/heap initialisation
/// dominates the whole call (the ROADMAP small-n/small-surplus cutover);
/// measured break-even on the Table II network is ≈ 20 grants.
const SMALL_SURPLUS_CUTOVER: u64 = 16;

/// Program 6: the smallest total allocation whose model-predicted `E[T]` is
/// at most `t_max` seconds, found by the same greedy ascent as Algorithm 1.
///
/// `cap` bounds the total processors the search may use, protecting callers
/// from unbounded growth when `t_max` sits barely above the theoretical
/// minimum.
///
/// The first `SMALL_SURPLUS_CUTOVER` (16) grants run the from-scratch
/// reference walk directly: when the surplus over the min-stable floor is
/// that small, building the benefit heap and the incremental steppers
/// costs more than the walk itself. Past the cutover the search switches
/// to the heap machinery, *continuing from the probed allocation* — both
/// paths take bit-identical greedy steps (the steppers evaluate the exact
/// Erlang operation sequence and heap ties break towards the smallest
/// index, matching the reference argmax scan), so the cutover is
/// observationally transparent.
///
/// The heap phase runs in `O((n + K)·log n)` for a `K`-processor answer:
/// the network `E[T]` consulted after every step is the O(1) cached
/// aggregate. The cached and exact aggregates sum in different orders and
/// may disagree by ulps in *either* direction, so near the target boundary
/// every decision is confirmed against an exact O(n) re-aggregation — the
/// cache alone never grants a processor (which could overshoot the
/// reference's minimal answer) nor declares the target met (undershoot);
/// only O(1) steps can sit inside the confirmation band, so the
/// asymptotics hold.
///
/// # Errors
///
/// * [`ScheduleError::TargetUnreachable`] — `t_max` is below the
///   zero-queueing lower bound `Σ λ_i/µ_i / λ0`; no allocation can meet it.
/// * [`ScheduleError::CapExceeded`] — the target was not met within `cap`
///   processors.
pub fn min_processors_for_target(
    network: &JacksonNetwork,
    t_max: f64,
    cap: u32,
) -> Result<Allocation, ScheduleError> {
    let mut per_operator = Vec::new();
    let expected_sojourn = min_processors_for_target_into(network, t_max, cap, &mut per_operator)?;
    Ok(Allocation {
        per_operator,
        expected_sojourn,
    })
}

/// In-place [`min_processors_for_target`]: writes the allocation into
/// `allocation` (reusing its buffer, sized to the operator count exactly)
/// and returns its model-predicted `E[T]`. An answer within the
/// small-surplus cutover of the min-stable floor — the common case for a
/// caller re-solving one shard per window — allocates nothing once the
/// buffer fits.
///
/// # Errors
///
/// As for [`min_processors_for_target`]; on `Err` the contents of
/// `allocation` are unspecified.
pub fn min_processors_for_target_into(
    network: &JacksonNetwork,
    t_max: f64,
    cap: u32,
    allocation: &mut Vec<u32>,
) -> Result<f64, ScheduleError> {
    let lower_bound = no_queueing_bound(network);
    if t_max < lower_bound {
        return Err(ScheduleError::TargetUnreachable {
            target: t_max,
            lower_bound,
        });
    }
    allocation.clear();
    allocation.reserve_exact(network.len());
    allocation.extend(network.operators().iter().map(|q| q.min_stable_servers()));
    let mut total: u64 = allocation.iter().map(|&k| u64::from(k)).sum();
    if total > u64::from(cap) {
        return Err(ScheduleError::InsufficientProcessors {
            required: total,
            available: cap,
        });
    }

    // Small-surplus probe: the reference walk, capped at the cutover.
    let mut current = network
        .expected_sojourn(allocation)
        .expect("allocation length matches network");
    let mut probed = 0u64;
    while current > t_max {
        if total >= u64::from(cap) {
            return Err(ScheduleError::CapExceeded { cap, best: current });
        }
        if probed == SMALL_SURPLUS_CUTOVER {
            break;
        }
        let best = argmax_marginal_benefit(network, allocation);
        allocation[best] += 1;
        total += 1;
        probed += 1;
        current = network
            .expected_sojourn(allocation)
            .expect("allocation length matches network");
    }
    if current <= t_max {
        return Ok(current);
    }

    // Large surplus: switch to the benefit heap, continuing the identical
    // greedy path from where the probe stopped.
    let mut state =
        NetworkSojourn::new(network, allocation).expect("allocation length matches network");
    // Relative width of the boundary band in which the cached aggregate is
    // not trusted on its own. Incremental Kahan summation is accurate to a
    // few ulps, so this is generous.
    const CONFIRM_BAND: f64 = 1e-9;
    let mut heap = benefit_heap(&state);
    let mut current = state.expected_sojourn();
    // Exact O(n) re-aggregation of the walk's position, which it leaves in
    // `allocation`.
    let mut exact_sojourn = |state: &NetworkSojourn| {
        state.write_allocation(allocation);
        network
            .expected_sojourn(allocation)
            .expect("allocation length matches network")
    };
    loop {
        if current <= t_max || current - t_max <= CONFIRM_BAND * current.abs() {
            // The cache says the target is met or is too close to call:
            // decide on the exact aggregate. When it disagrees (exact still
            // above target), fall through and grant another processor.
            let exact = exact_sojourn(&state);
            if exact <= t_max {
                return Ok(exact);
            }
        }
        if total >= u64::from(cap) {
            return Err(ScheduleError::CapExceeded {
                cap,
                best: exact_sojourn(&state),
            });
        }
        grant_best(&mut state, &mut heap);
        total += 1;
        current = state.expected_sojourn();
    }
}

/// The original from-scratch Algorithm 1: re-scans every operator and
/// re-runs the full Erlang-B recurrence on each of the `Kmax` greedy steps
/// (`O(Kmax·n·k̄)`).
///
/// Retained as the correctness oracle for the heap implementation: property
/// tests assert [`assign_processors`] matches it allocation-for-allocation,
/// and `crates/bench` benchmarks one against the other.
///
/// # Errors
///
/// As for [`assign_processors`].
pub fn assign_processors_reference(
    network: &JacksonNetwork,
    k_max: u32,
) -> Result<Allocation, ScheduleError> {
    let mut allocation = network.min_stable_allocation();
    let required: u64 = allocation.iter().map(|&k| u64::from(k)).sum();
    if required > u64::from(k_max) {
        return Err(ScheduleError::InsufficientProcessors {
            required,
            available: k_max,
        });
    }
    let mut remaining = u64::from(k_max) - required;
    while remaining > 0 {
        let best = argmax_marginal_benefit(network, &allocation);
        allocation[best] += 1;
        remaining -= 1;
    }
    let expected_sojourn = network
        .expected_sojourn(&allocation)
        .expect("allocation length matches network");
    Ok(Allocation {
        per_operator: allocation,
        expected_sojourn,
    })
}

/// The original from-scratch Program 6 ascent; the correctness oracle for
/// [`min_processors_for_target`].
///
/// # Errors
///
/// As for [`min_processors_for_target`].
pub fn min_processors_for_target_reference(
    network: &JacksonNetwork,
    t_max: f64,
    cap: u32,
) -> Result<Allocation, ScheduleError> {
    let lower_bound = no_queueing_bound(network);
    if t_max < lower_bound {
        return Err(ScheduleError::TargetUnreachable {
            target: t_max,
            lower_bound,
        });
    }
    let mut allocation = network.min_stable_allocation();
    let mut total: u64 = allocation.iter().map(|&k| u64::from(k)).sum();
    if total > u64::from(cap) {
        return Err(ScheduleError::InsufficientProcessors {
            required: total,
            available: cap,
        });
    }
    let mut current = network
        .expected_sojourn(&allocation)
        .expect("allocation length matches network");
    while current > t_max {
        if total >= u64::from(cap) {
            return Err(ScheduleError::CapExceeded { cap, best: current });
        }
        let best = argmax_marginal_benefit(network, &allocation);
        allocation[best] += 1;
        total += 1;
        current = network
            .expected_sojourn(&allocation)
            .expect("allocation length matches network");
    }
    Ok(Allocation {
        per_operator: allocation,
        expected_sojourn: current,
    })
}

/// Brute-force optimal assignment by enumerating every split of `k_max`
/// processors. Exponential in the number of operators — use only for tests
/// and ablation benchmarks on small networks.
///
/// Returns `None` when no stable allocation exists within `k_max`.
pub fn assign_processors_exhaustive(network: &JacksonNetwork, k_max: u32) -> Option<Allocation> {
    let n = network.len();
    let min = network.min_stable_allocation();
    let required: u64 = min.iter().map(|&k| u64::from(k)).sum();
    if required > u64::from(k_max) {
        return None;
    }
    let mut best: Option<Allocation> = None;
    let mut current = min.clone();
    // Distribute the surplus over operators via recursive enumeration.
    let surplus = (u64::from(k_max) - required) as u32;
    fn recurse(
        network: &JacksonNetwork,
        current: &mut Vec<u32>,
        op: usize,
        left: u32,
        best: &mut Option<Allocation>,
    ) {
        let n = current.len();
        if op == n - 1 {
            current[op] += left;
            let t = network
                .expected_sojourn(current)
                .expect("length matches network");
            if best.as_ref().is_none_or(|b| t < b.expected_sojourn) {
                *best = Some(Allocation {
                    per_operator: current.clone(),
                    expected_sojourn: t,
                });
            }
            current[op] -= left;
            return;
        }
        for give in 0..=left {
            current[op] += give;
            recurse(network, current, op + 1, left - give, best);
            current[op] -= give;
        }
    }
    if n == 0 {
        return None;
    }
    recurse(network, &mut current, 0, surplus, &mut best);
    best
}

/// The zero-queueing lower bound on `E[T]`: with unlimited processors every
/// tuple only pays its service time, so `E[T] → Σ λ_i·(1/µ_i) / λ0`.
pub fn no_queueing_bound(network: &JacksonNetwork) -> f64 {
    network
        .operators()
        .iter()
        .map(|op| op.arrival_rate() / op.service_rate())
        .sum::<f64>()
        / network.external_rate()
}

/// Index of the operator with the largest marginal benefit
/// `δ_i = λ_i · (E[T_i](k_i) − E[T_i](k_i+1))` (Algorithm 1, lines 8–12).
fn argmax_marginal_benefit(network: &JacksonNetwork, allocation: &[u32]) -> usize {
    let mut best_idx = 0;
    let mut best_delta = f64::NEG_INFINITY;
    for (i, (op, &k)) in network.operators().iter().zip(allocation).enumerate() {
        let delta = op.arrival_rate() * op.marginal_benefit(k);
        if delta > best_delta {
            best_delta = delta;
            best_idx = i;
        }
    }
    best_idx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper §V-B VLD-like network: three bolts behind a 13 tuple/s source
    /// with a 30x feature fan-out.
    fn vld_like() -> JacksonNetwork {
        JacksonNetwork::from_rates(13.0, &[(13.0, 1.6), (390.0, 40.0), (390.0, 450.0)]).unwrap()
    }

    #[test]
    fn greedy_uses_entire_budget() {
        let net = vld_like();
        let alloc = assign_processors(&net, 22).unwrap();
        assert_eq!(alloc.total(), 22);
        assert!(alloc.expected_sojourn().is_finite());
    }

    #[test]
    fn greedy_matches_exhaustive_on_vld_like() {
        let net = vld_like();
        for k_max in [20u32, 22, 25] {
            let greedy = assign_processors(&net, k_max).unwrap();
            let brute = assign_processors_exhaustive(&net, k_max).unwrap();
            assert!(
                (greedy.expected_sojourn() - brute.expected_sojourn()).abs() < 1e-12,
                "k_max={k_max}: greedy {} vs brute {}",
                greedy.expected_sojourn(),
                brute.expected_sojourn()
            );
        }
    }

    #[test]
    fn greedy_matches_exhaustive_on_asymmetric_network() {
        let net = JacksonNetwork::from_rates(
            10.0,
            &[(10.0, 4.0), (50.0, 9.0), (25.0, 30.0), (10.0, 2.5)],
        )
        .unwrap();
        let greedy = assign_processors(&net, 30).unwrap();
        let brute = assign_processors_exhaustive(&net, 30).unwrap();
        assert!((greedy.expected_sojourn() - brute.expected_sojourn()).abs() < 1e-12);
    }

    #[test]
    fn insufficient_processors_detected() {
        let net = vld_like();
        let required = net.min_total_servers();
        let err = assign_processors(&net, (required - 1) as u32).unwrap_err();
        assert!(matches!(err, ScheduleError::InsufficientProcessors { .. }));
    }

    #[test]
    fn exactly_minimum_budget_returns_min_allocation() {
        let net = vld_like();
        let min = net.min_stable_allocation();
        let alloc = assign_processors(&net, net.min_total_servers() as u32).unwrap();
        assert_eq!(alloc.per_operator(), min.as_slice());
    }

    #[test]
    fn min_processors_meets_target() {
        // The no-queueing bound of vld_like() is ≈ 1.44 s, so 1.6 s is a
        // tight but reachable target.
        let net = vld_like();
        let alloc = min_processors_for_target(&net, 1.6, 200).unwrap();
        assert!(alloc.expected_sojourn() <= 1.6);
        // Minimality: removing any one processor violates the target or
        // stability.
        let ks = alloc.per_operator().to_vec();
        for i in 0..ks.len() {
            let mut fewer = ks.clone();
            if fewer[i] == 0 {
                continue;
            }
            fewer[i] -= 1;
            let t = net.expected_sojourn(&fewer).unwrap();
            assert!(
                t > 1.6 || t.is_infinite(),
                "removing a processor from op {i} still meets target: {t}"
            );
        }
    }

    #[test]
    fn min_processors_monotone_in_target() {
        // Looser targets need no more processors.
        let net = vld_like();
        let tight = min_processors_for_target(&net, 1.6, 500).unwrap();
        let loose = min_processors_for_target(&net, 3.0, 500).unwrap();
        assert!(loose.total() <= tight.total());
    }

    #[test]
    fn unreachable_target_detected() {
        let net = vld_like();
        let bound = no_queueing_bound(&net);
        let err = min_processors_for_target(&net, bound * 0.5, 10_000).unwrap_err();
        assert!(matches!(err, ScheduleError::TargetUnreachable { .. }));
    }

    #[test]
    fn cap_exceeded_reported_with_best_effort() {
        let net = vld_like();
        let bound = no_queueing_bound(&net);
        // Target barely above the bound: needs a huge processor count.
        let err = min_processors_for_target(&net, bound * 1.0001, 40).unwrap_err();
        match err {
            ScheduleError::CapExceeded { cap, best } => {
                assert_eq!(cap, 40);
                assert!(best.is_finite() && best > bound);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn expa_expb_shape_scale_up_and_down() {
        // Fig. 10 logic: a tighter Tmax needs more processors than a looser
        // one (the paper's ExpA 500 ms vs ExpB 1000 ms, scaled to this
        // network's latency regime).
        let net = vld_like();
        let strict = min_processors_for_target(&net, 1.6, 500).unwrap();
        let relaxed = min_processors_for_target(&net, 3.0, 500).unwrap();
        assert!(strict.total() > relaxed.total());
    }

    #[test]
    fn allocation_display_matches_paper_notation() {
        let net = vld_like();
        let alloc = assign_processors(&net, 22).unwrap();
        let s = alloc.to_string();
        assert!(s.starts_with('('), "{s}");
        assert!(s.contains(':'), "{s}");
    }

    #[test]
    fn greedy_prefers_bottleneck_operator() {
        // One heavily loaded operator and one idle one: every surplus
        // processor should go to the busy one.
        let net = JacksonNetwork::from_rates(100.0, &[(100.0, 11.0), (1.0, 1000.0)]).unwrap();
        let alloc = assign_processors(&net, 16).unwrap();
        assert_eq!(alloc.per_operator()[1], 1);
        assert_eq!(alloc.per_operator()[0], 15);
    }

    #[test]
    fn scheduling_is_linear_in_kmax_shape() {
        // Not a timing test: just confirm the loop executes for large Kmax
        // without numeric failure (Table II exercises up to 192).
        let net = vld_like();
        let alloc = assign_processors(&net, 192).unwrap();
        assert_eq!(alloc.total(), 192);
        assert!(alloc.expected_sojourn() > 0.0);
    }

    #[test]
    fn no_queueing_bound_is_reached_asymptotically() {
        let net = vld_like();
        let bound = no_queueing_bound(&net);
        let big = assign_processors(&net, 5_000).unwrap();
        assert!((big.expected_sojourn() - bound) / bound < 0.01);
    }

    #[test]
    fn into_vec_round_trips() {
        let net = vld_like();
        let alloc = assign_processors(&net, 22).unwrap();
        let v = alloc.clone().into_vec();
        assert_eq!(v.as_slice(), alloc.per_operator());
    }

    #[test]
    fn heap_matches_reference_allocation_for_allocation() {
        let net = vld_like();
        for k_max in [20u32, 22, 48, 96, 192, 500] {
            let fast = assign_processors(&net, k_max).unwrap();
            let slow = assign_processors_reference(&net, k_max).unwrap();
            assert_eq!(fast.per_operator(), slow.per_operator(), "k_max={k_max}");
            assert_eq!(
                fast.expected_sojourn().to_bits(),
                slow.expected_sojourn().to_bits(),
                "k_max={k_max}"
            );
        }
    }

    #[test]
    fn heap_min_target_matches_reference() {
        let net = vld_like();
        for target in [1.5f64, 1.6, 2.0, 3.0, 10.0] {
            let fast = min_processors_for_target(&net, target, 10_000).unwrap();
            let slow = min_processors_for_target_reference(&net, target, 10_000).unwrap();
            assert_eq!(fast.per_operator(), slow.per_operator(), "target={target}");
            assert_eq!(fast.total(), slow.total(), "target={target}");
        }
    }

    #[test]
    fn min_target_parity_across_the_cutover_boundary() {
        // Sweep targets from barely-reachable to loose so the resulting
        // surplus over the min-stable floor crosses SMALL_SURPLUS_CUTOVER;
        // the probed walk and the heap continuation must both match the
        // reference exactly, whichever side serves the call.
        let net = vld_like();
        let bound = no_queueing_bound(&net);
        let floor = net.min_total_servers();
        let mut below = 0u32;
        let mut above = 0u32;
        for i in 0..40 {
            // Geometric slack from 3.0 down to 2e-4: the tight end needs
            // hundreds of processors, the loose end none at all.
            let slack = 3.0 * (2.0e-4f64 / 3.0).powf(f64::from(i) / 39.0);
            let target = bound * (1.0 + slack);
            let fast = min_processors_for_target(&net, target, 100_000).unwrap();
            let slow = min_processors_for_target_reference(&net, target, 100_000).unwrap();
            assert_eq!(fast.per_operator(), slow.per_operator(), "target {target}");
            assert_eq!(
                fast.expected_sojourn().to_bits(),
                slow.expected_sojourn().to_bits(),
                "target {target}"
            );
            if fast.total() - floor <= SMALL_SURPLUS_CUTOVER {
                below += 1;
            } else {
                above += 1;
            }
        }
        assert!(
            below >= 5 && above >= 5,
            "sweep must exercise both sides of the cutover (below {below}, above {above})"
        );
    }

    /// `min_processors_for_target` as it stood before it became a wrapper
    /// over `min_processors_for_target_into`: a fresh allocation vector per
    /// call and per exact re-aggregation.
    fn min_processors_for_target_before(
        network: &JacksonNetwork,
        t_max: f64,
        cap: u32,
    ) -> Result<Allocation, ScheduleError> {
        let lower_bound = no_queueing_bound(network);
        if t_max < lower_bound {
            return Err(ScheduleError::TargetUnreachable {
                target: t_max,
                lower_bound,
            });
        }
        let mut allocation = network.min_stable_allocation();
        let mut total: u64 = allocation.iter().map(|&k| u64::from(k)).sum();
        if total > u64::from(cap) {
            return Err(ScheduleError::InsufficientProcessors {
                required: total,
                available: cap,
            });
        }
        let mut current = network.expected_sojourn(&allocation).unwrap();
        let mut probed = 0u64;
        while current > t_max {
            if total >= u64::from(cap) {
                return Err(ScheduleError::CapExceeded { cap, best: current });
            }
            if probed == SMALL_SURPLUS_CUTOVER {
                break;
            }
            let best = argmax_marginal_benefit(network, &allocation);
            allocation[best] += 1;
            total += 1;
            probed += 1;
            current = network.expected_sojourn(&allocation).unwrap();
        }
        if current <= t_max {
            return Ok(Allocation {
                per_operator: allocation,
                expected_sojourn: current,
            });
        }
        let mut state = NetworkSojourn::new(network, &allocation).unwrap();
        const CONFIRM_BAND: f64 = 1e-9;
        let mut heap = benefit_heap(&state);
        let mut current = state.expected_sojourn();
        let exact_sojourn =
            |state: &NetworkSojourn| network.expected_sojourn(&state.allocation()).unwrap();
        loop {
            if current <= t_max || current - t_max <= CONFIRM_BAND * current.abs() {
                let exact = exact_sojourn(&state);
                if exact <= t_max {
                    return Ok(Allocation {
                        per_operator: state.allocation(),
                        expected_sojourn: exact,
                    });
                }
            }
            if total >= u64::from(cap) {
                return Err(ScheduleError::CapExceeded {
                    cap,
                    best: exact_sojourn(&state),
                });
            }
            grant_best(&mut state, &mut heap);
            total += 1;
            current = state.expected_sojourn();
        }
    }

    /// What the cases of `min_target_into_cases` covered:
    /// `[ok within the cutover, ok past it, unreachable, insufficient,
    /// cap exceeded within the cutover, cap exceeded past it]`.
    static COVERED: [std::sync::atomic::AtomicU32; 6] =
        [const { std::sync::atomic::AtomicU32::new(0) }; 6];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// The body of `min_target_into_matches_the_function_it_replaced`.
        fn min_target_into_cases(
            lambda0 in 0.5f64..50.0,
            ops in proptest::collection::vec((0.5f64..100.0, 0.2f64..8.0), 1..5),
            // Slack over the no-queueing bound, log-uniform over 1e-9..10
            // (below that: an unreachable target).
            slack_exp in -10.0f64..1.0,
            cap_kind in 0u8..4,
            stale in proptest::collection::vec(0u32..9, 0..7),
        ) {
            use std::sync::atomic::Ordering::Relaxed;
            let pairs: Vec<(f64, f64)> =
                ops.iter().map(|&(lambda, load)| (lambda, lambda / load)).collect();
            let net = JacksonNetwork::from_rates(lambda0, &pairs).unwrap();
            let floor = net.min_total_servers();
            let slack = if slack_exp < -9.0 { -0.1 } else { 10f64.powf(slack_exp) };
            let t_max = no_queueing_bound(&net) * (1.0 + slack);
            let cap = match cap_kind {
                0 => floor.saturating_sub(1) as u32,
                1 => (floor + 4) as u32,
                2 => (floor + SMALL_SURPLUS_CUTOVER + 2) as u32,
                _ => 100_000,
            };
            let want = min_processors_for_target_before(&net, t_max, cap);
            // Into a buffer still holding another shard's answer.
            let mut allocation = stale.clone();
            let got = min_processors_for_target_into(&net, t_max, cap, &mut allocation);
            let wrapped = min_processors_for_target(&net, t_max, cap);
            match (&want, &got) {
                (Ok(want), Ok(expected_sojourn)) => {
                    proptest::prop_assert_eq!(want.per_operator(), allocation.as_slice());
                    proptest::prop_assert_eq!(
                        want.expected_sojourn().to_bits(),
                        expected_sojourn.to_bits()
                    );
                    let past = want.total() - floor > SMALL_SURPLUS_CUTOVER;
                    COVERED[usize::from(past)].fetch_add(1, Relaxed);
                }
                (Err(want), Err(got)) => {
                    proptest::prop_assert_eq!(want, got);
                    let kind = match want {
                        ScheduleError::TargetUnreachable { .. } => 2,
                        ScheduleError::InsufficientProcessors { .. } => 3,
                        ScheduleError::CapExceeded { cap, .. } => {
                            4 + usize::from(u64::from(*cap) - floor > SMALL_SURPLUS_CUTOVER)
                        }
                        ScheduleError::Model(_) => unreachable!("lengths always match"),
                    };
                    COVERED[kind].fetch_add(1, Relaxed);
                }
                _ => proptest::prop_assert!(false, "{want:?} vs {got:?}"),
            }
            proptest::prop_assert_eq!(want, wrapped);
        }
    }

    #[test]
    fn min_target_into_matches_the_function_it_replaced() {
        min_target_into_cases();
        let covered = COVERED
            .each_ref()
            .map(|c| c.load(std::sync::atomic::Ordering::Relaxed));
        assert!(
            covered.iter().all(|&c| c >= 20),
            "draw too narrow: {covered:?} (ok ≤ cutover, ok > cutover, unreachable, \
             insufficient, cap ≤ cutover, cap > cutover)"
        );
    }

    #[test]
    fn heap_and_reference_agree_on_error_paths() {
        let net = vld_like();
        let required = net.min_total_servers() as u32;
        assert!(matches!(
            assign_processors_reference(&net, required - 1),
            Err(ScheduleError::InsufficientProcessors { .. })
        ));
        let bound = no_queueing_bound(&net);
        assert!(matches!(
            min_processors_for_target_reference(&net, bound * 0.5, 1_000),
            Err(ScheduleError::TargetUnreachable { .. })
        ));
        assert!(matches!(
            min_processors_for_target_reference(&net, bound * 1.0001, 40),
            Err(ScheduleError::CapExceeded { .. })
        ));
        assert!(matches!(
            min_processors_for_target(&net, bound * 1.0001, 40),
            Err(ScheduleError::CapExceeded { .. })
        ));
    }
}
