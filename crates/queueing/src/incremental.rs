//! Incremental evaluation of the Erlang and Jackson models.
//!
//! The greedy scheduler (Algorithm 1) explores allocations one processor at
//! a time: every step changes exactly one operator's `k_i` by `+1`. Evaluating
//! each candidate from scratch costs `O(k)` for the Erlang-B recurrence and
//! `O(n)` for the network aggregation, which made the original implementation
//! `O(Kmax · n · k̄)` overall. The two types here carry the recurrence state
//! across steps instead:
//!
//! * [`ErlangStepper`] pins an [`MmKQueue`] at a concrete server count and
//!   carries `B(k, a)` so that stepping `k → k+1` — and peeking at `E[T](k+1)`
//!   — is `O(1)` via `B(k+1) = a·B(k) / (k+1 + a·B(k))`.
//! * [`NetworkSojourn`] caches every operator's λ-weighted sojourn term and
//!   their compensated (Kahan) sum, so one operator's increment updates the
//!   network-wide `E[T]` in `O(1)` instead of re-aggregating all `n`
//!   operators.
//!
//! [`ErlangStepper`] follows *exactly* the same floating-point operation
//! sequence as the direct forms ([`crate::erlang::erlang_b`],
//! [`MmKQueue::expected_sojourn`]), so its stepped values are bit-identical
//! to from-scratch evaluation. [`NetworkSojourn`]'s cached network sum is
//! **not** bit-identical to a fresh aggregation — the incremental
//! `+new − old` updates order operations differently — only accurate to a
//! few ulps thanks to the compensation; boundary-sensitive callers (e.g.
//! Program 6's target test) must confirm near-threshold decisions against
//! an exact re-aggregation, as `drs_core::scheduler` does.

use crate::erlang::MmKQueue;
use crate::jackson::{JacksonError, JacksonNetwork};

/// An [`MmKQueue`] evaluated at a concrete server count, carrying the
/// Erlang-B recurrence state for O(1) stepping — in **both** directions
/// when built [`ErlangStepper::reversible`].
///
/// Stepping up unrolls the B recurrence once. Stepping down pops a carried
/// history of B values (the recurrence is numerically ill-conditioned to
/// invert, so the history is what makes decrements bit-identical to forward
/// evaluation). The history costs one `f64` per server level visited and
/// one allocation per stepper, which the ascent-only schedulers should not
/// pay — hence the two constructors: [`ErlangStepper::new`] (forward-only,
/// allocation-free) and [`ErlangStepper::reversible`].
///
/// # Examples
///
/// ```
/// use drs_queueing::erlang::MmKQueue;
/// use drs_queueing::incremental::ErlangStepper;
///
/// let q = MmKQueue::new(10.0, 3.0)?;
/// let mut s = ErlangStepper::reversible(q, q.min_stable_servers());
/// assert_eq!(s.expected_sojourn(), q.expected_sojourn(4));
/// s.step(); // k = 5, O(1)
/// assert_eq!(s.expected_sojourn(), q.expected_sojourn(5));
/// s.step_down(); // back to k = 4, O(1), bit-identical
/// assert_eq!(s.expected_sojourn(), q.expected_sojourn(4));
/// # Ok::<(), drs_queueing::erlang::InvalidQueue>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ErlangStepper {
    queue: MmKQueue,
    servers: u32,
    erlang_b: f64,
    /// `Some(history)` with `history[j] = B(j, a)` for `j < servers` when
    /// built reversible — the seeding loop visits them all anyway, so
    /// keeping them makes `step_down` O(1) *and* bit-identical to a
    /// from-scratch forward evaluation. `None` for forward-only steppers.
    history: Option<Vec<f64>>,
}

impl ErlangStepper {
    fn build(queue: MmKQueue, servers: u32, reversible: bool) -> Self {
        let a = queue.offered_load();
        let mut history = reversible.then(|| Vec::with_capacity(servers as usize + 1));
        let mut b = 1.0;
        for j in 1..=servers {
            if let Some(h) = &mut history {
                h.push(b);
            }
            let jb = f64::from(j);
            b = a * b / (jb + a * b);
        }
        ErlangStepper {
            queue,
            servers,
            erlang_b: b,
            history,
        }
    }

    /// Builds a forward-only stepper at `servers` processors. Costs
    /// `O(servers)` — the one-time price of seeding the recurrence — and
    /// performs no allocation.
    pub fn new(queue: MmKQueue, servers: u32) -> Self {
        Self::build(queue, servers, false)
    }

    /// Builds a stepper that also supports [`ErlangStepper::step_down`],
    /// carrying the B history (one `f64` per level).
    pub fn reversible(queue: MmKQueue, servers: u32) -> Self {
        Self::build(queue, servers, true)
    }

    /// The underlying queue model.
    pub(crate) fn queue(&self) -> &MmKQueue {
        &self.queue
    }

    /// The current server count `k`.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// The carried Erlang-B blocking probability `B(k, a)`.
    pub fn erlang_b(&self) -> f64 {
        self.erlang_b
    }

    /// Advances to `k + 1` in O(1) by one unrolling of the B recurrence.
    pub fn step(&mut self) {
        if let Some(h) = &mut self.history {
            h.push(self.erlang_b);
        }
        self.servers += 1;
        let a = self.queue.offered_load();
        let jb = f64::from(self.servers);
        self.erlang_b = a * self.erlang_b / (jb + a * self.erlang_b);
    }

    /// Retreats to `k - 1` in O(1) by popping the carried B history;
    /// bit-identical to having stepped forward to `k - 1` from scratch.
    ///
    /// # Panics
    ///
    /// Panics when the stepper is already at zero servers, or when it was
    /// not built with [`ErlangStepper::reversible`].
    pub fn step_down(&mut self) {
        let history = self
            .history
            .as_mut()
            .expect("stepper built without reversible support");
        self.erlang_b = history.pop().expect("cannot step below zero servers");
        self.servers -= 1;
    }

    /// `B(k + 1, a)` without mutating the stepper.
    fn next_erlang_b(&self) -> f64 {
        let a = self.queue.offered_load();
        let jb = f64::from(self.servers + 1);
        a * self.erlang_b / (jb + a * self.erlang_b)
    }

    /// Evaluates `E[T](k)` from a given `B(k, a)`; mirrors the exact
    /// operation sequence of [`MmKQueue::expected_sojourn`].
    fn sojourn_from_b(&self, servers: u32, b: f64) -> f64 {
        let queue = &self.queue;
        if !queue.is_stable(servers) {
            return f64::INFINITY;
        }
        if queue.arrival_rate() == 0.0 {
            return 1.0 / queue.service_rate();
        }
        let a = queue.offered_load();
        let k = f64::from(servers);
        let c = k * b / (k - a * (1.0 - b));
        let w = c / (k * queue.service_rate() - queue.arrival_rate());
        w + 1.0 / queue.service_rate()
    }

    /// `E[T](k)` at the current server count, in O(1).
    pub fn expected_sojourn(&self) -> f64 {
        self.sojourn_from_b(self.servers, self.erlang_b)
    }

    /// `E[T](k + 1)` without stepping, in O(1).
    pub fn next_expected_sojourn(&self) -> f64 {
        self.sojourn_from_b(self.servers + 1, self.next_erlang_b())
    }

    /// The marginal decrease `E[T](k) − E[T](k+1)` in O(1); same semantics
    /// as [`MmKQueue::marginal_benefit`] (infinite when the extra processor
    /// restores stability, zero when both counts are unstable).
    pub fn marginal_benefit(&self) -> f64 {
        let now = self.expected_sojourn();
        let next = self.next_expected_sojourn();
        if now.is_infinite() {
            if next.is_infinite() {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (now - next).max(0.0)
        }
    }
}

/// Kahan-compensated accumulator: keeps the running network sum accurate to
/// an ulp across thousands of incremental `+new − old` updates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Compensated {
    sum: f64,
    correction: f64,
}

impl Compensated {
    fn add(&mut self, x: f64) {
        let y = x - self.correction;
        let t = self.sum + y;
        self.correction = (t - self.sum) - y;
        self.sum = t;
    }
}

/// The network-level Eq. 3 aggregate under a mutable allocation, with O(1)
/// single-operator updates.
///
/// # Examples
///
/// ```
/// use drs_queueing::incremental::NetworkSojourn;
/// use drs_queueing::jackson::JacksonNetwork;
///
/// let net = JacksonNetwork::from_rates(13.0, &[(13.0, 2.0), (390.0, 45.0)])?;
/// let mut state = NetworkSojourn::at_min_stable(&net);
/// let before = state.expected_sojourn();
/// state.increment(1); // one more processor on operator 1, O(1)
/// assert!(state.expected_sojourn() <= before);
/// assert_eq!(state.servers(1), net.min_stable_allocation()[1] + 1);
/// # Ok::<(), drs_queueing::jackson::JacksonError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetworkSojourn {
    external_rate: f64,
    steppers: Vec<ErlangStepper>,
    /// λ_i · E[T_i](k_i) per operator (∞ while unstable).
    weighted: Vec<f64>,
    /// Compensated sum of the *finite* weighted terms.
    total: Compensated,
    /// Operators whose current allocation is unstable.
    unstable: usize,
}

impl NetworkSojourn {
    /// Builds the state for `network` under `allocation`. Supports only
    /// [`NetworkSojourn::increment`] (the ascent direction every scheduler
    /// uses); build with [`NetworkSojourn::reversible`] when
    /// [`NetworkSojourn::decrement`] is needed too.
    ///
    /// # Errors
    ///
    /// Returns [`JacksonError::AllocationLength`] on length mismatch.
    pub fn new(network: &JacksonNetwork, allocation: &[u32]) -> Result<Self, JacksonError> {
        Self::build(network, allocation, false)
    }

    /// Builds the state with O(1) [`NetworkSojourn::decrement`] support
    /// (each operator carries its Erlang-B history — one `f64` per granted
    /// processor).
    ///
    /// # Errors
    ///
    /// Returns [`JacksonError::AllocationLength`] on length mismatch.
    pub fn reversible(network: &JacksonNetwork, allocation: &[u32]) -> Result<Self, JacksonError> {
        Self::build(network, allocation, true)
    }

    fn build(
        network: &JacksonNetwork,
        allocation: &[u32],
        reversible: bool,
    ) -> Result<Self, JacksonError> {
        if allocation.len() != network.len() {
            return Err(JacksonError::AllocationLength {
                expected: network.len(),
                actual: allocation.len(),
            });
        }
        let steppers: Vec<ErlangStepper> = network
            .operators()
            .iter()
            .zip(allocation)
            .map(|(&queue, &k)| {
                if reversible {
                    ErlangStepper::reversible(queue, k)
                } else {
                    ErlangStepper::new(queue, k)
                }
            })
            .collect();
        let mut state = NetworkSojourn {
            external_rate: network.external_rate(),
            weighted: Vec::with_capacity(steppers.len()),
            steppers,
            total: Compensated::default(),
            unstable: 0,
        };
        for i in 0..state.steppers.len() {
            let term = state.term(i);
            state.weighted.push(term);
            if term.is_finite() {
                state.total.add(term);
            } else {
                state.unstable += 1;
            }
        }
        Ok(state)
    }

    /// Builds the state at the network's minimum stable allocation.
    pub fn at_min_stable(network: &JacksonNetwork) -> Self {
        let min = network.min_stable_allocation();
        Self::new(network, &min).expect("min allocation length matches network")
    }

    fn term(&self, op: usize) -> f64 {
        let s = &self.steppers[op];
        s.queue().arrival_rate() * s.expected_sojourn()
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.steppers.len()
    }

    /// Whether the network has no operators.
    pub fn is_empty(&self) -> bool {
        self.steppers.is_empty()
    }

    /// Current processors at operator `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn servers(&self, op: usize) -> u32 {
        self.steppers[op].servers()
    }

    /// The full current allocation.
    pub fn allocation(&self) -> Vec<u32> {
        self.steppers.iter().map(ErlangStepper::servers).collect()
    }

    /// Writes the full current allocation into `out` (cleared first),
    /// reusing its buffer — the allocation-free form of
    /// [`NetworkSojourn::allocation`] for callers that refresh a grant in
    /// place every window.
    pub fn write_allocation(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.steppers.iter().map(ErlangStepper::servers));
    }

    /// Network `E[T]` under the current allocation, in O(1). Infinite while
    /// any operator is unstable.
    pub fn expected_sojourn(&self) -> f64 {
        if self.unstable > 0 {
            f64::INFINITY
        } else {
            self.total.sum / self.external_rate
        }
    }

    /// The weighted marginal benefit `δ_op = λ_op · (E[T_op](k) − E[T_op](k+1))`
    /// — Algorithm 1's ranking key — in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn weighted_marginal_benefit(&self, op: usize) -> f64 {
        let s = &self.steppers[op];
        s.queue().arrival_rate() * s.marginal_benefit()
    }

    /// Gives operator `op` one more processor, updating the cached network
    /// sojourn in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn increment(&mut self, op: usize) {
        let old = self.weighted[op];
        self.steppers[op].step();
        let new = self.term(op);
        self.weighted[op] = new;
        match (old.is_finite(), new.is_finite()) {
            (true, true) => {
                self.total.add(new - old);
            }
            (false, true) => {
                self.total.add(new);
                self.unstable -= 1;
            }
            (false, false) => {}
            (true, false) => unreachable!("adding a processor cannot destabilise an operator"),
        }
    }

    /// Takes one processor away from operator `op`, updating the cached
    /// network sojourn in O(1) — the descent twin of
    /// [`NetworkSojourn::increment`], for planners that walk allocations
    /// *downward* instead of re-running Program 6 from scratch. The fleet
    /// negotiator's incremental warm-start path is the production caller:
    /// it keeps each shard's walk at the previous grant across windows and
    /// revokes processors through here when the equilibrium shifts.
    /// The operator's stepped model values are bit-identical to a fresh
    /// forward evaluation at the lower count (see [`ErlangStepper::step_down`]).
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range, already has zero processors, or the
    /// state was not built with [`NetworkSojourn::reversible`].
    pub fn decrement(&mut self, op: usize) {
        let old = self.weighted[op];
        self.steppers[op].step_down();
        let new = self.term(op);
        self.weighted[op] = new;
        match (old.is_finite(), new.is_finite()) {
            (true, true) => {
                self.total.add(new - old);
            }
            (true, false) => {
                self.total.add(-old);
                self.unstable += 1;
            }
            (false, false) => {}
            (false, true) => unreachable!("removing a processor cannot stabilise an operator"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepper_matches_direct_evaluation_bitwise() {
        for &(lambda, mu) in &[(10.0, 3.0), (390.0, 45.0), (0.0, 2.0), (1.0, 1000.0)] {
            let q = MmKQueue::new(lambda, mu).unwrap();
            let k0 = q.min_stable_servers();
            let mut s = ErlangStepper::new(q, k0);
            for k in k0..k0 + 200 {
                assert_eq!(s.servers(), k);
                assert_eq!(
                    s.expected_sojourn().to_bits(),
                    q.expected_sojourn(k).to_bits(),
                    "λ={lambda} µ={mu} k={k}"
                );
                assert_eq!(
                    s.next_expected_sojourn().to_bits(),
                    q.expected_sojourn(k + 1).to_bits()
                );
                assert_eq!(
                    s.marginal_benefit().to_bits(),
                    q.marginal_benefit(k).to_bits()
                );
                s.step();
            }
        }
    }

    #[test]
    fn stepper_through_instability_boundary() {
        let q = MmKQueue::new(10.0, 3.0).unwrap();
        let mut s = ErlangStepper::new(q, 0);
        // k = 0..=3 unstable, k = 4 stable.
        for k in 0..4u32 {
            assert_eq!(s.servers(), k);
            assert!(s.expected_sojourn().is_infinite());
            assert_eq!(
                s.marginal_benefit().to_bits(),
                q.marginal_benefit(k).to_bits()
            );
            s.step();
        }
        assert!(s.expected_sojourn().is_finite());
    }

    #[test]
    fn network_state_tracks_direct_jackson() {
        let net = JacksonNetwork::from_rates(13.0, &[(13.0, 2.0), (390.0, 45.0), (390.0, 400.0)])
            .unwrap();
        let mut state = NetworkSojourn::at_min_stable(&net);
        let mut alloc = net.min_stable_allocation();
        // Deterministic rotation of increments across operators.
        for round in 0..200 {
            let op = (round * 7 + round / 3) % 3;
            state.increment(op);
            alloc[op] += 1;
            let direct = net.expected_sojourn(&alloc).unwrap();
            let cached = state.expected_sojourn();
            assert!(
                (direct - cached).abs() <= 1e-12 * direct.max(1.0),
                "round {round}: direct {direct} vs cached {cached}"
            );
            assert_eq!(state.allocation(), alloc);
        }
    }

    #[test]
    fn network_state_handles_unstable_start() {
        let net = JacksonNetwork::from_rates(10.0, &[(10.0, 3.0), (10.0, 3.0)]).unwrap();
        let mut state = NetworkSojourn::new(&net, &[1, 4]).unwrap();
        assert!(state.expected_sojourn().is_infinite());
        state.increment(0); // k0 = 2, still unstable
        assert!(state.expected_sojourn().is_infinite());
        state.increment(0); // 3: a = 10/3 ≈ 3.33, still unstable
        assert!(state.expected_sojourn().is_infinite());
        state.increment(0); // 4: stable now
        let direct = net.expected_sojourn(&[4, 4]).unwrap();
        assert!((state.expected_sojourn() - direct).abs() < 1e-12);
    }

    #[test]
    fn stepper_down_is_bitwise_inverse_of_up() {
        let q = MmKQueue::new(390.0, 45.0).unwrap();
        let k0 = q.min_stable_servers();
        let mut s = ErlangStepper::reversible(q, k0);
        for _ in 0..50 {
            s.step();
        }
        for _ in 0..50 {
            s.step_down();
            assert_eq!(
                s.expected_sojourn().to_bits(),
                q.expected_sojourn(s.servers()).to_bits()
            );
            assert_eq!(
                s.erlang_b().to_bits(),
                ErlangStepper::new(q, s.servers()).erlang_b().to_bits()
            );
        }
        assert_eq!(s.servers(), k0);
    }

    #[test]
    fn network_decrement_reverses_increment() {
        let net = JacksonNetwork::from_rates(13.0, &[(13.0, 2.0), (390.0, 45.0), (390.0, 400.0)])
            .unwrap();
        let mut state = NetworkSojourn::reversible(&net, &net.min_stable_allocation()).unwrap();
        let baseline_alloc = state.allocation();
        for op in [0usize, 1, 2, 1, 0, 2, 2, 1] {
            state.increment(op);
        }
        for op in [1usize, 2, 2, 0, 1, 2, 1, 0] {
            state.decrement(op);
        }
        assert_eq!(state.allocation(), baseline_alloc);
        let direct = net.expected_sojourn(&baseline_alloc).unwrap();
        assert!((state.expected_sojourn() - direct).abs() <= 1e-12 * direct);
    }

    #[test]
    fn decrement_through_instability_boundary() {
        let net = JacksonNetwork::from_rates(10.0, &[(10.0, 3.0)]).unwrap();
        let mut state = NetworkSojourn::reversible(&net, &[5]).unwrap();
        assert!(state.expected_sojourn().is_finite());
        state.decrement(0); // k = 4: still stable (a ≈ 3.33)
        assert!(state.expected_sojourn().is_finite());
        state.decrement(0); // k = 3: unstable
        assert!(state.expected_sojourn().is_infinite());
        state.increment(0); // back to 4
        let direct = net.expected_sojourn(&[4]).unwrap();
        assert!((state.expected_sojourn() - direct).abs() <= 1e-12 * direct);
    }

    #[test]
    #[should_panic(expected = "below zero")]
    fn step_down_below_zero_panics() {
        let q = MmKQueue::new(1.0, 2.0).unwrap();
        let mut s = ErlangStepper::reversible(q, 0);
        s.step_down();
    }

    #[test]
    #[should_panic(expected = "without reversible support")]
    fn forward_only_stepper_rejects_step_down() {
        let q = MmKQueue::new(1.0, 2.0).unwrap();
        let mut s = ErlangStepper::new(q, 3);
        s.step_down();
    }

    #[test]
    fn length_mismatch_rejected() {
        let net = JacksonNetwork::from_rates(1.0, &[(1.0, 2.0)]).unwrap();
        assert!(matches!(
            NetworkSojourn::new(&net, &[1, 1]),
            Err(JacksonError::AllocationLength { .. })
        ));
    }
}
