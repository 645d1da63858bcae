//! The `M/M/k` single-operator model (Erlang delay system).
//!
//! The DRS performance model (paper §III-B) treats each operator `i` as an
//! `M/M/k_i` queue: Poisson arrivals at mean rate `λ_i`, exponential service
//! at mean rate `µ_i` per processor, and `k_i` identical parallel processors
//! sharing one FIFO queue. The expected sojourn time of a tuple through the
//! operator is given by the Erlang delay formula (Eq. 1–2 of the paper):
//!
//! ```text
//! E[T_i](k_i) = W_q(k_i) + 1/µ_i                     for k_i > λ_i/µ_i
//! E[T_i](k_i) = +∞                                    for k_i <= λ_i/µ_i
//! ```
//!
//! where `W_q` is the expected queueing delay. Internally we evaluate the
//! Erlang C ("probability of waiting") function through the numerically
//! stable Erlang B recurrence instead of the factorial form of the paper,
//! which overflows `f64` beyond `k ≈ 170`; unit tests verify the two forms
//! agree where the factorial form is representable.
//!
//! The crucial structural property exploited by the scheduler is that
//! `E[T_i](k_i)` is **convex and decreasing** in `k_i` (Boxma, Rinnooy Kan &
//! Van Vliet 1990, the paper's reference 39), so greedy marginal allocation is optimal
//! (Theorem 1 of the paper). [`MmKQueue::marginal_benefit`] exposes the
//! marginal decrease used by Algorithm 1.

use std::fmt;

/// Error produced when constructing an invalid [`MmKQueue`].
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidQueue {
    reason: String,
}

impl InvalidQueue {
    /// Crate-internal constructor shared by the queueing models.
    pub(crate) fn new(reason: impl Into<String>) -> Self {
        InvalidQueue {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for InvalidQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid M/M/k queue: {}", self.reason)
    }
}

impl std::error::Error for InvalidQueue {}

/// Computes the Erlang B (blocking) probability `B(k, a)` for offered load
/// `a = λ/µ` and `k` servers, via the standard stable recurrence
/// `B(0) = 1`, `B(j) = a·B(j-1) / (j + a·B(j-1))`.
///
/// Valid for any `a >= 0` and `k >= 0`; no overflow for large `k`.
///
/// # Examples
///
/// ```
/// use drs_queueing::erlang::erlang_b;
/// // With zero servers every arrival is blocked.
/// assert_eq!(erlang_b(0, 2.5), 1.0);
/// // Blocking decreases with more servers.
/// assert!(erlang_b(5, 2.5) > erlang_b(10, 2.5));
/// ```
pub fn erlang_b(servers: u32, offered_load: f64) -> f64 {
    debug_assert!(offered_load >= 0.0, "offered load must be non-negative");
    let mut b = 1.0;
    for j in 1..=servers {
        let jb = f64::from(j);
        b = offered_load * b / (jb + offered_load * b);
    }
    b
}

/// Computes the Erlang C (delay) probability — the steady-state probability
/// that an arriving tuple must wait — for `k` servers and offered load
/// `a = λ/µ`, using `C(k, a) = k·B / (k − a·(1 − B))` with `B = erlang_b(k, a)`.
///
/// Returns `1.0` when the queue is unstable (`a >= k`), since every arrival
/// waits (indefinitely) in an overloaded system.
///
/// # Examples
///
/// ```
/// use drs_queueing::erlang::erlang_c;
/// let c = erlang_c(3, 2.0);
/// assert!(c > 0.0 && c < 1.0);
/// assert_eq!(erlang_c(2, 2.0), 1.0); // a == k: unstable
/// ```
pub fn erlang_c(servers: u32, offered_load: f64) -> f64 {
    let k = f64::from(servers);
    if offered_load >= k {
        return 1.0;
    }
    let b = erlang_b(servers, offered_load);
    k * b / (k - offered_load * (1.0 - b))
}

/// A single operator modelled as an `M/M/k` queue with fixed arrival and
/// service rates; the number of processors `k` is supplied per call so the
/// scheduler can explore allocations cheaply without rebuilding state.
///
/// # Examples
///
/// ```
/// use drs_queueing::erlang::MmKQueue;
///
/// // 10 tuples/s arriving; each processor serves 3 tuples/s (paper §III-B).
/// let op = MmKQueue::new(10.0, 3.0)?;
/// assert_eq!(op.min_stable_servers(), 4);
/// assert!(op.expected_sojourn(3).is_infinite());
/// let t4 = op.expected_sojourn(4);
/// let t5 = op.expected_sojourn(5);
/// assert!(t4.is_finite() && t5 < t4); // more processors, less latency
/// # Ok::<(), drs_queueing::erlang::InvalidQueue>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmKQueue {
    arrival_rate: f64,
    service_rate: f64,
}

impl MmKQueue {
    /// Creates an `M/M/k` operator model with mean arrival rate
    /// `arrival_rate` (λ) and per-processor mean service rate `service_rate`
    /// (µ).
    ///
    /// # Errors
    ///
    /// Rejects non-finite rates, negative `arrival_rate`, and non-positive
    /// `service_rate`.
    pub fn new(arrival_rate: f64, service_rate: f64) -> Result<Self, InvalidQueue> {
        if !arrival_rate.is_finite() || arrival_rate < 0.0 {
            return Err(InvalidQueue {
                reason: format!("arrival rate must be finite and >= 0, got {arrival_rate}"),
            });
        }
        if !service_rate.is_finite() || service_rate <= 0.0 {
            return Err(InvalidQueue {
                reason: format!("service rate must be finite and > 0, got {service_rate}"),
            });
        }
        Ok(MmKQueue {
            arrival_rate,
            service_rate,
        })
    }

    /// Mean arrival rate λ.
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    /// Mean per-processor service rate µ.
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// Offered load `a = λ/µ` (the average number of busy processors in a
    /// stable system).
    pub fn offered_load(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// Server utilisation `ρ = λ/(kµ)` under `servers` processors.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn utilization(&self, servers: u32) -> f64 {
        assert!(servers > 0, "utilization requires at least one server");
        self.offered_load() / f64::from(servers)
    }

    /// Whether the queue is stable with `servers` processors, i.e.
    /// `k > λ/µ` strictly (Eq. 1's finiteness condition).
    pub(crate) fn is_stable(&self, servers: u32) -> bool {
        f64::from(servers) > self.offered_load()
    }

    /// The smallest number of processors yielding a finite expected sojourn
    /// time: the least integer strictly greater than `λ/µ`.
    ///
    /// This matches the initialisation `k_i ← ⌈λ_i/µ_i⌉` in Algorithm 1 of
    /// the paper except when `λ/µ` is exactly an integer, where the ceiling
    /// equals the offered load and Eq. 1 still diverges; we return one more
    /// processor so the returned allocation is always feasible.
    pub fn min_stable_servers(&self) -> u32 {
        let a = self.offered_load();
        let ceil = a.ceil();
        let k = if ceil > a { ceil } else { a + 1.0 };
        if k > f64::from(u32::MAX) {
            u32::MAX
        } else {
            k as u32
        }
    }

    /// Steady-state probability that an arriving tuple finds all processors
    /// busy and must queue (Erlang C). Returns `1.0` when unstable.
    pub(crate) fn prob_wait(&self, servers: u32) -> f64 {
        erlang_c(servers, self.offered_load())
    }

    /// Steady-state probability that the operator is completely empty (the
    /// normalisation constant `p0` of Eq. 2). Returns `0.0` when unstable.
    pub(crate) fn prob_empty(&self, servers: u32) -> f64 {
        let a = self.offered_load();
        let k = f64::from(servers);
        if a >= k {
            return 0.0;
        }
        if a == 0.0 {
            return 1.0;
        }
        // p0^{-1} = sum_{l=0}^{k-1} a^l/l! + a^k/(k! (1 - rho)).
        // Evaluate terms iteratively relative to the largest to avoid overflow.
        // term_l = a^l / l!; accumulate in log-safe fashion by rescaling.
        let mut term = 1.0_f64; // l = 0
        let mut sum = 1.0_f64;
        for l in 1..servers {
            term *= a / f64::from(l);
            sum += term;
        }
        let term_k = term * a / k; // a^k / k!
        let rho = a / k;
        let total = sum + term_k / (1.0 - rho);
        1.0 / total
    }

    /// Expected queueing delay `W_q` (time spent waiting in the operator
    /// queue, excluding service) with `servers` processors.
    ///
    /// Returns `f64::INFINITY` when the queue is unstable.
    pub(crate) fn expected_wait(&self, servers: u32) -> f64 {
        if !self.is_stable(servers) {
            return f64::INFINITY;
        }
        if self.arrival_rate == 0.0 {
            return 0.0;
        }
        let c = self.prob_wait(servers);
        c / (f64::from(servers) * self.service_rate - self.arrival_rate)
    }

    /// Expected sojourn time `E[T](k) = W_q(k) + 1/µ` (Eq. 1).
    ///
    /// Returns `f64::INFINITY` when `k <= λ/µ`.
    pub fn expected_sojourn(&self, servers: u32) -> f64 {
        let w = self.expected_wait(servers);
        if w.is_infinite() {
            f64::INFINITY
        } else {
            w + 1.0 / self.service_rate
        }
    }

    /// Direct evaluation of Eq. 1–2 as printed in the paper (factorial form).
    ///
    /// Numerically valid only for moderate `k` (the factorial form overflows
    /// beyond `k ≈ 170`); provided for cross-validation against
    /// [`MmKQueue::expected_sojourn`], which uses the stable recurrence.
    ///
    /// Returns `f64::INFINITY` when `k <= λ/µ`.
    pub fn expected_sojourn_paper_form(&self, servers: u32) -> f64 {
        let a = self.offered_load();
        let k = f64::from(servers);
        if a >= k {
            return f64::INFINITY;
        }
        if self.arrival_rate == 0.0 {
            return 1.0 / self.service_rate;
        }
        let p0 = self.prob_empty(servers);
        // a^k / k! computed iteratively.
        let mut term = 1.0_f64;
        for l in 1..=servers {
            term *= a / f64::from(l);
        }
        let rho = a / k;
        let wq = term * p0 / ((1.0 - rho) * (1.0 - rho) * self.service_rate * k);
        wq + 1.0 / self.service_rate
    }

    /// Expected number of tuples waiting in the queue (`L_q`), by Little's
    /// law `L_q = λ·W_q`. Infinite when unstable.
    pub fn expected_queue_len(&self, servers: u32) -> f64 {
        let w = self.expected_wait(servers);
        if w.is_infinite() {
            f64::INFINITY
        } else {
            self.arrival_rate * w
        }
    }

    /// Expected number of tuples in the operator (queued + in service), by
    /// Little's law `L = λ·E[T]`. Infinite when unstable.
    pub fn expected_in_system(&self, servers: u32) -> f64 {
        let t = self.expected_sojourn(servers);
        if t.is_infinite() {
            f64::INFINITY
        } else {
            self.arrival_rate * t
        }
    }

    /// The marginal decrease in expected sojourn time from adding one more
    /// processor: `E[T](k) − E[T](k+1)`.
    ///
    /// This is the quantity `δ_i / λ_i` in Algorithm 1 (line 9). By convexity
    /// it is non-negative and non-increasing in `k`. When `k` is below the
    /// stability threshold the current sojourn is infinite; if `k+1` is
    /// stable the marginal benefit is infinite (any finite allocation beats
    /// an unstable one), which makes the greedy algorithm naturally prefer
    /// restoring stability first.
    pub fn marginal_benefit(&self, servers: u32) -> f64 {
        let now = self.expected_sojourn(servers);
        let next = self.expected_sojourn(servers + 1);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b} (tol {tol})");
    }

    #[test]
    fn erlang_b_base_cases() {
        assert_eq!(erlang_b(0, 3.0), 1.0);
        // B(1, a) = a / (1 + a).
        assert_close(erlang_b(1, 2.0), 2.0 / 3.0, 1e-12);
        // B(2, a) = (a B1) / (2 + a B1) with B1 = a/(1+a).
        let b1 = 2.0 / 3.0;
        assert_close(erlang_b(2, 2.0), 2.0 * b1 / (2.0 + 2.0 * b1), 1e-12);
    }

    #[test]
    fn erlang_b_decreases_in_servers() {
        let a = 7.3;
        let mut prev = erlang_b(1, a);
        for k in 2..60 {
            let cur = erlang_b(k, a);
            assert!(cur < prev, "B must decrease: B({k})={cur} >= {prev}");
            prev = cur;
        }
    }

    #[test]
    fn erlang_b_handles_huge_server_counts_without_overflow() {
        let b = erlang_b(100_000, 50_000.0);
        assert!(b.is_finite() && (0.0..=1.0).contains(&b));
    }

    #[test]
    fn erlang_c_in_unit_interval_when_stable() {
        for &(k, a) in &[(2u32, 1.0), (5, 4.2), (50, 45.0), (200, 190.0)] {
            let c = erlang_c(k, a);
            assert!((0.0..=1.0).contains(&c), "C({k},{a}) = {c}");
        }
    }

    #[test]
    fn erlang_c_unstable_is_one() {
        assert_eq!(erlang_c(3, 3.0), 1.0);
        assert_eq!(erlang_c(3, 10.0), 1.0);
    }

    #[test]
    fn mm1_sojourn_matches_closed_form() {
        // M/M/1: E[T] = 1 / (µ - λ).
        let q = MmKQueue::new(2.0, 5.0).unwrap();
        assert_close(q.expected_sojourn(1), 1.0 / 3.0, 1e-12);
        // W_q = rho / (µ - λ).
        assert_close(q.expected_wait(1), (2.0 / 5.0) / 3.0, 1e-12);
    }

    #[test]
    fn paper_form_matches_recurrence_form() {
        // Cross-validate Eq. 1-2 factorial evaluation against Erlang-C form.
        for &(lambda, mu) in &[(10.0, 3.0), (320.0, 30.0), (13.0, 1.4), (1.0, 100.0)] {
            let q = MmKQueue::new(lambda, mu).unwrap();
            let k0 = q.min_stable_servers();
            for k in k0..k0 + 20 {
                let a = q.expected_sojourn(k);
                let b = q.expected_sojourn_paper_form(k);
                assert!(
                    (a - b).abs() / a < 1e-9,
                    "λ={lambda}, µ={mu}, k={k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn unstable_allocations_have_infinite_sojourn() {
        let q = MmKQueue::new(10.0, 3.0).unwrap();
        // a = 10/3 ≈ 3.33; k = 3 is unstable, k = 4 stable.
        assert!(q.expected_sojourn(3).is_infinite());
        assert!(q.expected_sojourn(4).is_finite());
        assert!(q.expected_sojourn_paper_form(3).is_infinite());
    }

    #[test]
    fn min_stable_servers_strictly_exceeds_offered_load() {
        let q = MmKQueue::new(10.0, 3.0).unwrap();
        assert_eq!(q.min_stable_servers(), 4);
        // Exact integer offered load needs one extra server.
        let q2 = MmKQueue::new(9.0, 3.0).unwrap();
        assert_eq!(q2.offered_load(), 3.0);
        assert_eq!(q2.min_stable_servers(), 4);
        // Zero arrivals: one server suffices.
        let q3 = MmKQueue::new(0.0, 3.0).unwrap();
        assert_eq!(q3.min_stable_servers(), 1);
    }

    #[test]
    fn sojourn_decreases_monotonically_in_servers() {
        let q = MmKQueue::new(100.0, 7.0).unwrap();
        let k0 = q.min_stable_servers();
        let mut prev = q.expected_sojourn(k0);
        for k in (k0 + 1)..(k0 + 40) {
            let cur = q.expected_sojourn(k);
            // Strictly decreasing until the queueing delay underflows to
            // float noise, never increasing after that.
            assert!(cur <= prev, "E[T]({k}) = {cur} > {prev}");
            if q.expected_wait(k) > 1e-12 {
                assert!(cur < prev, "E[T]({k}) = {cur} >= {prev}");
            }
            prev = cur;
        }
    }

    #[test]
    fn sojourn_is_convex_in_servers() {
        // Second difference must be non-negative (convexity, paper Eq. 5).
        let q = MmKQueue::new(50.0, 3.0).unwrap();
        let k0 = q.min_stable_servers();
        for k in k0..(k0 + 50) {
            let d1 = q.expected_sojourn(k) - q.expected_sojourn(k + 1);
            let d2 = q.expected_sojourn(k + 1) - q.expected_sojourn(k + 2);
            assert!(
                d1 >= d2 - 1e-15,
                "marginal benefit must shrink at k={k}: {d1} < {d2}"
            );
        }
    }

    #[test]
    fn sojourn_approaches_pure_service_time() {
        let q = MmKQueue::new(10.0, 2.0).unwrap();
        // With vastly more servers than load, waiting vanishes.
        assert_close(q.expected_sojourn(1000), 0.5, 1e-9);
    }

    #[test]
    fn marginal_benefit_prefers_restoring_stability() {
        let q = MmKQueue::new(10.0, 3.0).unwrap();
        // k=3 unstable, k=4 stable: infinite marginal benefit.
        assert!(q.marginal_benefit(3).is_infinite());
        // k=2 -> k=3 both unstable: no measurable benefit.
        assert_eq!(q.marginal_benefit(2), 0.0);
        // Stable region: positive, decreasing.
        assert!(q.marginal_benefit(4) > q.marginal_benefit(5));
    }

    #[test]
    fn littles_law_consistency() {
        let q = MmKQueue::new(12.0, 5.0).unwrap();
        let k = 4;
        assert_close(
            q.expected_in_system(k),
            q.expected_queue_len(k) + q.offered_load(),
            1e-9,
        );
    }

    #[test]
    fn prob_empty_matches_mm1_closed_form() {
        // M/M/1: p0 = 1 - rho.
        let q = MmKQueue::new(3.0, 10.0).unwrap();
        assert_close(q.prob_empty(1), 0.7, 1e-12);
    }

    #[test]
    fn prob_empty_zero_arrivals() {
        let q = MmKQueue::new(0.0, 1.0).unwrap();
        assert_eq!(q.prob_empty(3), 1.0);
        assert_eq!(q.expected_wait(3), 0.0);
        assert_close(q.expected_sojourn(3), 1.0, 1e-12);
    }

    #[test]
    fn invalid_rates_rejected() {
        assert!(MmKQueue::new(-1.0, 1.0).is_err());
        assert!(MmKQueue::new(1.0, 0.0).is_err());
        assert!(MmKQueue::new(1.0, -2.0).is_err());
        assert!(MmKQueue::new(f64::NAN, 1.0).is_err());
        assert!(MmKQueue::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn paper_example_three_processors() {
        // Paper §III-B example: ki = 3, λi = 10, µi = 3 — overloaded
        // (a = 3.33 > 3), so sojourn must be infinite.
        let q = MmKQueue::new(10.0, 3.0).unwrap();
        assert!(!q.is_stable(3));
        assert!(q.expected_sojourn(3).is_infinite());
    }

    #[test]
    fn utilization_and_offered_load() {
        let q = MmKQueue::new(10.0, 4.0).unwrap();
        assert_close(q.offered_load(), 2.5, 1e-12);
        assert_close(q.utilization(5), 0.5, 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn utilization_zero_servers_panics() {
        let q = MmKQueue::new(1.0, 1.0).unwrap();
        let _ = q.utilization(0);
    }

    #[test]
    fn large_server_counts_stay_finite() {
        let q = MmKQueue::new(10_000.0, 7.0).unwrap();
        let k0 = q.min_stable_servers();
        let t = q.expected_sojourn(k0 + 5);
        assert!(t.is_finite() && t > 0.0);
    }
}
