//! The DRS measurer: aggregation and smoothing of raw metrics
//! (paper App. B).
//!
//! The CSP layer reports raw per-window observations — per-operator arrival
//! and service rates, the external rate and the measured mean sojourn time.
//! Before the optimiser may use them, the measurer:
//!
//! 1. **aggregates** per-*instance* (executor) metrics to the *operator*
//!    level, because the Jackson model is defined over operators;
//! 2. **smooths** the sequence of windows to suppress noise, message loss
//!    and outliers, with either of the paper's two options:
//!    * α-weighted averaging: `D(n) = α·D(n−1) + (1−α)·d(n)`;
//!    * window-based averaging: `D(n) = (1/w)·Σ_{j=n−w+1..n} d(j)`.
//!
//! A [`Measurer`] holds its smoothing once and one stream per metric: the
//! external rate, the sojourn time, and each operator's arrival and service
//! streams side by side in one buffer. An α-stream is only its smoothed
//! value; a window-stream is one buffer of its last `(value, weight)` pairs,
//! oldest first. Either takes 24 bytes, so an α-smoothed measurer of any
//! number of operators is one heap block.

use crate::model::{ModelInputs, OperatorRates};
use std::fmt;

/// Smoothing strategy for measurement streams (paper App. B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Smoothing {
    /// Exponential smoothing `D(n) = α·D(n−1) + (1−α)·d(n)`; `α ∈ [0, 1)`
    /// controls how fast old measurements fade.
    Alpha {
        /// The fading factor.
        alpha: f64,
    },
    /// Arithmetic mean over the last `size` windows.
    Window {
        /// Number of windows to average (>= 1).
        size: usize,
    },
}

/// Error for invalid measurer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidSmoothing {
    reason: String,
}

impl fmt::Display for InvalidSmoothing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid smoothing: {}", self.reason)
    }
}

impl std::error::Error for InvalidSmoothing {}

impl Smoothing {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Rejects `alpha` outside `[0, 1)` and `size == 0`.
    pub(crate) fn validate(&self) -> Result<(), InvalidSmoothing> {
        let reason = match *self {
            Smoothing::Alpha { alpha } if !(0.0..1.0).contains(&alpha) => {
                format!("alpha must be in [0,1), got {alpha}")
            }
            Smoothing::Window { size: 0 } => "window size must be >= 1".to_owned(),
            _ => return Ok(()),
        };
        Err(InvalidSmoothing { reason })
    }
}

/// One raw metric stream being smoothed under its measurer's [`Smoothing`].
/// Observations carry a weight in `(0, 1]`: weight 1 is the classic update,
/// lower weights shrink an observation's influence (used for age-decayed
/// stale fallbacks).
#[derive(Debug, Clone)]
enum Stream {
    /// The α-smoothed value; `None` before the first observation.
    Alpha(Option<f64>),
    /// The last `size` `(value, weight)` pairs, oldest first; the estimate
    /// is their weighted mean.
    Window(Vec<(f64, f64)>),
}

impl Stream {
    fn new(smoothing: Smoothing) -> Self {
        match smoothing {
            Smoothing::Alpha { .. } => Stream::Alpha(None),
            Smoothing::Window { size } => Stream::Window(Vec::with_capacity(size)),
        }
    }

    /// Ingests one observation; `true` when the smoothed value may have
    /// changed. α-streams compare bits — under constant input the
    /// exponential recurrence reaches a floating-point fixpoint after a few
    /// dozen windows, and from then on reports `false`, which is what lets
    /// [`Measurer::epoch`] stand still in steady state. Window streams
    /// always report `true` (their contents shift every observation).
    fn observe(&mut self, smoothing: Smoothing, x: f64, weight: f64) -> bool {
        match (self, smoothing) {
            (Stream::Alpha(state), Smoothing::Alpha { alpha }) => {
                // The fading factor scales with the weight: at weight 1
                // this is exactly `α·prev + (1−α)·x`; at weight → 0 the
                // previous state survives untouched.
                let next = match *state {
                    None => x,
                    Some(prev) => {
                        let gain = (1.0 - alpha) * weight;
                        (1.0 - gain) * prev + gain * x
                    }
                };
                let changed = state.is_none_or(|prev| prev.to_bits() != next.to_bits());
                *state = Some(next);
                changed
            }
            (Stream::Window(values), Smoothing::Window { size }) => {
                if values.len() == size {
                    values.remove(0);
                }
                values.push((x, weight));
                true
            }
            _ => unreachable!("a stream is built for its measurer's smoothing"),
        }
    }

    fn value(&self) -> Option<f64> {
        match self {
            Stream::Alpha(state) => *state,
            Stream::Window(values) => {
                // An empty window sums to zero weight.
                let total: f64 = values.iter().map(|&(_, w)| w).sum();
                if total <= 0.0 {
                    return None;
                }
                Some(values.iter().map(|&(x, w)| x * w).sum::<f64>() / total)
            }
        }
    }
}

/// A raw (unsmoothed) observation for one measurement window. The default
/// is an empty buffer for [`SampleBuilder::build_into`] to fill.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawSample {
    /// Measured external arrival rate `λ̂0` (tuples/second).
    pub external_rate: f64,
    /// Measured per-operator rates, in model index order.
    pub operators: Vec<OperatorRates>,
    /// Measured mean complete sojourn time (seconds), if any tuples
    /// completed during the window.
    pub mean_sojourn: Option<f64>,
}

/// Smoothed estimates ready for the optimiser. The default is an empty
/// buffer for `Measurer::write_estimates` to fill.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SmoothedEstimates {
    /// Smoothed external rate `λ̂0`.
    pub external_rate: f64,
    /// Smoothed per-operator rates.
    pub operators: Vec<OperatorRates>,
    /// Smoothed mean sojourn time (seconds), once at least one window
    /// carried one.
    pub mean_sojourn: Option<f64>,
}

impl SmoothedEstimates {
    /// Converts the estimates into [`ModelInputs`] for the performance
    /// model.
    pub fn to_model_inputs(&self) -> ModelInputs {
        ModelInputs {
            external_rate: self.external_rate,
            operators: self.operators.clone(),
        }
    }
}

/// The measurer: feeds raw windows in, takes smoothed estimates out.
///
/// # Examples
///
/// ```
/// use drs_core::measurer::{Measurer, RawSample, Smoothing};
/// use drs_core::model::OperatorRates;
///
/// let mut m = Measurer::new(1, Smoothing::Alpha { alpha: 0.5 })?;
/// for rate in [10.0, 20.0] {
///     m.observe(&RawSample {
///         external_rate: rate,
///         operators: vec![OperatorRates { arrival_rate: rate, service_rate: 5.0 }],
///         mean_sojourn: Some(0.3),
///     });
/// }
/// // D(2) = 0.5·10 + 0.5·20 = 15.
/// let est = m.estimates().unwrap();
/// assert!((est.external_rate - 15.0).abs() < 1e-12);
/// # Ok::<(), drs_core::measurer::InvalidSmoothing>(())
/// ```
#[derive(Debug, Clone)]
pub struct Measurer {
    smoothing: Smoothing,
    external: Stream,
    /// Per operator, its arrival and service streams side by side.
    operators: Vec<[Stream; 2]>,
    sojourn: Stream,
    windows_seen: u64,
    epoch: u64,
}

impl Measurer {
    /// Creates a measurer for `n_operators` operators.
    ///
    /// # Errors
    ///
    /// Rejects invalid smoothing parameters (see `Smoothing::validate`).
    pub fn new(n_operators: usize, smoothing: Smoothing) -> Result<Self, InvalidSmoothing> {
        smoothing.validate()?;
        Ok(Measurer {
            smoothing,
            external: Stream::new(smoothing),
            operators: (0..n_operators)
                .map(|_| [Stream::new(smoothing), Stream::new(smoothing)])
                .collect(),
            sojourn: Stream::new(smoothing),
            windows_seen: 0,
            epoch: 0,
        })
    }

    /// Number of windows observed so far.
    pub(crate) fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// A counter that advances exactly when an observation changed some
    /// smoothed value (bitwise). Callers that derive expensive artifacts
    /// from [`estimates`](Self::estimates) — the fleet driver's per-shard
    /// model refits — cache the epoch of their last derivation and skip the
    /// work while it stands still. Under α-smoothing a constant input
    /// reaches its floating-point fixpoint within a few dozen windows, so a
    /// steady shard stops paying for refits (and their allocations)
    /// entirely; window smoothing never reports a standstill.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ingests one raw window.
    ///
    /// # Panics
    ///
    /// Panics if `raw.operators.len()` differs from the configured operator
    /// count — a programming error in the wiring between CSP layer and DRS.
    pub fn observe(&mut self, raw: &RawSample) {
        self.observe_weighted(raw, 1.0);
    }

    /// Ingests one raw window with a credibility weight in `(0, 1]`.
    ///
    /// Weight 1 is exactly [`observe`](Self::observe). Lower weights shrink
    /// the window's influence on the smoothed estimates — the staleness
    /// hook: a sample whose rates are an age-`n` fallback (see
    /// [`SampleBuilder::staleness`]) should be fed with weight `decay^n`
    /// instead of being treated as fresh evidence. Non-finite or
    /// out-of-range weights are clamped to `[0.001, 1]` so a stale report
    /// can never freeze the estimates entirely.
    ///
    /// # Panics
    ///
    /// As for [`observe`](Self::observe).
    pub fn observe_weighted(&mut self, raw: &RawSample, weight: f64) {
        assert_eq!(
            raw.operators.len(),
            self.operators.len(),
            "raw sample operator count mismatch"
        );
        let weight = if weight.is_finite() {
            weight.clamp(1e-3, 1.0)
        } else {
            1.0
        };
        self.windows_seen += 1;
        let smoothing = self.smoothing;
        let mut changed = self.external.observe(smoothing, raw.external_rate, weight);
        for ([arrival, service], rates) in self.operators.iter_mut().zip(&raw.operators) {
            changed |= arrival.observe(smoothing, rates.arrival_rate, weight);
            changed |= service.observe(smoothing, rates.service_rate, weight);
        }
        if let Some(s) = raw.mean_sojourn {
            changed |= self.sojourn.observe(smoothing, s, weight);
        }
        if changed {
            self.epoch += 1;
        }
    }

    /// Current smoothed estimates; `None` until the first window has been
    /// observed.
    pub fn estimates(&self) -> Option<SmoothedEstimates> {
        let mut out = SmoothedEstimates::default();
        self.write_estimates(&mut out).then_some(out)
    }

    /// In-place [`estimates`](Self::estimates): writes the current smoothed
    /// estimates into `out`, reusing its operator buffer, and returns
    /// whether there were any. On `false` (no window observed yet) `out`'s
    /// contents are unspecified.
    pub(crate) fn write_estimates(&self, out: &mut SmoothedEstimates) -> bool {
        let Some(external_rate) = self.external.value() else {
            return false;
        };
        out.operators.clear();
        out.operators.reserve_exact(self.operators.len());
        for [a, s] in &self.operators {
            let (Some(arrival_rate), Some(service_rate)) = (a.value(), s.value()) else {
                return false;
            };
            out.operators.push(OperatorRates {
                arrival_rate,
                service_rate,
            });
        }
        out.external_rate = external_rate;
        out.mean_sojourn = self.sojourn.value();
        true
    }
}

/// Builds [`RawSample`]s from backend [`crate::driver::WindowSample`]s, falling back to
/// the last known rates for operators a window starved (paper App. B: brief
/// starvation under a rebalance pause must not zero the model) — and
/// tracking **how old** that fallback evidence is, so callers on a lossy
/// control channel can discount a 3-window-old report instead of treating
/// it as current.
///
/// After every [`build`](Self::build):
///
/// * [`staleness`](Self::staleness) is the age, in windows, of the oldest
///   substituted rate in the sample just built (0 when every operator
///   reported fresh rates) — feed it to
///   [`Measurer::observe_weighted`] as `decay^staleness`, or use
///   [`weight`](Self::weight) directly;
/// * `missed_windows` counts the *consecutive*
///   windows for which no usable report existed at all (`build` returned
///   `None`) — the liveness signal behind the fleet's lease-style dead
///   shard detection.
///
/// One instance lives inside every `DrsDriver` (see [`crate::driver`]);
/// it is public so hand-rolled loops and tests can reuse the exact same
/// fallback policy.
///
/// # Examples
///
/// ```
/// use drs_core::driver::{OperatorSample, WindowSample};
/// use drs_core::measurer::SampleBuilder;
///
/// let mut b = SampleBuilder::new();
/// let observed = WindowSample {
///     external_rate: Some(10.0),
///     operators: vec![OperatorSample { arrival_rate: Some(10.0), service_rate: Some(4.0) }],
///     mean_sojourn: Some(0.5),
///     std_sojourn: None,
///     completed: 100,
/// };
/// assert!(b.build(&observed).is_some());
/// assert_eq!(b.staleness(), 0);
///
/// // A starved window (pause, idle operator) reuses the last known rates —
/// // but the sample is now flagged one window stale.
/// let starved = WindowSample { operators: vec![OperatorSample { arrival_rate: None, service_rate: None }], ..observed };
/// let raw = b.build(&starved).unwrap();
/// assert_eq!(raw.operators[0].service_rate, 4.0);
/// assert_eq!(b.staleness(), 1);
/// assert!(b.weight(0.5) < 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampleBuilder {
    /// Per operator: its last known rates, and the windows since it last
    /// produced fresh ones.
    history: Vec<(OperatorRates, u64)>,
    /// Operators in the last built sample, whose rates lead `history`
    /// (`None` until a sample is built).
    known: Option<usize>,
    /// Age of the oldest substituted rate in the last built sample.
    staleness: u64,
    /// Consecutive windows with no usable report (`build` returned `None`).
    missed: u64,
}

impl SampleBuilder {
    /// Creates a builder with no rate history.
    pub fn new() -> Self {
        SampleBuilder::default()
    }

    /// Converts a backend window into the controller's raw sample.
    /// Operators that recorded no service activity reuse the last known
    /// rates; returns `None` when no usable rates exist yet (nothing has
    /// ever arrived, or a starved operator has no history).
    pub fn build(&mut self, w: &crate::driver::WindowSample) -> Option<RawSample> {
        let mut out = RawSample::default();
        self.build_into(w, &mut out).then_some(out)
    }

    /// In-place [`build`](Self::build): writes the sample into `out`
    /// (reusing its buffers — a caller feeding one persistent `RawSample`
    /// pays no allocation in steady state) and returns whether a usable
    /// sample was produced. On `false`, `out`'s contents are unspecified;
    /// the staleness/missed-window bookkeeping advances exactly as with
    /// `build`.
    pub fn build_into(&mut self, w: &crate::driver::WindowSample, out: &mut RawSample) -> bool {
        if self.history.len() < w.operators.len() {
            let unknown = OperatorRates {
                arrival_rate: 0.0,
                service_rate: 0.0,
            };
            self.history.resize(w.operators.len(), (unknown, 0));
        }
        if self.build_inner(w, out) {
            self.missed = 0;
            true
        } else {
            // The whole window is missing evidence: everything ages.
            self.missed += 1;
            for (_, age) in &mut self.history {
                *age += 1;
            }
            self.staleness = self.history.iter().map(|&(_, age)| age).max().unwrap_or(0);
            false
        }
    }

    fn build_inner(&mut self, w: &crate::driver::WindowSample, out: &mut RawSample) -> bool {
        let Some(external_rate) = w.external_rate else {
            return false;
        };
        if external_rate <= 0.0 {
            return false;
        }
        out.operators.clear();
        let mut staleness = 0u64;
        for (slot, op) in w.operators.iter().enumerate() {
            match (op.arrival_rate, op.service_rate) {
                (Some(a), Some(s)) if a > 0.0 && s > 0.0 => {
                    self.history[slot].1 = 0;
                    out.operators.push(OperatorRates {
                        arrival_rate: a,
                        service_rate: s,
                    });
                }
                _ => {
                    if self.known.is_none_or(|known| slot >= known) {
                        return false;
                    }
                    let (last, age) = &mut self.history[slot];
                    *age += 1;
                    staleness = staleness.max(*age);
                    out.operators.push(*last);
                }
            }
        }
        for ((last, _), &rates) in self.history.iter_mut().zip(&out.operators) {
            *last = rates;
        }
        self.known = Some(out.operators.len());
        self.staleness = staleness;
        out.external_rate = external_rate;
        out.mean_sojourn = w.mean_sojourn;
        true
    }

    /// Whether `w` reports fresh rates for every operator with the same
    /// arrival rates, bit for bit, as the sample the previous window
    /// built, which itself reused no older rate: the operators' arrival
    /// rates have not moved since the previous window. Call it before
    /// [`build_into`](Self::build_into) consumes `w`; `false` whenever
    /// that cannot be told (no history, a missed or starved window).
    pub(crate) fn arrivals_unchanged(&self, w: &crate::driver::WindowSample) -> bool {
        self.missed == 0
            && self.staleness == 0
            && self.known == Some(w.operators.len())
            && w.operators
                .iter()
                .zip(&self.history)
                .all(|(op, (last, _))| {
                    matches!((op.arrival_rate, op.service_rate),
                    (Some(a), Some(s)) if a > 0.0 && s > 0.0
                        && a.to_bits() == last.arrival_rate.to_bits())
                })
    }

    /// Age, in windows, of the oldest substituted rate in the most recent
    /// [`build`](Self::build) (0 when every operator reported fresh rates;
    /// after a run of fully-missed windows, the age of the surviving
    /// history).
    pub fn staleness(&self) -> u64 {
        self.staleness
    }

    /// Consecutive windows for which [`build`](Self::build) found no usable
    /// report at all. Resets to 0 the moment a window yields a sample.
    pub(crate) fn missed_windows(&self) -> u64 {
        self.missed
    }

    /// The age-decayed credibility weight of the last built sample:
    /// `decay^staleness`, for `decay ∈ (0, 1]`. Feed it to
    /// [`Measurer::observe_weighted`].
    pub fn weight(&self, decay: f64) -> f64 {
        let decay = if decay.is_finite() {
            decay.clamp(0.0, 1.0)
        } else {
            1.0
        };
        decay.powi(i32::try_from(self.staleness.min(1_000)).expect("bounded"))
    }
}

/// Raw metrics reported by a single executor (instance) of an operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceSample {
    /// Tuples that arrived at this instance during the window.
    pub arrivals: u64,
    /// Tuples this instance finished serving.
    pub completions: u64,
    /// Seconds this instance spent serving.
    pub busy_time: f64,
}

/// Aggregates per-instance metrics to operator level (paper App. B: "result
/// aggregation at the operator level"): arrival rates add up; the service
/// rate is total completions over total busy time, i.e. the
/// completion-weighted mean of instance service rates.
///
/// `window_secs` is the window length. Returns `None` for an empty window or
/// when no instance accumulated busy time (no service-rate evidence).
pub fn aggregate_instances(
    instances: &[InstanceSample],
    window_secs: f64,
) -> Option<OperatorRates> {
    if window_secs <= 0.0 || instances.is_empty() {
        return None;
    }
    let arrivals: u64 = instances.iter().map(|i| i.arrivals).sum();
    let completions: u64 = instances.iter().map(|i| i.completions).sum();
    let busy: f64 = instances.iter().map(|i| i.busy_time).sum();
    if busy <= 0.0 {
        return None;
    }
    Some(OperatorRates {
        arrival_rate: arrivals as f64 / window_secs,
        service_rate: completions as f64 / busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rate: f64, sojourn: Option<f64>) -> RawSample {
        RawSample {
            external_rate: rate,
            operators: vec![OperatorRates {
                arrival_rate: rate,
                service_rate: rate / 2.0,
            }],
            mean_sojourn: sojourn,
        }
    }

    #[test]
    fn alpha_smoothing_follows_recurrence() {
        let mut m = Measurer::new(1, Smoothing::Alpha { alpha: 0.8 }).unwrap();
        m.observe(&sample(10.0, None));
        assert_eq!(m.estimates().unwrap().external_rate, 10.0);
        m.observe(&sample(20.0, None));
        // D = 0.8*10 + 0.2*20 = 12.
        assert!((m.estimates().unwrap().external_rate - 12.0).abs() < 1e-12);
        m.observe(&sample(20.0, None));
        // D = 0.8*12 + 0.2*20 = 13.6.
        assert!((m.estimates().unwrap().external_rate - 13.6).abs() < 1e-12);
    }

    #[test]
    fn window_smoothing_averages_last_w() {
        let mut m = Measurer::new(1, Smoothing::Window { size: 3 }).unwrap();
        for r in [10.0, 20.0, 30.0, 40.0] {
            m.observe(&sample(r, None));
        }
        // Last three: (20+30+40)/3 = 30.
        assert!((m.estimates().unwrap().external_rate - 30.0).abs() < 1e-12);
        assert_eq!(m.windows_seen(), 4);
    }

    #[test]
    fn no_estimates_before_first_window() {
        let m = Measurer::new(2, Smoothing::Alpha { alpha: 0.5 }).unwrap();
        assert!(m.estimates().is_none());
    }

    #[test]
    fn sojourn_is_optional_and_skips_empty_windows() {
        let mut m = Measurer::new(1, Smoothing::Alpha { alpha: 0.5 }).unwrap();
        m.observe(&sample(10.0, None));
        assert_eq!(m.estimates().unwrap().mean_sojourn, None);
        m.observe(&sample(10.0, Some(0.4)));
        assert_eq!(m.estimates().unwrap().mean_sojourn, Some(0.4));
        // A window without sojourn does not dilute the smoothed value.
        m.observe(&sample(10.0, None));
        assert_eq!(m.estimates().unwrap().mean_sojourn, Some(0.4));
        m.observe(&sample(10.0, Some(0.8)));
        assert!((m.estimates().unwrap().mean_sojourn.unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn smoothing_converges_to_constant_input() {
        let mut m = Measurer::new(1, Smoothing::Alpha { alpha: 0.9 }).unwrap();
        for _ in 0..200 {
            m.observe(&sample(42.0, Some(0.1)));
        }
        let est = m.estimates().unwrap();
        assert!((est.external_rate - 42.0).abs() < 1e-6);
        assert!((est.operators[0].arrival_rate - 42.0).abs() < 1e-6);
    }

    #[test]
    fn smoothing_dampens_outliers() {
        let mut alpha = Measurer::new(1, Smoothing::Alpha { alpha: 0.9 }).unwrap();
        let mut window = Measurer::new(1, Smoothing::Window { size: 10 }).unwrap();
        for _ in 0..20 {
            alpha.observe(&sample(10.0, None));
            window.observe(&sample(10.0, None));
        }
        // One outlier window at 10x the rate.
        alpha.observe(&sample(100.0, None));
        window.observe(&sample(100.0, None));
        let a = alpha.estimates().unwrap().external_rate;
        let w = window.estimates().unwrap().external_rate;
        assert!(a < 20.0, "alpha-smoothed {a}");
        assert!(w < 20.0, "window-smoothed {w}");
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Measurer::new(1, Smoothing::Alpha { alpha: 1.0 }).is_err());
        assert!(Measurer::new(1, Smoothing::Alpha { alpha: -0.1 }).is_err());
        assert!(Measurer::new(1, Smoothing::Window { size: 0 }).is_err());
    }

    #[test]
    #[should_panic(expected = "operator count mismatch")]
    fn observe_panics_on_wrong_operator_count() {
        let mut m = Measurer::new(2, Smoothing::Alpha { alpha: 0.5 }).unwrap();
        m.observe(&sample(10.0, None)); // sample has 1 operator, measurer has 2
    }

    #[test]
    fn to_model_inputs_preserves_rates() {
        let mut m = Measurer::new(1, Smoothing::Window { size: 2 }).unwrap();
        m.observe(&sample(10.0, Some(0.5)));
        let inputs = m.estimates().unwrap().to_model_inputs();
        assert_eq!(inputs.external_rate, 10.0);
        assert_eq!(inputs.operators.len(), 1);
    }

    #[test]
    fn aggregate_instances_weighted_by_completions() {
        // Two instances: one served 90 tuples in 9 s (10/s), another 10
        // tuples in 2 s (5/s). Operator-level µ̂ = 100/11 ≈ 9.09, NOT the
        // unweighted mean 7.5.
        let rates = aggregate_instances(
            &[
                InstanceSample {
                    arrivals: 95,
                    completions: 90,
                    busy_time: 9.0,
                },
                InstanceSample {
                    arrivals: 12,
                    completions: 10,
                    busy_time: 2.0,
                },
            ],
            10.0,
        )
        .unwrap();
        assert!((rates.service_rate - 100.0 / 11.0).abs() < 1e-12);
        assert!((rates.arrival_rate - 10.7).abs() < 1e-12);
    }

    #[test]
    fn aggregate_instances_empty_cases() {
        assert!(aggregate_instances(&[], 10.0).is_none());
        assert!(aggregate_instances(
            &[InstanceSample {
                arrivals: 0,
                completions: 0,
                busy_time: 0.0
            }],
            10.0
        )
        .is_none());
        assert!(aggregate_instances(
            &[InstanceSample {
                arrivals: 1,
                completions: 1,
                busy_time: 1.0
            }],
            0.0
        )
        .is_none());
    }

    /// `estimates` as it stood before it became a wrapper over
    /// `write_estimates`.
    fn estimates_reference(m: &Measurer) -> Option<SmoothedEstimates> {
        let external_rate = m.external.value()?;
        let mut operators = Vec::with_capacity(m.operators.len());
        for [a, s] in &m.operators {
            operators.push(OperatorRates {
                arrival_rate: a.value()?,
                service_rate: s.value()?,
            });
        }
        Some(SmoothedEstimates {
            external_rate,
            operators,
            mean_sojourn: m.sojourn.value(),
        })
    }

    proptest::proptest! {
        /// `write_estimates` into a reused buffer of any previous content ≡
        /// the old `estimates`, bit for bit, under both smoothings, from
        /// before the first window on.
        #[test]
        fn write_estimates_is_estimates_in_place(
            n_ops in 0usize..4,
            window_smoothing in proptest::option::of(1usize..5),
            alpha in 0.0f64..0.99,
            windows in proptest::collection::vec(
                (0.1f64..100.0, proptest::option::of(0.01f64..2.0), 0.0f64..1.2),
                0..12,
            ),
        ) {
            let smoothing = match window_smoothing {
                Some(size) => Smoothing::Window { size },
                None => Smoothing::Alpha { alpha },
            };
            let mut m = Measurer::new(n_ops, smoothing).unwrap();
            // Starts as somebody else's estimates, of another length.
            let mut reused = SmoothedEstimates {
                external_rate: -1.0,
                operators: vec![OperatorRates { arrival_rate: 9.0, service_rate: 9.0 }; 5],
                mean_sojourn: Some(9.0),
            };
            let bits = |e: &SmoothedEstimates| {
                let ops: Vec<(u64, u64)> = e
                    .operators
                    .iter()
                    .map(|r| (r.arrival_rate.to_bits(), r.service_rate.to_bits()))
                    .collect();
                (e.external_rate.to_bits(), ops, e.mean_sojourn.map(f64::to_bits))
            };
            for step in 0..=windows.len() {
                let want = estimates_reference(&m);
                proptest::prop_assert_eq!(m.estimates().as_ref().map(bits), want.as_ref().map(bits));
                let wrote = m.write_estimates(&mut reused);
                proptest::prop_assert_eq!(wrote, want.is_some());
                if let Some(want) = &want {
                    proptest::prop_assert_eq!(bits(&reused), bits(want));
                }
                if let Some(&(rate, sojourn, weight)) = windows.get(step) {
                    let raw = RawSample {
                        external_rate: rate,
                        operators: (0..n_ops)
                            .map(|i| OperatorRates {
                                arrival_rate: rate * (i + 1) as f64,
                                service_rate: rate / 3.0,
                            })
                            .collect(),
                        mean_sojourn: sojourn,
                    };
                    m.observe_weighted(&raw, weight);
                }
            }
        }
    }

    fn window(
        external: Option<f64>,
        ops: &[(Option<f64>, Option<f64>)],
    ) -> crate::driver::WindowSample {
        crate::driver::WindowSample {
            external_rate: external,
            operators: ops
                .iter()
                .map(|&(a, s)| crate::driver::OperatorSample {
                    arrival_rate: a,
                    service_rate: s,
                })
                .collect(),
            mean_sojourn: None,
            std_sojourn: None,
            completed: 0,
        }
    }

    #[test]
    fn weighted_observe_at_full_weight_matches_unweighted() {
        let mut plain = Measurer::new(1, Smoothing::Alpha { alpha: 0.8 }).unwrap();
        let mut weighted = Measurer::new(1, Smoothing::Alpha { alpha: 0.8 }).unwrap();
        for r in [10.0, 20.0, 15.0, 40.0] {
            plain.observe(&sample(r, Some(0.3)));
            weighted.observe_weighted(&sample(r, Some(0.3)), 1.0);
        }
        let p = plain.estimates().unwrap();
        let w = weighted.estimates().unwrap();
        assert_eq!(p.external_rate.to_bits(), w.external_rate.to_bits());
        assert_eq!(
            p.operators[0].service_rate.to_bits(),
            w.operators[0].service_rate.to_bits()
        );
    }

    #[test]
    fn low_weight_observations_barely_move_the_estimate() {
        let mut m = Measurer::new(1, Smoothing::Alpha { alpha: 0.8 }).unwrap();
        m.observe(&sample(10.0, None));
        // A stale echo of an old 100/s report, heavily discounted.
        m.observe_weighted(&sample(100.0, None), 0.01);
        let est = m.estimates().unwrap().external_rate;
        // Full weight would give 0.8*10 + 0.2*100 = 28; near-zero weight stays near 10.
        assert!(est < 11.0, "estimate {est}");
        assert!(est > 10.0, "estimate {est}");
    }

    #[test]
    fn weighted_window_mean_discounts_stale_values() {
        let mut m = Measurer::new(1, Smoothing::Window { size: 4 }).unwrap();
        m.observe_weighted(&sample(10.0, None), 1.0);
        m.observe_weighted(&sample(50.0, None), 0.25);
        // Weighted mean: (10*1 + 50*0.25) / 1.25 = 18.
        assert!((m.estimates().unwrap().external_rate - 18.0).abs() < 1e-12);
    }

    #[test]
    fn builder_tracks_staleness_of_fallback_rates() {
        let mut b = SampleBuilder::new();
        let fresh = window(Some(10.0), &[(Some(10.0), Some(4.0))]);
        let starved = window(Some(10.0), &[(None, None)]);

        assert!(b.build(&fresh).is_some());
        assert_eq!(b.staleness(), 0);
        assert_eq!(b.missed_windows(), 0);
        assert!((b.weight(0.5) - 1.0).abs() < 1e-12);

        // Two starved windows in a row: fallback ages 1, then 2.
        assert!(b.build(&starved).is_some());
        assert_eq!(b.staleness(), 1);
        assert!((b.weight(0.5) - 0.5).abs() < 1e-12);
        assert!(b.build(&starved).is_some());
        assert_eq!(b.staleness(), 2);
        assert!((b.weight(0.5) - 0.25).abs() < 1e-12);

        // Fresh evidence resets the age, so the next fallback is one
        // window old again.
        assert!(b.build(&fresh).is_some());
        assert_eq!(b.staleness(), 0);
        assert!(b.build(&starved).is_some());
        assert_eq!(b.staleness(), 1);
    }

    #[test]
    fn builder_counts_consecutive_missed_windows() {
        let mut b = SampleBuilder::new();
        let fresh = window(Some(10.0), &[(Some(10.0), Some(4.0))]);
        let silent = window(None, &[(None, None)]);

        assert!(b.build(&fresh).is_some());
        assert!(b.build(&silent).is_none());
        assert!(b.build(&silent).is_none());
        assert_eq!(b.missed_windows(), 2);
        // Fully-missed windows age the surviving history too.
        assert_eq!(b.staleness(), 2);

        // A usable window resets the lease counter.
        assert!(b.build(&fresh).is_some());
        assert_eq!(b.missed_windows(), 0);
        assert_eq!(b.staleness(), 0);
    }

    #[test]
    fn builder_missed_windows_before_any_history() {
        let mut b = SampleBuilder::new();
        let silent = window(None, &[(None, None)]);
        assert!(b.build(&silent).is_none());
        assert!(b.build(&silent).is_none());
        assert_eq!(b.missed_windows(), 2);
    }
}
