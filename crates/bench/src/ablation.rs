//! Ablation studies on DRS's design choices.
//!
//! Three questions the paper leaves implicit, answered experimentally:
//!
//! 1. **Does the greedy allocator really pay for itself?**
//!    [`run_greedy_vs_exhaustive`] compares Algorithm 1 against brute-force
//!    enumeration — identical objective values, orders of magnitude apart
//!    in cost.
//! 2. **How robust is the M/M/k model to service-law violations?**
//!    [`run_distribution_robustness`] simulates the same (λ, µ, k) operator
//!    under deterministic, Erlang-4, exponential, and hyperexponential
//!    service, reporting measured/estimated sojourn ratios. The model is
//!    exact only for exponential; burstier laws queue more, smoother laws
//!    less — quantifying §V-C's "robust to these variations" claim.
//! 3. **What does the decision gate buy?** [`run_gate_value`] runs the
//!    closed loop with the default cost/benefit gate versus a trigger-happy
//!    policy that re-balances on any predicted improvement, counting
//!    actions and comparing steady-state latency.

use crate::report::{fmt, render_table};
use crate::timing::time_per_call_us;
use drs_apps::VldProfile;
use drs_core::config::DrsConfig;
use drs_core::controller::DrsController;
use drs_core::decision::DecisionPolicy;
use drs_core::driver::DrsDriver;
use drs_core::negotiator::{MachineBudget, MachineBudgetConfig};
use drs_core::scheduler::{assign_processors, assign_processors_exhaustive};
use drs_queueing::distribution::Distribution;
use drs_queueing::erlang::MmKQueue;
use drs_queueing::jackson::JacksonNetwork;
use drs_queueing::mgk::GgKQueue;
use drs_sim::workload::OperatorBehavior;
use drs_sim::{SimDuration, SimulationBuilder};
use drs_topology::TopologyBuilder;

/// One row of the greedy-vs-exhaustive comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyVsExhaustiveRow {
    /// Number of operators.
    pub operators: usize,
    /// Processor budget.
    pub k_max: u32,
    /// Greedy runtime (microseconds).
    pub greedy_us: f64,
    /// Exhaustive runtime (microseconds).
    pub exhaustive_us: f64,
    /// Objective gap `E_greedy − E_brute` (should be ~0 by Theorem 1).
    pub objective_gap: f64,
}

/// Runs the greedy-vs-exhaustive ablation over growing network sizes.
pub fn run_greedy_vs_exhaustive() -> Vec<GreedyVsExhaustiveRow> {
    [(3usize, 24u32), (4, 24), (5, 26), (6, 28)]
        .into_iter()
        .map(|(n, k_max)| {
            let ops: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let lambda = 20.0 + 7.0 * i as f64;
                    (lambda, lambda / (2.0 + 0.5 * i as f64))
                })
                .collect();
            let net = JacksonNetwork::from_rates(20.0, &ops).unwrap();

            // Averaged over repeats: a single cold call is at the mercy of a
            // context switch, which makes the runtime columns noisy when the
            // test suite runs in parallel.
            const REPEATS: u32 = 50;
            let greedy_us = time_per_call_us(REPEATS, || {
                std::hint::black_box(assign_processors(&net, k_max).expect("feasible"));
            });
            let greedy = assign_processors(&net, k_max).expect("feasible");

            let exhaustive_us = time_per_call_us(REPEATS, || {
                std::hint::black_box(assign_processors_exhaustive(&net, k_max).expect("feasible"));
            });
            let brute = assign_processors_exhaustive(&net, k_max).expect("feasible");

            GreedyVsExhaustiveRow {
                operators: n,
                k_max,
                greedy_us,
                exhaustive_us,
                objective_gap: greedy.expected_sojourn() - brute.expected_sojourn(),
            }
        })
        .collect()
}

/// Renders the greedy-vs-exhaustive table.
pub fn render_greedy_vs_exhaustive(rows: &[GreedyVsExhaustiveRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.operators.to_string(),
                r.k_max.to_string(),
                fmt(r.greedy_us, 1),
                fmt(r.exhaustive_us, 1),
                format!("{:+.2e}", r.objective_gap),
            ]
        })
        .collect();
    render_table(
        "Ablation — Algorithm 1 (greedy) vs exhaustive enumeration",
        &[
            "operators",
            "Kmax",
            "greedy (µs)",
            "exhaustive (µs)",
            "E[T] gap (s)",
        ],
        &table,
    )
}

/// One row of the distribution-robustness ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Service-law label.
    pub law: &'static str,
    /// Squared coefficient of variation of the law.
    pub cv2: f64,
    /// Measured mean sojourn (ms).
    pub measured_ms: f64,
    /// M/M/k estimate (ms).
    pub estimated_ms: f64,
    /// measured / M-M-k estimate.
    pub ratio: f64,
    /// Allen–Cunneen `M/G/k` estimate (ms) — the paper's §VI future-work
    /// model, using the law's cv².
    pub corrected_ms: f64,
    /// measured / corrected estimate.
    pub corrected_ratio: f64,
}

/// Simulates one M/G/k operator (λ=40, µ=10, k=5, ρ=0.8) under different
/// service laws and compares with the exponential-assumption estimate.
pub fn run_distribution_robustness(measure_secs: u64, seed: u64) -> Vec<RobustnessRow> {
    let lambda = 40.0;
    let mu = 10.0;
    let servers = 5u32;
    let laws: Vec<(&'static str, Distribution)> = vec![
        (
            "deterministic",
            Distribution::deterministic(1.0 / mu).unwrap(),
        ),
        ("erlang-4", Distribution::erlang(4, 4.0 * mu).unwrap()),
        ("exponential", Distribution::exponential(mu).unwrap()),
        (
            "hyperexponential",
            // cv² = 4: two branches mixing fast and slow tuples.
            Distribution::hyperexponential(0.9, 18.0, 2.042).unwrap(),
        ),
    ];
    let estimate = MmKQueue::new(lambda, mu).unwrap().expected_sojourn(servers);

    laws.into_iter()
        .enumerate()
        .map(|(i, (label, service))| {
            let cv2 = service.cv2();
            let mut b = TopologyBuilder::new();
            let spout = b.spout("src");
            let bolt = b.bolt("op");
            b.edge(spout, bolt).unwrap();
            let topo = b.build().unwrap();
            let mut sim = SimulationBuilder::new(topo)
                .behavior(
                    spout,
                    OperatorBehavior::Spout {
                        interarrival: Distribution::exponential(lambda).unwrap(),
                    },
                )
                .behavior(bolt, OperatorBehavior::Bolt { service })
                .allocation(vec![1, servers])
                .seed(seed + i as u64)
                .build()
                .unwrap();
            sim.run_for(SimDuration::from_secs(measure_secs));
            let measured = sim.total_sojourn_stats().mean().unwrap();
            // The future-work model: Poisson arrivals (ca² = 1) with the
            // law's measured service cv².
            let corrected = GgKQueue::new(lambda, mu, 1.0, cv2)
                .expect("valid moments")
                .expected_sojourn(servers);
            RobustnessRow {
                law: label,
                cv2,
                measured_ms: measured * 1e3,
                estimated_ms: estimate * 1e3,
                ratio: measured / estimate,
                corrected_ms: corrected * 1e3,
                corrected_ratio: measured / corrected,
            }
        })
        .collect()
}

/// Renders the robustness table.
pub fn render_distribution_robustness(rows: &[RobustnessRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.law.to_owned(),
                fmt(r.cv2, 2),
                fmt(r.measured_ms, 2),
                fmt(r.estimated_ms, 2),
                fmt(r.ratio, 2),
                fmt(r.corrected_ms, 2),
                fmt(r.corrected_ratio, 2),
            ]
        })
        .collect();
    render_table(
        "Ablation — model accuracy under service-law violations (M/G/5, ρ=0.8): \
         paper's M/M/k vs §VI future-work Allen–Cunneen M/G/k",
        &[
            "service law",
            "cv²",
            "measured (ms)",
            "M/M/k (ms)",
            "ratio",
            "M/G/k (ms)",
            "corrected ratio",
        ],
        &table,
    )
}

/// Outcome of the decision-gate ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct GateValueRow {
    /// Policy label.
    pub policy: &'static str,
    /// Rebalances executed over the run.
    pub rebalances: usize,
    /// Mean sojourn over the last third of the run (ms).
    pub steady_sojourn_ms: f64,
    /// Total pause time charged (seconds).
    pub total_pause_secs: f64,
}

/// Runs the VLD closed loop from a mildly sub-optimal start under the
/// default gate versus a trigger-happy policy.
pub fn run_gate_value(windows: u64, window_secs: u64, seed: u64) -> Vec<GateValueRow> {
    let policies: Vec<(&'static str, DecisionPolicy)> = vec![
        ("cost/benefit gate (default)", DecisionPolicy::default()),
        (
            "trigger-happy (no gate)",
            DecisionPolicy {
                min_relative_improvement: 0.0,
                amortization_horizon: f64::INFINITY,
                violation_margin: 0.0,
                min_executor_savings: 1,
            },
        ),
    ];
    policies
        .into_iter()
        .map(|(label, policy)| {
            let profile = VldProfile::paper();
            let initial = [9u32, 11, 2];
            let sim = profile.build_simulation(initial, seed);
            let pool = MachineBudget::new(MachineBudgetConfig::default(), 5).unwrap();
            let mut cfg = DrsConfig::min_latency(22);
            cfg.policy = policy;
            cfg.cooldown_windows = 0; // expose the gate's own behaviour
            let drs = DrsController::new(cfg, initial.to_vec(), pool).unwrap();
            let mut driver = DrsDriver::new(sim, drs, window_secs as f64).expect("wiring matches");
            driver.run_windows(windows);
            let timeline = driver.timeline();
            let rebalances = timeline.iter().filter(|p| p.rebalanced).count();
            let tail = &timeline[(timeline.len() * 2 / 3)..];
            let steady: f64 = tail.iter().filter_map(|p| p.mean_sojourn_ms).sum::<f64>()
                / tail.len().max(1) as f64;
            // Each rebalance of the latency goal charges the steady pause.
            let total_pause = rebalances as f64 * driver.controller().pool().config().steady_pause;
            GateValueRow {
                policy: label,
                rebalances,
                steady_sojourn_ms: steady,
                total_pause_secs: total_pause,
            }
        })
        .collect()
}

/// Renders the gate-value table.
pub fn render_gate_value(rows: &[GateValueRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_owned(),
                r.rebalances.to_string(),
                fmt(r.steady_sojourn_ms, 0),
                fmt(r.total_pause_secs, 1),
            ]
        })
        .collect();
    render_table(
        "Ablation — value of the rebalance cost/benefit gate (VLD, start (9:11:2))",
        &[
            "policy",
            "rebalances",
            "steady sojourn (ms)",
            "pause charged (s)",
        ],
        &table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_matches_exhaustive_and_is_faster() {
        let rows = run_greedy_vs_exhaustive();
        for r in &rows {
            assert!(
                r.objective_gap.abs() < 1e-9,
                "{} ops: gap {}",
                r.operators,
                r.objective_gap
            );
        }
        // Exhaustive blows up combinatorially: by 6 operators it must be
        // far slower than greedy.
        let last = rows.last().unwrap();
        assert!(
            last.exhaustive_us > 10.0 * last.greedy_us,
            "exhaustive {}, greedy {}",
            last.exhaustive_us,
            last.greedy_us
        );
    }

    #[test]
    fn queueing_grows_with_service_variability() {
        let rows = run_distribution_robustness(400, 7);
        let by_label = |l: &str| rows.iter().find(|r| r.law == l).unwrap().clone();
        let det = by_label("deterministic");
        let erl = by_label("erlang-4");
        let exp = by_label("exponential");
        let hyper = by_label("hyperexponential");
        // Exponential is the model's own assumption: ratio ≈ 1.
        assert!(
            (exp.ratio - 1.0).abs() < 0.1,
            "exponential ratio {}",
            exp.ratio
        );
        // Smoother laws queue less, burstier laws more.
        assert!(det.ratio < erl.ratio, "{} !< {}", det.ratio, erl.ratio);
        assert!(
            erl.ratio < exp.ratio * 1.05,
            "{} !< {}",
            erl.ratio,
            exp.ratio
        );
        assert!(hyper.ratio > exp.ratio, "{} !> {}", hyper.ratio, exp.ratio);
        assert!(det.ratio < 1.0);
        // The Allen–Cunneen correction tightens every non-exponential law.
        for r in [&det, &erl, &hyper] {
            assert!(
                (r.corrected_ratio - 1.0).abs() < (r.ratio - 1.0).abs() + 0.02,
                "{}: corrected {} should beat plain {}",
                r.law,
                r.corrected_ratio,
                r.ratio
            );
        }
        assert!(
            (hyper.corrected_ratio - 1.0).abs() < 0.35,
            "hyperexponential corrected ratio {}",
            hyper.corrected_ratio
        );
    }

    #[test]
    fn gate_reduces_rebalances_without_hurting_latency() {
        let rows = run_gate_value(10, 30, 5);
        let gated = &rows[0];
        let eager = &rows[1];
        assert!(
            gated.rebalances <= eager.rebalances,
            "gated {} > eager {}",
            gated.rebalances,
            eager.rebalances
        );
        // The gate must not cost more than 15% steady-state latency.
        assert!(
            gated.steady_sojourn_ms < eager.steady_sojourn_ms * 1.15,
            "gated {} vs eager {}",
            gated.steady_sojourn_ms,
            eager.steady_sojourn_ms
        );
    }

    #[test]
    fn renders_are_complete() {
        let rows = run_greedy_vs_exhaustive();
        assert!(render_greedy_vs_exhaustive(&rows).contains("greedy"));
        let rows = run_distribution_robustness(30, 1);
        assert!(render_distribution_robustness(&rows).contains("hyperexponential"));
    }
}
