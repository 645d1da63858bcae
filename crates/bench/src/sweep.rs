//! Allocation sweeps behind paper Figs. 6 and 7: run VLD and FPD under the
//! six allocations each, with re-balancing disabled, recording measured
//! sojourn statistics and the model's estimate from the same run's measured
//! rates.

use crate::report::{fmt, fmt_allocation, render_table, spearman};
use drs_apps::{FpdProfile, VldProfile};
use drs_core::model::{ModelInputs, OperatorRates, PerformanceModel};
use drs_core::scheduler::assign_processors;
use drs_sim::{SimDuration, Simulator};
use drs_topology::OperatorId;

/// Which application a sweep covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Video logo detection.
    Vld,
    /// Frequent pattern detection.
    Fpd,
}

impl App {
    /// The paper's Fig. 6 allocations for this application, in the paper's
    /// x-axis order.
    pub(crate) fn fig6_allocations(self) -> [[u32; 3]; 6] {
        match self {
            App::Vld => [
                [8, 12, 2],
                [9, 11, 2],
                [10, 11, 1],
                [11, 9, 2],
                [11, 10, 1],
                [12, 9, 1],
            ],
            App::Fpd => [
                [5, 14, 3],
                [6, 12, 4],
                [6, 13, 3],
                [7, 12, 3],
                [7, 13, 2],
                [8, 12, 2],
            ],
        }
    }

    fn build(self, allocation: [u32; 3], seed: u64) -> (Simulator, Vec<OperatorId>) {
        match self {
            App::Vld => {
                let p = VldProfile::paper();
                let topo = p.topology();
                let ids = p.bolt_ids(&topo).to_vec();
                (p.build_simulation(allocation, seed), ids)
            }
            App::Fpd => {
                let p = FpdProfile::paper();
                let topo = p.topology();
                let ids = p.bolt_ids(&topo).to_vec();
                (p.build_simulation(allocation, seed), ids)
            }
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            App::Vld => write!(f, "Video Logo Detection (VLD)"),
            App::Fpd => write!(f, "Frequent Pattern Detection (FPD)"),
        }
    }
}

/// One allocation's outcome in the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The bolt allocation `(x1:x2:x3)`.
    pub allocation: [u32; 3],
    /// Measured mean complete sojourn time (milliseconds).
    pub measured_mean_ms: f64,
    /// Standard deviation of sojourn times (milliseconds).
    pub measured_std_ms: f64,
    /// Model estimate from the run's own measured rates (milliseconds).
    pub estimated_ms: f64,
    /// Whether the passive DRS recommendation equals this allocation.
    pub recommended: bool,
}

/// A complete sweep over one application.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The application.
    pub app: App,
    /// One row per Fig. 6 allocation.
    pub rows: Vec<SweepRow>,
    /// The allocation the passively running DRS recommended.
    pub recommendation: [u32; 3],
}

/// Runs the sweep: each allocation simulated for `measure_secs` of
/// simulated time (the paper uses 10 minutes) after a warm-up of one fifth
/// of that.
pub fn run_sweep(app: App, measure_secs: u64, seed: u64) -> Sweep {
    let allocations = app.fig6_allocations();
    let mut measured: Vec<(f64, f64)> = Vec::new();
    let mut estimates: Vec<f64> = Vec::new();
    let mut pooled: Vec<ModelInputs> = Vec::new();

    for (i, &allocation) in allocations.iter().enumerate() {
        let (mut sim, bolts) = app.build(allocation, seed + i as u64);
        // Warm-up excluded from statistics.
        sim.run_for(SimDuration::from_secs(measure_secs / 5));
        let _ = sim.take_window();
        sim.run_for(SimDuration::from_secs(measure_secs));
        let w = sim.take_window();
        measured.push((
            w.sojourn.mean().unwrap_or(f64::NAN) * 1e3,
            w.sojourn.std_dev().unwrap_or(f64::NAN) * 1e3,
        ));

        // Fit the model to this run's measured rates (the passive DRS).
        let inputs = ModelInputs {
            external_rate: w.external_rate().expect("non-empty window"),
            operators: bolts
                .iter()
                .map(|id| OperatorRates {
                    arrival_rate: w
                        .operator_arrival_rate(id.index())
                        .expect("active operator"),
                    service_rate: w
                        .operator_service_rate(id.index())
                        .expect("active operator"),
                })
                .collect(),
        };
        let model = PerformanceModel::new(&inputs).expect("valid measured rates");
        let allocation_u32 = allocation.to_vec();
        estimates.push(
            model
                .expected_sojourn(&allocation_u32)
                .expect("allocation matches model")
                * 1e3,
        );
        pooled.push(inputs);
    }

    // The DRS recommendation under Kmax = 22. Arrival and service rates are
    // intrinsic to the workload (allocation-independent), so we pool the
    // measurements of all six runs — the sweep-wide analogue of the
    // measurer's window smoothing — before asking Algorithm 1.
    let n_ops = pooled[0].operators.len();
    let pooled_inputs = ModelInputs {
        external_rate: pooled.iter().map(|m| m.external_rate).sum::<f64>() / pooled.len() as f64,
        operators: (0..n_ops)
            .map(|op| OperatorRates {
                arrival_rate: pooled
                    .iter()
                    .map(|m| m.operators[op].arrival_rate)
                    .sum::<f64>()
                    / pooled.len() as f64,
                service_rate: pooled
                    .iter()
                    .map(|m| m.operators[op].service_rate)
                    .sum::<f64>()
                    / pooled.len() as f64,
            })
            .collect(),
    };
    let pooled_model = PerformanceModel::new(&pooled_inputs).expect("valid pooled rates");
    let rec = assign_processors(pooled_model.network(), 22).expect("22 executors suffice");
    let mut recommendation = [0u32; 3];
    recommendation.copy_from_slice(rec.per_operator());
    let rows = allocations
        .iter()
        .zip(measured)
        .zip(estimates)
        .map(|((&allocation, (mean, std)), est)| SweepRow {
            allocation,
            measured_mean_ms: mean,
            measured_std_ms: std,
            estimated_ms: est,
            recommended: allocation == recommendation,
        })
        .collect();
    Sweep {
        app,
        rows,
        recommendation,
    }
}

impl Sweep {
    /// The row with the lowest measured mean sojourn.
    pub(crate) fn best_measured(&self) -> &SweepRow {
        self.rows
            .iter()
            .min_by(|a, b| {
                a.measured_mean_ms
                    .partial_cmp(&b.measured_mean_ms)
                    .expect("finite measurements")
            })
            .expect("non-empty sweep")
    }

    /// Spearman rank correlation between estimated and measured sojourn
    /// times (Fig. 7's monotonicity claim; 1.0 = strictly monotone).
    pub fn rank_correlation(&self) -> f64 {
        let est: Vec<f64> = self.rows.iter().map(|r| r.estimated_ms).collect();
        let meas: Vec<f64> = self.rows.iter().map(|r| r.measured_mean_ms).collect();
        spearman(&est, &meas).unwrap_or(f64::NAN)
    }

    /// Renders the Fig. 6 panel (measured mean ± std per allocation).
    pub fn render_fig6(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!(
                        "{}{}",
                        fmt_allocation(&r.allocation),
                        if r.recommended { "*" } else { "" }
                    ),
                    fmt(r.measured_mean_ms, 1),
                    fmt(r.measured_std_ms, 1),
                ]
            })
            .collect();
        let mut out = render_table(
            &format!("Fig. 6 — {} (re-balancing disabled)", self.app),
            &["allocation", "measured mean sojourn (ms)", "std (ms)"],
            &rows,
        );
        out.push_str(&format!(
            "DRS (passive) recommends {}*; best measured allocation is {}\n",
            fmt_allocation(&self.recommendation),
            fmt_allocation(&self.best_measured().allocation),
        ));
        out
    }

    /// Renders the Fig. 7 panel (estimated vs measured per allocation).
    pub fn render_fig7(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    fmt_allocation(&r.allocation),
                    fmt(r.estimated_ms, 1),
                    fmt(r.measured_mean_ms, 1),
                    fmt(r.measured_mean_ms / r.estimated_ms, 2),
                ]
            })
            .collect();
        let mut out = render_table(
            &format!("Fig. 7 — {}: model estimate vs measurement", self.app),
            &[
                "allocation",
                "estimated (ms)",
                "measured (ms)",
                "measured/estimated",
            ],
            &rows,
        );
        out.push_str(&format!(
            "Spearman rank correlation (estimated vs measured): {:.3}\n",
            self.rank_correlation()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Short sweeps keep tests quick; the repro binary runs the full 10 min.
    const QUICK_SECS: u64 = 150;

    #[test]
    fn vld_sweep_recommendation_is_best_measured() {
        let sweep = run_sweep(App::Vld, QUICK_SECS, 11);
        assert_eq!(sweep.recommendation, [10, 11, 1]);
        // The starred allocation is measured-best up to simulation noise:
        // within 3% of the minimum (its only real rival, (11:10:1), is the
        // same near-tie the paper's Fig. 6 shows)…
        let starred = sweep
            .rows
            .iter()
            .find(|r| r.allocation == [10, 11, 1])
            .unwrap();
        let best = sweep.best_measured();
        assert!(
            starred.measured_mean_ms <= best.measured_mean_ms * 1.03,
            "starred {} ms vs best {} ms",
            starred.measured_mean_ms,
            best.measured_mean_ms
        );
        // …and decisively beats the worst allocation.
        let worst = sweep
            .rows
            .iter()
            .map(|r| r.measured_mean_ms)
            .fold(0.0f64, f64::max);
        assert!(starred.measured_mean_ms < worst * 0.85);
        // Monotone model: strong rank correlation even on short runs.
        assert!(
            sweep.rank_correlation() > 0.7,
            "rank correlation {}",
            sweep.rank_correlation()
        );
    }

    #[test]
    fn fpd_sweep_recommendation_matches_paper() {
        let sweep = run_sweep(App::Fpd, QUICK_SECS, 13);
        assert_eq!(sweep.recommendation, [6, 13, 3]);
        // FPD is network-dominated: the model must underestimate everywhere.
        for row in &sweep.rows {
            assert!(
                row.measured_mean_ms > row.estimated_ms,
                "{:?} measured {} <= estimated {}",
                row.allocation,
                row.measured_mean_ms,
                row.estimated_ms
            );
        }
    }

    #[test]
    fn renders_are_complete() {
        let sweep = run_sweep(App::Vld, 60, 17);
        let f6 = sweep.render_fig6();
        assert!(f6.contains("(10:11:1)"));
        let f7 = sweep.render_fig7();
        assert!(f7.contains("Spearman"));
    }
}
