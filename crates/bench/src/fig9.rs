//! Fig. 9: re-balancing timelines.
//!
//! For each application, three runs start from different initial
//! allocations (two sub-optimal, one optimal). DRS runs passively for the
//! first 13 minutes, then re-balancing is enabled; the sub-optimal runs are
//! re-scheduled to the unique optimum and their sojourn-time curves drop to
//! match the optimal run's.

use crate::report::{fmt_allocation, render_table};
use crate::sweep::App;
use drs_apps::{FpdProfile, VldProfile};
use drs_core::config::DrsConfig;
use drs_core::controller::DrsController;
use drs_core::driver::DrsDriver;
use drs_core::negotiator::{MachinePool, MachinePoolConfig};
use drs_sim::Simulator;

/// Number of measurement windows in a Fig. 9 run (paper: 27 minutes).
pub(crate) const WINDOWS: u64 = 27;
/// Window at which re-balancing is enabled (paper: start of the 14th
/// minute).
pub(crate) const ENABLE_AT: u64 = 13;

/// One run's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Run {
    /// The initial bolt allocation.
    pub initial: [u32; 3],
    /// Mean sojourn per window (milliseconds; `NaN` when no tuple finished).
    pub sojourn_ms: Vec<f64>,
    /// Windows in which a re-balance fired.
    pub rebalance_windows: Vec<u64>,
    /// The allocation at the end of the run.
    pub final_allocation: Vec<u32>,
}

/// The paper's initial allocations for each application.
pub(crate) fn initial_allocations(app: App) -> [[u32; 3]; 3] {
    match app {
        App::Vld => [[8, 12, 2], [11, 9, 2], [10, 11, 1]],
        App::Fpd => [[8, 12, 2], [7, 13, 2], [6, 13, 3]],
    }
}

fn build_driver(app: App, initial: [u32; 3], seed: u64, window_secs: u64) -> DrsDriver<Simulator> {
    let sim = match app {
        App::Vld => VldProfile::paper().build_simulation(initial, seed),
        App::Fpd => FpdProfile::paper().build_simulation(initial, seed),
    };
    let pool = MachinePool::new(MachinePoolConfig::default(), 5).expect("valid pool");
    let mut drs = DrsController::new(DrsConfig::min_latency(22), initial.to_vec(), pool)
        .expect("valid controller");
    drs.set_active(false); // passive until ENABLE_AT
    DrsDriver::new(sim, drs, window_secs as f64).expect("wiring matches")
}

/// Runs one Fig. 9 timeline.
pub(crate) fn run_one(app: App, initial: [u32; 3], seed: u64, window_secs: u64) -> Fig9Run {
    let mut driver = build_driver(app, initial, seed, window_secs);
    driver.run_windows(ENABLE_AT);
    driver.controller_mut().set_active(true);
    driver.run_windows(WINDOWS - ENABLE_AT);
    let timeline = driver.timeline();
    Fig9Run {
        initial,
        sojourn_ms: timeline
            .iter()
            .map(|p| p.mean_sojourn_ms.unwrap_or(f64::NAN))
            .collect(),
        rebalance_windows: timeline
            .iter()
            .filter(|p| p.rebalanced)
            .map(|p| p.window)
            .collect(),
        final_allocation: timeline
            .last()
            .expect("non-empty timeline")
            .allocation
            .clone(),
    }
}

/// Runs all three initial allocations for one application.
pub fn run_fig9(app: App, seed: u64, window_secs: u64) -> Vec<Fig9Run> {
    initial_allocations(app)
        .into_iter()
        .enumerate()
        .map(|(i, initial)| run_one(app, initial, seed + 100 * i as u64, window_secs))
        .collect()
}

/// Renders the Fig. 9 panel for one application.
pub fn render_fig9(app: App, runs: &[Fig9Run]) -> String {
    let header_cells: Vec<String> = std::iter::once("minute".to_owned())
        .chain(runs.iter().map(|r| fmt_allocation(&r.initial)))
        .collect();
    let header: Vec<&str> = header_cells.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..WINDOWS as usize)
        .map(|w| {
            let mut row = vec![format!("{}", w + 1)];
            for r in runs {
                let v = r.sojourn_ms[w];
                let marker = if r.rebalance_windows.contains(&(w as u64)) {
                    " R"
                } else {
                    ""
                };
                row.push(if v.is_nan() {
                    format!("-{marker}")
                } else {
                    format!("{v:.0}{marker}")
                });
            }
            row
        })
        .collect();
    let mut out = render_table(
        &format!(
            "Fig. 9 — {app}: avg sojourn (ms) per minute; re-balancing enabled at minute {}",
            ENABLE_AT + 1
        ),
        &header,
        &rows,
    );
    for r in runs {
        out.push_str(&format!(
            "initial {} -> final {} (rebalances at minutes {:?})\n",
            fmt_allocation(&r.initial),
            fmt_allocation(&r.final_allocation),
            r.rebalance_windows
                .iter()
                .map(|w| w + 1)
                .collect::<Vec<_>>(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vld_runs_converge_to_unique_optimum() {
        // 20-second windows keep the test quick; the repro binary uses the
        // paper's 60 s minutes.
        let runs = run_fig9(App::Vld, 31, 20);
        for r in &runs {
            assert_eq!(
                r.final_allocation,
                vec![10, 11, 1],
                "initial {:?} did not converge",
                r.initial
            );
        }
        // The optimal-start run never re-balances…
        assert!(runs[2].rebalance_windows.is_empty());
        // …the sub-optimal ones re-balance only after minute 13.
        for r in &runs[..2] {
            assert!(!r.rebalance_windows.is_empty());
            assert!(r.rebalance_windows.iter().all(|&w| w >= ENABLE_AT));
        }
    }

    #[test]
    fn fpd_runs_converge_to_unique_optimum() {
        // Short 10-second windows keep the FPD event volume tractable.
        let runs = run_fig9(App::Fpd, 53, 10);
        for r in &runs {
            assert_eq!(
                r.final_allocation,
                vec![6, 13, 3],
                "initial {:?} did not converge",
                r.initial
            );
        }
        assert!(runs[2].rebalance_windows.is_empty());
        for r in &runs[..2] {
            assert!(r.rebalance_windows.iter().all(|&w| w >= ENABLE_AT));
        }
    }

    #[test]
    fn rebalance_lowers_suboptimal_curves() {
        let runs = run_fig9(App::Vld, 37, 20);
        let bad = &runs[0]; // (8:12:2)
        let pre: f64 = bad.sojourn_ms[8..13].iter().sum::<f64>() / 5.0;
        let post: f64 = bad.sojourn_ms[22..27].iter().sum::<f64>() / 5.0;
        assert!(
            post < pre,
            "post-rebalance {post} ms should beat pre-rebalance {pre} ms"
        );
    }

    #[test]
    fn render_includes_all_minutes() {
        let runs = run_fig9(App::Vld, 41, 10);
        let s = render_fig9(App::Vld, &runs);
        assert!(s.contains("minute"));
        assert!(s.contains("27"));
    }
}
