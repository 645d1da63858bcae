//! Fig. 10: Tmax-driven resource scaling (Program 6 end to end).
//!
//! Two VLD experiments mirror the paper's ExpA/ExpB:
//!
//! * **ExpA** — a tight latency target with an under-provisioned start
//!   (17 executors on 4 machines, allocation `(8:8:1)`): once re-balancing
//!   is enabled DRS adds a machine (costly pause) and grows to the
//!   22-executor optimum, bringing the sojourn under `Tmax`.
//! * **ExpB** — a loose target starting from the 22-executor optimum on 5
//!   machines: DRS sheds a machine (cheap pause) and shrinks to 17
//!   executors while staying under `Tmax`.
//!
//! The targets are scaled to this reproduction's latency regime (our
//! synthetic SIFT cost model sits a small constant factor above the paper's
//! testbed); EXPERIMENTS.md records the mapping.

use crate::report::{fmt_allocation, render_table};
use drs_apps::VldProfile;
use drs_core::config::DrsConfig;
use drs_core::controller::DrsController;
use drs_core::driver::DrsDriver;
use drs_core::negotiator::{MachineBudget, MachineBudgetConfig};

/// Number of measurement windows (paper: 27 minutes).
pub(crate) const WINDOWS: u64 = 27;
/// Window at which re-balancing is enabled (paper: minute 14).
pub(crate) const ENABLE_AT: u64 = 13;
/// ExpA's latency target (seconds) — tight: only ~22 executors meet it
/// (the paper's 500 ms, scaled to this calibration's latency regime).
pub(crate) const T_MAX_A: f64 = 1.4;
/// ExpB's latency target (seconds) — loose: ~18 executors on 4 machines
/// suffice, robustly between the 18-executor regime (E ≈ 2 s) and the
/// near-critical 17-executor regime (E ≈ 8–50 s, hypersensitive) so the
/// controller settles (the paper's 1000 ms, scaled).
pub(crate) const T_MAX_B: f64 = 5.0;

/// Which Fig. 10 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Tight target, under-provisioned start: scale up.
    ExpA,
    /// Loose target, over-provisioned start: scale down.
    ExpB,
}

impl Experiment {
    /// The experiment's latency target in seconds.
    pub(crate) fn t_max(self) -> f64 {
        match self {
            Experiment::ExpA => T_MAX_A,
            Experiment::ExpB => T_MAX_B,
        }
    }

    /// Initial bolt allocation and machine count.
    pub(crate) fn initial(self) -> ([u32; 3], u32) {
        match self {
            Experiment::ExpA => ([8, 8, 1], 4),   // Kmax = 17
            Experiment::ExpB => ([10, 11, 1], 5), // Kmax = 22
        }
    }
}

/// One window of a Fig. 10 timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Point {
    /// Window index (0-based).
    pub window: u64,
    /// Measured mean sojourn (milliseconds; `NaN` when nothing completed).
    pub sojourn_ms: f64,
    /// Bolt allocation at window end.
    pub allocation: Vec<u32>,
    /// Machines active at window end.
    pub machines: u32,
    /// Whether a re-balance fired in this window.
    pub rebalanced: bool,
}

/// A full Fig. 10 run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Run {
    /// Which experiment.
    pub experiment: Experiment,
    /// Timeline points, one per window.
    pub points: Vec<Fig10Point>,
}

/// Runs one experiment.
pub fn run_fig10(experiment: Experiment, seed: u64, window_secs: u64) -> Fig10Run {
    let (initial, machines) = experiment.initial();
    let profile = VldProfile::paper();
    let sim = profile.build_simulation(initial, seed);
    let pool = MachineBudget::new(MachineBudgetConfig::default(), machines).expect("valid pool");
    let mut config = DrsConfig::min_resources(experiment.t_max());
    // Machine changes pollute several minutes of sojourn measurements (the
    // pause is carried by every queued tuple); hold three windows after
    // each action, as an operator would.
    config.cooldown_windows = 3;
    // Strong smoothing: transient backlogs distort single-window rates
    // (an upstream surge starves downstream arrival counts); α = 0.8 keeps
    // ~5 windows of memory so the fitted rates reflect steady demand
    // (paper App. B's α-weighted averaging, tuned for scaling decisions).
    config.smoothing = drs_core::measurer::Smoothing::Alpha { alpha: 0.8 };
    let mut drs = DrsController::new(config, initial.to_vec(), pool).expect("valid controller");
    drs.set_active(false);
    let mut driver = DrsDriver::new(sim, drs, window_secs as f64).expect("wiring matches");
    driver.run_windows(ENABLE_AT);
    driver.controller_mut().set_active(true);
    driver.run_windows(WINDOWS - ENABLE_AT);

    // Machines only change at rebalances; reconstruct per-window counts by
    // replaying the plan log.
    let mut points = Vec::with_capacity(WINDOWS as usize);
    let mut current_machines = experiment.initial().1;
    for (i, p) in driver.timeline().iter().enumerate() {
        if p.rebalanced {
            current_machines = machines_after_window(driver.controller(), i, current_machines);
        }
        points.push(Fig10Point {
            window: p.window,
            sojourn_ms: p.mean_sojourn_ms.unwrap_or(f64::NAN),
            allocation: p.allocation.clone(),
            machines: current_machines,
            rebalanced: p.rebalanced,
        });
    }
    Fig10Run { experiment, points }
}

fn machines_after_window(controller: &DrsController, window: usize, current: u32) -> u32 {
    // The controller's log entry for this window records the applied plan.
    controller
        .log()
        .get(window)
        .and_then(|e| match &e.action {
            drs_core::controller::ControlAction::Rebalance { plan, .. } => {
                plan.map(|p| p.target_machines)
            }
            drs_core::controller::ControlAction::None => None,
        })
        .unwrap_or(current)
}

impl Fig10Run {
    /// Final total bolt executors.
    #[cfg(test)]
    pub(crate) fn final_executors(&self) -> u32 {
        self.points
            .last()
            .expect("non-empty run")
            .allocation
            .iter()
            .sum()
    }

    /// Final machine count.
    #[cfg(test)]
    pub(crate) fn final_machines(&self) -> u32 {
        self.points.last().expect("non-empty run").machines
    }

    /// Renders the timeline.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.window + 1),
                    if p.sojourn_ms.is_nan() {
                        "-".to_owned()
                    } else {
                        format!("{:.0}", p.sojourn_ms)
                    },
                    fmt_allocation(&p.allocation),
                    p.machines.to_string(),
                    if p.rebalanced {
                        "R".to_owned()
                    } else {
                        String::new()
                    },
                ]
            })
            .collect();
        let (initial, machines) = self.experiment.initial();
        render_table(
            &format!(
                "Fig. 10 — {:?} (VLD): Tmax = {:.0} ms, initial {} on {} machines",
                self.experiment,
                self.experiment.t_max() * 1e3,
                fmt_allocation(&initial),
                machines
            ),
            &["minute", "avg sojourn (ms)", "allocation", "machines", ""],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expa_scales_up_and_meets_target() {
        let run = run_fig10(Experiment::ExpA, 43, 30);
        // Started at 17 executors / 4 machines…
        assert_eq!(run.points[0].allocation.iter().sum::<u32>(), 17);
        assert_eq!(run.points[0].machines, 4);
        // …ends beyond one machine's worth (> 20 executors forces the 5th
        // machine; the exact count is 21-23 depending on measured rates,
        // the paper lands on 22).
        assert!(
            run.final_executors() > 20,
            "final executors {}",
            run.final_executors()
        );
        assert!(run.final_machines() > 4);
        // Sojourn before enabling violates Tmax; at the end it meets it.
        let pre = run.points[ENABLE_AT as usize - 1].sojourn_ms;
        assert!(pre > T_MAX_A * 1e3, "pre-rebalance sojourn {pre} ms");
        let last = run.points.last().unwrap().sojourn_ms;
        assert!(
            last < T_MAX_A * 1e3 * 1.2,
            "final sojourn {last} ms should approach the target"
        );
    }

    #[test]
    fn expb_scales_down_and_stays_under_target() {
        let run = run_fig10(Experiment::ExpB, 47, 30);
        assert_eq!(run.points[0].allocation.iter().sum::<u32>(), 22);
        assert_eq!(run.points[0].machines, 5);
        assert!(
            run.final_executors() < 22,
            "final executors {}",
            run.final_executors()
        );
        assert!(run.final_machines() < 5);
    }

    #[test]
    fn render_shows_machine_changes() {
        let run = run_fig10(Experiment::ExpB, 53, 20);
        let s = run.render();
        assert!(s.contains("machines"));
        assert!(s.contains("ExpB"));
    }
}
