//! Workload-surge elasticity experiment (beyond the paper's fixed-rate
//! runs).
//!
//! The paper's §I motivation is streams whose "volume, arrival rates, value
//! distribution can fluctuate in an unpredictable manner". This experiment
//! exercises exactly that: the VLD frame rate doubles mid-run and later
//! falls back. Under the resource-minimisation goal, DRS must ride the
//! surge — grow the allocation (adding machines) when the target is
//! threatened and release resources once the surge passes.

use crate::report::render_table;
use drs_apps::VldProfile;
use drs_core::config::DrsConfig;
use drs_core::controller::DrsController;
use drs_core::driver::DrsDriver;
use drs_core::measurer::Smoothing;
use drs_core::negotiator::{MachineBudget, MachineBudgetConfig};
use drs_queueing::distribution::Distribution;

/// One window of the surge timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SurgePoint {
    /// Window index (0-based).
    pub window: u64,
    /// Measured mean sojourn (ms, `NaN` when idle).
    pub sojourn_ms: f64,
    /// Bolt executors in force.
    pub executors: u32,
    /// Machines active.
    pub machines: u32,
    /// External frame rate in force (frames/second).
    pub frame_rate: f64,
    /// Whether DRS re-balanced this window.
    pub rebalanced: bool,
}

/// Timeline phases: windows [0, surge_at) at the base rate,
/// [surge_at, relax_at) at the surged rate, [relax_at, windows) back at
/// base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurgeConfig {
    /// Total windows.
    pub windows: u64,
    /// Window at which the rate surges.
    pub surge_at: u64,
    /// Window at which the rate returns to base.
    pub relax_at: u64,
    /// Surge multiplier on the frame rate.
    pub surge_factor: f64,
    /// Window length (seconds).
    pub window_secs: u64,
    /// The latency target (seconds).
    pub t_max: f64,
}

impl Default for SurgeConfig {
    fn default() -> Self {
        SurgeConfig {
            windows: 34,
            surge_at: 10,
            relax_at: 20,
            surge_factor: 1.35,
            window_secs: 60,
            // Base-rate answer: 19 executors (margin on both sides); surge
            // answer: ~24 executors on a 5th machine.
            t_max: 2.0,
        }
    }
}

/// Runs the surge experiment.
pub fn run_surge(config: SurgeConfig, seed: u64) -> Vec<SurgePoint> {
    let profile = VldProfile::paper();
    let topo = profile.topology();
    let spout = topo
        .operator_by_name("video-spout")
        .expect("vld topology")
        .id();
    let initial = [9u32, 10, 1];
    let sim = profile.build_simulation(initial, seed);
    let pool = MachineBudget::new(MachineBudgetConfig::default(), 4).expect("valid pool");
    let mut drs_config = DrsConfig::min_resources(config.t_max);
    drs_config.cooldown_windows = 2;
    drs_config.smoothing = Smoothing::Alpha { alpha: 0.7 };
    // Rate estimates from one or two windows are too noisy to scale on;
    // wait until the smoothing has real history.
    drs_config.warmup_windows = 4;
    let drs = DrsController::new(drs_config, initial.to_vec(), pool).expect("valid controller");
    let mut driver = DrsDriver::new(sim, drs, config.window_secs as f64).expect("wiring matches");

    let base_rate = profile.frame_rate;
    let surged = base_rate * config.surge_factor;
    let mut points = Vec::with_capacity(config.windows as usize);
    for w in 0..config.windows {
        if w == config.surge_at {
            driver
                .backend_mut()
                .set_spout_interarrival(
                    spout,
                    Distribution::uniform(0.0, 2.0 / surged).expect("valid uniform"),
                )
                .expect("spout exists");
        }
        if w == config.relax_at {
            driver
                .backend_mut()
                .set_spout_interarrival(
                    spout,
                    Distribution::uniform(0.0, 2.0 / base_rate).expect("valid uniform"),
                )
                .expect("spout exists");
        }
        driver.run_windows(1);
        let p = driver.timeline().last().expect("ran a window");
        points.push(SurgePoint {
            window: w,
            sojourn_ms: p.mean_sojourn_ms.unwrap_or(f64::NAN),
            executors: p.allocation.iter().sum(),
            machines: driver.controller().pool().active_machines(),
            frame_rate: if (config.surge_at..config.relax_at).contains(&w) {
                surged
            } else {
                base_rate
            },
            rebalanced: p.rebalanced,
        });
    }
    points
}

/// Renders the surge timeline.
pub fn render_surge(config: &SurgeConfig, points: &[SurgePoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.window + 1),
                format!("{:.1}", p.frame_rate),
                if p.sojourn_ms.is_nan() {
                    "-".to_owned()
                } else {
                    format!("{:.0}", p.sojourn_ms)
                },
                p.executors.to_string(),
                p.machines.to_string(),
                if p.rebalanced {
                    "R".to_owned()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    render_table(
        &format!(
            "Surge — VLD under MinResources(Tmax = {:.0} ms): rate x{} during minutes {}-{}",
            config.t_max * 1e3,
            config.surge_factor,
            config.surge_at + 1,
            config.relax_at
        ),
        &[
            "minute",
            "frames/s",
            "sojourn (ms)",
            "executors",
            "machines",
            "",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drs_rides_the_surge_up_and_down() {
        // Ample post-relax room: the α = 0.7 smoothing takes several
        // windows to reflect the restored base rate before DRS scales in.
        let config = SurgeConfig {
            windows: 30,
            surge_at: 7,
            relax_at: 15,
            surge_factor: 1.35,
            window_secs: 45,
            t_max: 2.0,
        };
        let points = run_surge(config, 61);
        let executors_at = |w: u64| points[w as usize].executors;
        let max_during_surge = (config.surge_at..config.relax_at)
            .map(executors_at)
            .max()
            .unwrap();
        let before = executors_at(config.surge_at - 1);
        assert!(
            max_during_surge > before,
            "surge must grow the allocation: {max_during_surge} <= {before}"
        );
        // After relaxation DRS releases resources again.
        let end = points.last().unwrap().executors;
        assert!(
            end < max_during_surge,
            "relaxation must release executors: end {end} vs peak {max_during_surge}"
        );
        // At least two scaling actions happened (up and down).
        let actions = points.iter().filter(|p| p.rebalanced).count();
        assert!(actions >= 2, "expected >= 2 rebalances, got {actions}");
    }

    #[test]
    fn render_is_complete() {
        let config = SurgeConfig {
            windows: 8,
            surge_at: 5,
            relax_at: 6,
            surge_factor: 1.3,
            window_secs: 20,
            t_max: 2.0,
        };
        let points = run_surge(config, 3);
        let s = render_surge(&config, &points);
        assert!(s.contains("Surge"));
        assert!(s.contains("frames/s"));
    }
}
