//! `repro fleet`: a sharded multi-topology fleet under one contended
//! processor budget.
//!
//! Four shards — two VLD and two FPD topologies, different seeds — run as
//! independent simulators (own virtual clocks) under a single
//! `FleetDriver` owning a global budget `Kmax` deliberately smaller
//! than the sum of the shards' single-topology demands. Each window every
//! shard computes its own Program 6 schedule for its latency target; the
//! driver arbitrates by the paper's max-marginal-benefit rule across
//! topologies and hands each shard a capped plan. Mid-run one VLD shard's
//! frame rate collapses, and the timeline shows the freed executors being
//! re-offered to the still-starved shards on the following windows.

use crate::report::{fmt_allocation, render_table};
use drs_apps::{FpdProfile, VldProfile};
use drs_core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec, FleetWindow};
use drs_queueing::distribution::Distribution;
use drs_sim::Simulator;

/// The `repro fleet` run shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetBenchConfig {
    /// Fleet measurement windows to run.
    pub windows: u64,
    /// Window length in (virtual) seconds.
    pub window_secs: f64,
    /// The global processor budget shared by all four topologies.
    pub k_max: u32,
    /// Base RNG seed (each shard offsets it).
    pub seed: u64,
    /// Window at which the second VLD shard's frame rate collapses,
    /// freeing capacity for the starved shards.
    pub relax_at: u64,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        FleetBenchConfig {
            windows: 18,
            window_secs: 60.0,
            k_max: 80,
            seed: 2015,
            relax_at: 9,
        }
    }
}

impl FleetBenchConfig {
    /// The CI smoke variant: short windows, few of them.
    pub fn smoke(seed: u64) -> Self {
        FleetBenchConfig {
            windows: 10,
            window_secs: 20.0,
            seed,
            relax_at: 5,
            ..Default::default()
        }
    }
}

/// Latency target of the VLD shards (seconds); the no-queueing bound of
/// the calibrated VLD network is ≈ 1.44 s, so this demands real headroom.
pub(crate) const VLD_T_MAX: f64 = 1.7;
/// Latency target of the FPD shards (seconds); bound ≈ 28 ms.
pub(crate) const FPD_T_MAX: f64 = 0.045;

/// A finished fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Shard names, in shard index order.
    pub names: Vec<String>,
    /// The recorded fleet timeline.
    pub timeline: Vec<FleetWindow>,
}

/// Builds the four-topology fleet.
pub(crate) fn build_fleet(config: &FleetBenchConfig) -> FleetDriver<Simulator> {
    let vld = VldProfile::paper();
    let fpd = FpdProfile::paper();
    let mut driver_config = FleetDriverConfig::new(config.k_max);
    driver_config.window_secs = config.window_secs;
    FleetDriver::new(
        driver_config,
        vec![
            FleetShardSpec::new(
                "vld-a",
                VLD_T_MAX,
                vld.build_simulation([8, 8, 1], config.seed),
            ),
            FleetShardSpec::new(
                "vld-b",
                VLD_T_MAX,
                vld.build_simulation([8, 8, 1], config.seed + 1),
            ),
            FleetShardSpec::new(
                "fpd-a",
                FPD_T_MAX,
                fpd.build_simulation([5, 12, 2], config.seed + 2),
            ),
            FleetShardSpec::new(
                "fpd-b",
                FPD_T_MAX,
                fpd.build_simulation([5, 12, 2], config.seed + 3),
            ),
        ],
    )
    .expect("valid fleet")
}

/// Runs the fleet, collapsing `vld-b`'s frame rate at `relax_at`.
pub fn run_fleet(config: &FleetBenchConfig) -> FleetRun {
    let mut fleet = build_fleet(config);
    let names: Vec<String> = fleet.shard_names().into_iter().map(str::to_owned).collect();
    for window in 0..config.windows {
        if window == config.relax_at {
            let spout = fleet
                .backend(1)
                .topology()
                .operator_by_name("video-spout")
                .expect("vld topology")
                .id();
            fleet
                .backend_mut(1)
                .set_spout_interarrival(spout, Distribution::exponential(4.0).expect("valid rate"))
                .expect("video-spout is a spout");
        }
        fleet.step();
    }
    FleetRun {
        names,
        timeline: fleet.timeline().to_vec(),
    }
}

/// One shard's cell: `granted/demand` with flags (`C` capped, `R`
/// rebalanced, `E` error) and the measured sojourn.
fn shard_cell(point: &drs_core::fleet::ShardPoint) -> [String; 2] {
    let demand = point
        .demand
        .map_or("-".to_owned(), |d| format!("{}/{d}", point.granted()));
    let mut flags = String::new();
    if point.capped {
        flags.push('C');
    }
    if point.rebalanced {
        flags.push('R');
    }
    if point.error.is_some() {
        flags.push('E');
    }
    let sojourn = point
        .mean_sojourn_ms
        .map_or("-".to_owned(), |v| format!("{v:.0}"));
    [format!("{demand}{flags}"), sojourn]
}

/// Renders the fleet timeline, one window per row.
pub fn render_fleet(config: &FleetBenchConfig, run: &FleetRun) -> String {
    let mut header: Vec<String> = vec!["window".to_owned()];
    for name in &run.names {
        header.push(format!("{name} k/demand"));
        header.push("E[T] ms".to_owned());
    }
    header.push("Σk".to_owned());
    header.push(String::new());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = run
        .timeline
        .iter()
        .map(|w| {
            let mut row = vec![format!("{}", w.window + 1)];
            for p in &w.shards {
                row.extend(shard_cell(p));
            }
            row.push(format!("{}", w.total_granted));
            row.push(if w.contended {
                "contended".to_owned()
            } else {
                String::new()
            });
            row
        })
        .collect();
    let mut out = render_table(
        &format!(
            "fleet — {} topologies, one budget Kmax={} ({:.0} s windows; \
             vld-b load collapses at window {})",
            run.names.len(),
            config.k_max,
            config.window_secs,
            config.relax_at + 1,
        ),
        &header_refs,
        &rows,
    );
    let last = run.timeline.last().expect("non-empty timeline");
    for (name, p) in run.names.iter().zip(&last.shards) {
        out.push_str(&format!(
            "{name:>8}: final {} ({} executors{})\n",
            fmt_allocation(&p.allocation),
            p.granted(),
            if p.capped { ", capped" } else { "" },
        ));
    }
    out.push_str(&format!(
        "   fleet: {} of {} executors placed; {} contended window(s)\n",
        last.total_granted,
        config.k_max,
        run.timeline.iter().filter(|w| w.contended).count(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_contends_then_redistributes() {
        let config = FleetBenchConfig::smoke(2015);
        let run = run_fleet(&config);
        assert_eq!(run.timeline.len(), config.windows as usize);
        assert_eq!(run.names.len(), 4);

        // Budget respected every window.
        for w in &run.timeline {
            assert!(
                w.total_granted <= u64::from(config.k_max),
                "window {} over budget: {w:?}",
                w.window
            );
        }
        // The budget is contended before the relax point…
        let before = &run.timeline[config.relax_at as usize - 1];
        assert!(
            before.contended,
            "pre-relax window must contend: {before:?}"
        );
        assert!(before.shards.iter().any(|s| s.capped));
        // …and the collapsed shard's freed executors flow to the others.
        let last = run.timeline.last().unwrap();
        assert!(
            last.shards[1].granted() < before.shards[1].granted(),
            "vld-b must shrink after its load collapses"
        );
        let others_before: u64 = [0usize, 2, 3]
            .iter()
            .map(|&i| before.shards[i].granted())
            .sum();
        let others_after: u64 = [0usize, 2, 3]
            .iter()
            .map(|&i| last.shards[i].granted())
            .sum();
        assert!(
            others_after > others_before,
            "freed capacity must be redistributed: {others_after} vs {others_before}"
        );

        let rendered = render_fleet(&config, &run);
        assert!(rendered.contains("vld-b"));
        assert!(rendered.contains("contended"));
    }
}
