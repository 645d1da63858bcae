//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root carries the same lists (a unit test holds the two together); the
//! README explains each entry.

use crate::json::Json;

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 2015;
/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "live_flood",
        why: "closed loop: VLD pipeline flooded through 128-slot channels on 2 workers, weights rewritten every 3 ms; the runtime hot path does the work, core and sim do nothing",
    },
    Workload {
        name: "live_paced",
        why: "open loop: same pipeline at a seeded Poisson 40000 frames/s, a third of flood capacity; idle-wake and per-hop latency instead of the backpressure path",
    },
    Workload {
        name: "live_step",
        why: "open loop: DrsDriver over RuntimeEngine, 4 ms sleep-paced work, Poisson 300-600-300 tuples/s; core's measure-model-schedule-decide loop and rebalance decide the result",
    },
    Workload {
        name: "fleet_window",
        why: "FleetDriver over 50000 synthetic 2-operator shards, 64 machines, 5% rate drift per window; the whole control window with zero data-plane cost, runtime/sim/apps idle",
    },
    Workload {
        name: "sim_paper",
        why: "Fig. 9 on the simulator: VLD and FPD paper profiles from three starts each, rebalancing enabled at window 13; event loop and calendar queue dominate, claims read off exactly",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every end-to-end metric; the README's table says
/// what each one means on each workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, prefix = module. A workload that does not exercise a
/// layer reports 0 for it.
pub const PER_LAYER: &[PerLayer] = &[
    layer("queueing.erlang_ns", "ns", Lower),
    layer("queueing.incremental_step_ns", "ns", Lower),
    layer("queueing.traffic_solve_us", "us", Lower),
    layer("topology.build_us", "us", Lower),
    layer("core.measurer.observe_ns", "ns", Lower),
    layer("core.model.fit_us", "us", Lower),
    layer("core.scheduler.assign_us", "us", Lower),
    layer("core.scheduler.min_target_us", "us", Lower),
    layer("core.decision.decide_ns", "ns", Lower),
    layer("core.fleet.step_ms", "ms", Lower),
    layer("core.fleet.window_tail_ms", "ms", Lower),
    layer("core.fleet.window_tail_pct", "%", Higher),
    layer("core.fleet.windows", "count", Higher),
    layer("core.fleet.advance_ms", "ms", Lower),
    layer("core.fleet.sample_ms", "ms", Lower),
    layer("core.fleet.fit_ms", "ms", Lower),
    layer("core.fleet.schedule_ms", "ms", Lower),
    layer("core.fleet.negotiate_ms", "ms", Lower),
    layer("core.fleet.decide_ms", "ms", Lower),
    layer("core.fleet.actuate_ms", "ms", Lower),
    layer("core.fleet.unattributed_ms", "ms", Lower),
    layer("core.fleet.refit_shards", "count", Lower),
    layer("core.fleet.allocs_per_window", "count", Lower),
    layer("core.fleet.rebalanced_shards", "count", Lower),
    layer("core.fleet.gated_shards", "count", Lower),
    layer("core.placement.replan_ms", "ms", Lower),
    layer("core.placement.solver_calls", "count", Lower),
    layer("core.placement.full_solves", "count", Lower),
    layer("core.placement.overcommit_frac", "1", Lower),
    layer("core.driver.step_overhead_us", "us", Lower),
    layer("core.driver.rebalances", "count", Lower),
    layer("core.driver.react_windows", "count", Lower),
    layer("core.driver.exec_secs", "s", Lower),
    layer("core.driver.model_err_rel", "1", Lower),
    layer("sim.advance_ms", "ms", Lower),
    layer("sim.apply_us", "us", Lower),
    layer("sim.tuples_per_s", "1/s", Higher),
    layer("sim.calendar_ns", "ns", Lower),
    layer("sim.model_err_rel", "1", Lower),
    layer("sim.excess_exec", "count", Lower),
    layer("sim.converge_windows", "count", Lower),
    layer("sim.runs", "count", Higher),
    layer("runtime.start_ms", "ms", Lower),
    layer("runtime.shutdown_ms", "ms", Lower),
    layer("runtime.rebalance_pause_us", "us", Lower),
    layer("runtime.rebalance_pause_max_us", "us", Lower),
    layer("runtime.rebalance_call_us", "us", Lower),
    layer("runtime.suspensions", "count", Lower),
    layer("runtime.peak_queue_depth", "count", Lower),
    layer("runtime.workers_peak", "count", Lower),
    layer("runtime.spout_gen_share", "1", Lower),
    layer("runtime.spout_blocked_share", "1", Lower),
    layer("runtime.busy_share.extract", "1", Higher),
    layer("runtime.busy_share.match", "1", Higher),
    layer("runtime.busy_share.aggregate", "1", Higher),
    layer("runtime.overhead_ns_per_tuple", "ns", Lower),
    layer("runtime.tuples_per_s_w1", "1/s", Higher),
    layer("runtime.scaling_w1_w2", "1", Higher),
    layer("runtime.paced_overhead_us", "us", Lower),
    layer("runtime.snapshot_us", "us", Lower),
    layer("runtime.ack_p50_ms", "ms", Lower),
    layer("runtime.ack_p95_ms", "ms", Lower),
    layer("runtime.ack_p99_ms", "ms", Lower),
    layer("apps.vld.spout_ns", "ns", Lower),
    layer("apps.vld.extract_ns", "ns", Lower),
    layer("apps.vld.match_ns", "ns", Lower),
    layer("apps.vld.aggregate_ns", "ns", Lower),
    layer("apps.vld.fanout", "1", Lower),
    layer("bench.gen_late_p99_ms", "ms", Lower),
    layer("bench.gen_late_max_ms", "ms", Lower),
    layer("bench.trace_overhead_frac", "1", Lower),
    layer("bench.spans", "count", Higher),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let s = |v: &str| Json::Str(v.to_owned());
    Json::obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_at_the_root_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
