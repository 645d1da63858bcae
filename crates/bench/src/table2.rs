//! Table II: computation overhead of the DRS layer.
//!
//! The paper times (a) the scheduling computation (Algorithm 1) for the
//! 3-operator VLD topology at `Kmax ∈ {12, 24, 48, 96, 192}`, averaged over
//! 100 000 runs — linear in `Kmax`, well under 2 ms — and (b) the
//! measurement-result processing, which is independent of `Kmax`
//! (~0.1 ms). We time our implementations the same way.

use crate::report::{fmt, render_table};
use crate::timing::time_per_call_us;
use drs_core::measurer::{aggregate_instances, InstanceSample, Measurer, RawSample, Smoothing};
use drs_core::model::OperatorRates;
use drs_core::scheduler::{assign_processors, assign_processors_reference};
use drs_queueing::jackson::JacksonNetwork;

/// The paper's Kmax sweep.
pub(crate) const K_MAX_SWEEP: [u32; 5] = [12, 24, 48, 96, 192];

/// One Kmax column of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Column {
    /// The processor budget.
    pub k_max: u32,
    /// Mean scheduling time of the heap+incremental path (milliseconds).
    pub scheduling_ms: f64,
    /// Mean scheduling time of the retained from-scratch reference
    /// implementation (milliseconds).
    pub scheduling_reference_ms: f64,
    /// Mean measurement-processing time (milliseconds).
    pub measurement_ms: f64,
}

/// A 3-operator network feasible across the whole sweep (offered loads
/// 2.5 + 3.2 + 0.45 → minimum 8 processors, below the smallest Kmax).
fn overhead_network() -> JacksonNetwork {
    JacksonNetwork::from_rates(13.0, &[(13.0, 5.2), (390.0, 122.0), (19.5, 43.0)])
        .expect("valid network")
}

/// Raw per-executor metrics as pulled from the topology: the paper's
/// deployment had ~22 task-level metric sources to aggregate per pull.
fn instance_metrics() -> Vec<Vec<InstanceSample>> {
    let per_op = [(10usize, 13.0f64), (11, 390.0), (1, 19.5)];
    per_op
        .iter()
        .map(|&(instances, rate)| {
            (0..instances)
                .map(|i| InstanceSample {
                    arrivals: (rate * 60.0 / instances as f64) as u64 + i as u64,
                    completions: (rate * 60.0 / instances as f64) as u64,
                    busy_time: 42.0 / instances as f64,
                })
                .collect()
        })
        .collect()
}

/// Times the DRS layer: `iterations` runs per Kmax (paper: 100 000).
pub fn run_table2(iterations: u32) -> Vec<Table2Column> {
    let net = overhead_network();
    let instances = instance_metrics();
    K_MAX_SWEEP
        .iter()
        .map(|&k_max| {
            // Scheduling: Algorithm 1 end to end, heap+incremental path.
            let scheduling_ms = time_per_call_us(iterations, || {
                std::hint::black_box(assign_processors(&net, k_max).expect("feasible budget"));
            }) / 1e3;

            // The from-scratch reference, for the speedup column. Capped
            // iterations: at Kmax = 192 it is ≈ 25x slower per call.
            let scheduling_reference_ms = time_per_call_us(iterations.div_ceil(10), || {
                std::hint::black_box(
                    assign_processors_reference(&net, k_max).expect("feasible budget"),
                );
            }) / 1e3;

            // Measurement processing: per-instance aggregation to operator
            // level plus smoothing and estimate extraction (App. B). Not a
            // function of Kmax; timed alongside for a fair comparison.
            let mut measurer =
                Measurer::new(3, Smoothing::Alpha { alpha: 0.5 }).expect("valid smoothing");
            let measurement_ms = time_per_call_us(iterations, || {
                let operators: Vec<OperatorRates> = instances
                    .iter()
                    .map(|ops| {
                        aggregate_instances(std::hint::black_box(ops), 60.0)
                            .expect("non-empty instances")
                    })
                    .collect();
                let sample = RawSample {
                    external_rate: operators[0].arrival_rate,
                    operators,
                    mean_sojourn: Some(0.42),
                };
                measurer.observe(&sample);
                std::hint::black_box(measurer.estimates());
            }) / 1e3;

            Table2Column {
                k_max,
                scheduling_ms,
                scheduling_reference_ms,
                measurement_ms,
            }
        })
        .collect()
}

/// Renders Table II.
pub fn render_table2(columns: &[Table2Column]) -> String {
    let mut header_cells = vec!["Kmax".to_owned()];
    header_cells.extend(columns.iter().map(|c| c.k_max.to_string()));
    let header: Vec<&str> = header_cells.iter().map(String::as_str).collect();
    let mut sched = vec!["Scheduling (µs)".to_owned()];
    sched.extend(columns.iter().map(|c| fmt(c.scheduling_ms * 1e3, 2)));
    let mut sched_ref = vec!["Scheduling, reference (µs)".to_owned()];
    sched_ref.extend(
        columns
            .iter()
            .map(|c| fmt(c.scheduling_reference_ms * 1e3, 2)),
    );
    let mut meas = vec!["Measurement (µs)".to_owned()];
    meas.extend(columns.iter().map(|c| fmt(c.measurement_ms * 1e3, 2)));
    render_table(
        "Table II — DRS computation overheads (µs, mean per invocation; paper reports ms)",
        &header,
        &[sched, sched_ref, meas],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_sub_millisecond_scale() {
        let cols = run_table2(2_000);
        for c in &cols {
            // Generous bound: the paper reports <= 1.25 ms at Kmax = 192;
            // allow debug-build slack while still catching regressions.
            assert!(
                c.scheduling_ms < 50.0,
                "Kmax {}: scheduling {} ms",
                c.k_max,
                c.scheduling_ms
            );
            assert!(c.measurement_ms < 5.0);
        }
    }

    #[test]
    fn scheduling_grows_with_kmax_while_measurement_does_not() {
        let cols = run_table2(2_000);
        let first = &cols[0];
        let last = &cols[cols.len() - 1];
        assert!(
            last.scheduling_ms > first.scheduling_ms,
            "scheduling should grow with Kmax: {} vs {}",
            first.scheduling_ms,
            last.scheduling_ms
        );
        // Measurement time is Kmax-independent: within an order of
        // magnitude across the sweep (timing noise allowed).
        assert!(last.measurement_ms < first.measurement_ms * 10.0 + 0.01);
    }

    #[test]
    fn heap_path_beats_reference_at_large_kmax() {
        // Wall-clock assertion on the Kmax = 192 column: measured ≈ 25x in
        // release and ≈ 20x in debug, so the 5x acceptance bar has a wide
        // margin — but a loaded runner can still produce an outlier, so
        // take the best of a few attempts.
        let speedup = |c: &Table2Column| c.scheduling_reference_ms / c.scheduling_ms;
        let best = (0..3)
            .map(|_| run_table2(300).pop().expect("Kmax = 192 column"))
            .max_by(|a, b| speedup(a).total_cmp(&speedup(b)))
            .expect("three attempts");
        assert_eq!(best.k_max, 192);
        assert!(
            speedup(&best) >= 5.0,
            "speedup at Kmax=192 only {:.1}x ({:.2}µs vs {:.2}µs)",
            speedup(&best),
            best.scheduling_ms * 1e3,
            best.scheduling_reference_ms * 1e3
        );
    }

    #[test]
    fn render_contains_all_columns() {
        let cols = run_table2(100);
        let s = render_table2(&cols);
        for k in K_MAX_SWEEP {
            assert!(s.contains(&k.to_string()), "missing Kmax {k}");
        }
    }
}
