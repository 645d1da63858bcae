//! Measurement infrastructure mirroring the DRS measurer's data sources
//! (paper App. B): per-operator arrival and service rates, plus global
//! complete-sojourn-time statistics of fully processed external tuples.

use crate::time::{SimDuration, SimTime};

pub use drs_queueing::stats::RunningStats;

/// Per-operator counters accumulated during one measurement window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorWindow {
    /// Tuples that entered the operator's input queue.
    pub arrivals: u64,
    /// Tuples whose service completed.
    pub completions: u64,
    /// Executor-seconds spent serving tuples.
    pub busy_time: f64,
    /// Total time completed tuples spent waiting in the queue (seconds).
    pub queue_wait: f64,
    /// Queue length at the end of the window (gauge).
    pub queue_len_end: usize,
}

impl OperatorWindow {
    /// Measured arrival rate `λ̂_i` over a window of `elapsed` seconds.
    ///
    /// Returns `None` for an empty window (no elapsed time).
    pub(crate) fn arrival_rate(&self, elapsed: SimDuration) -> Option<f64> {
        let secs = elapsed.as_secs_f64();
        (secs > 0.0).then(|| self.arrivals as f64 / secs)
    }

    /// Measured per-executor service rate `µ̂_i`: completions divided by
    /// executor busy time. `None` if no busy time was accumulated.
    pub(crate) fn service_rate(&self) -> Option<f64> {
        (self.busy_time > 0.0).then(|| self.completions as f64 / self.busy_time)
    }
}

/// A complete measurement window: the interval, per-operator counters, and
/// global sojourn statistics — everything the DRS measurer consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementWindow {
    /// Window start time.
    pub start: SimTime,
    /// Window end time.
    pub end: SimTime,
    /// Per-operator counters, indexed by operator id.
    pub operators: Vec<OperatorWindow>,
    /// Number of external (root) tuples that arrived during the window.
    pub external_arrivals: u64,
    /// Sojourn-time statistics (seconds) of the external tuples *fully
    /// processed* during the window (paper's "complete sojourn time").
    pub sojourn: RunningStats,
}

impl MeasurementWindow {
    /// Window length.
    pub(crate) fn elapsed(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// Measured external arrival rate `λ̂0`.
    pub fn external_rate(&self) -> Option<f64> {
        let secs = self.elapsed().as_secs_f64();
        (secs > 0.0).then(|| self.external_arrivals as f64 / secs)
    }

    /// Measured mean complete sojourn time `E[T̂]` in seconds.
    pub fn mean_sojourn(&self) -> Option<f64> {
        self.sojourn.mean()
    }

    /// Measured arrival rate of operator `i`.
    pub fn operator_arrival_rate(&self, i: usize) -> Option<f64> {
        self.operators[i].arrival_rate(self.elapsed())
    }

    /// Measured per-executor service rate of operator `i`.
    pub fn operator_service_rate(&self, i: usize) -> Option<f64> {
        self.operators[i].service_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_window_rates() {
        let w = OperatorWindow {
            arrivals: 600,
            completions: 590,
            busy_time: 59.0,
            queue_wait: 11.8,
            queue_len_end: 4,
        };
        let elapsed = SimDuration::from_secs(60);
        assert!((w.arrival_rate(elapsed).unwrap() - 10.0).abs() < 1e-9);
        assert!((w.service_rate().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn operator_window_empty_cases() {
        let w = OperatorWindow::default();
        assert_eq!(w.arrival_rate(SimDuration::ZERO), None);
        assert_eq!(w.service_rate(), None);
    }

    #[test]
    fn measurement_window_global_rates() {
        let mut sojourn = RunningStats::new();
        sojourn.record(0.4);
        sojourn.record(0.6);
        let w = MeasurementWindow {
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::from_secs(10),
            operators: vec![OperatorWindow::default()],
            external_arrivals: 130,
            sojourn,
        };
        assert!((w.external_rate().unwrap() - 13.0).abs() < 1e-9);
        assert!((w.mean_sojourn().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(w.elapsed(), SimDuration::from_secs(10));
    }
}
