//! Benchmark-owned decorators over the program's public traits. They are
//! how a layer is measured from outside: each wraps one trait object,
//! times the calls that cross it, and — in a traced run — records spans.
//!
//! While [`trace::enabled`] is off a decorated call costs one relaxed load.

use crate::trace::{self, Span};
use drs_core::driver::{AppliedRebalance, BackendError, CspBackend, RebalancePlan, WindowSample};
use drs_core::placement::Placement;
use drs_runtime::operator::{Bolt, Collector, Spout, SpoutEmission};
use drs_runtime::tuple::{Tuple, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Calls and busy time of one boundary, summed over every decorator
/// instance that shares it.
#[derive(Debug)]
pub struct Clock {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Clock {
    pub const fn new() -> Self {
        Clock {
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    fn add(&self, calls: u64, nanos: u64) {
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// `(calls, busy nanoseconds)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }

    /// Reads and zeroes the clock.
    pub fn take(&self) -> (u64, u64) {
        (
            self.calls.swap(0, Ordering::Relaxed),
            self.nanos.swap(0, Ordering::Relaxed),
        )
    }

    /// Mean nanoseconds per call; `0.0` before the first call.
    pub fn mean_ns(&self) -> f64 {
        let (calls, nanos) = self.read();
        if calls == 0 {
            0.0
        } else {
            nanos as f64 / calls as f64
        }
    }
}

/// The three calls a driver makes across [`CspBackend`].
#[derive(Debug)]
pub struct BackendClocks {
    pub advance: Clock,
    pub current_allocation: Clock,
    pub apply: Clock,
}

impl BackendClocks {
    pub const fn new() -> Self {
        BackendClocks {
            advance: Clock::new(),
            current_allocation: Clock::new(),
            apply: Clock::new(),
        }
    }
}

/// Times every call a driver makes into a backend.
#[derive(Debug)]
pub struct TimedBackend<B: CspBackend> {
    inner: B,
    clocks: &'static BackendClocks,
}

impl<B: CspBackend> TimedBackend<B> {
    pub fn new(inner: B, clocks: &'static BackendClocks) -> Self {
        TimedBackend { inner, clocks }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    pub fn into_inner(self) -> B {
        self.inner
    }
}

#[inline]
fn timed<T>(clock: &Clock, f: impl FnOnce() -> T) -> T {
    if !trace::enabled() {
        return f();
    }
    let start = trace::now_ns();
    let out = f();
    clock.add(1, trace::now_ns() - start);
    out
}

impl<B: CspBackend> CspBackend for TimedBackend<B> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn operator_names(&self) -> Vec<String> {
        self.inner.operator_names()
    }
    fn current_allocation(&self) -> Vec<u32> {
        timed(&self.clocks.current_allocation, || {
            self.inner.current_allocation()
        })
    }
    fn current_allocation_into(&self, out: &mut Vec<u32>) {
        timed(&self.clocks.current_allocation, || {
            self.inner.current_allocation_into(out);
        });
    }
    fn advance(&mut self, window_secs: f64) -> WindowSample {
        timed(&self.clocks.advance, || self.inner.advance(window_secs))
    }
    fn advance_into(&mut self, window_secs: f64, out: &mut WindowSample) {
        timed(&self.clocks.advance, || {
            self.inner.advance_into(window_secs, out);
        });
    }
    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        timed(&self.clocks.apply, || self.inner.apply(plan))
    }
    fn apply_placement(&mut self, placement: &Placement) -> Result<(), BackendError> {
        timed(&self.clocks.apply, || self.inner.apply_placement(placement))
    }
}

/// One frame in this many gets per-call spans; every call is counted.
pub const SPAN_SAMPLE: u64 = 64;
/// Calls between flushes of a decorator's local counters to its shared
/// [`Clock`] (a per-call shared write would itself contend between workers).
const FLUSH_EVERY: u64 = 256;

fn frame_of(tuple: &Tuple) -> Option<u64> {
    tuple
        .field(0)
        .and_then(Value::as_int)
        .and_then(|id| u64::try_from(id).ok())
}

/// Pipeline position of a decorated operator, for span parentage: the
/// spout's emit span and the first bolt's span are unique per frame, so a
/// later stage can name its cause from the frame id alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The operator fed directly by the spout.
    First,
    /// Any operator further downstream; its spans hang off the frame's
    /// `First` span (the nearest ancestor that is unique per frame).
    Later,
}

/// Times a bolt's `execute`.
pub struct TimedBolt<B: Bolt> {
    inner: B,
    name: &'static str,
    stage: Stage,
    clock: &'static Clock,
    calls: u64,
    nanos: u64,
    spans: Vec<Span>,
}

impl<B: Bolt> TimedBolt<B> {
    pub fn new(inner: B, name: &'static str, stage: Stage, clock: &'static Clock) -> Self {
        TimedBolt {
            inner,
            name,
            stage,
            clock,
            calls: 0,
            nanos: 0,
            spans: Vec::new(),
        }
    }

    fn flush(&mut self) {
        self.clock.add(self.calls, self.nanos);
        self.calls = 0;
        self.nanos = 0;
    }
}

impl<B: Bolt> Bolt for TimedBolt<B> {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        if !trace::enabled() {
            return self.inner.execute(tuple, collector);
        }
        let start = trace::now_ns();
        self.inner.execute(tuple, collector);
        let end = trace::now_ns();
        self.calls += 1;
        self.nanos += end - start;
        if self.calls >= FLUSH_EVERY {
            self.flush();
        }
        if let Some(frame) = frame_of(tuple).filter(|f| f % SPAN_SAMPLE == 0) {
            let (id, parent) = match self.stage {
                Stage::First => (
                    trace::frame_span_id(frame, 1),
                    trace::frame_span_id(frame, 0),
                ),
                Stage::Later => (trace::next_id(), trace::frame_span_id(frame, 1)),
            };
            self.spans.push(Span {
                id,
                parent,
                name: self.name,
                start_ns: start,
                end_ns: end,
                key: frame,
            });
        }
    }
}

impl<B: Bolt> Drop for TimedBolt<B> {
    fn drop(&mut self) {
        self.flush();
        trace::flush(&mut self.spans);
    }
}

/// What a spout thread does with its time, as seen from outside:
/// producing tuples (`generate`), and everything between two `next_batch`
/// calls beyond the pause it asked for (`blocked`: the engine shipping the
/// batch, which waits when downstream channels are full).
#[derive(Debug)]
pub struct SpoutClocks {
    pub generate: Clock,
    pub blocked: Clock,
}

impl SpoutClocks {
    pub const fn new() -> Self {
        SpoutClocks {
            generate: Clock::new(),
            blocked: Clock::new(),
        }
    }
}

/// Times a spout's `next_batch`.
pub struct TimedSpout<S: Spout> {
    inner: S,
    clocks: &'static SpoutClocks,
    /// End of the previous call and the pause it returned.
    last: Option<(u64, u64)>,
    spans: Vec<Span>,
}

impl<S: Spout> TimedSpout<S> {
    pub fn new(inner: S, clocks: &'static SpoutClocks) -> Self {
        TimedSpout {
            inner,
            clocks,
            last: None,
            spans: Vec::new(),
        }
    }
}

impl<S: Spout> Spout for TimedSpout<S> {
    fn next(&mut self) -> Option<SpoutEmission> {
        self.inner.next()
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Tuple>) -> Option<Duration> {
        if !trace::enabled() {
            self.last = None;
            return self.inner.next_batch(max, out);
        }
        let start = trace::now_ns();
        if let Some((prev_end, asked_ns)) = self.last {
            self.clocks
                .blocked
                .add(1, (start - prev_end).saturating_sub(asked_ns));
        }
        let before = out.len();
        let wait = self.inner.next_batch(max, out);
        let end = trace::now_ns();
        self.clocks.generate.add(1, end - start);
        self.last = wait.map(|w| (end, w.as_nanos() as u64));
        for frame in out[before..]
            .iter()
            .filter_map(frame_of)
            .filter(|f| f % SPAN_SAMPLE == 0)
        {
            self.spans.push(Span {
                id: trace::frame_span_id(frame, 0),
                parent: 0,
                name: "spout.next_batch",
                start_ns: start,
                end_ns: end,
                key: frame,
            });
        }
        wait
    }
}

impl<S: Spout> Drop for TimedSpout<S> {
    fn drop(&mut self) {
        trace::flush(&mut self.spans);
    }
}
