//! The benchmark's load generator: one engine spout thread running
//! [`LoadSpout`] over inputs generated from the seed before the run.

use crate::stats::{summarize, Summary};
use drs_runtime::operator::{Spout, SpoutEmission};
use drs_runtime::tuple::Tuple;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long the generator naps when it may not emit yet.
const IDLE_WAIT: Duration = Duration::from_micros(100);

/// What the harness and the generator thread share.
#[derive(Default)]
pub struct Gate {
    go: AtomicBool,
    origin: OnceLock<Instant>,
    emitted: AtomicU64,
    /// Tuples the first bolt has taken, counted by the workload's own
    /// decorator; bounds a [`Load::Window`] generator.
    pub first_stage_done: Arc<AtomicU64>,
    /// Per-tuple generator lateness (µs), published when the stream ends.
    late_us: Mutex<Vec<u32>>,
}

impl Gate {
    /// Starts the generator; the returned instant is the schedule's origin.
    pub fn release(&self) -> Instant {
        let origin = Instant::now();
        self.origin.set(origin).expect("a gate is released once");
        self.go.store(true, Ordering::Release);
        origin
    }

    /// Tuples emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Acquire)
    }

    /// Generator lateness against its schedule, in milliseconds: the
    /// summary (tail capped at p99) and the maximum. Call after the stream
    /// has ended.
    pub fn lateness_ms(&self) -> (Summary, f64) {
        let late_ms: Vec<f64> = self
            .late_us
            .lock()
            .expect("the generator thread has ended")
            .iter()
            .map(|&us| f64::from(us) / 1e3)
            .collect();
        let max = late_ms.iter().copied().fold(0.0, f64::max);
        (summarize(&late_ms, 99), max)
    }
}

pub enum Load {
    /// Closed loop: emit full batches for `secs`, never running more than
    /// `ahead` tuples ahead of the first bolt.
    Window { secs: f64, ahead: u64 },
    /// Open loop: emit each tuple when its due time (ns from the origin)
    /// has come, however far behind the engine is.
    Paced { due_ns: Vec<u64> },
}

/// The generator. `make(id)` builds tuple `id` from pre-generated inputs.
pub struct LoadSpout {
    make: Box<dyn FnMut(u64) -> Tuple + Send>,
    load: Load,
    gate: Arc<Gate>,
    next_id: u64,
    late_us: Vec<u32>,
}

impl LoadSpout {
    pub fn new(
        load: Load,
        gate: Arc<Gate>,
        make: impl FnMut(u64) -> Tuple + Send + 'static,
    ) -> Self {
        LoadSpout {
            make: Box::new(make),
            load,
            gate,
            next_id: 0,
            late_us: Vec::new(),
        }
    }

    fn finish(&mut self) -> Option<Duration> {
        self.gate
            .late_us
            .lock()
            .expect("the harness never panics holding the lateness log")
            .append(&mut self.late_us);
        None
    }
}

impl Spout for LoadSpout {
    fn next(&mut self) -> Option<SpoutEmission> {
        let mut out = Vec::with_capacity(1);
        loop {
            let wait = self.next_batch(1, &mut out)?;
            if let Some(tuple) = out.pop() {
                return Some(SpoutEmission { tuple, wait });
            }
            std::thread::sleep(wait);
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Tuple>) -> Option<Duration> {
        if !self.gate.go.load(Ordering::Acquire) {
            return Some(IDLE_WAIT);
        }
        let origin = *self.gate.origin.get().expect("origin is set before go");
        let now_ns = origin.elapsed().as_nanos() as u64;
        // How many tuples to emit now, and the pause before the next call
        // (`None`: the stream has ended).
        let (emit, wait) = match &self.load {
            Load::Window { secs, .. } if now_ns as f64 >= secs * 1e9 => (0, None),
            Load::Window { ahead, .. } => {
                let end = self.gate.first_stage_done.load(Ordering::Relaxed) + ahead;
                let emit = (end.saturating_sub(self.next_id) as usize).min(max);
                let wait = if emit == 0 { IDLE_WAIT } else { Duration::ZERO };
                (emit, Some(wait))
            }
            Load::Paced { due_ns } => {
                let first = self.next_id as usize;
                let end = (first + max).min(due_ns.len());
                let mut next = first;
                while next < end && due_ns[next] <= now_ns {
                    self.late_us.push(((now_ns - due_ns[next]) / 1000) as u32);
                    next += 1;
                }
                let wait = due_ns
                    .get(next)
                    .map(|due| Duration::from_nanos(due.saturating_sub(now_ns)));
                (next - first, wait)
            }
        };
        for _ in 0..emit {
            out.push((self.make)(self.next_id));
            self.next_id += 1;
        }
        self.gate.emitted.store(self.next_id, Ordering::Release);
        wait.or_else(|| self.finish())
    }
}
