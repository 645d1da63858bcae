//! The `pass` phase's threads: the caller's and a set of persistent workers,
//! each measuring whole segments.

use super::segment::Segment;
use super::shard::PassBuffers;
use super::FleetDriverConfig;
use crate::driver::CspBackend;
use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

/// Segment `k` on its way to a worker, and how to measure it.
struct Job<B> {
    k: usize,
    segment: Segment<B>,
    config: FleetDriverConfig,
    negotiating: bool,
}

/// Segment `k` on its way back.
struct Done<B> {
    k: usize,
    segment: Segment<B>,
    /// What the pass panicked with on the worker, re-raised on the
    /// caller's thread.
    panic: Option<Box<dyn Any + Send>>,
}

/// The channels between the caller and its workers. Both are bounded by
/// twice the threads the pass may use, more than a window ever has in
/// flight, so no send waits.
struct Queue<B> {
    jobs: SyncSender<Job<B>>,
    /// The workers' end of `jobs`: whichever worker is idle takes the next
    /// job.
    inbox: Arc<Mutex<Receiver<Job<B>>>>,
    /// Cloned into each worker.
    outbox: SyncSender<Done<B>>,
    /// In a `Mutex` only so that the driver stays `Sync`: reached through
    /// `get_mut`, it is never locked.
    done: Mutex<Receiver<Done<B>>>,
}

/// The driver's pass workers: none until the first window with more than
/// one segment, then one fewer than the threads the pass runs on —
/// `available_parallelism()`, at most one per segment. They park between
/// windows and are joined when the driver is dropped. A clone of the driver
/// starts workers of its own.
pub(super) struct Workers<B> {
    queue: Option<Queue<B>>,
    threads: Vec<JoinHandle<()>>,
    /// `available_parallelism()`, read once.
    parallelism: Option<usize>,
}

impl<B> Default for Workers<B> {
    fn default() -> Self {
        Workers {
            queue: None,
            threads: Vec::new(),
            parallelism: None,
        }
    }
}

impl<B> Clone for Workers<B> {
    fn clone(&self) -> Self {
        Workers::default()
    }
}

impl<B> fmt::Debug for Workers<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workers")
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl<B> Drop for Workers<B> {
    fn drop(&mut self) {
        // Hang up first: a worker finds its job channel closed once it is
        // empty, and a segment it hands back finds no one to take it.
        self.queue = None;
        for thread in self.threads.drain(..) {
            // A worker catches the pass's panics; it has none of its own.
            let _ = thread.join();
        }
    }
}

impl<B> Workers<B> {
    /// Workers started so far.
    #[cfg(test)]
    pub(super) fn threads(&self) -> usize {
        self.threads.len()
    }
}

impl<B: CspBackend + Send + 'static> Workers<B> {
    /// The `pass` phase over every segment. The caller's thread measures
    /// segments from the front while the workers take them from the back,
    /// two per worker in flight, until the two ends meet, and then the ones
    /// no worker has started: a slower thread measures fewer. Each segment
    /// comes back to its place, and the caller's thread hands segment `k`
    /// to `measured(k, segment)` as soon as it is home, in no fixed order.
    /// A panic on a worker is re-raised here once every segment is home.
    pub(super) fn pass(
        &mut self,
        segments: &mut [Segment<B>],
        config: &FleetDriverConfig,
        negotiating: bool,
        buffers: &mut PassBuffers,
        mut measured: impl FnMut(usize, &Segment<B>),
    ) {
        if segments.len() > 1 {
            self.spawn(segments.len());
        }
        let Some(queue) = &mut self.queue else {
            for (k, segment) in segments.iter_mut().enumerate() {
                segment.pass(config, negotiating, buffers);
                measured(k, segment);
            }
            return;
        };
        let done = queue.done.get_mut().unwrap_or_else(PoisonError::into_inner);
        let in_flight = 2 * self.threads.len();
        let (mut front, mut back, mut out) = (0, segments.len(), 0);
        let mut panicked = None;
        let mut home = |returned: Done<B>, segments: &mut [Segment<B>]| {
            segments[returned.k] = returned.segment;
            panicked = panicked.take().or(returned.panic);
            returned.k
        };
        loop {
            while let Ok(returned) = done.try_recv() {
                let k = home(returned, segments);
                measured(k, &segments[k]);
                out -= 1;
            }
            while out < in_flight && back > front + 1 {
                back -= 1;
                let job = Job {
                    k: back,
                    segment: std::mem::take(&mut segments[back]),
                    config: *config,
                    negotiating,
                };
                queue
                    .jobs
                    .send(job)
                    .expect("the workers outlive their driver's windows");
                out += 1;
            }
            if front == back {
                break;
            }
            segments[front].pass(config, negotiating, buffers);
            measured(front, &segments[front]);
            front += 1;
        }
        // A segment no worker has taken yet comes back to this thread. (A
        // worker that holds the lock is taking one, or waiting on an empty
        // channel.)
        while out > 0 {
            let Some(job) = queue.inbox.try_lock().ok().and_then(|i| i.try_recv().ok()) else {
                break;
            };
            segments[job.k] = job.segment;
            segments[job.k].pass(config, negotiating, buffers);
            measured(job.k, &segments[job.k]);
            out -= 1;
        }
        for _ in 0..out {
            let returned = done.recv().expect("a worker hands back every segment");
            let k = home(returned, segments);
            measured(k, &segments[k]);
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }

    /// Starts the workers a pass over `segments` segments can use. Only a
    /// window whose segment count rose can start one.
    fn spawn(&mut self, segments: usize) {
        let parallelism = *self
            .parallelism
            .get_or_insert_with(|| thread::available_parallelism().map_or(1, NonZeroUsize::get));
        while self.threads.len() + 1 < parallelism.min(segments) {
            let queue = self.queue.get_or_insert_with(|| {
                let (jobs, inbox) = mpsc::sync_channel(2 * parallelism);
                let (outbox, done) = mpsc::sync_channel(2 * parallelism);
                Queue {
                    jobs,
                    inbox: Arc::new(Mutex::new(inbox)),
                    outbox,
                    done: Mutex::new(done),
                }
            });
            let (inbox, outbox) = (Arc::clone(&queue.inbox), queue.outbox.clone());
            let thread = thread::Builder::new()
                .name("fleet-pass".to_owned())
                .spawn(move || work(&inbox, &outbox))
                .expect("the fleet's pass worker starts");
            self.threads.push(thread);
        }
    }
}

/// A worker's life: measure each segment it takes and hand it back, until
/// the driver hangs up.
fn work<B: CspBackend>(inbox: &Mutex<Receiver<Job<B>>>, outbox: &SyncSender<Done<B>>) {
    let mut buffers = PassBuffers::default();
    loop {
        // The lock is held while this worker waits, so the next job goes
        // to one waiting worker.
        let job = inbox.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(Job {
            k,
            mut segment,
            config,
            negotiating,
        }) = job
        else {
            return;
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            segment.pass(&config, negotiating, &mut buffers);
        }));
        let returned = Done {
            k,
            segment,
            panic: outcome.err(),
        };
        if outbox.send(returned).is_err() {
            return;
        }
    }
}
