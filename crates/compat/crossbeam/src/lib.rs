//! Offline stand-in for `crossbeam`.
//!
//! Implements the subset the runtime crate needs:
//!
//! * MPMC [`channel`]s — [`channel::unbounded`] and capacity-limited
//!   [`channel::bounded`] — with cloneable senders *and* receivers, `send`
//!   and the never-parking [`channel::Receiver::try_recv_batch`] (the
//!   runtime's only drain, so there is no blocking receive). The capacity
//!   of a bounded channel is a **hard invariant**: no send shape ever
//!   enqueues past it. Thread-owning
//!   producers use the parking sends ([`channel::Sender::send`],
//!   [`channel::Sender::send_abortable`]); executor-pool tasks, which must
//!   never park an OS thread, use the non-blocking
//!   [`channel::Sender::try_send`] / [`channel::Sender::try_send_batch`]
//!   and *suspend themselves* when the channel is full (the pool parks the
//!   task state in a wait list and the consumer's drain wakes it). Backed
//!   by `Mutex<VecDeque>` + a `Condvar`; the queue's ring buffer is reused
//!   across messages, so a steady-state send performs no allocation.
//!   Wakeups are counted: a drain only touches the `Condvar` when a
//!   sender is actually parked, keeping the uncontended hot path to one
//!   mutex lock/unlock. Adequate for the executor fan-out sizes exercised
//!   here (tens of threads), though still short of crossbeam's
//!   lock-free throughput.
//! * work-stealing [`deque`]s — [`deque::Worker`], [`deque::Stealer`] and
//!   the shared [`deque::Injector`], the API slice `drs-runtime`'s executor
//!   pool schedules tasks through. Backed by `Mutex<VecDeque>` rather than
//!   the real crate's lock-free Chase-Lev deque; same FIFO-steal/LIFO-pop
//!   semantics, adequate for the worker counts exercised here.

#![forbid(unsafe_code)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// Signalled when bounded-queue space frees up.
        space: Condvar,
        /// `usize::MAX` = unbounded.
        capacity: usize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Senders parked in `space.wait` (bounded channels only).
        waiting_senders: AtomicUsize,
    }

    /// Error from [`Sender::send`]: every receiver is gone; the value is
    /// returned to the caller.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error from [`Sender::try_send`]: the value is always handed back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity; the caller must suspend (or retry
        /// later) — the bound is hard, nothing was enqueued.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    /// Error from [`Receiver::try_recv_batch`]: all senders are gone and
    /// the queue is drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            space: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            waiting_senders: AtomicUsize::new(0),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(usize::MAX)
    }

    /// Creates a bounded MPMC channel holding at most `capacity` messages;
    /// `send` blocks while the channel is full.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero (rendezvous channels are not
    /// implemented).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(capacity > 0, "zero-capacity channels are not supported");
        channel(capacity)
    }

    fn lock<'a, T>(shared: &'a Shared<T>) -> std::sync::MutexGuard<'a, VecDeque<T>> {
        match shared.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    type Guard<'a, T> = std::sync::MutexGuard<'a, VecDeque<T>>;

    impl<T> Shared<T> {
        /// Parks the sender once — for at most 5 ms, so a receiver dying or
        /// an abort flag flipping mid-park is observed promptly.
        fn park_for_space<'a>(&'a self, queue: Guard<'a, T>) -> Guard<'a, T> {
            let wait = Duration::from_millis(5);
            self.waiting_senders.fetch_add(1, Ordering::AcqRel);
            let (guard, _) = match self.space.wait_timeout(queue, wait) {
                Ok(pair) => pair,
                Err(poisoned) => {
                    let pair = poisoned.into_inner();
                    (pair.0, pair.1)
                }
            };
            self.waiting_senders.fetch_sub(1, Ordering::AcqRel);
            guard
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`. Blocks while a bounded channel is full (unless
        /// every receiver is gone).
        ///
        /// # Errors
        ///
        /// Returns [`SendError`] carrying the value when no receiver exists.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.send_inner(value, None)
        }

        /// Stop-aware [`Sender::send`]: while parked waiting for space, if
        /// `abort` becomes true the send gives up and returns the value to
        /// the caller as an error — the capacity stays a hard bound. This
        /// is what keeps engine teardown deadlock-free: a producer parked
        /// on a full channel whose consumers have already been stopped
        /// returns promptly, and the caller reconciles its in-flight
        /// accounting for the rejected message.
        ///
        /// # Errors
        ///
        /// Returns [`SendError`] carrying the value when no receiver
        /// exists *or* the abort flag was observed while the channel was
        /// full.
        pub fn send_abortable(&self, value: T, abort: &AtomicBool) -> Result<(), SendError<T>> {
            self.send_inner(value, Some(abort))
        }

        /// Enqueues `value` only if the channel is below capacity — never
        /// parks, never overruns. The send shape a work-stealing pool task
        /// uses: on [`TrySendError::Full`] the task suspends itself in the
        /// pool's wait list instead of parking the worker thread.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] at capacity, [`TrySendError::Disconnected`]
        /// when every receiver is gone; the value is returned either way.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            let mut queue = lock(&self.shared);
            if queue.len() >= self.shared.capacity {
                return Err(TrySendError::Full(value));
            }
            queue.push_back(value);
            Ok(())
        }

        /// Enqueues items from `batch` while the channel is below capacity,
        /// under a single lock acquisition — never parks, never overruns.
        /// **Lazy**: items are pulled from the iterator only while space
        /// remains, so everything unsent stays with the caller (nothing is
        /// consumed and dropped). Returns the number of items enqueued;
        /// fewer than the batch length means the channel filled up and the
        /// caller should suspend with the remainder.
        ///
        /// # Errors
        ///
        /// Returns [`SendError`] carrying `0` when every receiver is gone
        /// (no item was consumed from the iterator).
        pub fn try_send_batch<I>(&self, batch: &mut I) -> Result<usize, SendError<usize>>
        where
            I: Iterator<Item = T>,
        {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(0));
            }
            let mut pushed = 0usize;
            let mut queue = lock(&self.shared);
            while queue.len() < self.shared.capacity {
                match batch.next() {
                    Some(value) => {
                        queue.push_back(value);
                        pushed += 1;
                    }
                    None => break,
                }
            }
            Ok(pushed)
        }

        fn send_inner(&self, value: T, abort: Option<&AtomicBool>) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut queue = lock(&self.shared);
            while queue.len() >= self.shared.capacity {
                if self.shared.receivers.load(Ordering::Acquire) == 0
                    || abort.is_some_and(|a| a.load(Ordering::Acquire))
                {
                    return Err(SendError(value));
                }
                queue = self.shared.park_for_space(queue);
            }
            queue.push_back(value);
            Ok(())
        }

        /// Enqueues every item of `batch` under a single lock acquisition —
        /// the fan-out fast path: one mutex round-trip and at most one
        /// wakeup for the whole batch instead of per message. Blocks for
        /// space as [`Sender::send`] does.
        ///
        /// # Errors
        ///
        /// Returns [`SendError`] carrying the number of items *not*
        /// enqueued when every receiver is gone (those items are dropped),
        /// so callers keeping in-flight accounting can reconcile.
        pub fn send_batch(
            &self,
            batch: impl IntoIterator<Item = T>,
        ) -> Result<(), SendError<usize>> {
            self.send_batch_inner(batch, None)
        }

        /// Stop-aware [`Sender::send_batch`]; see [`Sender::send_abortable`]
        /// for the abort semantics — once the abort flag is observed on a
        /// full channel the remaining items are dropped and their count is
        /// returned as the error, never enqueued past the capacity.
        ///
        /// # Errors
        ///
        /// As for [`Sender::send_batch`], and additionally when aborted
        /// mid-batch (the error carries the number of items *not*
        /// enqueued so callers can reconcile in-flight accounting).
        pub fn send_batch_abortable(
            &self,
            batch: impl IntoIterator<Item = T>,
            abort: &AtomicBool,
        ) -> Result<(), SendError<usize>> {
            self.send_batch_inner(batch, Some(abort))
        }

        fn send_batch_inner(
            &self,
            batch: impl IntoIterator<Item = T>,
            abort: Option<&AtomicBool>,
        ) -> Result<(), SendError<usize>> {
            let mut iter = batch.into_iter();
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(iter.count()));
            }
            let mut queue = lock(&self.shared);
            while let Some(value) = iter.next() {
                while queue.len() >= self.shared.capacity {
                    if self.shared.receivers.load(Ordering::Acquire) == 0
                        || abort.is_some_and(|a| a.load(Ordering::Acquire))
                    {
                        drop(queue);
                        drop(value);
                        return Err(SendError(1 + iter.count()));
                    }
                    queue = self.shared.park_for_space(queue);
                }
                queue.push_back(value);
            }
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Number of messages currently queued. Like the real crate's
        /// `Receiver::len`, this is a racy snapshot — only ever a
        /// scheduling hint.
        pub fn len(&self) -> usize {
            lock(&self.shared).len()
        }

        /// Whether the queue is currently empty (racy snapshot; a hint).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Dequeues up to `max` messages into `buf` under a single lock
        /// acquisition *without ever parking*: returns
        /// `Ok((taken, remaining))` — `(0, 0)` when the queue is
        /// momentarily empty. A pool task must yield its worker instead of
        /// blocking on an idle channel, and the `remaining` count (read
        /// from the lock already held) spares the caller a second lock
        /// acquisition for its "more backlog?" scheduling decision.
        ///
        /// # Errors
        ///
        /// [`RecvError`] when the queue is drained and every sender is gone.
        pub fn try_recv_batch(
            &self,
            buf: &mut Vec<T>,
            max: usize,
        ) -> Result<(usize, usize), RecvError> {
            let mut queue = lock(&self.shared);
            if queue.is_empty() {
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                return Ok((0, 0));
            }
            let n = queue.len().min(max.max(1));
            buf.extend(queue.drain(..n));
            let remaining = queue.len();
            drop(queue);
            if self.shared.waiting_senders.load(Ordering::Acquire) > 0 {
                self.shared.space.notify_all();
            }
            Ok((n, remaining))
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.shared.senders.fetch_sub(1, Ordering::AcqRel);
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last receiver: wake blocked senders so they can error out.
                self.shared.space.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver")
        }
    }
}

/// Work-stealing deques: per-worker [`deque::Worker`]s with shared
/// [`deque::Stealer`] handles, plus the global [`deque::Injector`] queue.
///
/// The API mirrors `crossbeam::deque` (the slice `drs-runtime` uses):
/// workers pop their own end in LIFO order for cache locality while
/// stealers and the injector hand out the opposite end FIFO, so the oldest
/// queued task migrates first. The stand-in is `Mutex<VecDeque>`-backed —
/// no lock-free Chase-Lev — which is adequate at the worker counts this
/// workspace runs (the real crate drops in unchanged when the registry
/// returns).
pub mod deque {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Mutex, MutexGuard};

    fn lock<T>(queue: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
        match queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Outcome of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// One task was stolen.
        Success(T),
    }

    impl<T> Steal<T> {
        /// The stolen task, if any.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(t) => Some(t),
                Steal::Empty => None,
            }
        }

        /// Whether the queue was observed empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }
    }

    /// A worker-owned deque: the owner pushes and pops one end (LIFO);
    /// [`Stealer`]s take the other end (FIFO). Not cloneable — exactly one
    /// owner — but any number of stealer handles may exist.
    pub struct Worker<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    /// A shared handle stealing from the far end of one [`Worker`]'s deque.
    pub struct Stealer<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    /// The global injection queue: any thread pushes, workers steal FIFO.
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Worker<T> {
        /// Creates an empty LIFO worker deque (pops return the most
        /// recently pushed task).
        pub fn new_lifo() -> Self {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        /// Pushes a task onto the owner's end.
        pub fn push(&self, task: T) {
            lock(&self.queue).push_back(task);
        }

        /// Pops the owner's end (most recent task).
        pub fn pop(&self) -> Option<T> {
            lock(&self.queue).pop_back()
        }

        /// Creates a stealer handle onto this deque.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    impl<T> Stealer<T> {
        /// Steals the oldest queued task.
        pub fn steal(&self) -> Steal<T> {
            match lock(&self.queue).pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Self {
            Injector {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        /// Pushes a task; any worker may steal it.
        pub fn push(&self, task: T) {
            lock(&self.queue).push_back(task);
        }

        /// Steals the oldest injected task.
        pub fn steal(&self) -> Steal<T> {
            match lock(&self.queue).pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// Whether the injector is currently empty (racy snapshot).
        pub fn is_empty(&self) -> bool {
            lock(&self.queue).is_empty()
        }
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector::new()
        }
    }

    impl<T> fmt::Debug for Worker<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Worker")
        }
    }

    impl<T> fmt::Debug for Stealer<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Stealer")
        }
    }

    impl<T> fmt::Debug for Injector<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Injector")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, Receiver, RecvError};
    use std::time::Duration;

    /// Takes whatever is queued right now (up to `max`), never parking.
    fn take<T>(rx: &Receiver<T>, max: usize) -> Vec<T> {
        let mut buf = Vec::new();
        let _ = rx.try_recv_batch(&mut buf, max);
        buf
    }

    /// Drains the channel until every sender is gone, yielding the thread
    /// while it is momentarily empty.
    fn drain_until_disconnected<T>(rx: &Receiver<T>) -> Vec<T> {
        let mut buf = Vec::new();
        while rx.try_recv_batch(&mut buf, 16).is_ok() {
            std::thread::yield_now();
        }
        buf
    }

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(take(&rx, 1), vec![1]);
        assert_eq!(take(&rx, 1), vec![2]);
        assert_eq!(rx.try_recv_batch(&mut Vec::new(), 1), Ok((0, 0)));
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = unbounded();
        tx.send(7u32).unwrap();
        drop(tx);
        assert_eq!(take(&rx, 1), vec![7]);
        assert_eq!(rx.try_recv_batch(&mut Vec::new(), 1), Err(RecvError));
    }

    #[test]
    fn mpmc_across_threads() {
        let (tx, rx) = unbounded();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..250 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || drain_until_disconnected(&rx).len())
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(3).unwrap(); // blocks until the receiver drains one
            tx
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(take(&rx, 1), vec![1]);
        let _tx = t.join().unwrap();
        assert_eq!(take(&rx, 2), vec![2, 3]);
    }

    #[test]
    fn bounded_send_errors_when_receivers_gone() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2)); // full: parks
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert!(t.join().unwrap().is_err());
    }

    #[test]
    fn bounded_round_trip_under_contention() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let n = drain_until_disconnected(&rx).len();
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(n, 600);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = bounded::<u32>(0);
    }

    #[test]
    fn abortable_send_errors_instead_of_overrunning() {
        use super::channel::SendError;
        use std::sync::atomic::AtomicBool;
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let abort = AtomicBool::new(true);
        // Channel is full and the abort flag is set: the sends must return
        // promptly with an error — nothing may be enqueued past capacity.
        assert_eq!(tx.send_abortable(2, &abort), Err(SendError(2)));
        assert_eq!(tx.send_batch_abortable([3, 4], &abort), Err(SendError(2)));
        assert_eq!(rx.len(), 1, "the hard bound must hold");
        drop(tx);
        assert_eq!(drain_until_disconnected(&rx), vec![1]);
    }

    #[test]
    fn abort_flag_unblocks_a_parked_sender() {
        use super::channel::SendError;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let (tx, _rx) = bounded(1);
        tx.send(0).unwrap();
        let abort = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&abort);
        let t = std::thread::spawn(move || tx.send_batch_abortable([1, 2, 3], &flag));
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !t.is_finished(),
            "sender must be parked on the full channel"
        );
        abort.store(true, Ordering::Release);
        let start = std::time::Instant::now();
        assert_eq!(
            t.join().unwrap(),
            Err(SendError(3)),
            "every unsent item must be reported so the caller can reconcile"
        );
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "abort must unblock the sender promptly"
        );
    }

    #[test]
    fn try_send_observes_the_hard_bound() {
        use super::channel::TrySendError;
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.len(), 2);
        assert_eq!(take(&rx, 1), vec![1]);
        tx.try_send(3).unwrap();
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn try_send_batch_is_lazy_past_capacity() {
        let (tx, rx) = bounded(2);
        let mut items = [1, 2, 3, 4].into_iter();
        assert_eq!(tx.try_send_batch(&mut items), Ok(2));
        // Unsent items stay with the caller — nothing consumed and dropped.
        assert_eq!(items.clone().collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(rx.len(), 2);
        assert_eq!(take(&rx, 1), vec![1]);
        assert_eq!(tx.try_send_batch(&mut items), Ok(1));
        assert_eq!(rx.len(), 2, "the hard bound must hold after a refill");
    }

    #[test]
    fn try_recv_batch_drains_without_parking() {
        let (tx, rx) = unbounded();
        let mut buf = Vec::new();
        assert_eq!(rx.try_recv_batch(&mut buf, 4), Ok((0, 0)));
        for i in 0..6 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.try_recv_batch(&mut buf, 4), Ok((4, 2)));
        assert_eq!(buf, vec![0, 1, 2, 3]);
        assert_eq!(rx.len(), 2);
        assert!(!rx.is_empty());
        drop(tx);
        buf.clear();
        assert_eq!(rx.try_recv_batch(&mut buf, 4), Ok((2, 0)));
        assert_eq!(rx.try_recv_batch(&mut buf, 4), Err(RecvError));
    }

    #[test]
    fn deque_lifo_pop_fifo_steal() {
        use super::deque::{Injector, Steal, Worker};
        let w: Worker<u32> = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        // Owner pops the newest…
        assert_eq!(w.pop(), Some(3));
        // …stealers take the oldest.
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(s.steal(), Steal::Empty);
        assert_eq!(w.pop(), None);

        let inj: Injector<u32> = Injector::new();
        inj.push(10);
        inj.push(11);
        assert!(!inj.is_empty());
        assert_eq!(inj.steal().success(), Some(10));
        assert_eq!(inj.steal().success(), Some(11));
        assert!(inj.steal().is_empty());
    }

    #[test]
    fn deque_steals_balance_across_threads() {
        use super::deque::Worker;
        use std::sync::Arc;
        let w: Worker<u32> = Worker::new_lifo();
        for i in 0..1_000 {
            w.push(i);
        }
        let stealers: Vec<_> = (0..4).map(|_| w.stealer()).collect();
        let total = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let threads: Vec<_> = stealers
            .into_iter()
            .map(|s| {
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    while s.steal().success().is_some() {
                        total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                })
            })
            .collect();
        let mut owner = 0;
        while w.pop().is_some() {
            owner += 1;
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            owner + total.load(std::sync::atomic::Ordering::Relaxed),
            1_000
        );
    }

    #[test]
    fn send_batch_reports_unsent_count_on_disconnect() {
        use super::channel::SendError;
        let (tx, rx) = bounded(2);
        drop(rx);
        assert_eq!(tx.send_batch([1, 2, 3]), Err(SendError(3)));

        // Partial: two fit before the receiver disappears mid-park.
        let (tx, rx) = bounded(2);
        let t = std::thread::spawn(move || tx.send_batch([1, 2, 3, 4, 5]));
        std::thread::sleep(Duration::from_millis(30));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(SendError(3)));
    }
}
