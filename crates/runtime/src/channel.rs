//! The bounded channel every operator slot's input queue is made of.
//!
//! One [`Channel`] per `(operator, machine)` slot, owned by the worker pool
//! (`crate::pool::PoolShared::channels`). Every producer — a pool worker
//! or a spout thread — and every consumer reaches it through the same
//! `Arc<PoolShared>`, so a channel always outlives its users and has no
//! sender/receiver split, no handle counts and no disconnected state.
//!
//! The capacity is a **hard invariant**: no send shape ever enqueues past
//! it. Pool tasks, which must never park an OS thread, use the
//! non-blocking [`Channel::try_send`] / [`Channel::try_send_batch`] and
//! suspend themselves when the channel is full; spout threads use the
//! parking, stop-aware [`Channel::send_abortable`]. The only drain is the
//! never-parking [`Channel::try_recv_batch`]. Backed by `Mutex<VecDeque>`
//! plus a `Condvar`: the ring buffer is reused across messages, so a
//! steady-state send allocates nothing, and wakeups are counted, so a
//! drain touches the `Condvar` only when a sender is actually parked.
//!
//! Every send takes the channel mutex, `try_send` included. The pool's
//! wait-list protocol relies on that: the mutex orders a would-be waiter's
//! count publication before any drain that could miss it (see
//! `PoolShared::park_on`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a parked sender sleeps before re-checking its abort flag.
const PARK_QUANTUM: Duration = Duration::from_millis(5);

/// A bounded multi-producer multi-consumer FIFO queue.
pub(crate) struct Channel<T> {
    queue: Mutex<VecDeque<T>>,
    /// Signalled when a drain frees space and a sender is parked.
    space: Condvar,
    capacity: usize,
    /// Senders parked in `space.wait_timeout`.
    waiting_senders: AtomicUsize,
}

impl<T> Channel<T> {
    /// Creates a channel holding at most `capacity` messages.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero (rendezvous channels are not
    /// implemented).
    pub(crate) fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity channels are not supported");
        Channel {
            queue: Mutex::new(VecDeque::new()),
            space: Condvar::new(),
            capacity,
            waiting_senders: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `value` only if the channel is below capacity — never
    /// parks, never overruns. On `Err` (full) the value is handed back and
    /// a pool task suspends itself instead of parking its worker.
    pub(crate) fn try_send(&self, value: T) -> Result<(), T> {
        let mut queue = self.lock();
        if queue.len() >= self.capacity {
            return Err(value);
        }
        queue.push_back(value);
        Ok(())
    }

    /// Enqueues items from `batch` while the channel is below capacity,
    /// under a single lock acquisition — never parks, never overruns.
    /// **Lazy**: items are pulled from the iterator only while space
    /// remains, so everything unsent stays in `batch` with the caller.
    /// Returns the number of items enqueued.
    pub(crate) fn try_send_batch<I>(&self, batch: &mut I) -> usize
    where
        I: Iterator<Item = T>,
    {
        let mut pushed = 0;
        let mut queue = self.lock();
        while queue.len() < self.capacity {
            let Some(value) = batch.next() else { break };
            queue.push_back(value);
            pushed += 1;
        }
        pushed
    }

    /// Enqueues every item of `batch` under one lock acquisition, parking
    /// for space while the channel is full. While parked, a raised `abort`
    /// flag makes the send give up: the remaining items are dropped, never
    /// enqueued past the capacity, and their count is the error, so the
    /// caller can reconcile its in-flight accounting. This is what keeps
    /// engine teardown deadlock-free: a spout parked on a full channel
    /// whose consumers have stopped returns within one park quantum.
    pub(crate) fn send_abortable(
        &self,
        batch: impl IntoIterator<Item = T>,
        abort: &AtomicBool,
    ) -> Result<(), usize> {
        let mut iter = batch.into_iter();
        let mut queue = self.lock();
        while let Some(value) = iter.next() {
            while queue.len() >= self.capacity {
                if abort.load(Ordering::Acquire) {
                    drop(queue);
                    drop(value);
                    return Err(1 + iter.count());
                }
                queue = self.park_for_space(queue);
            }
            queue.push_back(value);
        }
        Ok(())
    }

    /// Parks the sender once, for at most [`PARK_QUANTUM`], so an abort
    /// flag raised mid-park is observed promptly.
    fn park_for_space<'a>(
        &self,
        queue: MutexGuard<'a, VecDeque<T>>,
    ) -> MutexGuard<'a, VecDeque<T>> {
        self.waiting_senders.fetch_add(1, Ordering::AcqRel);
        let (queue, _) = self
            .space
            .wait_timeout(queue, PARK_QUANTUM)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiting_senders.fetch_sub(1, Ordering::AcqRel);
        queue
    }

    /// Dequeues up to `max` messages into `buf` under a single lock
    /// acquisition *without ever parking*: returns `(taken, remaining)`,
    /// `(0, 0)` when the queue is momentarily empty. A pool task yields its
    /// worker instead of blocking on an idle channel, and `remaining`
    /// (read under the lock already held) spares the caller a second lock
    /// acquisition for its "more backlog?" decision.
    pub(crate) fn try_recv_batch(&self, buf: &mut Vec<T>, max: usize) -> (usize, usize) {
        let mut queue = self.lock();
        if queue.is_empty() {
            return (0, 0);
        }
        let n = queue.len().min(max.max(1));
        buf.extend(queue.drain(..n));
        let remaining = queue.len();
        drop(queue);
        if self.waiting_senders.load(Ordering::Acquire) > 0 {
            self.space.notify_all();
        }
        (n, remaining)
    }

    /// Number of messages currently queued: a racy snapshot, only ever a
    /// scheduling hint.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the queue is currently empty (racy snapshot; a hint).
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::Channel;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    static NEVER: AtomicBool = AtomicBool::new(false);

    /// Takes whatever is queued right now (up to `max`), never parking.
    fn take<T>(ch: &Channel<T>, max: usize) -> Vec<T> {
        let mut buf = Vec::new();
        ch.try_recv_batch(&mut buf, max);
        buf
    }

    /// Returns once `sender` is parked on the full `ch`; panics if it
    /// returned instead.
    fn wait_until_parked<T, R>(ch: &Channel<T>, sender: &JoinHandle<R>) {
        while ch.waiting_senders.load(Ordering::Acquire) == 0 {
            assert!(
                !sender.is_finished(),
                "sender must park on the full channel"
            );
            std::thread::yield_now();
        }
    }

    /// Drains `ch` until `total` messages arrived, yielding the thread
    /// while it is momentarily empty.
    fn drain<T>(ch: &Channel<T>, total: usize) -> Vec<T> {
        let mut buf = Vec::new();
        while buf.len() < total {
            if ch.try_recv_batch(&mut buf, 16).0 == 0 {
                std::thread::yield_now();
            }
        }
        buf
    }

    #[test]
    fn fifo_order() {
        let ch = Channel::bounded(4);
        ch.try_send(1).unwrap();
        ch.try_send(2).unwrap();
        assert_eq!(take(&ch, 1), vec![1]);
        assert_eq!(take(&ch, 1), vec![2]);
        assert_eq!(ch.try_recv_batch(&mut Vec::new(), 1), (0, 0));
    }

    #[test]
    fn try_send_observes_the_hard_bound() {
        let ch = Channel::bounded(2);
        ch.try_send(1).unwrap();
        ch.try_send(2).unwrap();
        assert_eq!(ch.try_send(3), Err(3));
        assert_eq!(ch.len(), 2);
        assert_eq!(take(&ch, 1), vec![1]);
        ch.try_send(3).unwrap();
        assert_eq!(take(&ch, 2), vec![2, 3]);
    }

    #[test]
    fn try_send_batch_is_lazy_past_capacity() {
        let ch = Channel::bounded(2);
        let mut items = [1, 2, 3, 4].into_iter();
        assert_eq!(ch.try_send_batch(&mut items), 2);
        // Unsent items stay with the caller — nothing consumed and dropped.
        assert_eq!(items.clone().collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(ch.len(), 2);
        assert_eq!(take(&ch, 1), vec![1]);
        assert_eq!(ch.try_send_batch(&mut items), 1);
        assert_eq!(ch.len(), 2, "the hard bound must hold after a refill");
    }

    #[test]
    fn send_parks_until_space() {
        let ch = Arc::new(Channel::bounded(2));
        ch.try_send(1).unwrap();
        ch.try_send(2).unwrap();
        let tx = Arc::clone(&ch);
        // Blocks until the consumer below drains one.
        let t = std::thread::spawn(move || tx.send_abortable([3], &NEVER));
        wait_until_parked(&ch, &t);
        assert_eq!(ch.len(), 2);
        assert_eq!(take(&ch, 1), vec![1]);
        assert_eq!(t.join().unwrap(), Ok(()));
        assert_eq!(take(&ch, 2), vec![2, 3]);
    }

    #[test]
    fn abort_returns_the_unsent_count_instead_of_overrunning() {
        let ch = Channel::bounded(1);
        ch.try_send(1).unwrap();
        let abort = AtomicBool::new(true);
        // Full with the abort flag raised: the sends return at once, and
        // nothing is enqueued past capacity.
        assert_eq!(ch.send_abortable([2], &abort), Err(1));
        assert_eq!(ch.send_abortable([3, 4], &abort), Err(2));
        assert_eq!(ch.len(), 1, "the hard bound must hold");
        assert_eq!(take(&ch, 4), vec![1]);
    }

    #[test]
    fn abort_flag_unblocks_a_parked_sender() {
        let ch = Arc::new(Channel::bounded(1));
        ch.try_send(0).unwrap();
        let abort = Arc::new(AtomicBool::new(false));
        let (tx, flag) = (Arc::clone(&ch), Arc::clone(&abort));
        let t = std::thread::spawn(move || tx.send_abortable([1, 2, 3], &flag));
        wait_until_parked(&ch, &t);
        abort.store(true, Ordering::Release);
        let start = Instant::now();
        assert_eq!(
            t.join().unwrap(),
            Err(3),
            "every unsent item must be reported so the caller can reconcile"
        );
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "abort must unblock the sender promptly"
        );
    }

    #[test]
    fn try_recv_batch_reports_taken_and_remaining() {
        let ch = Channel::bounded(8);
        let mut buf = Vec::new();
        assert_eq!(ch.try_recv_batch(&mut buf, 4), (0, 0));
        assert_eq!(ch.try_send_batch(&mut (0..6)), 6);
        assert_eq!(ch.try_recv_batch(&mut buf, 4), (4, 2));
        assert_eq!(buf, vec![0, 1, 2, 3]);
        assert_eq!(ch.len(), 2);
        assert!(!ch.is_empty());
        buf.clear();
        assert_eq!(ch.try_recv_batch(&mut buf, 4), (2, 0));
        assert!(ch.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = Channel::<u32>::bounded(0);
    }

    #[test]
    fn bounded_round_trip_under_contention() {
        let ch = Arc::new(Channel::bounded(4));
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let tx = Arc::clone(&ch);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        tx.send_abortable([p * 1000 + i], &NEVER).unwrap();
                    }
                })
            })
            .collect();
        let mut got = drain(&ch, 600);
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        let want: Vec<_> = (0..3)
            .flat_map(|p| (0..200).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn many_consumers_share_one_channel() {
        let ch = Arc::new(Channel::bounded(16));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = Arc::clone(&ch);
                std::thread::spawn(move || {
                    tx.send_abortable((0..250).map(|i| p * 1000 + i), &NEVER)
                        .unwrap();
                })
            })
            .collect();
        let done = Arc::new(AtomicBool::new(false));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let (rx, done) = (Arc::clone(&ch), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        if rx.try_recv_batch(&mut buf, 16).0 == 0 {
                            if finished {
                                return buf.len();
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 1000);
    }

    /// Producers mixing the lazy non-blocking batch send (retrying with
    /// what it left behind) and the parking send never push a consumer's
    /// observed depth past the capacity, and every message arrives once.
    #[test]
    fn depth_never_exceeds_capacity_under_mixed_sends() {
        const CAP: usize = 8;
        const PER_PRODUCER: u32 = 2_000;
        let ch = Arc::new(Channel::bounded(CAP));
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let tx = Arc::clone(&ch);
                std::thread::spawn(move || {
                    let base = p * 100_000;
                    let mut items = (base..base + PER_PRODUCER).peekable();
                    while items.peek().is_some() {
                        if p % 2 == 0 {
                            let mut chunk = items.by_ref().take(5).peekable();
                            while chunk.peek().is_some() {
                                if tx.try_send_batch(&mut chunk) == 0 {
                                    std::thread::yield_now();
                                }
                            }
                        } else {
                            tx.send_abortable(items.by_ref().take(7), &NEVER).unwrap();
                        }
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 4 * PER_PRODUCER as usize {
            let depth = ch.len();
            assert!(depth <= CAP, "observed depth {depth} > capacity {CAP}");
            let (taken, remaining) = ch.try_recv_batch(&mut got, 3);
            assert!(taken + remaining <= CAP, "pull saw {taken} + {remaining}");
            if taken == 0 {
                std::thread::yield_now();
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        let want: Vec<_> = (0..4u32)
            .flat_map(|p| p * 100_000..p * 100_000 + PER_PRODUCER)
            .collect();
        assert_eq!(got, want);
    }
}
