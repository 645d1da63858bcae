//! The work-stealing worker pool running every logical executor.
//!
//! OS threads ("workers") each own a local task deque and steal from a
//! shared injector and from each other. Every task queue is a
//! [`TaskQueue`]: the owner pushes and pops the back of its own (LIFO, for
//! locality), while stealers and the injector hand out the front, so the
//! oldest queued task migrates first. A *task* is either a slot drain
//! ([`Task::Drain`]: check a pooled [`Bolt`] instance out of the slot's
//! [`OpSlot`], pull one batch of envelopes from the slot's input channel,
//! execute them) or the resumption of a suspended send
//! ([`Task::Resume`]). The per-slot weight bounds how many drain tasks may
//! be in flight at once — that bound *is* the executor allocation, so
//! `rebalance()` is a weight-table write, not a thread lifecycle
//! operation.
//!
//! # Scheduling protocol
//!
//! `scheduled[slot]` counts in-flight tasks. [`PoolShared::nudge`] spawns
//! one task when `scheduled < weight` (CAS-guarded, so the bound is never
//! exceeded); producers nudge after every enqueue, and a task starting on a
//! backlog larger than one slice nudges again ("cascade"), so wakeups cost
//! O(1) per batch rather than per tuple. A retiring task re-checks the
//! channel after decrementing `scheduled` and re-nudges if a producer raced
//! it — the standard lost-wakeup guard.
//!
//! Continuations go through the pool's injector rather than the local
//! deque: a LIFO self-push would let one hot operator monopolise its
//! worker while sibling tasks starve in the same deque; routing the
//! continuation through the FIFO injector interleaves operators even on a
//! single-worker pool. Cascade spawns and downstream nudges stay on the
//! local deque for locality — idle workers steal them when the pool is
//! unbalanced.
//!
//! # Backpressure discipline: task suspension
//!
//! Channel capacity is a **hard invariant** (`len ≤ cap`, always). Workers
//! never park an OS thread on a full downstream channel, and they never
//! enqueue past the capacity either. Instead, a task whose
//! [`Channel::try_send`] finds the channel full *suspends itself*: the
//! undelivered envelopes
//! (plus any not-yet-processed inbox leftovers) move into a [`Suspended`]
//! record parked in the blocked channel's wait list, and the worker goes
//! on to run other tasks. The consumer side wakes it — every batch pull
//! that takes at least one envelope out of a channel pops one waiter and
//! re-injects it as a [`Task::Resume`].
//! Parking is race-free: the would-be waiter retries its send *under the
//! wait-list lock*, and the consumer acquires the same lock to pop, so a
//! drain can never slip between the failed send and the park (the channel
//! mutex orders the waiter-count publication before the drain that would
//! miss it).
//!
//! A suspended drain task keeps its `scheduled` claim while its downstream
//! sends are pending — bounding the suspended state per slot to `weight`
//! tasks of at most one slice each. Once the sends are delivered, inbox
//! leftovers are handed back to the slot's own channel; if *that* is full
//! the task first releases its claim (so other executor tasks can drain
//! the channel it is about to queue behind — holding it with `weight == 1`
//! would be a self-deadlock) and parks as a plain claim-less requeue
//! waiter. Cyclic topologies whose loops run at full channel capacity can
//! still deadlock under any lossless bounded scheme — see
//! `loop_topology_completes_via_bounded_recursion` for the recursion-depth
//! contract that keeps loops below capacity. Spout threads are not workers
//! and keep hard blocking backpressure ([`Channel::send_abortable`]).
//!
//! # Adaptive workers
//!
//! The worker count floats between a configured minimum and maximum. A
//! nudge that finds no parked worker spawns one (runnable tasks outnumber
//! the live workers) until the cap; a worker that pulls nothing for
//! [`IDLE_STRIKES`] consecutive park quanta deregisters its deque and
//! exits (down to the minimum). `RuntimeBuilder::workers(n)` pins
//! `min == max == n`, restoring a fixed-size pool.
//!
//! # Tuple storage
//!
//! A tuple is two heap blocks — its field buffer and the `Arc` that lets
//! every downstream edge share it — and on a pool they are typically
//! allocated by the worker that ran the emitting bolt and freed by the
//! worker that ran the consuming one. Blocks crossing threads that way
//! are the allocator's slow path; measured on the flooded VLD pipeline it
//! was most of the per-tuple overhead, ahead of every channel, deque and
//! injector lock together.
//!
//! So each worker recycles what it finishes with. At the end of
//! `execute_one` the input envelope's tuple goes to
//! `VecCollector::recycle` on the worker's own collector: if that was the
//! last handle (`Arc::get_mut` succeeds — a tuple fanned out to two
//! operators is recycled by whichever finishes second, and never while
//! the other still reads it), the cleared field buffer and the now-empty
//! `Arc` shell go into the collector's stash. The emissions of a bolt with
//! no downstream edge give their buffers back the same way. A bolt that
//! builds its tuples in [`Collector::fields`](crate::operator::Collector::fields)
//! pops a stashed buffer, and the fan-out fills stashed shells before it
//! calls `Arc::new`. Within a worker that runs producers and consumers
//! alike, storage circulates with no lock and no second code path: a bolt
//! that never calls `fields()` behaves as before, and a recycled buffer is
//! always empty, indistinguishable from a fresh one but for its capacity
//! (so a buffer grows at most once to the widest tuple built in it).
//!
//! Two constants bound a stash: at most `STASH_MAX` buffers and as many
//! shells per worker, and no buffer wider than `STASH_FIELDS_MAX` values.
//! While each worker runs a mix of operators that is all it takes. But two
//! workers can settle into a pipeline — one on an operator that emits many
//! tuples per input (`extract`, `split`), the other downstream of it — and
//! then the first only takes from its stash and the second only gives to
//! its own: alone, the first would allocate what the second drops.
//!
//! So the workers trade surplus through one pool-wide [`Depot`], in
//! batches. It has two lanes, field buffers and `Arc` shells, each a mutex
//! over at most [`DEPOT_BATCHES`] batches of `STASH_MAX / 2` entries plus
//! an atomic batch count. At the end of `execute_one`, after the recycle,
//! a worker whose stash lane has reached `STASH_MAX` moves the top half of
//! it into the depot (`VecCollector::spill_half`; dropped if the depot lane
//! is full), and a worker whose lane has run below [`REFILL_BELOW`] —
//! enough for one input's emissions — takes one batch back
//! (`VecCollector::refill`). The common path reads a length and at most
//! one atomic and takes no lock; a lock is taken once per ≈ 512 tuples
//! moved, and the only block allocated and freed along the way is the
//! batch's own `Vec`. A pool whose stashes never fill nor run dry never
//! touches the depot. Memory stays bounded by constants: per lane, at most
//! `workers × STASH_MAX + DEPOT_BATCHES × STASH_MAX / 2` entries.
//!
//! The spout side is left alone. A spout thread only produces, so it has
//! nothing to recycle: each root still costs it one `Arc::new` plus
//! whatever the spout allocates for the tuple itself. And the worker that
//! finishes a root frees it rather than stashing it — nor does the depot
//! ever see one (`spout_fed` marks the operators a spout feeds): a stash
//! is long-lived, and blocks from the spout thread's arena parked in it
//! kept that arena from shrinking — `live_paced` peaked up to 10 MB higher
//! in three runs of ten — and every root would add one more buffer than
//! the pipeline ever takes back out. So the cross-thread frees of a root
//! remain, once per root rather than once per hop. One more thing is out
//! of scope here: batching the per-envelope channel sends of one slice
//! (one lock per batch per edge).

use crate::channel::Channel;
use crate::executor::{AckRef, DataPath, Envelope, OpSlot};
use crate::operator::{Bolt, VecCollector};
use crate::tuple::{Tuple, Value};
use parking_lot::{Mutex as PlMutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A schedulable unit.
pub(crate) enum Task {
    /// Drain the operator's input channel (the slot index is the
    /// operator id).
    Drain(u32),
    /// Finish a suspended task's pending sends (and requeue its inbox).
    Resume(Box<Suspended>),
}

/// The parked state of a task that hit a full downstream channel: the
/// undelivered sends plus the unprocessed remainder of its input slice.
/// Lives in the blocked channel's wait list until the consumer's drain
/// re-injects it as [`Task::Resume`].
pub(crate) struct Suspended {
    /// The slot the task was draining.
    slot: usize,
    /// Whether this record still holds one `scheduled` claim on `slot`.
    holds_claim: bool,
    /// Undelivered `(target slot, envelope)` sends, in order. Their ack
    /// pending counts are already added.
    outgoing: VecDeque<(u32, Envelope)>,
    /// Input envelopes pulled but not yet executed.
    inbox: Vec<Envelope>,
}

/// A worker's local deque or the pool's injector (see the module docs).
type TaskQueue = PlMutex<VecDeque<Task>>;

/// The registry of live workers' local deques, keyed by worker id, for
/// siblings to steal from.
type StealerRegistry = RwLock<Vec<(u64, Arc<TaskQueue>)>>;

/// One channel's wait list of suspended senders. `count` mirrors the list
/// length but is published *before* the waiter's final full-check under
/// the list lock, so a consumer that drained after that check always
/// observes it (see the module docs).
struct WaitList {
    list: PlMutex<VecDeque<Box<Suspended>>>,
    count: AtomicUsize,
}

/// Maximum envelopes one task pulls per slice (single channel-lock
/// acquisition); also the granularity at which weight changes are observed.
pub(crate) const RECV_BATCH: usize = 128;

/// Most half-stash batches one depot lane holds; a batch spilled into a
/// full lane is dropped (see "Tuple storage" in the module docs).
pub(crate) const DEPOT_BATCHES: usize = 4;

/// A worker whose stash lane holds fewer entries than this takes a batch
/// back from the depot: more than one input's emissions on every pipeline
/// here, so a net producer refills before it has to allocate.
pub(crate) const REFILL_BELOW: usize = RECV_BATCH / 2;

/// Idle-worker park quantum: parked workers also wake on every nudge, so
/// this only bounds the latency of rare lost wakeups.
const PARK_TIMEOUT: Duration = Duration::from_millis(5);

/// Consecutive empty park quanta after which a worker above the minimum
/// retires (~40 ms of observed idleness).
const IDLE_STRIKES: u32 = 8;

/// Per-worker scratch buffers, reused across slices so the steady state
/// allocates nothing: the emission collector (with its stash of recycled
/// tuple storage, see the module docs), the `Arc`'d outbox and the batched
/// inbox all keep their capacity.
#[derive(Default)]
struct WorkerScratch {
    collector: VecCollector,
    arc_buf: Vec<Arc<Tuple>>,
    inbox: Vec<Envelope>,
}

/// The pool-wide exchange of recycled tuple storage between workers' stashes
/// (see "Tuple storage" in the module docs): one lane of cleared field
/// buffers, one of empty `Arc` shells.
#[derive(Default)]
pub(crate) struct Depot {
    pub(crate) fields: DepotLane<Vec<Value>>,
    pub(crate) shells: DepotLane<Arc<Tuple>>,
}

/// At most [`DEPOT_BATCHES`] batches of one kind of storage. `count`
/// mirrors the number of batches so that a worker with nothing to trade
/// reads one atomic instead of taking the lock; the lock orders the
/// batches themselves, so the mirror needs no ordering of its own.
#[derive(Default)]
pub(crate) struct DepotLane<T> {
    batches: PlMutex<Vec<Vec<T>>>,
    count: AtomicUsize,
}

impl<T> DepotLane<T> {
    /// Stores `batch`, or drops it when the lane is full.
    pub(crate) fn put(&self, batch: Vec<T>) {
        if self.count.load(Ordering::Relaxed) >= DEPOT_BATCHES {
            return;
        }
        let mut batches = self.batches.lock();
        if batches.len() < DEPOT_BATCHES {
            batches.push(batch);
            self.count.store(batches.len(), Ordering::Relaxed);
        }
    }

    /// Takes one batch, if the lane holds any.
    pub(crate) fn take(&self) -> Option<Vec<T>> {
        if self.count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut batches = self.batches.lock();
        let batch = batches.pop();
        self.count.store(batches.len(), Ordering::Relaxed);
        batch
    }
}

/// Idle-worker parking state.
struct IdleGroup {
    lock: Mutex<()>,
    cv: Condvar,
    waiting: AtomicUsize,
}

/// Pool state shared by workers, spout threads and the engine.
pub(crate) struct PoolShared {
    /// Per-operator executor state, indexed by operator id.
    pub(crate) slots: Vec<OpSlot>,
    /// Per-operator input channels, same indexing as `slots`. Every
    /// producer and consumer reaches them through this struct, so they
    /// outlive every send and drain.
    pub(crate) channels: Vec<Channel<Envelope>>,
    pub(crate) path: DataPath,
    /// Per operator: whether a spout feeds it, so that its input tuples
    /// were allocated on a spout thread (see "Tuple storage").
    spout_fed: Vec<bool>,
    /// Where workers trade surplus tuple storage (see "Tuple storage").
    depot: Depot,
    /// Per-slot wait lists of suspended senders, same indexing as `slots`.
    waiters: Vec<WaitList>,
    injector: TaskQueue,
    /// Dynamic stealer registry: `(worker id, stealer)`.
    stealers: StealerRegistry,
    /// Live worker count.
    live: AtomicUsize,
    /// Worker-count band (`min == max` pins a fixed pool).
    min_workers: usize,
    max_workers: usize,
    next_worker: AtomicU64,
    handles: PlMutex<Vec<JoinHandle<()>>>,
    /// Back-reference for spawning workers from `&self` (nudge paths).
    me: Weak<PoolShared>,
    idle: IdleGroup,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared")
            .field("workers", &self.live.load(Ordering::Relaxed))
            .field("slots", &self.slots)
            .finish_non_exhaustive()
    }
}

impl PoolShared {
    /// Spawns one executor task for `slot` if its weight allows another;
    /// no-op otherwise. Safe to call from any thread — pool workers pass
    /// their local deque for a cheap push, spout threads and the control
    /// plane pass `None` (the injector).
    pub(crate) fn nudge(&self, slot: usize, local: Option<&TaskQueue>) {
        let state = &self.slots[slot];
        if !state.is_executable() {
            return;
        }
        loop {
            let w = state.weight.load(Ordering::Acquire);
            let s = state.scheduled.load(Ordering::Acquire);
            if s >= w {
                return;
            }
            if state
                .scheduled
                .compare_exchange(s, s + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let queue = local.unwrap_or(&self.injector);
                queue.lock().push_back(Task::Drain(slot as u32));
                self.wake_one();
                return;
            }
        }
    }

    /// Pulls a batch from `slot`'s channel, waking one suspended sender
    /// when space was freed and folding the observed depth into the
    /// operator's peak. All steady-state channel drains go through here so
    /// no wait-listed task can miss its wakeup.
    fn pull_batch(&self, slot: usize, buf: &mut Vec<Envelope>, max: usize) -> (usize, usize) {
        let (pulled, remaining) = self.channels[slot].try_recv_batch(buf, max);
        if pulled > 0 {
            self.path
                .metrics
                .record_queue_depth(slot, (pulled + remaining) as u64);
            self.wake_waiter(slot);
        }
        (pulled, remaining)
    }

    /// Pops one suspended sender off `slot`'s wait list (if any) and
    /// re-injects it. Called after every pull that freed channel space.
    fn wake_waiter(&self, slot: usize) {
        let wait = &self.waiters[slot];
        if wait.count.load(Ordering::Acquire) == 0 {
            return;
        }
        let sus = { wait.list.lock().pop_front() };
        if let Some(sus) = sus {
            wait.count.fetch_sub(1, Ordering::AcqRel);
            self.injector.lock().push_back(Task::Resume(sus));
            self.wake_one();
        }
    }

    /// Atomically parks `sus` on `target`'s wait list — unless space
    /// appeared meanwhile, in which case the front send is completed under
    /// the lock and the task is handed back (`Some`). Returns `None` when
    /// parked.
    fn park_on(&self, target: usize, mut sus: Box<Suspended>) -> Option<Box<Suspended>> {
        let wait = &self.waiters[target];
        let mut list = wait.list.lock();
        // Publish the waiter count *before* the final full-check: the
        // channel mutex inside try_send orders this store before any
        // subsequent drain, so the consumer cannot miss us (see module
        // docs).
        wait.count.fetch_add(1, Ordering::AcqRel);
        let (t, env) = sus
            .outgoing
            .pop_front()
            .expect("parking task has a pending send");
        debug_assert_eq!(t as usize, target);
        match self.channels[target].try_send(env) {
            Ok(()) => {
                wait.count.fetch_sub(1, Ordering::AcqRel);
                drop(list);
                self.nudge(target, None);
                Some(sus)
            }
            Err(env) => {
                sus.outgoing.push_front((t, env));
                list.push_back(sus);
                drop(list);
                self.path.metrics.record_suspension(target);
                self.path
                    .metrics
                    .record_queue_depth(target, self.path.channel_capacity as u64);
                None
            }
        }
    }

    /// Drives a suspended task to completion: delivers its outgoing sends
    /// (re-parking on whichever channel is full), then hands its inbox
    /// leftovers back to the slot's own channel — releasing the task's
    /// `scheduled` claim first, so the drain tasks that must free that
    /// channel can spawn — and finally retires the claim if still held.
    fn advance(&self, mut sus: Box<Suspended>, local: Option<&TaskQueue>) {
        loop {
            while let Some((target, env)) = sus.outgoing.pop_front() {
                let t = target as usize;
                match self.channels[t].try_send(env) {
                    Ok(()) => self.nudge(t, local),
                    Err(env) => {
                        sus.outgoing.push_front((target, env));
                        match self.park_on(t, sus) {
                            None => return,
                            Some(retry) => sus = retry,
                        }
                    }
                }
            }
            if sus.inbox.is_empty() {
                if sus.holds_claim {
                    self.retire(sus.slot, local);
                }
                return;
            }
            // Inbox leftovers go back to the slot's own channel. Release
            // the claim before queuing behind it: with `weight == 1` a
            // claim-holding waiter would be the only task allowed to drain
            // the very channel it waits on.
            if sus.holds_claim {
                sus.holds_claim = false;
                self.retire(sus.slot, local);
            }
            let slot = sus.slot as u32;
            sus.outgoing = sus.inbox.drain(..).map(|env| (slot, env)).collect();
        }
    }

    /// Decrements `slot`'s scheduled count and re-nudges if a producer
    /// raced the retirement (the lost-wakeup guard).
    fn retire(&self, slot: usize, local: Option<&TaskQueue>) {
        self.slots[slot].scheduled.fetch_sub(1, Ordering::AcqRel);
        if !self.channels[slot].is_empty() {
            self.nudge(slot, local);
        }
    }

    fn wake_one(&self) {
        let idle = &self.idle;
        if idle.waiting.load(Ordering::Acquire) > 0 {
            let _guard = idle.lock.lock().unwrap_or_else(PoisonError::into_inner);
            idle.cv.notify_one();
            return;
        }
        // No worker is parked: every live one is busy, so runnable tasks
        // outnumber them — grow the pool (up to the cap).
        if self.live.load(Ordering::Acquire) < self.max_workers {
            self.spawn_worker();
        }
    }

    /// Spawns one worker thread, registering its deque for siblings to
    /// steal from; no-op at the cap or during shutdown.
    fn spawn_worker(&self) {
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Some(shared) = self.me.upgrade() else {
            return;
        };
        loop {
            let n = self.live.load(Ordering::Acquire);
            if n >= self.max_workers {
                return;
            }
            if self
                .live
                .compare_exchange(n, n + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        let id = self.next_worker.fetch_add(1, Ordering::Relaxed);
        let local = Arc::new(TaskQueue::default());
        self.stealers.write().push((id, Arc::clone(&local)));
        let handle = std::thread::Builder::new()
            .name(format!("drs-worker-{id}"))
            .spawn(move || worker_loop(shared, local, id))
            .expect("spawn pool worker");
        self.handles.lock().push(handle);
    }

    fn park(&self) {
        let idle = &self.idle;
        idle.waiting.fetch_add(1, Ordering::AcqRel);
        let guard = idle.lock.lock().unwrap_or_else(PoisonError::into_inner);
        if !self.shutdown.load(Ordering::Acquire) && self.injector.lock().is_empty() {
            let _ = idle
                .cv
                .wait_timeout(guard, PARK_TIMEOUT)
                .unwrap_or_else(PoisonError::into_inner);
        }
        idle.waiting.fetch_sub(1, Ordering::AcqRel);
    }

    /// Executes one task. Drain tasks retire if the weight shrank,
    /// otherwise run one batch slice and decide between continuation,
    /// suspension and retirement; resume tasks continue a suspended send.
    fn run_task(&self, task: Task, local: &TaskQueue, scratch: &mut WorkerScratch) {
        let slot = match task {
            Task::Resume(sus) => {
                self.advance(sus, Some(local));
                return;
            }
            Task::Drain(slot) => slot as usize,
        };
        let state = &self.slots[slot];
        // Shrink quiesce: excess tasks retire before touching any envelope.
        loop {
            let w = state.weight.load(Ordering::Acquire);
            let s = state.scheduled.load(Ordering::Acquire);
            if s <= w {
                break;
            }
            if state
                .scheduled
                .compare_exchange(s, s - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                state.trim_idle();
                return;
            }
        }
        let Some(mut bolt) = state.checkout() else {
            // A concurrent shrink drained the instance pool under us:
            // retire, but do not forget pending envelopes.
            self.retire(slot, Some(local));
            return;
        };
        let (pulled, remaining) = self.pull_batch(slot, &mut scratch.inbox, RECV_BATCH);
        if remaining > 0 {
            // Backlog beyond this slice: cascade another executor task (up
            // to the weight) before spending time processing. `remaining`
            // comes from the recv's own lock hold, so the hot path pays no
            // extra channel-lock acquisition for this decision.
            self.nudge(slot, Some(local));
        }
        let end = self.run_slice(slot, bolt.as_mut(), scratch, local);
        state.checkin(bolt);
        match end {
            SliceEnd::Suspended(sus) => {
                // The slice blocked on a full downstream channel, or a
                // shrink interrupted it with leftovers to requeue. The
                // suspended record keeps the `scheduled` claim; `advance`
                // either parks it or completes it (releasing the claim).
                self.advance(sus, Some(local));
            }
            SliceEnd::Ran { interrupted: false }
                if pulled > 0
                    && remaining > 0
                    && state.scheduled.load(Ordering::Acquire)
                        <= state.weight.load(Ordering::Acquire) =>
            {
                // Continue through the injector for cross-operator fairness
                // (see the module docs); `scheduled` stays claimed.
                // `remaining` is a pre-slice snapshot: if the backlog was
                // drained by siblings meanwhile, the continuation task
                // simply finds an empty channel and retires.
                self.injector.lock().push_back(Task::Drain(slot as u32));
            }
            SliceEnd::Ran { .. } => {
                self.retire(slot, Some(local));
            }
        }
    }

    /// Runs the envelopes pulled into the inbox; re-checks shutdown and the
    /// slot weight between envelopes, so a rebalance shrink is observed
    /// within one service time rather than one slice. On a full downstream
    /// channel the slice suspends (leftovers travel with the suspended
    /// record); on a shrink interrupt unprocessed leftovers suspend the
    /// same way with no pending sends — `advance` releases the task's
    /// claim first and requeues them to the slot's own hard-bounded
    /// channel (parking claim-free in its wait list when full), so the
    /// quiesce pause stays one service time even when the channel is
    /// saturated.
    fn run_slice(
        &self,
        slot: usize,
        bolt: &mut dyn Bolt,
        scratch: &mut WorkerScratch,
        local: &TaskQueue,
    ) -> SliceEnd {
        let state = &self.slots[slot];
        let mut drained = scratch.inbox.drain(..);
        let mut interrupted = false;
        while let Some(env) = drained.next() {
            if let Some(outgoing) = self.execute_one(
                slot,
                env,
                bolt,
                &mut scratch.collector,
                &mut scratch.arc_buf,
                local,
            ) {
                return SliceEnd::Suspended(Box::new(Suspended {
                    slot,
                    holds_claim: true,
                    outgoing,
                    inbox: drained.collect(),
                }));
            }
            if self.shutdown.load(Ordering::Acquire) {
                // Teardown: reconcile every unprocessed leftover so the
                // tuple-tree ledger still balances.
                for env in drained.by_ref() {
                    self.path
                        .acks
                        .cancel(&env.ack, 1, &self.path.metrics, &self.path.open_trees);
                }
                return SliceEnd::Ran { interrupted: true };
            }
            if state.scheduled.load(Ordering::Acquire) > state.weight.load(Ordering::Acquire) {
                interrupted = true;
                break;
            }
        }
        if interrupted {
            // Shrink quiesce: the excess claim must release now, not after
            // a slice of in-place processing. A claim-free requeue through
            // `advance` does it — leftovers flow back into the slot's own
            // channel as it drains.
            let inbox: Vec<Envelope> = drained.collect();
            if !inbox.is_empty() {
                return SliceEnd::Suspended(Box::new(Suspended {
                    slot,
                    holds_claim: true,
                    outgoing: VecDeque::new(),
                    inbox,
                }));
            }
        }
        SliceEnd::Ran { interrupted }
    }

    /// Processes one envelope: run the bolt, fan the emissions out (one
    /// `Arc` per emitted tuple; one batched hard-bounded send per
    /// downstream channel), nudge the consumers, settle the ack, recycle the
    /// input tuple's storage if this was its last holder (and a bolt
    /// emitted it), then trade a batch with the depot if the stash is full
    /// or running dry. Returns the undelivered sends when a downstream
    /// channel was full — the caller suspends with them. Ack accounting:
    /// the *full* fan-out is added to the tree before any send, and every
    /// undelivered envelope travels with the suspended task, so nothing is
    /// cancelled here.
    fn execute_one(
        &self,
        op: usize,
        env: Envelope,
        bolt: &mut dyn Bolt,
        collector: &mut VecCollector,
        arc_buf: &mut Vec<Arc<Tuple>>,
        local: &TaskQueue,
    ) -> Option<VecDeque<(u32, Envelope)>> {
        let path = &self.path;
        let started = Instant::now();
        bolt.execute(&env.tuple, collector);
        let busy = started.elapsed();
        path.metrics.record_completion(op, busy.as_nanos() as u64);
        let targets = path.csr.targets_of(op);
        let mut blocked: Option<VecDeque<(u32, Envelope)>> = None;
        if !collector.is_empty() && !targets.is_empty() {
            collector.share_into(arc_buf);
            path.acks
                .add(&env.ack, (arc_buf.len() * targets.len()) as u64);
            for &t in targets {
                let t = t as usize;
                path.metrics.record_arrivals(t, arc_buf.len() as u64);
                self.send_or_hold(t, arc_buf, &env.ack, local, &mut blocked);
            }
            arc_buf.clear();
        } else {
            collector.discard();
        }
        path.acks.done(env.ack, &path.metrics, &path.open_trees);
        if !self.spout_fed[op] {
            collector.recycle(env.tuple);
        }
        collector.spill_half(&self.depot);
        collector.refill(&self.depot);
        blocked
    }

    /// Sends `tuples` to `target`'s channel as one lazy batch and nudges
    /// the consumer if any went through; what the full channel left behind
    /// is appended, in order, to `blocked` for the task to suspend with.
    fn send_or_hold(
        &self,
        target: usize,
        tuples: &[Arc<Tuple>],
        ack: &AckRef,
        local: &TaskQueue,
        blocked: &mut Option<VecDeque<(u32, Envelope)>>,
    ) {
        let mut batch = tuples
            .iter()
            .map(|tuple| Envelope {
                tuple: Arc::clone(tuple),
                ack: ack.clone(),
            })
            .peekable();
        if self.channels[target].try_send_batch(&mut batch) > 0 {
            self.nudge(target, Some(local));
        }
        if batch.peek().is_some() {
            blocked
                .get_or_insert_with(VecDeque::new)
                .extend(batch.map(|env| (target as u32, env)));
        }
    }

    /// Reconciles the envelopes of a task that will never run (teardown).
    fn cancel_task(&self, task: Task) {
        let Task::Resume(sus) = task else { return };
        self.cancel_suspended(*sus);
    }

    fn cancel_suspended(&self, sus: Suspended) {
        if sus.holds_claim {
            self.slots[sus.slot]
                .scheduled
                .fetch_sub(1, Ordering::AcqRel);
        }
        for (_t, env) in sus.outgoing {
            self.path
                .acks
                .cancel(&env.ack, 1, &self.path.metrics, &self.path.open_trees);
        }
        for env in sus.inbox {
            self.path
                .acks
                .cancel(&env.ack, 1, &self.path.metrics, &self.path.open_trees);
        }
    }
}

/// The result of one batch slice.
enum SliceEnd {
    Ran { interrupted: bool },
    Suspended(Box<Suspended>),
}

/// The next task for worker `id`: the newest on its own deque, else the
/// oldest on the injector, else the oldest on the first sibling
/// deque in `peers` that has one. Each pop is its own statement: a worker
/// never holds its own deque's lock while taking a sibling's.
fn next_task(
    local: &TaskQueue,
    injector: &TaskQueue,
    peers: &StealerRegistry,
    id: u64,
) -> Option<Task> {
    let popped = local.lock().pop_back();
    popped.or_else(|| injector.lock().pop_front()).or_else(|| {
        let peers = peers.read();
        peers
            .iter()
            .filter(|(pid, _)| *pid != id)
            .find_map(|(_, queue)| queue.lock().pop_front())
    })
}

fn worker_loop(shared: Arc<PoolShared>, local: Arc<TaskQueue>, id: u64) {
    let mut scratch = WorkerScratch::default();
    let mut strikes = 0u32;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            // Reconcile queued resume tasks so the tuple-tree ledger
            // balances (no worker runs this deque again).
            let queued = std::mem::take(&mut *local.lock());
            for task in queued {
                shared.cancel_task(task);
            }
            break;
        }
        match next_task(&local, &shared.injector, &shared.stealers, id) {
            Some(task) => {
                strikes = 0;
                shared.run_task(task, &local, &mut scratch);
            }
            None => {
                shared.park();
                strikes += 1;
                if strikes < IDLE_STRIKES {
                    continue;
                }
                // Persistently idle: retire down to the minimum.
                let mut retired = false;
                loop {
                    let n = shared.live.load(Ordering::Acquire);
                    if n <= shared.min_workers {
                        break;
                    }
                    if shared
                        .live
                        .compare_exchange(n, n - 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        retired = true;
                        break;
                    }
                }
                if !retired {
                    strikes = 0;
                    continue;
                }
                shared.stealers.write().retain(|(pid, _)| *pid != id);
                if shared.injector.lock().is_empty() {
                    return; // our deque is empty (we only exit starved)
                }
                // A task raced our retirement: hand the slot back and keep
                // working.
                shared.live.fetch_add(1, Ordering::AcqRel);
                shared.stealers.write().push((id, Arc::clone(&local)));
                strikes = 0;
            }
        }
    }
}

/// The running pool: shared state plus the worker thread handles.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// Builds the shared state (one channel per operator, each holding at
    /// most `path.channel_capacity` envelopes) and launches `min_workers`
    /// worker threads; nudges grow the pool up to `max_workers` on demand
    /// (`min == max` pins a fixed pool).
    pub(crate) fn start(
        slots: Vec<OpSlot>,
        path: DataPath,
        min_workers: usize,
        max_workers: usize,
    ) -> Self {
        assert!(min_workers > 0, "a pool needs at least one worker");
        assert!(max_workers >= min_workers, "worker band must be ordered");
        let n_slots = slots.len();
        let mut spout_fed = vec![false; n_slots];
        for (source, slot) in slots.iter().enumerate() {
            if !slot.is_executable() {
                for &t in path.csr.targets_of(source) {
                    spout_fed[t as usize] = true;
                }
            }
        }
        let shared = Arc::new_cyclic(|me| PoolShared {
            slots,
            channels: (0..n_slots)
                .map(|_| Channel::bounded(path.channel_capacity))
                .collect(),
            path,
            spout_fed,
            depot: Depot::default(),
            waiters: (0..n_slots)
                .map(|_| WaitList {
                    list: PlMutex::new(VecDeque::new()),
                    count: AtomicUsize::new(0),
                })
                .collect(),
            injector: TaskQueue::default(),
            stealers: RwLock::new(Vec::new()),
            live: AtomicUsize::new(0),
            min_workers,
            max_workers,
            next_worker: AtomicU64::new(0),
            handles: PlMutex::new(Vec::new()),
            me: me.clone(),
            idle: IdleGroup {
                lock: Mutex::new(()),
                cv: Condvar::new(),
                waiting: AtomicUsize::new(0),
            },
            shutdown: AtomicBool::new(false),
        });
        for _ in 0..min_workers {
            shared.spawn_worker();
        }
        WorkerPool { shared }
    }

    /// The shared pool state (for nudging and weight control).
    pub(crate) fn shared(&self) -> &Arc<PoolShared> {
        &self.shared
    }

    /// Current number of live worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// Stops and joins every worker, then reconciles every envelope still
    /// held in a wait list, an injector or an input channel, so the
    /// tuple-tree ledger balances exactly even on a shutdown mid-batch.
    /// Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        loop {
            {
                let idle = &self.shared.idle;
                let _guard = idle.lock.lock().unwrap_or_else(PoisonError::into_inner);
                idle.cv.notify_all();
            }
            let handles: Vec<_> = self.shared.handles.lock().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
        for wait in &self.shared.waiters {
            let drained: Vec<_> = { wait.list.lock().drain(..).collect() };
            for sus in drained {
                wait.count.fetch_sub(1, Ordering::AcqRel);
                self.shared.cancel_suspended(*sus);
            }
        }
        let queued = std::mem::take(&mut *self.shared.injector.lock());
        for task in queued {
            self.shared.cancel_task(task);
        }
        let mut buf = Vec::new();
        for channel in &self.shared.channels {
            while channel.try_recv_batch(&mut buf, RECV_BATCH).0 > 0 {
                for env in buf.drain(..) {
                    self.shared.path.acks.cancel(
                        &env.ack,
                        1,
                        &self.shared.path.metrics,
                        &self.shared.path.open_trees,
                    );
                }
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Collector, STASH_MAX};

    /// A collector whose stash holds `n` buffers and `n` shells, each from a
    /// finished tuple that still carried three fields, one heap-owning.
    fn stashed(n: usize) -> VecCollector {
        let mut out = VecCollector::new();
        for i in 0..n as i64 {
            let stale = vec![Value::Int(i), Value::from("stale"), Value::Float(0.5)];
            out.recycle(Arc::new(Tuple::new(stale)));
        }
        assert_eq!(out.stash_len(), (n, n));
        out
    }

    fn batches(depot: &Depot) -> (usize, usize) {
        (
            depot.fields.count.load(Ordering::Relaxed),
            depot.shells.count.load(Ordering::Relaxed),
        )
    }

    fn queue_of(slots: impl IntoIterator<Item = u32>) -> Arc<TaskQueue> {
        Arc::new(PlMutex::new(slots.into_iter().map(Task::Drain).collect()))
    }

    fn drain_slot(task: Option<Task>) -> Option<u32> {
        match task? {
            Task::Drain(slot) => Some(slot),
            Task::Resume(_) => panic!("only drain tasks were queued"),
        }
    }

    #[test]
    fn own_newest_first_then_oldest_injected_then_oldest_stolen() {
        let own = queue_of([1, 2, 3]);
        let injector = queue_of([10, 11]);
        let sibling = queue_of([20, 21]);
        let peers: StealerRegistry =
            RwLock::new(vec![(0, Arc::clone(&own)), (1, Arc::clone(&sibling))]);
        let order: Vec<u32> =
            std::iter::from_fn(|| drain_slot(next_task(&own, &injector, &peers, 0))).collect();
        assert_eq!(order, [3, 2, 1, 10, 11, 20, 21]);

        // Owner and thief meet in the middle of one deque: the owner takes
        // the newest, the thief the oldest, and neither sees a task twice.
        own.lock().extend([1, 2, 3].map(Task::Drain));
        let queues = [&own, &sibling];
        let take = |id: usize| drain_slot(next_task(queues[id], &injector, &peers, id as u64));
        assert_eq!(take(1), Some(1));
        assert_eq!(take(0), Some(3));
        assert_eq!(take(1), Some(2));
        assert_eq!((take(0), take(1)), (None, None));
    }

    #[test]
    fn concurrent_thieves_and_owner_take_every_task_once() {
        const TASKS: u32 = 1_000;
        let own = queue_of(0..TASKS);
        let injector = queue_of([]);
        let peers: StealerRegistry = RwLock::new(vec![(0, Arc::clone(&own))]);
        let mut taken: Vec<u32> = std::thread::scope(|s| {
            let thieves: Vec<_> = (1..=4)
                .map(|id| {
                    let (injector, peers) = (&injector, &peers);
                    s.spawn(move || {
                        let empty = TaskQueue::default();
                        std::iter::from_fn(|| drain_slot(next_task(&empty, injector, peers, id)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<u32> =
                std::iter::from_fn(|| drain_slot(next_task(&own, &injector, &peers, 0))).collect();
            for thief in thieves {
                all.extend(thief.join().unwrap());
            }
            all
        });
        taken.sort_unstable();
        assert_eq!(taken, (0..TASKS).collect::<Vec<_>>());
    }

    #[test]
    fn a_full_stash_spills_exactly_half() {
        let depot = Depot::default();
        let mut below = stashed(STASH_MAX - 1);
        below.spill_half(&depot);
        assert_eq!(below.stash_len(), (STASH_MAX - 1, STASH_MAX - 1));
        assert_eq!(batches(&depot), (0, 0), "only a full stash spills");

        let mut full = stashed(STASH_MAX);
        full.spill_half(&depot);
        assert_eq!(full.stash_len(), (STASH_MAX / 2, STASH_MAX / 2));
        assert_eq!(batches(&depot), (1, 1));
        assert_eq!(depot.fields.take().map(|b| b.len()), Some(STASH_MAX / 2));
        assert_eq!(depot.shells.take().map(|b| b.len()), Some(STASH_MAX / 2));
    }

    #[test]
    fn a_refill_needs_a_stash_below_the_mark_and_a_batch() {
        let depot = Depot::default();
        let mut low = stashed(REFILL_BELOW - 1);
        low.refill(&depot);
        assert_eq!(low.stash_len(), (REFILL_BELOW - 1, REFILL_BELOW - 1));

        stashed(STASH_MAX).spill_half(&depot);
        let mut at_mark = stashed(REFILL_BELOW);
        at_mark.refill(&depot);
        assert_eq!(at_mark.stash_len(), (REFILL_BELOW, REFILL_BELOW));
        assert_eq!(batches(&depot), (1, 1), "a stash at the mark takes nothing");

        low.refill(&depot);
        let refilled = REFILL_BELOW - 1 + STASH_MAX / 2;
        assert_eq!(low.stash_len(), (refilled, refilled));
        assert_eq!(batches(&depot), (0, 0));
    }

    #[test]
    fn a_depot_lane_holds_at_most_depot_batches() {
        let depot = Depot::default();
        for _ in 0..DEPOT_BATCHES + 2 {
            stashed(STASH_MAX).spill_half(&depot);
            let (fields, shells) = batches(&depot);
            assert!(fields <= DEPOT_BATCHES && shells <= DEPOT_BATCHES);
        }
        assert_eq!(batches(&depot), (DEPOT_BATCHES, DEPOT_BATCHES));
        // The overflow batches were dropped, not queued behind the others.
        for _ in 0..DEPOT_BATCHES {
            assert!(depot.fields.take().is_some());
            assert!(depot.shells.take().is_some());
        }
        assert!(depot.fields.take().is_none() && depot.shells.take().is_none());
        assert_eq!(batches(&depot), (0, 0));
    }

    #[test]
    fn every_buffer_handed_out_after_a_refill_is_empty() {
        let depot = Depot::default();
        stashed(STASH_MAX).spill_half(&depot);
        let mut taker = VecCollector::new();
        taker.refill(&depot);
        assert_eq!(taker.stash_len(), (STASH_MAX / 2, STASH_MAX / 2));
        for _ in 0..STASH_MAX / 2 {
            let fields = taker.fields();
            assert!(fields.is_empty());
            assert!(fields.capacity() >= 3, "a traded buffer keeps its capacity");
            taker.emit(Tuple::new(fields));
        }
        assert_eq!(taker.fields().capacity(), 0, "then fresh ones");
        // The traded shells are uniquely held, so the fan-out can refill
        // them (`share_into` would panic on a shared one).
        let mut shared = Vec::new();
        taker.share_into(&mut shared);
        assert_eq!(shared.len(), STASH_MAX / 2);
        assert!(shared.iter().all(|t| t.is_empty()));
        assert_eq!(taker.stash_len(), (0, 0));
    }
}
