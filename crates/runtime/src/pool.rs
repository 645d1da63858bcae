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
//! Continuations go through the machine's injector rather than the local
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
//! re-injects it as a [`Task::Resume`] on the suspended slot's machine.
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
//! The worker count per machine floats between a configured minimum and
//! maximum. A nudge that finds no parked worker spawns one (runnable tasks
//! outnumber the live workers) until the cap; a worker that pulls nothing
//! for [`IDLE_STRIKES`] consecutive park quanta deregisters its deque and
//! exits (down to the minimum). `RuntimeBuilder::workers(n)` pins
//! `min == max == n`, restoring a fixed-size pool.
//!
//! # Machine partitioning
//!
//! The pool can be split into `machines` scheduling domains modelling a
//! cluster of hosts (see `crate::engine::RuntimeBuilder::machines`). Every
//! operator then owns one executor slot *per machine* (`slot = op ×
//! machines + m`) with its own input channel and weight — the per-machine
//! executor count of the installed placement. Workers are pinned to one
//! machine: they steal only from their machine's injector and siblings, so
//! an executor never migrates across the simulated machine boundary.
//! Producers route each tuple through the target operator's [`Route`]
//! table (round-robin over the placed executors, the runtime twin of
//! shuffle grouping), then send one *batched* channel push per
//! `(operator, machine)` group; a tuple landing on a different machine
//! than its producer is counted at the boundary
//! ([`PoolShared::cross_tuples`]). With `machines == 1` every slot index
//! degenerates to the operator id and the batched single-channel fast path
//! is used unchanged.
//!
//! Losslessness across placement changes: a slot whose executors all moved
//! away (weight 0) may still hold envelopes enqueued before the route
//! tables were swapped. Nudging such a slot forwards its backlog to the
//! operator's currently placed machines instead of spawning a task, and
//! the engine sweeps shrunk-to-zero slots right after every weight change,
//! so no tuple is stranded behind a stale route.
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
    /// Drain the `(operator, machine)` slot's input channel
    /// (`slot = op * machines + m`).
    Drain(u32),
    /// Finish a suspended task's pending sends (and requeue its inbox).
    Resume(Box<Suspended>),
}

/// The parked state of a task that hit a full downstream channel: the
/// undelivered sends plus the unprocessed remainder of its input slice.
/// Lives in the blocked channel's wait list until the consumer's drain
/// re-injects it as [`Task::Resume`].
pub(crate) struct Suspended {
    /// The slot the task was draining (also the machine it resumes on).
    slot: usize,
    /// Whether this record still holds one `scheduled` claim on `slot`.
    holds_claim: bool,
    /// Undelivered `(target slot, envelope)` sends, in order. Their ack
    /// pending counts are already added.
    outgoing: VecDeque<(u32, Envelope)>,
    /// Input envelopes pulled but not yet executed.
    inbox: Vec<Envelope>,
}

/// A worker's local deque or a machine's injector (see the module docs).
type TaskQueue = PlMutex<VecDeque<Task>>;

/// One machine's registry of live workers' local deques, keyed by worker
/// id, for siblings to steal from.
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

/// Consecutive empty park quanta after which a worker above the per-machine
/// minimum retires (~40 ms of observed idleness).
const IDLE_STRIKES: u32 = 8;

/// Per-worker scratch buffers, reused across slices so the steady state
/// allocates nothing: the emission collector (with its stash of recycled
/// tuple storage, see the module docs), the `Arc`'d outbox, the batched
/// inbox and the per-machine routing buckets all keep their capacity.
struct WorkerScratch {
    collector: VecCollector,
    arc_buf: Vec<Arc<Tuple>>,
    inbox: Vec<Envelope>,
    /// Routed-path grouping: indices into `arc_buf` per target machine.
    route_buckets: Vec<Vec<u32>>,
}

impl WorkerScratch {
    fn new(machines: usize) -> Self {
        WorkerScratch {
            collector: VecCollector::new(),
            arc_buf: Vec::new(),
            inbox: Vec::new(),
            route_buckets: (0..machines).map(|_| Vec::new()).collect(),
        }
    }
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

/// Per-operator routing table over the machine partition: one entry per
/// placed executor (the machine id, repeated `counts[m]` times), walked by
/// an atomic cursor so successive tuples spread over machines in proportion
/// to the placement — shuffle grouping projected onto a machine assignment.
pub(crate) struct Route {
    expanded: RwLock<Vec<u32>>,
    cursor: AtomicUsize,
}

impl Route {
    pub(crate) fn new(counts: &[u32]) -> Self {
        let route = Route {
            expanded: RwLock::new(Vec::new()),
            cursor: AtomicUsize::new(0),
        };
        route.set(counts);
        route
    }

    /// Installs a new machine distribution (executor counts per machine).
    /// An all-zero row (spouts, unplaced operators) routes to machine 0.
    pub(crate) fn set(&self, counts: &[u32]) {
        let mut expanded = Vec::new();
        for (m, &c) in counts.iter().enumerate() {
            expanded.extend(std::iter::repeat_n(m as u32, c as usize));
        }
        if expanded.is_empty() {
            expanded.push(0);
        }
        *self.expanded.write() = expanded;
    }

    /// Picks the machine receiving the next tuple for this operator.
    pub(crate) fn next(&self) -> usize {
        let table = self.expanded.read();
        table[self.cursor.fetch_add(1, Ordering::Relaxed) % table.len()] as usize
    }
}

/// One machine's scheduling domain: idle-worker parking state.
struct IdleGroup {
    lock: Mutex<()>,
    cv: Condvar,
    waiting: AtomicUsize,
}

/// Pool state shared by workers, spout threads and the engine.
pub(crate) struct PoolShared {
    /// Per-(operator, machine) executor state: `slot = op * machines + m`.
    pub(crate) slots: Vec<OpSlot>,
    /// Per-slot input channels, same indexing as `slots`. Every producer
    /// and consumer reaches them through this struct, so they outlive
    /// every send and drain.
    pub(crate) channels: Vec<Channel<Envelope>>,
    pub(crate) path: DataPath,
    /// Number of scheduling domains partitioning the pool.
    pub(crate) machines: usize,
    /// Per-operator machine routing tables (indexed by operator id).
    pub(crate) routes: Vec<Route>,
    /// Tuples routed over edges while partitioned (`machines > 1`), and the
    /// subset that landed on a different machine than their producer.
    pub(crate) routed_tuples: AtomicU64,
    pub(crate) cross_tuples: AtomicU64,
    /// Per operator: whether a spout feeds it, so that its input tuples
    /// were allocated on a spout thread (see "Tuple storage").
    spout_fed: Vec<bool>,
    /// Where workers trade surplus tuple storage (see "Tuple storage").
    depot: Depot,
    /// Per-slot wait lists of suspended senders, same indexing as `slots`.
    waiters: Vec<WaitList>,
    injectors: Vec<TaskQueue>,
    /// Per-machine dynamic stealer registry: `(worker id, stealer)`.
    stealers: Vec<StealerRegistry>,
    /// Per-machine live worker counts.
    live: Vec<AtomicUsize>,
    /// Worker-count band per machine (`min == max` pins a fixed pool).
    min_workers: usize,
    max_workers: usize,
    next_worker: AtomicU64,
    handles: PlMutex<Vec<JoinHandle<()>>>,
    /// Back-reference for spawning workers from `&self` (nudge paths).
    me: Weak<PoolShared>,
    idle: Vec<IdleGroup>,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared")
            .field("machines", &self.machines)
            .field(
                "workers",
                &self
                    .live
                    .iter()
                    .map(|l| l.load(Ordering::Relaxed))
                    .sum::<usize>(),
            )
            .field("slots", &self.slots)
            .finish_non_exhaustive()
    }
}

impl PoolShared {
    fn machine_of(&self, slot: usize) -> usize {
        slot % self.machines
    }

    fn op_of(&self, slot: usize) -> usize {
        slot / self.machines
    }

    /// Spawns one executor task for `slot` if its weight allows another;
    /// no-op otherwise. Safe to call from any thread — pool workers pass
    /// their local deque for a cheap push (only valid when the slot lives
    /// on the caller's machine), spout threads and the control plane pass
    /// `None` (machine injector).
    pub(crate) fn nudge(&self, slot: usize, local: Option<&TaskQueue>) {
        let state = &self.slots[slot];
        if !state.is_executable() {
            return;
        }
        if self.machines > 1 && state.weight.load(Ordering::Acquire) == 0 {
            // An executor-less slot can still hold envelopes (a placement
            // moved its executors away, or a producer raced the route
            // swap): forward them to the operator's placed machines
            // instead of stranding them.
            self.forward_orphans(slot);
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
                let queue = local.unwrap_or(&self.injectors[self.machine_of(slot)]);
                queue.lock().push_back(Task::Drain(slot as u32));
                self.wake_one(self.machine_of(slot));
                return;
            }
        }
    }

    /// Pulls a batch from `slot`'s channel, waking one suspended sender
    /// when space was freed and folding the observed depth into the
    /// per-slot peak. All steady-state channel drains go through here so
    /// no wait-listed task can miss its wakeup.
    fn pull_batch(&self, slot: usize, buf: &mut Vec<Envelope>, max: usize) -> (usize, usize) {
        let (pulled, remaining) = self.channels[slot].try_recv_batch(buf, max);
        if pulled > 0 {
            self.path.metrics.record_queue_depth(
                self.op_of(slot),
                self.machine_of(slot),
                (pulled + remaining) as u64,
            );
            self.wake_waiter(slot);
        }
        (pulled, remaining)
    }

    /// Pops one suspended sender off `slot`'s wait list (if any) and
    /// re-injects it on its own machine. Called after every pull that
    /// freed channel space.
    fn wake_waiter(&self, slot: usize) {
        let wait = &self.waiters[slot];
        if wait.count.load(Ordering::Acquire) == 0 {
            return;
        }
        let sus = { wait.list.lock().pop_front() };
        if let Some(sus) = sus {
            wait.count.fetch_sub(1, Ordering::AcqRel);
            let machine = self.machine_of(sus.slot);
            self.injectors[machine].lock().push_back(Task::Resume(sus));
            self.wake_one(machine);
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
                let (op, m) = (self.op_of(target), self.machine_of(target));
                self.path.metrics.record_suspension(op, m);
                self.path
                    .metrics
                    .record_queue_depth(op, m, self.path.channel_capacity as u64);
                None
            }
        }
    }

    /// Drives a suspended task to completion: delivers its outgoing sends
    /// (re-parking on whichever channel is full), then hands its inbox
    /// leftovers back to the slot's own channel — releasing the task's
    /// `scheduled` claim first, so the drain tasks that must free that
    /// channel can spawn — and finally retires the claim if still held.
    fn advance(&self, mut sus: Box<Suspended>, machine: usize, local: Option<&TaskQueue>) {
        loop {
            while let Some((target, env)) = sus.outgoing.pop_front() {
                let t = target as usize;
                match self.channels[t].try_send(env) {
                    Ok(()) => {
                        let same = self.machine_of(t) == machine;
                        self.nudge(t, local.filter(|_| same));
                    }
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

    /// Drains a weight-0 slot's backlog, re-routing every envelope through
    /// the operator's current route table. Cold path: runs only around
    /// placement changes, so it allocates its own buffer.
    fn forward_orphans(&self, slot: usize) {
        let op = self.op_of(slot);
        let mut buf = Vec::new();
        loop {
            let (pulled, _remaining) = self.pull_batch(slot, &mut buf, RECV_BATCH);
            if pulled == 0 {
                return;
            }
            let mut stale = false;
            let mut blocked: Option<Box<Suspended>> = None;
            for env in buf.drain(..) {
                let target = if stale {
                    slot
                } else {
                    let m = self.routes[op].next();
                    let t = op * self.machines + m;
                    if t == slot {
                        // The route table still points here (it has not
                        // been swapped yet): requeue everything and stop —
                        // the post-swap sweep will retry.
                        stale = true;
                        slot
                    } else {
                        t
                    }
                };
                if let Some(sus) = blocked.as_mut() {
                    // Already blocked once: queue the rest behind the same
                    // suspended record rather than scrambling the order.
                    sus.outgoing.push_back((target as u32, env));
                    continue;
                }
                match self.channels[target].try_send(env) {
                    Ok(()) => {
                        if target != slot {
                            self.nudge(target, None);
                        }
                    }
                    Err(env) => {
                        blocked = Some(Box::new(Suspended {
                            slot,
                            holds_claim: false,
                            outgoing: VecDeque::from([(target as u32, env)]),
                            inbox: Vec::new(),
                        }));
                    }
                }
            }
            if let Some(sus) = blocked {
                self.advance(sus, self.machine_of(slot), None);
                return;
            }
            if stale {
                return;
            }
        }
    }

    fn wake_one(&self, machine: usize) {
        let idle = &self.idle[machine];
        if idle.waiting.load(Ordering::Acquire) > 0 {
            let _guard = idle.lock.lock().unwrap_or_else(PoisonError::into_inner);
            idle.cv.notify_one();
            return;
        }
        // No worker is parked: every live one is busy, so runnable tasks
        // outnumber them — grow the pool (up to the cap).
        if self.live[machine].load(Ordering::Acquire) < self.max_workers {
            self.spawn_worker(machine);
        }
    }

    /// Spawns one worker thread on `machine`, registering its deque for
    /// siblings to steal from; no-op at the cap or during shutdown.
    fn spawn_worker(&self, machine: usize) {
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Some(shared) = self.me.upgrade() else {
            return;
        };
        loop {
            let n = self.live[machine].load(Ordering::Acquire);
            if n >= self.max_workers {
                return;
            }
            if self.live[machine]
                .compare_exchange(n, n + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        let id = self.next_worker.fetch_add(1, Ordering::Relaxed);
        let local = Arc::new(TaskQueue::default());
        self.stealers[machine]
            .write()
            .push((id, Arc::clone(&local)));
        let handle = std::thread::Builder::new()
            .name(format!("drs-worker-{machine}-{id}"))
            .spawn(move || worker_loop(shared, local, machine, id))
            .expect("spawn pool worker");
        self.handles.lock().push(handle);
    }

    fn park(&self, machine: usize) {
        let idle = &self.idle[machine];
        idle.waiting.fetch_add(1, Ordering::AcqRel);
        let guard = idle.lock.lock().unwrap_or_else(PoisonError::into_inner);
        if !self.shutdown.load(Ordering::Acquire) && self.injectors[machine].lock().is_empty() {
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
    fn run_task(&self, task: Task, machine: usize, local: &TaskQueue, scratch: &mut WorkerScratch) {
        let slot = match task {
            Task::Resume(sus) => {
                self.advance(sus, machine, Some(local));
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
                if w == 0 && !self.channels[slot].is_empty() {
                    // The slot lost its last executor mid-backlog: hand the
                    // leftovers to the placed machines.
                    self.nudge(slot, None);
                }
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
        let end = self.run_slice(slot, machine, bolt.as_mut(), scratch, local);
        state.checkin(bolt);
        match end {
            SliceEnd::Suspended(sus) => {
                // The slice blocked on a full downstream channel, or a
                // shrink interrupted it with leftovers to requeue. The
                // suspended record keeps the `scheduled` claim; `advance`
                // either parks it or completes it (releasing the claim).
                self.advance(sus, machine, Some(local));
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
                self.injectors[machine]
                    .lock()
                    .push_back(Task::Drain(slot as u32));
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
        machine: usize,
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
                machine,
                env,
                bolt,
                &mut scratch.collector,
                &mut scratch.arc_buf,
                &mut scratch.route_buckets,
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
    /// downstream channel — per `(operator, machine)` group on a
    /// partitioned pool), nudge the consumers, settle the ack, recycle the
    /// input tuple's storage if this was its last holder (and a bolt
    /// emitted it), then trade a batch with the depot if the stash is full
    /// or running dry. Returns the undelivered sends when a downstream
    /// channel was full — the caller suspends with them. Ack accounting:
    /// the *full* fan-out is added to the tree before any send, and every
    /// undelivered envelope travels with the suspended task, so nothing is
    /// cancelled here.
    #[allow(clippy::too_many_arguments)]
    fn execute_one(
        &self,
        slot: usize,
        machine: usize,
        env: Envelope,
        bolt: &mut dyn Bolt,
        collector: &mut VecCollector,
        arc_buf: &mut Vec<Arc<Tuple>>,
        route_buckets: &mut [Vec<u32>],
        local: &TaskQueue,
    ) -> Option<VecDeque<(u32, Envelope)>> {
        let path = &self.path;
        let op = self.op_of(slot);
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
                if self.machines == 1 {
                    self.send_or_hold(t, arc_buf.iter(), &env.ack, Some(local), &mut blocked);
                    continue;
                }
                // Walk the route per tuple (preserving the round-robin
                // proportions), but send one batched push per target
                // machine instead of one channel lock per tuple.
                for (i, _) in arc_buf.iter().enumerate() {
                    route_buckets[self.routes[t].next()].push(i as u32);
                }
                self.routed_tuples
                    .fetch_add(arc_buf.len() as u64, Ordering::Relaxed);
                for (m, bucket) in route_buckets.iter_mut().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    if m != machine {
                        self.cross_tuples
                            .fetch_add(bucket.len() as u64, Ordering::Relaxed);
                    }
                    // Local deques are machine-pinned: only pass ours when
                    // the tuples stay on this machine.
                    self.send_or_hold(
                        t * self.machines + m,
                        bucket.iter().map(|&i| &arc_buf[i as usize]),
                        &env.ack,
                        (m == machine).then_some(local),
                        &mut blocked,
                    );
                    bucket.clear();
                }
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
    fn send_or_hold<'a>(
        &self,
        target: usize,
        tuples: impl Iterator<Item = &'a Arc<Tuple>>,
        ack: &AckRef,
        local: Option<&TaskQueue>,
        blocked: &mut Option<VecDeque<(u32, Envelope)>>,
    ) {
        let mut batch = tuples
            .map(|tuple| Envelope {
                tuple: Arc::clone(tuple),
                ack: ack.clone(),
            })
            .peekable();
        if self.channels[target].try_send_batch(&mut batch) > 0 {
            self.nudge(target, local);
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
/// oldest on its machine's injector, else the oldest on the first sibling
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

fn worker_loop(shared: Arc<PoolShared>, local: Arc<TaskQueue>, machine: usize, id: u64) {
    let mut scratch = WorkerScratch::new(shared.machines);
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
        // Steal only from this machine's siblings: executors are pinned to
        // their machine's worker group.
        let task = next_task(
            &local,
            &shared.injectors[machine],
            &shared.stealers[machine],
            id,
        );
        match task {
            Some(task) => {
                strikes = 0;
                shared.run_task(task, machine, &local, &mut scratch);
            }
            None => {
                shared.park(machine);
                strikes += 1;
                if strikes < IDLE_STRIKES {
                    continue;
                }
                // Persistently idle: retire down to the per-machine
                // minimum.
                let mut retired = false;
                loop {
                    let n = shared.live[machine].load(Ordering::Acquire);
                    if n <= shared.min_workers {
                        break;
                    }
                    if shared.live[machine]
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
                shared.stealers[machine]
                    .write()
                    .retain(|(pid, _)| *pid != id);
                if shared.injectors[machine].lock().is_empty() {
                    return; // our deque is empty (we only exit starved)
                }
                // A task raced our retirement: hand the slot back and keep
                // working.
                shared.live[machine].fetch_add(1, Ordering::AcqRel);
                shared.stealers[machine]
                    .write()
                    .push((id, Arc::clone(&local)));
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
    /// Builds the shared state (one channel per slot, each holding at most
    /// `path.channel_capacity` envelopes) and launches `min_workers` worker threads
    /// for each of `machines` scheduling domains; nudges grow each domain
    /// up to `max_workers` on demand (`min == max` pins a fixed pool).
    pub(crate) fn start(
        slots: Vec<OpSlot>,
        routes: Vec<Route>,
        path: DataPath,
        machines: usize,
        min_workers: usize,
        max_workers: usize,
    ) -> Self {
        assert!(machines > 0, "a pool needs at least one machine");
        assert!(min_workers > 0, "a pool needs at least one worker");
        assert!(max_workers >= min_workers, "worker band must be ordered");
        let n_slots = slots.len();
        let mut spout_fed = vec![false; n_slots / machines];
        for source in 0..spout_fed.len() {
            if !slots[source * machines].is_executable() {
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
            machines,
            routes,
            routed_tuples: AtomicU64::new(0),
            cross_tuples: AtomicU64::new(0),
            spout_fed,
            depot: Depot::default(),
            waiters: (0..n_slots)
                .map(|_| WaitList {
                    list: PlMutex::new(VecDeque::new()),
                    count: AtomicUsize::new(0),
                })
                .collect(),
            injectors: (0..machines).map(|_| TaskQueue::default()).collect(),
            stealers: (0..machines).map(|_| RwLock::new(Vec::new())).collect(),
            live: (0..machines).map(|_| AtomicUsize::new(0)).collect(),
            min_workers,
            max_workers,
            next_worker: AtomicU64::new(0),
            handles: PlMutex::new(Vec::new()),
            me: me.clone(),
            idle: (0..machines)
                .map(|_| IdleGroup {
                    lock: Mutex::new(()),
                    cv: Condvar::new(),
                    waiting: AtomicUsize::new(0),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
        });
        for machine in 0..machines {
            for _ in 0..min_workers {
                shared.spawn_worker(machine);
            }
        }
        WorkerPool { shared }
    }

    /// The shared pool state (for nudging and weight control).
    pub(crate) fn shared(&self) -> &Arc<PoolShared> {
        &self.shared
    }

    /// Current number of live worker threads across all machines.
    pub(crate) fn workers(&self) -> usize {
        self.shared
            .live
            .iter()
            .map(|l| l.load(Ordering::Acquire))
            .sum()
    }

    /// Stops and joins every worker, then reconciles every envelope still
    /// held in a wait list, an injector or an input channel, so the
    /// tuple-tree ledger balances exactly even on a shutdown mid-batch.
    /// Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        loop {
            for idle in &self.shared.idle {
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
        for injector in &self.shared.injectors {
            let queued = std::mem::take(&mut *injector.lock());
            for task in queued {
                self.shared.cancel_task(task);
            }
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
