//! Logical executors and the shared data path.
//!
//! In the pool architecture a *logical executor* is no longer a thread: it
//! is a unit of scheduling — "one in-flight execution slot of operator
//! `i`" — backed by a pooled [`Bolt`] instance. An operator's allocation
//! `k_i` is the **weight** bounding how many of its executor tasks may be
//! in flight at once ([`OpSlot::weight`]); the worker pool
//! ([`crate::pool`]) decides *where* those tasks run. Each logical
//! executor still owns a dedicated `Bolt` instance (checked out for the
//! duration of one batch slice), so user bolts keep executor-local state
//! without synchronisation, exactly as under the thread-per-executor
//! engine.
//!
//! This module also owns the allocation-free data path shared by spout
//! threads and pool workers: `Arc<Tuple>` envelopes, the recycled ack-slot
//! slab measuring complete sojourn times, and the compiled CSR out-edge
//! layout.

use crate::metrics::MetricsRegistry;
use crate::operator::Bolt;
use crate::tuple::Tuple;
use drs_topology::CsrOutEdges;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Ack slots per slab segment.
pub(crate) const ACK_SEGMENT: u32 = 256;

/// One tuple tree's ack state in the slab. `pending` counts every descendant
/// tuple that is in flight or in service; the tree completes — and the slot
/// returns to the free list — exactly when `pending` drops to zero, at which
/// point no envelope references the slot any more, making recycling safe
/// without generation counters (the same argument as the simulator's tree
/// slab).
#[derive(Debug)]
pub(crate) struct AckSlot {
    pending: AtomicU64,
    /// Root emission time, nanoseconds since the engine's epoch.
    root_nanos: AtomicU64,
}

/// A handle to one slab slot: the owning segment plus the slot index. Two
/// machine words per envelope; cloning bumps one reference count.
#[derive(Debug, Clone)]
pub(crate) struct AckRef {
    segment: Arc<Vec<AckSlot>>,
    slot: u32,
}

impl AckRef {
    fn slot(&self) -> &AckSlot {
        &self.segment[self.slot as usize]
    }
}

/// The tuple-tree slab: pre-allocated segments of [`AckSlot`]s recycled
/// through a free list. Acquire/release touch one short mutex per *root*
/// tuple; the per-envelope ack path is purely atomic.
#[derive(Debug)]
pub(crate) struct AckTable {
    pub(crate) free: Mutex<Vec<AckRef>>,
    epoch: Instant,
}

impl AckTable {
    pub(crate) fn new() -> Self {
        AckTable {
            free: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Claims a slot for a new root tuple with `pending` initial children.
    pub(crate) fn acquire(&self, pending: u64) -> AckRef {
        let mut free = self.free.lock();
        let ack = free.pop().unwrap_or_else(|| {
            let segment: Arc<Vec<AckSlot>> = Arc::new(
                (0..ACK_SEGMENT)
                    .map(|_| AckSlot {
                        pending: AtomicU64::new(0),
                        root_nanos: AtomicU64::new(0),
                    })
                    .collect(),
            );
            free.extend((1..ACK_SEGMENT).map(|slot| AckRef {
                segment: Arc::clone(&segment),
                slot,
            }));
            AckRef { segment, slot: 0 }
        });
        drop(free);
        let slot = ack.slot();
        slot.root_nanos.store(self.now_nanos(), Ordering::Relaxed);
        slot.pending.store(pending, Ordering::Release);
        ack
    }

    /// Adds `n` pending descendants (before their envelopes are sent).
    pub(crate) fn add(&self, ack: &AckRef, n: u64) {
        ack.slot().pending.fetch_add(n, Ordering::AcqRel);
    }

    /// Subtracts `n` from the pending count; when it reaches zero, records
    /// the complete sojourn time and recycles the slot.
    pub(crate) fn settle(
        &self,
        ack: &AckRef,
        n: u64,
        metrics: &MetricsRegistry,
        open_trees: &AtomicU64,
    ) {
        if ack.slot().pending.fetch_sub(n, Ordering::AcqRel) == n {
            let root = ack.slot().root_nanos.load(Ordering::Relaxed);
            let sojourn = self.now_nanos().saturating_sub(root) as f64 / 1e9;
            metrics.record_sojourn(sojourn);
            open_trees.fetch_sub(1, Ordering::AcqRel);
            self.free.lock().push(ack.clone());
        }
    }

    /// Marks one descendant done.
    pub(crate) fn done(&self, ack: AckRef, metrics: &MetricsRegistry, open_trees: &AtomicU64) {
        self.settle(&ack, 1, metrics, open_trees);
    }

    /// Reconciles `n` envelopes that were counted into `pending` but will
    /// never be executed: a spout send given up on the stop flag, or
    /// envelopes still queued, parked or unprocessed when the pool shuts
    /// down. Without this the tree would leak and `open_trees` would never
    /// drain.
    pub(crate) fn cancel(
        &self,
        ack: &AckRef,
        n: u64,
        metrics: &MetricsRegistry,
        open_trees: &AtomicU64,
    ) {
        if n > 0 {
            self.settle(ack, n, metrics, open_trees);
        }
    }
}

/// One message on an operator channel: a shared payload plus the ack handle
/// of the tuple tree it belongs to.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub(crate) tuple: Arc<Tuple>,
    pub(crate) ack: AckRef,
}

/// Creates fresh boxed [`Bolt`] instances for an operator's logical
/// executors.
pub(crate) type BoltMaker = Arc<dyn Fn() -> Box<dyn Bolt> + Send + Sync>;

/// Everything a spout thread or pool worker needs to route and ack tuples;
/// the channels themselves live in `crate::pool::PoolShared`.
#[derive(Clone)]
pub(crate) struct DataPath {
    pub(crate) csr: Arc<CsrOutEdges>,
    pub(crate) acks: Arc<AckTable>,
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) open_trees: Arc<AtomicU64>,
    /// Capacity of every operator channel; spout emission chunks its
    /// batched sends to this (see `emit_roots` in the engine module for
    /// the liveness argument).
    pub(crate) channel_capacity: usize,
}

/// The pooled bolt instances of one operator, guarded by one short mutex.
/// `live` counts idle *plus* checked-out instances; a checked-in instance
/// is dropped instead of returned whenever `live` exceeds the current
/// weight, which is how a shrink retires executor state lazily.
#[derive(Default)]
struct Instances {
    idle: Vec<Box<dyn Bolt>>,
    live: u32,
}

/// Control-plane state of one operator's logical executors.
///
/// `weight` is the operator's `k_i` — the rebalance-time contract is that
/// changing it is a single atomic store, observed by every in-flight task
/// at its next envelope boundary. `scheduled` counts executor tasks
/// currently spawned (queued or running); the pool's spawn path never
/// raises it above `weight`, and tasks observing `scheduled > weight`
/// retire themselves, which is the entire shrink quiesce protocol.
pub(crate) struct OpSlot {
    pub(crate) weight: AtomicU32,
    pub(crate) scheduled: AtomicU32,
    instances: Mutex<Instances>,
    maker: Option<BoltMaker>,
}

impl std::fmt::Debug for OpSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpSlot")
            .field("weight", &self.weight.load(Ordering::Relaxed))
            .field("scheduled", &self.scheduled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl OpSlot {
    /// Creates the slot with `weight` pre-built bolt instances (zero and no
    /// maker for spout operators, which the pool never schedules).
    pub(crate) fn new(maker: Option<BoltMaker>, weight: u32) -> Self {
        let slot = OpSlot {
            weight: AtomicU32::new(0),
            scheduled: AtomicU32::new(0),
            instances: Mutex::new(Instances::default()),
            maker,
        };
        if slot.maker.is_some() {
            slot.grow_to(weight);
        }
        slot
    }

    /// Whether this operator runs on the pool (bolts only).
    pub(crate) fn is_executable(&self) -> bool {
        self.maker.is_some()
    }

    /// Checks a bolt instance out for one batch slice.
    pub(crate) fn checkout(&self) -> Option<Box<dyn Bolt>> {
        self.instances.lock().idle.pop()
    }

    /// Returns a bolt instance after a slice; drops it instead when a
    /// shrink left more live instances than the weight allows.
    pub(crate) fn checkin(&self, bolt: Box<dyn Bolt>) {
        let mut inst = self.instances.lock();
        if inst.live > self.weight.load(Ordering::Acquire) {
            inst.live -= 1; // bolt dropped: the executor retires with its task
        } else {
            inst.idle.push(bolt);
        }
    }

    /// Drops idle instances until `live` matches the weight (a shrink's
    /// eager half; checked-out instances are trimmed on check-in).
    pub(crate) fn trim_idle(&self) {
        let mut inst = self.instances.lock();
        let target = self.weight.load(Ordering::Acquire);
        while inst.live > target && !inst.idle.is_empty() {
            inst.idle.pop();
            inst.live -= 1;
        }
    }

    /// Raises the weight to `k`, building the missing bolt instances first
    /// so a newly spawned task always finds one. The weight is published
    /// *before* the instances lock is released: [`OpSlot::checkin`]
    /// compares `live` against `weight` under this lock, so a stale weight
    /// in that window would let a concurrent check-in observe
    /// `live > weight` and silently drop the instances just built — and
    /// nothing would ever rebuild them.
    pub(crate) fn grow_to(&self, k: u32) {
        let maker = self.maker.as_ref().expect("grow_to on a bolt operator");
        let mut inst = self.instances.lock();
        while inst.live < k {
            inst.idle.push(maker());
            inst.live += 1;
        }
        self.weight.store(k, Ordering::Release);
    }

    /// Lowers the weight to `k` (one atomic store under the instances
    /// lock — the rebalance fast path) and trims idle instances; in-flight
    /// tasks observe the new weight at their next envelope boundary and
    /// retire.
    pub(crate) fn shrink_to(&self, k: u32) {
        let mut inst = self.instances.lock();
        self.weight.store(k, Ordering::Release);
        while inst.live > k && !inst.idle.is_empty() {
            inst.idle.pop();
            inst.live -= 1;
        }
    }
}
