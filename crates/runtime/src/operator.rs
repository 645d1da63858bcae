//! User-facing operator traits: spouts produce tuples, bolts process them.
//!
//! These mirror Storm's programming interface (paper App. C) in miniature.
//! The engine wraps every spout and bolt in measurement logic — the
//! `MeasurableSpout`/`MeasurableBolt` instrumentation the paper adds to
//! Storm — so user code stays measurement-free.

use crate::pool::{Depot, REFILL_BELOW};
use crate::tuple::{Tuple, Value};
use std::sync::Arc;
use std::time::Duration;

/// One spout emission: a tuple plus the pause before the *next* emission,
/// which determines the stream's arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct SpoutEmission {
    /// The emitted tuple.
    pub tuple: Tuple,
    /// Time to wait before asking for the next emission.
    pub wait: Duration,
}

/// A data source. The engine runs each spout on its own thread, calling
/// [`Spout::next_batch`] in a loop and sleeping the returned wait between
/// calls; the default implementation delegates to [`Spout::next`] one
/// tuple at a time, so existing spouts keep working unchanged.
pub trait Spout: Send {
    /// Produces the next tuple, or `None` when the stream is exhausted
    /// (the spout thread then exits).
    fn next(&mut self) -> Option<SpoutEmission>;

    /// Batch-aware emission: appends up to `max` tuples to `out` and
    /// returns the pause before the *next* call, or `None` when the stream
    /// is exhausted (any tuples appended on the final call are still
    /// emitted). The engine turns each appended tuple into its own root
    /// tuple tree but ships the whole batch through one batched channel
    /// send per downstream edge — high-rate spouts should override this to
    /// amortise the per-root channel cost.
    ///
    /// The default emits a single [`Spout::next`] tuple per call.
    fn next_batch(&mut self, max: usize, out: &mut Vec<Tuple>) -> Option<Duration> {
        let _ = max;
        let emission = self.next()?;
        out.push(emission.tuple);
        Some(emission.wait)
    }
}

/// Sink for tuples emitted by a bolt during [`Bolt::execute`].
///
/// Every emitted tuple is delivered to *each* downstream operator of the
/// emitting operator (one copy per outgoing edge), preserving the tuple-tree
/// accounting used for complete-sojourn-time measurement.
pub trait Collector {
    /// Emits one tuple downstream.
    fn emit(&mut self, tuple: Tuple);

    /// An empty field buffer to build the next emitted tuple in
    /// (`Tuple::new(fields)`). A pool worker's collector hands back the
    /// storage of a tuple the pool has finished with — freed by this worker
    /// or traded in from another through the pool's depot — so a bolt that
    /// builds here allocates nothing in steady state; the buffer is always
    /// empty, and any other collector returns a fresh `Vec`.
    fn fields(&mut self) -> Vec<Value> {
        Vec::new()
    }
}

/// A processing operator. The engine creates one `Bolt` instance per
/// executor via [`BoltFactory`], so implementations may keep executor-local
/// state without synchronisation.
pub trait Bolt: Send {
    /// Processes one input tuple, emitting any derived tuples through
    /// `collector`.
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector);
}

/// Creates fresh [`Bolt`] instances — one per executor, re-invoked after
/// re-balancing.
pub type BoltFactory = Box<dyn Fn() -> Box<dyn Bolt> + Send + Sync>;

/// A buffering [`Collector`] that records emissions in order; used by the
/// engine and handy in unit tests of bolt logic.
///
/// # Examples
///
/// ```
/// use drs_runtime::operator::{Bolt, Collector, VecCollector};
/// use drs_runtime::tuple::Tuple;
///
/// struct Doubler;
/// impl Bolt for Doubler {
///     fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
///         collector.emit(tuple.clone());
///         collector.emit(tuple.clone());
///     }
/// }
///
/// let mut out = VecCollector::new();
/// Doubler.execute(&Tuple::of(1i64), &mut out);
/// assert_eq!(out.tuples().len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct VecCollector {
    tuples: Vec<Tuple>,
    /// Cleared field buffers of tuples this collector's worker finished
    /// with (or took from the pool's depot), handed out again by
    /// [`Collector::fields`]; at most [`STASH_MAX`], each of capacity at
    /// most [`STASH_FIELDS_MAX`].
    spare_fields: Vec<Vec<Value>>,
    /// Uniquely owned `Arc` allocations of those tuples (holding an empty
    /// tuple), refilled by [`VecCollector::share_into`]; at most
    /// [`STASH_MAX`].
    spare_shells: Vec<Arc<Tuple>>,
}

/// Most field buffers, and most `Arc` shells, one collector keeps. A worker
/// gives buffers out while it runs an operator that emits more tuples than
/// it consumes and takes them in while it runs one that consumes more, a
/// hundred or so per input slice either way; a stash several slices deep
/// rides those swings out without touching the allocator, at a few hundred
/// kilobytes per worker. A persistent imbalance between workers is traded
/// through the pool's depot in batches of half this.
pub(crate) const STASH_MAX: usize = 1024;

/// Largest field-buffer capacity (in values) worth keeping; a wider buffer
/// goes back to the allocator rather than pinning its memory in a stash.
pub(crate) const STASH_FIELDS_MAX: usize = 64;

impl VecCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        VecCollector::default()
    }

    /// The tuples emitted so far, in order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples emitted so far.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Consumes the collector, returning the buffered tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Drains the buffered tuples in emission order, keeping the buffer's
    /// capacity for reuse — the engine calls this once per `execute` so the
    /// steady state allocates no fresh collector storage.
    pub fn drain_tuples(&mut self) -> std::vec::Drain<'_, Tuple> {
        self.tuples.drain(..)
    }

    /// Moves the buffered tuples into `out` as shared handles, filling
    /// stashed `Arc` shells before allocating new ones.
    pub(crate) fn share_into(&mut self, out: &mut Vec<Arc<Tuple>>) {
        let shells = &mut self.spare_shells;
        out.extend(self.tuples.drain(..).map(|tuple| match shells.pop() {
            Some(mut shell) => {
                *Arc::get_mut(&mut shell).expect("a stashed shell has no other holder") = tuple;
                shell
            }
            None => Arc::new(tuple),
        }));
    }

    /// Takes back the storage of a tuple its holder has finished with: if
    /// this was the last handle, the cleared field buffer and the `Arc`
    /// allocation are stashed for reuse (within the two bounds; overflow
    /// is simply dropped). A tuple another holder still reads is left
    /// alone — its last holder recycles it.
    pub(crate) fn recycle(&mut self, mut tuple: Arc<Tuple>) {
        let Some(inner) = Arc::get_mut(&mut tuple) else {
            return;
        };
        self.stash_fields(std::mem::take(inner).into_fields());
        if self.spare_shells.len() < STASH_MAX {
            self.spare_shells.push(tuple);
        }
    }

    /// Discards the buffered tuples (a sink's emissions go nowhere),
    /// keeping their field buffers.
    pub(crate) fn discard(&mut self) {
        while let Some(tuple) = self.tuples.pop() {
            self.stash_fields(tuple.into_fields());
        }
    }

    fn stash_fields(&mut self, mut fields: Vec<Value>) {
        fields.clear();
        if fields.capacity() <= STASH_FIELDS_MAX && self.spare_fields.len() < STASH_MAX {
            self.spare_fields.push(fields);
        }
    }

    /// Moves the top half of every stash lane that has reached
    /// [`STASH_MAX`] into the pool's depot, one batch per lane.
    pub(crate) fn spill_half(&mut self, depot: &Depot) {
        if self.spare_fields.len() >= STASH_MAX {
            depot.fields.put(self.spare_fields.split_off(STASH_MAX / 2));
        }
        if self.spare_shells.len() >= STASH_MAX {
            depot.shells.put(self.spare_shells.split_off(STASH_MAX / 2));
        }
    }

    /// Takes one batch from the pool's depot into every stash lane that
    /// has run below [`REFILL_BELOW`], if the depot holds one.
    pub(crate) fn refill(&mut self, depot: &Depot) {
        if self.spare_fields.len() < REFILL_BELOW {
            if let Some(mut batch) = depot.fields.take() {
                self.spare_fields.append(&mut batch);
            }
        }
        if self.spare_shells.len() < REFILL_BELOW {
            if let Some(mut batch) = depot.shells.take() {
                self.spare_shells.append(&mut batch);
            }
        }
    }

    /// Stash lengths: (field buffers, `Arc` shells).
    #[cfg(test)]
    pub(crate) fn stash_len(&self) -> (usize, usize) {
        (self.spare_fields.len(), self.spare_shells.len())
    }
}

impl Collector for VecCollector {
    fn emit(&mut self, tuple: Tuple) {
        self.tuples.push(tuple);
    }

    fn fields(&mut self) -> Vec<Value> {
        self.spare_fields.pop().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingSpout {
        remaining: u32,
    }

    impl Spout for CountingSpout {
        fn next(&mut self) -> Option<SpoutEmission> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(SpoutEmission {
                tuple: Tuple::of(i64::from(self.remaining)),
                wait: Duration::from_millis(1),
            })
        }
    }

    #[test]
    fn spout_exhausts() {
        let mut s = CountingSpout { remaining: 2 };
        assert!(s.next().is_some());
        assert!(s.next().is_some());
        assert!(s.next().is_none());
    }

    struct Filter;

    impl Bolt for Filter {
        fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
            if tuple.field(0).and_then(Value::as_int).unwrap_or(0) % 2 == 0 {
                collector.emit(tuple.clone());
            }
        }
    }

    #[test]
    fn bolt_with_vec_collector() {
        let mut out = VecCollector::new();
        let mut bolt = Filter;
        for i in 0..6i64 {
            bolt.execute(&Tuple::of(i), &mut out);
        }
        assert_eq!(out.tuples().len(), 3);
        let vals: Vec<i64> = out
            .into_tuples()
            .iter()
            .map(|t| t.field(0).and_then(Value::as_int).unwrap())
            .collect();
        assert_eq!(vals, vec![0, 2, 4]);
    }

    #[test]
    fn fields_of_a_fresh_collector_are_a_plain_vec() {
        let mut out = VecCollector::new();
        assert_eq!(out.fields().capacity(), 0);
    }

    #[test]
    fn a_recycled_buffer_comes_back_empty_with_its_capacity() {
        let mut out = VecCollector::new();
        let mut fields = Vec::with_capacity(9);
        fields.push(Value::from("stale"));
        out.recycle(Arc::new(Tuple::new(fields)));
        let fields = out.fields();
        assert!(fields.is_empty());
        assert_eq!(fields.capacity(), 9);
        assert_eq!(out.fields().capacity(), 0, "a buffer is handed out once");
    }

    #[test]
    fn a_shared_tuple_is_recycled_only_by_its_last_holder() {
        let mut out = VecCollector::new();
        let first = Arc::new(Tuple::of(7i64));
        let second = Arc::clone(&first);
        out.recycle(first);
        assert!(out.spare_fields.is_empty() && out.spare_shells.is_empty());
        assert_eq!(second.field(0).and_then(Value::as_int), Some(7));
        out.recycle(second);
        assert_eq!((out.spare_fields.len(), out.spare_shells.len()), (1, 1));
    }

    #[test]
    fn share_into_refills_a_stashed_shell() {
        let mut out = VecCollector::new();
        let spent = Arc::new(Tuple::of(1i64));
        let shell = Arc::as_ptr(&spent);
        out.recycle(spent);
        out.emit(Tuple::of(2i64));
        out.emit(Tuple::of(3i64));
        let mut shared = Vec::new();
        out.share_into(&mut shared);
        assert!(out.is_empty());
        assert_eq!(Arc::as_ptr(&shared[0]), shell);
        assert_ne!(Arc::as_ptr(&shared[1]), shell);
        let ints: Vec<_> = shared.iter().map(|t| t.field(0).unwrap().clone()).collect();
        assert_eq!(ints, vec![Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn the_stash_is_bounded_in_count_and_in_buffer_capacity() {
        let mut out = VecCollector::new();
        for i in 0..STASH_MAX as i64 + 10 {
            out.recycle(Arc::new(Tuple::of(i)));
            out.emit(Tuple::of(i));
            out.discard();
            assert!(out.spare_fields.len() <= STASH_MAX);
            assert!(out.spare_shells.len() <= STASH_MAX);
        }
        assert_eq!(out.spare_fields.len(), STASH_MAX);
        assert_eq!(out.spare_shells.len(), STASH_MAX);

        // A buffer wider than the bound goes back to the allocator; the
        // tuple's `Arc` allocation is kept all the same.
        let mut out = VecCollector::new();
        let wide = Vec::with_capacity(STASH_FIELDS_MAX + 1);
        out.recycle(Arc::new(Tuple::new(wide)));
        assert!(out.spare_fields.is_empty());
        assert_eq!(out.spare_shells.len(), 1);
        out.recycle(Arc::new(Tuple::new(Vec::with_capacity(STASH_FIELDS_MAX))));
        assert_eq!(out.spare_fields.len(), 1);
    }
}
