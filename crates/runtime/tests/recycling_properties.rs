//! Recycled tuple storage is invisible: a pool worker hands the field
//! buffers (and `Arc` allocations) of tuples it has finished with to the
//! bolts it runs next, and nothing a bolt or a sink can observe tells a
//! recycled buffer from a fresh one — it always arrives empty, a tuple two
//! downstream operators share stays intact until the second has read it,
//! and the run computes exactly what a single-threaded pass with fresh
//! buffers computes.

use drs_runtime::operator::{Bolt, Collector, Spout, SpoutEmission, VecCollector};
use drs_runtime::tuple::{Tuple, Value};
use drs_runtime::RuntimeBuilder;
use drs_topology::TopologyBuilder;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Emits the roots `[i, checksum]` for `i` in `0..count`, unpaced.
struct RootSpout {
    next: i64,
    count: i64,
}

fn root(i: i64) -> Tuple {
    sealed(vec![Value::Int(i)])
}

impl Spout for RootSpout {
    fn next(&mut self) -> Option<SpoutEmission> {
        if self.next == self.count {
            return None;
        }
        self.next += 1;
        Some(SpoutEmission {
            tuple: root(self.next - 1),
            wait: Duration::ZERO,
        })
    }
}

fn mix(a: i64, b: i64) -> i64 {
    (a ^ b.rotate_left(17))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64)
        .rotate_left(29)
}

fn digest(fields: &[Value]) -> i64 {
    fields.iter().fold(fields.len() as i64, |acc, v| match v {
        Value::Int(i) => mix(acc, *i),
        Value::Text(s) => s.bytes().fold(acc, |acc, b| mix(acc, i64::from(b))),
        other => panic!("the chain carries no {other:?}"),
    })
}

/// Appends the checksum of `fields` as the last field.
fn sealed(mut fields: Vec<Value>) -> Tuple {
    fields.push(Value::Int(digest(&fields)));
    Tuple::new(fields)
}

/// What went wrong inside a bolt, if anything; a panic on a worker thread
/// would only stall the run.
type Fault = Arc<Mutex<Option<String>>>;

/// A stateless operator: checks its input's checksum, then emits `fanout`
/// tuples of 2 to 8 fields (integers and a heap-owning text), each built in
/// the collector's buffer and sealed with its own checksum. A sink also
/// records what it received.
struct Relay {
    op: i64,
    fanout: i64,
    fault: Fault,
    received: Option<Arc<Mutex<Vec<Tuple>>>>,
}

impl Relay {
    fn fail(&self, what: String) {
        self.fault.lock().unwrap().get_or_insert(what);
    }
}

impl Bolt for Relay {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let Some((Value::Int(sum), body)) = tuple.fields().split_last() else {
            return self.fail(format!("operator {} received {tuple:?}", self.op));
        };
        if *sum != digest(body) {
            return self.fail(format!("operator {} received a torn {tuple:?}", self.op));
        }
        if let Some(received) = &self.received {
            received.lock().unwrap().push(tuple.clone());
        }
        for copy in 0..self.fanout {
            let mut fields = collector.fields();
            if !fields.is_empty() {
                return self.fail(format!("operator {} was handed {fields:?}", self.op));
            }
            let seed = mix(mix(*sum, self.op), copy);
            fields.push(Value::Int(seed));
            fields.push(Value::Text(format!("{}-{copy}", self.op)));
            fields.resize(1 + seed.rem_euclid(7) as usize, Value::Int(copy));
            collector.emit(sealed(fields));
        }
    }
}

/// The operator graph: a chain `0 → 1 → … → n-1` of bolts behind the
/// spout, plus the generated forward edges, which make splits (two
/// targets) and joins (two sources).
fn targets(n_bolts: usize, extra: &[usize]) -> Vec<Vec<usize>> {
    (0..n_bolts)
        .map(|i| {
            let mut t = Vec::new();
            if i + 1 < n_bolts {
                t.push(i + 1);
            }
            if extra[i] > i + 1 && extra[i] < n_bolts {
                t.push(extra[i]);
            }
            t
        })
        .collect()
}

/// Single-threaded reference: every tuple through a fresh `VecCollector`,
/// whose `fields()` is a plain `Vec::new()`. Returns the completions per
/// bolt and everything the sinks received.
fn reference(roots: i64, fanout: &[i64], targets: &[Vec<usize>]) -> (Vec<u64>, Vec<Tuple>) {
    let fault = Fault::default();
    let received = Arc::new(Mutex::new(Vec::new()));
    let mut bolts: Vec<Relay> = (0..targets.len())
        .map(|i| relay(i, fanout, targets, &fault, &received))
        .collect();
    let mut completions = vec![0u64; targets.len()];
    let mut pending: Vec<(usize, Tuple)> = (0..roots).map(|i| (0, root(i))).collect();
    while let Some((op, tuple)) = pending.pop() {
        let mut out = VecCollector::new();
        bolts[op].execute(&tuple, &mut out);
        completions[op] += 1;
        for emitted in out.into_tuples() {
            for &t in &targets[op] {
                pending.push((t, emitted.clone()));
            }
        }
    }
    assert_eq!(*fault.lock().unwrap(), None);
    let received = std::mem::take(&mut *received.lock().unwrap());
    (completions, received)
}

fn relay(
    op: usize,
    fanout: &[i64],
    targets: &[Vec<usize>],
    fault: &Fault,
    received: &Arc<Mutex<Vec<Tuple>>>,
) -> Relay {
    let sink = targets[op].is_empty();
    Relay {
        op: op as i64,
        // A sink's emissions go nowhere; it emits anyway, through the
        // engine's discard path.
        fanout: if sink { 1 } else { fanout[op] },
        fault: Arc::clone(fault),
        received: sink.then(|| Arc::clone(received)),
    }
}

fn sorted(tuples: Vec<Tuple>) -> Vec<String> {
    let mut keys: Vec<String> = tuples.iter().map(|t| format!("{t:?}")).collect();
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_run_on_recycled_buffers_equals_the_single_threaded_pass(
        n_bolts in 2usize..6,
        extra in prop::collection::vec(0usize..6, 5),
        fanout in prop::collection::vec(1i64..3, 5),
        weights in prop::collection::vec(prop::collection::vec(1u32..5, 5), 1..5),
        capacity in 2usize..129,
        workers in 1usize..4,
        roots in 40i64..160,
    ) {
        let targets = targets(n_bolts, &extra);
        let (want_completions, want_received) = reference(roots, &fanout, &targets);

        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let ids: Vec<_> = (0..n_bolts).map(|i| b.bolt(format!("b{i}"))).collect();
        b.edge(src, ids[0]).unwrap();
        for (i, row) in targets.iter().enumerate() {
            for &t in row {
                b.edge(ids[i], ids[t]).unwrap();
            }
        }
        let allocation = |w: &[u32]| -> Vec<u32> {
            std::iter::once(1).chain(w[..n_bolts].iter().copied()).collect()
        };
        let fault = Fault::default();
        let received = Arc::new(Mutex::new(Vec::new()));
        let mut builder = RuntimeBuilder::new(b.build().unwrap())
            .spout(src, Box::new(RootSpout { next: 0, count: roots }))
            .allocation(allocation(&weights[0]))
            .channel_capacity(capacity)
            .workers(workers);
        for (i, &id) in ids.iter().enumerate() {
            let (fanout, targets) = (fanout.clone(), targets.clone());
            let (fault, received) = (Arc::clone(&fault), Arc::clone(&received));
            builder = builder.bolt(id, move || relay(i, &fanout, &targets, &fault, &received));
        }
        let mut engine = builder.start().unwrap();

        // Rewrite the weights while the stream is in flight.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut rotation = weights.iter().cycle();
        while !(engine.spouts_finished() && engine.open_trees() == 0) {
            prop_assert!(Instant::now() < deadline, "engine failed to drain");
            engine.rebalance(allocation(rotation.next().unwrap())).unwrap();
            std::thread::sleep(Duration::from_micros(200));
        }
        let snap = engine.shutdown(Duration::from_secs(5));

        prop_assert_eq!(fault.lock().unwrap().clone(), None);
        let completions: Vec<u64> = snap.operators[1..].iter().map(|o| o.completions).collect();
        prop_assert_eq!(completions, want_completions);
        let received = std::mem::take(&mut *received.lock().unwrap());
        prop_assert_eq!(sorted(received), sorted(want_received));
    }
}
