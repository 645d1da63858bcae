//! Rebalance-under-load stress: the control plane rewrites executor
//! weights every few milliseconds while spouts are hot, and the data plane
//! must not care — zero tuple loss (the ack ledger balances exactly),
//! monotone cumulative metrics, and every measured pause under a generous
//! bound.
//!
//! This is the regression net for the work-stealing pool's rebalance
//! protocol: the weight-table write, the shrink quiesce at envelope
//! boundaries, and the bolt-instance trim must all compose with live
//! traffic in both directions (grow and shrink) at a cadence far beyond
//! anything the DRS controller would request.

use drs_runtime::operator::{Bolt, Collector, Spout, SpoutEmission};
use drs_runtime::tuple::Tuple;
use drs_runtime::RuntimeBuilder;
use drs_topology::TopologyBuilder;
use std::time::{Duration, Instant};

/// Emits `count` tuples as fast as the engine accepts them (backpressure
/// is the only pacing).
struct FloodSpout {
    remaining: u64,
}

impl Spout for FloodSpout {
    fn next(&mut self) -> Option<SpoutEmission> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(SpoutEmission {
            tuple: Tuple::of(self.remaining as i64),
            wait: Duration::ZERO,
        })
    }
}

/// Sleeps briefly (so executor weights matter) and forwards `fanout`
/// copies.
struct JitterBolt {
    busy: Duration,
    fanout: usize,
}

impl Bolt for JitterBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        if !self.busy.is_zero() {
            std::thread::sleep(self.busy);
        }
        for _ in 0..self.fanout {
            collector.emit(tuple.clone());
        }
    }
}

#[test]
fn rebalancing_every_few_ms_loses_nothing() {
    const ROOTS: u64 = 8_000;
    const FANOUT: u64 = 2;

    let mut b = TopologyBuilder::new();
    let src = b.spout("src");
    let work = b.bolt("work");
    let sink = b.bolt("sink");
    b.edge(src, work).unwrap();
    b.edge(work, sink).unwrap();
    let topo = b.build().unwrap();
    let mut engine = RuntimeBuilder::new(topo)
        .spout(src, Box::new(FloodSpout { remaining: ROOTS }))
        .bolt(work, || JitterBolt {
            busy: Duration::from_micros(100),
            fanout: FANOUT as usize,
        })
        .bolt(sink, || JitterBolt {
            busy: Duration::from_micros(20),
            fanout: 0,
        })
        .allocation(vec![1, 2, 1])
        .workers(4)
        .start()
        .unwrap();

    // Hammer the control plane: alternate grows and shrinks across a wide
    // weight range every ~3 ms while the spout floods.
    let allocations: [[u32; 3]; 6] = [
        [1, 8, 3],
        [1, 1, 1],
        [1, 12, 2],
        [1, 3, 6],
        [1, 2, 1],
        [1, 6, 4],
    ];
    let mut pauses = Vec::new();
    let mut cursor = 0usize;
    let stress_until = Instant::now() + Duration::from_millis(600);
    // The spout floods its roots into the bounded channels almost
    // immediately; what matters is that tuples are still in flight while
    // the weights are being rewritten. (`open_trees` alone would race the
    // spout thread's startup and read 0 before the first emission.)
    while Instant::now() < stress_until && !(engine.spouts_finished() && engine.open_trees() == 0) {
        let next = allocations[cursor % allocations.len()];
        cursor += 1;
        let pause = engine.rebalance(next.to_vec()).expect("valid allocation");
        pauses.push(pause);
        assert_eq!(engine.allocation(), &next);
        std::thread::sleep(Duration::from_millis(3));
    }
    assert!(
        pauses.len() >= 10,
        "the stress loop must actually rebalance under load, got {}",
        pauses.len()
    );

    // Every pause stays under a generous bound: the quiesce waits for at
    // most one in-flight envelope per shrinking executor (~100 µs service
    // here), so even heavy scheduler noise keeps it far below this.
    let worst = pauses.iter().max().unwrap();
    assert!(
        *worst < Duration::from_millis(250),
        "worst rebalance pause {worst:?} across {} rebalances",
        pauses.len()
    );

    // Zero tuple loss: the ack ledger balances exactly once drained.
    assert!(
        engine.wait_until_drained(Duration::from_secs(60)),
        "stressed engine failed to drain: {} trees open",
        engine.open_trees()
    );
    assert_eq!(engine.open_trees(), 0);
    // The channel bound is a hard invariant: no queue may ever exceed the
    // capacity, even with the control plane churning weights under load.
    let cap = engine.channel_capacity() as u64;
    for (op, row) in engine.peak_queue_depths().iter().enumerate() {
        for (m, &peak) in row.iter().enumerate() {
            assert!(
                peak <= cap,
                "operator {op} machine {m} peaked at {peak} > capacity {cap}"
            );
        }
    }
    let snap = engine.shutdown(Duration::from_secs(2));
    assert_eq!(snap.external_arrivals, ROOTS, "spout roots lost");
    assert_eq!(
        snap.sojourn.count(),
        ROOTS,
        "tuple trees lost or duplicated"
    );
    assert_eq!(snap.operators[1].arrivals, ROOTS);
    assert_eq!(snap.operators[1].completions, ROOTS);
    assert_eq!(snap.operators[2].arrivals, ROOTS * FANOUT);
    assert_eq!(snap.operators[2].completions, ROOTS * FANOUT);
}

#[test]
fn windowed_metrics_stay_monotone_across_rebalances() {
    // Windowed snapshots across live rebalances: per-window deltas must
    // never go negative (the cumulative counters behind them are
    // monotone), and their sum must equal the full workload at the end.
    const ROOTS: u64 = 1_500;
    let mut b = TopologyBuilder::new();
    let src = b.spout("src");
    let work = b.bolt("work");
    b.edge(src, work).unwrap();
    let topo = b.build().unwrap();
    let mut engine = RuntimeBuilder::new(topo)
        .spout(src, Box::new(FloodSpout { remaining: ROOTS }))
        .bolt(work, || JitterBolt {
            busy: Duration::from_micros(150),
            fanout: 0,
        })
        .allocation(vec![1, 1])
        .workers(3)
        .start()
        .unwrap();

    let mut completions = 0u64;
    let mut externals = 0u64;
    let mut sojourns = 0u64;
    let mut busy_total = 0.0f64;
    for round in 0..20 {
        std::thread::sleep(Duration::from_millis(5));
        let k = 1 + (round % 5) as u32;
        engine.rebalance(vec![1, k]).expect("valid allocation");
        let snap = engine.metrics_snapshot();
        let w = snap.operators[1];
        assert!(w.busy_secs >= 0.0, "negative busy window: {w:?}");
        completions += w.completions;
        externals += snap.external_arrivals;
        sojourns += snap.sojourn.count();
        busy_total += w.busy_secs;
        if engine.spouts_finished() && engine.open_trees() == 0 {
            break;
        }
    }
    assert!(engine.wait_until_drained(Duration::from_secs(60)));
    // Hard bound holds across every window; a fully drained engine also
    // reports empty live queues.
    let cap = engine.channel_capacity() as u64;
    assert!(engine
        .peak_queue_depths()
        .iter()
        .all(|row| row.iter().all(|&peak| peak <= cap)));
    assert!(engine.queue_depths().iter().all(|&d| d == 0));
    let last = engine.shutdown(Duration::from_secs(2));
    completions += last.operators[1].completions;
    externals += last.external_arrivals;
    sojourns += last.sojourn.count();
    busy_total += last.operators[1].busy_secs;

    assert_eq!(externals, ROOTS);
    assert_eq!(completions, ROOTS);
    assert_eq!(sojourns, ROOTS);
    // ~150 µs of busy sleep per tuple: the busy aggregate must be in a
    // sane band (monotone accounting, no double counting).
    let per_tuple = busy_total / ROOTS as f64;
    assert!(
        per_tuple > 100e-6 && per_tuple < 5e-3,
        "mean busy per tuple {per_tuple}s"
    );
}
