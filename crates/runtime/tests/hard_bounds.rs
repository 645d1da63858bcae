//! The hard-bound contract of the suspension-backpressure pool: no input
//! channel ever holds more envelopes than its capacity — at any sample
//! point, under any topology, fan-out or capacity — and no tuple is ever
//! lost (the ack ledger balances exactly), including across a shutdown
//! that lands mid-batch while executor tasks sit suspended on full
//! channels holding ack state.

use drs_runtime::operator::{Bolt, Collector, Spout, SpoutEmission};
use drs_runtime::tuple::Tuple;
use drs_runtime::RuntimeBuilder;
use drs_topology::TopologyBuilder;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Emits `count` tuples as fast as the engine accepts them.
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

/// Sleeps `busy` per tuple and forwards `fanout` copies.
struct FanBolt {
    busy: Duration,
    fanout: usize,
}

impl Bolt for FanBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        if !self.busy.is_zero() {
            std::thread::sleep(self.busy);
        }
        for _ in 0..self.fanout {
            collector.emit(tuple.clone());
        }
    }
}

/// Regression test for partial-send ack accounting: `execute_one` adds the
/// *full* fan-out to the tuple tree before sending, so a shutdown landing
/// mid-batch — with the fan stage suspended on the saturated sink channel
/// and undelivered envelopes parked in wait lists — must reconcile every
/// pending count it cancels. The observable ledger balance: every root
/// tree the spout opened settles exactly once (`sojourn.count() ==
/// external_arrivals`), with no drain grace granted at all.
#[test]
fn shutdown_mid_batch_balances_the_ack_ledger_exactly() {
    let mut b = TopologyBuilder::new();
    let src = b.spout("src");
    let fan = b.bolt("fan");
    let sink = b.bolt("sink");
    b.edge(src, fan).unwrap();
    b.edge(fan, sink).unwrap();
    let topo = b.build().unwrap();
    let engine = RuntimeBuilder::new(topo)
        .spout(src, Box::new(FloodSpout { remaining: 50_000 }))
        .bolt(fan, || FanBolt {
            busy: Duration::ZERO,
            fanout: 8,
        })
        .bolt(sink, || FanBolt {
            busy: Duration::from_millis(1),
            fanout: 0,
        })
        .allocation(vec![1, 1, 1])
        .channel_capacity(8)
        .start()
        .unwrap();

    // Wait until the fan stage has demonstrably suspended on the sink's
    // full channel, so the shutdown really lands mid-batch with parked
    // send state — the exact scenario whose accounting this pins down.
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.suspensions().iter().flatten().sum::<u64>() == 0 {
        assert!(
            Instant::now() < deadline,
            "saturated fan stage never suspended"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let cap = engine.channel_capacity() as u64;
    for row in engine.peak_queue_depths() {
        for peak in row {
            assert!(peak <= cap, "queue peaked at {peak} > capacity {cap}");
        }
    }

    // Zero drain: cancel everything in flight — suspended tasks, wait
    // lists, injectors, channels — and the books must still close.
    let snap = engine.shutdown(Duration::ZERO);
    assert!(snap.external_arrivals > 0, "spout never emitted");
    assert_eq!(
        snap.sojourn.count(),
        snap.external_arrivals,
        "tuple-tree ledger out of balance: {} roots opened, {} settled",
        snap.external_arrivals,
        snap.sojourn.count()
    );
    // The sink can only complete envelopes that were actually delivered.
    assert!(snap.operators[2].completions <= snap.operators[2].arrivals);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under random chain topologies, fan-outs, capacities and
    /// allocations: every channel's observed `len()` stays at
    /// or below the capacity at every sample point, the cumulative peaks
    /// agree, and the ack ledger balances (no tuple lost or duplicated).
    #[test]
    fn capacity_is_never_exceeded_and_nothing_is_lost(
        n_bolts in 1usize..4,
        fanout in 0u64..3,
        capacity in 2usize..24,
        roots in 50u64..200,
        busy_us in prop::collection::vec(0u64..120, 3),
        allocs in prop::collection::vec(1u32..4, 3),
    ) {
        let mut b = TopologyBuilder::new();
        let src = b.spout("src");
        let bolts: Vec<_> = (0..n_bolts).map(|i| b.bolt(format!("b{i}"))).collect();
        b.edge(src, bolts[0]).unwrap();
        for pair in bolts.windows(2) {
            b.edge(pair[0], pair[1]).unwrap();
        }
        let topo = b.build().unwrap();
        let mut builder = RuntimeBuilder::new(topo)
            .spout(src, Box::new(FloodSpout { remaining: roots }))
            .allocation(
                std::iter::once(1)
                    .chain(allocs.iter().copied().take(n_bolts))
                    .collect(),
            )
            .channel_capacity(capacity);
        for (i, &id) in bolts.iter().enumerate() {
            let busy = Duration::from_micros(busy_us[i]);
            // Every stage fans out except the last (a sink), keeping the
            // amplification finite while still saturating mid-chain.
            let f = if i + 1 == n_bolts { 0 } else { fanout as usize };
            builder = builder.bolt(id, move || FanBolt { busy, fanout: f });
        }
        let engine = builder.start().unwrap();

        let cap = engine.channel_capacity();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            for (op, depth) in engine.queue_depths().into_iter().enumerate() {
                prop_assert!(
                    depth <= cap,
                    "operator {op} holds {depth} envelopes, capacity {cap}"
                );
            }
            if engine.spouts_finished() && engine.open_trees() == 0 {
                break;
            }
            prop_assert!(Instant::now() < deadline, "engine failed to drain");
            std::thread::sleep(Duration::from_micros(500));
        }
        for (op, row) in engine.peak_queue_depths().into_iter().enumerate() {
            for peak in row {
                prop_assert!(
                    peak <= cap as u64,
                    "operator {op} peaked at {peak} > capacity {cap}"
                );
            }
        }

        // Ledger balance: every root settles exactly once, and each stage
        // processed exactly its expected tuple count.
        let snap = engine.shutdown(Duration::from_secs(5));
        prop_assert_eq!(snap.external_arrivals, roots);
        prop_assert_eq!(snap.sojourn.count(), roots);
        let mut expected = roots;
        for (i, _) in bolts.iter().enumerate() {
            prop_assert_eq!(snap.operators[1 + i].arrivals, expected);
            prop_assert_eq!(snap.operators[1 + i].completions, expected);
            if i + 1 < n_bolts {
                expected *= fanout;
            }
        }
    }
}
