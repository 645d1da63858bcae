//! Live FPD operators for the threaded runtime, running the real
//! [`SlidingWindowMiner`] over a Zipf-synthetic tweet stream.
//!
//! Tuples encode window events as `(flag, item, item, …)` with `flag = +1`
//! for enter and `−1` for leave (the paper's `+`/`−` labels). The generator
//! expands events into candidate itemsets; the detector owns the window
//! state and emits state-change notifications. The runtime distributes an
//! operator's input through one shared queue, so the detector is typically
//! run single-executor in live demos: its window state is not partitioned
//! among executors. Neither the runtime nor the simulator partitions by key
//! or broadcasts the loop; the simulation profile ([`super::FpdProfile`])
//! carries the notifications as the gain of the detector's self-edge.

use super::mfp::{Itemset, MinerConfig, SlidingWindowMiner, StateChange};
use super::zipf::TransactionGenerator;
use drs_runtime::operator::{Bolt, Collector, Spout, SpoutEmission};
use drs_runtime::tuple::{Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Encodes a window event as a tuple: `[flag, item…]`.
pub(crate) fn event_tuple(enter: bool, itemset: &Itemset) -> Tuple {
    flagged_tuple(if enter { 1 } else { -1 }, itemset, Vec::new())
}

/// Builds `[flag, item…]` in `fields`, an empty buffer (a bolt passes
/// [`Collector::fields`]).
fn flagged_tuple(flag: i64, itemset: &Itemset, mut fields: Vec<Value>) -> Tuple {
    fields.reserve(1 + itemset.len());
    fields.push(Value::Int(flag));
    fields.extend(itemset.items().iter().map(|&i| Value::Int(i64::from(i))));
    Tuple::new(fields)
}

/// Decodes a window event tuple. Returns `(enter, itemset)`.
pub(crate) fn decode_event(tuple: &Tuple) -> Option<(bool, Itemset)> {
    let flag = tuple.field(0)?.as_int()?;
    let items: Option<Vec<u32>> = tuple.fields()[1..]
        .iter()
        .map(|v| v.as_int().and_then(|i| u32::try_from(i).ok()))
        .collect();
    Some((flag > 0, Itemset::new(items?)))
}

/// Spout emitting Poisson-spaced tweet *enter* events from a Zipf
/// transaction generator.
#[derive(Debug)]
pub struct TweetSpout {
    generator: TransactionGenerator,
    rng: StdRng,
    rate: f64,
    remaining: Option<u64>,
}

impl TweetSpout {
    /// Creates a spout with mean `rate` tweets/second emitting `limit`
    /// tweets (unbounded when `None`).
    pub fn new(generator: TransactionGenerator, rate: f64, seed: u64, limit: Option<u64>) -> Self {
        TweetSpout {
            generator,
            rng: StdRng::seed_from_u64(seed),
            rate,
            remaining: limit,
        }
    }
}

impl Spout for TweetSpout {
    fn next(&mut self) -> Option<SpoutEmission> {
        if let Some(r) = &mut self.remaining {
            if *r == 0 {
                return None;
            }
            *r -= 1;
        }
        let tx = self.generator.generate(&mut self.rng);
        // Exponential inter-arrival (Poisson process, as the paper
        // simulates the tweet arrivals).
        let u: f64 = 1.0 - self.rng.gen::<f64>();
        let wait = -u.ln() / self.rate;
        Some(SpoutEmission {
            tuple: event_tuple(true, &tx),
            wait: Duration::from_secs_f64(wait),
        })
    }
}

/// Pattern-generator bolt: expands each window event into its candidate
/// itemsets (every non-empty subset, as the paper describes), forwarding
/// the event flag with each candidate.
#[derive(Debug, Default)]
pub struct GeneratorBolt {
    /// Truncate transactions to this many items before expansion.
    pub max_items: usize,
}

impl GeneratorBolt {
    /// Creates a generator with the given transaction cap.
    pub fn new(max_items: usize) -> Self {
        GeneratorBolt { max_items }
    }
}

impl Bolt for GeneratorBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let Some((enter, itemset)) = decode_event(tuple) else {
            return;
        };
        let capped = if itemset.len() > self.max_items {
            Itemset::new(itemset.items()[..self.max_items].to_vec())
        } else {
            itemset
        };
        let flag = if enter { 1 } else { -1 };
        for candidate in capped.non_empty_subsets() {
            let fields = collector.fields();
            collector.emit(flagged_tuple(flag, &candidate, fields));
        }
    }
}

/// Detector bolt: owns the sliding-window miner; on each *transaction*
/// event it updates counts and emits one notification tuple per
/// maximal-frequent state change.
///
/// In live mode the detector consumes raw events (not generator candidates)
/// so that one stateful instance sees complete transactions; the generator
/// path exists to reproduce the paper's load profile in simulation.
#[derive(Debug)]
pub struct DetectorBolt {
    miner: SlidingWindowMiner,
}

impl DetectorBolt {
    /// Creates a detector with the given miner configuration.
    pub fn new(config: MinerConfig) -> Self {
        DetectorBolt {
            miner: SlidingWindowMiner::new(config),
        }
    }

    /// Read access to the miner (for inspection in examples/tests).
    #[cfg(test)]
    pub(crate) fn miner(&self) -> &SlidingWindowMiner {
        &self.miner
    }
}

impl Bolt for DetectorBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let Some((enter, itemset)) = decode_event(tuple) else {
            return;
        };
        let changes = if enter {
            self.miner.insert(itemset)
        } else {
            self.miner.evict_oldest()
        };
        for change in changes {
            let (kind, set) = match &change {
                StateChange::BecameMaximal(s) => (1i64, s),
                StateChange::NoLongerMaximal(s) => (-1i64, s),
            };
            let fields = collector.fields();
            collector.emit(flagged_tuple(kind, set, fields));
        }
    }
}

/// Reporter bolt: counts the MFP updates it delivers (the paper's reporter
/// writes them to HDFS; ours counts and optionally keeps the latest).
#[derive(Debug, Default)]
pub struct ReporterBolt {
    delivered: u64,
}

impl ReporterBolt {
    /// Creates a reporter.
    pub fn new() -> Self {
        ReporterBolt::default()
    }

    /// Number of updates delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl Bolt for ReporterBolt {
    fn execute(&mut self, _tuple: &Tuple, _collector: &mut dyn Collector) {
        self.delivered += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpd::zipf::ZipfSampler;
    use drs_runtime::operator::VecCollector;

    #[test]
    fn event_tuple_round_trips() {
        let set = Itemset::new(vec![4, 1, 9]);
        let t = event_tuple(true, &set);
        let (enter, back) = decode_event(&t).unwrap();
        assert!(enter);
        assert_eq!(back, set);

        let t = event_tuple(false, &set);
        let (enter, _) = decode_event(&t).unwrap();
        assert!(!enter);
    }

    #[test]
    fn tweet_spout_emits_events() {
        let gen = TransactionGenerator::new(ZipfSampler::new(100, 1.1), 1, 4);
        let mut spout = TweetSpout::new(gen, 10_000.0, 3, Some(5));
        let mut seen = 0;
        while let Some(e) = spout.next() {
            let (enter, set) = decode_event(&e.tuple).unwrap();
            assert!(enter);
            assert!(!set.is_empty());
            seen += 1;
        }
        assert_eq!(seen, 5);
    }

    #[test]
    fn generator_expands_subsets() {
        let mut bolt = GeneratorBolt::new(8);
        let mut out = VecCollector::new();
        bolt.execute(&event_tuple(true, &Itemset::new(vec![1, 2, 3])), &mut out);
        assert_eq!(out.tuples().len(), 7); // 2^3 - 1
        for t in out.tuples() {
            let (enter, _) = decode_event(t).unwrap();
            assert!(enter);
        }
    }

    #[test]
    fn generator_caps_transaction_size() {
        let mut bolt = GeneratorBolt::new(3);
        let mut out = VecCollector::new();
        bolt.execute(
            &event_tuple(true, &Itemset::new((0..10).collect())),
            &mut out,
        );
        assert_eq!(out.tuples().len(), 7);
    }

    #[test]
    fn detector_emits_state_changes() {
        let mut bolt = DetectorBolt::new(MinerConfig {
            window_size: 100,
            threshold: 2,
            max_transaction_items: 4,
        });
        let mut out = VecCollector::new();
        bolt.execute(&event_tuple(true, &Itemset::new(vec![1, 2])), &mut out);
        assert!(out.tuples().is_empty());
        bolt.execute(&event_tuple(true, &Itemset::new(vec![1, 2])), &mut out);
        // {1,2} became maximal -> one +1 notification.
        assert_eq!(out.tuples().len(), 1);
        assert_eq!(out.tuples()[0].field(0).and_then(Value::as_int), Some(1));
        assert_eq!(bolt.miner().window_len(), 2);
    }

    #[test]
    fn reporter_counts_updates() {
        let mut rep = ReporterBolt::new();
        let mut out = VecCollector::new();
        for _ in 0..4 {
            rep.execute(&Tuple::of(1i64), &mut out);
        }
        assert_eq!(rep.delivered(), 4);
        assert!(out.tuples().is_empty());
    }
}
