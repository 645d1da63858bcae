//! Live (really computing) VLD operators for the threaded runtime.
//!
//! The simulation profile models service *times*; these operators do actual
//! work: synthetic grayscale frames are generated, a gradient-orientation
//! feature kernel (a compact stand-in for SIFT's descriptor stage) extracts
//! per-cell descriptors, a matcher compares them against a logo feature
//! library by L2 distance, and an aggregator declares a detection when
//! enough features of one frame match. Service times then *emerge* from the
//! computation, as in the paper's Storm deployment.

use super::scene::SceneProcess;
use drs_runtime::operator::{Bolt, Collector, Spout, SpoutEmission};
use drs_runtime::tuple::{Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Duration;

/// Side length of the square synthetic frames (pixels).
pub(crate) const FRAME_SIZE: usize = 32;
/// Cell size of the feature grid; each busy cell yields one descriptor.
pub(crate) const CELL: usize = 8;
/// Number of orientation bins per descriptor.
pub(crate) const BINS: usize = 8;

/// A descriptor: an orientation histogram over one cell.
pub(crate) type Descriptor = [f32; BINS];

/// Generates a synthetic grayscale frame whose high-frequency content scales
/// with scene complexity in `[0, 1]`.
pub fn synth_frame(rng: &mut StdRng, complexity: f64) -> Vec<u8> {
    let mut frame = vec![0u8; FRAME_SIZE * FRAME_SIZE];
    // Smooth background gradient…
    for y in 0..FRAME_SIZE {
        for x in 0..FRAME_SIZE {
            frame[y * FRAME_SIZE + x] = ((x + y) * 255 / (2 * FRAME_SIZE)) as u8;
        }
    }
    // …plus complexity-scaled texture: random bright blobs create gradients
    // far above the smooth background's, which the extractor picks up as
    // features.
    let blobs = (complexity * 24.0).round() as usize;
    for _ in 0..blobs {
        let cx = rng.gen_range(1..FRAME_SIZE - 1);
        let cy = rng.gen_range(1..FRAME_SIZE - 1);
        let v: u8 = rng.gen_range(200..=255);
        frame[cy * FRAME_SIZE + cx] = v;
        frame[cy * FRAME_SIZE + cx - 1] = v / 2;
        frame[cy * FRAME_SIZE + cx + 1] = v / 2;
        frame[(cy - 1) * FRAME_SIZE + cx] = v / 2;
        frame[(cy + 1) * FRAME_SIZE + cx] = v / 2;
    }
    frame
}

/// Orientation bin of an integer gradient `(gy, gx)` — the octant of
/// `atan2(gy, gx)` over `[-π, π)` split into [`BINS`] half-open 45° bins.
///
/// Comparison-based: since the gradients of a `u8` image are integers, the
/// octant boundaries (multiples of π/4) fall exactly on `|gy| = |gx|` and
/// the axes, so sign tests and one magnitude comparison reproduce the
/// `atan2`-and-quantise formula *bit-identically* (a unit test checks every
/// gradient pair exhaustively) at a fraction of its cost — `atan2` per
/// pixel dominated the extraction profile.
fn orientation_bin(gy: i32, gx: i32) -> usize {
    let (ay, ax) = (gy.abs(), gx.abs());
    if gy > 0 {
        if gx > 0 {
            if gy < gx {
                4
            } else {
                5
            }
        } else if gx == 0 || ay > ax {
            6
        } else {
            7
        }
    } else if gy == 0 {
        if gx >= 0 {
            4
        } else {
            7
        }
    } else if gx < 0 {
        if ay < ax {
            0
        } else {
            1
        }
    } else if gx == 0 || ay > ax {
        2
    } else {
        3
    }
}

/// Extracts gradient-orientation descriptors from a frame into
/// `descriptors` (cleared first): one descriptor per `CELL x CELL` cell
/// whose total gradient magnitude passes `threshold`. A caller that keeps
/// `descriptors` across frames allocates nothing once it has grown.
///
/// The inner loop works on integer gradients and the comparison-based
/// `orientation_bin`; magnitudes stay exact (squared sums of `u8`
/// gradients fit f32 losslessly), so the output is bit-identical to the
/// original float/`atan2` kernel while running several times faster.
pub(crate) fn extract_descriptors(frame: &[u8], threshold: f32, descriptors: &mut Vec<Descriptor>) {
    assert_eq!(frame.len(), FRAME_SIZE * FRAME_SIZE, "bad frame size");
    descriptors.clear();
    let cells = FRAME_SIZE / CELL;
    for cy in 0..cells {
        for cx in 0..cells {
            let mut hist = [0.0f32; BINS];
            let mut energy = 0.0f32;
            for dy in 0..CELL {
                for dx in 0..CELL {
                    let x = cx * CELL + dx;
                    let y = cy * CELL + dy;
                    if x == 0 || y == 0 || x + 1 >= FRAME_SIZE || y + 1 >= FRAME_SIZE {
                        continue;
                    }
                    let gx = i32::from(frame[y * FRAME_SIZE + x + 1])
                        - i32::from(frame[y * FRAME_SIZE + x - 1]);
                    let gy = i32::from(frame[(y + 1) * FRAME_SIZE + x])
                        - i32::from(frame[(y - 1) * FRAME_SIZE + x]);
                    let mag = ((gx * gx + gy * gy) as f32).sqrt();
                    let bin = orientation_bin(gy, gx);
                    hist[bin] += mag;
                    energy += mag;
                }
            }
            if energy > threshold {
                // L2-normalise, as SIFT does.
                let norm = hist.iter().map(|v| v * v).sum::<f32>().sqrt();
                if norm > 0.0 {
                    for v in &mut hist {
                        *v /= norm;
                    }
                }
                descriptors.push(hist);
            }
        }
    }
}

/// Squared L2 distance between two descriptors.
pub(crate) fn descriptor_distance(a: &Descriptor, b: &Descriptor) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Builds a descriptor tuple in `fields`, an empty buffer from
/// [`Collector::fields`].
fn descriptor_tuple(frame_id: i64, d: &Descriptor, mut fields: Vec<Value>) -> Tuple {
    fields.reserve(1 + BINS);
    fields.push(Value::Int(frame_id));
    fields.extend(d.iter().map(|&v| Value::Float(f64::from(v))));
    Tuple::new(fields)
}

fn tuple_descriptor(t: &Tuple) -> Option<(i64, Descriptor)> {
    let frame_id = t.field(0)?.as_int()?;
    let mut d = [0.0f32; BINS];
    for (i, slot) in d.iter_mut().enumerate() {
        *slot = t.field(1 + i)?.as_float()? as f32;
    }
    Some((frame_id, d))
}

/// Spout emitting synthetic frames with uniformly distributed inter-arrival
/// times (mean rate `frame_rate`) and scene-driven complexity.
#[derive(Debug)]
pub struct FrameSpout {
    rng: StdRng,
    scene: SceneProcess,
    frame_rate: f64,
    next_id: i64,
    remaining: Option<u64>,
}

impl FrameSpout {
    /// Creates a spout emitting `limit` frames (or unbounded when `None`).
    pub fn new(frame_rate: f64, seed: u64, limit: Option<u64>) -> Self {
        FrameSpout {
            rng: StdRng::seed_from_u64(seed),
            scene: SceneProcess::new(0.5, 0.05, 0.1),
            frame_rate,
            next_id: 0,
            remaining: limit,
        }
    }
}

impl Spout for FrameSpout {
    fn next(&mut self) -> Option<SpoutEmission> {
        if let Some(r) = &mut self.remaining {
            if *r == 0 {
                return None;
            }
            *r -= 1;
        }
        let complexity = self.scene.step(&mut self.rng);
        let frame = synth_frame(&mut self.rng, complexity);
        let id = self.next_id;
        self.next_id += 1;
        // Uniform on [0, 2/rate]: mean inter-arrival 1/rate.
        let wait = self.rng.gen_range(0.0..(2.0 / self.frame_rate));
        Some(SpoutEmission {
            tuple: Tuple::new(vec![Value::Int(id), Value::Bytes(frame)]),
            wait: Duration::from_secs_f64(wait),
        })
    }
}

/// SIFT-stage bolt: decodes the frame and emits one tuple per descriptor.
#[derive(Debug, Default)]
pub struct ExtractBolt {
    /// Gradient-energy threshold for keeping a cell.
    pub threshold: f32,
    /// The current frame's descriptors, kept across frames so extraction
    /// allocates nothing in steady state.
    descriptors: Vec<Descriptor>,
}

impl ExtractBolt {
    /// Creates an extractor whose default threshold sits above the smooth
    /// background's gradient energy (~700 per cell), so only textured cells
    /// yield features.
    pub fn new() -> Self {
        ExtractBolt {
            threshold: 1200.0,
            descriptors: Vec::new(),
        }
    }
}

impl Bolt for ExtractBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let Some(frame_id) = tuple.field(0).and_then(Value::as_int) else {
            return;
        };
        let Some(frame) = tuple.field(1).and_then(Value::as_bytes) else {
            return;
        };
        extract_descriptors(frame, self.threshold, &mut self.descriptors);
        for d in &self.descriptors {
            let fields = collector.fields();
            collector.emit(descriptor_tuple(frame_id, d, fields));
        }
    }
}

/// Matcher bolt: compares each descriptor against the logo library and
/// forwards `(frame_id, 1)` for every match below `max_distance`.
#[derive(Debug)]
pub struct MatchBolt {
    library: Vec<Descriptor>,
    max_distance: f32,
}

impl MatchBolt {
    /// Creates a matcher with a synthetic logo library of `logos`
    /// descriptors.
    pub fn new(logos: usize, max_distance: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let library = (0..logos)
            .map(|_| {
                let mut d = [0.0f32; BINS];
                for v in &mut d {
                    *v = rng.gen_range(0.0..1.0);
                }
                let norm = d.iter().map(|v| v * v).sum::<f32>().sqrt();
                for v in &mut d {
                    *v /= norm;
                }
                d
            })
            .collect();
        MatchBolt {
            library,
            max_distance,
        }
    }
}

impl Bolt for MatchBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let Some((frame_id, d)) = tuple_descriptor(tuple) else {
            return;
        };
        let best = self
            .library
            .iter()
            .map(|l| descriptor_distance(&d, l))
            .fold(f32::INFINITY, f32::min);
        if best <= self.max_distance {
            let mut fields = collector.fields();
            fields.extend([Value::Int(frame_id), Value::Int(1)]);
            collector.emit(Tuple::new(fields));
        }
    }
}

/// Aggregator bolt: counts matches per frame; emits a detection tuple when a
/// frame accumulates `min_matches`.
#[derive(Debug)]
pub struct AggregateBolt {
    counts: HashMap<i64, u32>,
    min_matches: u32,
}

impl AggregateBolt {
    /// Creates an aggregator that declares a detection at `min_matches`
    /// matched features for one frame.
    pub fn new(min_matches: u32) -> Self {
        AggregateBolt {
            counts: HashMap::new(),
            min_matches,
        }
    }
}

impl Bolt for AggregateBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let Some(frame_id) = tuple.field(0).and_then(Value::as_int) else {
            return;
        };
        let count = self.counts.entry(frame_id).or_insert(0);
        *count += 1;
        if *count == self.min_matches {
            let mut fields = collector.fields();
            fields.extend([
                Value::Int(frame_id),
                Value::Text("logo-detected".to_owned()),
            ]);
            collector.emit(Tuple::new(fields));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_runtime::operator::VecCollector;

    #[test]
    fn orientation_bin_matches_atan2_formula_exhaustively() {
        // u8-image gradients span [-255, 255] per axis; the comparison
        // kernel must agree with the original atan2-and-quantise formula on
        // every single pair, so descriptors are bit-identical.
        for gy in -255i32..=255 {
            for gx in -255i32..=255 {
                let angle = (gy as f32).atan2(gx as f32);
                let reference = (((angle + std::f32::consts::PI) / (2.0 * std::f32::consts::PI))
                    * BINS as f32)
                    .min(BINS as f32 - 1.0) as usize;
                assert_eq!(
                    orientation_bin(gy, gx),
                    reference,
                    "gy={gy} gx={gx} (atan2 = {angle})"
                );
            }
        }
    }

    #[test]
    fn synth_frame_has_expected_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = synth_frame(&mut rng, 0.5);
        assert_eq!(f.len(), FRAME_SIZE * FRAME_SIZE);
    }

    #[test]
    fn complexity_increases_feature_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let threshold = ExtractBolt::new().threshold;
        let mut descriptors = Vec::new();
        let mut features = |complexity: f64| -> usize {
            (0..20)
                .map(|_| {
                    let frame = synth_frame(&mut rng, complexity);
                    extract_descriptors(&frame, threshold, &mut descriptors);
                    descriptors.len()
                })
                .sum()
        };
        let calm = features(0.0);
        let busy = features(1.0);
        assert!(busy > calm, "busy {busy} <= calm {calm}");
    }

    #[test]
    fn descriptors_are_normalized() {
        let mut rng = StdRng::seed_from_u64(3);
        let frame = synth_frame(&mut rng, 1.0);
        let mut descriptors = Vec::new();
        extract_descriptors(&frame, 100.0, &mut descriptors);
        assert!(!descriptors.is_empty());
        for d in &descriptors {
            let norm: f32 = d.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
        }
    }

    #[test]
    fn a_reused_descriptor_vec_holds_only_the_last_frame() {
        let mut rng = StdRng::seed_from_u64(6);
        let (busy, calm) = (synth_frame(&mut rng, 1.0), synth_frame(&mut rng, 0.3));
        let mut reused = Vec::new();
        extract_descriptors(&busy, 100.0, &mut reused);
        extract_descriptors(&calm, 100.0, &mut reused);
        let mut fresh = Vec::new();
        extract_descriptors(&calm, 100.0, &mut fresh);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn descriptor_distance_is_metric_like() {
        let a: Descriptor = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let b: Descriptor = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(descriptor_distance(&a, &a), 0.0);
        assert!((descriptor_distance(&a, &b) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn descriptor_tuple_round_trips() {
        let d: Descriptor = [0.5; BINS];
        let t = descriptor_tuple(42, &d, Vec::new());
        let (id, back) = tuple_descriptor(&t).unwrap();
        assert_eq!(id, 42);
        assert_eq!(back, d);
    }

    #[test]
    fn extract_bolt_emits_descriptor_tuples() {
        let mut rng = StdRng::seed_from_u64(4);
        let frame = synth_frame(&mut rng, 1.0);
        let mut bolt = ExtractBolt::new();
        let mut out = VecCollector::new();
        bolt.execute(
            &Tuple::new(vec![Value::Int(7), Value::Bytes(frame)]),
            &mut out,
        );
        assert!(!out.tuples().is_empty());
        for t in out.tuples() {
            assert_eq!(t.field(0).and_then(Value::as_int), Some(7));
            assert_eq!(t.len(), 1 + BINS);
        }
    }

    #[test]
    fn match_bolt_filters_by_distance() {
        // max_distance 2.0 is the theoretical max for unit vectors: every
        // descriptor matches. 0.0: essentially none.
        let mut rng = StdRng::seed_from_u64(5);
        let frame = synth_frame(&mut rng, 1.0);
        let mut extract = ExtractBolt::new();
        let mut descriptors = VecCollector::new();
        extract.execute(
            &Tuple::new(vec![Value::Int(1), Value::Bytes(frame)]),
            &mut descriptors,
        );
        let run = |max_distance: f32| {
            let mut matcher = MatchBolt::new(16, max_distance, 11);
            let mut out = VecCollector::new();
            for t in descriptors.tuples() {
                matcher.execute(t, &mut out);
            }
            out.tuples().len()
        };
        assert_eq!(run(2.1), descriptors.tuples().len());
        assert!(run(1e-6) < descriptors.tuples().len());
    }

    #[test]
    fn aggregate_bolt_fires_once_at_threshold() {
        let mut agg = AggregateBolt::new(3);
        let mut out = VecCollector::new();
        for _ in 0..5 {
            agg.execute(&Tuple::new(vec![Value::Int(9), Value::Int(1)]), &mut out);
        }
        // Fires exactly once (at the 3rd match), not on the 4th/5th.
        assert_eq!(out.tuples().len(), 1);
        assert_eq!(
            out.tuples()[0].field(1).and_then(Value::as_text),
            Some("logo-detected")
        );
    }

    #[test]
    fn frame_spout_respects_limit() {
        let mut s = FrameSpout::new(1000.0, 1, Some(3));
        assert!(s.next().is_some());
        assert!(s.next().is_some());
        assert!(s.next().is_some());
        assert!(s.next().is_none());
    }
}
