//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (spans inside the program are a later change). They
//! are kept in memory and written out as JSON lines when the run ends.
//! Tracing is switched by one global flag so that a traced run can
//! measure a stretch with the decorators idle and a stretch with them
//! recording; the difference is the tracing overhead.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One span: a named interval caused by `parent`, tagged with the window
/// or frame it belongs to. Spans of one window (or one frame) share `key`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; `0` for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Window index or frame id.
    pub key: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Ids at and above this are derived from a frame id (see [`frame_span_id`])
/// rather than drawn from the counter.
const FRAME_ID_BASE: u64 = 1 << 48;

/// Whether the decorators record right now.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switches recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the process's trace epoch (first use).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span id.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The id of the one span a frame has at `stage` (0 = spout emit,
/// 1 = extract): computable by a downstream decorator that knows only the
/// frame id, which is how a bolt's span names its cause without the tuple
/// carrying trace context.
pub fn frame_span_id(frame: u64, stage: u64) -> u64 {
    FRAME_ID_BASE + frame * 4 + stage
}

/// Appends finished spans to the process-wide sink.
pub fn flush(spans: &mut Vec<Span>) {
    if spans.is_empty() {
        return;
    }
    SINK.lock()
        .expect("no span producer panics while holding the sink")
        .append(spans);
}

/// Records one span under a fresh id, which it returns (for children to
/// name as their parent).
pub fn record(parent: u64, name: &'static str, start_ns: u64, end_ns: u64, key: u64) -> u64 {
    let id = next_id();
    SINK.lock()
        .expect("no span producer panics while holding the sink")
        .push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            key,
        });
    id
}

/// Takes every recorded span, ordered by start time.
pub fn take_all() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SINK
            .lock()
            .expect("no span producer panics while holding the sink"),
    );
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time per span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice;
/// a child reaching outside its parent is clipped). Returns `(id, self_ns)`
/// in input order.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Total self time per span name, sorted by name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by_name: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (span, (_, self_ns)) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(span.name).or_default() += self_ns;
    }
    by_name.into_iter().collect()
}

/// Writes spans as JSON lines: `{name, start_ns, end_ns, id, parent, key}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"id\": {}, \"parent\": {}, \"key\": {}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.key
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
            key: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            // Overlaps span 2 by 10 ns: the union [10, 50) covers 40 ns.
            span(3, 1, 20, 50),
            // Reaches past the parent's end: clipped to [90, 100).
            span(4, 1, 90, 120),
            // A grandchild shortens its parent (span 2), not the root.
            span(5, 2, 12, 18),
        ];
        let st: std::collections::HashMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20 - 6);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&5], 6);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name, vec![("child", 14 + 30 + 30 + 6), ("root", 50)]);
    }

    #[test]
    fn frame_span_ids_do_not_collide_with_counter_ids() {
        assert!(frame_span_id(0, 0) > next_id());
        assert_ne!(frame_span_id(7, 0), frame_span_id(7, 1));
        assert_ne!(frame_span_id(7, 1), frame_span_id(8, 0));
    }
}
