//! In-memory span recorder for the traced run.
//!
//! A span is (id, name, start, end, parent). Spans are opened by
//! [`span`] around the benchmark's own calls into a layer and closed when
//! the returned guard drops; they stay in memory until the run ends, when
//! [`write_spans`] writes them out. With tracing off, [`span`] is one
//! relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTS: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since the recorder's epoch.
pub fn now() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// One closed span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<u64>,
}

/// Closes its span on drop.
pub struct Guard {
    open: Option<(u64, &'static str, f64, Option<u64>)>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, name, start, parent)) = self.open.take() else {
            return;
        };
        let end = now();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            name,
            start,
            end,
            parent,
        };
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Opens a span named `name` whose parent is the innermost open span on
/// this thread. A no-op unless recording is on.
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    Guard {
        open: Some((id, name, now(), parent)),
    }
}

/// Runs `f` inside a span.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = span(name);
    f()
}

/// Adds `n` to the counter `name`. A no-op unless recording is on.
pub fn count(name: &'static str, n: f64) {
    if ENABLED.load(Ordering::Relaxed) {
        *COUNTS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name)
            .or_insert(0.0) += n;
    }
}

/// Starts recording, discarding anything recorded before.
pub fn start() {
    epoch();
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    COUNTS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and hands back every closed span and counter.
pub fn stop() -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    ENABLED.store(false, Ordering::SeqCst);
    let spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    let counts = std::mem::take(&mut *COUNTS.lock().unwrap_or_else(|e| e.into_inner()));
    (spans, counts)
}

/// Writes spans as JSON lines: `{"id","name","start","end","parent"}`,
/// times in seconds since the recorder's epoch.
pub fn write_spans(out: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let line = serde_json::json!({
            "id": s.id,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": serde_json::Value::from(s.parent),
        });
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// [`write_spans`] to a new file at `path`.
pub fn write_spans_file(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_spans(&mut out, spans)?;
    out.flush()
}

/// Self time and call count per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub self_s: f64,
    pub calls: u64,
}

/// A span's self time is its duration minus the time its direct children
/// cover. Children run on the parent's thread inside its interval and do
/// not overlap one another, so their durations add.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_time.entry(p).or_insert(0.0) += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let own = (s.end - s.start) - child_time.get(&s.id).copied().unwrap_or(0.0);
        let entry = out.entry(s.name).or_default();
        entry.self_s += own.max(0.0);
        entry.calls += 1;
    }
    out
}

/// Seconds covered by root spans (spans without a parent), summed over
/// threads: the busy time the trace accounts for.
pub fn covered_seconds(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, name: &'static str, start: f64, end: f64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8].
        let spans = vec![
            sp(1, "root", 0.0, 10.0, None),
            sp(2, "a", 1.0, 4.0, Some(1)),
            sp(3, "b", 5.0, 9.0, Some(1)),
            sp(4, "c", 6.0, 8.0, Some(3)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_s, 10.0 - 3.0 - 4.0);
        assert_eq!(t["a"].self_s, 3.0);
        assert_eq!(t["b"].self_s, 4.0 - 2.0);
        assert_eq!(t["c"].self_s, 2.0);
        // Self times partition the root's interval.
        let total: f64 = t.values().map(|l| l.self_s).sum();
        assert_eq!(total, 10.0);
        assert_eq!(covered_seconds(&spans), 10.0);
    }

    #[test]
    fn repeated_names_add_up_with_call_counts() {
        let spans = vec![
            sp(1, "fit", 0.0, 2.0, None),
            sp(2, "fit", 3.0, 4.5, None),
            sp(3, "predict", 4.5, 5.0, None),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["fit"],
            LayerTime {
                self_s: 3.5,
                calls: 2
            }
        );
        assert_eq!(t["predict"].calls, 1);
        assert_eq!(covered_seconds(&spans), 4.0);
    }

    #[test]
    fn spans_are_written_one_json_line_each() {
        let spans = vec![sp(1, "root", 0.0, 2.5, None), sp(2, "a", 0.5, 1.0, Some(1))];
        let mut out = Vec::new();
        write_spans(&mut out, &spans).expect("writes to memory");
        let text = String::from_utf8(out).expect("utf-8");
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("one JSON object a line"))
            .collect();
        let field = |i: usize, key: &str| lines[i].get(key).expect("field present").clone();
        assert_eq!(lines.len(), 2);
        assert_eq!(field(0, "name").as_str(), Some("root"));
        assert!(field(0, "parent").is_null());
        assert_eq!(field(1, "parent").as_u64(), Some(1));
        assert_eq!(field(1, "end").as_f64(), Some(1.0));
    }

    #[test]
    fn recorder_nests_spans_on_one_thread() {
        start();
        {
            let _outer = span("outer");
            timed("inner", || std::hint::black_box(1 + 1));
            count("things", 2.0);
        }
        let (spans, counts) = stop();
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer recorded");
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!(counts["things"], 2.0);
        // Recording is off again: nothing more is kept.
        timed("late", || ());
        assert!(stop().0.is_empty());
    }
}
