//! The benchmark's own span recorder: spans opened around calls into each
//! layer's public functions, kept in memory and written out when the run
//! ends. Nothing inside the measured crates is instrumented.
//!
//! A span carries a name, a start and an end (nanoseconds since the
//! tracer's epoch), the span that caused it and the job it belongs to. A
//! layer's self time is its duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in the tracer's record; [`SpanId::NONE`] when tracing
/// is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The id every call returns on a disabled tracer.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// Equal to `start_ns` until the span is closed.
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; every call is a no-op when disabled, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (if any) for `job` (if any).
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, job: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span record poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.filter(|p| *p != SpanId::NONE).map(|p| p.0),
            job,
        });
        SpanId(spans.len() - 1)
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&self, id: SpanId) {
        if !self.enabled || id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("span record poisoned")[id.0].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span record poisoned").clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            span.duration_ns()
                .saturating_sub(covered(span.start_ns, span.end_ns, kids))
        })
        .collect()
}

/// Length of the part of `[lo, hi]` that the union of `intervals` covers.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per-name totals: `(count, total duration, total self time)` in ns.
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += self_ns;
    }
    out
}

/// The spans as JSON lines, one object per span with its self time.
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (id, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let job = span.job.map_or("null".to_string(), |j| j.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {job}, \"self_ns\": {self_ns}}}",
            span.name, span.start_ns, span.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: Some(1),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            // Two overlapping children count their union once.
            span("run", 30, 60, Some(0)),
            span("reduce", 50, 70, Some(0)),
            // A child running past its parent is clipped to the parent.
            span("encode", 90, 120, Some(0)),
            span("inner", 35, 40, Some(2)),
        ];
        let selfs = self_times(&spans);
        // job: 100 − (10 + 40 + 10) = 40.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 10);
        assert_eq!(selfs[2], 25);
        assert_eq!(selfs[3], 20);
        assert_eq!(selfs[4], 30);
        assert_eq!(selfs[5], 5);
    }

    #[test]
    fn a_fully_covered_parent_has_no_self_time() {
        let spans = vec![
            span("job", 0, 50, None),
            span("a", 0, 30, Some(0)),
            span("b", 20, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        let summary = summarise(&spans);
        assert_eq!(summary["job"], (1, 50, 0));
        assert_eq!(summary["a"], (1, 30, 30));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.open("job", None, Some(3));
        assert_eq!(id, SpanId::NONE);
        tracer.close(id);
        assert_eq!(tracer.span("run", Some(id), None, || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn an_enabled_tracer_links_children_to_parents() {
        let tracer = Tracer::new(true);
        let job = tracer.open("job", None, Some(9));
        tracer.span("parse", Some(job), Some(9), || ());
        tracer.close(job);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(to_json_lines(&spans).contains("\"name\": \"parse\""));
    }
}
