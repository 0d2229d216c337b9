//! The real instruments (compiled with the `telemetry` feature).
//!
//! Recording is atomics only — counters are `fetch_add`, gauges are
//! f64-bit CAS, histogram cells are `fetch_add` on a fixed array — and
//! every mutating method early-returns on one cached bool load while the
//! runtime gate ([`enabled`]) is off. The registry's mutex is touched
//! only to *look up or create* an instrument handle; call sites cache
//! handles (statics, struct fields) so steady state never sees the lock.

use crate::snapshot::{bucket_bound, bucket_index, HistogramSnapshot, BUCKET_CELLS};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static OVERRIDE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        crate::read_enabled_with(|key| std::env::var(key).ok(), crate::warn_invalid_env)
    })
}

/// Whether recording is live: the `LOGIT_TELEMETRY` switch (read once
/// per process; unparseable values warn once through
/// [`warn_invalid_env`](crate::warn_invalid_env) and mean "off"), or a
/// prior [`enable`] call.
pub fn enabled() -> bool {
    OVERRIDE.load(Ordering::Acquire) || env_enabled()
}

/// Forces recording on for this process (harnesses and benches that want
/// distributions without touching the environment). Returns the
/// effective state — always `true` in feature builds.
pub fn enable() -> bool {
    OVERRIDE.store(true, Ordering::Release);
    true
}

/// The monotonic event counter. Clones share one atomic cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if recording() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins f64 gauge with atomic add. Clones share one cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    fn new() -> Self {
        // 0u64 is the bit pattern of 0.0f64.
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if recording() {
            self.0.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative) via a CAS loop.
    #[inline]
    pub fn add(&self, delta: f64) {
        if !recording() {
            return;
        }
        let mut bits = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(bits) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(bits, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(current) => bits = current,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramCells {
    buckets: [AtomicU64; BUCKET_CELLS],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// The fixed-bucket log-scale histogram (see
/// [`BUCKET_CELLS`] for the bucket layout). Clones share cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snapshot = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snapshot.count)
            .field("sum", &snapshot.sum)
            .finish()
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram(Arc::new(HistogramCells {
            buckets: [const { AtomicU64::new(0) }; BUCKET_CELLS],
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }))
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: f64) {
        if !recording() {
            return;
        }
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let mut bits = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(bits) + value).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                bits,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(current) => bits = current,
            }
        }
    }

    /// An RAII timer: records the elapsed time in **nanoseconds** into
    /// this histogram when dropped. While recording is off the span
    /// holds nothing and never reads the clock.
    pub fn span(&self) -> Span {
        if recording() {
            Span {
                started: Some(Instant::now()),
                histogram: Some(self.clone()),
            }
        } else {
            Span {
                started: None,
                histogram: None,
            }
        }
    }

    /// Point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKET_CELLS];
        for (cell, bucket) in buckets.iter_mut().zip(&self.0.buckets) {
            *cell = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// The RAII stage timer handed out by [`Histogram::span`] and [`span`].
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    started: Option<Instant>,
    histogram: Option<Histogram>,
}

impl Span {
    /// Ends the span without recording: for a stage whose clock had to
    /// start before it was known whether the stage counts.
    pub fn discard(mut self) {
        self.histogram = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(started), Some(histogram)) = (self.started, self.histogram.take()) {
            histogram.record(started.elapsed().as_nanos() as f64);
        }
    }
}

/// Times a stage against the named histogram of the [`global`] registry:
/// `let _span = span("farm.chunk_ns");`. Instrumentation that runs per
/// chunk should cache a [`Histogram`] handle and use
/// [`Histogram::span`] instead — this convenience takes the registry
/// lock to resolve the name.
pub fn span(name: &str) -> Span {
    global().histogram(name).span()
}

#[inline]
fn recording() -> bool {
    enabled()
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// Named instruments under one lock (taken at registration/lookup only;
/// recording through the returned handles is lock-free).
pub struct MetricsRegistry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide registry every engine layer instruments into and
/// every surface (`STATS` frame, bench dump) renders from.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

impl MetricsRegistry {
    /// An empty registry (tests; everything real uses [`global`]).
    pub fn new() -> Self {
        MetricsRegistry {
            instruments: Mutex::new(BTreeMap::new()),
        }
    }

    fn instrument(
        &self,
        name: &str,
        make: impl FnOnce() -> Instrument,
        want: &'static str,
    ) -> Instrument {
        let mut instruments = self.instruments.lock().expect("registry poisoned");
        let entry = instruments.entry(name.to_string()).or_insert_with(make);
        assert_eq!(
            entry.kind(),
            want,
            "instrument `{name}` is already registered as a {}",
            entry.kind()
        );
        match entry {
            Instrument::Counter(c) => Instrument::Counter(c.clone()),
            Instrument::Gauge(g) => Instrument::Gauge(g.clone()),
            Instrument::Histogram(h) => Instrument::Histogram(h.clone()),
        }
    }

    /// The named counter, created on first use. Panics if `name` is
    /// already a gauge or histogram (a programming error).
    pub fn counter(&self, name: &str) -> Counter {
        match self.instrument(name, || Instrument::Counter(Counter::new()), "counter") {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// [`counter`](Self::counter) with one `{key="value"}` label
    /// distinguishing an instance within a family.
    pub fn counter_labelled(&self, name: &str, label: (&str, &str)) -> Counter {
        self.counter(&labelled_key(name, label))
    }

    /// The named gauge, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.instrument(name, || Instrument::Gauge(Gauge::new()), "gauge") {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// [`gauge`](Self::gauge) with one `{key="value"}` label.
    pub fn gauge_labelled(&self, name: &str, label: (&str, &str)) -> Gauge {
        self.gauge(&labelled_key(name, label))
    }

    /// The named histogram, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.instrument(
            name,
            || Instrument::Histogram(Histogram::new()),
            "histogram",
        ) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// [`histogram`](Self::histogram) with one `{key="value"}` label.
    pub fn histogram_labelled(&self, name: &str, label: (&str, &str)) -> Histogram {
        self.histogram(&labelled_key(name, label))
    }

    /// How many instruments have been registered.
    pub fn instrument_count(&self) -> usize {
        self.instruments.lock().expect("registry poisoned").len()
    }

    /// Renders every instrument in Prometheus text exposition format
    /// (dot-names sanitised to underscores, histograms as cumulative
    /// `_bucket`/`_sum`/`_count` plus `_p50`/`_p95`/`_p99` gauges —
    /// quantile gauges only once the histogram is non-empty). The
    /// output round-trips through
    /// [`parse_prometheus`](crate::parse_prometheus).
    pub fn render(&self) -> String {
        let instruments = self.instruments.lock().expect("registry poisoned");
        let mut out = String::from("# logit-telemetry snapshot\n");
        if !recording() {
            out.push_str("# recording disabled (set LOGIT_TELEMETRY=1)\n");
        }
        let mut typed: BTreeSet<String> = BTreeSet::new();
        for (key, instrument) in instruments.iter() {
            let (family, labels) = split_key(key);
            match instrument {
                Instrument::Counter(c) => {
                    type_line(&mut out, &mut typed, &family, "counter");
                    sample_line(&mut out, &family, labels, None, &c.value().to_string());
                }
                Instrument::Gauge(g) => {
                    type_line(&mut out, &mut typed, &family, "gauge");
                    sample_line(&mut out, &family, labels, None, &g.value().to_string());
                }
                Instrument::Histogram(h) => {
                    let snapshot = h.snapshot();
                    type_line(&mut out, &mut typed, &family, "histogram");
                    let mut cumulative = 0u64;
                    for (index, &cell) in snapshot.buckets.iter().enumerate() {
                        cumulative += cell;
                        let bound = bucket_bound(index);
                        let le = if bound.is_finite() {
                            format!("{}", bound as u64)
                        } else {
                            "+Inf".to_string()
                        };
                        sample_line(
                            &mut out,
                            &format!("{family}_bucket"),
                            labels,
                            Some(("le", &le)),
                            &cumulative.to_string(),
                        );
                    }
                    sample_line(
                        &mut out,
                        &format!("{family}_sum"),
                        labels,
                        None,
                        &snapshot.sum.to_string(),
                    );
                    sample_line(
                        &mut out,
                        &format!("{family}_count"),
                        labels,
                        None,
                        &snapshot.count.to_string(),
                    );
                    for (suffix, quantile) in [
                        ("p50", snapshot.p50()),
                        ("p95", snapshot.p95()),
                        ("p99", snapshot.p99()),
                    ] {
                        if let Some(value) = quantile {
                            let family = format!("{family}_{suffix}");
                            type_line(&mut out, &mut typed, &family, "gauge");
                            let value = if value.is_finite() {
                                value.to_string()
                            } else {
                                "+Inf".to_string()
                            };
                            sample_line(&mut out, &family, labels, None, &value);
                        }
                    }
                }
            }
        }
        out
    }
}

/// `name{key="value"}` — the registry key of one labelled instance.
fn labelled_key(name: &str, (key, value): (&str, &str)) -> String {
    format!("{name}{{{key}=\"{value}\"}}")
}

/// Splits a registry key into its sanitised family name and the raw
/// label block (without braces), if any.
fn split_key(key: &str) -> (String, Option<&str>) {
    let (name, labels) = match key.split_once('{') {
        Some((name, rest)) => (name, rest.strip_suffix('}')),
        None => (key, None),
    };
    let family: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    (family, labels)
}

fn type_line(out: &mut String, typed: &mut BTreeSet<String>, family: &str, kind: &str) {
    if typed.insert(family.to_string()) {
        out.push_str(&format!("# TYPE {family} {kind}\n"));
    }
}

fn sample_line(
    out: &mut String,
    family: &str,
    labels: Option<&str>,
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(family);
    match (labels, extra) {
        (None, None) => {}
        (Some(labels), None) => out.push_str(&format!("{{{labels}}}")),
        (None, Some((k, v))) => out.push_str(&format!("{{{k}=\"{v}\"}}")),
        (Some(labels), Some((k, v))) => out.push_str(&format!("{{{labels},{k}=\"{v}\"}}")),
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_prometheus;

    fn live() {
        assert!(enable(), "tests force recording on");
    }

    #[test]
    fn counters_and_gauges_record_through_shared_handles() {
        live();
        let registry = MetricsRegistry::new();
        let counter = registry.counter("test.counter");
        let same = registry.counter("test.counter");
        counter.inc();
        same.add(4);
        assert_eq!(counter.value(), 5, "clones share one cell");

        let gauge = registry.gauge("test.gauge");
        gauge.set(2.5);
        gauge.add(-1.0);
        assert_eq!(gauge.value(), 1.5);
        assert_eq!(registry.instrument_count(), 2);
    }

    #[test]
    fn labelled_instances_are_distinct_within_a_family() {
        live();
        let registry = MetricsRegistry::new();
        registry
            .counter_labelled("family.total", ("worker", "0"))
            .add(3);
        registry
            .counter_labelled("family.total", ("worker", "1"))
            .add(5);
        assert_eq!(
            registry
                .counter_labelled("family.total", ("worker", "0"))
                .value(),
            3
        );
        assert_eq!(registry.instrument_count(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn name_reuse_across_kinds_is_a_loud_error() {
        let registry = MetricsRegistry::new();
        let _counter = registry.counter("test.kind_clash");
        let _gauge = registry.gauge("test.kind_clash");
    }

    #[test]
    fn histogram_records_at_below_and_above_bucket_edges() {
        live();
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("test.edges");
        histogram.record(0.5); // below the first bound → bucket 0
        histogram.record(1.0); // at the first bound → bucket 0
        histogram.record(1024.0); // at an interior bound → bucket 10
        histogram.record(1024.5); // just above → bucket 11
        histogram.record(1e30); // far past the last bound → overflow
        histogram.record(f64::INFINITY); // saturates, never panics
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 6);
        assert_eq!(snapshot.buckets[0], 2);
        assert_eq!(snapshot.buckets[10], 1);
        assert_eq!(snapshot.buckets[11], 1);
        assert_eq!(snapshot.buckets[crate::BUCKET_CELLS - 1], 2);
        assert_eq!(snapshot.p50(), Some(1024.0));
    }

    #[test]
    fn concurrent_histogram_and_counter_updates_are_exact() {
        live();
        let registry = MetricsRegistry::new();
        let counter = registry.counter("test.contended_counter");
        let histogram = registry.histogram("test.contended_histogram");
        let threads = 8usize;
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let counter = counter.clone();
                let histogram = histogram.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        counter.add(2);
                        // Spread across buckets so cells contend too.
                        histogram.record(((t as u64 * per_thread + i) % 4096) as f64);
                    }
                });
            }
        });
        let expected = threads as u64 * per_thread;
        assert_eq!(counter.value(), 2 * expected, "no lost counter updates");
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, expected, "no lost histogram records");
        assert_eq!(
            snapshot.buckets.iter().sum::<u64>(),
            expected,
            "every record landed in exactly one bucket"
        );
    }

    #[test]
    fn spans_feed_their_histogram_in_nanoseconds() {
        live();
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("test.span_ns");
        {
            let _span = histogram.span();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 1);
        assert!(
            snapshot.sum >= 2e6,
            "2 ms must record at least 2e6 ns, got {}",
            snapshot.sum
        );
        histogram.span().discard();
        assert_eq!(
            histogram.snapshot().count,
            1,
            "a discarded span records nothing"
        );
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        live();
        let registry = MetricsRegistry::new();
        registry.counter("demo.jobs").add(7);
        registry
            .gauge_labelled("demo.depth", ("queue", "main"))
            .set(3.0);
        let histogram = registry.histogram("demo.latency_ns");
        histogram.record(100.0);
        histogram.record(2000.0);
        let text = registry.render();
        let samples = parse_prometheus(&text).expect("render must parse");
        assert_eq!(samples["demo_jobs"], 7.0);
        assert_eq!(samples["demo_depth{queue=\"main\"}"], 3.0);
        assert_eq!(samples["demo_latency_ns_count"], 2.0);
        assert_eq!(samples["demo_latency_ns_sum"], 2100.0);
        assert_eq!(samples["demo_latency_ns_bucket{le=\"128\"}"], 1.0);
        assert_eq!(samples["demo_latency_ns_bucket{le=\"+Inf\"}"], 2.0);
        assert_eq!(samples["demo_latency_ns_p50"], 128.0);
        assert_eq!(samples["demo_latency_ns_p99"], 2048.0);
        // Sanity: no unsanitised dots leak into sample names.
        assert!(samples.keys().all(|k| !k.contains('.')), "{samples:?}");
    }

    #[test]
    fn the_global_registry_is_one_process_wide_instance() {
        live();
        global().counter("test.global_pin").inc();
        assert_eq!(global().counter("test.global_pin").value(), 1);
    }
}
