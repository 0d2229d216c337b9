//! The feature-off build: every instrument is a zero-sized struct and
//! every method an empty inlineable body, so instrumented code compiles
//! to exactly what it was before instrumentation. The API mirrors
//! `metrics.rs` signature-for-signature — a call site that builds
//! against one mode builds against the other.

use crate::snapshot::HistogramSnapshot;

/// Always `false`: a build without the `telemetry` feature cannot record.
#[inline]
pub fn enabled() -> bool {
    false
}

/// Refuses (returns `false`): recording needs the `telemetry` feature
/// compiled in; the runtime switch alone cannot conjure instruments.
#[inline]
pub fn enable() -> bool {
    false
}

/// A zero-sized counter that ignores every update.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter;

impl Counter {
    /// Does nothing.
    #[inline]
    pub fn inc(&self) {}

    /// Does nothing.
    #[inline]
    pub fn add(&self, _n: u64) {}

    /// Always zero.
    #[inline]
    pub fn value(&self) -> u64 {
        0
    }
}

/// A zero-sized gauge that ignores every update.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauge;

impl Gauge {
    /// Does nothing.
    #[inline]
    pub fn set(&self, _value: f64) {}

    /// Does nothing.
    #[inline]
    pub fn add(&self, _delta: f64) {}

    /// Always zero.
    #[inline]
    pub fn value(&self) -> f64 {
        0.0
    }
}

/// A zero-sized histogram that ignores every record.
#[derive(Clone, Copy, Debug, Default)]
pub struct Histogram;

impl Histogram {
    /// Does nothing.
    #[inline]
    pub fn record(&self, _value: f64) {}

    /// A span that never reads the clock and records nothing on drop.
    #[inline]
    pub fn span(&self) -> Span {
        Span
    }

    /// Always empty.
    #[inline]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::default()
    }
}

/// A zero-sized span: dropping it is a no-op.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
#[derive(Debug, Default)]
pub struct Span;

impl Span {
    /// Does nothing.
    #[inline]
    pub fn discard(self) {}
}

/// A span over nothing.
#[inline]
pub fn span(_name: &str) -> Span {
    Span
}

/// A zero-sized registry: lookups hand back no-op instruments and no
/// name is ever stored.
#[derive(Debug, Default)]
pub struct MetricsRegistry;

/// The process-wide registry — here a reference to a zero-sized unit.
#[inline]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: MetricsRegistry = MetricsRegistry;
    &GLOBAL
}

impl MetricsRegistry {
    /// An empty registry.
    #[inline]
    pub fn new() -> Self {
        MetricsRegistry
    }

    /// A no-op counter.
    #[inline]
    pub fn counter(&self, _name: &str) -> Counter {
        Counter
    }

    /// A no-op counter.
    #[inline]
    pub fn counter_labelled(&self, _name: &str, _label: (&str, &str)) -> Counter {
        Counter
    }

    /// A no-op gauge.
    #[inline]
    pub fn gauge(&self, _name: &str) -> Gauge {
        Gauge
    }

    /// A no-op gauge.
    #[inline]
    pub fn gauge_labelled(&self, _name: &str, _label: (&str, &str)) -> Gauge {
        Gauge
    }

    /// A no-op histogram.
    #[inline]
    pub fn histogram(&self, _name: &str) -> Histogram {
        Histogram
    }

    /// A no-op histogram.
    #[inline]
    pub fn histogram_labelled(&self, _name: &str, _label: (&str, &str)) -> Histogram {
        Histogram
    }

    /// Always zero: nothing registers.
    #[inline]
    pub fn instrument_count(&self) -> usize {
        0
    }

    /// A comment-only snapshot naming its state; parses to an empty map.
    pub fn render(&self) -> String {
        String::from("# logit-telemetry snapshot\n# telemetry disabled (built without the `telemetry` feature)\n")
    }
}
