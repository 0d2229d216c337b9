//! The repository benchmark: one seeded workload per run, driven from one
//! process through the public API of the engine and server crates.
//!
//! ```text
//! perfbench --workload <serve-small|serve-heavy|sweep-1e6> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Every metric is printed on its own line with its unit; the last line of
//! standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) that
//! `BENCHMARK.json` lists. The traced run records spans around the calls
//! into each layer and writes them to `<out-dir>/trace-<workload>-<seed>.jsonl`.
//! The process exits non-zero, without a result line, when it cannot
//! measure; a failed correctness check is reported in the result instead.

mod gen;
mod probe;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, reported with tracing off (`BENCHMARK.json`
/// `end_to_end`). Every workload measures each of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("offline_jobs_per_s", "1/s"),
    ("sweep_updates_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run (`BENCHMARK.json`
/// `per_layer`). Every workload measures each of them.
const PER_LAYER: [(&str, &str); 16] = [
    ("rules.kernel_ns", "ns"),
    ("dynamics.step_ns", "ns"),
    ("dynamics.step_over_kernel", "ratio"),
    ("simulate.ensemble_ms", "ms"),
    ("simulate.ensemble_over_step", "ratio"),
    ("runtime.dispatches_per_job", "count"),
    ("runtime.dispatches_per_round", "count"),
    ("locality.tick_us", "us"),
    ("locality.pooled_over_inline", "ratio"),
    ("locality.moved_ratio", "ratio"),
    ("locality.bytes_per_update", "B"),
    ("graphs.build_ms", "ms"),
    ("graphs.colouring_ms", "ms"),
    ("graphs.layout_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.accounted_share", "ratio"),
];

const WORKLOADS: [&str; 3] = ["serve-small", "serve-heavy", "sweep-1e6"];

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out_dir: Option<PathBuf>,
    /// When the process started measuring: the start of the first set-up.
    pub started: Instant,
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let mut take = |key: &str| values.remove(key).ok_or_else(|| format!("missing --{key}"));
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let number = |key: &str, raw: String| {
        raw.parse::<u64>()
            .map_err(|_| format!("--{key} needs a whole number, got `{raw}`"))
    };
    let seed = number("seed", take("seed")?)?;
    let seconds = number("seconds", take("seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let out_dir = values.remove("out-dir").map(PathBuf::from);
    if let Some(key) = values.keys().next() {
        return Err(format!("unknown option --{key}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
        started,
    })
}

/// The figures and failures of one run.
#[derive(Default)]
pub struct Report {
    e2e: BTreeMap<&'static str, (f64, &'static str)>,
    layer: BTreeMap<&'static str, (f64, &'static str)>,
    pub attempted: u64,
    failures: Vec<String>,
}

impl Report {
    /// An end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
        self.e2e.insert(name, (value, unit));
    }

    /// A per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("layer {name} = {value} {unit}");
        self.layer.insert(name, (value, unit));
    }

    /// A metric this workload measures that not every workload can, so
    /// `BENCHMARK.json` does not list it: printed, not in the result line.
    pub fn extra(&self, name: &'static str, value: f64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
    }

    pub fn note(&self, line: String) {
        println!("# {line}");
    }

    /// A failed operation or check; it counts in `error_rate`.
    pub fn fail(&mut self, what: String) {
        eprintln!("FAILED: {what}");
        self.failures.push(what);
    }
}

/// The JSON result line: the metrics of `names`, each as measured.
fn result_line(
    report: &Report,
    names: &[(&str, &str)],
    measured: &BTreeMap<&'static str, (f64, &'static str)>,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, &(name, unit)) in names.iter().enumerate() {
        let &(value, got_unit) = measured
            .get(name)
            .ok_or_else(|| format!("the run did not measure {name}"))?;
        if got_unit != unit || !value.is_finite() {
            return Err(format!(
                "{name} = {value} {got_unit} is not a {unit} figure"
            ));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failures.is_empty(),
        report.attempted.max(1),
        report.failures.len()
    ))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The host facts recorded with every result.
fn host_facts() -> String {
    let cache = |index: u32| {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        ))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    format!(
        "host: nproc {nproc}, L2 {} per core, L3 {}; sweep-1e6 computed working set {:.1} MB",
        cache(2),
        cache(3),
        sweep::working_set_mb()
    )
}

/// Cost of recording one span, in seconds: the median over batches of
/// open/close pairs on a scratch tracer.
fn span_cost_secs() -> f64 {
    let mut batches = Vec::new();
    for _ in 0..5 {
        let tracer = trace::Tracer::new(true);
        let clock = Instant::now();
        for _ in 0..10_000 {
            let id = tracer.open("calibrate", None, None);
            tracer.close(id);
        }
        batches.push(clock.elapsed().as_secs_f64() / 10_000.0);
    }
    stats::median(&batches)
}

/// Cost of one in-crate telemetry event, in seconds: a labelled registry
/// lookup followed by a histogram span, the dearest pattern the crates
/// use; the median over batches on a scratch registry.
fn telemetry_event_cost_secs() -> f64 {
    let registry = logit_telemetry::MetricsRegistry::new();
    let labels: Vec<String> = (0..4).map(|i| i.to_string()).collect();
    let mut batches = Vec::new();
    for _ in 0..5 {
        let clock = Instant::now();
        for i in 0..10_000 {
            let _span = registry
                .histogram_labelled("perfbench.calibrate", ("pair", &labels[i % 4]))
                .span();
        }
        batches.push(clock.elapsed().as_secs_f64() / 10_000.0);
    }
    stats::median(&batches)
}

/// The events the crates' own telemetry recorded, from a registry render:
/// every counter's value plus every histogram's observation count. A
/// counter that one call raises by more than one makes this an over-count;
/// gauge stores are not counted, as each rides along with a counted event.
fn telemetry_events(render: &str) -> f64 {
    let mut kinds: BTreeMap<&str, &str> = BTreeMap::new();
    let mut events = 0.0;
    for line in render.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((family, kind)) = rest.split_once(' ') {
                kinds.insert(family, kind);
            }
            continue;
        }
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = key.split('{').next().unwrap_or(key);
        let counted = kinds.get(name) == Some(&"counter")
            || name
                .strip_suffix("_count")
                .is_some_and(|family| kinds.get(family) == Some(&"histogram"));
        if counted && !line.starts_with('#') {
            events += value.parse::<f64>().unwrap_or(0.0);
        }
    }
    events
}

fn run(args: &Args) -> Result<String, String> {
    let tracer = trace::Tracer::new(args.trace);
    if args.trace {
        // Recording in the telemetry build is gated at run time as well.
        logit_telemetry::enable();
    }
    let mut report = Report::default();
    println!(
        "# workload {} seed {} seconds {} trace {} (held-out seed for claim checks: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gen::HELD_OUT_SEED
    );
    report.note(host_facts());
    match args.workload.as_str() {
        "serve-small" => serve::run(false, args, &tracer, &mut report)?,
        "serve-heavy" => serve::run(true, args, &tracer, &mut report)?,
        "sweep-1e6" => sweep::run(args, &tracer, &mut report)?,
        other => unreachable!("workload {other} was validated"),
    }
    report.extra(
        "error_rate",
        report.failures.len() as f64 / report.attempted.max(1) as f64,
        "ratio",
    );

    if !args.trace {
        return result_line(&report, &END_TO_END, &report.e2e);
    }
    let spans = tracer.spans();
    let traced_secs = args.started.elapsed().as_secs_f64();
    let events = telemetry_events(&logit_telemetry::global().render());
    report.layer(
        "trace.overhead_share",
        (spans.len() as f64 * span_cost_secs() + events * telemetry_event_cost_secs())
            / traced_secs,
        "ratio",
    );
    report.note(format!(
        "trace.overhead_share is computed: {} benchmark spans × the calibrated cost of one span, plus {events} events of the crates' telemetry × the calibrated cost of a labelled registry lookup and span, ÷ {traced_secs:.3} s of traced run",
        spans.len()
    ));
    for (name, (count, total, self_ns)) in trace::summarise(&spans) {
        report.note(format!(
            "span {name}: {count} spans, {:.3} ms total, {:.3} ms self",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, trace::to_json_lines(&spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
    }
    result_line(&report, &PER_LAYER, &report.layer)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` lists, in order, for one of its metric
    /// arrays.
    fn listed(key: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn the_metric_lists_match_benchmark_json() {
        let names =
            |list: &[(&str, &str)]| list.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end"), names(&END_TO_END));
        assert_eq!(listed("per_layer"), names(&PER_LAYER));
        assert_eq!(listed("workloads"), WORKLOADS.to_vec());
    }

    #[test]
    fn telemetry_events_sum_counters_and_histogram_counts() {
        let render = "# logit-telemetry snapshot\n\
            # TYPE pipeline_batches_sent counter\n\
            pipeline_batches_sent{backend=\"spsc\"} 7\n\
            pipeline_batches_sent{backend=\"mpsc\"} 2\n\
            # TYPE pipeline_channel_in_flight gauge\n\
            pipeline_channel_in_flight 40\n\
            # TYPE runtime_dispatch_ns histogram\n\
            runtime_dispatch_ns_bucket{le=\"+Inf\"} 5\n\
            runtime_dispatch_ns_sum 900\n\
            runtime_dispatch_ns_count 5\n\
            # TYPE runtime_dispatch_ns_p50 gauge\n\
            runtime_dispatch_ns_p50 128\n";
        assert_eq!(telemetry_events(render), 14.0);
    }

    #[test]
    fn the_result_line_refuses_a_missing_metric() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.e2e("setup_s", 0.5, "s");
        assert!(result_line(&report, &END_TO_END, &report.e2e).is_err());
        let line = result_line(&report, &[("setup_s", "s")], &report.e2e).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
