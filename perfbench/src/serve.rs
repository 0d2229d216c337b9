//! `serve-small` and `serve-heavy`: an in-process `RunningServer` under a
//! closed loop of clients, the offline replay of every completed stream,
//! and — in the traced run — the ladder pass and the layer probes.

use crate::gen::{self, Expect, Job, Mode};
use crate::probe;
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::{Args, Report};
use logit_core::{
    coloring_for_graph, CancelToken, DynamicsEngine, LocalityLayout, Logit, Simulator,
};
use logit_games::{CoordinationGame, GraphicalCoordinationGame};
use logit_server::protocol::{
    read_frame, write_frame, ACCEPTED, CANCEL, CANCELLED, DONE, ERROR, FINAL, REJECTED, SERIES,
    SUBMIT,
};
use logit_server::{
    prepare, request_stats, run_direct, run_prepared, submit_job, ArtifactCache, ClientOutcome,
    JobSpec, PreparedJob, RunningServer, SeriesPoint, ServerConfig, StreamedResult,
};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// How long into its run a cancelled job is cancelled. The server streams
/// a series only after the job has run, so a cancel sent after the first
/// SERIES frame would only race the stream; this one lands mid-run, well
/// inside the shortest `serve-heavy` job.
const CANCEL_AFTER: Duration = Duration::from_millis(50);

/// The shared state of the timed window's closed-loop clients.
struct Window {
    /// The index of the next job to submit.
    next: AtomicUsize,
    began: Instant,
    length: Duration,
    /// The job index at whose submission `peak_rss_mb` is read, so that the
    /// reading covers the set-up and a fixed amount of served work, not
    /// however much a faster program serves in the window.
    rss_at: usize,
    rss: OnceLock<Result<f64, String>>,
}

/// What one submission ended with.
enum Outcome {
    Done(StreamedResult),
    Rejected(String),
    Cancelled {
        points: Vec<SeriesPoint>,
        cancel_secs: f64,
    },
    Error(String),
    Io(String),
}

impl Outcome {
    fn describe(&self) -> String {
        match self {
            Outcome::Done(_) => "DONE".into(),
            Outcome::Rejected(payload) => format!("REJECTED ({payload})"),
            Outcome::Cancelled { .. } => "CANCELLED".into(),
            Outcome::Error(payload) => format!("ERROR ({payload})"),
            Outcome::Io(e) => format!("IO error ({e})"),
        }
    }
}

/// One client-side submission.
struct Record {
    idx: usize,
    latency_secs: f64,
    outcome: Outcome,
}

pub fn run(heavy: bool, args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let clients = if heavy { 1 } else { 2 };
    let count = if heavy {
        12 * args.seconds as usize + 24
    } else {
        600 * args.seconds as usize + 600
    };
    // About a third of the jobs a window reaches on the host it was sized on.
    let rss_at = if heavy {
        args.seconds as usize
    } else {
        60 * args.seconds as usize
    };

    // Set-up: job generation, server start and warm-up jobs that fill the
    // artifact cache with the hot descriptions and spawn the pool. More
    // set-ups follow the measurements, for the median `setup_s`.
    let (server, jobs) = set_up(heavy, args.seed, count)?;
    let mut setups = vec![args.started.elapsed().as_secs_f64()];
    report.note(format!(
        "inputs: seed {} digest {:016x} ({} jobs generated)",
        args.seed,
        gen::jobs_digest(&jobs),
        jobs.len()
    ));

    // The timed window: a closed loop, each client submitting its next job
    // only after the previous one reached its terminal frame.
    let addr = server.addr();
    let before = server.stats();
    let stats_before = tracer.enabled().then(|| scrape(addr)).transpose()?;
    let window = Window {
        next: AtomicUsize::new(0),
        began: Instant::now(),
        length: Duration::from_secs(args.seconds),
        rss_at,
        rss: OnceLock::new(),
    };
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| client_loop(addr, &jobs, &window, tracer)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = window.began.elapsed().as_secs_f64();
    records.sort_by_key(|r| r.idx);
    let stats_after = tracer.enabled().then(|| scrape(addr)).transpose()?;
    let after = server.shutdown();

    // Outcomes against expectations.
    let mut reached = 0usize;
    let mut updates = 0u64;
    let mut latencies = Vec::new();
    let mut cancels: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut streams: Vec<(usize, &StreamedResult)> = Vec::new();
    let mut partial: Vec<(usize, &[SeriesPoint])> = Vec::new();
    for r in &records {
        let job = &jobs[r.idx % jobs.len()];
        match (job.expect, &r.outcome) {
            (Expect::Done, Outcome::Done(result)) => {
                reached += 1;
                updates += job.updates;
                latencies.push(r.latency_secs);
                streams.push((r.idx, result));
            }
            (Expect::Rejected(code), Outcome::Rejected(payload))
                if payload.split(':').next() == Some(code) =>
            {
                reached += 1;
            }
            (
                Expect::Cancelled,
                Outcome::Cancelled {
                    points,
                    cancel_secs,
                },
            ) => {
                reached += 1;
                let kind = match job.mode {
                    Mode::Pipelined => "cancel_pipelined_ms",
                    Mode::Tempered => "cancel_tempered_ms",
                };
                cancels.entry(kind).or_default().push(cancel_secs * 1e3);
                if !points.is_empty() {
                    partial.push((r.idx, points));
                }
            }
            (expect, outcome) => report.fail(format!(
                "job {}: expected {expect:?}, got {}",
                r.idx,
                outcome.describe()
            )),
        }
    }
    report.attempted += records.len() as u64;
    let internal = after.internal_errors - before.internal_errors;
    if internal > 0 {
        report.fail(format!("{internal} jobs hit the executor's panic backstop"));
    }

    let peak_rss_mb = window.rss.into_inner().unwrap_or_else(|| {
        Err(format!(
            "the window ended before job {rss_at}, where peak_rss_mb is read"
        ))
    })?;
    report.e2e("peak_rss_mb", peak_rss_mb, "MB");
    report.note(format!(
        "peak_rss_mb read at the submission of job {rss_at}"
    ));
    report.e2e("jobs_per_s", reached as f64 / elapsed, "1/s");
    report.e2e("latency_p50_ms", median(&latencies) * 1e3, "ms");
    report.e2e("sweep_updates_per_s", updates as f64 / elapsed, "1/s");
    report.note(format!(
        "window: {} jobs submitted by {clients} client(s) in {elapsed:.3} s, {} streams completed",
        records.len(),
        streams.len()
    ));
    if !heavy {
        report.extra("latency_p99_ms", latency_p99_ms(&latencies)?, "ms");
        report.note(format!("latency_p99_ms samples: {}", latencies.len()));
    } else {
        for kind in ["cancel_pipelined_ms", "cancel_tempered_ms"] {
            match cancels.get(kind) {
                Some(values) => {
                    report.extra(kind, median(values), "ms");
                    report.note(format!("{kind} samples: {}", values.len()));
                }
                None => report.note(format!("{kind}: no cancelled job of this kind ran")),
            }
        }
    }

    // Offline replay of every completed stream through `run_direct`: the
    // library path, and the check that each stream is bit-reproducible.
    let cache = ArtifactCache::new(ServerConfig::default().cache_capacity);
    let mut replays: HashMap<usize, (String, f64)> = HashMap::new();
    let mut replay_secs = Vec::new();
    for &(idx, streamed) in &streams {
        let Some(prepared) = admit(&jobs[idx % jobs.len()].text, &cache, report, idx) else {
            continue;
        };
        let span = tracer.open("simulate.run_direct", None, Some(idx as u64));
        let clock = Instant::now();
        let replay = run_direct(&prepared);
        let secs = clock.elapsed().as_secs_f64();
        tracer.close(span);
        replay_secs.push(secs);
        let text = replay.wire_text();
        if text != streamed.wire_text() {
            report.fail(format!("job {idx}: the stream differs from its replay"));
        }
        replays.insert(idx, (text, secs));
    }
    for &(idx, points) in &partial {
        let Some(prepared) = admit(&jobs[idx % jobs.len()].text, &cache, report, idx) else {
            continue;
        };
        let replay = run_direct(&prepared);
        if replay.points.get(..points.len()) != Some(points) {
            report.fail(format!(
                "job {idx}: the cancelled stream is not a prefix of its replay"
            ));
        }
    }
    report.e2e(
        "offline_jobs_per_s",
        replay_secs.len() as f64 / replay_secs.iter().sum::<f64>(),
        "1/s",
    );

    let window_hits = after.artifact_cache.hits - before.artifact_cache.hits;
    let window_misses = after.artifact_cache.misses - before.artifact_cache.misses;
    let hit_ratio = window_hits as f64 / (window_hits + window_misses).max(1) as f64;

    if tracer.enabled() {
        // STATS ground truth: the server's own stage histograms over the window.
        let (stats_before, stats_after) = (
            stats_before.expect("traced runs scrape STATS"),
            stats_after.expect("traced runs scrape STATS"),
        );
        let delta = |key: &str| -> Result<f64, String> {
            match (stats_after.get(key), stats_before.get(key)) {
                (Some(a), Some(b)) => Ok(a - b),
                _ => Err(format!(
                    "STATS lacks {key}: the traced run needs --features telemetry"
                )),
            }
        };
        let wall = delta("server_job_wall_ns_sum")?;
        let staged = delta("server_job_exec_ns_sum")? + delta("server_job_stream_ns_sum")?;
        let client_ns: f64 = records.iter().map(|r| r.latency_secs * 1e9).sum();
        report.layer("trace.accounted_share", staged / client_ns, "ratio");
        report.extra("server.queue_wait_share", 1.0 - staged / wall, "ratio");
        report.extra("server.cache_hit_ratio", hit_ratio, "ratio");

        ladder_pass(&jobs, &records, &replays, tracer, report);

        // Layer probes on the workload's first hot description.
        let (delta0, delta1, topology) = gen::probe_instance(heavy);
        let graph = gen::build_graph(topology);
        let n = graph.num_vertices();
        let edges = graph.num_edges();
        let base = CoordinationGame::from_deltas(delta0, delta1);
        let layout = LocalityLayout::from_graph(&graph, &coloring_for_graph(&graph));
        let relabelled = GraphicalCoordinationGame::new(layout.relabel_graph(&graph), base);
        let engine =
            DynamicsEngine::with_rule(GraphicalCoordinationGame::new(graph, base), Logit, 1.5);
        let start = probe::random_profile(args.seed, n);
        let (kernel_ns, step_ns) =
            probe::kernel_and_step(&engine, &start, args.seed, 200_000, tracer);
        report.layer("rules.kernel_ns", kernel_ns, "ns");
        report.layer("dynamics.step_ns", step_ns, "ns");
        report.layer("dynamics.step_over_kernel", step_ns / kernel_ns, "ratio");

        let ensemble: Vec<(f64, f64)> = streams
            .iter()
            .filter_map(|&(idx, _)| {
                replays
                    .get(&idx)
                    .map(|r| (jobs[idx % jobs.len()].updates, r.1))
            })
            .map(|(updates, secs)| (secs * 1e3, updates as f64 / secs))
            .collect();
        report.layer(
            "simulate.ensemble_ms",
            median(&ensemble.iter().map(|e| e.0).collect::<Vec<_>>()),
            "ms",
        );
        report.layer(
            "simulate.ensemble_over_step",
            median(&ensemble.iter().map(|e| e.1).collect::<Vec<_>>()) * step_ns * 1e-9,
            "ratio",
        );

        let sim = Simulator::new(args.seed, 1);
        let rounds = (2_000_000 / n as u64).max(4);
        let relabelled = DynamicsEngine::with_rule(relabelled, Logit, 1.5);
        let locality = probe::locality(
            &relabelled,
            &layout,
            &start,
            args.seed,
            rounds,
            &sim,
            tracer,
        );
        if !locality.identical {
            report.fail("pooled and inline byte sweeps diverged on the probe instance".into());
        }
        report.layer("locality.tick_us", locality.tick_us, "us");
        report.layer(
            "locality.pooled_over_inline",
            locality.pooled_over_inline,
            "ratio",
        );
        report.layer("locality.moved_ratio", locality.moved_ratio, "ratio");
        report.layer(
            "locality.bytes_per_update",
            probe::bytes_per_update(n, edges),
            "B",
        );
        report.layer(
            "runtime.dispatches_per_round",
            locality.dispatches_per_round,
            "count",
        );

        let graphs = probe::graphs(&gen::hot_topologies(heavy), tracer);
        report.layer("graphs.build_ms", graphs.build_ms, "ms");
        report.layer("graphs.colouring_ms", graphs.colouring_ms, "ms");
        report.layer("graphs.layout_ms", graphs.layout_ms, "ms");
    }

    for _ in 1..SETUPS {
        let clock = Instant::now();
        let (server, _) = set_up(heavy, args.seed, count)?;
        setups.push(clock.elapsed().as_secs_f64());
        server.shutdown();
    }
    report.e2e("setup_s", median(&setups), "s");
    report.note(format!("set-ups (s): {setups:?}"));
    Ok(())
}

/// One set-up: the job list, a started server and the warm-up jobs done.
fn set_up(heavy: bool, seed: u64, count: usize) -> Result<(RunningServer, Vec<Job>), String> {
    let jobs = if heavy {
        gen::serve_heavy(seed, count)
    } else {
        gen::serve_small(seed, count)
    };
    let server = RunningServer::start(0, ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    for text in gen::warm_up(heavy) {
        match submit_job(server.addr(), &text, None) {
            Ok((ClientOutcome::Done(_), _)) => {}
            other => return Err(format!("warm-up job failed: {other:?}")),
        }
    }
    Ok((server, jobs))
}

/// The p99 of client latencies in ms; a run with fewer than ten samples
/// beyond it fails instead of reporting it.
fn latency_p99_ms(latencies_secs: &[f64]) -> Result<f64, String> {
    tail_percentile(latencies_secs, 0.99)
        .map(|p99| p99 * 1e3)
        .map_err(|e| format!("latency_p99_ms is not reported: {e}"))
}

/// One closed-loop client: submits jobs in list order until the window
/// closes, each after the previous one ended.
fn client_loop(addr: SocketAddr, jobs: &[Job], window: &Window, tracer: &Tracer) -> Vec<Record> {
    let mut out = Vec::new();
    while window.began.elapsed() < window.length {
        let idx = window.next.fetch_add(1, Ordering::Relaxed);
        if idx == window.rss_at {
            let _ = window.rss.set(crate::peak_rss_mb());
        }
        let job = &jobs[idx % jobs.len()];
        let span = tracer.open("client.job", None, Some(idx as u64));
        let clock = Instant::now();
        let outcome = if job.expect == Expect::Cancelled {
            submit_and_cancel(addr, &job.text).unwrap_or_else(|e| Outcome::Io(e.to_string()))
        } else {
            match submit_job(addr, &job.text, None) {
                Ok((ClientOutcome::Done(result), _)) => Outcome::Done(result),
                Ok((ClientOutcome::Rejected(payload), _)) => Outcome::Rejected(payload),
                Ok((ClientOutcome::Cancelled(points), _)) => Outcome::Cancelled {
                    points,
                    cancel_secs: f64::NAN,
                },
                Ok((ClientOutcome::Error(payload), _)) => Outcome::Error(payload),
                Err(e) => Outcome::Io(e.to_string()),
            }
        };
        let latency_secs = clock.elapsed().as_secs_f64();
        tracer.close(span);
        out.push(Record {
            idx,
            latency_secs,
            outcome,
        });
    }
    out
}

/// Submits a job, sends CANCEL [`CANCEL_AFTER`] after ACCEPTED, and times
/// CANCEL sent → CANCELLED received.
fn submit_and_cancel(addr: SocketAddr, text: &str) -> io::Result<Outcome> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, SUBMIT, text)?;
    match read_frame(&mut stream)? {
        Some((ACCEPTED, _)) => {}
        Some((REJECTED, payload)) => return Ok(Outcome::Rejected(payload)),
        other => return Err(unexpected(other)),
    }
    std::thread::sleep(CANCEL_AFTER);
    let sent = Instant::now();
    write_frame(&mut stream, CANCEL, "")?;
    let mut points = Vec::new();
    loop {
        match read_frame(&mut stream)? {
            Some((SERIES, payload)) => points.push(
                SeriesPoint::decode(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            ),
            Some((CANCELLED, _)) => {
                return Ok(Outcome::Cancelled {
                    points,
                    cancel_secs: sent.elapsed().as_secs_f64(),
                })
            }
            Some((FINAL, payload)) => {
                let (name, finals) = StreamedResult::decode_final(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                return match read_frame(&mut stream)? {
                    Some((DONE, _)) => Ok(Outcome::Done(StreamedResult {
                        name,
                        points,
                        finals,
                    })),
                    other => Err(unexpected(other)),
                };
            }
            Some((ERROR, payload)) => return Ok(Outcome::Error(payload)),
            other => return Err(unexpected(other)),
        }
    }
}

fn unexpected(frame: Option<(u8, String)>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected frame {frame:?}"),
    )
}

/// Parses and prepares a job the benchmark expects to be admitted;
/// a rejection is a failure.
fn admit(
    text: &str,
    cache: &ArtifactCache,
    report: &mut Report,
    idx: usize,
) -> Option<PreparedJob> {
    match JobSpec::parse(text).and_then(|spec| prepare(spec, cache)) {
        Ok(prepared) => Some(prepared),
        Err(e) => {
            report.fail(format!("job {idx}: offline admission rejected it: {e}"));
            None
        }
    }
}

/// The server's STATS payload as a map.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let text = request_stats(addr).map_err(|e| format!("STATS request: {e}"))?;
    logit_telemetry::parse_prometheus(&text)
}

/// Sum of every registry sample whose key starts with `family`.
fn registry_sum(samples: &BTreeMap<String, f64>, family: &str) -> f64 {
    samples
        .iter()
        .filter(|(key, _)| {
            key.strip_prefix(family)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

/// The ladder pass: every job the window attempted, in order, through
/// `parse` → `prepare` (against the benchmark's own cache) → `run_prepared`
/// on the benchmark's own simulator → encode, each in its own span.
fn ladder_pass(
    jobs: &[Job],
    records: &[Record],
    replays: &HashMap<usize, (String, f64)>,
    tracer: &Tracer,
    report: &mut Report,
) {
    let cache = ArtifactCache::new(ServerConfig::default().cache_capacity);
    let base = Simulator::new(0, 1);
    let registry_before =
        logit_telemetry::parse_prometheus(&logit_telemetry::global().render()).unwrap_or_default();
    let dispatches_before = base.pool().dispatches();
    let (mut parse_us, mut hit_us, mut miss_ms, mut encode_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut farm_ms, mut farm_over, mut tempered_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut runs, mut pipelined_runs) = (0u64, 0u64);
    for r in records {
        let job = &jobs[r.idx % jobs.len()];
        let id = Some(r.idx as u64);
        let parent = tracer.open("ladder.job", None, id);
        report.attempted += 1;
        let clock = Instant::now();
        let parsed = tracer.span("server.parse", Some(parent), id, || {
            JobSpec::parse(&job.text)
        });
        parse_us.push(clock.elapsed().as_secs_f64() * 1e6);
        let clock = Instant::now();
        let prepared = parsed.and_then(|spec| {
            tracer.span("server.prepare", Some(parent), id, || prepare(spec, &cache))
        });
        let prepare_secs = clock.elapsed().as_secs_f64();
        let prepared = match (prepared, job.expect) {
            (Err(e), Expect::Rejected(code)) if e.code() == code => {
                tracer.close(parent);
                continue;
            }
            (Ok(p), Expect::Done | Expect::Cancelled) => p,
            (other, expect) => {
                report.fail(format!(
                    "ladder job {}: expected {expect:?}, admission gave {:?}",
                    r.idx,
                    other.err()
                ));
                tracer.close(parent);
                continue;
            }
        };
        if prepared.cache_hit {
            hit_us.push(prepare_secs * 1e6);
        } else {
            miss_ms.push(prepare_secs * 1e3);
        }

        let sim = base.reseeded(prepared.spec.seed, prepared.spec.replicas);
        runs += 1;
        let name = match job.mode {
            Mode::Pipelined => "pipeline.farm",
            Mode::Tempered => "tempering.run",
        };
        let clock = Instant::now();
        let result = tracer.span(name, Some(parent), id, || {
            run_prepared(&sim, &prepared, &CancelToken::new())
        });
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        match job.mode {
            Mode::Pipelined => {
                pipelined_runs += 1;
                farm_ms.push(ms);
                if let Some((_, direct_secs)) = replays.get(&r.idx) {
                    farm_over.push(ms / (direct_secs * 1e3));
                }
            }
            Mode::Tempered => tempered_ms.push(ms),
        }
        let Some(result) = result else {
            report.fail(format!("ladder job {}: the run did not complete", r.idx));
            tracer.close(parent);
            continue;
        };
        let clock = Instant::now();
        let encoded = tracer.span("server.encode", Some(parent), id, || {
            let mut bytes: usize = result.points.iter().map(|p| p.encode().len()).sum();
            bytes += result.encode_final().len();
            bytes
        });
        std::hint::black_box(encoded);
        encode_us.push(clock.elapsed().as_secs_f64() * 1e6);
        if let Some((expected, _)) = replays.get(&r.idx) {
            if result.wire_text() != *expected {
                report.fail(format!(
                    "ladder job {}: the run differs from its replay",
                    r.idx
                ));
            }
        }
        tracer.close(parent);
    }

    let registry_after =
        logit_telemetry::parse_prometheus(&logit_telemetry::global().render()).unwrap_or_default();
    let delta = |family: &str| {
        registry_sum(&registry_after, family) - registry_sum(&registry_before, family)
    };
    let per_pipelined = |family: &str| delta(family) / pipelined_runs.max(1) as f64;
    report.extra("server.parse_us", median(&parse_us), "us");
    report.extra("server.prepare_hit_us", median(&hit_us), "us");
    report.extra("server.prepare_miss_ms", median(&miss_ms), "ms");
    report.extra("server.encode_us", median(&encode_us), "us");
    report.extra("pipeline.farm_ms", median(&farm_ms), "ms");
    report.extra("pipeline.farm_over_ensemble", median(&farm_over), "ratio");
    report.extra(
        "pipeline.batches_sent",
        per_pipelined("pipeline_batches_sent"),
        "count",
    );
    report.extra(
        "pipeline.send_throttle_stalls",
        per_pipelined("pipeline_send_throttle_stalls"),
        "count",
    );
    report.extra("tempering.run_ms", median(&tempered_ms), "ms");
    let attempted = delta("tempering_swaps_attempted");
    if attempted > 0.0 {
        report.extra(
            "tempering.swap_accept_ratio",
            delta("tempering_swaps_accepted") / attempted,
            "ratio",
        );
    }
    report.layer(
        "runtime.dispatches_per_job",
        (base.pool().dispatches() - dispatches_before) as f64 / runs.max(1) as f64,
        "count",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_too_short_for_p99_fails_instead_of_reporting() {
        let short = vec![0.004; 999];
        let err = latency_p99_ms(&short).unwrap_err();
        assert!(err.contains("999 samples"), "{err}");
        let mut long = vec![0.004; 990];
        long.extend([0.02; 10]);
        assert_eq!(latency_p99_ms(&long), Ok(4.0));
    }
}
