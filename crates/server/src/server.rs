//! The long-running job server and its blocking client helpers.
//!
//! ## Architecture
//!
//! One listener thread accepts TCP connections and spawns a handler thread
//! per connection. Handlers run *admission* ([`JobSpec::parse`] +
//! [`prepare`]) and push accepted jobs onto a bounded queue; a single
//! **executor** thread drains the queue and drives each job on the shared
//! [`Simulator`] — the [`WorkerPool`](logit_core::WorkerPool) enforces
//! one-dispatch-at-a-time (`install` asserts against concurrent dispatch),
//! so serialising execution is a correctness requirement, not a
//! simplification. Batching therefore happens at the queue: many tenants
//! admit and enqueue concurrently, the pool crunches jobs back-to-back
//! without respawning threads.
//!
//! ## Reproducibility
//!
//! Each job runs on `simulator.reseeded(spec.seed, spec.replicas)` — a
//! fork sharing the pool but carrying the *job's* seed, so any stream can
//! be replayed offline by `Simulator::new(seed, replicas)` plus the same
//! description ([`run_direct`]); the streamed frames are bit-identical.
//!
//! ## Cancellation
//!
//! A per-job [`CancelToken`] is created at admission. A watcher thread per
//! connection turns a [`CANCEL`](crate::protocol::CANCEL) frame — or the client
//! vanishing — into `token.cancel()`; the farm observes it at chunk
//! granularity and the handler finishes the stream with a `CANCELLED`
//! frame instead of `FINAL`/`DONE`. A panic anywhere in a job is caught by
//! the executor's `catch_unwind` backstop and surfaces as an `ERROR` frame
//! on that connection only.

use crate::cache::{ArtifactCache, CacheStats};
use crate::error::AdmissionError;
use crate::exec::{prepare, run_prepared, PreparedJob};
use crate::job::JobSpec;
use crate::protocol::{
    read_frame, write_frame, SeriesPoint, StreamedResult, ACCEPTED, CANCEL, CANCELLED, DONE, ERROR,
    FINAL, REJECTED, SERIES, STATS, SUBMIT,
};
use logit_core::{CancelToken, Simulator};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pending-job queue depth; a full queue rejects with `queue-full`.
    pub queue_capacity: usize,
    /// Artifact-cache capacity (game descriptions).
    pub cache_capacity: usize,
    /// Seed of the server's base simulator (forked per job, so this only
    /// matters for pool identity, never for results).
    pub base_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            cache_capacity: 32,
            base_seed: 0,
        }
    }
}

/// Monotonic counters of one server instance.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    pub completed: AtomicU64,
    pub cancelled: AtomicU64,
    pub internal_errors: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`] plus the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub internal_errors: u64,
    pub artifact_cache: CacheStats,
}

/// The server's registered instruments, resolved once per process
/// (zero-sized no-ops without the `telemetry` feature).
struct ServerTelemetry {
    /// `server.queue_depth` — jobs admitted but not yet picked up by the
    /// executor.
    queue_depth: logit_telemetry::Gauge,
    /// `server.job_wall_ns` — admission (just before the job is enqueued)
    /// to terminal frame: queue wait + execution + streaming, as the
    /// client experiences it. Accepted jobs only.
    job_wall_ns: logit_telemetry::Histogram,
    /// `server.job_exec_ns` — the executor's `run_prepared` alone.
    job_exec_ns: logit_telemetry::Histogram,
    /// `server.job_stream_ns` — writing the result frames back out.
    job_stream_ns: logit_telemetry::Histogram,
}

fn telemetry() -> &'static ServerTelemetry {
    use std::sync::OnceLock;
    static TELEMETRY: OnceLock<ServerTelemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| {
        let registry = logit_telemetry::global();
        ServerTelemetry {
            queue_depth: registry.gauge("server.queue_depth"),
            job_wall_ns: registry.histogram("server.job_wall_ns"),
            job_exec_ns: registry.histogram("server.job_exec_ns"),
            job_stream_ns: registry.histogram("server.job_stream_ns"),
        }
    })
}

/// Bumps the ground-truth reject counter and mirrors the rejection into
/// the registry under its stable admission code
/// (`server.admission_rejects{code="..."}`).
fn count_rejected(stats: &ServerStats, code: &'static str) {
    stats.rejected.fetch_add(1, Ordering::Relaxed);
    if logit_telemetry::enabled() {
        logit_telemetry::global()
            .counter_labelled("server.admission_rejects", ("code", code))
            .inc();
    }
}

/// Builds the counter snapshot from the live parts — shared between
/// [`RunningServer::stats`] and the in-handler STATS frame.
fn snapshot(stats: &ServerStats, cache: &ArtifactCache) -> StatsSnapshot {
    StatsSnapshot {
        accepted: stats.accepted.load(Ordering::Relaxed),
        rejected: stats.rejected.load(Ordering::Relaxed),
        completed: stats.completed.load(Ordering::Relaxed),
        cancelled: stats.cancelled.load(Ordering::Relaxed),
        internal_errors: stats.internal_errors.load(Ordering::Relaxed),
        artifact_cache: cache.games.stats(),
    }
}

/// One queued unit of work: everything the executor needs plus the
/// channel the handler waits on.
struct ExecRequest {
    job: PreparedJob,
    cancel: CancelToken,
    outcome_tx: SyncSender<ExecOutcome>,
}

/// What the executor reports back to the waiting handler.
enum ExecOutcome {
    /// The job ran to completion.
    Finished(Box<StreamedResult>),
    /// The farm observed the cancel token and drained cleanly.
    Cancelled,
    /// The `catch_unwind` backstop caught a panic; the pool survived
    /// (worker panics are contained per job).
    Panicked(String),
}

/// A running server bound to a local port. Dropping it without calling
/// [`shutdown`](Self::shutdown) leaks the listener thread; tests and the
/// binary always shut down explicitly.
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    cache: Arc<ArtifactCache>,
    listener_thread: Option<thread::JoinHandle<()>>,
    executor_thread: Option<thread::JoinHandle<()>>,
    /// Kept so the executor's receiver stays open until shutdown.
    queue_tx: Option<SyncSender<ExecRequest>>,
    /// Connection-handler threads the listener holds, as of its last
    /// accept.
    retained: Arc<AtomicUsize>,
}

impl RunningServer {
    /// Binds `127.0.0.1:port` (`port = 0` for an ephemeral port), spawns
    /// the executor and listener threads, and returns immediately.
    pub fn start(port: u16, config: ServerConfig) -> io::Result<RunningServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let cache = Arc::new(ArtifactCache::new(config.cache_capacity));
        let (queue_tx, queue_rx) = sync_channel::<ExecRequest>(config.queue_capacity);
        let retained = Arc::new(AtomicUsize::new(0));

        let executor_thread = {
            let stats = Arc::clone(&stats);
            let base = Simulator::new(config.base_seed, 1);
            thread::Builder::new()
                .name("logit-serve-executor".into())
                .spawn(move || executor_loop(queue_rx, base, &stats))?
        };

        let listener_thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let cache = Arc::clone(&cache);
            let queue_tx = queue_tx.clone();
            let retained = Arc::clone(&retained);
            thread::Builder::new()
                .name("logit-serve-listener".into())
                .spawn(move || listener_loop(listener, stop, stats, cache, queue_tx, retained))?
        };

        Ok(RunningServer {
            addr,
            stop,
            stats,
            cache,
            listener_thread: Some(listener_thread),
            executor_thread: Some(executor_thread),
            queue_tx: Some(queue_tx),
            retained,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many connection-handler threads the listener held after its
    /// last accept: the open connections plus any that closed since. It
    /// reaps finished handlers on every accept, so this tracks concurrent
    /// connections, not connections served.
    pub fn retained_handlers(&self) -> usize {
        self.retained.load(Ordering::Relaxed)
    }

    /// Snapshot of the monotonic counters.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.stats, &self.cache)
    }

    /// Stops accepting connections, waits for in-flight handlers and the
    /// executor to drain, and returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        // All handler threads are joined by the listener; dropping the last
        // sender ends the executor's `recv` loop.
        self.queue_tx.take();
        if let Some(t) = self.executor_thread.take() {
            let _ = t.join();
        }
        self.stats()
    }
}

fn executor_loop(queue_rx: Receiver<ExecRequest>, base: Simulator, stats: &ServerStats) {
    while let Ok(req) = queue_rx.recv() {
        telemetry().queue_depth.add(-1.0);
        let sim = base.reseeded(req.job.spec.seed, req.job.spec.replicas);
        let exec_span = telemetry().job_exec_ns.span();
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_prepared(&sim, &req.job, &req.cancel)
        }));
        drop(exec_span);
        let outcome = match run {
            Ok(Some(result)) => {
                stats.completed.fetch_add(1, Ordering::Relaxed);
                ExecOutcome::Finished(Box::new(result))
            }
            Ok(None) => {
                stats.cancelled.fetch_add(1, Ordering::Relaxed);
                ExecOutcome::Cancelled
            }
            Err(panic) => {
                stats.internal_errors.fetch_add(1, Ordering::Relaxed);
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".into());
                ExecOutcome::Panicked(msg)
            }
        };
        // The handler may have vanished (client dropped mid-run); that is
        // its problem, not the executor's.
        let _ = req.outcome_tx.send(outcome);
    }
}

fn listener_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    cache: Arc<ArtifactCache>,
    queue_tx: SyncSender<ExecRequest>,
    retained: Arc<AtomicUsize>,
) {
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    let job_ids = Arc::new(AtomicU64::new(1));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Reap the handlers that have finished, so a long-lived server
        // holds only its open connections' threads, not one per
        // connection ever served.
        handlers.retain(|handle| !handle.is_finished());
        let stats = Arc::clone(&stats);
        let cache = Arc::clone(&cache);
        let queue_tx = queue_tx.clone();
        let job_ids = Arc::clone(&job_ids);
        if let Ok(handle) = thread::Builder::new()
            .name("logit-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &stats, &cache, &queue_tx, &job_ids);
            })
        {
            handlers.push(handle);
        }
        retained.store(handlers.len(), Ordering::Relaxed);
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Serves one connection: admission, streaming, cancellation.
fn handle_connection(
    mut stream: TcpStream,
    stats: &ServerStats,
    cache: &ArtifactCache,
    queue_tx: &SyncSender<ExecRequest>,
    job_ids: &AtomicU64,
) -> io::Result<()> {
    let submit = match read_frame(&mut stream) {
        Ok(Some((SUBMIT, payload))) => payload,
        Ok(Some((STATS, _))) => {
            // A metrics probe, not a job: answer with one snapshot frame
            // and close. Probes never touch the queue or the counters.
            let payload = crate::stats::render_stats(&snapshot(stats, cache));
            write_frame(&mut stream, STATS, &payload)?;
            return stream.shutdown(Shutdown::Both);
        }
        Ok(Some((kind, _))) => {
            let err =
                AdmissionError::Protocol(format!("expected a SUBMIT frame, got kind {kind:#04x}"));
            count_rejected(stats, err.code());
            write_frame(&mut stream, REJECTED, &err.to_string())?;
            return stream.shutdown(Shutdown::Both);
        }
        Ok(None) => return Ok(()),
        Err(e) => {
            let err = AdmissionError::Protocol(e.to_string());
            count_rejected(stats, err.code());
            let _ = write_frame(&mut stream, REJECTED, &err.to_string());
            return stream.shutdown(Shutdown::Both);
        }
    };

    // Admission: parse, then build/fetch artifacts through the typed
    // `try_*` boundaries. Rejection is a frame, never a panic.
    let job = match JobSpec::parse(&submit).and_then(|spec| prepare(spec, cache)) {
        Ok(job) => job,
        Err(e) => {
            count_rejected(stats, e.code());
            write_frame(&mut stream, REJECTED, &e.to_string())?;
            return stream.shutdown(Shutdown::Both);
        }
    };

    // Admission metadata for the ACCEPTED frame, copied out before the
    // job moves into the queue.
    let id = job_ids.fetch_add(1, Ordering::Relaxed);
    let accepted_meta = format!(
        "job={id} key={:016x} artifacts={} colors={} bandwidth={}->{}",
        job.spec.content_key(),
        if job.cache_hit { "hit" } else { "miss" },
        job.artifacts.coloring.num_classes(),
        job.artifacts.bandwidth.0,
        job.artifacts.bandwidth.1,
    );

    let cancel = CancelToken::new();
    let (outcome_tx, outcome_rx) = sync_channel::<ExecOutcome>(1);
    let request = ExecRequest {
        job,
        cancel: cancel.clone(),
        outcome_tx,
    };
    // Wall clock as the client experiences it: from admission to the
    // terminal frame (queue wait + execution + stream). It starts before
    // the job is enqueued, because an idle executor may start the job at
    // once; a rejected job records no wall time.
    let wall_span = telemetry().job_wall_ns.span();
    // Reserve the queue slot *before* ACCEPTED goes out.
    match queue_tx.try_send(request) {
        Ok(()) => telemetry().queue_depth.add(1.0),
        Err(TrySendError::Full(req)) => {
            wall_span.discard();
            count_rejected(stats, AdmissionError::QueueFull.code());
            write_frame(
                &mut stream,
                REJECTED,
                &AdmissionError::QueueFull.to_string(),
            )?;
            // Drop the request (and its outcome channel) without running.
            drop(req);
            return stream.shutdown(Shutdown::Both);
        }
        Err(TrySendError::Disconnected(_)) => {
            wall_span.discard();
            let err = AdmissionError::Protocol("the server is shutting down".into());
            count_rejected(stats, err.code());
            write_frame(&mut stream, REJECTED, &err.to_string())?;
            return stream.shutdown(Shutdown::Both);
        }
    }

    stats.accepted.fetch_add(1, Ordering::Relaxed);
    write_frame(&mut stream, ACCEPTED, &accepted_meta)?;

    // Watcher: turns a CANCEL frame — or the client vanishing — into a
    // token cancel. Reads on a cloned handle so the main handler can
    // write frames concurrently.
    let watcher = {
        let mut read_half = stream.try_clone()?;
        let cancel = cancel.clone();
        thread::Builder::new()
            .name("logit-serve-watch".into())
            .spawn(move || loop {
                match read_frame(&mut read_half) {
                    Ok(Some((CANCEL, _))) => {
                        cancel.cancel();
                        break;
                    }
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => {
                        // EOF or error: the client is gone; stop wasting
                        // pool time on them.
                        cancel.cancel();
                        break;
                    }
                }
            })?
    };

    // Wait for the executor, then stream.
    let outcome = outcome_rx
        .recv()
        .unwrap_or_else(|_| ExecOutcome::Panicked("executor hung up".into()));
    let write_result = match outcome {
        ExecOutcome::Finished(result) => stream_result(&mut stream, &result, &cancel, stats),
        ExecOutcome::Cancelled => write_frame(&mut stream, CANCELLED, ""),
        ExecOutcome::Panicked(msg) => write_frame(&mut stream, ERROR, &format!("internal: {msg}")),
    };
    drop(wall_span);
    // Closing both halves unblocks the watcher's read.
    let _ = stream.shutdown(Shutdown::Both);
    let _ = watcher.join();
    write_result
}

/// Streams a finished series, checking the cancel token between frames —
/// the cancellation seam for results (tempered runs) that the farm itself
/// could not interrupt.
fn stream_result(
    stream: &mut TcpStream,
    result: &StreamedResult,
    cancel: &CancelToken,
    stats: &ServerStats,
) -> io::Result<()> {
    let _stream_span = telemetry().job_stream_ns.span();
    for point in &result.points {
        if cancel.is_cancelled() {
            stats.cancelled.fetch_add(1, Ordering::Relaxed);
            return write_frame(stream, CANCELLED, "");
        }
        write_frame(stream, SERIES, &point.encode())?;
    }
    write_frame(stream, FINAL, &result.encode_final())?;
    write_frame(stream, DONE, "")
}

/// What a blocking client observed for one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOutcome {
    /// Admission rejected the job; payload is `<code>: <message>`.
    Rejected(String),
    /// The stream completed; the reassembled series.
    Done(StreamedResult),
    /// The stream ended with CANCELLED after `Vec` points.
    Cancelled(Vec<SeriesPoint>),
    /// The stream ended with an ERROR frame.
    Error(String),
}

/// Client-side latency measurement of one submission.
#[derive(Debug, Clone, Copy)]
pub struct ClientTiming {
    /// Submission → terminal frame, in seconds.
    pub total_secs: f64,
}

/// Submits one job and blocks until the stream terminates. When
/// `cancel_after_frames` is `Some(k)`, a CANCEL frame is sent as soon as
/// `k` series frames have arrived (0 cancels immediately after ACCEPTED).
pub fn submit_job(
    addr: SocketAddr,
    job_text: &str,
    cancel_after_frames: Option<usize>,
) -> io::Result<(ClientOutcome, ClientTiming)> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, SUBMIT, job_text)?;

    let mut points = Vec::new();
    let mut cancelled_sent = false;
    let mut maybe_cancel = |stream: &mut TcpStream, seen: usize| -> io::Result<()> {
        if !cancelled_sent {
            if let Some(k) = cancel_after_frames {
                if seen >= k {
                    match write_frame(stream, CANCEL, "") {
                        Ok(()) => {}
                        // The job may have completed and the server closed
                        // its end before our cancel landed; the remaining
                        // frames are still in the receive buffer.
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
                            ) => {}
                        Err(e) => return Err(e),
                    }
                    cancelled_sent = true;
                }
            }
        }
        Ok(())
    };

    loop {
        let frame = read_frame(&mut stream)?;
        let timing = ClientTiming {
            total_secs: started.elapsed().as_secs_f64(),
        };
        match frame {
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended without a terminal frame",
                ))
            }
            Some((REJECTED, payload)) => return Ok((ClientOutcome::Rejected(payload), timing)),
            Some((ACCEPTED, _)) => {
                maybe_cancel(&mut stream, 0)?;
            }
            Some((SERIES, payload)) => {
                let point = SeriesPoint::decode(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                points.push(point);
                maybe_cancel(&mut stream, points.len())?;
            }
            Some((FINAL, payload)) => {
                let (name, finals) = StreamedResult::decode_final(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                // DONE must follow.
                match read_frame(&mut stream)? {
                    Some((DONE, _)) => {}
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("expected DONE after FINAL, got {other:?}"),
                        ))
                    }
                }
                let timing = ClientTiming {
                    total_secs: started.elapsed().as_secs_f64(),
                };
                return Ok((
                    ClientOutcome::Done(StreamedResult {
                        name,
                        points,
                        finals,
                    }),
                    timing,
                ));
            }
            Some((CANCELLED, _)) => return Ok((ClientOutcome::Cancelled(points), timing)),
            Some((ERROR, payload)) => return Ok((ClientOutcome::Error(payload), timing)),
            Some((kind, _)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame kind {kind:#04x}"),
                ))
            }
        }
    }
}

/// Requests a live metrics snapshot: sends one STATS frame and returns
/// the server's Prometheus-text payload. Works mid-chaos — probes bypass
/// the job queue entirely.
pub fn request_stats(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, STATS, "")?;
    match read_frame(&mut stream)? {
        Some((STATS, payload)) => Ok(payload),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a STATS frame, got {other:?}"),
        )),
    }
}

/// Writes raw bytes to the server — the malformed-client path of the smoke
/// tests. Returns whatever single frame the server answers with.
pub fn submit_raw(addr: SocketAddr, bytes: &[u8]) -> io::Result<Option<(u8, String)>> {
    use std::io::Write;
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(bytes)?;
    stream.flush()?;
    stream.shutdown(Shutdown::Write)?;
    read_frame(&mut stream)
}

// Re-exported so the module docs' [`run_direct`] link resolves in place.
pub use crate::exec::run_direct;
