//! End-to-end service tests: admission, cancellation, multi-tenant
//! reproducibility.
//!
//! The load-bearing test is `a_loaded_server_streams_bit_identical_series`:
//! a server under concurrent mixed load — pipelined and tempered jobs,
//! different games, schedules and rules, cancellations in flight — must
//! stream every completed series **byte-identical** to an offline
//! [`run_direct`] replay of the same description. That is the service's
//! whole contract: the farm, the shared pool, the artifact cache and the
//! queue must leave no fingerprints on results.

use logit_server::{
    prepare, request_stats, run_direct, submit_job, submit_raw, ArtifactCache, ClientOutcome,
    JobSpec, RunningServer, ServerConfig,
};
use std::sync::{RwLock, RwLockReadGuard};
use std::thread;

/// The server's latency histograms are process-global. Every test that
/// runs a server holds this lock shared; a test that reads those
/// histograms holds it exclusively, so no other test's job can be
/// half-recorded when it reads them.
static HISTOGRAMS: RwLock<()> = RwLock::new(());

fn shared_histograms() -> RwLockReadGuard<'static, ()> {
    HISTOGRAMS
        .read()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn base_job(seed: u64) -> String {
    format!(
        "game=graphical\ntopology=ring\nn=20\ndelta0=2.0\ndelta1=1.0\n\
         rule=logit\nschedule=uniform\nmode=pipelined\nbeta=1.1\nsteps=3000\n\
         sample_every=300\nobservable=fraction1\nreplicas=6\nseed={seed}\nchunk_ticks=128"
    )
}

fn offline(text: &str) -> logit_server::StreamedResult {
    let spec = JobSpec::parse(text).expect("test job parses");
    let cache = ArtifactCache::new(4);
    let job = prepare(spec, &cache).expect("test job passes admission");
    run_direct(&job)
}

#[test]
fn a_loaded_server_streams_bit_identical_series() {
    let _histograms = shared_histograms();
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();

    // Mixed concurrent tenants: two jobs sharing one game description
    // (cache hit), an Ising sweep, a coloured-schedule circulant, a
    // noisy-best-response job and a tempered ladder — plus two cancels in
    // flight (one immediate, one mid-stream) and one malformed tenant.
    let jobs: Vec<String> = vec![
        base_job(1),
        base_job(2),
        "game=ising\ntopology=grid\nrows=4\ncols=5\ncoupling=0.8\nfield=0.1\n\
         rule=metropolis\nschedule=sweep\nmode=pipelined\nbeta=0.7\nsteps=2000\n\
         sample_every=250\nobservable=potential\nreplicas=5\nseed=3"
            .into(),
        "game=ising\ntopology=circulant\nn=24\nk=2\ncoupling=1.2\n\
         rule=logit\nschedule=coloured\nmode=pipelined\nbeta=1.4\nsteps=1500\n\
         sample_every=150\nobservable=fraction0\nreplicas=4\nseed=4"
            .into(),
        "game=graphical\ntopology=hypercube\ndim=4\ndelta0=1.5\ndelta1=0.5\n\
         rule=nbr\nnoise=0.1\nschedule=all\nmode=pipelined\nbeta=2.0\nsteps=1000\n\
         sample_every=100\nobservable=fraction1\nreplicas=4\nseed=5"
            .into(),
        "game=graphical\ntopology=ring\nn=12\ndelta0=3.0\ndelta1=1.0\n\
         rule=logit\nschedule=uniform\nmode=tempered\nladder=linear\n\
         beta_min=0.1\nbeta_max=1.6\nrungs=4\nrounds=30\nsweep_ticks=24\n\
         sample_every=6\nobservable=potential\nreplicas=3\nseed=6"
            .into(),
    ];

    let handles: Vec<_> = jobs
        .iter()
        .map(|text| {
            let text = text.clone();
            thread::spawn(move || {
                let (outcome, _) = submit_job(addr, &text, None).expect("client io");
                (text, outcome)
            })
        })
        .collect();
    let cancel_now = {
        let text = base_job(91);
        thread::spawn(move || submit_job(addr, &text, Some(0)).expect("client io"))
    };
    let cancel_mid = {
        let text = base_job(92);
        thread::spawn(move || submit_job(addr, &text, Some(3)).expect("client io"))
    };
    let malformed = thread::spawn(move || {
        let text = base_job(93).replace("chunk_ticks=128", "chunk_ticks=0");
        submit_job(addr, &text, None).expect("client io")
    });

    for handle in handles {
        let (text, outcome) = handle.join().expect("client thread");
        match outcome {
            ClientOutcome::Done(streamed) => {
                let direct = offline(&text);
                assert_eq!(
                    streamed.wire_text(),
                    direct.wire_text(),
                    "a streamed series diverged from its offline replay"
                );
                assert!(!streamed.points.is_empty());
            }
            other => panic!("expected a completed stream, got {other:?}"),
        }
    }

    // Cancels end cleanly — either CANCELLED or, if the farm outran the
    // token, a complete (and then reproducible) stream.
    for (label, handle) in [("immediate", cancel_now), ("mid-stream", cancel_mid)] {
        let (outcome, _) = handle.join().expect("cancel client thread");
        match outcome {
            ClientOutcome::Cancelled(_) => {}
            ClientOutcome::Done(streamed) => {
                let direct = offline(&base_job(if label == "immediate" { 91 } else { 92 }));
                assert_eq!(streamed.wire_text(), direct.wire_text());
            }
            other => panic!("{label} cancel: expected a clean stream end, got {other:?}"),
        }
    }

    // The malformed tenant got a typed pipeline rejection.
    let (outcome, _) = malformed.join().expect("malformed client thread");
    match outcome {
        ClientOutcome::Rejected(msg) => {
            assert!(
                msg.starts_with("pipeline:"),
                "zero chunk_ticks is a typed pipeline rejection, got `{msg}`"
            );
            assert!(msg.contains("chunk_ticks must be at least 1"));
        }
        other => panic!("expected a rejection, got {other:?}"),
    }

    // Nothing above may have hurt the shared pool: a fresh job on the
    // same server still completes and replays bit-identically.
    let text = base_job(123);
    let (outcome, _) = submit_job(addr, &text, None).expect("client io");
    match outcome {
        ClientOutcome::Done(streamed) => {
            assert_eq!(streamed.wire_text(), offline(&text).wire_text());
        }
        other => panic!("post-chaos job should complete, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.internal_errors, 0, "no panics reached the backstop");
    assert_eq!(stats.rejected, 1);
    assert!(stats.completed >= 7);
    assert!(
        stats.artifact_cache.hits >= 1,
        "tenants sharing a game description must share its artifacts"
    );
}

#[test]
fn admission_rejects_each_malformed_layer_with_its_typed_code() {
    let _histograms = shared_histograms();
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let reject = |text: String| -> String {
        match submit_job(addr, &text, None).expect("client io").0 {
            ClientOutcome::Rejected(msg) => msg,
            other => panic!("expected a rejection for `{text}`, got {other:?}"),
        }
    };

    // Grammar layer.
    assert!(reject("game=ising".into()).starts_with("missing-field:"));
    assert!(reject(format!("{}\nwat=1", base_job(1))).starts_with("unknown-field:"));
    // Payoff layer (delta0 <= 0 is not a coordination game).
    assert!(reject(base_job(1).replace("delta0=2.0", "delta0=-1.0")).starts_with("coordination:"));
    // Ising layer (antiferromagnetic coupling).
    let ising = "game=ising\ntopology=ring\nn=8\ncoupling=-1.0\nrule=logit\n\
                 schedule=uniform\nmode=pipelined\nbeta=1.0\nsteps=100\n\
                 sample_every=10\nobservable=potential\nreplicas=2\nseed=1";
    assert!(reject(ising.into()).starts_with("ising:"));
    // Ladder layer (non-increasing β-ladder).
    let ladder = "game=graphical\ntopology=ring\nn=8\ndelta0=1.0\ndelta1=1.0\n\
                  rule=logit\nschedule=uniform\nmode=tempered\nladder=geometric\n\
                  beta_min=2.0\nbeta_max=0.5\nrungs=4\nrounds=10\nsweep_ticks=8\n\
                  sample_every=2\nobservable=potential\nreplicas=2\nseed=1";
    let msg = reject(ladder.into());
    assert!(msg.starts_with("ladder:"), "got `{msg}`");
    assert!(msg.contains("increase"));
    // Pipeline layer (zero channel capacity).
    assert!(reject(
        format!("{}\nchannel_capacity=0", base_job(1)).replace("chunk_ticks=128\n", "")
    )
    .starts_with("pipeline:"));
    // Protocol layer (raw garbage framing).
    let reply = submit_raw(addr, b"\x00\x00\x00\x02Qq").expect("garbage io");
    let (kind, payload) = reply.expect("server answers garbage with a frame");
    assert_eq!(kind, b'R');
    assert!(payload.starts_with("protocol:"));

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.rejected, 7);
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn rejected_and_cancelled_jobs_leave_the_pool_able_to_reproduce() {
    let _histograms = shared_histograms();
    // Tight interleaving: reject, cancel, complete, repeatedly on one
    // server — then the final completed job must still match offline.
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();

    for round in 0..3u64 {
        let bad = base_job(round).replace("steps=3000", "steps=0");
        match submit_job(addr, &bad, None).expect("client io").0 {
            ClientOutcome::Rejected(msg) => assert!(msg.starts_with("bad-value:")),
            other => panic!("expected rejection, got {other:?}"),
        }
        let cancel_text = base_job(100 + round);
        let (outcome, _) = submit_job(addr, &cancel_text, Some(0)).expect("client io");
        assert!(
            matches!(
                outcome,
                ClientOutcome::Cancelled(_) | ClientOutcome::Done(_)
            ),
            "cancel must end the stream cleanly"
        );
        let good = base_job(200 + round);
        match submit_job(addr, &good, None).expect("client io").0 {
            ClientOutcome::Done(streamed) => {
                assert_eq!(streamed.wire_text(), offline(&good).wire_text());
            }
            other => panic!("round {round}: expected completion, got {other:?}"),
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.internal_errors, 0);
    assert_eq!(stats.rejected, 3);
}

#[test]
fn tempered_jobs_stream_and_replay_bit_identically() {
    let _histograms = shared_histograms();
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let text = "game=ising\ntopology=ring\nn=10\ncoupling=1.0\n\
                rule=logit\nschedule=uniform\nmode=tempered\nladder=geometric\n\
                beta_min=0.25\nbeta_max=2.0\nrungs=3\nrounds=20\nsweep_ticks=16\n\
                sample_every=4\nobservable=potential\nreplicas=2\nseed=42";
    let (outcome, _) = submit_job(addr, text, None).expect("client io");
    match outcome {
        ClientOutcome::Done(streamed) => {
            let direct = offline(text);
            assert_eq!(streamed.wire_text(), direct.wire_text());
            assert_eq!(streamed.name, direct.name);
        }
        other => panic!("expected completion, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn the_artifact_cache_is_shared_and_lru_bounded() {
    let _histograms = shared_histograms();
    let server = RunningServer::start(
        0,
        ServerConfig {
            cache_capacity: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let quick = |n: usize, seed: u64| {
        format!(
            "game=graphical\ntopology=ring\nn={n}\ndelta0=2.0\ndelta1=1.0\n\
             rule=logit\nschedule=uniform\nmode=pipelined\nbeta=1.0\nsteps=200\n\
             sample_every=50\nobservable=fraction1\nreplicas=2\nseed={seed}"
        )
    };
    // Same description twice → second admission hits.
    submit_job(addr, &quick(10, 1), None).expect("io");
    submit_job(addr, &quick(10, 2), None).expect("io");
    // Two more distinct descriptions overflow capacity 2 → eviction.
    submit_job(addr, &quick(12, 3), None).expect("io");
    submit_job(addr, &quick(14, 4), None).expect("io");

    let stats = server.shutdown();
    assert!(stats.artifact_cache.hits >= 1);
    assert!(stats.artifact_cache.misses >= 3);
    assert!(stats.artifact_cache.evictions >= 1);
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn accepted_bandwidth_matches_the_locality_layout() {
    use logit_core::{coloring_for_graph, LocalityLayout};
    use logit_graphs::GraphBuilder;
    use logit_server::protocol::{read_frame, write_frame, ACCEPTED, DONE, SUBMIT};
    use std::net::TcpStream;

    let _histograms = shared_histograms();
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let cases = [
        ("topology=ring\nn=30", GraphBuilder::ring(30)),
        ("topology=torus\nrows=4\ncols=6", GraphBuilder::torus(4, 6)),
        (
            "topology=circulant\nn=40\nk=3",
            GraphBuilder::circulant(40, 3),
        ),
    ];
    for (topology, graph) in cases {
        let job = format!(
            "game=graphical\n{topology}\ndelta0=2.0\ndelta1=1.0\n\
             rule=logit\nschedule=uniform\nmode=pipelined\nbeta=1.0\nsteps=100\n\
             sample_every=50\nobservable=fraction1\nreplicas=1\nseed=7"
        );
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        write_frame(&mut stream, SUBMIT, &job).expect("submit");
        let accepted = match read_frame(&mut stream).expect("read") {
            Some((ACCEPTED, payload)) => payload,
            other => panic!("{topology}: expected ACCEPTED, got {other:?}"),
        };
        // Drain to DONE, so the job completes rather than being cancelled.
        while let Some((kind, _)) = read_frame(&mut stream).expect("read") {
            if kind == DONE {
                break;
            }
        }
        let layout = LocalityLayout::from_graph(&graph, &coloring_for_graph(&graph));
        let want = format!(
            "bandwidth={}->{}",
            layout.bandwidth_before(),
            layout.bandwidth_after()
        );
        assert!(
            accepted.split(' ').any(|field| field == want),
            "{topology}: ACCEPTED `{accepted}` lacks `{want}`"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn sequential_connections_leave_a_bounded_number_of_handler_threads() {
    let _histograms = shared_histograms();
    // Every connection gets a handler thread; the listener must reap them
    // as they finish instead of holding one handle per connection served.
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let connections = 200;
    for _ in 0..connections {
        request_stats(addr).expect("stats probe");
    }
    // A handler may still be closing when the next accept reaps, so allow
    // a few stragglers, far below one per connection.
    let retained = server.retained_handlers();
    assert!(
        retained <= 8,
        "{retained} handler threads retained after {connections} sequential connections"
    );
    server.shutdown();
}

#[cfg(feature = "telemetry")]
#[test]
fn job_wall_time_covers_execution_and_streaming() {
    let _exclusive = HISTOGRAMS
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    assert!(logit_telemetry::enable());
    // (count, sum in ns) of wall, exec and stream.
    let read = || {
        [
            "server.job_wall_ns",
            "server.job_exec_ns",
            "server.job_stream_ns",
        ]
        .map(|name| {
            let snapshot = logit_telemetry::global().histogram(name).snapshot();
            (snapshot.count, snapshot.sum)
        })
    };
    let before = read();
    let server = RunningServer::start(0, ServerConfig::default()).expect("bind");
    let jobs = 60;
    for seed in 0..jobs {
        let (outcome, _) = submit_job(server.addr(), &base_job(seed), None).expect("client io");
        assert!(matches!(outcome, ClientOutcome::Done(_)), "job {seed}");
    }
    // Shutdown joins every handler, so each job's wall span has ended.
    server.shutdown();
    let after = read();
    let [wall, exec, stream] =
        [0, 1, 2].map(|i| (after[i].0 - before[i].0, after[i].1 - before[i].1));
    assert_eq!((wall.0, exec.0, stream.0), (jobs, jobs, jobs));
    assert!(
        wall.1 >= exec.1 + stream.1,
        "wall {} ns < exec {} ns + stream {} ns over {jobs} jobs",
        wall.1,
        exec.1,
        stream.1
    );
}
