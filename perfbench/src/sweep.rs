//! `sweep-1e6`: no server. A label-shuffled circulant with 10⁶ players is
//! RCM-relabelled through `LocalityLayout`, and logit at β = 0.1 runs
//! from a seeded random start through `Simulator::run_coloured_locality`,
//! one job of [`ROUNDS_PER_JOB`] colour rounds at a time.

use crate::gen;
use crate::probe;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Report};
use logit_core::{coloring_for_graph, DynamicsEngine, LocalityLayout, Logit, Scratch, Simulator};
use logit_games::{CoordinationGame, GraphicalCoordinationGame};
use logit_graphs::{Coloring, GraphBuilder};
use std::time::{Duration, Instant};

const PLAYERS: usize = 1_000_000;
/// Circulant offsets: every player has `2K = 8` neighbours.
const K: usize = 4;
const BETA: f64 = 0.1;
const ROUNDS_PER_JOB: u64 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Window jobs are replayed on the unrelabelled reference engine, in
/// order, until the replays have taken a third of the window and covered
/// at least this many jobs.
const MIN_REPLAYED: usize = 3;

type Engine = DynamicsEngine<GraphicalCoordinationGame, Logit>;

/// The computed working set of one colour round of the sweep, in MB.
pub fn working_set_mb() -> f64 {
    probe::bytes_per_update(PLAYERS, PLAYERS * K) * PLAYERS as f64 / 1e6
}

/// Everything one set-up builds.
struct Instance {
    /// The engine on the shuffled (unrelabelled) game: the reference.
    reference: Engine,
    coloring: Coloring,
    /// The engine on the RCM-relabelled game.
    relabelled: Engine,
    layout: LocalityLayout,
    start: Vec<usize>,
    edges: usize,
    digest: u64,
    /// Graph build, colouring and layout times, in ms.
    graph_ms: [f64; 3],
}

fn set_up(seed: u64) -> Instance {
    let clock = Instant::now();
    let inputs = gen::sweep_inputs(seed, PLAYERS);
    let shuffled = GraphBuilder::circulant(PLAYERS, K).relabelled(&inputs.shuffle);
    let build_ms = clock.elapsed().as_secs_f64() * 1e3;
    let clock = Instant::now();
    let coloring = coloring_for_graph(&shuffled);
    let colouring_ms = clock.elapsed().as_secs_f64() * 1e3;
    let clock = Instant::now();
    let layout = LocalityLayout::from_graph(&shuffled, &coloring);
    let layout_ms = clock.elapsed().as_secs_f64() * 1e3;
    let base = CoordinationGame::from_deltas(2.0, 1.0);
    let relabelled = GraphicalCoordinationGame::new(layout.relabel_graph(&shuffled), base);
    let edges = shuffled.num_edges();
    Instance {
        reference: DynamicsEngine::with_rule(
            GraphicalCoordinationGame::new(shuffled, base),
            Logit,
            BETA,
        ),
        coloring,
        relabelled: DynamicsEngine::with_rule(relabelled, Logit, BETA),
        layout,
        edges,
        digest: gen::sweep_digest(&inputs),
        start: inputs.start,
        graph_ms: [build_ms, colouring_ms, layout_ms],
    }
}

pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    // More set-ups follow the measurements, for the median `setup_s`.
    let (inst, base) = set_up_and_warm(args.seed);
    let mut setups = vec![args.started.elapsed().as_secs_f64()];
    let mut built = vec![inst.graph_ms];
    let classes = inst.coloring.num_classes() as u64;
    let ticks = ROUNDS_PER_JOB * classes;
    let bytes_per_update = probe::bytes_per_update(PLAYERS, inst.edges);
    report.note(format!(
        "inputs: seed {} digest {:016x} (label shuffle and start profile of n = {PLAYERS})",
        args.seed, inst.digest
    ));
    report.note(format!(
        "instance: circulant k = {K} (degree {}), {classes} colour classes, bandwidth {} -> {} after RCM, beta = {BETA}, {ROUNDS_PER_JOB} rounds per job",
        2 * K,
        inst.layout.bandwidth_before(),
        inst.layout.bandwidth_after(),
    ));

    // The timed window: jobs back to back, each a fresh stream family
    // from the seeded start.
    let window = Duration::from_secs(args.seconds);
    let dispatches = base.pool().dispatches();
    let began = Instant::now();
    let mut jobs: Vec<(u64, f64, usize)> = Vec::new();
    while began.elapsed() < window {
        let j = jobs.len() as u64;
        let seed = gen::job_seed(args.seed, j);
        let sim = base.reseeded(seed, 1);
        let span = tracer.open("simulate.run_coloured_locality", None, Some(j));
        let clock = Instant::now();
        let (_, moved) =
            sim.run_coloured_locality(&inst.relabelled, &inst.layout, &inst.start, ticks);
        let secs = clock.elapsed().as_secs_f64();
        tracer.close(span);
        jobs.push((seed, secs, moved));
    }
    let elapsed = began.elapsed().as_secs_f64();
    let window_dispatches = base.pool().dispatches() - dispatches;
    report.attempted += jobs.len() as u64;
    let latencies: Vec<f64> = jobs.iter().map(|j| j.1).collect();
    let updates = jobs.len() as u64 * ROUNDS_PER_JOB * PLAYERS as u64;
    report.e2e("jobs_per_s", jobs.len() as f64 / elapsed, "1/s");
    report.e2e("latency_p50_ms", median(&latencies) * 1e3, "ms");
    report.e2e("sweep_updates_per_s", updates as f64 / elapsed, "1/s");
    report.note(format!(
        "window: {} jobs ({updates} player updates) in {elapsed:.3} s",
        jobs.len()
    ));

    // Correctness 1: one colour round, tick by tick, of the relabelled
    // byte path against the unrelabelled reference, moved counts included.
    let seed0 = jobs[0].0;
    let mut reference = inst.start.clone();
    let mut reference_scratch = Scratch::for_game(inst.reference.game());
    let mut bytes = Vec::new();
    inst.layout.pack_profile(&inst.start, &mut bytes);
    let mut byte_scratch = Scratch::for_game(inst.relabelled.game());
    let mut unpacked = Vec::new();
    report.attempted += 1;
    for t in 0..classes {
        let want = inst.reference.step_coloured(
            &inst.coloring,
            t,
            seed0,
            &mut reference,
            &mut reference_scratch,
        );
        let got = inst.relabelled.step_coloured_pooled_bytes(
            inst.layout.coloring(),
            t,
            seed0,
            Some(inst.layout.labels()),
            &mut bytes,
            &mut byte_scratch,
            base.pool(),
            base.runtime(),
        );
        if want != got {
            report.fail(format!(
                "tick {t}: relabelled path moved {got}, reference {want}"
            ));
            break;
        }
    }
    inst.layout.unpack_profile(&bytes, &mut unpacked);
    if unpacked != reference {
        report.fail("one colour round: the relabelled profile differs from the reference".into());
    }

    // Correctness 2 and the offline rate: the first window jobs run again
    // (untimed) and replayed on the unrelabelled reference engine.
    let mut replay_secs = Vec::new();
    for (j, &(seed, _, moved)) in jobs.iter().enumerate() {
        if j >= MIN_REPLAYED && replay_secs.iter().sum::<f64>() >= args.seconds as f64 / 3.0 {
            break;
        }
        report.attempted += 1;
        let (relabelled, again) = base.reseeded(seed, 1).run_coloured_locality(
            &inst.relabelled,
            &inst.layout,
            &inst.start,
            ticks,
        );
        let mut profile = inst.start.clone();
        let mut scratch = Scratch::for_game(inst.reference.game());
        let span = tracer.open("replay.step_coloured", None, Some(j as u64));
        let clock = Instant::now();
        let mut want = 0;
        for t in 0..ticks {
            want +=
                inst.reference
                    .step_coloured(&inst.coloring, t, seed, &mut profile, &mut scratch);
        }
        replay_secs.push(clock.elapsed().as_secs_f64());
        tracer.close(span);
        if want != moved || again != moved || relabelled != profile {
            report.fail(format!(
                "job {j}: the sweep differs from its reference replay"
            ));
        }
    }
    report.e2e(
        "offline_jobs_per_s",
        replay_secs.len() as f64 / replay_secs.iter().sum::<f64>(),
        "1/s",
    );

    if tracer.enabled() {
        let (kernel_ns, step_ns) =
            probe::kernel_and_step(&inst.reference, &inst.start, args.seed, 200_000, tracer);
        report.layer("rules.kernel_ns", kernel_ns, "ns");
        report.layer("dynamics.step_ns", step_ns, "ns");
        report.layer("dynamics.step_over_kernel", step_ns / kernel_ns, "ratio");
        let job_secs = median(&latencies);
        report.layer("simulate.ensemble_ms", job_secs * 1e3, "ms");
        let job_updates = (ROUNDS_PER_JOB * PLAYERS as u64) as f64;
        report.layer(
            "simulate.ensemble_over_step",
            job_updates / job_secs * step_ns * 1e-9,
            "ratio",
        );
        report.layer(
            "runtime.dispatches_per_job",
            window_dispatches as f64 / jobs.len() as f64,
            "count",
        );

        let locality = probe::locality(
            &inst.relabelled,
            &inst.layout,
            &inst.start,
            args.seed,
            4,
            &base,
            tracer,
        );
        if !locality.identical {
            report.fail("pooled and inline byte sweeps diverged".into());
        }
        report.layer("locality.tick_us", locality.tick_us, "us");
        report.layer(
            "locality.pooled_over_inline",
            locality.pooled_over_inline,
            "ratio",
        );
        report.layer("locality.moved_ratio", locality.moved_ratio, "ratio");
        report.layer("locality.bytes_per_update", bytes_per_update, "B");
        report.layer(
            "runtime.dispatches_per_round",
            locality.dispatches_per_round,
            "count",
        );
        // The share of a job's latency its colour ticks account for; the rest
        // is packing, unpacking and per-job set-up.
        report.layer(
            "trace.accounted_share",
            locality.round_secs * ROUNDS_PER_JOB as f64 / job_secs,
            "ratio",
        );
    }

    // Read before the extra set-ups, so that their garbage does not count.
    report.e2e("peak_rss_mb", crate::peak_rss_mb()?, "MB");
    drop((inst, base));
    for _ in 1..SETUPS {
        let clock = Instant::now();
        let (inst, _) = set_up_and_warm(args.seed);
        setups.push(clock.elapsed().as_secs_f64());
        built.push(inst.graph_ms);
    }
    report.e2e("setup_s", median(&setups), "s");
    report.note(format!("set-ups (s): {setups:?}"));
    if tracer.enabled() {
        let pick = |f: fn(&[f64; 3]) -> f64| median(&built.iter().map(f).collect::<Vec<_>>());
        report.layer("graphs.build_ms", pick(|b| b[0]), "ms");
        report.layer("graphs.colouring_ms", pick(|b| b[1]), "ms");
        report.layer("graphs.layout_ms", pick(|b| b[2]), "ms");
    }
    Ok(())
}

/// One set-up: the instance, a simulator whose pool has spawned, and one
/// warm-up colour round through the working set.
fn set_up_and_warm(seed: u64) -> (Instance, Simulator) {
    let inst = set_up(seed);
    let sim = Simulator::new(seed, 1);
    sim.run_coloured_locality(
        &inst.relabelled,
        &inst.layout,
        &inst.start,
        inst.coloring.num_classes() as u64,
    );
    (inst, sim)
}
