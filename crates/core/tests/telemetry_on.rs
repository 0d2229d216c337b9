//! The live-telemetry counterpart of `telemetry_off.rs`: with the
//! `telemetry` feature compiled in and recording force-enabled, the
//! engines must (a) stay bit-identical to their sequential baselines —
//! instruments observe, they never steer — and (b) actually populate the
//! global registry with the runtime/pipeline instrument families the
//! observability docs promise.

#![cfg(feature = "telemetry")]

use logit_core::observables::PotentialObservable;
use logit_core::parallel::coloring_for_game;
use logit_core::rules::{Logit, MetropolisLogit};
use logit_core::{
    DynamicsEngine, PipelineConfig, RuntimeConfig, Scratch, Simulator, TemperingEnsemble,
    UniformSingle, WorkerPool,
};
use logit_games::{Game, GraphicalCoordinationGame, TablePotentialGame};
use logit_graphs::GraphBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One process-wide test: the registry is global, so a single test keeps
/// the instrument-population asserts free of inter-test ordering races.
#[test]
fn live_recording_observes_without_steering() {
    assert!(logit_telemetry::enable(), "feature builds honour enable()");
    assert!(logit_telemetry::enabled());

    // Pipelined ensembles stay bit-identical to the sequential run while
    // the farm records channel occupancy and chunk-size trajectories.
    let mut rng = StdRng::seed_from_u64(2024);
    let game = TablePotentialGame::random(vec![2, 3, 2], 2.0, &mut rng);
    let runtime = RuntimeConfig {
        workers: 3,
        ..RuntimeConfig::default()
    };
    let sim = Simulator::with_runtime(2024 ^ 0x9192, 16, runtime);
    let obs = PotentialObservable::new(game.clone());
    let config = PipelineConfig {
        chunk_ticks: 7,
        channel_capacity: 3,
        ..PipelineConfig::default()
    };
    let d = DynamicsEngine::with_rule(game.clone(), Logit, 1.1);
    let start = [0usize, 0, 0];
    let sequential = sim.run_profiles(&d, &start, 33, 10, &obs);
    let pipelined = sim.run_profiles_pipelined_with(&d, &start, 33, 10, &obs, &config);
    assert_eq!(sequential.times, pipelined.times);
    assert_eq!(sequential.final_values, pipelined.final_values);
    assert_eq!(sequential.law().ks_distance(&pipelined.law()), 0.0);

    // Coloured-pooled stepping stays bit-identical to the sequential
    // class sweep while the pool records dispatch spans and steal counts.
    let mut graph_rng = StdRng::seed_from_u64(4242);
    let graph = GraphBuilder::connected_erdos_renyi(9, 0.5, &mut graph_rng, 20);
    let coord =
        GraphicalCoordinationGame::new(graph, logit_games::CoordinationGame::from_deltas(2.0, 1.0));
    let coloring = coloring_for_game(&coord);
    let pool_config = RuntimeConfig {
        workers: 3,
        min_class_size: 0,
        ..RuntimeConfig::default()
    };
    let pool = WorkerPool::new(&pool_config);
    let engine = DynamicsEngine::with_rule(coord.clone(), MetropolisLogit, 1.3);
    let n = coord.num_players();
    let mut scratch = Scratch::for_game(&coord);
    let mut pooled_scratch = Scratch::for_game(&coord);
    let mut pooled_staged = Vec::new();
    let mut seq = vec![0usize; n];
    let mut pooled = vec![0usize; n];
    for t in 0..2 * coloring.num_classes() as u64 + 3 {
        let moved_seq = engine.step_coloured(&coloring, t, 4242, &mut seq, &mut scratch);
        let moved_pooled = engine.step_coloured_pooled(
            &coloring,
            t,
            4242,
            &mut pooled,
            &mut pooled_scratch,
            &mut pooled_staged,
            &pool,
            &pool_config,
        );
        assert_eq!(
            seq, pooled,
            "pooled diverged at t = {t} under live telemetry"
        );
        assert_eq!(moved_seq, moved_pooled);
    }

    // The tempering swap phase publishes through handles resolved once per
    // ensemble: the counter advances by K - 1 proposals per round, and each
    // pair's gauge carries this ensemble's live acceptance rate.
    let registry = logit_telemetry::global();
    let attempted_before = registry.counter("tempering.swaps_attempted").value();
    let ensemble = TemperingEnsemble::new(coord.clone(), Logit, &[0.2, 0.8, 1.6]);
    let mut state = ensemble.init_state(&vec![0; n], 77);
    let rounds = 12;
    for _ in 0..rounds {
        ensemble.round(&UniformSingle, &mut state, 9);
    }
    assert_eq!(
        registry.counter("tempering.swaps_attempted").value() - attempted_before,
        2 * rounds
    );
    for pair in 0..2 {
        let gauge = registry.gauge_labelled("tempering.swap_rate", ("pair", &pair.to_string()));
        assert_eq!(gauge.value(), state.swap_stats().rate(pair));
    }

    // Both layers must have left their instrument families behind.
    assert!(logit_telemetry::global().instrument_count() > 0);
    let snapshot = logit_telemetry::global().render();
    for family in [
        "runtime_dispatch_ns",
        "pipeline_batches_sent",
        "pipeline_channel_in_flight",
        "pipeline_chunk_ticks",
    ] {
        assert!(
            snapshot.contains(family),
            "live registry must carry `{family}`; snapshot:\n{snapshot}"
        );
    }
    let samples = logit_telemetry::parse_prometheus(&snapshot)
        .expect("live snapshot must round-trip through the parser");
    assert!(
        samples
            .get("runtime_dispatch_ns_count")
            .copied()
            .unwrap_or(0.0)
            >= 1.0,
        "the pool recorded at least one dispatch span"
    );
}
