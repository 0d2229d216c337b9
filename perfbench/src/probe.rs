//! Single-layer probes on a workload's own instance: the per-player
//! kernel, one engine step, the pooled and inline byte sweeps, and the
//! graph, colouring and layout builds. Each figure is the median of
//! repeated timings.

use crate::stats::median;
use crate::trace::Tracer;
use logit_core::{
    coloring_for_graph, DynamicsEngine, LocalityLayout, Scratch, Simulator, UpdateRule,
};
use logit_games::{Game, LocalGame};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

const REPEATS: usize = 5;

/// `(rules.kernel_ns, dynamics.step_ns)`: one
/// `update_distribution_into` call and one `step_profile` call,
/// single-threaded, from `start`.
pub fn kernel_and_step<G: Game, U: UpdateRule>(
    engine: &DynamicsEngine<G, U>,
    start: &[usize],
    seed: u64,
    calls: usize,
    tracer: &Tracer,
) -> (f64, f64) {
    let n = engine.game().num_players();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let players: Vec<usize> = (0..calls).map(|_| rng.gen_range(0..n)).collect();
    let mut profile = start.to_vec();
    let mut scratch = Scratch::for_game(engine.game());
    let (mut kernel, mut step) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let clock = Instant::now();
        tracer.span("rules.kernel", None, None, || {
            for &player in &players {
                engine.update_distribution_into(player, &mut profile, &mut scratch);
                black_box(scratch.probs());
            }
        });
        kernel.push(clock.elapsed().as_nanos() as f64 / calls as f64);

        let clock = Instant::now();
        tracer.span("dynamics.step", None, None, || {
            for _ in 0..calls {
                black_box(engine.step_profile(&mut profile, &mut scratch, &mut rng));
            }
        });
        step.push(clock.elapsed().as_nanos() as f64 / calls as f64);
    }
    (median(&kernel), median(&step))
}

/// The locality layer on one instance.
pub struct Locality {
    /// Median per-tick time of `step_coloured_pooled_bytes`, in µs.
    pub tick_us: f64,
    /// Median per-round time of the pooled sweep, in seconds.
    pub round_secs: f64,
    /// Median over rounds of inline time ÷ pooled time.
    pub pooled_over_inline: f64,
    /// Players that changed strategy ÷ player updates.
    pub moved_ratio: f64,
    /// Pool dispatches per colour round.
    pub dispatches_per_round: f64,
    /// Whether the pooled and inline byte profiles stayed bit-identical.
    pub identical: bool,
}

/// Runs `rounds` colour rounds of the relabelled byte sweep twice from
/// `start` (original labels): pooled on `sim`'s worker pool, and inline
/// with `step_coloured_bytes`, round by round in alternation.
pub fn locality<G: LocalGame + Sync, U: UpdateRule>(
    engine: &DynamicsEngine<G, U>,
    layout: &LocalityLayout,
    start: &[usize],
    seed: u64,
    rounds: u64,
    sim: &Simulator,
    tracer: &Tracer,
) -> Locality {
    let coloring = layout.coloring();
    let classes = coloring.num_classes() as u64;
    let mut pooled = Vec::new();
    layout.pack_profile(start, &mut pooled);
    let mut inline = pooled.clone();
    let mut pooled_scratch = Scratch::for_game(engine.game());
    let mut inline_scratch = Scratch::for_game(engine.game());
    let pool = sim.pool();
    let dispatches = pool.dispatches();
    let (mut ticks, mut round_secs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut moved = 0u64;
    let mut identical = true;
    for round in 0..rounds {
        let clock = Instant::now();
        let span = tracer.open("locality.round_pooled", None, None);
        for t in round * classes..(round + 1) * classes {
            let tick = Instant::now();
            moved += tracer.span("locality.tick", Some(span), None, || {
                engine.step_coloured_pooled_bytes(
                    coloring,
                    t,
                    seed,
                    Some(layout.labels()),
                    &mut pooled,
                    &mut pooled_scratch,
                    pool,
                    sim.runtime(),
                )
            }) as u64;
            ticks.push(tick.elapsed().as_secs_f64() * 1e6);
        }
        tracer.close(span);
        let pooled_secs = clock.elapsed().as_secs_f64();

        let clock = Instant::now();
        tracer.span("locality.round_inline", None, None, || {
            for t in round * classes..(round + 1) * classes {
                engine.step_coloured_bytes(
                    coloring,
                    t,
                    seed,
                    Some(layout.labels()),
                    &mut inline,
                    &mut inline_scratch,
                );
            }
        });
        let inline_secs = clock.elapsed().as_secs_f64();
        identical &= pooled == inline;
        round_secs.push(pooled_secs);
        ratios.push(inline_secs / pooled_secs);
    }
    let updates = rounds * coloring.num_vertices() as u64;
    Locality {
        tick_us: median(&ticks),
        round_secs: median(&round_secs),
        pooled_over_inline: median(&ratios),
        moved_ratio: moved as f64 / updates as f64,
        dispatches_per_round: (pool.dispatches() - dispatches) as f64 / rounds as f64,
        identical,
    }
}

/// Bytes of the arrays one colour round of the CSR byte sweep walks,
/// divided by its `n` updates — computed from array sizes, not measured:
/// CSR offsets (`n + 1` u32) and targets (`2m` u32), the byte profile and
/// the staged bytes (`n` each), the class member lists (`n` usize) and the
/// label table (`n` u32).
pub fn bytes_per_update(n: usize, edges: usize) -> f64 {
    let bytes = 4 * (n + 1) + 4 * 2 * edges + n + n + 8 * n + 4 * n;
    bytes as f64 / n as f64
}

/// Graph-layer build times in ms: `(build, colouring, layout)`.
#[derive(Debug, Clone, Copy)]
pub struct GraphTimes {
    pub build_ms: f64,
    pub colouring_ms: f64,
    pub layout_ms: f64,
}

/// Times building every graph of `topologies`, colouring it and laying it
/// out, as the server's admission does on a cache miss; each figure is
/// the median over repeats of the sum over topologies.
pub fn graphs(topologies: &[logit_server::Topology], tracer: &Tracer) -> GraphTimes {
    let (mut build, mut colour, mut layout) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (mut b, mut c, mut l) = (0.0, 0.0, 0.0);
        for &topology in topologies {
            let clock = Instant::now();
            let graph = tracer.span("graphs.build", None, None, || {
                crate::gen::build_graph(topology)
            });
            b += clock.elapsed().as_secs_f64() * 1e3;
            let clock = Instant::now();
            let coloring = tracer.span("graphs.colouring", None, None, || {
                coloring_for_graph(&graph)
            });
            c += clock.elapsed().as_secs_f64() * 1e3;
            let clock = Instant::now();
            black_box(tracer.span("graphs.layout", None, None, || {
                LocalityLayout::from_graph(&graph, &coloring)
            }));
            l += clock.elapsed().as_secs_f64() * 1e3;
        }
        build.push(b);
        colour.push(c);
        layout.push(l);
    }
    GraphTimes {
        build_ms: median(&build),
        colouring_ms: median(&colour),
        layout_ms: median(&layout),
    }
}

/// A uniformly random 0/1 profile of `n` players.
pub fn random_profile(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..2usize)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_update_counts_the_round_arrays() {
        // A degree-8 circulant: 4 + 32 (CSR) + 2 (bytes) + 8 + 4, plus the
        // trailing offset spread over the players.
        let per = bytes_per_update(1_000_000, 4_000_000);
        assert!((per - 50.0).abs() < 1e-5, "{per}");
    }
}
