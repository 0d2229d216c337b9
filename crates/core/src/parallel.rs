//! Coloured parallel revision: block selection schedules and the truly
//! parallel independent-set engine path.
//!
//! The paper's chain revises one uniformly random player per step; its
//! companion line of work revises *everyone* per step (all-logit). This
//! module fills in the space between, along two axes:
//!
//! * [`RandomBlock`]`(k)` — a random `k`-subset of players revises as a
//!   parallel block each tick, interpolating
//!   [`UniformSingle`](crate::schedules::UniformSingle) (`k = 1`) →
//!   [`AllLogit`](crate::schedules::AllLogit) (`k = n`);
//! * [`ColouredBlocks`] — one colour class of a proper colouring of the
//!   interaction graph revises per tick, classes cycling round-robin. For a
//!   [`LocalGame`] a colour class is an **independent set**, so the block
//!   update is not merely a modelling choice but the *correct
//!   parallelisation*: non-neighbours' updates commute, and a parallel
//!   frozen-profile block equals any sequential ordering of the same
//!   updates.
//!
//! Both are ordinary [`SelectionSchedule`]s, so they plug into everything
//! downstream unchanged — `step_scheduled`, `run_profiles_scheduled`, the
//! pipelined farm, `run_tempered`, sweeps, annealing.
//!
//! On top of the schedule seam sits the genuinely parallel engine path,
//! [`DynamicsEngine::step_coloured_par`]: a whole colour class is updated by
//! rayon-scoped workers, every player drawing from her **own deterministic
//! RNG stream** (derived from `(seed, player, tick)`), each worker reading
//! the frozen pre-tick profile through the read-only
//! [`LocalGame::utilities_for_frozen`] hook. Because the class is an
//! independent set, the result is bit-identical to the sequential class
//! sweep [`DynamicsEngine::step_coloured`] *by construction* — the
//! commutation argument, pinned by a proptest across rules × topologies —
//! whatever the worker count or chunking.
//!
//! The exact-chain counterparts,
//! [`DynamicsEngine::transition_matrix_coloured_block`] and
//! [`DynamicsEngine::transition_chain_coloured_round`], make the schedule
//! theory-checkable in the style of
//! [`transition_chain_all_logit`](crate::dynamics::DynamicsEngine::transition_chain_all_logit):
//! one round (every class once) is the ordered product of commuting player
//! kernels, so for the Gibbs-reversible rules the round chain keeps the
//! Gibbs measure stationary — unlike the all-logit block chain, whose
//! stationary law is a genuinely different object.

use crate::dynamics::{sample_index_from_uniform, DynamicsEngine, Scratch};
use crate::rules::UpdateRule;
use crate::runtime::{RuntimeConfig, WorkerPool};
use crate::schedules::SelectionSchedule;
use logit_games::{interaction_graph, LocalGame};
use logit_graphs::{dsatur_coloring, greedy_coloring, Coloring};
use logit_linalg::Matrix;
use logit_markov::MarkovChain;
use rand::Rng;

/// A parallel block schedule revising a uniformly random `k`-subset of the
/// players each tick (all sampling against the frozen pre-tick profile).
///
/// `k = 1` is distributed like the paper's
/// [`UniformSingle`](crate::schedules::UniformSingle) chain; `k = n` selects
/// everyone and coincides with
/// [`AllLogit`](crate::schedules::AllLogit)'s update set — the schedule
/// interpolates between the two. Selection consumes exactly `k`
/// `gen_range` draws (Floyd's subset-sampling algorithm) and the selected
/// players are emitted in ascending order, so block composition is
/// deterministic given the draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomBlock {
    k: usize,
}

impl RandomBlock {
    /// Creates the schedule with block size `k ≥ 1`.
    ///
    /// # Panics
    /// Panics when `k = 0`. (That `k` does not exceed the player count is
    /// asserted at selection time, where the player count is known.)
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "a random block revises at least one player");
        Self { k }
    }

    /// The block size `k`.
    pub fn block_size(&self) -> usize {
        self.k
    }
}

impl SelectionSchedule for RandomBlock {
    fn select_players<R: Rng + ?Sized>(
        &self,
        _t: u64,
        num_players: usize,
        rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        assert!(
            self.k <= num_players,
            "block size {} exceeds the player count {num_players}",
            self.k
        );
        // Floyd's algorithm, kept sorted in the caller's reused buffer:
        // k draws, k distinct players, no O(n) buffer, no allocation on the
        // hot stepping path. When the drawn `r` is already present, `j`
        // replaces it — and `j` strictly exceeds every earlier entry
        // (previous iterations only held values < j), so it appends.
        out.clear();
        for j in (num_players - self.k)..num_players {
            let r = rng.gen_range(0..j + 1);
            match out.binary_search(&r) {
                Err(pos) => out.insert(pos, r),
                Ok(_) => out.push(j),
            }
        }
    }

    fn parallel(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "random_block"
    }
}

/// The graph-colouring schedule: tick `t` revises colour class
/// `t mod num_classes` of a proper colouring of the interaction graph, as a
/// parallel block; a *round* of `num_classes` consecutive ticks revises
/// every player exactly once.
///
/// For a [`LocalGame`] each class is an independent set, so the parallel
/// block update is exactly equivalent to revising the class sequentially —
/// the correct parallelisation of the dynamics, and the schedule the
/// genuinely parallel [`DynamicsEngine::step_coloured_par`] path executes.
/// Selection consumes no randomness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColouredBlocks {
    coloring: Coloring,
}

impl ColouredBlocks {
    /// Creates the schedule from a colouring (use
    /// [`Coloring::is_proper`] against the interaction graph when the
    /// colouring does not come from one of the constructions here).
    pub fn new(coloring: Coloring) -> Self {
        Self { coloring }
    }

    /// Colours `game`'s interaction graph via [`coloring_for_game`]
    /// (scale-aware DSATUR/greedy choice) and wraps it.
    pub fn for_game<G: LocalGame>(game: &G) -> Self {
        Self::new(coloring_for_game(game))
    }

    /// The underlying colouring.
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }
}

impl SelectionSchedule for ColouredBlocks {
    fn select_players<R: Rng + ?Sized>(
        &self,
        t: u64,
        num_players: usize,
        _rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        assert_eq!(
            num_players,
            self.coloring.num_vertices(),
            "colouring covers a different player count"
        );
        out.clear();
        out.extend_from_slice(self.coloring.class(self.coloring.class_of_tick(t)));
    }

    fn parallel(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "coloured_blocks"
    }
}

/// A proper colouring of `game`'s interaction graph — the
/// `GraphBuilder`-topology-to-schedule bridge in one call: any
/// [`LocalGame`] (graphical coordination or Ising on a builder topology, a
/// congestion game with its implicit resource-sharing graph, …) comes back
/// as a [`Coloring`] ready for [`ColouredBlocks`] and the parallel engine
/// path.
///
/// Algorithm choice is scale-aware: DSATUR (usually the fewest classes,
/// exact on bipartite graphs) costs `O(n·(Δ+1))` memory for its exact
/// saturation bookkeeping plus a quadratic-ish selection scan, so beyond a
/// size threshold this falls back to first-fit greedy — `O(n + m)` time,
/// `O(Δ)` extra memory, the same `χ ≤ Δ + 1` guarantee (on the dense
/// circulant bench instance the two produce the *same* class count). Both
/// are deterministic, so the choice depends only on the graph, never the
/// host.
pub fn coloring_for_game<G: LocalGame>(game: &G) -> Coloring {
    coloring_for_graph(&interaction_graph(game))
}

/// The scale-aware colouring choice of [`coloring_for_game`] on an already
/// materialised graph — the entry point when the caller holds the
/// interaction graph anyway (the locality layout does, to avoid bridging
/// a `10⁷`-vertex game twice).
pub fn coloring_for_graph(graph: &logit_graphs::Graph) -> Coloring {
    // Two caps gate DSATUR. The cell bound (~4M bookkeeping entries) keeps
    // its saturation table in cache-adjacent memory; the vertex bound caps
    // its O(n²) selection scan — a low-degree graph like a 10⁶-vertex ring
    // passes the cell bound but would spend hours in the scan. 2¹⁴ vertices
    // (≤ ~270M comparisons, tens of milliseconds) covers every
    // exact-analysis instance with a wide margin.
    let n = graph.num_vertices();
    let dsatur_cells = n.saturating_mul(graph.max_degree() + 1);
    if dsatur_cells <= 1 << 22 && n <= 1 << 14 {
        dsatur_coloring(graph)
    } else {
        greedy_coloring(graph)
    }
}

/// SplitMix64 finaliser: decorrelates the per-player stream seeds.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic seed of player `player`'s revision randomness at tick
/// `t` — a counter-mode hash, not a position in a shared stream.
///
/// Per-player streams are what make the parallel independent-set update
/// order-free: each player's strategy draw depends only on
/// `(seed, player, t)`, never on which worker ran her or in what order — so
/// the parallel path and the sequential class sweep consume identical
/// randomness per player and walk identical trajectories.
#[inline]
pub fn player_tick_seed(seed: u64, player: usize, t: u64) -> u64 {
    // Chained finaliser applications: splitmix64 is a bijection, so for a
    // fixed tick distinct players always get distinct seeds.
    stream_seed(tick_stream(seed, t), player)
}

/// The two finaliser rounds of [`player_tick_seed`] that depend only on
/// `(seed, t)`: a class sweep computes them once per tick and spends one
/// round per player ([`stream_uniform`]).
#[inline]
pub(crate) fn tick_stream(seed: u64, t: u64) -> u64 {
    let h = splitmix64(seed ^ 0xC010_12ED_5EED_0001);
    splitmix64(h.wrapping_add(t))
}

#[inline]
fn stream_seed(stream: u64, player: usize) -> u64 {
    splitmix64(stream.wrapping_add(player as u64))
}

/// The single uniform variate behind player `player`'s strategy draw at
/// tick `t`: the top 53 bits of [`player_tick_seed`] mapped into `[0, 1)`.
///
/// One inverse-CDF draw is all a revision consumes (the update rule packs
/// every other source of randomness into the probability vector), so a
/// counter-derived variate — a few integer mixes, no generator state — is a
/// complete per-player stream. Both coloured step paths sample from this,
/// which keeps the per-update cost at sequential-stepping parity on one
/// core while making the update order unobservable on many.
#[inline]
pub fn player_tick_uniform(seed: u64, player: usize, t: u64) -> f64 {
    stream_uniform(tick_stream(seed, t), player)
}

/// [`player_tick_uniform`] for the tick whose [`tick_stream`] is `stream`.
#[inline]
pub(crate) fn stream_uniform(stream: u64, player: usize) -> f64 {
    (stream_seed(stream, player) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl<G: LocalGame, U: UpdateRule> DynamicsEngine<G, U> {
    /// One coloured tick, sequential reference path: the players of colour
    /// class `t mod num_classes` revise one at a time **in place** (each
    /// seeing the previous updates of the same tick), every player drawing
    /// from her own `(seed, player, t)` stream. Returns the number of
    /// players that moved.
    ///
    /// Because the class is an independent set of a [`LocalGame`]'s
    /// interaction graph, no player in it can observe another's same-tick
    /// update — which is exactly why [`Self::step_coloured_par`] (frozen
    /// profile, any worker count) is bit-identical to this sweep.
    ///
    /// # Panics
    /// Panics when the colouring's vertex count differs from the player
    /// count.
    pub fn step_coloured(
        &self,
        coloring: &Coloring,
        t: u64,
        seed: u64,
        profile: &mut [usize],
        scratch: &mut Scratch,
    ) -> usize {
        let n = self.game().num_players();
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different player count"
        );
        debug_assert_eq!(profile.len(), n);
        let class = coloring.class_of_tick(t);
        let mut moved = 0;
        for &player in coloring.class(class) {
            self.update_distribution_into(player, profile, scratch);
            let strategy =
                sample_index_from_uniform(scratch.probs(), player_tick_uniform(seed, player, t));
            if profile[player] != strategy {
                moved += 1;
            }
            profile[player] = strategy;
        }
        moved
    }
}

impl<G: LocalGame + Sync, U: UpdateRule> DynamicsEngine<G, U> {
    /// One coloured tick, genuinely parallel: the colour class of tick `t`
    /// is chunked across `workers` rayon-scoped threads, each computing its
    /// players' new strategies against the **frozen** pre-tick profile
    /// (through the read-only [`LocalGame::utilities_for_frozen`] hook) into
    /// a staged buffer; the block is then applied at once. Returns the
    /// number of players that moved.
    ///
    /// Per-player RNG streams ([`player_tick_seed`]) make the result
    /// independent of the worker count, the chunking and the execution
    /// order, and — because a colour class is an independent set, so
    /// non-neighbours commute — bit-identical to the sequential in-place
    /// sweep [`Self::step_coloured`] from the same `(seed, t)`. The
    /// proptest harness pins this across rules × topologies.
    ///
    /// `workers = 0` resolves to one per available core; the work is run
    /// inline (no thread spawn) when a single worker would remain. `staged`
    /// is a caller-owned scratch buffer, recycled across ticks.
    ///
    /// # Panics
    /// Panics when the colouring's vertex count differs from the player
    /// count.
    pub fn step_coloured_par(
        &self,
        coloring: &Coloring,
        t: u64,
        seed: u64,
        profile: &mut [usize],
        staged: &mut Vec<usize>,
        workers: usize,
    ) -> usize {
        let n = self.game().num_players();
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different player count"
        );
        debug_assert_eq!(profile.len(), n);
        let players = coloring.class(coloring.class_of_tick(t));
        staged.clear();
        staged.resize(players.len(), 0);

        let auto = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let workers = if workers == 0 { auto } else { workers }
            .max(1)
            .min(players.len());

        if workers <= 1 {
            self.stage_class(players, t, seed, profile, staged);
        } else {
            let chunk = players.len().div_ceil(workers);
            let frozen: &[usize] = profile;
            rayon::scope(|s| {
                for (player_chunk, out_chunk) in players.chunks(chunk).zip(staged.chunks_mut(chunk))
                {
                    s.spawn(move |_| {
                        self.stage_class(player_chunk, t, seed, frozen, out_chunk);
                    });
                }
            });
        }

        let mut moved = 0;
        for (&player, &strategy) in players.iter().zip(staged.iter()) {
            if profile[player] != strategy {
                moved += 1;
            }
            profile[player] = strategy;
        }
        moved
    }

    /// Samples the new strategies of `players` against the frozen `profile`
    /// into `staged`, one `(seed, player, t)` stream per player. The
    /// per-worker kernel of [`Self::step_coloured_par`].
    fn stage_class(
        &self,
        players: &[usize],
        t: u64,
        seed: u64,
        profile: &[usize],
        staged: &mut [usize],
    ) {
        let mut utils: Vec<f64> = Vec::with_capacity(self.game().max_strategies());
        let mut probs: Vec<f64> = Vec::with_capacity(self.game().max_strategies());
        self.stage_class_with(players, t, seed, profile, staged, &mut utils, &mut probs);
    }

    /// [`Self::stage_class`] with caller-supplied utility/probability
    /// buffers, so pooled workers can reuse thread-local storage instead of
    /// allocating per dispatch.
    #[allow(clippy::too_many_arguments)]
    fn stage_class_with(
        &self,
        players: &[usize],
        t: u64,
        seed: u64,
        profile: &[usize],
        staged: &mut [usize],
        utils: &mut Vec<f64>,
        probs: &mut Vec<f64>,
    ) {
        let beta = self.beta();
        for (&player, slot) in players.iter().zip(staged.iter_mut()) {
            let m = self.game().num_strategies(player);
            utils.clear();
            utils.resize(m, 0.0);
            self.game().utilities_for_frozen(player, profile, utils);
            self.rule().fill_probs(beta, profile[player], utils, probs);
            *slot = sample_index_from_uniform(probs, player_tick_uniform(seed, player, t));
        }
    }

    /// One coloured tick through the persistent [`WorkerPool`]: the same
    /// frozen-profile staged update as [`Self::step_coloured_par`], but the
    /// chunks are claimed by pool workers that were spawned once and wait
    /// between ticks, instead of a fresh `rayon::scope` thread spawn per
    /// tick. Returns the number of players that moved.
    ///
    /// Worker-count resolution goes through [`RuntimeConfig`]: classes
    /// narrower than `min_class_size` — and any configuration resolving to
    /// a single stepping thread — run the sequential in-place class sweep
    /// ([`Self::step_coloured`]) inline on the caller with **zero dispatch
    /// overhead** (the pool's dispatch counter does not move), which is
    /// the narrow-class amortisation guard. Wider classes are chunked
    /// across the caller plus pool workers, each staging into its slice of
    /// `staged` with thread-local utility buffers.
    ///
    /// Per-player counter-derived draws ([`player_tick_seed`]) make the
    /// result independent of worker count, chunking, wait policy and
    /// chunk→thread assignment, and bit-identical to both
    /// [`Self::step_coloured`] and [`Self::step_coloured_par`] from the
    /// same `(seed, t)` — pinned by the pooled proptest harness.
    ///
    /// # Panics
    /// Panics when the colouring's vertex count differs from the player
    /// count.
    #[allow(clippy::too_many_arguments)]
    pub fn step_coloured_pooled(
        &self,
        coloring: &Coloring,
        t: u64,
        seed: u64,
        profile: &mut [usize],
        scratch: &mut Scratch,
        staged: &mut Vec<usize>,
        pool: &WorkerPool,
        config: &RuntimeConfig,
    ) -> usize {
        let n = self.game().num_players();
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different player count"
        );
        debug_assert_eq!(profile.len(), n);
        let players = coloring.class(coloring.class_of_tick(t));
        let workers = config.class_workers(players.len()).min(pool.workers() + 1);
        if workers <= 1 {
            return self.step_coloured(coloring, t, seed, profile, scratch);
        }

        staged.clear();
        staged.resize(players.len(), 0);
        // Cache-blocked sweep: the even split is capped at
        // `RuntimeConfig::block_players` so every chunk's working set
        // (strategy bytes + staged slots + the neighbour rows it touches)
        // stays L2-resident; the pool's dynamic claim counter load-balances
        // the surplus chunks. Chunking never changes results — every draw is
        // keyed by `(seed, player, t)` alone.
        let chunk = config.sweep_chunk(players.len(), workers);
        let frozen: &[usize] = profile;
        pool.for_each_chunk(staged, chunk, workers, &|index, out| {
            let start = index * chunk;
            let player_chunk = &players[start..start + out.len()];
            STAGE_BUFFERS.with(|buffers| {
                let (utils, probs) = &mut *buffers.borrow_mut();
                self.stage_class_with(player_chunk, t, seed, frozen, out, utils, probs);
            });
        });

        let mut moved = 0;
        for (&player, &strategy) in players.iter().zip(staged.iter()) {
            if profile[player] != strategy {
                moved += 1;
            }
            profile[player] = strategy;
        }
        moved
    }
}

std::thread_local! {
    /// Per-thread staging buffers (utilities, probabilities) for the pooled
    /// coloured path: pool workers persist across ticks, so these warm up
    /// once per thread instead of allocating per dispatch (the former
    /// per-call `Vec::with_capacity` in `stage_class` was a measurable part
    /// of the scoped path's orchestration overhead).
    pub(crate) static STAGE_BUFFERS: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

impl<G: logit_games::Game, U: UpdateRule> DynamicsEngine<G, U> {
    /// The exact transition matrix of one coloured block tick for `class`:
    /// every player of the class revises against the frozen profile, the
    /// rest stay put — `P_C(x, y) = Π_{i ∈ C} σ_i(y_i | x)` when `y` agrees
    /// with `x` off `C`, else 0.
    ///
    /// For a proper colouring of a [`LocalGame`] this equals the ordered
    /// product of the class's single-player kernels (non-neighbours
    /// commute) — the identity the test harness pins.
    pub fn transition_matrix_coloured_block(&self, coloring: &Coloring, class: usize) -> Matrix {
        let space = self.space();
        let size = space.size();
        let n = self.game().num_players();
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different player count"
        );
        let players = coloring.class(class);
        let mut in_class = vec![false; n];
        for &i in players {
            in_class[i] = true;
        }
        let mut p = Matrix::zeros(size, size);
        let mut scratch = Scratch::for_game(self.game());
        let mut profile = vec![0usize; n];
        let mut per_player: Vec<Vec<f64>> = vec![Vec::new(); players.len()];
        for x in 0..size {
            space.write_profile(x, &mut profile);
            for (&player, probs) in players.iter().zip(per_player.iter_mut()) {
                self.update_distribution_into(player, &mut profile, &mut scratch);
                probs.clear();
                probs.extend_from_slice(scratch.probs());
            }
            'targets: for y in 0..size {
                let mut prob = 1.0;
                for i in 0..n {
                    if !in_class[i] && space.strategy_of(y, i) != profile[i] {
                        continue 'targets;
                    }
                }
                for (&player, probs) in players.iter().zip(per_player.iter()) {
                    prob *= probs[space.strategy_of(y, player)];
                    if prob == 0.0 {
                        break;
                    }
                }
                p[(x, y)] = prob;
            }
        }
        p
    }

    /// The exact transition matrix of one full coloured **round** — every
    /// colour class once, in colour order: the ordered block product
    /// `P_{C_0} · P_{C_1} ⋯ P_{C_{m−1}}`. One round equals `n` player
    /// updates, like a systematic sweep (and for a proper colouring of a
    /// `LocalGame` it *is* a sweep in a permuted player order, so the round
    /// chain keeps the Gibbs measure stationary for the reversible rules —
    /// where the all-logit block chain does not).
    pub fn transition_matrix_coloured_round(&self, coloring: &Coloring) -> Matrix {
        let mut p = self.transition_matrix_coloured_block(coloring, 0);
        for class in 1..coloring.num_classes() {
            p = p.matmul(&self.transition_matrix_coloured_block(coloring, class));
        }
        p
    }

    /// The coloured round matrix as a validated Markov chain — the exact
    /// object [`ColouredBlocks`] simulates, in the style of
    /// [`transition_chain_all_logit`](crate::dynamics::DynamicsEngine::transition_chain_all_logit).
    pub fn transition_chain_coloured_round(&self, coloring: &Coloring) -> MarkovChain {
        MarkovChain::new(self.transition_matrix_coloured_round(coloring))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LogitDynamics;
    use crate::rules::{Fermi, ImitateBetter, Logit, MetropolisLogit, NoisyBestResponse};
    use crate::schedules::AllLogit;
    use logit_games::{CoordinationGame, GraphicalCoordinationGame, IsingGame};
    use logit_graphs::GraphBuilder;
    use logit_markov::{stationary_distribution, total_variation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring_dynamics(n: usize, beta: f64) -> LogitDynamics<GraphicalCoordinationGame> {
        LogitDynamics::new(
            GraphicalCoordinationGame::new(
                GraphBuilder::ring(n),
                CoordinationGame::from_deltas(2.0, 1.0),
            ),
            beta,
        )
    }

    #[test]
    fn random_block_selects_k_distinct_sorted_players() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        for k in 1..=6 {
            let schedule = RandomBlock::new(k);
            assert!(schedule.parallel());
            assert_eq!(schedule.block_size(), k);
            for t in 0..50 {
                schedule.select_players(t, 6, &mut rng, &mut out);
                assert_eq!(out.len(), k, "exactly k players per tick");
                assert!(out.windows(2).all(|w| w[0] < w[1]), "distinct, ascending");
                assert!(out.iter().all(|&p| p < 6));
            }
        }
        // k = n selects everyone — the AllLogit update set.
        RandomBlock::new(6).select_players(0, 6, &mut rng, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn random_block_consumes_exactly_k_draws() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let mut out = Vec::new();
        RandomBlock::new(3).select_players(0, 10, &mut a, &mut out);
        for j in 7..10usize {
            let _ = b.gen_range(0..j + 1);
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams in the same spot");
    }

    #[test]
    #[should_panic(expected = "exceeds the player count")]
    fn oversized_random_block_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        RandomBlock::new(7).select_players(0, 6, &mut rng, &mut out);
    }

    #[test]
    fn coloured_blocks_cycle_classes_and_consume_no_randomness() {
        let coloring = greedy_coloring(&GraphBuilder::ring(6));
        let schedule = ColouredBlocks::new(coloring.clone());
        assert!(schedule.parallel());
        assert_eq!(schedule.name(), "coloured_blocks");
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = Vec::new();
        for t in 0..6u64 {
            schedule.select_players(t, 6, &mut rng, &mut out);
            assert_eq!(out, coloring.class(coloring.class_of_tick(t)));
        }
        let mut fresh = StdRng::seed_from_u64(5);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>(), "no draws consumed");
    }

    #[test]
    fn coloured_step_paths_are_bit_identical_for_every_worker_count() {
        let d = ring_dynamics(12, 1.3);
        let coloring = coloring_for_game(d.game());
        let mut scratch = Scratch::for_game(d.game());
        let mut staged = Vec::new();
        let seed = 0xC0DE;
        for workers in [0usize, 1, 2, 3, 5] {
            let mut seq = vec![0usize; 12];
            let mut par = vec![0usize; 12];
            for t in 0..40u64 {
                let moved_seq = d.step_coloured(&coloring, t, seed, &mut seq, &mut scratch);
                let moved_par =
                    d.step_coloured_par(&coloring, t, seed, &mut par, &mut staged, workers);
                assert_eq!(seq, par, "diverged at t = {t} with {workers} workers");
                assert_eq!(moved_seq, moved_par);
            }
        }
    }

    #[test]
    fn pooled_coloured_steps_match_both_existing_paths() {
        use crate::runtime::WaitPolicy;
        let d = ring_dynamics(12, 1.3);
        let coloring = coloring_for_game(d.game());
        let seed = 0xC0DE;
        for policy in WaitPolicy::ALL {
            let config = RuntimeConfig {
                workers: 3,
                wait_policy: policy,
                min_class_size: 0,
                ..RuntimeConfig::default()
            };
            let pool = WorkerPool::new(&config);
            let mut scratch = Scratch::for_game(d.game());
            let mut staged = Vec::new();
            let mut staged_scoped = Vec::new();
            let mut seq = vec![0usize; 12];
            let mut scoped = vec![0usize; 12];
            let mut pooled = vec![0usize; 12];
            let mut seq_scratch = Scratch::for_game(d.game());
            for t in 0..40u64 {
                let moved_seq = d.step_coloured(&coloring, t, seed, &mut seq, &mut seq_scratch);
                let moved_scoped =
                    d.step_coloured_par(&coloring, t, seed, &mut scoped, &mut staged_scoped, 3);
                let moved_pooled = d.step_coloured_pooled(
                    &coloring,
                    t,
                    seed,
                    &mut pooled,
                    &mut scratch,
                    &mut staged,
                    &pool,
                    &config,
                );
                assert_eq!(seq, pooled, "pooled diverged at t = {t} ({policy:?})");
                assert_eq!(scoped, pooled, "scoped diverged at t = {t} ({policy:?})");
                assert_eq!(moved_seq, moved_pooled);
                assert_eq!(moved_scoped, moved_pooled);
            }
        }
    }

    #[test]
    fn narrow_classes_bypass_the_pool_entirely() {
        let d = ring_dynamics(12, 1.3);
        let coloring = coloring_for_game(d.game());
        let widest = (0..coloring.num_classes())
            .map(|c| coloring.class(c).len())
            .max()
            .expect("at least one class");

        // Threshold above every class width: all ticks must run the inline
        // sequential sweep, so the pool's dispatch counter stays at zero.
        let narrow = RuntimeConfig {
            workers: 3,
            min_class_size: widest + 1,
            ..RuntimeConfig::default()
        };
        let pool = WorkerPool::new(&narrow);
        let mut scratch = Scratch::for_game(d.game());
        let mut staged = Vec::new();
        let mut inline_profile = vec![0usize; 12];
        for t in 0..2 * coloring.num_classes() as u64 {
            d.step_coloured_pooled(
                &coloring,
                t,
                7,
                &mut inline_profile,
                &mut scratch,
                &mut staged,
                &pool,
                &narrow,
            );
        }
        assert_eq!(
            pool.dispatches(),
            0,
            "classes below min_class_size must never reach the pool"
        );

        // Threshold zero: every (multi-player) class must dispatch, and the
        // trajectory must not change — only the execution strategy does.
        let wide = RuntimeConfig {
            workers: 3,
            min_class_size: 0,
            ..RuntimeConfig::default()
        };
        let mut pooled_profile = vec![0usize; 12];
        for t in 0..2 * coloring.num_classes() as u64 {
            d.step_coloured_pooled(
                &coloring,
                t,
                7,
                &mut pooled_profile,
                &mut scratch,
                &mut staged,
                &pool,
                &wide,
            );
        }
        assert!(
            pool.dispatches() > 0,
            "wide classes above the threshold must engage the pool"
        );
        assert_eq!(
            inline_profile, pooled_profile,
            "the threshold changes the execution strategy, never the trajectory"
        );
    }

    #[test]
    fn coloured_round_hits_every_player_exactly_once() {
        let d = ring_dynamics(9, 0.9);
        let coloring = coloring_for_game(d.game());
        let mut hits = [0usize; 9];
        for t in 0..coloring.num_classes() as u64 {
            for &p in coloring.class(coloring.class_of_tick(t)) {
                hits[p] += 1;
            }
        }
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn coloured_block_matrix_is_the_product_of_the_class_kernels() {
        // The commutation identity: for a proper colouring of a LocalGame,
        // the frozen-profile block kernel of a class equals the ordered
        // product of its single-player kernels.
        let d = ring_dynamics(4, 1.1);
        let coloring = coloring_for_game(d.game());
        for class in 0..coloring.num_classes() {
            let block = d.transition_matrix_coloured_block(&coloring, class);
            assert!(block.is_row_stochastic(1e-9));
            let players = coloring.class(class);
            let mut product = d.player_kernel(players[0]);
            for &p in &players[1..] {
                product = product.matmul(&d.player_kernel(p));
            }
            assert!(
                block.max_abs_diff(&product) < 1e-12,
                "class {class} block differs from its kernel product"
            );
        }
    }

    #[test]
    fn coloured_round_chain_keeps_gibbs_stationary_where_all_logit_drifts() {
        // Moderate beta: the all-logit drift from Gibbs is clearest here
        // (TV ~ 8e-2 on this game; it shrinks again at high beta).
        let beta = 1.0;
        let d = ring_dynamics(5, beta);
        let coloring = coloring_for_game(d.game());
        let round = d.transition_chain_coloured_round(&coloring);
        assert!(round.is_ergodic());
        let gibbs = d.gibbs();
        let pi_round = stationary_distribution(&round);
        assert!(
            total_variation(&pi_round, &gibbs) < 1e-9,
            "the coloured round must keep Gibbs stationary"
        );
        // The all-logit block chain's stationary law is a different object.
        let pi_block = stationary_distribution(&d.transition_chain_all_logit());
        assert!(total_variation(&pi_block, &gibbs) > 1e-3);
    }

    #[test]
    fn coloured_paths_cover_every_rule_on_an_ising_torus() {
        let game = IsingGame::zero_field(GraphBuilder::torus(3, 4), 0.8);
        let coloring = coloring_for_game(&game);
        assert!(coloring.is_proper(&interaction_graph(&game)));
        fn check<U: UpdateRule>(game: &IsingGame, coloring: &Coloring, rule: U) {
            let d = DynamicsEngine::with_rule(game.clone(), rule, 1.2);
            let mut scratch = Scratch::for_game(game);
            let mut staged = Vec::new();
            let mut seq = vec![0usize; 12];
            let mut par = vec![0usize; 12];
            for t in 0..3 * coloring.num_classes() as u64 {
                d.step_coloured(coloring, t, 7, &mut seq, &mut scratch);
                d.step_coloured_par(coloring, t, 7, &mut par, &mut staged, 3);
                assert_eq!(seq, par, "rule diverged at t = {t}");
            }
        }
        check(&game, &coloring, Logit);
        check(&game, &coloring, MetropolisLogit);
        check(&game, &coloring, NoisyBestResponse::new(0.2));
        check(&game, &coloring, Fermi);
        check(&game, &coloring, ImitateBetter::new(0.1));
    }

    #[test]
    fn scheduled_coloured_blocks_freeze_the_other_classes() {
        let d = ring_dynamics(8, 60.0);
        let schedule = ColouredBlocks::for_game(d.game());
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = Scratch::for_game(d.game());
        let mut profile = vec![0usize; 8];
        for t in 0..16u64 {
            let class: std::collections::BTreeSet<usize> = schedule
                .coloring()
                .class(schedule.coloring().class_of_tick(t))
                .iter()
                .copied()
                .collect();
            let before = profile.clone();
            d.step_scheduled(&schedule, t, &mut profile, &mut scratch, &mut rng);
            for i in 0..8 {
                if !class.contains(&i) {
                    assert_eq!(profile[i], before[i], "tick {t} moved off-class player {i}");
                }
            }
        }
    }

    #[test]
    fn random_block_runs_through_the_scheduled_engine_at_large_n() {
        use crate::observables::StrategyFraction;
        use crate::simulate::Simulator;
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(400),
            CoordinationGame::from_deltas(3.0, 1.0),
        );
        let d = LogitDynamics::new(game, 2.0);
        let sim = Simulator::new(23, 4);
        let obs = StrategyFraction::new(0, "zeros");
        // k = 40 players per tick: 200 ticks = 8000 updates.
        let result = sim.run_profiles_scheduled(
            &d,
            &RandomBlock::new(40),
            &vec![1usize; 400],
            200,
            50,
            &obs,
        );
        assert_eq!(result.final_values.len(), 4);
        assert!(result.law().mean() > 0.1, "risk-dominant zeros spread");
        // And the pipelined farm path is bit-identical through the same schedule.
        let pipelined = sim.run_profiles_scheduled_pipelined(
            &d,
            &RandomBlock::new(40),
            &vec![1usize; 400],
            200,
            50,
            &obs,
        );
        assert_eq!(result.final_values, pipelined.final_values);
    }

    #[test]
    fn coloured_blocks_run_through_simulator_pipeline_and_tempering() {
        use crate::observables::PotentialObservable;
        use crate::simulate::Simulator;
        use crate::tempering::TemperingEnsemble;
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::torus(3, 3),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let schedule = ColouredBlocks::for_game(&game);
        let d = LogitDynamics::new(game.clone(), 1.0);
        let sim = Simulator::new(17, 8);
        let obs = PotentialObservable::new(game.clone());
        let start = vec![0usize; 9];
        let sequential = sim.run_profiles_scheduled(&d, &schedule, &start, 30, 10, &obs);
        let pipelined = sim.run_profiles_scheduled_pipelined(&d, &schedule, &start, 30, 10, &obs);
        assert_eq!(sequential.final_values, pipelined.final_values);
        assert_eq!(sequential.times, pipelined.times);
        // run_tempered accepts the schedule unchanged (Arc<G> is a LocalGame
        // too, so even the coloured engine paths exist on the rungs).
        let ensemble = TemperingEnsemble::new(game, Logit, &[0.5, 1.0]);
        let tempered = sim.run_tempered(&ensemble, &schedule, &start, 10, 3, 5, &obs);
        assert_eq!(tempered.final_values.len(), 8);
        let again = sim.run_tempered(&ensemble, &schedule, &start, 10, 3, 5, &obs);
        assert_eq!(tempered.final_values, again.final_values);
    }

    #[test]
    fn player_tick_seeds_do_not_collide_locally() {
        let mut seen = std::collections::HashSet::new();
        for player in 0..64 {
            for t in 0..64 {
                assert!(
                    seen.insert(player_tick_seed(0xABCD, player, t)),
                    "seed collision at player {player}, tick {t}"
                );
            }
        }
    }

    #[test]
    fn coloring_for_game_colours_the_implicit_congestion_graph() {
        let game = logit_games::CongestionGame::load_balancing(5, 2, 1.0);
        // Load balancing couples every pair: the interaction graph is K5,
        // so the colouring needs 5 classes of one player each.
        let coloring = coloring_for_game(&game);
        assert_eq!(coloring.num_classes(), 5);
        assert!(coloring.classes().all(|c| c.len() == 1));
    }

    #[test]
    fn all_logit_remains_a_different_dynamics_than_coloured_rounds() {
        // Sanity cross-check of the module claim: at huge beta the
        // mismatched two-colour profile oscillates under all-logit but
        // settles under coloured blocks (each class sees the other frozen).
        let d = ring_dynamics(4, 60.0);
        let coloring = coloring_for_game(d.game());
        let mut rng = StdRng::seed_from_u64(6);
        let mut scratch = Scratch::for_game(d.game());
        let mut all_logit = vec![0usize, 1, 0, 1];
        d.step_scheduled(&AllLogit, 0, &mut all_logit, &mut scratch, &mut rng);
        assert_eq!(all_logit, vec![1, 0, 1, 0], "all-logit anti-coordinates");
        let mut coloured = vec![0usize, 1, 0, 1];
        let schedule = ColouredBlocks::new(coloring);
        for t in 0..2 {
            d.step_scheduled(&schedule, t, &mut coloured, &mut scratch, &mut rng);
        }
        let consensus = coloured.iter().all(|&s| s == coloured[0]);
        assert!(
            consensus,
            "a coloured round reaches consensus: {coloured:?}"
        );
    }
}
