//! Replica exchange (parallel tempering) across a β-ladder.
//!
//! The paper's central obstruction is that a single logit chain at high β
//! mixes in time `e^{βΔΦ(1−o(1))}` on well-style potentials (Theorem 3.5):
//! the chain freezes in whichever well it starts in. Replica exchange is the
//! standard remedy. A [`TemperingEnsemble`] owns `K` [`DynamicsEngine`]s that
//! share one game but run at different inverse noises `β_0 < β_1 < ⋯ <
//! β_{K−1}` (build ladders with `logit_anneal::BetaLadder`), and interleaves
//!
//! * **sweep phases** — every replica advances `sweep_ticks` ticks of
//!   [`DynamicsEngine::step_scheduled`] under any [`SelectionSchedule`], each
//!   replica on its own deterministic RNG stream, with
//! * **swap phases** — adjacent replica pairs `(i, i+1)` propose to exchange
//!   their *states*, accepted with the Metropolis probability
//!   `min(1, e^{(β_i − β_{i+1})(Φ(x_i) − Φ(x_{i+1}))})` on the games'
//!   potential hook.
//!
//! The swap acceptance is exactly the Metropolis ratio for the product Gibbs
//! measure `Π_k e^{−β_k Φ(x_k)}`, so each component kernel — the tensor sweep
//! and the swap move — leaves the product measure invariant, and the cold
//! (largest-β) replica yields Gibbs samples at β_cold while borrowing the hot
//! replicas' fast barrier crossings. The exact product-chain counterparts for
//! `K = 2` (see [`TemperingEnsemble::round_chain_exact`]) are built from
//! `logit_markov::product` and pin the simulated swap kernel against
//! closed-form Markov-chain theory in the proptest harness.
//!
//! Everything stays monomorphised over `G`, `U` and the schedule: the sweep
//! phase is the same hot loop as the single-chain engine, and the swap phase
//! costs `K` potential evaluations per round — amortised to nothing for
//! `sweep_ticks ≳ n`.

use crate::dynamics::{DynamicsEngine, Scratch};
use crate::rules::UpdateRule;
use crate::runtime::{RuntimeConfig, WorkerPool};
use crate::schedules::SelectionSchedule;
use logit_games::{Game, PotentialGame};
use logit_linalg::Vector;
use logit_markov::{compose, product_distribution, swap_chain, tensor_product_chain, MarkovChain};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, OnceLock};

/// Swap-rate diagnostics: per adjacent pair, how many swaps were attempted
/// and how many were accepted.
///
/// Healthy ladders show acceptance rates around 0.2–0.6 on every rung; a
/// rate near 0 means the ladder has a gap the replicas cannot cross (insert a
/// rung), a rate near 1 means adjacent rungs are redundant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwapStats {
    attempts: Vec<u64>,
    accepts: Vec<u64>,
}

impl SwapStats {
    /// Stats over `pairs` adjacent pairs (i.e. `K − 1` for `K` replicas).
    pub fn new(pairs: usize) -> Self {
        Self {
            attempts: vec![0; pairs],
            accepts: vec![0; pairs],
        }
    }

    /// Number of adjacent pairs tracked.
    pub fn pairs(&self) -> usize {
        self.attempts.len()
    }

    /// Swap attempts of pair `(i, i+1)`.
    pub fn attempts(&self, pair: usize) -> u64 {
        self.attempts[pair]
    }

    /// Accepted swaps of pair `(i, i+1)`.
    pub fn accepts(&self, pair: usize) -> u64 {
        self.accepts[pair]
    }

    /// Acceptance rate of pair `(i, i+1)` (0 when nothing was attempted).
    pub fn rate(&self, pair: usize) -> f64 {
        if self.attempts[pair] == 0 {
            0.0
        } else {
            self.accepts[pair] as f64 / self.attempts[pair] as f64
        }
    }

    /// Acceptance rates of every adjacent pair, hot to cold.
    pub fn rates(&self) -> Vec<f64> {
        (0..self.pairs()).map(|p| self.rate(p)).collect()
    }

    /// Folds another stats object (e.g. from a sibling ensemble) into this one.
    pub fn merge(&mut self, other: &SwapStats) {
        assert_eq!(self.pairs(), other.pairs(), "pair counts must match");
        for p in 0..self.pairs() {
            self.attempts[p] += other.attempts[p];
            self.accepts[p] += other.accepts[p];
        }
    }

    fn record(&mut self, pair: usize, accepted: bool) {
        self.attempts[pair] += 1;
        if accepted {
            self.accepts[pair] += 1;
        }
    }
}

/// The mutable side of a tempering run: one strategy profile, scratch buffer
/// and RNG stream per replica, a dedicated swap RNG, the shared schedule
/// clock and the swap diagnostics.
///
/// Replica `k`'s stream is derived exactly like `Simulator`'s replica
/// streams, and the swap RNG is a separate stream — so a `K = 1` ladder
/// consumes randomness identically to the plain single-chain engine (the
/// bit-identity regression test pins this).
#[derive(Debug, Clone)]
pub struct TemperingState {
    profiles: Vec<Vec<usize>>,
    phis: Vec<f64>,
    scratches: Vec<Scratch>,
    rngs: Vec<ChaCha8Rng>,
    swap_rng: ChaCha8Rng,
    tick: u64,
    stats: SwapStats,
}

impl TemperingState {
    /// The current profile of replica `k` (0 = hottest, `K−1` = coldest).
    pub fn profile(&self, k: usize) -> &[usize] {
        &self.profiles[k]
    }

    /// The current profile of the coldest (largest-β) replica — the one whose
    /// samples target the Gibbs measure at β_cold.
    pub fn cold_profile(&self) -> &[usize] {
        self.profiles.last().expect("at least one replica")
    }

    /// The schedule clock: total engine ticks each replica has taken.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Swap diagnostics accumulated so far.
    pub fn swap_stats(&self) -> &SwapStats {
        &self.stats
    }
}

/// A replica-exchange ensemble: `K` dynamics engines sharing one game at a
/// strictly increasing β-ladder, plus the Metropolis swap kernel between
/// adjacent rungs. See the module docs for the algorithm.
///
/// The rungs share a single `Arc<G>` — for graphical games the `O(n)`
/// adjacency data exists once, not `K` times, which keeps the multi-replica
/// working set (and therefore per-update throughput) close to the
/// single-chain engine's.
#[derive(Debug, Clone)]
pub struct TemperingEnsemble<G: Game, U: UpdateRule> {
    engines: Vec<DynamicsEngine<Arc<G>, U>>,
    /// The swap phase's registry handles, resolved on the first swap phase
    /// that records (never in a build or process with recording off).
    telemetry: OnceLock<SwapTelemetry>,
}

/// The swap phase's instruments: the `tempering.swaps_attempted` and
/// `tempering.swaps_accepted` counters and one
/// `tempering.swap_rate{pair}` gauge per adjacent pair.
#[derive(Debug, Clone)]
struct SwapTelemetry {
    attempted: logit_telemetry::Counter,
    accepted: logit_telemetry::Counter,
    swap_rates: Vec<logit_telemetry::Gauge>,
}

impl SwapTelemetry {
    fn resolve(pairs: usize) -> Self {
        let registry = logit_telemetry::global();
        SwapTelemetry {
            attempted: registry.counter("tempering.swaps_attempted"),
            accepted: registry.counter("tempering.swaps_accepted"),
            swap_rates: (0..pairs)
                .map(|pair| {
                    registry.gauge_labelled("tempering.swap_rate", ("pair", &pair.to_string()))
                })
                .collect(),
        }
    }
}

impl<G: Game, U: UpdateRule> TemperingEnsemble<G, U> {
    /// Creates the ensemble from a strictly increasing β-ladder (hot → cold).
    /// Every rung shares the game; each owns a clone of `rule`.
    ///
    /// # Panics
    /// Panics when `betas` is empty, not strictly increasing, or contains a
    /// negative/non-finite value.
    pub fn new(game: G, rule: U, betas: &[f64]) -> Self {
        assert!(
            !betas.is_empty(),
            "a tempering ladder needs at least one beta"
        );
        assert!(
            betas.iter().all(|b| b.is_finite() && *b >= 0.0),
            "every ladder beta must be finite and non-negative"
        );
        assert!(
            betas.windows(2).all(|w| w[0] < w[1]),
            "the beta ladder must be strictly increasing (hot to cold)"
        );
        let shared = Arc::new(game);
        let engines = betas
            .iter()
            .map(|&beta| DynamicsEngine::with_rule(Arc::clone(&shared), rule.clone(), beta))
            .collect();
        Self {
            engines,
            telemetry: OnceLock::new(),
        }
    }
}

impl<G: Game, U: UpdateRule> TemperingEnsemble<G, U> {
    /// Number of replicas `K`.
    pub fn num_replicas(&self) -> usize {
        self.engines.len()
    }

    /// The β-ladder, hot to cold.
    pub fn betas(&self) -> Vec<f64> {
        self.engines.iter().map(|e| e.beta()).collect()
    }

    /// The engine of replica `k` (the game is shared across rungs, hence the
    /// `Arc` in the engine's game slot).
    pub fn engine(&self, k: usize) -> &DynamicsEngine<Arc<G>, U> {
        &self.engines[k]
    }

    /// Index of the coldest replica (`K − 1`).
    pub fn cold_index(&self) -> usize {
        self.engines.len() - 1
    }

    /// The coldest (largest-β) engine.
    pub fn cold_engine(&self) -> &DynamicsEngine<Arc<G>, U> {
        self.engines.last().expect("at least one replica")
    }

    /// The shared game.
    pub fn game(&self) -> &G {
        self.engines[0].game()
    }

    /// Initialises a run: every replica starts from a copy of `start`, with
    /// per-replica RNG streams and a separate swap stream derived from
    /// `seed` the same way `Simulator` derives replica streams.
    pub fn init_state(&self, start: &[usize], seed: u64) -> TemperingState {
        let game = self.game();
        assert_eq!(
            start.len(),
            game.num_players(),
            "start profile length must equal the player count"
        );
        for (i, &s) in start.iter().enumerate() {
            assert!(
                s < game.num_strategies(i),
                "start strategy {s} out of range for player {i}"
            );
        }
        let k = self.num_replicas();
        TemperingState {
            profiles: vec![start.to_vec(); k],
            phis: vec![0.0; k],
            scratches: (0..k).map(|_| Scratch::for_game(game)).collect(),
            rngs: (0..k)
                .map(|r| ChaCha8Rng::seed_from_u64(crate::simulate::replica_seed(seed, r)))
                .collect(),
            swap_rng: ChaCha8Rng::seed_from_u64(swap_stream_seed(seed)),
            tick: 0,
            stats: SwapStats::new(k.saturating_sub(1)),
        }
    }
}

/// The swap RNG is its own stream so that sweep trajectories are unaffected
/// by whether swaps run (the `K = 1` no-op contract).
fn swap_stream_seed(seed: u64) -> u64 {
    seed ^ 0x51AB_5EED_0F0F_A5A5
}

impl<G: PotentialGame, U: UpdateRule> TemperingEnsemble<G, U> {
    /// The Metropolis swap acceptance for adjacent pair `(i, i+1)` given the
    /// replicas' current potentials: `min(1, e^{(β_i − β_{i+1})(Φ_i −
    /// Φ_{i+1})})`. This is the Metropolis ratio of the product Gibbs measure
    /// under the state exchange, hence the swap kernel satisfies detailed
    /// balance w.r.t. it (pinned exactly by the proptest harness).
    pub fn swap_acceptance(&self, pair: usize, phi_lo: f64, phi_hi: f64) -> f64 {
        let beta_lo = self.engines[pair].beta();
        let beta_hi = self.engines[pair + 1].beta();
        ((beta_lo - beta_hi) * (phi_lo - phi_hi)).exp().min(1.0)
    }

    /// One tempering round: every replica advances `sweep_ticks` ticks of
    /// `step_scheduled` on its own RNG stream, then every adjacent pair
    /// `(0,1), (1,2), …` proposes one state swap in ladder order. Returns the
    /// number of accepted swaps this round.
    ///
    /// With `K = 1` the swap phase vanishes and a round is exactly
    /// `sweep_ticks` plain engine ticks — the no-op-wrapper contract.
    pub fn round<S: SelectionSchedule>(
        &self,
        schedule: &S,
        state: &mut TemperingState,
        sweep_ticks: u64,
    ) -> usize {
        let k = self.num_replicas();
        assert_eq!(
            state.profiles.len(),
            k,
            "state built for a different ladder"
        );
        for (i, engine) in self.engines.iter().enumerate() {
            for t in state.tick..state.tick + sweep_ticks {
                engine.step_scheduled(
                    schedule,
                    t,
                    &mut state.profiles[i],
                    &mut state.scratches[i],
                    &mut state.rngs[i],
                );
            }
        }
        state.tick += sweep_ticks;
        self.swap_phase(state)
    }

    /// The swap phase shared by [`round`](Self::round) and
    /// [`round_pooled`](Self::round_pooled): evaluates every replica's
    /// potential, then proposes one Metropolis swap per adjacent pair in
    /// ladder order on the dedicated swap stream. Returns accepted swaps.
    fn swap_phase(&self, state: &mut TemperingState) -> usize {
        let k = self.num_replicas();
        let mut accepted = 0;
        if k > 1 {
            for (i, phi) in state.phis.iter_mut().enumerate() {
                *phi = self.engines[i].game().potential(&state.profiles[i]);
            }
            for pair in 0..k - 1 {
                let a = self.swap_acceptance(pair, state.phis[pair], state.phis[pair + 1]);
                let accept = state.swap_rng.gen::<f64>() < a;
                state.stats.record(pair, accept);
                if accept {
                    state.profiles.swap(pair, pair + 1);
                    state.phis.swap(pair, pair + 1);
                    accepted += 1;
                }
            }
            // Publish the live acceptance picture once per swap phase (K-1
            // gauge stores, never per proposal) through handles resolved
            // once per ensemble. Guarded so the disabled path never
            // resolves them.
            if logit_telemetry::enabled() {
                let telemetry = self.telemetry.get_or_init(|| SwapTelemetry::resolve(k - 1));
                telemetry.attempted.add((k - 1) as u64);
                telemetry.accepted.add(accepted as u64);
                for (pair, gauge) in telemetry.swap_rates.iter().enumerate() {
                    gauge.set(state.stats.rate(pair));
                }
            }
        }
        accepted
    }

    /// Runs rounds until the coldest replica's profile satisfies `target`, up
    /// to `max_rounds`. Returns the number of *engine ticks per replica*
    /// taken when the target was first satisfied (checked after every round,
    /// and at round 0 for a start already inside the target), or `None` if
    /// the budget ran out.
    ///
    /// This is the measurement E13 uses: total engine work is the returned
    /// tick count times `K`.
    pub fn run_until<S: SelectionSchedule>(
        &self,
        schedule: &S,
        state: &mut TemperingState,
        sweep_ticks: u64,
        max_rounds: u64,
        target: impl Fn(&[usize]) -> bool,
    ) -> Option<u64> {
        if target(state.cold_profile()) {
            return Some(state.tick());
        }
        for _ in 0..max_rounds {
            self.round(schedule, state, sweep_ticks);
            if target(state.cold_profile()) {
                return Some(state.tick());
            }
        }
        None
    }
}

/// One rung's sweep-phase work item: the engine plus exclusive borrows of
/// that rung's mutable state, so rungs can advance concurrently without
/// touching each other.
struct RungSweep<'a, G: Game, U: UpdateRule> {
    engine: &'a DynamicsEngine<Arc<G>, U>,
    profile: &'a mut Vec<usize>,
    scratch: &'a mut Scratch,
    rng: &'a mut ChaCha8Rng,
}

impl<G: PotentialGame + Send + Sync, U: UpdateRule> TemperingEnsemble<G, U> {
    /// [`round`](Self::round) with the sweep phase fanned out over the
    /// persistent [`WorkerPool`]: every rung advances `sweep_ticks` ticks
    /// concurrently (one rung per pool chunk — rungs are independent between
    /// swap scans because each owns its profile, scratch and RNG stream),
    /// then the swap phase runs sequentially on the calling thread, exactly
    /// as in `round`.
    ///
    /// Per-rung streams make this bit-identical to `round` for every worker
    /// count; with one effective worker (or `K = 1`) it *is* `round`.
    pub fn round_pooled<S: SelectionSchedule>(
        &self,
        schedule: &S,
        state: &mut TemperingState,
        sweep_ticks: u64,
        pool: &WorkerPool,
        config: &RuntimeConfig,
    ) -> usize {
        let k = self.num_replicas();
        assert_eq!(
            state.profiles.len(),
            k,
            "state built for a different ladder"
        );
        let workers = config.resolved_workers().min(pool.workers() + 1).min(k);
        if workers <= 1 {
            return self.round(schedule, state, sweep_ticks);
        }

        let mut jobs: Vec<RungSweep<'_, G, U>> = self
            .engines
            .iter()
            .zip(state.profiles.iter_mut())
            .zip(state.scratches.iter_mut())
            .zip(state.rngs.iter_mut())
            .map(|(((engine, profile), scratch), rng)| RungSweep {
                engine,
                profile,
                scratch,
                rng,
            })
            .collect();
        let tick = state.tick;
        pool.for_each_chunk(&mut jobs, 1, workers, &|_,
                                                     chunk: &mut [RungSweep<
            '_,
            G,
            U,
        >]| {
            for job in chunk.iter_mut() {
                for t in tick..tick + sweep_ticks {
                    job.engine
                        .step_scheduled(schedule, t, job.profile, job.scratch, job.rng);
                }
            }
        });
        drop(jobs);
        state.tick += sweep_ticks;
        self.swap_phase(state)
    }

    /// [`run_until`](Self::run_until) driving [`round_pooled`](Self::round_pooled)
    /// instead of the sequential `round`; identical semantics and (by rung
    /// stream independence) identical trajectories.
    #[allow(clippy::too_many_arguments)]
    pub fn run_until_pooled<S: SelectionSchedule>(
        &self,
        schedule: &S,
        state: &mut TemperingState,
        sweep_ticks: u64,
        max_rounds: u64,
        target: impl Fn(&[usize]) -> bool,
        pool: &WorkerPool,
        config: &RuntimeConfig,
    ) -> Option<u64> {
        if target(state.cold_profile()) {
            return Some(state.tick());
        }
        for _ in 0..max_rounds {
            self.round_pooled(schedule, state, sweep_ticks, pool, config);
            if target(state.cold_profile()) {
                return Some(state.tick());
            }
        }
        None
    }
}

/// Exact product-chain counterparts for two-replica ladders on games small
/// enough to enumerate: the objects the reversibility/exactness test harness
/// compares the simulated swap kernel against.
impl<G: PotentialGame, U: UpdateRule> TemperingEnsemble<G, U> {
    fn assert_two_replicas(&self) {
        assert_eq!(
            self.num_replicas(),
            2,
            "exact product-chain construction is defined for K = 2 ladders"
        );
    }

    /// The potential of every flat state, in profile-space order.
    fn potential_by_state(&self) -> Vec<f64> {
        let engine = &self.engines[0];
        let space = engine.space();
        let mut profile = vec![0usize; engine.game().num_players()];
        (0..space.size())
            .map(|x| {
                space.write_profile(x, &mut profile);
                engine.game().potential(&profile)
            })
            .collect()
    }

    /// The product Gibbs measure `π(x, y) ∝ e^{−β_0Φ(x) − β_1Φ(y)}` on the
    /// pair space (K = 2), indexed by `logit_markov::pair_index`.
    pub fn product_gibbs(&self) -> Vector {
        self.assert_two_replicas();
        product_distribution(&self.engines[0].gibbs(), &self.engines[1].gibbs())
    }

    /// The exact swap kernel on the pair space (K = 2): `(x, y) → (y, x)`
    /// with the Metropolis acceptance of [`Self::swap_acceptance`]. Reversible
    /// w.r.t. [`Self::product_gibbs`] — entrywise, which the proptests check.
    pub fn swap_chain_exact(&self) -> MarkovChain {
        self.assert_two_replicas();
        let phi = self.potential_by_state();
        swap_chain(phi.len(), |x, y| self.swap_acceptance(0, phi[x], phi[y]))
    }

    /// The exact tensor sweep kernel on the pair space (K = 2): both replicas
    /// take one uniform-selection tick of their own chain independently.
    pub fn tensor_chain_exact(&self) -> MarkovChain {
        self.assert_two_replicas();
        tensor_product_chain(
            &self.engines[0].transition_chain(),
            &self.engines[1].transition_chain(),
        )
    }

    /// The exact kernel of one full tempering round (K = 2): `sweep_ticks`
    /// tensor ticks followed by one swap proposal,
    /// `P_round = (P_0 ⊗ P_1)^{sweep\_ticks} · P_swap`. Not reversible in
    /// general (compositions rarely are) but it fixes the product Gibbs
    /// measure, because both factors do.
    pub fn round_chain_exact(&self, sweep_ticks: u64) -> MarkovChain {
        self.assert_two_replicas();
        let tensor = self.tensor_chain_exact();
        let swept = MarkovChain::new(tensor.t_step_matrix(sweep_ticks));
        compose(&swept, &self.swap_chain_exact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Logit, MetropolisLogit};
    use crate::schedules::{SystematicSweep, UniformSingle};
    use logit_games::{CoordinationGame, GraphicalCoordinationGame, WellGame};
    use logit_graphs::GraphBuilder;
    use logit_markov::{stationary_distribution, total_variation};

    fn well_ensemble(betas: &[f64]) -> TemperingEnsemble<WellGame, Logit> {
        TemperingEnsemble::new(WellGame::plateau(4, 2.0), Logit, betas)
    }

    #[test]
    fn ladder_accessors_report_the_rungs() {
        let ens = well_ensemble(&[0.5, 1.0, 2.0]);
        assert_eq!(ens.num_replicas(), 3);
        assert_eq!(ens.betas(), vec![0.5, 1.0, 2.0]);
        assert_eq!(ens.cold_index(), 2);
        assert_eq!(ens.cold_engine().beta(), 2.0);
        assert_eq!(ens.engine(0).beta(), 0.5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_ladder_rejected() {
        let _ = well_ensemble(&[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one beta")]
    fn empty_ladder_rejected() {
        let _ = well_ensemble(&[]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_beta_ladder_rejected() {
        let _ = well_ensemble(&[-2.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_beta_ladder_rejected() {
        let _ = well_ensemble(&[f64::NAN]);
    }

    #[test]
    fn swap_acceptance_is_the_metropolis_ratio() {
        let ens = well_ensemble(&[0.5, 2.0]);
        // Hot replica in the well, cold on the ridge: swapping moves the
        // lower-potential state cold — always accepted.
        assert_eq!(ens.swap_acceptance(0, -2.0, 0.0), 1.0);
        // Hot replica on the ridge, cold in the well: the swap would push the
        // ridge state cold, accepted only with e^{(β_lo−β_hi)(Φ_lo−Φ_hi)} < 1.
        let expect = ((0.5 - 2.0) * (0.0 - (-2.0f64))).exp();
        assert!((ens.swap_acceptance(0, 0.0, -2.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn single_rung_round_is_the_plain_engine_bit_for_bit() {
        // K = 1: a round must be a no-op wrapper around step_scheduled —
        // same trajectory, same RNG stream consumption.
        let game = WellGame::plateau(5, 1.5);
        let ens = TemperingEnsemble::new(game.clone(), MetropolisLogit, &[1.3]);
        let seed = 77;
        let mut state = ens.init_state(&[0, 1, 0, 1, 0], seed);

        let plain = DynamicsEngine::with_rule(game.clone(), MetropolisLogit, 1.3);
        let mut rng = ChaCha8Rng::seed_from_u64(crate::simulate::replica_seed(seed, 0));
        let mut scratch = Scratch::for_game(&game);
        let mut profile = vec![0usize, 1, 0, 1, 0];

        for round in 0..20u64 {
            let swaps = ens.round(&SystematicSweep, &mut state, 7);
            assert_eq!(swaps, 0, "a K = 1 ladder never swaps");
            for t in round * 7..(round + 1) * 7 {
                plain.step_scheduled(&SystematicSweep, t, &mut profile, &mut scratch, &mut rng);
            }
            assert_eq!(state.profile(0), &profile[..], "diverged in round {round}");
            assert_eq!(state.cold_profile(), &profile[..]);
        }
        assert_eq!(state.tick(), 140);
        assert_eq!(state.swap_stats().pairs(), 0);
    }

    #[test]
    fn pooled_rounds_match_sequential_rounds_bit_for_bit() {
        // Rungs own their profile/scratch/RNG, so fanning the sweep phase
        // over the pool must not change a single draw: every profile, the
        // clock, the swap counts and the swap stats stay identical.
        let config = RuntimeConfig {
            workers: 3,
            min_class_size: 0,
            ..RuntimeConfig::default()
        };
        let pool = WorkerPool::new(&config);
        let ens = well_ensemble(&[0.3, 0.9, 1.8, 2.4]);
        let mut seq = ens.init_state(&[0; 4], 11);
        let mut pooled = ens.init_state(&[0; 4], 11);
        for round in 0..30u64 {
            let a = ens.round(&UniformSingle, &mut seq, 5);
            let b = ens.round_pooled(&UniformSingle, &mut pooled, 5, &pool, &config);
            assert_eq!(a, b, "swap counts diverged in round {round}");
            for k in 0..ens.num_replicas() {
                assert_eq!(seq.profile(k), pooled.profile(k), "rung {k}, round {round}");
            }
            assert_eq!(seq.tick(), pooled.tick());
        }
        assert_eq!(seq.swap_stats(), pooled.swap_stats());
        assert!(
            pool.dispatches() > 0,
            "a multi-rung ladder must actually engage the pool"
        );
    }

    #[test]
    fn run_until_pooled_matches_run_until() {
        let config = RuntimeConfig {
            workers: 2,
            min_class_size: 0,
            ..RuntimeConfig::default()
        };
        let pool = WorkerPool::new(&config);
        let ens = well_ensemble(&[0.4, 1.1, 2.2]);
        let target = |p: &[usize]| p.iter().all(|&s| s == 1);
        let mut seq = ens.init_state(&[0; 4], 19);
        let mut pooled = ens.init_state(&[0; 4], 19);
        let hit_seq = ens.run_until(&UniformSingle, &mut seq, 6, 400, target);
        let hit_pooled =
            ens.run_until_pooled(&UniformSingle, &mut pooled, 6, 400, target, &pool, &config);
        assert_eq!(hit_seq, hit_pooled);
        assert_eq!(seq.cold_profile(), pooled.cold_profile());
        assert_eq!(seq.tick(), pooled.tick());
    }

    #[test]
    fn single_rung_pooled_round_never_dispatches() {
        // K = 1 (or one effective worker) must fall back to the literal
        // sequential round: same trajectory, zero pool engagement.
        let config = RuntimeConfig {
            workers: 4,
            min_class_size: 0,
            ..RuntimeConfig::default()
        };
        let pool = WorkerPool::new(&config);
        let game = WellGame::plateau(5, 1.5);
        let ens = TemperingEnsemble::new(game, MetropolisLogit, &[1.3]);
        let mut seq = ens.init_state(&[0, 1, 0, 1, 0], 7);
        let mut pooled = ens.init_state(&[0, 1, 0, 1, 0], 7);
        for _ in 0..10 {
            ens.round(&SystematicSweep, &mut seq, 6);
            ens.round_pooled(&SystematicSweep, &mut pooled, 6, &pool, &config);
        }
        assert_eq!(seq.profile(0), pooled.profile(0));
        assert_eq!(pool.dispatches(), 0, "K = 1 must bypass the pool entirely");
    }

    #[test]
    fn swap_stats_count_attempts_per_pair() {
        let ens = well_ensemble(&[0.2, 0.8, 1.6]);
        let mut state = ens.init_state(&[0; 4], 3);
        for _ in 0..50 {
            ens.round(&UniformSingle, &mut state, 4);
        }
        let stats = state.swap_stats();
        assert_eq!(stats.pairs(), 2);
        assert_eq!(stats.attempts(0), 50);
        assert_eq!(stats.attempts(1), 50);
        assert!(stats.accepts(0) <= 50);
        let rates = stats.rates();
        assert_eq!(rates.len(), 2);
        assert!(rates.iter().all(|r| (0.0..=1.0).contains(r)));
        // On this mild ladder swaps do happen.
        assert!(stats.accepts(0) + stats.accepts(1) > 0);
    }

    #[test]
    fn swap_stats_merge_adds_counts() {
        let mut a = SwapStats::new(2);
        a.record(0, true);
        a.record(1, false);
        let mut b = SwapStats::new(2);
        b.record(0, false);
        b.record(0, true);
        a.merge(&b);
        assert_eq!(a.attempts(0), 3);
        assert_eq!(a.accepts(0), 2);
        assert_eq!(a.attempts(1), 1);
        assert_eq!(a.rate(1), 0.0);
        assert!((a.rate(0) - 2.0 / 3.0).abs() < 1e-12);
        // A fresh pair reports rate 0, not NaN.
        assert_eq!(SwapStats::new(1).rate(0), 0.0);
    }

    #[test]
    fn exact_swap_kernel_is_reversible_wrt_the_product_gibbs() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::path(3),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let ens = TemperingEnsemble::new(game, Logit, &[0.4, 1.7]);
        let pi = ens.product_gibbs();
        assert!(pi.is_distribution(1e-9));
        assert!(ens.swap_chain_exact().is_reversible(&pi, 1e-9));
        assert!(ens.tensor_chain_exact().is_reversible(&pi, 1e-9));
    }

    #[test]
    fn exact_round_chain_fixes_the_product_gibbs_and_is_its_stationary_law() {
        let game = WellGame::plateau(3, 1.0);
        let ens = TemperingEnsemble::new(game, Logit, &[0.5, 1.5]);
        let pi = ens.product_gibbs();
        let round = ens.round_chain_exact(3);
        assert!(total_variation(&round.step_distribution(&pi), &pi) < 1e-10);
        assert!(round.is_ergodic());
        assert!(total_variation(&stationary_distribution(&round), &pi) < 1e-8);
    }

    #[test]
    fn cold_replica_samples_gibbs_at_the_cold_beta() {
        // Long tempered run on a small well game: the empirical distribution
        // of the cold replica approaches the Gibbs measure at β_cold.
        let game = WellGame::plateau(4, 2.0);
        let ens = TemperingEnsemble::new(game.clone(), Logit, &[0.3, 1.0, 2.5]);
        let cold = ens.cold_engine();
        let space = cold.space().clone();
        let pi_cold = cold.gibbs();

        let mut state = ens.init_state(&[0; 4], 11);
        let mut empirical = Vector::zeros(space.size());
        let burn_in = 500u64;
        let samples = 6000u64;
        for r in 0..burn_in + samples {
            ens.round(&UniformSingle, &mut state, 4);
            if r >= burn_in {
                empirical[space.index_of(state.cold_profile())] += 1.0;
            }
        }
        empirical.scale(1.0 / samples as f64);
        let tv = total_variation(&empirical, &pi_cold);
        assert!(
            tv < 0.06,
            "cold replica should sample Gibbs(β_cold), tv = {tv}"
        );
        // And the swap diagnostics show a connected ladder.
        let rates = state.swap_stats().rates();
        assert!(
            rates.iter().all(|&r| r > 0.05),
            "every rung should exchange, rates = {rates:?}"
        );
    }

    #[test]
    fn run_until_reports_the_first_hit_in_ticks() {
        let game = WellGame::plateau(4, 2.0);
        let ens = TemperingEnsemble::new(game.clone(), Logit, &[0.3, 1.0, 2.0]);
        let mut state = ens.init_state(&[0; 4], 5);
        // Already-satisfied targets report the current tick without stepping.
        assert_eq!(
            ens.run_until(&UniformSingle, &mut state, 4, 100, |_| true),
            Some(0)
        );
        // Crossing into the opposite well (weight ≥ 2) happens quickly with a
        // hot rung in the ladder.
        let hit = ens.run_until(&UniformSingle, &mut state, 4, 20_000, |p| {
            p.iter().filter(|&&s| s == 1).count() >= 2
        });
        let ticks = hit.expect("tempered ensemble crosses the ridge");
        assert!(ticks > 0);
        assert_eq!(ticks % 4, 0, "hits are detected at round boundaries");
        // A budget of zero rounds reports failure from a non-target start.
        let mut fresh = ens.init_state(&[0; 4], 5);
        assert_eq!(
            ens.run_until(&UniformSingle, &mut fresh, 4, 0, |p| p
                .iter()
                .all(|&s| s == 1)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "length must equal")]
    fn wrong_start_profile_rejected() {
        let ens = well_ensemble(&[0.5, 1.0]);
        let _ = ens.init_state(&[0, 0], 1);
    }
}
