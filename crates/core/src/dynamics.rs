//! The revision-dynamics engine: pluggable update rules, selection schedules
//! and the induced Markov chains.
//!
//! [`DynamicsEngine<G, U>`] drives a noisy revision process on a strategic
//! game `G` under an [`UpdateRule`] `U` — the logit/Glauber softmax of
//! eq. (2) ([`Logit`], the paper's dynamics and the default), the Metropolis
//! kernel with the same Gibbs stationary distribution
//! ([`MetropolisLogit`](crate::rules::MetropolisLogit)), or noisy best
//! response ([`NoisyBestResponse`](crate::rules::NoisyBestResponse)).
//! [`LogitDynamics`] is a backward-compatible alias for the logit instance.
//!
//! Two simulation engines share every rule:
//!
//! * the **in-place profile engine** ([`DynamicsEngine::step_profile`]):
//!   mutates a strategy profile directly using reusable [`Scratch`] buffers,
//!   never touches the flat state index, and therefore scales to games whose
//!   profile space does not even fit in a `usize` (e.g. rings with `n = 10⁶`
//!   players). One step costs `O(|S_i| + cost(utilities_for))` — for
//!   `LocalGame`s that is `O(|S_i| + deg(i))`, independent of `n` and `|S|`;
//! * the **flat-index engine** ([`DynamicsEngine::step`] /
//!   [`DynamicsEngine::step_indexed`]): a thin wrapper that decodes the
//!   index, delegates to the profile engine and re-encodes. It consumes the
//!   RNG stream identically, so both engines produce the same trajectory from
//!   the same seed; it exists for the exact analyses, which index
//!   distributions by flat state.
//!
//! Orthogonally to the rule, a [`SelectionSchedule`] decides *who* revises at
//! each tick ([`DynamicsEngine::step_scheduled`]): one uniform player (the
//! paper's chain), a systematic sweep, or the parallel all-logit block update
//! in which every player revises against the frozen pre-tick profile. The
//! exact counterparts are [`DynamicsEngine::transition_matrix`] (uniform
//! selection, any rule), [`DynamicsEngine::transition_matrix_all_logit`] and
//! [`DynamicsEngine::transition_matrix_sweep_round`].

use crate::locality::RevisionTable;
use crate::rules::{Logit, UpdateRule};
use crate::schedules::SelectionSchedule;
use logit_games::{Game, PotentialGame, ProfileSpace};
use logit_linalg::{CsrMatrix, Matrix};
use logit_markov::MarkovChain;
use rand::Rng;
use std::sync::OnceLock;

/// Reusable per-chain scratch buffers for the allocation-free step paths.
///
/// One `Scratch` per replica (or per thread) eliminates the per-step heap
/// churn the original engine suffered: utilities, probabilities and the
/// decoded profile all live here and are recycled across steps.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Utilities `u_i(s, x_{-i})`, one per strategy of the updating player.
    utils: Vec<f64>,
    /// The update-rule probabilities over those strategies.
    probs: Vec<f64>,
    /// Decoded profile buffer used by the flat-index wrapper.
    profile: Vec<usize>,
    /// Players selected by the current schedule tick.
    players: Vec<usize>,
    /// Strategies staged by a parallel block update before they are applied.
    staged: Vec<usize>,
    /// Byte-packed staged strategies for the SoA coloured sweeps
    /// (`step_coloured_pooled_bytes` in [`crate::locality`]): one byte per
    /// staged player instead of a `usize`, an 8× cut in the write stream
    /// that keeps a cache-blocked chunk's working set L2-resident.
    pub(crate) staged_bytes: Vec<u8>,
}

impl Scratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for `game`: avoids even the first-use allocations on
    /// the single-player step paths. The schedule buffers (`players`,
    /// `staged`) are sized for single-player ticks; a parallel block schedule
    /// grows them to `n` on its first tick and they are recycled thereafter.
    pub fn for_game<G: Game>(game: &G) -> Self {
        let m = game.max_strategies();
        let n = game.num_players();
        Self {
            utils: Vec::with_capacity(m),
            probs: Vec::with_capacity(m),
            profile: Vec::with_capacity(n),
            players: Vec::with_capacity(1),
            staged: Vec::new(),
            staged_bytes: Vec::new(),
        }
    }

    /// The update distribution computed by the most recent
    /// [`DynamicsEngine::update_distribution_into`] /
    /// [`DynamicsEngine::step_profile`] call.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Splits out the utility and probability buffers together (the
    /// borrow-checker-friendly handle the in-crate byte sweeps use to fill
    /// utilities and rule probabilities without an extra allocation).
    pub(crate) fn rule_buffers(&mut self) -> (&mut Vec<f64>, &mut Vec<f64>) {
        (&mut self.utils, &mut self.probs)
    }
}

/// What one in-place step did: which player updated and how she moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// The player selected for update.
    pub player: usize,
    /// Her strategy before the update.
    pub old_strategy: usize,
    /// Her strategy after the update (possibly the same).
    pub new_strategy: usize,
}

impl StepEvent {
    /// Whether the profile actually changed.
    pub fn moved(&self) -> bool {
        self.old_strategy != self.new_strategy
    }
}

/// A noisy revision process on a strategic game `G`: an [`UpdateRule`] `U`
/// at inverse noise `β`, plus the machinery to simulate it (both engines) and
/// to build its exact Markov chains under the selection schedules.
///
/// The struct borrows nothing: it owns the game (games are cheap to clone or
/// are themselves small descriptors). The profile space is materialised
/// lazily — only the flat-index paths need it, and for large-`n` games it
/// cannot even be represented (`|S|` overflows `usize`), while the profile
/// engine runs fine without it. The byte sweep's count-keyed revision
/// table is built lazily beside it (see [`crate::locality`]).
#[derive(Debug, Clone)]
pub struct DynamicsEngine<G: Game, U: UpdateRule = Logit> {
    game: G,
    rule: U,
    beta: f64,
    space: OnceLock<ProfileSpace>,
    pub(crate) revision_table: OnceLock<Option<RevisionTable>>,
}

/// The logit dynamics `M_β(G)` of the paper — the [`Logit`] instance of the
/// generic engine, kept as a thin backward-compatible alias.
pub type LogitDynamics<G> = DynamicsEngine<G, Logit>;

impl<G: Game, U: UpdateRule + Default> DynamicsEngine<G, U> {
    /// Creates the dynamics with the rule's default parameters and inverse
    /// noise `β ≥ 0`.
    ///
    /// # Panics
    /// Panics when `β` is negative or not finite.
    pub fn new(game: G, beta: f64) -> Self {
        Self::with_rule(game, U::default(), beta)
    }
}

impl<G: Game, U: UpdateRule> DynamicsEngine<G, U> {
    /// Creates the dynamics with an explicit update rule and inverse noise
    /// `β ≥ 0`.
    ///
    /// # Panics
    /// Panics when `β` is negative or not finite.
    pub fn with_rule(game: G, rule: U, beta: f64) -> Self {
        assert!(
            beta >= 0.0 && beta.is_finite(),
            "beta must be finite and non-negative"
        );
        Self {
            game,
            rule,
            beta,
            space: OnceLock::new(),
            revision_table: OnceLock::new(),
        }
    }

    /// The inverse noise `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The underlying game.
    pub fn game(&self) -> &G {
        &self.game
    }

    /// The update rule.
    pub fn rule(&self) -> &U {
        &self.rule
    }

    /// The profile space of the game (materialised on first use).
    ///
    /// # Panics
    /// Panics when `|S| = Π_i |S_i|` overflows `usize` — use the profile
    /// engine ([`Self::step_profile`]) for such games; it never calls this.
    pub fn space(&self) -> &ProfileSpace {
        self.space.get_or_init(|| self.game.profile_space())
    }

    /// Number of states of the chain (`|S| = Π_i |S_i|`).
    ///
    /// # Panics
    /// Panics when `|S|` overflows `usize` (see [`Self::space`]).
    pub fn num_states(&self) -> usize {
        self.space().size()
    }

    /// The update distribution `σ_i(· | x)` of player `i` at profile `x`
    /// under the engine's rule, returned as a probability vector over the
    /// player's strategies.
    ///
    /// Allocating convenience wrapper around
    /// [`Self::update_distribution_into`]; hot paths should use the latter
    /// with a reused [`Scratch`].
    pub fn update_distribution(&self, player: usize, profile: &[usize]) -> Vec<f64> {
        let mut scratch = Scratch::new();
        let mut work = profile.to_vec();
        self.update_distribution_into(player, &mut work, &mut scratch);
        scratch.probs
    }

    /// Computes `σ_i(· | x)` into `scratch.probs` without allocating (after
    /// the buffers' first growth): the game's `utilities_for` batch hook
    /// fills `scratch.utils`, and the update rule turns the utilities into
    /// probabilities.
    ///
    /// `profile` is borrowed mutably so strategies can be varied in place by
    /// the game's `utilities_for` hook; it is restored before returning.
    pub fn update_distribution_into(
        &self,
        player: usize,
        profile: &mut [usize],
        scratch: &mut Scratch,
    ) {
        let m = self.game.num_strategies(player);
        scratch.utils.clear();
        scratch.utils.resize(m, 0.0);
        self.game.utilities_for(player, profile, &mut scratch.utils);
        self.rule.fill_probs(
            self.beta,
            profile[player],
            &scratch.utils,
            &mut scratch.probs,
        );
    }

    /// Probability that player `i`, selected for update at profile `x`, picks
    /// strategy `y` (a single entry of [`Self::update_distribution`]).
    pub fn update_probability(&self, player: usize, profile: &[usize], strategy: usize) -> f64 {
        self.update_distribution(player, profile)[strategy]
    }

    /// One in-place step of the dynamics under the paper's uniform
    /// single-player selection: selects a player uniformly at random,
    /// resamples her strategy from `σ_i(· | x)` and writes it directly into
    /// `profile`. Returns what happened as a [`StepEvent`].
    ///
    /// This is the large-`n` engine: it never builds the flat profile space,
    /// allocates nothing (with a warmed-up `scratch`), and its per-step cost
    /// is independent of `|S|`.
    pub fn step_profile<R: Rng + ?Sized>(
        &self,
        profile: &mut [usize],
        scratch: &mut Scratch,
        rng: &mut R,
    ) -> StepEvent {
        let n = self.game.num_players();
        debug_assert_eq!(
            profile.len(),
            n,
            "profile length must equal the player count"
        );
        let player = rng.gen_range(0..n);
        self.update_distribution_into(player, profile, scratch);
        let new_strategy = sample_index(&scratch.probs, rng);
        let old_strategy = profile[player];
        profile[player] = new_strategy;
        StepEvent {
            player,
            old_strategy,
            new_strategy,
        }
    }

    /// One in-place tick under an arbitrary [`SelectionSchedule`]: the
    /// schedule names the revising players, sequential schedules apply their
    /// updates one at a time, and parallel schedules (all-logit) sample every
    /// update against the frozen pre-tick profile before applying the whole
    /// block. Returns the number of players whose strategy changed.
    ///
    /// With [`UniformSingle`](crate::schedules::UniformSingle) this consumes
    /// the RNG stream identically to [`Self::step_profile`], so the two paths
    /// walk the same trajectory from the same seed.
    pub fn step_scheduled<S: SelectionSchedule, R: Rng + ?Sized>(
        &self,
        schedule: &S,
        t: u64,
        profile: &mut [usize],
        scratch: &mut Scratch,
        rng: &mut R,
    ) -> usize {
        let n = self.game.num_players();
        debug_assert_eq!(
            profile.len(),
            n,
            "profile length must equal the player count"
        );
        let mut players = std::mem::take(&mut scratch.players);
        schedule.select_players(t, n, rng, &mut players);
        let mut moved = 0;
        if schedule.parallel() {
            let mut staged = std::mem::take(&mut scratch.staged);
            staged.clear();
            for &player in &players {
                self.update_distribution_into(player, profile, scratch);
                staged.push(sample_index(&scratch.probs, rng));
            }
            for (&player, &strategy) in players.iter().zip(&staged) {
                if profile[player] != strategy {
                    moved += 1;
                }
                profile[player] = strategy;
            }
            scratch.staged = staged;
        } else {
            for &player in &players {
                self.update_distribution_into(player, profile, scratch);
                let strategy = sample_index(&scratch.probs, rng);
                if profile[player] != strategy {
                    moved += 1;
                }
                profile[player] = strategy;
            }
        }
        scratch.players = players;
        moved
    }

    /// One step of the flat-index chain using reusable scratch buffers:
    /// decodes `state`, delegates to [`Self::step_profile`] and re-encodes in
    /// `O(1)` via the single changed coordinate.
    ///
    /// Consumes the RNG stream identically to [`Self::step_profile`], so the
    /// two engines produce the same trajectory from the same seed.
    pub fn step_indexed<R: Rng + ?Sized>(
        &self,
        state: usize,
        scratch: &mut Scratch,
        rng: &mut R,
    ) -> usize {
        let space = self.space();
        let mut profile = std::mem::take(&mut scratch.profile);
        profile.resize(self.game.num_players(), 0);
        space.write_profile(state, &mut profile);
        let event = self.step_profile(&mut profile, scratch, rng);
        scratch.profile = profile;
        space.with_strategy(state, event.player, event.new_strategy)
    }

    /// The flat-index counterpart of [`Self::step_scheduled`]: decodes
    /// `state`, runs one schedule tick on the profile and re-encodes (in
    /// `O(n)` — a tick may change many coordinates).
    pub fn step_indexed_scheduled<S: SelectionSchedule, R: Rng + ?Sized>(
        &self,
        schedule: &S,
        t: u64,
        state: usize,
        scratch: &mut Scratch,
        rng: &mut R,
    ) -> usize {
        let space = self.space();
        let mut profile = std::mem::take(&mut scratch.profile);
        profile.resize(self.game.num_players(), 0);
        space.write_profile(state, &mut profile);
        self.step_scheduled(schedule, t, &mut profile, scratch, rng);
        let next = space.index_of(&profile);
        scratch.profile = profile;
        next
    }

    /// One step of the dynamics from the profile with flat index `state`.
    /// Returns the new flat index.
    ///
    /// Convenience wrapper that builds a fresh [`Scratch`] per call; loops
    /// should hold a `Scratch` and call [`Self::step_indexed`] (or work with
    /// profiles directly via [`Self::step_profile`]).
    pub fn step<R: Rng + ?Sized>(&self, state: usize, rng: &mut R) -> usize {
        let mut scratch = Scratch::new();
        self.step_indexed(state, &mut scratch, rng)
    }

    /// The full transition matrix under uniform single-player selection
    /// (eq. 3 for the logit rule) as a dense validated Markov chain.
    ///
    /// The matrix has `|S|²` entries; intended for the exact analyses
    /// (`|S| ≲ 4096`).
    pub fn transition_chain(&self) -> MarkovChain {
        MarkovChain::new(self.transition_matrix())
    }

    /// The dense transition matrix under uniform single-player selection
    /// without the validation wrapper. Works for every update rule: entry
    /// `(x, x[i → s])` accumulates `σ_i(s | x)/n`.
    pub fn transition_matrix(&self) -> Matrix {
        let space = self.space();
        let size = space.size();
        let n = self.game.num_players();
        let mut p = Matrix::zeros(size, size);
        let mut scratch = Scratch::for_game(&self.game);
        let mut profile = vec![0usize; n];
        for x in 0..size {
            space.write_profile(x, &mut profile);
            for player in 0..n {
                self.update_distribution_into(player, &mut profile, &mut scratch);
                for (s, &pr) in scratch.probs().iter().enumerate() {
                    let y = space.with_strategy(x, player, s);
                    p[(x, y)] += pr / n as f64;
                }
            }
        }
        p
    }

    /// The transition matrix in compressed sparse row form. Each row has at most
    /// `Σ_i(|S_i| - 1) + 1` non-zeros, so this scales to much larger state
    /// spaces than the dense construction.
    pub fn transition_sparse(&self) -> CsrMatrix {
        let space = self.space();
        let size = space.size();
        let n = self.game.num_players();
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(size);
        let mut scratch = Scratch::for_game(&self.game);
        let mut profile = vec![0usize; n];
        for x in 0..size {
            space.write_profile(x, &mut profile);
            let mut row: Vec<(usize, f64)> = Vec::with_capacity(space.deviations_per_profile() + 1);
            for player in 0..n {
                self.update_distribution_into(player, &mut profile, &mut scratch);
                for (s, &pr) in scratch.probs().iter().enumerate() {
                    if pr == 0.0 {
                        continue;
                    }
                    let y = space.with_strategy(x, player, s);
                    row.push((y, pr / n as f64));
                }
            }
            rows.push(row);
        }
        CsrMatrix::from_rows(size, rows)
    }

    /// The single-player revision kernel `P_i(x, x[i → s]) = σ_i(s | x)`:
    /// only player `i` moves, with probability given by the update rule.
    /// The systematic sweep is the ordered product of these kernels.
    pub fn player_kernel(&self, player: usize) -> Matrix {
        let space = self.space();
        let size = space.size();
        let mut p = Matrix::zeros(size, size);
        let mut scratch = Scratch::for_game(&self.game);
        let mut profile = vec![0usize; self.game.num_players()];
        for x in 0..size {
            space.write_profile(x, &mut profile);
            self.update_distribution_into(player, &mut profile, &mut scratch);
            for (s, &pr) in scratch.probs().iter().enumerate() {
                let y = space.with_strategy(x, player, s);
                p[(x, y)] += pr;
            }
        }
        p
    }

    /// The transition matrix of one full systematic sweep (players revising
    /// in order `0, 1, …, n−1`): the ordered kernel product
    /// `P_0 · P_1 ⋯ P_{n−1}`. One sweep-round step equals `n` player updates.
    pub fn transition_matrix_sweep_round(&self) -> Matrix {
        let n = self.game.num_players();
        let mut p = self.player_kernel(0);
        for player in 1..n {
            p = p.matmul(&self.player_kernel(player));
        }
        p
    }

    /// The sweep-round matrix as a validated Markov chain.
    pub fn transition_chain_sweep_round(&self) -> MarkovChain {
        MarkovChain::new(self.transition_matrix_sweep_round())
    }

    /// The transition matrix of the parallel **all-logit** block schedule:
    /// every player revises simultaneously against the frozen profile, so
    /// `P(x, y) = Π_i σ_i(y_i | x)`. Dense — every entry can be non-zero —
    /// and in general *not* reversible even for potential games, which is
    /// precisely what the all-logit line of work studies.
    pub fn transition_matrix_all_logit(&self) -> Matrix {
        let space = self.space();
        let size = space.size();
        let n = self.game.num_players();
        let mut p = Matrix::zeros(size, size);
        let mut scratch = Scratch::for_game(&self.game);
        let mut profile = vec![0usize; n];
        let mut per_player: Vec<Vec<f64>> = vec![Vec::new(); n];
        for x in 0..size {
            space.write_profile(x, &mut profile);
            for (player, probs) in per_player.iter_mut().enumerate() {
                self.update_distribution_into(player, &mut profile, &mut scratch);
                probs.clear();
                probs.extend_from_slice(scratch.probs());
            }
            for y in 0..size {
                let mut prob = 1.0;
                for (i, probs) in per_player.iter().enumerate() {
                    prob *= probs[space.strategy_of(y, i)];
                    if prob == 0.0 {
                        break;
                    }
                }
                p[(x, y)] = prob;
            }
        }
        p
    }

    /// The all-logit block-update matrix as a validated Markov chain. One
    /// block step equals `n` player updates.
    pub fn transition_chain_all_logit(&self) -> MarkovChain {
        MarkovChain::new(self.transition_matrix_all_logit())
    }
}

impl<G: PotentialGame, U: UpdateRule> DynamicsEngine<G, U> {
    /// The Gibbs distribution `π(x) ∝ e^{-βΦ(x)}` of the game (eq. 4, cost
    /// convention). It is the stationary distribution of the
    /// uniform-selection chain for the reversible rules ([`Logit`] and
    /// [`MetropolisLogit`](crate::rules::MetropolisLogit)); rules without
    /// detailed balance (noisy best response) and the all-logit schedule have
    /// different stationary laws — obtain those by a linear solve on the
    /// exact chain.
    pub fn gibbs(&self) -> logit_linalg::Vector {
        crate::gibbs::gibbs_distribution(&self.game, self.beta)
    }
}

/// Samples an index from an (already normalised) probability vector.
pub(crate) fn sample_index<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    sample_index_from_uniform(probs, rng.gen())
}

/// The inverse-CDF scan behind [`sample_index`], taking the uniform variate
/// explicitly — the coloured parallel-revision path derives one variate per
/// `(player, tick)` from a counter hash instead of advancing a shared
/// stream, which is what makes its update order unobservable.
pub(crate) fn sample_index_from_uniform(probs: &[f64], u: f64) -> usize {
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    // Fallthrough: `u` landed in the rounding gap above the accumulated sum.
    // Metropolis and best-response rules assign exact zeros, so fall back to
    // the last *positive*-probability entry — never to an impossible move.
    probs
        .iter()
        .rposition(|&p| p > 0.0)
        .unwrap_or(probs.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{MetropolisLogit, NoisyBestResponse};
    use crate::schedules::{AllLogit, SystematicSweep, UniformSingle};
    use logit_games::{CoordinationGame, GraphicalCoordinationGame, TablePotentialGame, WellGame};
    use logit_graphs::GraphBuilder;
    use logit_markov::{stationary_distribution, total_variation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn beta_zero_is_uniform_updates() {
        let game = CoordinationGame::from_deltas(2.0, 1.0);
        let dyn0 = LogitDynamics::new(game, 0.0);
        let probs = dyn0.update_distribution(0, &[0, 1]);
        assert_eq!(probs.len(), 2);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_distribution_matches_closed_form() {
        // Player 0 against opponent playing 0 in a coordination game with
        // payoffs a=2 (match) and d=0 (mismatch): σ(0|·) = e^{2β}/(e^{2β}+1).
        let game = CoordinationGame::from_deltas(2.0, 1.0);
        let beta = 0.7;
        let d = LogitDynamics::new(game, beta);
        let probs = d.update_distribution(0, &[1, 0]);
        let expect0 = (2.0 * beta).exp() / ((2.0 * beta).exp() + 1.0);
        assert!((probs[0] - expect0).abs() < 1e-12);
        assert!((probs[0] + probs[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn large_beta_concentrates_on_best_response() {
        let game = CoordinationGame::from_deltas(3.0, 1.0);
        let d = LogitDynamics::new(game, 50.0);
        let probs = d.update_distribution(0, &[1, 0]);
        assert!(
            probs[0] > 0.999999,
            "best response should dominate at high beta"
        );
    }

    #[test]
    fn huge_beta_does_not_overflow() {
        let game = WellGame::plateau(4, 10.0);
        let d = LogitDynamics::new(game, 1e6);
        let probs = d.update_distribution(0, &[0, 0, 0, 0]);
        assert!(probs.iter().all(|p| p.is_finite()));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transition_matrix_is_stochastic_and_ergodic() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(3),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let d = LogitDynamics::new(game, 1.0);
        let chain = d.transition_chain();
        assert_eq!(chain.num_states(), 8);
        assert!(chain.is_ergodic());
    }

    #[test]
    fn transition_matrix_matches_eq_3_structure() {
        let game = CoordinationGame::from_deltas(2.0, 1.0);
        let d = LogitDynamics::new(game, 0.5);
        let p = d.transition_matrix();
        let space = d.space();
        // Entries between profiles at Hamming distance 2 must be zero.
        for x in 0..4 {
            for y in 0..4 {
                if space.hamming_distance(x, y) == 2 {
                    assert_eq!(p[(x, y)], 0.0);
                }
            }
        }
        // Off-diagonal entry = σ_i(y_i|x)/n.
        let x = space.index_of(&[0, 0]);
        let y = space.index_of(&[1, 0]);
        let sigma = d.update_probability(0, &[0, 0], 1);
        assert!((p[(x, y)] - sigma / 2.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_and_dense_transitions_agree() {
        let game = TablePotentialGame::random(vec![2, 3, 2], 2.0, &mut StdRng::seed_from_u64(5));
        let d = LogitDynamics::new(game, 1.3);
        let dense = d.transition_matrix();
        let sparse = d.transition_sparse();
        assert!(sparse.is_row_stochastic(1e-9));
        assert!(sparse.to_dense().max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn gibbs_is_the_stationary_distribution() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::path(3),
            CoordinationGame::from_deltas(1.5, 1.0),
        );
        let d = LogitDynamics::new(game, 0.8);
        let chain = d.transition_chain();
        let pi_linear = stationary_distribution(&chain);
        let pi_gibbs = d.gibbs();
        assert!(total_variation(&pi_linear, &pi_gibbs) < 1e-9);
        // And the chain is reversible w.r.t. the Gibbs measure.
        assert!(chain.is_reversible(&pi_gibbs, 1e-9));
    }

    #[test]
    fn metropolis_shares_the_gibbs_stationary_distribution() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::path(3),
            CoordinationGame::from_deltas(1.5, 1.0),
        );
        let d = DynamicsEngine::with_rule(game, MetropolisLogit, 0.8);
        let chain = d.transition_chain();
        assert!(chain.is_ergodic());
        let pi_gibbs = d.gibbs();
        assert!(total_variation(&stationary_distribution(&chain), &pi_gibbs) < 1e-9);
        assert!(chain.is_reversible(&pi_gibbs, 1e-9));
    }

    #[test]
    fn noisy_best_response_chain_is_ergodic_but_not_gibbs() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::path(3),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let d = DynamicsEngine::with_rule(game, NoisyBestResponse::new(0.2), 1.0);
        let chain = d.transition_chain();
        assert!(chain.is_ergodic());
        let pi = stationary_distribution(&chain);
        // Its stationary law is a genuinely different object from Gibbs.
        assert!(total_variation(&pi, &d.gibbs()) > 1e-3);
    }

    #[test]
    fn all_logit_matrix_is_the_product_of_marginals() {
        let game = CoordinationGame::from_deltas(2.0, 1.0);
        let d = LogitDynamics::new(game, 0.9);
        let p = d.transition_matrix_all_logit();
        assert!(p.is_row_stochastic(1e-9));
        let space = d.space();
        for x in 0..4 {
            let profile = space.profile_of(x);
            let p0 = d.update_distribution(0, &profile);
            let p1 = d.update_distribution(1, &profile);
            for y in 0..4 {
                let expect = p0[space.strategy_of(y, 0)] * p1[space.strategy_of(y, 1)];
                assert!((p[(x, y)] - expect).abs() < 1e-12);
            }
        }
        // The block chain is a valid ergodic chain in its own right.
        assert!(d.transition_chain_all_logit().is_ergodic());
    }

    #[test]
    fn sweep_round_matrix_is_the_ordered_kernel_product() {
        let game = TablePotentialGame::random(vec![2, 2], 2.0, &mut StdRng::seed_from_u64(3));
        let d = LogitDynamics::new(game, 1.1);
        let product = d.player_kernel(0).matmul(&d.player_kernel(1));
        let sweep = d.transition_matrix_sweep_round();
        assert!(sweep.max_abs_diff(&product) < 1e-12);
        assert!(sweep.is_row_stochastic(1e-9));
        assert!(d.transition_chain_sweep_round().is_ergodic());
    }

    #[test]
    fn scheduled_uniform_single_matches_step_profile_exactly() {
        let game = TablePotentialGame::random(vec![2, 3, 2], 2.0, &mut StdRng::seed_from_u64(9));
        let d = DynamicsEngine::with_rule(game, MetropolisLogit, 1.2);
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        let mut scratch_a = Scratch::for_game(d.game());
        let mut scratch_b = Scratch::for_game(d.game());
        let mut prof_a = vec![0usize, 2, 1];
        let mut prof_b = prof_a.clone();
        for t in 0..200 {
            d.step_profile(&mut prof_a, &mut scratch_a, &mut rng_a);
            d.step_scheduled(&UniformSingle, t, &mut prof_b, &mut scratch_b, &mut rng_b);
            assert_eq!(prof_a, prof_b, "schedule path diverged at t = {t}");
        }
    }

    #[test]
    fn systematic_sweep_visits_players_in_order() {
        let game = WellGame::plateau(4, 1.0);
        let d = LogitDynamics::new(game, 0.7);
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = Scratch::for_game(d.game());
        let mut profile = vec![0usize; 4];
        for t in 0..12u64 {
            let before = profile.clone();
            d.step_scheduled(&SystematicSweep, t, &mut profile, &mut scratch, &mut rng);
            let expected_player = (t % 4) as usize;
            for (i, (&a, &b)) in before.iter().zip(&profile).enumerate() {
                if i != expected_player {
                    assert_eq!(a, b, "sweep tick {t} touched player {i}");
                }
            }
        }
    }

    #[test]
    fn all_logit_block_samples_against_the_frozen_profile() {
        // Two-player coordination at huge beta from the mismatched profile:
        // each player's best response to the *frozen* profile is the other's
        // current strategy, so a parallel block update swaps both and the
        // pair keeps oscillating — the signature all-logit behaviour a
        // sequential schedule cannot produce.
        let game = CoordinationGame::from_deltas(2.0, 1.0);
        let d = LogitDynamics::new(game, 60.0);
        let mut rng = StdRng::seed_from_u64(8);
        let mut scratch = Scratch::for_game(d.game());
        let mut profile = vec![0usize, 1];
        let moved = d.step_scheduled(&AllLogit, 0, &mut profile, &mut scratch, &mut rng);
        assert_eq!(profile, vec![1, 0], "both players swap simultaneously");
        assert_eq!(moved, 2);
        let moved = d.step_scheduled(&AllLogit, 1, &mut profile, &mut scratch, &mut rng);
        assert_eq!(profile, vec![0, 1], "and swap back");
        assert_eq!(moved, 2);
    }

    #[test]
    fn scheduled_flat_and_profile_paths_agree() {
        let game = TablePotentialGame::random(vec![2, 2, 3], 2.0, &mut StdRng::seed_from_u64(6));
        let d = LogitDynamics::new(game, 0.9);
        let space = d.space().clone();
        let mut rng_flat = StdRng::seed_from_u64(12);
        let mut rng_prof = StdRng::seed_from_u64(12);
        let mut scratch_flat = Scratch::for_game(d.game());
        let mut scratch_prof = Scratch::for_game(d.game());
        let mut state = space.index_of(&[1, 0, 2]);
        let mut profile = vec![1usize, 0, 2];
        for t in 0..60 {
            state = d.step_indexed_scheduled(&AllLogit, t, state, &mut scratch_flat, &mut rng_flat);
            d.step_scheduled(&AllLogit, t, &mut profile, &mut scratch_prof, &mut rng_prof);
            assert_eq!(space.index_of(&profile), state, "engines diverged");
        }
    }

    #[test]
    fn step_simulation_stays_in_range_and_moves_one_coordinate() {
        let game = WellGame::plateau(5, 2.0);
        let d = LogitDynamics::new(game, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut state = 0usize;
        for _ in 0..500 {
            let next = d.step(state, &mut rng);
            assert!(next < d.num_states());
            assert!(d.space().hamming_distance(state, next) <= 1);
            state = next;
        }
    }

    #[test]
    fn sample_index_respects_probabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        let probs = [0.1, 0.6, 0.3];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[sample_index(&probs, &mut rng)] += 1;
        }
        let freq1 = counts[1] as f64 / 30_000.0;
        assert!((freq1 - 0.6).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_beta_rejected() {
        let game = CoordinationGame::from_deltas(1.0, 1.0);
        let _ = LogitDynamics::new(game, -0.1);
    }

    #[test]
    fn profile_and_flat_engines_share_one_trajectory() {
        let game = TablePotentialGame::random(vec![2, 3, 2], 2.0, &mut StdRng::seed_from_u64(8));
        let d = LogitDynamics::new(game, 1.1);
        let space = d.space().clone();

        let mut rng_flat = StdRng::seed_from_u64(99);
        let mut rng_prof = StdRng::seed_from_u64(99);
        let mut scratch = Scratch::for_game(d.game());
        let mut state = space.index_of(&[1, 2, 0]);
        let mut profile = vec![1usize, 2, 0];
        for _ in 0..300 {
            state = d.step(state, &mut rng_flat);
            let event = d.step_profile(&mut profile, &mut scratch, &mut rng_prof);
            assert_eq!(space.index_of(&profile), state, "engines diverged");
            assert!(event.player < 3);
        }
    }

    #[test]
    fn step_events_report_the_move() {
        let game = WellGame::plateau(4, 1.0);
        let d = LogitDynamics::new(game, 0.5);
        let mut rng = StdRng::seed_from_u64(21);
        let mut scratch = Scratch::new();
        let mut profile = vec![0usize; 4];
        let mut moves = 0;
        for _ in 0..200 {
            let before = profile.clone();
            let event = d.step_profile(&mut profile, &mut scratch, &mut rng);
            assert_eq!(profile[event.player], event.new_strategy);
            assert_eq!(before[event.player], event.old_strategy);
            if event.moved() {
                moves += 1;
                assert_ne!(before, profile);
            } else {
                assert_eq!(before, profile);
            }
        }
        assert!(moves > 0, "a beta=0.5 chain moves sometimes");
    }

    #[test]
    fn profile_engine_runs_where_the_flat_index_cannot_exist() {
        // 2^1000 profiles: the flat index overflows usize, but the in-place
        // engine neither builds nor needs the profile space. Every rule runs
        // through the same engine.
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::ring(1000),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let d = LogitDynamics::new(game.clone(), 1.5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = Scratch::for_game(d.game());
        let mut profile = vec![0usize; 1000];
        for _ in 0..5000 {
            d.step_profile(&mut profile, &mut scratch, &mut rng);
        }
        assert!(profile.iter().all(|&s| s < 2));

        let m = DynamicsEngine::with_rule(game, MetropolisLogit, 1.5);
        for _ in 0..5000 {
            m.step_profile(&mut profile, &mut scratch, &mut rng);
        }
        assert!(profile.iter().all(|&s| s < 2));
    }

    #[test]
    fn scratch_probs_expose_the_last_update_distribution() {
        let game = CoordinationGame::from_deltas(2.0, 1.0);
        let d = LogitDynamics::new(game, 0.7);
        let mut scratch = Scratch::new();
        let mut profile = vec![1usize, 0];
        d.update_distribution_into(0, &mut profile, &mut scratch);
        let via_scratch = scratch.probs().to_vec();
        let via_alloc = d.update_distribution(0, &[1, 0]);
        assert_eq!(via_scratch, via_alloc);
        assert_eq!(
            profile,
            vec![1, 0],
            "profile is restored after the batch call"
        );
    }
}
