//! Graphical coordination games (Section 5).
//!
//! `n` players sit on the vertices of a social graph `G`; every player picks a
//! single strategy in `{0, 1}` and plays the 2×2 basic coordination game with
//! each neighbour, collecting the sum of the payoffs. The potential is the sum
//! of the edge potentials, `Φ(x) = Σ_{(u,v) ∈ E} φ(x_u, x_v)`.
//!
//! The crate also exposes the closed-form clique potential used by Theorem 5.5:
//! on the clique the potential only depends on the number `k` of players playing
//! strategy 1, `Φ(k) = -( C(n-k,2)·δ₀ + C(k,2)·δ₁ )`, the maximum being attained
//! near `k* ≈ (n-1)·δ₀/(δ₀+δ₁) + ½`.

use crate::coordination::CoordinationGame;
use crate::game::{Game, PotentialGame};
use logit_graphs::{CsrGraph, Graph};

/// A graphical coordination game: one [`CoordinationGame`] per edge of a social graph.
#[derive(Debug, Clone)]
pub struct GraphicalCoordinationGame {
    graph: Graph,
    /// Frozen CSR view of `graph`: the utility kernels iterate this (two
    /// contiguous `u32` arrays) instead of the per-vertex `Vec`s, so a
    /// colour-class sweep reads one linear neighbour stream.
    csr: CsrGraph,
    base: CoordinationGame,
}

impl GraphicalCoordinationGame {
    /// Creates the game from a social graph and the basic 2×2 game.
    ///
    /// # Panics
    /// Panics when the graph has no vertices (a game needs at least one player).
    pub fn new(graph: Graph, base: CoordinationGame) -> Self {
        assert!(
            graph.num_vertices() > 0,
            "the social graph needs at least one player"
        );
        let csr = CsrGraph::from_graph(&graph);
        Self { graph, csr, base }
    }

    /// The underlying social graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The frozen CSR view of the social graph (built at construction).
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// The basic coordination game played on every edge.
    pub fn base(&self) -> &CoordinationGame {
        &self.base
    }

    /// `δ₀` of the basic game.
    pub fn delta0(&self) -> f64 {
        self.base.delta0()
    }

    /// `δ₁` of the basic game.
    pub fn delta1(&self) -> f64 {
        self.base.delta1()
    }

    /// Potential of the all-zeros profile: `-|E|·δ₀`.
    pub fn potential_all_zero(&self) -> f64 {
        -(self.graph.num_edges() as f64) * self.delta0()
    }

    /// Potential of the all-ones profile: `-|E|·δ₁`.
    pub fn potential_all_one(&self) -> f64 {
        -(self.graph.num_edges() as f64) * self.delta1()
    }
}

impl Game for GraphicalCoordinationGame {
    fn num_players(&self) -> usize {
        self.graph.num_vertices()
    }

    fn num_strategies(&self, _player: usize) -> usize {
        2
    }

    fn utility(&self, player: usize, profile: &[usize]) -> f64 {
        debug_assert_eq!(profile.len(), self.num_players());
        self.graph
            .neighbors(player)
            .iter()
            .map(|&j| self.base.payoff(profile[player], profile[j]))
            .sum()
    }

    fn utilities_for(&self, player: usize, profile: &mut [usize], out: &mut [f64]) {
        self.utilities_readonly(player, profile, out);
    }
}

impl GraphicalCoordinationGame {
    /// The batch evaluation behind both `utilities_for` hooks: reads the
    /// profile immutably (one pass over the neighbourhood serves both
    /// strategies — only the counts of neighbours on each side matter), so
    /// the parallel frozen-profile path can share it across workers.
    /// Iterates the CSR row — one contiguous `u32` stream per player.
    pub(crate) fn utilities_readonly(&self, player: usize, profile: &[usize], out: &mut [f64]) {
        let row = self.csr.neighbors(player);
        let ones: usize = row.iter().map(|&j| profile[j as usize]).sum();
        self.utilities_from_ones(row.len(), ones, out);
    }

    /// [`Self::utilities_readonly`] against a byte-packed strategy profile —
    /// the SoA buffer of the cache-blocked coloured sweeps. Identical
    /// arithmetic (same neighbour-count kernel), so the two hooks agree
    /// bitwise on corresponding profiles.
    pub(crate) fn utilities_readonly_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        let (degree, ones) = self.count_key_bytes(player, profile);
        self.utilities_from_ones(degree, ones, out);
    }

    /// `(degree, #neighbours playing 1)` of `player` against a byte-packed
    /// profile: the CSR gather behind [`Self::utilities_readonly_bytes`],
    /// and the key of the byte sweep's revision table.
    #[inline]
    pub(crate) fn count_key_bytes(&self, player: usize, profile: &[u8]) -> (usize, usize) {
        let row = self.csr.neighbors(player);
        let ones: usize = row.iter().map(|&j| profile[j as usize] as usize).sum();
        (row.len(), ones)
    }

    /// The shared counting kernel: only `(degree, #neighbours on 1)` enter
    /// the payoff sums, so every profile representation funnels through the
    /// same float expressions — the bitwise-agreement anchor of the
    /// relabelled byte engine.
    #[inline]
    pub(crate) fn utilities_from_ones(&self, degree: usize, ones: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), 2);
        let zeros = (degree - ones) as f64;
        let ones = ones as f64;
        out[0] = zeros * self.base.payoff(0, 0) + ones * self.base.payoff(0, 1);
        out[1] = zeros * self.base.payoff(1, 0) + ones * self.base.payoff(1, 1);
    }
}

impl PotentialGame for GraphicalCoordinationGame {
    fn potential(&self, profile: &[usize]) -> f64 {
        self.graph
            .edges()
            .map(|(u, v)| self.base.edge_potential(profile[u], profile[v]))
            .sum()
    }
}

/// Closed-form potential of the graphical coordination game on the **clique**
/// `K_n` as a function of the number `k` of players playing strategy 1
/// (Section 5.2).
pub fn clique_potential_by_count(n: usize, delta0: f64, delta1: f64, k: usize) -> f64 {
    assert!(k <= n, "count of 1-players cannot exceed n");
    let zeros = (n - k) as f64;
    let ones = k as f64;
    -(zeros * (zeros - 1.0) / 2.0 * delta0 + ones * (ones - 1.0) / 2.0 * delta1)
}

/// The count `k*` of 1-players at which the clique potential is maximised
/// (Section 5.2: the integer closest to `(n-1)·δ₀/(δ₀+δ₁) + ½`, clamped to `[0, n]`).
pub fn clique_argmax_count(n: usize, delta0: f64, delta1: f64) -> usize {
    let continuous = (n as f64 - 1.0) * delta0 / (delta0 + delta1) + 0.5;
    let mut best_k = continuous.round().clamp(0.0, n as f64) as usize;
    // Guard against rounding ties: check the two integer neighbours explicitly.
    let mut best_val = clique_potential_by_count(n, delta0, delta1, best_k);
    for cand in [best_k.saturating_sub(1), (best_k + 1).min(n)] {
        let v = clique_potential_by_count(n, delta0, delta1, cand);
        if v > best_val {
            best_val = v;
            best_k = cand;
        }
    }
    best_k
}

/// The barrier `Φ_max - Φ(1)` appearing in the Theorem 5.5 clique bound
/// (with the convention `δ₀ ≥ δ₁`, `1` is the *shallower* of the two equilibria).
pub fn clique_barrier(n: usize, delta0: f64, delta1: f64) -> f64 {
    let kstar = clique_argmax_count(n, delta0, delta1);
    let phimax = clique_potential_by_count(n, delta0, delta1, kstar);
    let phi_all_one = clique_potential_by_count(n, delta0, delta1, n);
    phimax - phi_all_one
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{find_pure_nash_equilibria, is_pure_nash, verify_exact_potential};
    use logit_graphs::GraphBuilder;

    fn ring_game(n: usize, d0: f64, d1: f64) -> GraphicalCoordinationGame {
        GraphicalCoordinationGame::new(GraphBuilder::ring(n), CoordinationGame::from_deltas(d0, d1))
    }

    #[test]
    fn utilities_sum_over_neighbours() {
        let g = ring_game(4, 3.0, 2.0);
        // Everyone plays 0: each player matches both neighbours at payoff a = 3.
        assert_eq!(g.utility(0, &[0, 0, 0, 0]), 6.0);
        // Player 0 deviates to 1: both its edges become mismatches with payoff d = 0.
        assert_eq!(g.utility(0, &[1, 0, 0, 0]), 0.0);
        // Its neighbour 1 still matches player 2 only.
        assert_eq!(g.utility(1, &[1, 0, 0, 0]), 3.0);
    }

    #[test]
    fn exact_potential_on_various_graphs() {
        for graph in [
            GraphBuilder::ring(4),
            GraphBuilder::path(4),
            GraphBuilder::clique(4),
            GraphBuilder::star(5),
        ] {
            let game =
                GraphicalCoordinationGame::new(graph, CoordinationGame::new(5.0, 4.0, 1.0, 2.0));
            assert!(verify_exact_potential(&game, 1e-9));
        }
    }

    #[test]
    fn consensus_profiles_are_nash() {
        let g = ring_game(5, 2.0, 2.0);
        assert!(is_pure_nash(&g, &[0, 0, 0, 0, 0]));
        assert!(is_pure_nash(&g, &[1, 1, 1, 1, 1]));
        assert!(!is_pure_nash(&g, &[1, 0, 0, 0, 0]));
    }

    #[test]
    fn ring_potential_extremes() {
        let g = ring_game(6, 3.0, 2.0);
        assert_eq!(g.potential(&[0; 6]), -18.0);
        assert_eq!(g.potential(&[1; 6]), -12.0);
        assert_eq!(g.potential_all_zero(), -18.0);
        assert_eq!(g.potential_all_one(), -12.0);
        // Mixed profile: only matching edges contribute.
        assert_eq!(g.potential(&[0, 0, 0, 1, 1, 1]), -3.0 * 2.0 - 2.0 * 2.0);
    }

    #[test]
    fn clique_closed_form_matches_enumeration() {
        let n = 5;
        let (d0, d1) = (3.0, 2.0);
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::clique(n),
            CoordinationGame::from_deltas(d0, d1),
        );
        let space = game.profile_space();
        let mut buf = vec![0usize; n];
        for idx in space.indices() {
            space.write_profile(idx, &mut buf);
            let k = buf.iter().filter(|&&x| x == 1).count();
            assert!(
                (game.potential(&buf) - clique_potential_by_count(n, d0, d1, k)).abs() < 1e-12,
                "closed form disagrees at k={k}"
            );
        }
    }

    #[test]
    fn clique_argmax_is_global_maximum() {
        for n in 2..9 {
            for (d0, d1) in [(1.0, 1.0), (3.0, 2.0), (5.0, 1.0)] {
                let kstar = clique_argmax_count(n, d0, d1);
                let vstar = clique_potential_by_count(n, d0, d1, kstar);
                for k in 0..=n {
                    assert!(
                        clique_potential_by_count(n, d0, d1, k) <= vstar + 1e-12,
                        "k={k} beats k*={kstar} for n={n}, d0={d0}, d1={d1}"
                    );
                }
            }
        }
    }

    #[test]
    fn clique_barrier_positive_and_grows_quadratically_without_risk_dominance() {
        // δ0 = δ1: barrier is Θ(n² δ) (Section 5.2 closing remark).
        let b4 = clique_barrier(4, 1.0, 1.0);
        let b8 = clique_barrier(8, 1.0, 1.0);
        assert!(b4 > 0.0);
        assert!(b8 / b4 > 3.0, "barrier should grow roughly quadratically");
    }

    #[test]
    fn nash_equilibria_on_small_clique() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::clique(3),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        let nash = find_pure_nash_equilibria(&game);
        assert!(nash.contains(&vec![0, 0, 0]));
        assert!(nash.contains(&vec![1, 1, 1]));
        assert_eq!(nash.len(), 2);
    }
}
