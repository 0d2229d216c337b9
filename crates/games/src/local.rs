//! Locality structure of games: the [`LocalGame`] trait.
//!
//! In every game the paper simulates at scale, a player's utility depends
//! only on her own strategy and the strategies of a small *neighbourhood* —
//! graph neighbours for graphical coordination and Ising games, players
//! sharing a resource for congestion games. The flat-index simulation engine
//! cannot exploit this (decoding a flat state index is `O(n)` and the index
//! itself overflows `usize` beyond ~60 binary players); the in-place profile
//! engine in `logit-core` can: one logit update of a [`LocalGame`] costs
//! `O(|S_i| + deg(i))` work, independent of both `n` and `|S|`.
//!
//! The contract: `utility(i, x)` and `utilities_for(i, x, out)` read only
//! `x[i]` and `x[j]` for `j ∈ neighbors_of(i)`. The proptest suite checks
//! this by perturbing strategies outside the neighbourhood.
//!
//! Locality is also what makes **parallel revision** correct: two
//! non-neighbouring players' single-tick updates commute, so a whole
//! independent set of the interaction graph can revise simultaneously. Two
//! hooks serve that path: [`LocalGame::utilities_for_frozen`] (a read-only
//! batch evaluation, so parallel workers can share the frozen pre-tick
//! profile immutably) and [`interaction_graph`] (the bridge that turns any
//! `LocalGame`'s neighbourhood structure into a `logit_graphs::Graph`, ready
//! for the colouring algorithms in `logit-graphs`).

use crate::congestion::CongestionGame;
use crate::game::Game;
use crate::graphical::GraphicalCoordinationGame;
use crate::ising::IsingGame;
use logit_graphs::{CsrGraph, Graph};

/// A game whose utilities have bounded-neighbourhood locality.
pub trait LocalGame: Game {
    /// The players (other than `player`) whose strategies can affect
    /// `player`'s utility.
    fn neighbors_of(&self, player: usize) -> &[usize];

    /// Read-only batch utilities: like [`Game::utilities_for`], but the
    /// profile is borrowed *immutably* — the hook of the parallel
    /// independent-set engine path, where many workers evaluate different
    /// players against one shared frozen profile at the same time.
    ///
    /// The default clones the profile and delegates, which is correct for
    /// every game but allocates `O(n)` per call; every concrete `LocalGame`
    /// here overrides it with its one-pass read-only evaluation. The
    /// contract is exact agreement with `utilities_for` on the same profile
    /// (the proptest harness pins this through the coloured-step
    /// bit-identity checks).
    fn utilities_for_frozen(&self, player: usize, profile: &[usize], out: &mut [f64]) {
        let mut work = profile.to_vec();
        self.utilities_for(player, &mut work, out);
    }

    /// Read-only batch utilities against a **byte-packed** strategy profile
    /// — the SoA buffer of the cache-blocked CSR sweeps in `logit-core`,
    /// where a binary game's profile is 1 byte per player (an `n = 10⁶`
    /// profile fits a 2 MiB L2) instead of 8. Entries are strategy indices;
    /// the engine only routes games with `max_strategies() ≤ 256` here.
    ///
    /// The contract is *bitwise* agreement with
    /// [`utilities_for_frozen`](Self::utilities_for_frozen) on the widened
    /// profile. The default widens into a temporary and delegates — correct
    /// for every game but `O(n)` per call; the graph-backed games override
    /// it with one-pass CSR kernels (congestion games keep the default:
    /// their resource loads are inherently a full-profile scan).
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        let wide: Vec<usize> = profile.iter().map(|&s| s as usize).collect();
        self.utilities_for_frozen(player, &wide, out);
    }

    /// Hints the cache that the data
    /// [`utilities_for_frozen_bytes`](Self::utilities_for_frozen_bytes)
    /// will read for `player` is about to be needed — the byte-sweep loops
    /// in `logit-core` call this a few players ahead of the revision so the
    /// neighbourhood row is resident when the gather runs. Purely a
    /// performance hint: the default is a no-op, and implementations must
    /// have no observable effect.
    #[inline]
    fn prefetch_frozen_bytes(&self, _player: usize) {}

    /// The graph of the game's **count kernel**, if it has one: `Some(g)`
    /// declares that every player has two strategies and that player `i`'s
    /// utilities depend on the profile only through the key
    /// `(g.degree(i), #neighbours playing 1)` — so a byte sweep in
    /// `logit-core` can tabulate the update rule once per key instead of
    /// evaluating it per revision. `None` (the default) keeps the sweep on
    /// direct computation.
    ///
    /// When this returns `Some`, [`count_key_bytes`](Self::count_key_bytes)
    /// and [`utilities_from_count`](Self::utilities_from_count) must satisfy
    /// `utilities_from_count(count_key_bytes(i, x)) ==
    /// utilities_for_frozen_bytes(i, x)` bitwise, for every player and byte
    /// profile.
    fn count_graph(&self) -> Option<&Graph> {
        None
    }

    /// The count key `(degree, #neighbours playing 1)` of `player` against
    /// a byte-packed profile. Only meaningful when
    /// [`count_graph`](Self::count_graph) is `Some`; the default gathers
    /// over [`neighbors_of`](Self::neighbors_of).
    fn count_key_bytes(&self, player: usize, profile: &[u8]) -> (usize, usize) {
        let row = self.neighbors_of(player);
        (row.len(), row.iter().map(|&j| profile[j] as usize).sum())
    }

    /// The count kernel: fills `out` (length 2) with the utilities of a
    /// player whose count key is `(degree, ones)`.
    ///
    /// # Panics
    /// The default panics: a game only reaches this after declaring a
    /// count kernel through [`count_graph`](Self::count_graph), and every
    /// game that does overrides it.
    fn utilities_from_count(&self, _degree: usize, _ones: usize, _out: &mut [f64]) {
        unreachable!("utilities_from_count on a game without a count kernel")
    }

    /// Size of `player`'s neighbourhood.
    fn degree(&self, player: usize) -> usize {
        self.neighbors_of(player).len()
    }

    /// Largest neighbourhood size over all players (used to size scratch
    /// buffers and bound per-step cost).
    fn max_degree(&self) -> usize {
        (0..self.num_players())
            .map(|i| self.degree(i))
            .max()
            .unwrap_or(0)
    }

    /// Upper bound on the cost of one logit update of any player:
    /// `max_i (|S_i| + deg(i))`.
    fn step_cost_bound(&self) -> usize {
        (0..self.num_players())
            .map(|i| self.num_strategies(i) + self.degree(i))
            .max()
            .unwrap_or(0)
    }
}

impl<G: LocalGame + ?Sized> LocalGame for &G {
    fn neighbors_of(&self, player: usize) -> &[usize] {
        (**self).neighbors_of(player)
    }
    fn utilities_for_frozen(&self, player: usize, profile: &[usize], out: &mut [f64]) {
        (**self).utilities_for_frozen(player, profile, out)
    }
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        (**self).utilities_for_frozen_bytes(player, profile, out)
    }
    #[inline]
    fn prefetch_frozen_bytes(&self, player: usize) {
        (**self).prefetch_frozen_bytes(player)
    }
    #[inline]
    fn count_graph(&self) -> Option<&Graph> {
        (**self).count_graph()
    }
    #[inline]
    fn count_key_bytes(&self, player: usize, profile: &[u8]) -> (usize, usize) {
        (**self).count_key_bytes(player, profile)
    }
    fn utilities_from_count(&self, degree: usize, ones: usize, out: &mut [f64]) {
        (**self).utilities_from_count(degree, ones, out)
    }
}

/// Shared-ownership locality: a replica ensemble's engines hold the game
/// through an `Arc`, and the coloured parallel-revision path needs the
/// locality hooks through that indirection too. Forwarded explicitly so the
/// games' read-only overrides survive (same reasoning as the `Arc<G>: Game`
/// impl in [`crate::game`]).
impl<G: LocalGame + ?Sized> LocalGame for std::sync::Arc<G> {
    fn neighbors_of(&self, player: usize) -> &[usize] {
        (**self).neighbors_of(player)
    }
    fn utilities_for_frozen(&self, player: usize, profile: &[usize], out: &mut [f64]) {
        (**self).utilities_for_frozen(player, profile, out)
    }
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        (**self).utilities_for_frozen_bytes(player, profile, out)
    }
    #[inline]
    fn prefetch_frozen_bytes(&self, player: usize) {
        (**self).prefetch_frozen_bytes(player)
    }
    #[inline]
    fn count_graph(&self) -> Option<&Graph> {
        (**self).count_graph()
    }
    #[inline]
    fn count_key_bytes(&self, player: usize, profile: &[u8]) -> (usize, usize) {
        (**self).count_key_bytes(player, profile)
    }
    fn utilities_from_count(&self, degree: usize, ones: usize, out: &mut [f64]) {
        (**self).utilities_from_count(degree, ones, out)
    }
}

impl LocalGame for GraphicalCoordinationGame {
    fn neighbors_of(&self, player: usize) -> &[usize] {
        self.graph().neighbors(player)
    }
    fn utilities_for_frozen(&self, player: usize, profile: &[usize], out: &mut [f64]) {
        self.utilities_readonly(player, profile, out);
    }
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        self.utilities_readonly_bytes(player, profile, out);
    }
    #[inline]
    fn prefetch_frozen_bytes(&self, player: usize) {
        self.csr().prefetch_row(player);
    }
    #[inline]
    fn count_graph(&self) -> Option<&Graph> {
        Some(self.graph())
    }
    #[inline]
    fn count_key_bytes(&self, player: usize, profile: &[u8]) -> (usize, usize) {
        GraphicalCoordinationGame::count_key_bytes(self, player, profile)
    }
    fn utilities_from_count(&self, degree: usize, ones: usize, out: &mut [f64]) {
        self.utilities_from_ones(degree, ones, out);
    }
}

impl LocalGame for IsingGame {
    fn neighbors_of(&self, player: usize) -> &[usize] {
        self.graph().neighbors(player)
    }
    fn utilities_for_frozen(&self, player: usize, profile: &[usize], out: &mut [f64]) {
        self.utilities_readonly(player, profile, out);
    }
    fn utilities_for_frozen_bytes(&self, player: usize, profile: &[u8], out: &mut [f64]) {
        self.utilities_readonly_bytes(player, profile, out);
    }
    #[inline]
    fn prefetch_frozen_bytes(&self, player: usize) {
        self.csr().prefetch_row(player);
    }
    #[inline]
    fn count_graph(&self) -> Option<&Graph> {
        Some(self.graph())
    }
    #[inline]
    fn count_key_bytes(&self, player: usize, profile: &[u8]) -> (usize, usize) {
        IsingGame::count_key_bytes(self, player, profile)
    }
    fn utilities_from_count(&self, degree: usize, ones: usize, out: &mut [f64]) {
        self.utilities_from_ones(degree, ones, out);
    }
}

impl LocalGame for CongestionGame {
    fn neighbors_of(&self, player: usize) -> &[usize] {
        self.interaction_neighbors(player)
    }
    fn utilities_for_frozen(&self, player: usize, profile: &[usize], out: &mut [f64]) {
        self.utilities_readonly(player, profile, out);
    }
}

/// The `LocalGame`-to-`Graph` adjacency bridge: materialises any local
/// game's interaction structure as a `logit_graphs::Graph` on the players.
///
/// This closes the loop with `GraphBuilder`: every builder topology (ring,
/// torus, hypercube, Erdős–Rényi, circulant, …) becomes a playable
/// coordination/Ising instance by construction, and every *other*
/// `LocalGame` — congestion games, whose interaction graph is implicit in
/// resource sharing — comes back out as a graph the colouring algorithms in
/// `logit-graphs` can schedule (`greedy_coloring` / `dsatur_coloring` →
/// `ColouredBlocks` in `logit-core`).
///
/// Neighbourhoods are symmetrised: an edge is added when either endpoint
/// lists the other (for the games here the relation is already symmetric,
/// and `Graph::from_edges` deduplicates, so every directed pair is pushed
/// unconditionally).
pub fn interaction_graph<G: LocalGame>(game: &G) -> Graph {
    let n = game.num_players();
    let mut edges = Vec::new();
    for u in 0..n {
        for &v in game.neighbors_of(u) {
            edges.push((u.min(v), u.max(v)));
        }
    }
    Graph::from_edges(n, &edges)
}

/// [`interaction_graph`] frozen to CSR form — the locality-first view of
/// any local game's interaction structure, ready for the bandwidth
/// machinery (`logit_graphs::rcm_ordering`) and the cache-blocked engine
/// paths. Graph-backed games expose their own cached `csr()` accessor;
/// this bridge covers the games whose interaction graph is implicit
/// (congestion via resource sharing).
///
/// # Panics
/// Panics when the player or directed-edge count exceeds the CSR `u32`
/// validity bound (see [`CsrGraph::from_graph`]).
pub fn interaction_csr<G: LocalGame>(game: &G) -> CsrGraph {
    CsrGraph::from_graph(&interaction_graph(game))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordination::CoordinationGame;
    use logit_graphs::GraphBuilder;

    /// Changing a strategy outside `neighbors_of(i)` must not change
    /// `utility(i, ·)` — the defining property of the trait.
    fn check_locality<G: LocalGame>(game: &G) {
        let n = game.num_players();
        let mut profile = vec![0usize; n];
        for player in 0..n {
            let local: std::collections::BTreeSet<usize> =
                game.neighbors_of(player).iter().copied().collect();
            assert!(
                !local.contains(&player),
                "a player is not her own neighbour"
            );
            let base = game.utility(player, &profile);
            for other in 0..n {
                if other == player || local.contains(&other) {
                    continue;
                }
                for s in 0..game.num_strategies(other) {
                    let saved = profile[other];
                    profile[other] = s;
                    assert_eq!(
                        game.utility(player, &profile),
                        base,
                        "utility of {player} changed when non-neighbour {other} moved"
                    );
                    profile[other] = saved;
                }
            }
        }
    }

    #[test]
    fn graphical_and_ising_neighbourhoods_are_graph_neighbours() {
        let graph = GraphBuilder::ring(6);
        let coord = GraphicalCoordinationGame::new(graph.clone(), CoordinationGame::symmetric(1.0));
        let ising = IsingGame::zero_field(graph.clone(), 0.5);
        for v in 0..6 {
            assert_eq!(coord.neighbors_of(v), graph.neighbors(v));
            assert_eq!(ising.neighbors_of(v), graph.neighbors(v));
        }
        assert_eq!(coord.max_degree(), 2);
        assert_eq!(coord.step_cost_bound(), 4);
        check_locality(&coord);
        check_locality(&ising);
    }

    #[test]
    fn star_degrees() {
        let game = GraphicalCoordinationGame::new(
            GraphBuilder::star(5),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        // The hub interacts with everyone, the leaves only with the hub.
        let degrees: Vec<usize> = (0..5).map(|v| game.degree(v)).collect();
        assert_eq!(degrees.iter().max(), Some(&4));
        assert_eq!(game.max_degree(), 4);
        check_locality(&game);
    }

    #[test]
    fn congestion_neighbourhood_is_resource_sharing() {
        // Players 0 and 1 can share machine 0; player 2 is isolated on machine 1.
        let delays = vec![vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0]];
        let strategies = vec![vec![vec![0]], vec![vec![0]], vec![vec![1]]];
        let game = CongestionGame::new(delays, strategies);
        assert_eq!(game.neighbors_of(0), &[1]);
        assert_eq!(game.neighbors_of(1), &[0]);
        assert_eq!(game.neighbors_of(2), &[] as &[usize]);
        check_locality(&game);
    }

    #[test]
    fn load_balancing_is_fully_coupled() {
        let game = CongestionGame::load_balancing(4, 2, 1.0);
        for i in 0..4 {
            assert_eq!(
                game.degree(i),
                3,
                "every player shares machines with all others"
            );
        }
        check_locality(&game);
    }

    #[test]
    fn reference_delegation() {
        let game =
            GraphicalCoordinationGame::new(GraphBuilder::path(4), CoordinationGame::symmetric(1.0));
        let r = &game;
        assert_eq!(r.neighbors_of(1), game.neighbors_of(1));
        assert_eq!(r.max_degree(), 2);
    }

    /// The frozen batch hook must agree exactly with the mutable one on
    /// every concrete `LocalGame` (and through `&G` / `Arc<G>` forwarding).
    #[test]
    fn frozen_utilities_match_the_mutable_hook() {
        fn check<G: LocalGame>(game: &G, profile: &[usize]) {
            let mut work = profile.to_vec();
            for player in 0..game.num_players() {
                let m = game.num_strategies(player);
                let mut mutable = vec![0.0; m];
                let mut frozen = vec![0.0; m];
                game.utilities_for(player, &mut work, &mut mutable);
                game.utilities_for_frozen(player, profile, &mut frozen);
                assert_eq!(mutable, frozen, "hooks disagree for player {player}");
                assert_eq!(work, profile, "mutable hook must restore the profile");
            }
        }
        let coord = GraphicalCoordinationGame::new(
            GraphBuilder::torus(3, 3),
            CoordinationGame::new(5.0, 4.0, 1.0, 2.0),
        );
        check(&coord, &[0, 1, 0, 1, 1, 0, 0, 1, 1]);
        let ising = IsingGame::new(GraphBuilder::hypercube(3), 0.7, 0.2);
        check(&ising, &[1, 0, 0, 1, 0, 1, 1, 0]);
        let congestion = CongestionGame::load_balancing(4, 2, 1.5);
        check(&congestion, &[0, 1, 1, 0]);
        // Forwarding layers: &G and Arc<G> reach the same overrides.
        check(&&coord, &[0, 1, 0, 1, 1, 0, 0, 1, 1]);
        check(&std::sync::Arc::new(ising), &[1, 0, 0, 1, 0, 1, 1, 0]);
    }

    /// The byte-profile hook must agree bitwise with the widened frozen
    /// hook on every concrete `LocalGame` — including the congestion
    /// default, which widens internally — and through the forwarding
    /// layers.
    #[test]
    fn byte_profile_utilities_match_the_frozen_hook_bitwise() {
        fn check<G: LocalGame>(game: &G, profile: &[usize]) {
            let bytes: Vec<u8> = profile.iter().map(|&s| s as u8).collect();
            for player in 0..game.num_players() {
                let m = game.num_strategies(player);
                let mut frozen = vec![0.0; m];
                let mut packed = vec![0.0; m];
                game.utilities_for_frozen(player, profile, &mut frozen);
                game.utilities_for_frozen_bytes(player, &bytes, &mut packed);
                assert!(
                    frozen
                        .iter()
                        .zip(&packed)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "byte hook diverged for player {player}: {frozen:?} vs {packed:?}"
                );
            }
        }
        let coord = GraphicalCoordinationGame::new(
            GraphBuilder::torus(3, 3),
            CoordinationGame::new(5.0, 4.0, 1.0, 2.0),
        );
        check(&coord, &[0, 1, 0, 1, 1, 0, 0, 1, 1]);
        let ising = IsingGame::new(GraphBuilder::hypercube(3), 0.7, 0.2);
        check(&ising, &[1, 0, 0, 1, 0, 1, 1, 0]);
        let congestion = CongestionGame::load_balancing(4, 2, 1.5);
        check(&congestion, &[0, 1, 1, 0]);
        check(&&coord, &[1, 1, 0, 0, 1, 0, 1, 0, 1]);
        check(&std::sync::Arc::new(ising), &[0, 1, 1, 0, 1, 0, 0, 1]);
    }

    /// The count kernel applied to the count key must reproduce the byte
    /// hook bitwise on the graph-backed games, through the forwarding
    /// layers too; congestion games declare no count kernel.
    #[test]
    fn count_kernel_matches_the_byte_hook_bitwise() {
        fn check<G: LocalGame>(game: &G, profile: &[u8]) {
            let graph = game.count_graph().expect("a count kernel");
            for player in 0..game.num_players() {
                let (degree, ones) = game.count_key_bytes(player, profile);
                assert_eq!(degree, graph.degree(player));
                let mut direct = [0.0; 2];
                let mut counted = [0.0; 2];
                game.utilities_for_frozen_bytes(player, profile, &mut direct);
                game.utilities_from_count(degree, ones, &mut counted);
                assert_eq!(direct.map(f64::to_bits), counted.map(f64::to_bits));
            }
        }
        let coord = GraphicalCoordinationGame::new(
            GraphBuilder::grid(3, 4),
            CoordinationGame::new(5.0, 4.0, 1.0, 2.0),
        );
        let profile = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0];
        check(&coord, &profile);
        check(&&coord, &profile);
        let ising = IsingGame::new(GraphBuilder::star(6), 0.7, 0.2);
        check(&ising, &[1, 0, 1, 1, 0, 1]);
        check(&std::sync::Arc::new(ising), &[0, 1, 0, 0, 1, 1]);
        assert!(CongestionGame::load_balancing(4, 2, 1.5)
            .count_graph()
            .is_none());
    }

    /// The bridge reproduces the social graph for graph-backed games and
    /// materialises the implicit resource-sharing graph of congestion games.
    #[test]
    fn interaction_graph_bridges_every_local_game() {
        let graph = GraphBuilder::circulant(10, 2);
        let coord =
            GraphicalCoordinationGame::new(graph.clone(), CoordinationGame::from_deltas(2.0, 1.0));
        let bridged = interaction_graph(&coord);
        assert_eq!(bridged.num_vertices(), graph.num_vertices());
        assert_eq!(bridged.num_edges(), graph.num_edges());
        for v in 0..10 {
            assert_eq!(bridged.neighbors(v), graph.neighbors(v));
        }
        let ising = IsingGame::zero_field(GraphBuilder::torus(3, 4), 1.0);
        let bridged = interaction_graph(&ising);
        assert_eq!(bridged.num_edges(), ising.graph().num_edges());
        // Congestion: players 0 and 1 share machine 0, player 2 is isolated.
        let delays = vec![vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0]];
        let strategies = vec![vec![vec![0]], vec![vec![0]], vec![vec![1]]];
        let game = CongestionGame::new(delays, strategies);
        let bridged = interaction_graph(&game);
        assert!(bridged.has_edge(0, 1));
        assert_eq!(bridged.degree(2), 0);
        assert_eq!(bridged.num_edges(), 1);
    }

    /// The CSR bridge and the cached per-game CSR views agree with the
    /// adjacency-list graph.
    #[test]
    fn interaction_csr_matches_the_graph_bridge() {
        let graph = GraphBuilder::circulant(10, 2);
        let coord =
            GraphicalCoordinationGame::new(graph.clone(), CoordinationGame::from_deltas(2.0, 1.0));
        let csr = interaction_csr(&coord);
        assert_eq!(csr.num_vertices(), graph.num_vertices());
        assert_eq!(csr.num_edges(), graph.num_edges());
        for v in 0..10 {
            let row: Vec<usize> = csr.neighbors(v).iter().map(|&j| j as usize).collect();
            assert_eq!(row, graph.neighbors(v));
        }
        assert_eq!(coord.csr(), &csr, "cached game CSR is the same view");
        let ising = IsingGame::zero_field(GraphBuilder::torus(3, 4), 1.0);
        assert_eq!(interaction_csr(&ising), *ising.csr());
    }
}
