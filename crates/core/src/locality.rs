//! Memory-locality layer for large-`n` simulation: bandwidth-minimising
//! player relabelling plus byte-profile (SoA) coloured sweeps.
//!
//! At `n = 10⁶`–`10⁷` players the coloured engine is memory-bound, not
//! compute-bound: each revision streams the player's neighbour row and
//! gathers the neighbours' current strategies, so the working set per
//! revision is governed by *where* the neighbours live. This module
//! attacks that on three fronts:
//!
//! 1. **Relabelling** ([`LocalityLayout`]): players are renamed along a
//!    reverse Cuthill–McKee ordering of the interaction graph
//!    ([`logit_graphs::rcm_ordering`]), cut into **colour blocks**: the
//!    positions run class by class in colour order, and within a class in
//!    RCM order. A tick's class is then one contiguous run, so the sweep
//!    streams its labels, CSR offsets and targets and its commit writes
//!    sequentially, instead of touching every ≈`num_classes`-th slot of
//!    each. RCM keeps a player's neighbours close to her in RCM rank, and
//!    every class block is in RCM order, so a sweep's gathers advance
//!    through each other class's block in step with the sweep cursor: one
//!    short sequential window per class instead of anywhere in an `O(n)`
//!    array.
//! 2. **Byte profiles**: strategies are stored one byte per player
//!    (games with at most 256 strategies — every concrete large-`n` game
//!    here is binary), so the whole strategy vector of a `10⁶`-player game
//!    is 1 MB and sits in L2 during a sweep.
//! 3. **Cache-blocked sweeps**: the pooled class sweep hands out chunks
//!    capped at [`crate::runtime::RuntimeConfig`]`::block_players`, keeping
//!    each worker's write stream and gather window L2-resident.
//!
//! Once the gathers are cheap, the sweep is compute-bound, which a fourth
//! piece addresses: a **count-keyed threshold table**. When a game declares
//! a count kernel ([`LocalGame::count_graph`]: binary strategies, utilities
//! keyed by `(degree, #neighbours playing 1)`), the byte sweeps look one
//! `f64` threshold up by `(degree, ones, current)` and draw
//! `(u >= threshold) as u8`, instead of evaluating utilities, `exp`, the
//! normalisation and the inverse-CDF scan per revision. Each threshold is
//! derived from the `[p0, p1]` the same count kernel and
//! [`UpdateRule::fill_probs`] call would give the direct path, so that the
//! comparison picks exactly the index the scan would: `p0` when `p1 > 0`;
//! `+∞` (always 0) when only `p0` is positive; `0.0` (always 1, the scan's
//! last-index fallback) when both are zero. A rule that yields a NaN gets
//! no table. The table is built once per engine, and only when it fits
//! [`REVISION_TABLE_CAP`]; other games and larger tables keep the direct
//! path. The table decision is taken once per chunk, so the table loop
//! holds no call: the game's CSR gather is inlined, and the two splitmix
//! rounds that depend only on `(seed, t)` are computed once per chunk,
//! leaving one round per player.
//!
//! Around the ticks, [`Simulator::run_coloured_locality`] packs the start
//! profile into bytes and unpacks the result on the same pool and with the
//! same chunking as the class sweep: the pack gathers
//! `out[k] = start[labels[k]]`, the unpack gathers
//! `out[v] = bytes[ordering.position_of(v)]`, so both write their output
//! sequentially and neither zero-fills it first.
//!
//! [`Simulator::run_coloured_locality`]: crate::simulate::Simulator::run_coloured_locality
//!
//! The layer is a *pure view*: draws stay keyed by the **original** player
//! ids (the layout carries `labels[new] = old` into the engine), colour
//! classes are transported verbatim through the permutation (the blocks
//! are those classes, keyed by colour value), and the
//! utility kernels are bitwise-stable under both the byte representation
//! and the relabelling — so trajectories mapped back through the inverse
//! permutation are bit-identical to the unrelabelled engine's. The
//! relabelled-bit-identity proptest harness pins this across all update
//! rules, topologies, worker counts and block sizes.

use crate::dynamics::{sample_index_from_uniform, DynamicsEngine, Scratch};
use crate::parallel::{coloring_for_graph, stream_uniform, tick_stream, STAGE_BUFFERS};
use crate::rules::UpdateRule;
use crate::runtime::{RuntimeConfig, WorkerPool};
use logit_games::{interaction_graph, LocalGame};
use logit_graphs::{bandwidth_of_ordering, rcm_ordering, Coloring, Graph, VertexOrdering};
use std::mem::MaybeUninit;

/// How many players ahead of the revision the byte sweeps issue
/// [`LocalGame::prefetch_frozen_bytes`]. On a [`LocalityLayout`] a class is
/// contiguous and its CSR rows are read in order, which the hardware
/// prefetcher follows by itself. The hint matters for colourings that are
/// not blocked (an engine run on its own labelling): there a class sweep
/// strides the CSR target array by about `num_classes` rows, which defeats
/// the stride prefetcher once the array spills L2, and eight players of
/// lookahead (a few hundred bytes of rows in flight) hide an L3 hit at the
/// per-update cost of the cheapest rule while staying far inside the
/// line-fill-buffer budget. Purely a hint: draws and utilities are
/// untouched, so bit-identity is unaffected.
const PREFETCH_AHEAD: usize = 8;

/// Most entries a [`RevisionTable`] may hold: 2048 thresholds of 8 bytes
/// are 16 KiB, half an L1 data cache. A larger table would miss cache on
/// lookups and lose to direct computation, so past the cap the engine keeps
/// the direct path. Each entry is one `f64` threshold that reproduces the
/// inverse-CDF draw over the rule's `[p0, p1]` exactly, rounding-gap
/// fallback included.
pub const REVISION_TABLE_CAP: usize = 2048;

/// The byte sweep's count-keyed revision table: for every degree present
/// in the game's count graph, every neighbour count `ones ∈ 0..=degree`
/// and both current strategies, the [`draw_threshold`] of the update
/// rule's `[p0, p1]`.
#[derive(Clone, Debug)]
pub(crate) struct RevisionTable {
    /// `start[d]`: the index of key `(d, 0, 0)` in `thresholds`. Entries
    /// for degrees absent from the graph are never read.
    start: Vec<u32>,
    /// Key `(d, ones, current)` lives at `start[d] + 2·ones + current`.
    thresholds: Vec<f64>,
}

impl RevisionTable {
    /// Tabulates `rule` at `beta` over `game`'s count keys; `None` when the
    /// game has no count kernel, the table would exceed
    /// [`REVISION_TABLE_CAP`], or the rule yields a NaN for some key.
    fn build<G: LocalGame, U: UpdateRule>(game: &G, rule: &U, beta: f64) -> Option<Self> {
        let graph = game.count_graph()?;
        // The largest degree alone decides most over-cap graphs, before the
        // histogram (max degree + 1 entries) is allocated.
        if 2 * (graph.max_degree() + 1) > REVISION_TABLE_CAP {
            return None;
        }
        let histogram = graph.degree_histogram();
        let present = || (0..histogram.len()).filter(|&d| histogram[d] > 0);
        if present().map(|d| 2 * (d + 1)).sum::<usize>() > REVISION_TABLE_CAP {
            return None;
        }
        let mut start = vec![0; histogram.len()];
        let mut thresholds = Vec::new();
        let mut utils = [0.0; 2];
        let mut p = Vec::with_capacity(2);
        for degree in present() {
            start[degree] = thresholds.len() as u32;
            for ones in 0..=degree {
                game.utilities_from_count(degree, ones, &mut utils);
                for current in 0..2 {
                    rule.fill_probs(beta, current, &utils, &mut p);
                    if p.iter().any(|x| x.is_nan()) {
                        return None;
                    }
                    thresholds.push(draw_threshold([p[0], p[1]]));
                }
            }
        }
        Some(RevisionTable { start, thresholds })
    }

    /// The threshold of a player with count key `(degree, ones)` currently
    /// playing `current`.
    #[inline]
    fn threshold(&self, degree: usize, ones: usize, current: usize) -> f64 {
        self.thresholds[self.start[degree] as usize + 2 * ones + current]
    }

    /// The new strategy of a player with count key `(degree, ones)`
    /// currently playing `current`, for the uniform variate `u`.
    #[inline]
    fn draw(&self, degree: usize, ones: usize, current: usize, u: f64) -> u8 {
        (u >= self.threshold(degree, ones, current)) as u8
    }
}

/// The threshold `τ` for which `(u >= τ) as usize` equals
/// [`sample_index_from_uniform`]`(&[p0, p1], u)` for every `u ≥ 0`, given
/// that neither probability is NaN. The scan returns 0 exactly when
/// `u < p0`; past `p0 + p1` (the rounding gap) it falls back to the last
/// positive entry, or to index 1 when there is none. So:
/// - `p1 > 0`: every `u ≥ p0` draws 1, so `τ = p0`;
/// - only `p0 > 0`: every `u` draws 0, so `τ = +∞`;
/// - neither positive: every `u ≥ 0` draws 1, so `τ = 0`.
fn draw_threshold([p0, p1]: [f64; 2]) -> f64 {
    if p1 > 0.0 {
        p0
    } else if p0 > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// A locality-first relabelling of a game's players, with everything the
/// engine needs to run on the relabelled instance and map results back.
///
/// Built once per (graph, colouring) pair. The ordering is
/// **colour-blocked**: positions run class by class in colour order, and
/// within each class in reverse Cuthill–McKee order. The colouring is the
/// original one transported through the permutation (colour *values* are
/// preserved, so the class-of-tick cycle — and therefore the revision
/// schedule — replays tick-for-tick), which makes every class one
/// contiguous run of positions.
#[derive(Clone, Debug)]
pub struct LocalityLayout {
    /// new position `k` holds original player `ordering.vertex_at(k)`.
    ordering: VertexOrdering,
    /// `labels[new] = old`: the original id of the player at each new
    /// position, in the `u32` width the engine's draw key-path consumes.
    labels: Vec<u32>,
    /// The original colouring transported through the permutation.
    coloring: Coloring,
    /// Graph bandwidth under the identity (original) labelling.
    bandwidth_before: usize,
    /// Graph bandwidth under the RCM order the blocks are cut from.
    bandwidth_after: usize,
}

impl LocalityLayout {
    /// Computes the colour-blocked RCM layout of `graph` and transports
    /// `coloring` through it. `coloring` must be a colouring of `graph`
    /// (same vertex count).
    ///
    /// # Panics
    /// Panics when the colouring covers a different vertex count, or when
    /// the graph has more than `u32::MAX` vertices (the label array and the
    /// CSR adjacency share that width).
    pub fn from_graph(graph: &Graph, coloring: &Coloring) -> Self {
        let n = graph.num_vertices();
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different vertex count"
        );
        assert!(n <= u32::MAX as usize, "player ids must fit in u32");
        let bandwidth_before = bandwidth_of_ordering(graph, &VertexOrdering::identity(n));
        let rcm = rcm_ordering(graph);
        let bandwidth_after = bandwidth_of_ordering(graph, &rcm);
        let blocked = colour_blocked(&rcm, coloring);
        drop(rcm);
        let ordering = VertexOrdering::new(blocked).expect("bucketing permutes the RCM order");
        let labels = ordering.as_slice().iter().map(|&v| v as u32).collect();
        let coloring = coloring.relabelled(&ordering);
        LocalityLayout {
            ordering,
            labels,
            coloring,
            bandwidth_before,
            bandwidth_after,
        }
    }

    /// The layout of a game's interaction graph under the default colouring
    /// choice ([`coloring_for_graph`]). Returns the layout together with
    /// the graph it was computed from, so callers can build the relabelled
    /// game without bridging the interaction graph a second time.
    pub fn for_game<G: LocalGame>(game: &G) -> (Self, Graph) {
        let graph = interaction_graph(game);
        let coloring = coloring_for_graph(&graph);
        (Self::from_graph(&graph, &coloring), graph)
    }

    /// The colour-blocked ordering: new position `k` holds original player
    /// `ordering.vertex_at(k)`.
    pub fn ordering(&self) -> &VertexOrdering {
        &self.ordering
    }

    /// `labels[new] = old` as `u32`s — the draw-key table the byte engine
    /// paths consume so relabelled players keep their original RNG streams.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The original colouring transported through the permutation.
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }

    /// Graph bandwidth under the original labelling.
    pub fn bandwidth_before(&self) -> usize {
        self.bandwidth_before
    }

    /// Graph bandwidth under the reverse Cuthill–McKee order the layout's
    /// colour blocks are cut from — not under the blocked ordering itself,
    /// where neighbours sit in other classes' blocks. Within each class it
    /// bounds how far apart in RCM rank a player and her neighbours are, so
    /// a class sweep's gathers advance through every other block in step
    /// with the sweep.
    pub fn bandwidth_after(&self) -> usize {
        self.bandwidth_after
    }

    /// `graph` with its vertices renamed along the layout's ordering — the
    /// graph to build the relabelled game from.
    pub fn relabel_graph(&self, graph: &Graph) -> Graph {
        graph.relabelled(&self.ordering)
    }

    /// Packs an original-label `usize` profile into a relabelled byte
    /// profile: `out[k] = original[ordering.vertex_at(k)]`.
    ///
    /// # Panics
    /// Panics when a strategy does not fit in a byte or the lengths differ.
    pub fn pack_profile(&self, original: &[usize], out: &mut Vec<u8>) {
        self.pack(original, out, None);
    }

    /// [`pack_profile`](Self::pack_profile) split into chunks on `pool`,
    /// with the worker count and chunk size the class sweep would use
    /// ([`RuntimeConfig::class_workers`], [`RuntimeConfig::sweep_chunk`]).
    ///
    /// # Panics
    /// As [`pack_profile`](Self::pack_profile), with the same message.
    pub fn pack_profile_pooled(
        &self,
        original: &[usize],
        out: &mut Vec<u8>,
        pool: &WorkerPool,
        config: &RuntimeConfig,
    ) {
        self.pack(original, out, Some((pool, config)));
    }

    fn pack(&self, original: &[usize], out: &mut Vec<u8>, pool: PoolView<'_>) {
        assert_eq!(original.len(), self.labels.len(), "profile length mismatch");
        fill_gathered(out, self.labels.len(), pool, &|k| {
            let s = original[self.labels[k] as usize];
            assert!(s < 256, "strategy {s} does not fit in a byte");
            s as u8
        });
    }

    /// Unpacks a relabelled byte profile back into original labels:
    /// `out[v] = relabelled[ordering.position_of(v)]`.
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn unpack_profile(&self, relabelled: &[u8], out: &mut Vec<usize>) {
        self.unpack(relabelled, out, None);
    }

    /// [`unpack_profile`](Self::unpack_profile) split into chunks on
    /// `pool`, chunked as [`pack_profile_pooled`](Self::pack_profile_pooled).
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn unpack_profile_pooled(
        &self,
        relabelled: &[u8],
        out: &mut Vec<usize>,
        pool: &WorkerPool,
        config: &RuntimeConfig,
    ) {
        self.unpack(relabelled, out, Some((pool, config)));
    }

    fn unpack(&self, relabelled: &[u8], out: &mut Vec<usize>, pool: PoolView<'_>) {
        assert_eq!(
            relabelled.len(),
            self.labels.len(),
            "profile length mismatch"
        );
        fill_gathered(out, self.labels.len(), pool, &|v| {
            relabelled[self.ordering.position_of(v)] as usize
        });
    }
}

/// The vertices of `rcm` regrouped class by class in colour order, each
/// class keeping its RCM order: one counting pass, no sort.
fn colour_blocked(rcm: &VertexOrdering, coloring: &Coloring) -> Vec<usize> {
    let mut cursor: Vec<usize> = coloring
        .classes()
        .scan(0, |start, class| {
            let first = *start;
            *start += class.len();
            Some(first)
        })
        .collect();
    let mut blocked = vec![0; rcm.len()];
    for &v in rcm.as_slice() {
        let slot = &mut cursor[coloring.color_of(v)];
        blocked[*slot] = v;
        *slot += 1;
    }
    blocked
}

/// Where [`fill_gathered`] runs: inline, or on a pool with its runtime
/// configuration.
type PoolView<'a> = Option<(&'a WorkerPool, &'a RuntimeConfig)>;

/// Sets `out` to `[item(0), item(1), …, item(len - 1)]`, writing each slot
/// once and in order within a chunk, with no zero-fill first. With a pool
/// the range is split the way the class sweep splits a class of `len`
/// players; inline it is one chunk.
fn fill_gathered<T, F>(out: &mut Vec<T>, len: usize, pool: PoolView<'_>, item: &F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    out.clear();
    out.reserve(len);
    let fill = |offset: usize, slots: &mut [MaybeUninit<T>]| {
        for (k, slot) in (offset..).zip(slots) {
            slot.write(item(k));
        }
    };
    let slots = &mut out.spare_capacity_mut()[..len];
    match pool {
        Some((pool, config)) => {
            let workers = config.class_workers(len).min(pool.workers() + 1);
            let chunk = config.sweep_chunk(len, workers);
            pool.for_each_chunk(slots, chunk, workers, &|index, part| {
                fill(index * chunk, part)
            });
        }
        None => fill(0, slots),
    }
    // SAFETY: the chunks cover `0..len` and `fill` wrote every slot of each;
    // a panicking `item` unwinds out of this function before this line.
    unsafe { out.set_len(len) };
}

impl<G: LocalGame, U: UpdateRule> DynamicsEngine<G, U> {
    /// The count-keyed revision table of the byte sweeps, built on first
    /// use; `None` when the game declares no count kernel or the table
    /// would exceed [`REVISION_TABLE_CAP`].
    pub(crate) fn revision_table(&self) -> Option<&RevisionTable> {
        self.revision_table
            .get_or_init(|| RevisionTable::build(self.game(), self.rule(), self.beta()))
            .as_ref()
    }

    /// The byte sweeps' direct per-player kernel, for engines without a
    /// revision table: `player`'s new strategy against the byte `profile`
    /// for the uniform variate `u`, from the utilities and an inverse-CDF
    /// scan of the rule's distribution.
    #[inline]
    fn revise_byte(
        &self,
        player: usize,
        profile: &[u8],
        u: f64,
        utils: &mut Vec<f64>,
        probs: &mut Vec<f64>,
    ) -> u8 {
        utils.clear();
        utils.resize(self.game().num_strategies(player), 0.0);
        self.game()
            .utilities_for_frozen_bytes(player, profile, utils);
        self.rule()
            .fill_probs(self.beta(), profile[player] as usize, utils, probs);
        sample_index_from_uniform(probs, u) as u8
    }

    /// One coloured tick on a **byte** strategy profile, sequential: the
    /// players of colour class `t mod num_classes` revise in class order,
    /// through the revision table when the game has one, else utilities
    /// through [`LocalGame::utilities_for_frozen_bytes`].
    ///
    /// `labels`, when present, maps engine positions to **original** player
    /// ids (`labels[position] = original`): every draw is keyed by the
    /// original id, so an engine running on a relabelled game replays the
    /// unrelabelled trajectory bit-for-bit. Pass `None` when the engine's
    /// own labelling is the original one.
    ///
    /// Returns the number of players that moved.
    ///
    /// # Panics
    /// Panics when the game has more than 256 strategies for some player,
    /// or when the colouring covers a different player count.
    pub fn step_coloured_bytes(
        &self,
        coloring: &Coloring,
        t: u64,
        seed: u64,
        labels: Option<&[u32]>,
        profile: &mut [u8],
        scratch: &mut Scratch,
    ) -> usize {
        let players = self.byte_sweep_class(coloring, t, profile);
        let mut staged = take_staged(scratch, players.len());
        let (utils, probs) = scratch.rule_buffers();
        // A colour class is an independent set, so no revising player can
        // observe a same-tick update: staging against the pre-tick profile
        // and committing afterwards is the same as revising in place.
        self.stage_class_bytes_with(
            self.revision_table(),
            players,
            t,
            seed,
            labels,
            profile,
            &mut staged,
            utils,
            probs,
        );
        let moved = commit_staged(players, &staged, profile);
        scratch.staged_bytes = staged;
        moved
    }

    /// The class revising at tick `t`, after the byte sweeps' shared checks.
    fn byte_sweep_class<'c>(&self, coloring: &'c Coloring, t: u64, profile: &[u8]) -> &'c [usize] {
        let n = self.game().num_players();
        assert!(
            self.game().max_strategies() <= 256,
            "byte profiles require at most 256 strategies per player"
        );
        assert_eq!(
            coloring.num_vertices(),
            n,
            "colouring covers a different player count"
        );
        debug_assert_eq!(profile.len(), n);
        coloring.class(coloring.class_of_tick(t))
    }

    /// Samples the new strategies of `players` against the frozen byte
    /// `profile` into `staged` — the per-chunk kernel of both byte sweeps.
    /// Draw keys come from `labels` when present (original player ids),
    /// else the positions themselves; `table` is the engine's revision
    /// table, if it has one. The table decision is made once per chunk, so
    /// each path is its own loop: the table loop is a CSR gather, one
    /// splitmix round and a threshold compare per player.
    #[allow(clippy::too_many_arguments)]
    fn stage_class_bytes_with(
        &self,
        table: Option<&RevisionTable>,
        players: &[usize],
        t: u64,
        seed: u64,
        labels: Option<&[u32]>,
        profile: &[u8],
        staged: &mut [u8],
        utils: &mut Vec<f64>,
        probs: &mut Vec<f64>,
    ) {
        match table {
            Some(table) => self.stage_draws(players, t, seed, labels, staged, |player, u| {
                let (degree, ones) = self.game().count_key_bytes(player, profile);
                table.draw(degree, ones, profile[player] as usize, u)
            }),
            None => self.stage_draws(players, t, seed, labels, staged, |player, u| {
                self.revise_byte(player, profile, u, utils, probs)
            }),
        }
    }

    /// The loop under [`Self::stage_class_bytes_with`]: for every player of
    /// the chunk, prefetch ahead, derive the player's uniform from the
    /// tick's hoisted stream and store `revise(player, u)`.
    #[inline(always)]
    fn stage_draws(
        &self,
        players: &[usize],
        t: u64,
        seed: u64,
        labels: Option<&[u32]>,
        staged: &mut [u8],
        mut revise: impl FnMut(usize, f64) -> u8,
    ) {
        let stream = tick_stream(seed, t);
        for (i, (&player, slot)) in players.iter().zip(staged.iter_mut()).enumerate() {
            if let Some(&ahead) = players.get(i + PREFETCH_AHEAD) {
                self.game().prefetch_frozen_bytes(ahead);
            }
            let key = labels.map_or(player, |l| l[player] as usize);
            *slot = revise(player, stream_uniform(stream, key));
        }
    }
}

/// `scratch`'s staging buffer, taken out and sized for a class of `len`
/// players; put it back after the commit.
fn take_staged(scratch: &mut Scratch, len: usize) -> Vec<u8> {
    let mut staged = std::mem::take(&mut scratch.staged_bytes);
    staged.clear();
    staged.resize(len, 0);
    staged
}

/// Writes a staged class into `profile` and returns how many players
/// moved: the one commit loop of both byte sweeps.
fn commit_staged(players: &[usize], staged: &[u8], profile: &mut [u8]) -> usize {
    let mut moved = 0;
    for (&player, &strategy) in players.iter().zip(staged) {
        moved += (profile[player] != strategy) as usize;
        profile[player] = strategy;
    }
    moved
}

impl<G: LocalGame + Sync, U: UpdateRule> DynamicsEngine<G, U> {
    /// One coloured tick on a byte profile through the persistent
    /// [`WorkerPool`]: the byte counterpart of
    /// [`Self::step_coloured_pooled`], with the same narrow-class inline
    /// fallback, the same cache-blocked chunking
    /// ([`RuntimeConfig::sweep_chunk`]) and the same draw keys — so it is
    /// bit-identical to [`Self::step_coloured_bytes`] from the same
    /// `(seed, t, labels)` regardless of worker count or block size.
    ///
    /// Returns the number of players that moved.
    ///
    /// # Panics
    /// Panics when the game has more than 256 strategies for some player,
    /// or when the colouring covers a different player count.
    #[allow(clippy::too_many_arguments)]
    pub fn step_coloured_pooled_bytes(
        &self,
        coloring: &Coloring,
        t: u64,
        seed: u64,
        labels: Option<&[u32]>,
        profile: &mut [u8],
        scratch: &mut Scratch,
        pool: &WorkerPool,
        config: &RuntimeConfig,
    ) -> usize {
        let players = self.byte_sweep_class(coloring, t, profile);
        let workers = config.class_workers(players.len()).min(pool.workers() + 1);
        if workers <= 1 {
            return self.step_coloured_bytes(coloring, t, seed, labels, profile, scratch);
        }

        let mut staged = take_staged(scratch, players.len());
        let chunk = config.sweep_chunk(players.len(), workers);
        let frozen: &[u8] = profile;
        // Resolved before dispatch, so no worker waits on the first build.
        let table = self.revision_table();
        pool.for_each_chunk(&mut staged, chunk, workers, &|index, out| {
            let start = index * chunk;
            let player_chunk = &players[start..start + out.len()];
            STAGE_BUFFERS.with(|buffers| {
                let (utils, probs) = &mut *buffers.borrow_mut();
                self.stage_class_bytes_with(
                    table,
                    player_chunk,
                    t,
                    seed,
                    labels,
                    frozen,
                    out,
                    utils,
                    probs,
                );
            });
        });

        let moved = commit_staged(players, &staged, profile);
        scratch.staged_bytes = staged;
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LogitDynamics;
    use crate::rules::{Fermi, ImitateBetter, Logit, MetropolisLogit, NoisyBestResponse};
    use logit_games::{CongestionGame, CoordinationGame, GraphicalCoordinationGame, IsingGame};
    use logit_graphs::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn shuffled_circulant(n: usize, k: usize, seed: u64) -> Graph {
        let g = GraphBuilder::circulant(n, k);
        let mut rng = StdRng::seed_from_u64(seed);
        let shuffle = VertexOrdering::random(n, &mut rng);
        g.relabelled(&shuffle)
    }

    #[test]
    fn layout_shrinks_the_bandwidth_of_a_shuffled_circulant() {
        let g = shuffled_circulant(64, 2, 7);
        let coloring = coloring_for_graph(&g);
        let layout = LocalityLayout::from_graph(&g, &coloring);
        assert!(layout.bandwidth_before() > 5, "shuffle left it narrow");
        assert!(
            layout.bandwidth_after() <= 2 * 2 + 1,
            "RCM should recover a near-banded layout, got {}",
            layout.bandwidth_after()
        );
        assert!(layout.bandwidth_after() <= layout.bandwidth_before());
    }

    #[test]
    fn layout_blocks_each_colour_class_in_rcm_order() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for (context, graph) in [
            ("shuffled circulant", shuffled_circulant(90, 3, 5)),
            ("grid", GraphBuilder::grid(7, 9)),
            ("star", GraphBuilder::star(12)),
            ("Erdős–Rényi", GraphBuilder::erdos_renyi(80, 0.06, &mut rng)),
        ] {
            let n = graph.num_vertices();
            let coloring = coloring_for_graph(&graph);
            let layout = LocalityLayout::from_graph(&graph, &coloring);
            let rcm = rcm_ordering(&graph);

            // The classes, in colour order, tile 0..n as contiguous runs.
            let blocked = layout.coloring();
            assert_eq!(blocked.num_classes(), coloring.num_classes(), "{context}");
            let tiled: Vec<usize> = blocked.classes().flatten().copied().collect();
            assert_eq!(tiled, (0..n).collect::<Vec<_>>(), "{context}");

            for c in 0..blocked.num_classes() {
                let originals: Vec<usize> = blocked
                    .class(c)
                    .iter()
                    .map(|&k| layout.ordering().vertex_at(k))
                    .collect();
                // Colour values are transported verbatim ...
                assert!(
                    originals.iter().all(|&v| coloring.color_of(v) == c),
                    "class {c} holds another colour, {context}"
                );
                // ... and within a class, positions follow RCM rank.
                assert!(
                    originals
                        .windows(2)
                        .all(|w| rcm.position_of(w[0]) < rcm.position_of(w[1])),
                    "class {c} leaves RCM order, {context}"
                );
            }
            assert_eq!(
                layout.bandwidth_after(),
                bandwidth_of_ordering(&graph, &rcm),
                "{context}"
            );
            let mut labels: Vec<usize> = layout.labels().iter().map(|&l| l as usize).collect();
            labels.sort_unstable();
            assert_eq!(labels, (0..n).collect::<Vec<_>>(), "{context}");
        }
    }

    #[test]
    fn pack_then_unpack_round_trips_a_profile() {
        let g = shuffled_circulant(40, 2, 11);
        let coloring = coloring_for_graph(&g);
        let layout = LocalityLayout::from_graph(&g, &coloring);
        let original: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let mut packed = Vec::new();
        layout.pack_profile(&original, &mut packed);
        let mut back = Vec::new();
        layout.unpack_profile(&packed, &mut back);
        assert_eq!(back, original);
        // And the packed view really is a permutation of the original.
        for k in 0..40 {
            assert_eq!(packed[k] as usize, original[layout.labels()[k] as usize]);
        }
    }

    #[test]
    fn relabelled_byte_sweep_replays_the_unrelabelled_trajectory() {
        // The core bit-identity claim, exercised on both count-kernel games:
        // the relabelled byte engine (draws keyed by original ids via the
        // label table) must reproduce the unrelabelled usize engine's
        // trajectory exactly after unpacking.
        let n = 48;
        let graph = shuffled_circulant(n, 2, 3);
        let coloring = coloring_for_graph(&graph);
        let layout = LocalityLayout::from_graph(&graph, &coloring);
        let seed = 0xA11CE;
        let beta = 1.25;

        let base = CoordinationGame::from_deltas(2.0, 1.0);
        let coord = GraphicalCoordinationGame::new(graph.clone(), base);
        let relabelled_coord = GraphicalCoordinationGame::new(layout.relabel_graph(&graph), base);
        let ising = IsingGame::new(graph.clone(), 0.75, 0.2);
        let relabelled_ising = IsingGame::new(layout.relabel_graph(&graph), 0.75, 0.2);

        let start: Vec<usize> = (0..n).map(|i| (i / 3) % 2).collect();
        let ticks = 3 * coloring.num_classes() as u64 + 2;

        check_replay(
            LogitDynamics::new(coord, beta),
            LogitDynamics::new(relabelled_coord, beta),
            &coloring,
            &layout,
            &start,
            seed,
            ticks,
        );
        check_replay(
            DynamicsEngine::with_rule(ising, MetropolisLogit, beta),
            DynamicsEngine::with_rule(relabelled_ising, MetropolisLogit, beta),
            &coloring,
            &layout,
            &start,
            seed ^ 0x5EED,
            ticks,
        );
    }

    fn check_replay<G: LocalGame, U: UpdateRule>(
        reference: DynamicsEngine<G, U>,
        relabelled: DynamicsEngine<G, U>,
        coloring: &Coloring,
        layout: &LocalityLayout,
        start: &[usize],
        seed: u64,
        ticks: u64,
    ) {
        let mut ref_profile = start.to_vec();
        let mut ref_scratch = Scratch::for_game(reference.game());
        let mut bytes = Vec::new();
        layout.pack_profile(start, &mut bytes);
        let mut byte_scratch = Scratch::for_game(relabelled.game());
        let mut unpacked = Vec::new();
        for t in 0..ticks {
            let moved_ref =
                reference.step_coloured(coloring, t, seed, &mut ref_profile, &mut ref_scratch);
            let moved_bytes = relabelled.step_coloured_bytes(
                layout.coloring(),
                t,
                seed,
                Some(layout.labels()),
                &mut bytes,
                &mut byte_scratch,
            );
            assert_eq!(moved_ref, moved_bytes, "moved count diverged at t={t}");
            layout.unpack_profile(&bytes, &mut unpacked);
            assert_eq!(unpacked, ref_profile, "trajectory diverged at t={t}");
        }
    }

    #[test]
    fn pooled_byte_sweep_matches_the_sequential_byte_sweep() {
        let n = 40;
        let graph = shuffled_circulant(n, 2, 9);
        let coloring = coloring_for_graph(&graph);
        let layout = LocalityLayout::from_graph(&graph, &coloring);
        let game = IsingGame::new(layout.relabel_graph(&graph), 0.5, 0.1);
        let engine = DynamicsEngine::with_rule(game, NoisyBestResponse::new(0.15), 2.0);
        let seed = 0xB10C;

        let start: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let mut seq = Vec::new();
        layout.pack_profile(&start, &mut seq);
        let mut pooled = seq.clone();
        let mut seq_scratch = Scratch::for_game(engine.game());
        let mut pooled_scratch = Scratch::for_game(engine.game());

        let config = RuntimeConfig {
            workers: 3,
            min_class_size: 1,
            block_players: 4,
            ..RuntimeConfig::default()
        };
        let pool = WorkerPool::new(&config);

        for t in 0..(2 * layout.coloring().num_classes() as u64 + 3) {
            let a = engine.step_coloured_bytes(
                layout.coloring(),
                t,
                seed,
                Some(layout.labels()),
                &mut seq,
                &mut seq_scratch,
            );
            let b = engine.step_coloured_pooled_bytes(
                layout.coloring(),
                t,
                seed,
                Some(layout.labels()),
                &mut pooled,
                &mut pooled_scratch,
                &pool,
                &config,
            );
            assert_eq!(a, b, "moved count diverged at t={t}");
            assert_eq!(seq, pooled, "profiles diverged at t={t}");
        }
    }

    /// Runs the direct usize sweep (`step_coloured`), the sequential byte
    /// sweep and the pooled byte sweep side by side from the same start,
    /// asserting equal moved counts and equal profiles after every tick.
    /// `table` states whether the byte sweeps should be on the revision
    /// table.
    fn check_byte_paths<G: LocalGame + Sync, U: UpdateRule>(
        engine: &DynamicsEngine<G, U>,
        table: bool,
        pool: &WorkerPool,
        config: &RuntimeConfig,
        seed: u64,
    ) {
        assert_eq!(
            engine.revision_table().is_some(),
            table,
            "revision table presence for {} at beta {}",
            engine.rule().name(),
            engine.beta()
        );
        let game = engine.game();
        let coloring = coloring_for_graph(&logit_games::interaction_graph(game));
        let n = game.num_players();
        let mut direct: Vec<usize> = (0..n)
            .map(|i| (i * 7 + seed as usize) % 5 % game.num_strategies(i))
            .collect();
        let mut seq: Vec<u8> = direct.iter().map(|&s| s as u8).collect();
        let mut pooled = seq.clone();
        let mut scratches: [Scratch; 3] = std::array::from_fn(|_| Scratch::for_game(game));
        for t in 0..3 * coloring.num_classes() as u64 + 1 {
            let [a, b, c] = &mut scratches;
            let want = engine.step_coloured(&coloring, t, seed, &mut direct, a);
            let got_seq = engine.step_coloured_bytes(&coloring, t, seed, None, &mut seq, b);
            let got_pooled = engine.step_coloured_pooled_bytes(
                &coloring,
                t,
                seed,
                None,
                &mut pooled,
                c,
                pool,
                config,
            );
            let context = format!(
                "{} at beta {}, n = {n}, t = {t}",
                engine.rule().name(),
                engine.beta()
            );
            assert_eq!(
                (got_seq, got_pooled),
                (want, want),
                "moved counts, {context}"
            );
            assert!(
                direct.iter().zip(&seq).all(|(&d, &s)| d == s as usize),
                "byte sweep left the direct trajectory, {context}"
            );
            assert_eq!(seq, pooled, "pooled byte sweep diverged, {context}");
        }
    }

    /// One rule across both count-kernel games, mixed-degree and regular
    /// topologies and β from uniform noise to frozen.
    fn check_rule_on_count_games<U: UpdateRule>(
        rule: U,
        pool: &WorkerPool,
        config: &RuntimeConfig,
    ) {
        let topologies = [
            GraphBuilder::grid(4, 5),
            GraphBuilder::star(9),
            GraphBuilder::hypercube(4),
            GraphBuilder::clique(7),
            GraphBuilder::circulant(24, 3),
        ];
        for (k, graph) in topologies.iter().enumerate() {
            for (b, &beta) in [0.0, 0.1, 1.5, 40.0, 800.0].iter().enumerate() {
                let seed = 0x7AB1E ^ ((k as u64) << 8) ^ b as u64;
                let coord = GraphicalCoordinationGame::new(
                    graph.clone(),
                    CoordinationGame::from_deltas(2.0, 1.0),
                );
                let coord = DynamicsEngine::with_rule(coord, rule.clone(), beta);
                check_byte_paths(&coord, true, pool, config, seed);
                let ising = IsingGame::new(graph.clone(), 0.8, 0.3);
                let ising = DynamicsEngine::with_rule(ising, rule.clone(), beta);
                check_byte_paths(&ising, true, pool, config, seed ^ 0x15);
            }
        }
    }

    #[test]
    fn revision_table_sweeps_match_the_direct_sweep() {
        let config = RuntimeConfig {
            workers: 2,
            min_class_size: 1,
            block_players: 3,
            ..RuntimeConfig::default()
        };
        let pool = WorkerPool::new(&config);
        check_rule_on_count_games(Logit, &pool, &config);
        check_rule_on_count_games(MetropolisLogit, &pool, &config);
        check_rule_on_count_games(NoisyBestResponse::new(0.15), &pool, &config);
        check_rule_on_count_games(Fermi, &pool, &config);
        check_rule_on_count_games(ImitateBetter::new(0.1), &pool, &config);

        // Both direct-path cases: a game without a count kernel, and a star
        // whose hub degree alone needs more than the cap.
        let congestion = CongestionGame::load_balancing(12, 2, 1.0);
        let congestion = DynamicsEngine::with_rule(congestion, MetropolisLogit, 1.5);
        check_byte_paths(&congestion, false, &pool, &config, 0xC0);
        let star = GraphicalCoordinationGame::new(
            GraphBuilder::star(REVISION_TABLE_CAP / 2 + 1),
            CoordinationGame::from_deltas(2.0, 1.0),
        );
        check_byte_paths(&LogitDynamics::new(star, 1.5), false, &pool, &config, 0x57);
    }

    #[test]
    fn revision_table_holds_every_present_degree_up_to_the_cap() {
        // Two disjoint stars with hubs of degree `a` and `b`: degrees
        // {1, a, b} need 2·2 + 2(a+1) + 2(b+1) entries, while the largest
        // degree alone fits the cap — so only the summed check decides.
        fn two_stars(a: usize, b: usize) -> IsingGame {
            let hub_b = a + 1;
            let edges: Vec<(usize, usize)> = (1..=a)
                .map(|leaf| (0, leaf))
                .chain((1..=b).map(|leaf| (hub_b, hub_b + leaf)))
                .collect();
            IsingGame::new(Graph::from_edges(a + b + 2, &edges), 0.5, 0.1)
        }
        let fits = two_stars(500, 520);
        let table = RevisionTable::build(&fits, &Logit, 1.0).expect("exactly at the cap");
        assert_eq!(table.thresholds.len(), REVISION_TABLE_CAP);
        for (degree, ones, current) in [(1, 1, 0), (500, 0, 1), (520, 520, 1)] {
            let mut utils = [0.0; 2];
            fits.utilities_from_count(degree, ones, &mut utils);
            let mut probs = Vec::new();
            Logit.fill_probs(1.0, current, &utils, &mut probs);
            assert_eq!(
                table.threshold(degree, ones, current).to_bits(),
                draw_threshold([probs[0], probs[1]]).to_bits()
            );
        }
        assert!(RevisionTable::build(&two_stars(500, 521), &Logit, 1.0).is_none());
    }

    /// Counts of what [`check_threshold_draws`] exercised.
    #[derive(Default)]
    struct DrawCoverage {
        /// Keys whose `[p0, p1]` holds an exact zero.
        zero_entries: usize,
        /// Draws whose `u` fell at or past `p0 + p1`, where the scan falls
        /// back to the last positive entry.
        fallbacks: usize,
    }

    /// For every key of `engine`'s table, the threshold draw must pick the
    /// inverse-CDF scan's index at `u` ∈ {0, p0, the floats either side of
    /// p0, p0 + p1, 1 − 2⁻⁵³} and at seeded uniforms (each kept only when
    /// it lies in `[0, 1)`, the range of the engine's draws).
    fn check_threshold_draws<G: LocalGame, U: UpdateRule>(
        engine: &DynamicsEngine<G, U>,
        rng: &mut StdRng,
        coverage: &mut DrawCoverage,
    ) {
        let game = engine.game();
        let table = engine.revision_table().expect("a count game has a table");
        let histogram = game.count_graph().expect("count game").degree_histogram();
        let mut utils = [0.0; 2];
        let mut probs = Vec::new();
        for degree in (0..histogram.len()).filter(|&d| histogram[d] > 0) {
            for ones in 0..=degree {
                game.utilities_from_count(degree, ones, &mut utils);
                for current in 0..2 {
                    engine
                        .rule()
                        .fill_probs(engine.beta(), current, &utils, &mut probs);
                    let (p0, p1) = (probs[0], probs[1]);
                    if p0 == 0.0 || p1 == 0.0 {
                        coverage.zero_entries += 1;
                    }
                    let edges = [
                        0.0,
                        p0,
                        p0.next_down(),
                        p0.next_up(),
                        p0 + p1,
                        1.0 - f64::EPSILON / 2.0,
                    ];
                    let samples: Vec<f64> = (0..8).map(|_| rng.gen()).collect();
                    for u in edges.into_iter().chain(samples) {
                        if !(0.0..1.0).contains(&u) {
                            continue;
                        }
                        if u >= p0 + p1 {
                            coverage.fallbacks += 1;
                        }
                        assert_eq!(
                            table.draw(degree, ones, current, u) as usize,
                            sample_index_from_uniform(&probs, u),
                            "{} at beta {}: key ({degree}, {ones}, {current}), \
                             probs [{p0:e}, {p1:e}], u = {u:e}",
                            engine.rule().name(),
                            engine.beta()
                        );
                    }
                }
            }
        }
    }

    fn check_threshold_draws_for_rule<U: UpdateRule>(rule: U, coverage: &mut DrawCoverage) {
        let mut rng = StdRng::seed_from_u64(0x7E57);
        for graph in [
            GraphBuilder::grid(4, 5),
            GraphBuilder::star(9),
            GraphBuilder::clique(7),
        ] {
            for beta in [0.0, 0.1, 1.5, 40.0, 800.0] {
                let coord = GraphicalCoordinationGame::new(
                    graph.clone(),
                    CoordinationGame::from_deltas(2.0, 1.0),
                );
                let coord = DynamicsEngine::with_rule(coord, rule.clone(), beta);
                check_threshold_draws(&coord, &mut rng, coverage);
                let ising = IsingGame::new(graph.clone(), 0.8, 0.3);
                let ising = DynamicsEngine::with_rule(ising, rule.clone(), beta);
                check_threshold_draws(&ising, &mut rng, coverage);
            }
        }
    }

    #[test]
    fn threshold_draw_matches_the_inverse_cdf_scan() {
        let mut coverage = DrawCoverage::default();
        check_threshold_draws_for_rule(Logit, &mut coverage);
        check_threshold_draws_for_rule(Fermi, &mut coverage);
        let mut zeros = DrawCoverage::default();
        check_threshold_draws_for_rule(MetropolisLogit, &mut zeros);
        check_threshold_draws_for_rule(NoisyBestResponse::new(0.15), &mut zeros);
        check_threshold_draws_for_rule(ImitateBetter::new(0.1), &mut zeros);
        assert!(zeros.zero_entries > 0, "no exact-zero entry was exercised");
        assert!(
            coverage.fallbacks + zeros.fallbacks > 0,
            "no draw landed in the rounding gap"
        );
    }

    /// A layout over `n` players: a label-shuffled circulant, or a lone
    /// vertex when `n = 1`.
    fn layout_of(n: usize) -> LocalityLayout {
        let graph = if n == 1 {
            Graph::from_edges(1, &[])
        } else {
            shuffled_circulant(n, 2, n as u64)
        };
        LocalityLayout::from_graph(&graph, &coloring_for_graph(&graph))
    }

    #[test]
    fn pooled_pack_and_unpack_match_the_serial_ones() {
        for n in [1, 7, 100_000] {
            let layout = layout_of(n);
            let start: Vec<usize> = (0..n).map(|v| (v * 37 + 11) % 256).collect();
            let mut packed = Vec::new();
            layout.pack_profile(&start, &mut packed);
            let mut unpacked = Vec::new();
            layout.unpack_profile(&packed, &mut unpacked);
            assert_eq!(unpacked, start, "serial round trip, n = {n}");
            for workers in 1..=4 {
                for block_players in [0, 1, 3, 4096] {
                    let config = RuntimeConfig {
                        workers,
                        min_class_size: 1,
                        block_players,
                        ..RuntimeConfig::default()
                    };
                    let pool = WorkerPool::new(&config);
                    // Stale contents must be replaced, not appended to.
                    let mut pooled_packed = vec![9; 5];
                    layout.pack_profile_pooled(&start, &mut pooled_packed, &pool, &config);
                    let mut pooled_unpacked = vec![9; 5];
                    layout.unpack_profile_pooled(&packed, &mut pooled_unpacked, &pool, &config);
                    let context = format!("n = {n}, {workers} workers, block {block_players}");
                    assert_eq!(pooled_packed, packed, "pack, {context}");
                    assert_eq!(pooled_unpacked, start, "unpack, {context}");
                    if workers > 1 && n > 1 {
                        assert_eq!(pool.dispatches(), 2, "both ran on the pool, {context}");
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_pack_panics_like_the_serial_pack_on_a_wide_strategy() {
        let n = 10_000;
        let layout = layout_of(n);
        let mut start = vec![1; n];
        start[n / 2] = 256;
        let message = |pack: &dyn Fn()| -> String {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(pack))
                .expect_err("the pack must panic");
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("a formatted panic message")
        };
        let config = RuntimeConfig {
            workers: 2,
            min_class_size: 1,
            block_players: 64,
            ..RuntimeConfig::default()
        };
        let pool = WorkerPool::new(&config);
        let serial = message(&|| layout.pack_profile(&start, &mut Vec::new()));
        let pooled =
            message(&|| layout.pack_profile_pooled(&start, &mut Vec::new(), &pool, &config));
        assert_eq!(pool.dispatches(), 1, "the pack ran on the pool");
        assert_eq!(serial, "strategy 256 does not fit in a byte");
        assert_eq!(pooled, serial);
    }

    /// Runs `ticks` coloured ticks of the unrelabelled `reference` engine
    /// with `step_coloured`, and the whole run of the relabelled engine
    /// through `run_coloured_locality` at 1 and 3 workers; both must agree
    /// on the final profile and the moved count.
    fn check_locality_run<G: LocalGame + Sync, U: UpdateRule>(
        reference: &DynamicsEngine<G, U>,
        relabelled: &DynamicsEngine<G, U>,
        coloring: &Coloring,
        layout: &LocalityLayout,
        start: &[usize],
        seed: u64,
    ) {
        let ticks = 2 * coloring.num_classes() as u64 + 1;
        let mut want = start.to_vec();
        let mut scratch = Scratch::for_game(reference.game());
        let want_moved: usize = (0..ticks)
            .map(|t| reference.step_coloured(coloring, t, seed, &mut want, &mut scratch))
            .sum();
        assert!(want_moved > 0, "{}: nothing moved", reference.rule().name());
        for workers in [1, 3] {
            let config = RuntimeConfig {
                workers,
                min_class_size: 1,
                block_players: 100,
                ..RuntimeConfig::default()
            };
            let sim = crate::simulate::Simulator::with_runtime(seed, 1, config);
            let (got, moved) = sim.run_coloured_locality(relabelled, layout, start, ticks);
            let context = format!("{}, {workers} workers", reference.rule().name());
            assert_eq!(moved, want_moved, "moved count, {context}");
            assert!(got == want, "final profile, {context}");
        }
    }

    #[test]
    fn run_coloured_locality_replays_the_unrelabelled_sweep() {
        // The two count-kernel games run the table loop.
        let n = 5_000;
        let graph = shuffled_circulant(n, 3, 17);
        let coloring = coloring_for_graph(&graph);
        let layout = LocalityLayout::from_graph(&graph, &coloring);
        let relabelled_graph = layout.relabel_graph(&graph);
        let start: Vec<usize> = (0..n).map(|v| (v * 7 / 3) % 2).collect();
        let base = CoordinationGame::from_deltas(2.0, 1.0);
        check_locality_run(
            &LogitDynamics::new(GraphicalCoordinationGame::new(graph.clone(), base), 0.1),
            &LogitDynamics::new(
                GraphicalCoordinationGame::new(relabelled_graph.clone(), base),
                0.1,
            ),
            &coloring,
            &layout,
            &start,
            0x5EED_10CA,
        );
        check_locality_run(
            &DynamicsEngine::with_rule(IsingGame::new(graph, 0.6, 0.1), MetropolisLogit, 0.4),
            &DynamicsEngine::with_rule(
                IsingGame::new(relabelled_graph, 0.6, 0.1),
                MetropolisLogit,
                0.4,
            ),
            &coloring,
            &layout,
            &start,
            0x15_1A6,
        );

        // A congestion game has no count kernel, so it runs the direct
        // loop. Player `p` of a label-shuffled ring picks resource `p` or
        // `p + 1`, which makes its interaction graph a ring too.
        let n = 300;
        let mut rng = StdRng::seed_from_u64(0xC0C0);
        let shuffle = VertexOrdering::random(n, &mut rng);
        let ring_game = |player_at: &dyn Fn(usize) -> usize| {
            let delays = (0..n)
                .map(|r| (1..=n).map(|k| (k * (r % 3 + 1)) as f64).collect())
                .collect();
            let strategies = (0..n)
                .map(|i| {
                    let p = player_at(i);
                    vec![vec![p], vec![(p + 1) % n]]
                })
                .collect();
            CongestionGame::new(delays, strategies)
        };
        let congestion = ring_game(&|i| shuffle.position_of(i));
        let (layout, graph) = LocalityLayout::for_game(&congestion);
        let relabelled = ring_game(&|k| shuffle.position_of(layout.ordering().vertex_at(k)));
        let coloring = coloring_for_graph(&graph);
        let start: Vec<usize> = (0..n).map(|v| v % 3 % 2).collect();
        check_locality_run(
            &DynamicsEngine::with_rule(congestion, Logit, 0.8),
            &DynamicsEngine::with_rule(relabelled, Logit, 0.8),
            &coloring,
            &layout,
            &start,
            0xC0_57,
        );
    }
}
