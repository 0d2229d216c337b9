//! Undirected simple graphs with adjacency-list storage.

use std::collections::BTreeSet;
use std::fmt;

/// An undirected simple graph on vertices `0..n`.
///
/// Self-loops and parallel edges are rejected: a graphical coordination game
/// pairs distinct players and plays each basic game once per edge.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    /// Sorted adjacency lists.
    adj: Vec<Vec<usize>>,
    /// Edge list with `u < v`, kept sorted for deterministic iteration.
    edges: BTreeSet<(usize, usize)>,
}

impl Graph {
    /// Creates an empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            adj: vec![Vec::new(); n],
            edges: BTreeSet::new(),
        }
    }

    /// Creates a graph on `n` vertices from an edge list.
    ///
    /// Bulk construction: adjacency lists are sorted once at the end rather
    /// than per insertion, so dense-degree graphs (the coloured-revision
    /// benchmarks use circulants with hundreds of neighbours per vertex)
    /// build in `O(m log m)` instead of `O(m·Δ log Δ)`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or self-loops. Duplicate edges are ignored.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Self::new(n);
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range");
            assert_ne!(u, v, "self-loops are not allowed");
            let key = (u.min(v), u.max(v));
            if g.edges.insert(key) {
                g.adj[u].push(v);
                g.adj[v].push(u);
            }
        }
        for adj in &mut g.adj {
            adj.sort_unstable();
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`. Returns `true` when the edge was new.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or on a self-loop.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        let key = (u.min(v), u.max(v));
        if self.edges.insert(key) {
            self.adj[u].push(v);
            self.adj[v].push(u);
            self.adj[u].sort_unstable();
            self.adj[v].sort_unstable();
            true
        } else {
            false
        }
    }

    /// Returns `true` when `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u == v || u >= self.n || v >= self.n {
            return false;
        }
        self.edges.contains(&(u.min(v), u.max(v)))
    }

    /// Neighbours of `u`, sorted ascending.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Iterator over edges as `(u, v)` with `u < v`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Vertex iterator `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = usize> {
        0..self.n
    }

    /// Returns the subgraph induced by `vertices`, together with the mapping from
    /// new indices to original vertex ids.
    pub fn induced_subgraph(&self, vertices: &[usize]) -> (Graph, Vec<usize>) {
        let keep: Vec<usize> = {
            let mut v: Vec<usize> = vertices.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        };
        let index_of = |x: usize| keep.binary_search(&x).ok();
        let mut g = Graph::new(keep.len());
        for &(u, v) in &self.edges {
            if let (Some(iu), Some(iv)) = (index_of(u), index_of(v)) {
                g.add_edge(iu, iv);
            }
        }
        (g, keep)
    }

    /// Number of edges with exactly one endpoint in `set`.
    pub fn cut_size(&self, set: &[bool]) -> usize {
        assert_eq!(set.len(), self.n, "cut_size: indicator length mismatch");
        self.edges
            .iter()
            .filter(|&&(u, v)| set[u] != set[v])
            .count()
    }

    /// Returns `true` when the graph is `k`-regular.
    pub fn is_regular(&self, k: usize) -> bool {
        (0..self.n).all(|u| self.degree(u) == k)
    }

    /// Density: `|E| / (n choose 2)`. Returns 0 for graphs with fewer than two vertices.
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let max = self.n * (self.n - 1) / 2;
        self.num_edges() as f64 / max as f64
    }

    /// The degree histogram: `hist[d]` is the number of vertices of degree
    /// `d`, with `hist.len() == max_degree() + 1` (a single `[n]` entry for
    /// edgeless graphs, empty for the empty graph). Summarises how skewed
    /// the neighbourhood sizes are — the locality bench rows report it
    /// alongside pre/post-relabelling bandwidth.
    pub fn degree_histogram(&self) -> Vec<usize> {
        if self.n == 0 {
            return Vec::new();
        }
        let mut hist = vec![0usize; self.max_degree() + 1];
        for u in 0..self.n {
            hist[self.degree(u)] += 1;
        }
        hist
    }

    /// The isomorphic graph with vertex `v` renamed to
    /// `ordering.position_of(v)` — the permutation layer under the
    /// bandwidth-minimising relabelling (`crate::relabel`): relabel with an
    /// RCM ordering, freeze to CSR, and a sweep in new-label order touches
    /// near-contiguous neighbourhoods.
    ///
    /// Construction gathers: row `k` is the old row of
    /// `ordering.vertex_at(k)` mapped through `position_of` and sorted, so
    /// only rows are sorted and each row is written once, in order. The
    /// edge set is read off the rows as `(k, v)` with `v > k`, already in
    /// lexicographic order, and bulk-loads the `BTreeSet` — relabelling a
    /// `10⁷`-vertex bench instance happens on the measurement path.
    ///
    /// # Panics
    /// Panics when the ordering covers a different vertex count.
    pub fn relabelled(&self, ordering: &crate::ordering::VertexOrdering) -> Graph {
        assert_eq!(
            ordering.len(),
            self.n,
            "ordering covers a different vertex count"
        );
        let adj: Vec<Vec<usize>> = (0..self.n)
            .map(|k| {
                let mut row: Vec<usize> = self.adj[ordering.vertex_at(k)]
                    .iter()
                    .map(|&v| ordering.position_of(v))
                    .collect();
                row.sort_unstable();
                row
            })
            .collect();
        let edges = adj
            .iter()
            .enumerate()
            .flat_map(|(k, row)| {
                let above = row.partition_point(|&v| v < k);
                row[above..].iter().map(move |&v| (k, v))
            })
            .collect();
        Graph {
            n: self.n,
            adj,
            edges,
        }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, edges={:?})",
            self.n,
            self.num_edges(),
            self.edges
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn add_edge_dedup_and_symmetry() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0)); // duplicate in the other direction
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(0, 2);
    }

    #[test]
    fn from_edges_and_degrees() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_regular(2));
        assert_eq!(g.max_degree(), 2);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let (sub, map) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2); // 0-1 and 1-2
        assert_eq!(map, vec![0, 1, 2]);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn cut_size_counts_crossing_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        // Split {0,1} vs {2,3}: crossing edges 1-2 and 3-0.
        let set = vec![true, true, false, false];
        assert_eq!(g.cut_size(&set), 2);
        // Whole graph on one side: no crossing edges.
        assert_eq!(g.cut_size(&[true; 4]), 0);
    }

    #[test]
    fn degree_histogram_counts_vertices_per_degree() {
        // Star on 4 vertices: one hub of degree 3, three leaves of degree 1.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree_histogram(), vec![0, 3, 0, 1]);
        assert_eq!(Graph::new(3).degree_histogram(), vec![3]);
        assert_eq!(Graph::new(0).degree_histogram(), Vec::<usize>::new());
        let ring = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(ring.degree_histogram(), vec![0, 0, 5]);
    }

    #[test]
    fn relabelled_is_isomorphic_under_the_permutation() {
        use crate::ordering::VertexOrdering;
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let ordering = VertexOrdering::new(vec![4, 2, 0, 3, 1]).unwrap();
        let r = g.relabelled(&ordering);
        assert_eq!(r.num_vertices(), 5);
        assert_eq!(r.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(
                r.has_edge(ordering.position_of(u), ordering.position_of(v)),
                "edge ({u},{v}) lost under relabelling"
            );
        }
        // Degrees are carried over vertexwise.
        for v in 0..5 {
            assert_eq!(r.degree(ordering.position_of(v)), g.degree(v));
        }
        // Identity is a no-op, and adjacency rows stay sorted.
        assert_eq!(g.relabelled(&VertexOrdering::identity(5)), g);
        for v in 0..5 {
            assert!(r.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The edge-sort construction `relabelled` replaced: map every edge,
    /// sort the whole edge list, push it into rows and sort each row. Kept
    /// as the oracle of the gather construction.
    fn relabelled_by_edge_sort(g: &Graph, ordering: &crate::ordering::VertexOrdering) -> Graph {
        let mut mapped: Vec<(usize, usize)> = g
            .edges
            .iter()
            .map(|&(u, v)| {
                let (a, b) = (ordering.position_of(u), ordering.position_of(v));
                (a.min(b), a.max(b))
            })
            .collect();
        mapped.sort_unstable();
        let mut adj = vec![Vec::new(); g.n];
        for &(u, v) in &mapped {
            adj[u].push(v);
            adj[v].push(u);
        }
        for row in &mut adj {
            row.sort_unstable();
        }
        Graph {
            n: g.n,
            adj,
            edges: mapped.into_iter().collect(),
        }
    }

    #[test]
    fn relabelled_equals_the_edge_sort_construction() {
        use crate::builders::GraphBuilder;
        use crate::ordering::VertexOrdering;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x6A7E);
        let mut graphs = vec![Graph::new(1), Graph::new(6)];
        for (n, p) in [(2, 1.0), (9, 0.3), (40, 0.1), (40, 0.6), (150, 0.05)] {
            for _ in 0..3 {
                graphs.push(GraphBuilder::erdos_renyi(n, p, &mut rng));
            }
        }
        for g in &graphs {
            let n = g.num_vertices();
            let mut orderings = vec![VertexOrdering::identity(n)];
            orderings.extend((0..4).map(|_| VertexOrdering::random(n, &mut rng)));
            for ordering in &orderings {
                assert!(
                    g.relabelled(ordering) == relabelled_by_edge_sort(g, ordering),
                    "gather relabel differs on {g:?} under {ordering:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "different vertex count")]
    fn relabelled_rejects_mismatched_ordering() {
        use crate::ordering::VertexOrdering;
        let g = Graph::from_edges(3, &[(0, 1)]);
        let _ = g.relabelled(&VertexOrdering::identity(2));
    }

    #[test]
    fn density_of_complete_graph_is_one() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!((g.density() - 1.0).abs() < 1e-12);
        assert_eq!(Graph::new(1).density(), 0.0);
    }
}
