//! Standard graph topologies.
//!
//! The paper's Section 5 studies graphical coordination games on a general graph
//! (Theorem 5.1, parameterised by cutwidth), on the clique (Theorem 5.5) and on
//! the ring (Theorems 5.6–5.7). The experiment harness sweeps over these plus a
//! handful of other classic topologies with known or easily-computed cutwidths.

use crate::graph::Graph;
use rand::Rng;

/// `rows × cols` for the `kind` lattice constructor, panicking with its size
/// precondition when the product overflows `usize`.
fn lattice_size(kind: &str, rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols)
        .unwrap_or_else(|| panic!("{kind} size {rows}x{cols} overflows usize"))
}

/// Factory for the standard topologies used in the experiments.
///
/// All constructors return simple undirected graphs on vertices `0..n`.
pub struct GraphBuilder;

impl GraphBuilder {
    /// Path `0 - 1 - ... - (n-1)`.
    pub fn path(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    /// Ring (cycle) on `n ≥ 3` vertices.
    ///
    /// # Panics
    /// Panics for `n < 3` (a cycle needs at least three vertices to be simple).
    pub fn ring(n: usize) -> Graph {
        assert!(n >= 3, "a ring needs at least 3 vertices, got {n}");
        let mut g = Self::path(n);
        g.add_edge(n - 1, 0);
        g
    }

    /// Complete graph (clique) on `n` vertices.
    pub fn clique(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Star with centre `0` and `n - 1` leaves.
    pub fn star(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge(0, v);
        }
        g
    }

    /// `rows × cols` grid graph (4-neighbour lattice).
    ///
    /// # Panics
    /// Panics when `rows × cols` overflows `usize`.
    pub fn grid(rows: usize, cols: usize) -> Graph {
        let n = lattice_size("grid", rows, cols);
        let mut g = Graph::new(n);
        let idx = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    g.add_edge(idx(r, c), idx(r, c + 1));
                }
                if r + 1 < rows {
                    g.add_edge(idx(r, c), idx(r + 1, c));
                }
            }
        }
        g
    }

    /// `rows × cols` torus (grid with wrap-around), requires `rows, cols ≥ 3`
    /// so that wrap-around edges are neither self-loops nor duplicates.
    ///
    /// # Panics
    /// Panics when a dimension is below 3 or `rows × cols` overflows `usize`.
    pub fn torus(rows: usize, cols: usize) -> Graph {
        assert!(
            rows >= 3 && cols >= 3,
            "torus requires both dimensions >= 3, got {rows}x{cols}"
        );
        lattice_size("torus", rows, cols);
        let mut g = Self::grid(rows, cols);
        let idx = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            g.add_edge(idx(r, cols - 1), idx(r, 0));
        }
        for c in 0..cols {
            g.add_edge(idx(rows - 1, c), idx(0, c));
        }
        g
    }

    /// Hypercube on `2^d` vertices; vertices are adjacent when their indices
    /// differ in exactly one bit.
    ///
    /// # Panics
    /// Panics when `2^d` overflows `usize` (`d ≥ usize::BITS`).
    pub fn hypercube(d: usize) -> Graph {
        let n = u32::try_from(d)
            .ok()
            .and_then(|shift| 1usize.checked_shl(shift))
            .unwrap_or_else(|| panic!("hypercube size 2^{d} overflows usize"));
        let mut g = Graph::new(n);
        for u in 0..n {
            for b in 0..d {
                let v = u ^ (1 << b);
                if u < v {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Complete bipartite graph `K_{a,b}`; the first `a` vertices form one side.
    ///
    /// # Panics
    /// Panics when `a + b` overflows `usize`.
    pub fn complete_bipartite(a: usize, b: usize) -> Graph {
        let n = a
            .checked_add(b)
            .unwrap_or_else(|| panic!("complete bipartite size {a} + {b} overflows usize"));
        let mut g = Graph::new(n);
        for u in 0..a {
            for v in 0..b {
                g.add_edge(u, a + v);
            }
        }
        g
    }

    /// Complete binary tree with `n` vertices in heap order
    /// (vertex `i` has children `2i+1` and `2i+2`).
    pub fn binary_tree(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(i, (i - 1) / 2);
        }
        g
    }

    /// Circulant graph: a ring where every vertex is also joined to its `k`
    /// nearest neighbours on each side (degree `2k`, so `min(2k, n - 1)`
    /// when the windows wrap into each other).
    ///
    /// The dense-degree regular topology of the coloured-revision
    /// benchmarks: any `k + 1` consecutive vertices form a clique, so
    /// `χ ≥ k + 1`, while greedy colouring stays within `Δ + 1 = 2k + 1` —
    /// colour classes of size `≈ n / (k + 1)`.
    ///
    /// # Panics
    /// Panics for `k < 1` or `n < 2k + 1` (the windows must not cover the
    /// whole ring), and when the edge count `n × k` overflows `usize`.
    pub fn circulant(n: usize, k: usize) -> Graph {
        assert!(k >= 1, "circulant needs at least one neighbour per side");
        assert!(
            k.checked_mul(2).is_some_and(|two_k| n > two_k),
            "circulant needs n >= 2k + 1, got n = {n}, k = {k}"
        );
        let edge_count = n
            .checked_mul(k)
            .unwrap_or_else(|| panic!("circulant edge count {n} x {k} overflows usize"));
        let mut edges = Vec::with_capacity(edge_count);
        for u in 0..n {
            for d in 1..=k {
                edges.push((u, (u + d) % n));
            }
        }
        Graph::from_edges(n, &edges)
    }

    /// Erdős–Rényi random graph `G(n, p)`.
    pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// A connected Erdős–Rényi sample: draws `G(n, p)` repeatedly (up to
    /// `max_attempts`) until a connected graph is found, otherwise connects the
    /// components with a spanning path and returns the result.
    pub fn connected_erdos_renyi<R: Rng + ?Sized>(
        n: usize,
        p: f64,
        rng: &mut R,
        max_attempts: usize,
    ) -> Graph {
        for _ in 0..max_attempts {
            let g = Self::erdos_renyi(n, p, rng);
            if crate::traversal::is_connected(&g) {
                return g;
            }
        }
        let mut g = Self::erdos_renyi(n, p, rng);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_properties() {
        let g = GraphBuilder::path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(is_connected(&g));
    }

    #[test]
    fn ring_is_2_regular() {
        let g = GraphBuilder::ring(6);
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_regular(2));
        assert!(g.has_edge(5, 0));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn ring_too_small_panics() {
        let _ = GraphBuilder::ring(2);
    }

    #[test]
    fn clique_edge_count() {
        for n in 1..8 {
            let g = GraphBuilder::clique(n);
            assert_eq!(g.num_edges(), n * (n - 1) / 2);
            if n > 1 {
                assert!(g.is_regular(n - 1));
            }
        }
    }

    #[test]
    fn star_degrees() {
        let g = GraphBuilder::star(7);
        assert_eq!(g.degree(0), 6);
        for v in 1..7 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn grid_and_torus_edge_counts() {
        let g = GraphBuilder::grid(3, 4);
        // 3*3 horizontal + 2*4 vertical = 9 + 8 = 17
        assert_eq!(g.num_edges(), 17);
        let t = GraphBuilder::torus(3, 4);
        // torus on r x c has 2*r*c edges
        assert_eq!(t.num_edges(), 24);
        assert!(t.is_regular(4));
    }

    #[test]
    fn hypercube_is_d_regular() {
        for d in 1..5 {
            let g = GraphBuilder::hypercube(d);
            assert_eq!(g.num_vertices(), 1 << d);
            assert!(g.is_regular(d));
            assert_eq!(g.num_edges(), d * (1 << d) / 2);
        }
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = GraphBuilder::complete_bipartite(3, 4);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 12);
        assert!(!g.has_edge(0, 1)); // same side
        assert!(g.has_edge(0, 3));
    }

    #[test]
    fn binary_tree_is_tree() {
        let g = GraphBuilder::binary_tree(10);
        assert_eq!(g.num_edges(), 9);
        assert!(is_connected(&g));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(4, 9));
    }

    #[test]
    fn circulant_is_2k_regular_with_clique_windows() {
        let g = GraphBuilder::circulant(12, 3);
        assert!(g.is_regular(6));
        assert_eq!(g.num_edges(), 12 * 3);
        assert!(is_connected(&g));
        // Any k + 1 consecutive vertices form a clique.
        for base in 0..12 {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    assert!(g.has_edge((base + a) % 12, (base + b) % 12));
                }
            }
        }
        // k = 1 degenerates to the plain ring.
        let ring = GraphBuilder::circulant(7, 1);
        assert_eq!(ring.num_edges(), 7);
        assert!(ring.is_regular(2));
    }

    #[test]
    #[should_panic(expected = "n >= 2k + 1")]
    fn circulant_window_overlap_rejected() {
        let _ = GraphBuilder::circulant(6, 3);
    }

    // Oversized topologies must panic with the constructor's documented
    // precondition in release builds too, where unchecked arithmetic would
    // wrap to a small size and allocate until the process aborts.

    #[test]
    #[should_panic(expected = "circulant needs n >= 2k + 1")]
    fn circulant_window_overflow_rejected() {
        let _ = GraphBuilder::circulant(10, 1 << 63);
    }

    #[test]
    #[should_panic(expected = "circulant edge count")]
    fn circulant_edge_count_overflow_rejected() {
        let _ = GraphBuilder::circulant(usize::MAX, 1 << 40);
    }

    #[test]
    #[should_panic(expected = "grid size")]
    fn grid_size_overflow_rejected() {
        let _ = GraphBuilder::grid(1 << 33, 1 << 33);
    }

    #[test]
    #[should_panic(expected = "torus size")]
    fn torus_size_overflow_rejected() {
        let _ = GraphBuilder::torus(1 << 33, 1 << 33);
    }

    #[test]
    #[should_panic(expected = "hypercube size 2^")]
    fn hypercube_size_overflow_rejected() {
        let _ = GraphBuilder::hypercube(usize::BITS as usize);
    }

    #[test]
    #[should_panic(expected = "complete bipartite size")]
    fn complete_bipartite_size_overflow_rejected() {
        let _ = GraphBuilder::complete_bipartite(usize::MAX, 1);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = GraphBuilder::erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.num_edges(), 0);
        let full = GraphBuilder::erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(full.num_edges(), 45);
    }

    #[test]
    fn connected_erdos_renyi_is_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let g = GraphBuilder::connected_erdos_renyi(12, 0.15, &mut rng, 50);
            assert!(is_connected(&g));
        }
    }
}
