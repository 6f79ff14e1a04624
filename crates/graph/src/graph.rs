//! The labeled graph type and the dense adjacency matrix.

use std::fmt;

/// A node identifier. Following the paper, IDs are the integers `1..=n` and
/// `v_i` denotes the node with `ID(v_i) = i`.
pub type NodeId = u32;

/// A simple undirected graph on nodes `{1..n}` with sorted adjacency lists.
///
/// Invariants (checked by constructors): no self-loops, no parallel edges,
/// symmetric adjacency, neighbor lists sorted ascending.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    adj: Vec<Vec<NodeId>>,
}

impl Graph {
    /// The empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    /// Build from an edge list in `O(n + m log Δ)`: count each row, fill it,
    /// then sort and dedup it. Duplicate edges (in either orientation) are
    /// merged; panics on self-loops or out-of-range endpoints, with the
    /// messages of [`Self::add_edge`].
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut degree = vec![0usize; n];
        for &(u, v) in edges {
            check_edge(n, u, v);
            degree[u as usize - 1] += 1;
            degree[v as usize - 1] += 1;
        }
        let mut adj: Vec<Vec<NodeId>> = degree.into_iter().map(Vec::with_capacity).collect();
        for &(u, v) in edges {
            adj[u as usize - 1].push(v);
            adj[v as usize - 1].push(u);
        }
        for row in &mut adj {
            row.sort_unstable();
            row.dedup();
        }
        Graph { n, adj }
    }

    /// Insert edge `{u, v}` (no-op if already present). Panics on self-loops or
    /// out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        check_edge(self.n, u, v);
        let (ui, vi) = (u as usize - 1, v as usize - 1);
        if let Err(pos) = self.adj[ui].binary_search(&v) {
            self.adj[ui].insert(pos, v);
            let pos2 = self.adj[vi].binary_search(&u).unwrap_err();
            self.adj[vi].insert(pos2, u);
        }
    }

    /// Remove edge `{u, v}` if present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        let (ui, vi) = (u as usize - 1, v as usize - 1);
        if let Ok(pos) = self.adj[ui].binary_search(&v) {
            self.adj[ui].remove(pos);
            let pos2 = self.adj[vi].binary_search(&u).unwrap();
            self.adj[vi].remove(pos2);
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// All node IDs, `1..=n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        1..=self.n as NodeId
    }

    /// Sorted neighbor IDs of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v as usize - 1]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize - 1].len()
    }

    /// Maximum degree (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|a| a.len()).max().unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u as usize - 1].binary_search(&v).is_ok()
    }

    /// All edges `(u, v)` with `u < v`, lexicographic.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(i, a)| {
            let u = i as NodeId + 1;
            a.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// If every node has the same degree, return it.
    pub fn regular_degree(&self) -> Option<usize> {
        let d0 = self.adj.first()?.len();
        self.adj.iter().all(|a| a.len() == d0).then_some(d0)
    }

    /// The complement graph (same node set, inverted non-diagonal adjacency).
    pub fn complement(&self) -> Graph {
        let mut g = Graph::empty(self.n);
        for u in 1..=self.n as NodeId {
            for v in (u + 1)..=self.n as NodeId {
                if !self.has_edge(u, v) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Disjoint union: `other`'s node `i` becomes `self.n + i`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let mut g = self.clone();
        g.n += other.n;
        g.adj.extend(
            other
                .adj
                .iter()
                .map(|a| a.iter().map(|&v| v + self.n as NodeId).collect::<Vec<_>>()),
        );
        g
    }

    /// Extend with one fresh node with ID `n+1`, adjacent to `attach`.
    ///
    /// This is the gadget step of the paper's reductions (e.g. the `G'_{s,t}`
    /// construction of Fig. 1 attaches `v_{n+1}` to `{v_s, v_t}`).
    pub fn with_extra_node(&self, attach: &[NodeId]) -> Graph {
        let mut g = self.clone();
        g.n += 1;
        g.adj.push(Vec::new());
        let x = g.n as NodeId;
        for &u in attach {
            g.add_edge(u, x);
        }
        g
    }

    /// Apply a relabeling: node `i` gets new ID `perm[i-1]` (a permutation of
    /// `1..=n`).
    pub fn relabel(&self, perm: &[NodeId]) -> Graph {
        assert_eq!(perm.len(), self.n);
        let mut g = Graph::empty(self.n);
        for (u, v) in self.edges() {
            g.add_edge(perm[u as usize - 1], perm[v as usize - 1]);
        }
        g
    }

    /// Restriction to the first `k` nodes (the SUBGRAPH_f target): edges with
    /// both endpoints in `{v_1..v_k}`, returned as a graph on `k` nodes.
    pub fn induced_prefix(&self, k: usize) -> Graph {
        let mut g = Graph::empty(k.min(self.n));
        for (u, v) in self.edges() {
            if (u as usize) <= k && (v as usize) <= k {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Dense adjacency-matrix view (the BUILD output format).
    pub fn adjacency_matrix(&self) -> AdjMatrix {
        let mut m = AdjMatrix::new(self.n);
        for (u, v) in self.edges() {
            m.set(u, v);
        }
        m
    }
}

/// Panic unless `{u, v}` is a legal edge of a graph on `1..=n`.
fn check_edge(n: usize, u: NodeId, v: NodeId) {
    assert!(u != v, "self-loop at {u}");
    assert!(
        (1..=n as NodeId).contains(&u) && (1..=n as NodeId).contains(&v),
        "edge ({u},{v}) out of range 1..={n}"
    );
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={}, edges=[", self.n, self.m())?;
        for (i, (u, v)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if i >= 40 {
                write!(f, "…")?;
                break;
            }
            write!(f, "{u}-{v}")?;
        }
        write!(f, "])")
    }
}

/// A dense symmetric adjacency matrix over nodes `{1..n}` — the output type of
/// the BUILD problem ("computing the adjacency matrix of a graph").
#[derive(Clone, PartialEq, Eq)]
pub struct AdjMatrix {
    n: usize,
    bits: Vec<u64>,
}

impl AdjMatrix {
    /// All-zero matrix.
    pub fn new(n: usize) -> Self {
        AdjMatrix {
            n,
            bits: vec![0; (n * n + 63) / 64],
        }
    }

    /// Matrix size.
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, u: NodeId, v: NodeId) -> usize {
        debug_assert!(u >= 1 && v >= 1 && u as usize <= self.n && v as usize <= self.n);
        (u as usize - 1) * self.n + (v as usize - 1)
    }

    /// Set `{u,v}` (symmetric).
    pub fn set(&mut self, u: NodeId, v: NodeId) {
        let (a, b) = (self.idx(u, v), self.idx(v, u));
        self.bits[a / 64] |= 1 << (a % 64);
        self.bits[b / 64] |= 1 << (b % 64);
    }

    /// Whether `{u,v}` is set.
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> bool {
        let a = self.idx(u, v);
        self.bits[a / 64] >> (a % 64) & 1 == 1
    }

    /// Convert back to a [`Graph`].
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::empty(self.n);
        for u in 1..=self.n as NodeId {
            for v in (u + 1)..=self.n as NodeId {
                if self.get(u, v) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }
}

impl fmt::Debug for AdjMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "AdjMatrix(n={})", self.n)?;
        for u in 1..=self.n.min(16) as NodeId {
            for v in 1..=self.n.min(16) as NodeId {
                write!(f, "{}", if self.get(u, v) { '1' } else { '0' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn add_edge_is_symmetric_and_idempotent() {
        let mut g = Graph::empty(4);
        g.add_edge(1, 3);
        g.add_edge(3, 1);
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(1, 3) && g.has_edge(3, 1));
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(3), &[1]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        Graph::empty(3).add_edge(2, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Graph::empty(3).add_edge(1, 4);
    }

    #[test]
    fn from_edges_matches_add_edge() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..200 {
            let n = rng.gen_range(2..=30u32);
            let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
            for _ in 0..rng.gen_range(0..=3 * n) {
                let u = rng.gen_range(1..=n);
                let v = rng.gen_range(1..=n);
                if u != v {
                    edges.push((u, v));
                }
            }
            // Both orientations of some edges, and repeats of others.
            let flipped: Vec<_> = edges.iter().step_by(2).map(|&(u, v)| (v, u)).collect();
            let repeated: Vec<_> = edges.iter().step_by(3).copied().collect();
            edges.extend(flipped);
            edges.extend(repeated);
            let mut g = Graph::empty(n as usize);
            for &(u, v) in &edges {
                g.add_edge(u, v);
            }
            assert_eq!(Graph::from_edges(n as usize, &edges), g);
        }
    }

    #[test]
    fn from_edges_panics_like_add_edge() {
        fn message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
            *std::panic::catch_unwind(f)
                .expect_err("must panic")
                .downcast::<String>()
                .expect("formatted panic message")
        }
        for (u, v) in [(2, 2), (1, 4), (0, 1), (4, 4)] {
            assert_eq!(
                message(|| {
                    Graph::from_edges(3, &[(1, 2), (u, v), (1, 3)]);
                }),
                message(|| Graph::empty(3).add_edge(u, v)),
                "edge ({u},{v})"
            );
        }
    }

    #[test]
    fn neighbors_stay_sorted() {
        let g = Graph::from_edges(6, &[(4, 2), (4, 6), (4, 1), (4, 5), (4, 3)]);
        assert_eq!(g.neighbors(4), &[1, 2, 3, 5, 6]);
    }

    #[test]
    fn remove_edge_round_trip() {
        let mut g = Graph::from_edges(4, &[(1, 2), (2, 3), (3, 4)]);
        g.remove_edge(2, 3);
        assert!(!g.has_edge(2, 3));
        assert_eq!(g.m(), 2);
        g.remove_edge(2, 3); // no-op
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edges_are_lexicographic() {
        let g = Graph::from_edges(4, &[(3, 4), (1, 2), (2, 4)]);
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(1, 2), (2, 4), (3, 4)]);
    }

    #[test]
    fn complement_of_complement_is_identity() {
        let g = Graph::from_edges(5, &[(1, 2), (2, 3), (4, 5), (1, 5)]);
        assert_eq!(g.complement().complement(), g);
    }

    #[test]
    fn complement_of_empty_is_clique() {
        let g = Graph::empty(4).complement();
        assert_eq!(g.m(), 6);
        assert_eq!(g.regular_degree(), Some(3));
    }

    #[test]
    fn disjoint_union_shifts_ids() {
        let a = Graph::from_edges(3, &[(1, 2)]);
        let b = Graph::from_edges(2, &[(1, 2)]);
        let u = a.disjoint_union(&b);
        assert_eq!(u.n(), 5);
        let e: Vec<_> = u.edges().collect();
        assert_eq!(e, vec![(1, 2), (4, 5)]);
    }

    #[test]
    fn with_extra_node_attaches() {
        let g = Graph::from_edges(3, &[(1, 2)]);
        let g2 = g.with_extra_node(&[1, 3]);
        assert_eq!(g2.n(), 4);
        assert!(g2.has_edge(4, 1) && g2.has_edge(4, 3) && !g2.has_edge(4, 2));
        // Original untouched.
        assert_eq!(g.n(), 3);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = Graph::from_edges(4, &[(1, 2), (2, 3), (3, 4)]); // path
        let h = g.relabel(&[4, 3, 2, 1]);
        let e: Vec<_> = h.edges().collect();
        assert_eq!(e, vec![(1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn induced_prefix_keeps_only_low_ids() {
        let g = Graph::from_edges(5, &[(1, 2), (2, 5), (3, 4), (1, 3)]);
        let h = g.induced_prefix(3);
        assert_eq!(h.n(), 3);
        let e: Vec<_> = h.edges().collect();
        assert_eq!(e, vec![(1, 2), (1, 3)]);
    }

    #[test]
    fn matrix_round_trips() {
        let g = Graph::from_edges(7, &[(1, 7), (2, 3), (5, 6), (1, 4)]);
        let m = g.adjacency_matrix();
        assert!(m.get(7, 1));
        assert!(!m.get(7, 2));
        assert_eq!(m.to_graph(), g);
    }

    #[test]
    fn matrix_equality_detects_difference() {
        let g = Graph::from_edges(4, &[(1, 2)]);
        let h = Graph::from_edges(4, &[(1, 3)]);
        assert_ne!(g.adjacency_matrix(), h.adjacency_matrix());
    }

    #[test]
    fn regular_degree_detection() {
        let cycle = Graph::from_edges(4, &[(1, 2), (2, 3), (3, 4), (4, 1)]);
        assert_eq!(cycle.regular_degree(), Some(2));
        let path = Graph::from_edges(3, &[(1, 2), (2, 3)]);
        assert_eq!(path.regular_degree(), None);
    }
}
