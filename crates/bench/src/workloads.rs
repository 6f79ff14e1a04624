//! Canonical workloads shared by the experiment binaries.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wb_graph::{generators, Graph};

/// A named graph family generator at one size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Random tree (degeneracy 1).
    Tree,
    /// Random forest (80% edge retention).
    Forest,
    /// Random k-tree.
    KTree(usize),
    /// Random graph of degeneracy ≤ k (exact peak).
    KDegenerate(usize),
    /// Degeneracy-5 graphs, the planar bound the paper cites.
    PlanarLike,
    /// Erdős–Rényi with expected average degree `d`.
    GnpAvgDeg(usize),
    /// Connected even-odd-bipartite.
    EobConnected,
    /// Two disjoint cliques on n nodes (n even).
    TwoCliques,
    /// Connected (n/2−1)-regular impostor.
    Impostor,
}

impl Workload {
    /// Human-readable label.
    pub fn name(&self) -> String {
        match self {
            Workload::Tree => "tree".into(),
            Workload::Forest => "forest".into(),
            Workload::KTree(k) => format!("{k}-tree"),
            Workload::KDegenerate(k) => format!("{k}-degenerate"),
            Workload::PlanarLike => "planar-like (5-degenerate)".into(),
            Workload::GnpAvgDeg(d) => format!("G(n,p) deg≈{d}"),
            Workload::EobConnected => "EOB connected".into(),
            Workload::TwoCliques => "two cliques".into(),
            Workload::Impostor => "regular impostor".into(),
        }
    }

    /// Generate an instance of `n` nodes with a deterministic seed.
    pub fn generate(&self, n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
        match *self {
            Workload::Tree => generators::random_tree(n, &mut rng),
            Workload::Forest => generators::random_forest(n, 0.8, &mut rng),
            Workload::KTree(k) => generators::k_tree(n.max(k + 1), k, &mut rng),
            Workload::KDegenerate(k) => generators::k_degenerate(n, k, true, &mut rng),
            Workload::PlanarLike => generators::k_degenerate(n, 5, true, &mut rng),
            Workload::GnpAvgDeg(d) => {
                let p = (d as f64 / n.max(2) as f64).min(1.0);
                generators::gnp(n, p, &mut rng)
            }
            Workload::EobConnected => generators::even_odd_bipartite_connected(n, 0.2, &mut rng),
            Workload::TwoCliques => generators::two_cliques(n / 2),
            Workload::Impostor => generators::connected_regular_impostor((n / 2).max(3), &mut rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_graph::checks;

    #[test]
    fn workloads_generate_expected_structure() {
        assert!(checks::degeneracy(&Workload::Tree.generate(40, 1)).0 <= 1);
        assert_eq!(checks::degeneracy(&Workload::KTree(3).generate(40, 1)).0, 3);
        assert!(checks::degeneracy(&Workload::KDegenerate(4).generate(40, 1)).0 <= 4);
        assert!(checks::is_even_odd_bipartite(
            &Workload::EobConnected.generate(30, 1)
        ));
        assert!(checks::is_two_cliques(
            &Workload::TwoCliques.generate(12, 1)
        ));
        assert!(!checks::is_two_cliques(&Workload::Impostor.generate(12, 1)));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Workload::GnpAvgDeg(4).generate(50, 9);
        let b = Workload::GnpAvgDeg(4).generate(50, 9);
        assert_eq!(a, b);
        let c = Workload::GnpAvgDeg(4).generate(50, 10);
        assert_ne!(a, c);
    }
}
