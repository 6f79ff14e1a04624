//! Named graph families: one spec string → one reproducible instance.
//!
//! The CLI's `--workload`/`--graph-family`, the Monte Carlo campaign engine
//! (`wb-sim`), and the experiment binaries all select their input graphs
//! through [`graph_family`], so a family name means the same instance
//! everywhere (given the same `n` and seed). Specs are `name` or `name:ARG`:
//!
//! | spec            | family                                               |
//! |-----------------|------------------------------------------------------|
//! | `tree`          | random labeled tree (degeneracy 1)                   |
//! | `forest`        | random forest, 80% edge retention                    |
//! | `ktree:K`       | random K-tree                                        |
//! | `kdeg:K`        | random graph of degeneracy exactly ≤ K               |
//! | `mixed:K`       | low-or-high class (BUILD-MIXED's domain)             |
//! | `gnp:D`         | Erdős–Rényi with expected average degree D (def. 4)  |
//! | `gnp-lin:D`     | same model, O(n+m) skip sampler (bulk tier, n ≥ 10⁵) |
//! | `kdeg-lin:K`    | degeneracy exactly K, O(n·k) sampler (bulk tier)     |
//! | `eob`           | connected even-odd bipartite                         |
//! | `bipartite`     | bipartite with fixed halves                          |
//! | `two-cliques`   | two disjoint n/2-cliques                             |
//! | `impostor`      | connected (n/2−1)-regular non-two-cliques            |
//! | `clique`        | K_n                                                  |
//! | `cycle`         | C_n (n ≥ 3)                                          |
//! | `path`          | P_n                                                  |
//! | `file:PATH`     | edge list loaded from PATH                           |

use rand::rngs::StdRng;
use rand::SeedableRng;
use wb_graph::{generators, Graph};

/// Split `name:ARG` into `(name, Some(ARG))`, leaving `name` alone otherwise.
pub fn split_spec(spec: &str) -> (&str, Option<u64>) {
    match spec.split_once(':') {
        Some((k, v)) => (k, v.parse().ok()),
        None => (spec, None),
    }
}

/// Generate the instance named by `spec` at `n` nodes, deterministically
/// from `seed`. See the module table for the recognized families.
///
/// Whiteboard protocols need at least one node, so asking a generated
/// family for `n = 0`, or building an instance without nodes (an empty
/// edge-list file, `two-cliques` at `n = 1`), is an error. `file:` specs
/// ignore `n`.
pub fn graph_family(spec: &str, n: usize, seed: u64) -> Result<Graph, String> {
    // `file:PATH` loads an edge list (the path may contain ':').
    let g = match spec.strip_prefix("file:") {
        Some(path) => wb_graph::io::load_edge_list(std::path::Path::new(path))
            .map_err(|e| format!("cannot load '{path}': {e}"))?,
        None if n == 0 => return Err(format!("workload '{spec}' needs n ≥ 1, got n = 0")),
        None => generate(spec, n, seed)?,
    };
    if g.n() == 0 {
        return Err(format!(
            "workload '{spec}' has no nodes (n = {n}); whiteboard protocols need at least one"
        ));
    }
    Ok(g)
}

fn generate(spec: &str, n: usize, seed: u64) -> Result<Graph, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (kind, arg) = split_spec(spec);
    let k = arg.unwrap_or(2) as usize;
    Ok(match kind {
        "tree" => generators::random_tree(n, &mut rng),
        "forest" => generators::random_forest(n, 0.8, &mut rng),
        "ktree" => generators::k_tree(n.max(k + 1), k, &mut rng),
        "kdeg" => generators::k_degenerate(n, k, true, &mut rng),
        "mixed" => generators::mixed_low_high(n, k, &mut rng),
        "gnp" => generators::gnp(n, arg.unwrap_or(4) as f64 / n.max(2) as f64, &mut rng),
        "gnp-lin" => generators::gnp_linear(n, arg.unwrap_or(4) as f64, &mut rng),
        "kdeg-lin" => generators::k_degenerate_linear(n, k, &mut rng),
        "eob" => generators::even_odd_bipartite_connected(n, 0.2, &mut rng),
        "bipartite" => generators::bipartite_fixed(n / 2, n - n / 2, 0.2, &mut rng),
        "two-cliques" => generators::two_cliques(n / 2),
        "impostor" => generators::connected_regular_impostor((n / 2).max(3), &mut rng),
        "clique" => generators::clique(n),
        "cycle" => generators::cycle(n.max(3)),
        "path" => generators::path(n),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_graph::checks;

    #[test]
    fn families_are_deterministic_per_seed() {
        for spec in ["tree", "kdeg:3", "gnp:4", "eob", "cycle", "path"] {
            let a = graph_family(spec, 24, 7).unwrap();
            let b = graph_family(spec, 24, 7).unwrap();
            assert_eq!(a, b, "{spec}");
        }
        let a = graph_family("gnp:4", 24, 7).unwrap();
        let c = graph_family("gnp:4", 24, 8).unwrap();
        assert_ne!(a, c, "different seeds give different instances");
    }

    #[test]
    fn families_have_expected_structure() {
        assert!(checks::degeneracy(&graph_family("tree", 30, 1).unwrap()).0 <= 1);
        assert!(checks::degeneracy(&graph_family("kdeg:2", 30, 1).unwrap()).0 <= 2);
        assert_eq!(
            checks::degeneracy(&graph_family("kdeg-lin:3", 200, 1).unwrap()).0,
            3
        );
        let sparse = graph_family("gnp-lin:4", 2_000, 1).unwrap();
        assert!(
            sparse.m() > 2_000 && sparse.m() < 6_000,
            "m = {}",
            sparse.m()
        );
        assert!(checks::is_even_odd_bipartite(
            &graph_family("eob", 20, 1).unwrap()
        ));
        assert!(checks::is_two_cliques(
            &graph_family("two-cliques", 12, 1).unwrap()
        ));
        assert_eq!(graph_family("clique", 6, 1).unwrap().m(), 15);
        assert_eq!(graph_family("path", 6, 1).unwrap().m(), 5);
    }

    #[test]
    fn unknown_family_is_an_error() {
        assert!(graph_family("frobnicate", 10, 1).is_err());
        assert!(graph_family("file:/nonexistent", 10, 1).is_err());
    }

    #[test]
    fn empty_instances_are_errors() {
        for spec in ["tree", "path", "cycle", "clique", "gnp-lin:4", "kdeg-lin:2"] {
            let err = graph_family(spec, 0, 1).unwrap_err();
            assert!(err.contains("n ≥ 1"), "{spec}: {err}");
        }
        let err = graph_family("two-cliques", 1, 1).unwrap_err();
        assert!(err.contains("no nodes"), "{err}");
        assert_eq!(graph_family("path", 1, 1).unwrap().n(), 1);
    }

    #[test]
    fn split_spec_parses_args() {
        assert_eq!(split_spec("gnp:8"), ("gnp", Some(8)));
        assert_eq!(split_spec("tree"), ("tree", None));
        assert_eq!(split_spec("gnp:x"), ("gnp", None));
    }
}
