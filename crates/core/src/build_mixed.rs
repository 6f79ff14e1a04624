//! The §3 closing extension: BUILD for graphs with a *low-or-high* elimination
//! order, in `SIMASYNC[O(k² log n)]`.
//!
//! "It is worth to mention that with our tools we can deal with graphs having
//! a node ordering where each node v has degree at most k **or at least
//! n−k−1**, in the graph induced by nodes appearing later than v in the
//! ordering."
//!
//! Each node writes *two* power-sum vectors: one for its neighborhood and one
//! for its non-neighborhood (complement row). The referee prunes a node
//! whenever its remaining degree is ≤ k (decode the neighbor sums) **or** its
//! remaining co-degree is ≤ k (decode the non-neighbor sums; its neighbors
//! are everyone else still alive). Both vectors are maintained incrementally
//! under removals, exactly like Algorithm 1. The class contains *dense*
//! graphs (complements of k-degenerate graphs, near-cliques), which the plain
//! degeneracy protocol must reject — yet message size stays `O(k² log n)`.

use crate::build::BuildError;
use crate::codec::{read_id, write_id};
use wb_graph::{Graph, NodeId};
use wb_math::powersum::{self, NewtonDecoder};
use wb_math::{id_bits, BigInt, BitReader, BitVec, BitWriter};
use wb_runtime::{LocalView, Model, Node, Protocol, Whiteboard};

/// BUILD on the low-or-high-degree elimination class.
#[derive(Clone, Debug)]
pub struct BuildMixed {
    k: usize,
}

impl BuildMixed {
    /// Protocol for parameter `k ≥ 1` (low side: degree ≤ k; high side:
    /// degree ≥ survivors − k − 1).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        BuildMixed { k }
    }

    /// The class parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The message budget at `n` nodes, or `None` when it exceeds
    /// `u32::MAX` bits (the registry refuses such a `K`).
    pub(crate) fn checked_budget_bits(&self, n: usize) -> Option<u32> {
        powersum::power_sum_vector_bits(n, self.k)?
            .checked_add(id_bits(n))?
            .checked_mul(2)
    }
}

/// Stateless SIMASYNC node: writes `(ID, degree, b(N), b(V∖N∖{v}))`.
#[derive(Clone)]
pub struct BuildMixedNode {
    k: usize,
}

impl Node for BuildMixedNode {
    fn observe(&mut self, _v: &LocalView, _s: usize, _w: NodeId, _m: &BitVec) {
        unreachable!("SIMASYNC nodes are never shown the board");
    }

    fn compose(&mut self, view: &LocalView) -> BitVec {
        let mut w = BitWriter::new();
        write_id(&mut w, view.id, view.n);
        w.write_bits(view.degree() as u64, id_bits(view.n));
        powersum::write_power_sums(&mut w, &view.neighbors, view.n, self.k);
        let non_neighbors: Vec<NodeId> = (1..=view.n as NodeId)
            .filter(|&u| u != view.id && !view.is_neighbor(u))
            .collect();
        powersum::write_power_sums(&mut w, &non_neighbors, view.n, self.k);
        w.finish()
    }
}

struct MixedTuple {
    degree: usize,
    nbr_sums: Vec<BigInt>,
    co_sums: Vec<BigInt>,
}

impl Protocol for BuildMixed {
    type Node = BuildMixedNode;
    type Output = Result<Graph, BuildError>;

    fn model(&self) -> Model {
        Model::SimAsync
    }

    fn budget_bits(&self, n: usize) -> u32 {
        self.checked_budget_bits(n).expect(
            "BUILD-MIXED's message budget exceeds u32::MAX bits; the registry refuses such K",
        )
    }

    fn spawn(&self, _view: &LocalView) -> BuildMixedNode {
        BuildMixedNode { k: self.k }
    }

    fn output(&self, n: usize, board: &Whiteboard) -> Self::Output {
        let mut tuples: Vec<Option<MixedTuple>> = (0..n).map(|_| None).collect();
        for entry in board.entries() {
            let mut r = BitReader::new(&entry.msg);
            let id = read_id(&mut r, n);
            let degree = r.read_bits(id_bits(n)) as usize;
            let mut nbr_sums = vec![BigInt::zero(); self.k];
            powersum::read_power_sums(&mut r, n, &mut nbr_sums);
            let mut co_sums = vec![BigInt::zero(); self.k];
            powersum::read_power_sums(&mut r, n, &mut co_sums);
            tuples[id as usize - 1] = Some(MixedTuple {
                degree,
                nbr_sums,
                co_sums,
            });
        }
        // A slot left `None` is a crashed writer. Crashed nodes stay in the
        // peel's *universe* — survivors' degrees and both sum vectors still
        // count them — but can never themselves be picked, so the walk ends
        // once every present tuple is peeled. Edges incident to a crashed
        // node are recovered from its surviving neighbors' sums; edges
        // between two crashed nodes are unrecoverable (the sandwich oracle
        // accepts their absence).
        let mut unpeeled_present = tuples.iter().filter(|t| t.is_some()).count();
        let mut alive_mask: Vec<bool> = vec![true; n];

        let decoder = NewtonDecoder::new(n);
        let mut g = Graph::empty(n);
        let mut remaining = n;
        let mut alive_ids: Vec<NodeId> = (1..=n as NodeId).collect();
        while unpeeled_present > 0 {
            // Scan for a candidate: low remaining degree or low co-degree.
            // (O(n) per prune; the whole output function is O(n²·k) bignum ops.)
            let pick = alive_ids.iter().copied().find(|&v| {
                tuples[v as usize - 1]
                    .as_ref()
                    .is_some_and(|t| t.degree <= self.k || t.degree + self.k + 1 >= remaining)
            });
            let Some(x) = pick else {
                return Err(BuildError::NotKDegenerate);
            };
            let xi = x as usize - 1;
            let (degree_x, nbr_sums_x, co_sums_x) = {
                let t = tuples[xi].as_ref().expect("picked node is present");
                (t.degree, t.nbr_sums.clone(), t.co_sums.clone())
            };
            let neighbors: Vec<NodeId> = if degree_x <= self.k {
                decoder
                    .decode(&nbr_sums_x, degree_x)
                    .ok_or(BuildError::Undecodable { node: x })?
            } else {
                // High side: decode the co-neighbors; neighbors = the rest.
                let co_degree = remaining - 1 - degree_x;
                let non = decoder
                    .decode(&co_sums_x, co_degree)
                    .ok_or(BuildError::Undecodable { node: x })?;
                let mut non_set = vec![false; n];
                for &u in &non {
                    if !alive_mask[u as usize - 1] || u == x {
                        return Err(BuildError::Undecodable { node: x });
                    }
                    non_set[u as usize - 1] = true;
                }
                alive_ids
                    .iter()
                    .copied()
                    .filter(|&u| u != x && !non_set[u as usize - 1])
                    .collect()
            };
            // Record edges and update both sum vectors of the survivors.
            let mut is_neighbor = vec![false; n];
            for &u in &neighbors {
                let ui = u as usize - 1;
                if !alive_mask[ui] || u == x || tuples[ui].as_ref().is_some_and(|t| t.degree == 0) {
                    return Err(BuildError::Undecodable { node: x });
                }
                is_neighbor[ui] = true;
                g.add_edge(x, u);
            }
            alive_mask[xi] = false;
            for &u in &alive_ids {
                if u == x {
                    continue;
                }
                let ui = u as usize - 1;
                let Some(tu) = tuples[ui].as_mut() else {
                    continue;
                };
                if is_neighbor[ui] {
                    tu.degree -= 1;
                    powersum::remove_neighbor(&mut tu.nbr_sums, x);
                } else {
                    powersum::remove_neighbor(&mut tu.co_sums, x);
                }
            }
            alive_ids.retain(|&u| u != x);
            remaining -= 1;
            unpeeled_present -= 1;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wb_graph::{checks, generators};
    use wb_runtime::{run, MinIdAdversary, Outcome, RandomAdversary};

    fn reconstructs(k: usize, g: &Graph, seed: u64) {
        let p = BuildMixed::new(k);
        let report = run(&p, g, &mut RandomAdversary::new(seed));
        match report.outcome {
            Outcome::Success(Ok(h)) => assert_eq!(&h, g),
            other => panic!("expected reconstruction of {g:?}, got {other:?}"),
        }
    }

    #[test]
    fn rebuilds_sparse_class_members() {
        let mut rng = StdRng::seed_from_u64(1);
        for k in 1..=3 {
            let g = generators::k_degenerate(20, k, true, &mut rng);
            reconstructs(k, &g, k as u64);
        }
    }

    #[test]
    fn rebuilds_dense_complements() {
        // Complements of k-degenerate graphs are dense (Θ(n²) edges) and in
        // the class — the plain degeneracy protocol must reject these.
        let mut rng = StdRng::seed_from_u64(2);
        for k in 1..=3 {
            let g = generators::k_degenerate(18, k, true, &mut rng).complement();
            assert!(checks::mixed_elimination(&g, k).is_some());
            reconstructs(k, &g, k as u64 + 10);
            let plain = crate::build::BuildDegenerate::new(k);
            let report = run(&plain, &g, &mut MinIdAdversary);
            assert_eq!(
                report.outcome,
                Outcome::Success(Err(BuildError::NotKDegenerate)),
                "k={k}: dense complement should defeat the plain protocol"
            );
        }
    }

    #[test]
    fn rebuilds_cliques_and_empty_graphs() {
        reconstructs(1, &generators::clique(12), 3);
        reconstructs(1, &Graph::empty(12), 4);
        reconstructs(2, &Graph::empty(1), 5);
    }

    #[test]
    fn rebuilds_mixed_generator_output() {
        let mut rng = StdRng::seed_from_u64(3);
        for k in 1..=3 {
            for trial in 0..5 {
                let g = generators::mixed_low_high(24, k, &mut rng);
                assert!(checks::mixed_elimination(&g, k).is_some());
                reconstructs(k, &g, trial);
            }
        }
    }

    #[test]
    fn rejects_graphs_outside_the_class() {
        // The 3-cube: 3-regular on 8 nodes, neither low nor high at k = 1.
        let cube = Graph::from_edges(
            8,
            &[
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 1),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 5),
                (1, 5),
                (2, 6),
                (3, 7),
                (4, 8),
            ],
        );
        assert!(checks::mixed_elimination(&cube, 1).is_none());
        let p = BuildMixed::new(1);
        let report = run(&p, &cube, &mut MinIdAdversary);
        assert_eq!(
            report.outcome,
            Outcome::Success(Err(BuildError::NotKDegenerate))
        );
    }

    #[test]
    fn budget_is_twice_the_plain_protocol_plus_nothing() {
        let plain = crate::build::BuildDegenerate::new(3);
        let mixed = BuildMixed::new(3);
        let n = 500;
        assert!(mixed.budget_bits(n) <= 2 * plain.budget_bits(n));
        // …and still logarithmic: ≤ 2(k(k+1)+2)·⌈lg n⌉.
        assert!(mixed.budget_bits(n) as usize <= 2 * (3 * 4 + 2) * id_bits(n) as usize);
    }

    #[test]
    fn message_sizes_stay_logarithmic_on_dense_inputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::k_degenerate(100, 2, true, &mut rng).complement();
        let p = BuildMixed::new(2);
        let report = run(&p, &g, &mut RandomAdversary::new(1));
        assert!(report.max_message_bits() <= p.budget_bits(100) as usize);
        assert!(report.outcome.is_success());
        // Dense graph (≈ n²/2 edges), yet ~O(log n) bits per node:
        assert!(g.m() > 100 * 90 / 2);
        assert!(report.max_message_bits() < 200);
    }
}
