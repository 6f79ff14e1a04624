//! BUILD for bounded-degeneracy graphs in `SIMASYNC[log n]` (§3, Theorem 2).
//!
//! Every node writes, with no communication whatsoever, the `(k+2)`-tuple
//!
//! ```text
//! ( ID(v),  d_G(v),  Σ_{w∈N(v)} ID(w)^1, …, Σ_{w∈N(v)} ID(w)^k )
//! ```
//!
//! — `O(k² log n)` bits by Lemma 1. The output function (Algorithm 1)
//! repeatedly *prunes* a node of current degree ≤ k: by Wright's theorem its
//! power sums identify its remaining neighborhood exactly; the decoded edges
//! are recorded and subtracted from the neighbors' tuples. If the pruning ever
//! stalls (no node of degree ≤ k remains) the input was not `k`-degenerate and
//! the protocol **rejects** — the recognition variant noted after Theorem 2.
//!
//! With `k = 1` this is precisely the forest protocol of §3.1 (the triple
//! `(ID, degree, Σ neighbor IDs)`).

use crate::codec::{read_id, write_id};
use wb_graph::{Graph, NodeId};
use wb_math::powersum::{self, NewtonDecoder};
use wb_math::{id_bits, BigInt, BitReader, BitVec, BitWriter};
use wb_runtime::{LocalView, Model, Node, Protocol, Whiteboard};

/// Rejection reasons for the recognition variant of BUILD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The pruning process stalled: some remaining node set has minimum degree
    /// above `k`, i.e. the input has a `(k+1)`-core and is not `k`-degenerate.
    NotKDegenerate,
    /// A power-sum vector failed to decode into a valid neighbor set — the
    /// board is not the image of any graph consistent with the claimed
    /// degrees (cannot happen for honest executions; kept for defense in
    /// depth of the output function).
    Undecodable {
        /// The node whose tuple failed to decode.
        node: NodeId,
    },
}

/// The §3.2 protocol: BUILD on graphs of degeneracy ≤ `k`.
///
/// ```
/// use wb_core::BuildDegenerate;
/// use wb_graph::generators;
/// use wb_runtime::{run, Outcome, RandomAdversary};
///
/// let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
/// let g = generators::k_tree(40, 3, &mut rng); // treewidth 3 ⇒ degeneracy 3
/// let report = run(&BuildDegenerate::new(3), &g, &mut RandomAdversary::new(2));
/// assert_eq!(report.outcome, Outcome::Success(Ok(g)));
/// ```
#[derive(Clone, Debug)]
pub struct BuildDegenerate {
    k: usize,
}

impl BuildDegenerate {
    /// Protocol for degeneracy bound `k ≥ 1`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "degeneracy bound must be ≥ 1");
        BuildDegenerate { k }
    }

    /// The forest protocol of §3.1 (`k = 1`).
    pub fn forests() -> Self {
        Self::new(1)
    }

    /// The degeneracy bound.
    pub fn k(&self) -> usize {
        self.k
    }

    fn degree_bits(n: usize) -> u32 {
        id_bits(n) // degrees are ≤ n−1
    }

    /// The message budget at `n` nodes, or `None` when it exceeds
    /// `u32::MAX` bits (the registry refuses such a `K`).
    pub(crate) fn checked_budget_bits(&self, n: usize) -> Option<u32> {
        powersum::power_sum_vector_bits(n, self.k)?.checked_add(id_bits(n) + Self::degree_bits(n))
    }
}

/// Per-node state: `SIMASYNC` nodes never observe, so there is none.
#[derive(Clone)]
pub struct BuildNode {
    k: usize,
}

impl Node for BuildNode {
    fn observe(&mut self, _v: &LocalView, _s: usize, _w: NodeId, _m: &BitVec) {
        unreachable!("SIMASYNC nodes are never shown the board");
    }

    fn compose(&mut self, view: &LocalView) -> BitVec {
        let mut w = BitWriter::new();
        write_id(&mut w, view.id, view.n);
        w.write_bits(view.degree() as u64, BuildDegenerate::degree_bits(view.n));
        powersum::write_power_sums(&mut w, &view.neighbors, view.n, self.k);
        w.finish()
    }
}

impl Protocol for BuildDegenerate {
    type Node = BuildNode;
    type Output = Result<Graph, BuildError>;

    fn model(&self) -> Model {
        Model::SimAsync
    }

    fn budget_bits(&self, n: usize) -> u32 {
        self.checked_budget_bits(n)
            .expect("BUILD's message budget exceeds u32::MAX bits; the registry refuses such K")
    }

    fn spawn(&self, _view: &LocalView) -> BuildNode {
        BuildNode { k: self.k }
    }

    /// Algorithm 1, with the Newton decoder in place of the `O(n^k)` lookup
    /// table (Lemma 2's "unlimited computational power" made practical).
    fn output(&self, n: usize, board: &Whiteboard) -> Self::Output {
        if powersum::fits_i128(n, self.k) {
            self.peel::<i128>(n, board)
        } else {
            self.peel::<BigInt>(n, board)
        }
    }
}

impl BuildDegenerate {
    /// Algorithm 1 over one power-sum representation: `i128` when every
    /// field fits one, [`BigInt`] otherwise (see [`wb_math::powersum`]).
    fn peel<S: PeelSum>(&self, n: usize, board: &Whiteboard) -> Result<Graph, BuildError> {
        let k = self.k;
        // `degree[i]` is `None` for a crashed writer (its single write died
        // before reaching the board); `sums[i·k..(i+1)·k]` is node i+1's
        // power-sum vector.
        let mut degree: Vec<Option<usize>> = vec![None; n];
        let mut sums: Vec<S> = vec![S::zero(); n * k];
        for entry in board.entries() {
            let mut r = BitReader::new(&entry.msg);
            let i = read_id(&mut r, n) as usize - 1;
            degree[i] = Some(r.read_bits(Self::degree_bits(n)) as usize);
            S::read(&mut r, n, &mut sums[i * k..(i + 1) * k]);
        }
        // The peel runs over the present tuples only; a crashed node's
        // incident edges are still recovered from its surviving neighbors'
        // power sums, so the reconstruction degrades to a graph between
        // `g[survivors]` and `g` — or to a robust rejection when the
        // surviving evidence no longer peels.
        let mut remaining = degree.iter().flatten().count();

        let decoder = NewtonDecoder::new(n);
        let mut alive = vec![true; n];
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        // Worklist of candidate low-degree nodes; stale entries are re-checked
        // on pop, so pushing duplicates is harmless.
        let mut stack: Vec<usize> = (0..n)
            .filter(|&i| degree[i].is_some_and(|d| d <= k))
            .collect();
        while remaining > 0 {
            let x = loop {
                match stack.pop() {
                    Some(i) if alive[i] && degree[i].is_some_and(|d| d <= k) => break i,
                    Some(_) => continue,
                    None => return Err(BuildError::NotKDegenerate),
                }
            };
            let id_x = x as NodeId + 1;
            let degree_x = degree[x].expect("worklist holds present nodes");
            let neighbors = S::decode(&decoder, &sums[x * k..(x + 1) * k], degree_x)
                .ok_or(BuildError::Undecodable { node: id_x })?;
            for &u in &neighbors {
                let ui = u as usize - 1;
                if u == id_x {
                    return Err(BuildError::Undecodable { node: id_x });
                }
                let Some(du) = degree[ui].as_mut() else {
                    // The neighbor's write died: the edge survives in x's
                    // sums, but there is no tuple left to peel it from.
                    edges.push((id_x, u));
                    continue;
                };
                if !alive[ui] || *du == 0 {
                    return Err(BuildError::Undecodable { node: id_x });
                }
                edges.push((id_x, u));
                *du -= 1;
                S::remove_neighbor(&mut sums[ui * k..(ui + 1) * k], id_x);
                if *du <= k {
                    stack.push(ui);
                }
            }
            alive[x] = false;
            remaining -= 1;
        }
        Ok(Graph::from_edges(n, &edges))
    }
}

/// The power-sum arithmetic [`BuildDegenerate::peel`] needs, for the two
/// widths [`wb_math::powersum`] supports.
trait PeelSum: Clone {
    fn zero() -> Self;
    /// Read one node's `out.len()` power-sum fields.
    fn read(r: &mut BitReader<'_>, n: usize, out: &mut [Self]);
    /// Subtract `id`'s contribution from a power-sum vector.
    fn remove_neighbor(sums: &mut [Self], id: NodeId);
    fn decode(decoder: &NewtonDecoder, sums: &[Self], degree: usize) -> Option<Vec<u32>>;
}

impl PeelSum for i128 {
    fn zero() -> Self {
        0
    }

    fn read(r: &mut BitReader<'_>, n: usize, out: &mut [Self]) {
        powersum::read_power_sums_i128(r, n, out);
    }

    fn remove_neighbor(sums: &mut [Self], id: NodeId) {
        // Cannot overflow: `powersum::fits_i128` bounds every running sum.
        let mut pw = 1i128;
        for s in sums {
            pw *= id as i128;
            *s -= pw;
        }
    }

    fn decode(decoder: &NewtonDecoder, sums: &[Self], degree: usize) -> Option<Vec<u32>> {
        decoder.decode_i128(sums, degree)
    }
}

impl PeelSum for BigInt {
    fn zero() -> Self {
        BigInt::zero()
    }

    fn read(r: &mut BitReader<'_>, n: usize, out: &mut [Self]) {
        powersum::read_power_sums(r, n, out);
    }

    fn remove_neighbor(sums: &mut [Self], id: NodeId) {
        powersum::remove_neighbor(sums, id);
    }

    fn decode(decoder: &NewtonDecoder, sums: &[Self], degree: usize) -> Option<Vec<u32>> {
        decoder.decode(sums, degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wb_graph::{checks, generators};
    use wb_runtime::exhaustive::{assert_explored, ExploreConfig};
    use wb_runtime::{run, MinIdAdversary, Outcome, RandomAdversary};

    fn reconstructs(k: usize, g: &Graph, seed: u64) {
        let p = BuildDegenerate::new(k);
        let report = run(&p, g, &mut RandomAdversary::new(seed));
        match report.outcome {
            Outcome::Success(Ok(h)) => assert_eq!(&h, g),
            other => panic!("expected reconstruction, got {other:?}"),
        }
    }

    #[test]
    fn rebuilds_forests_with_k1() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 3, 10, 40, 120] {
            let t = generators::random_tree(n, &mut rng);
            reconstructs(1, &t, n as u64);
            let f = generators::random_forest(n, 0.5, &mut rng);
            reconstructs(1, &f, n as u64 + 1);
        }
    }

    #[test]
    fn rebuilds_k_trees() {
        let mut rng = StdRng::seed_from_u64(13);
        for k in 1..=4 {
            let g = generators::k_tree(25, k, &mut rng);
            reconstructs(k, &g, k as u64);
        }
    }

    #[test]
    fn rebuilds_random_degenerate_graphs() {
        let mut rng = StdRng::seed_from_u64(17);
        for k in 1..=5 {
            for trial in 0..4 {
                let g = generators::k_degenerate(30, k, trial % 2 == 0, &mut rng);
                reconstructs(k, &g, trial);
            }
        }
    }

    #[test]
    fn higher_k_protocol_still_rebuilds_sparser_graphs() {
        let mut rng = StdRng::seed_from_u64(19);
        let t = generators::random_tree(20, &mut rng);
        reconstructs(3, &t, 0); // degeneracy 1 input under a k = 3 protocol
    }

    #[test]
    fn rejects_graphs_above_the_bound() {
        // K_{k+2} has degeneracy k+1: a k-protocol must reject it.
        for k in 1..=3 {
            let g = generators::clique(k + 2);
            let p = BuildDegenerate::new(k);
            let report = run(&p, &g, &mut MinIdAdversary);
            assert_eq!(
                report.outcome,
                Outcome::Success(Err(BuildError::NotKDegenerate)),
                "k={k}"
            );
        }
    }

    #[test]
    fn rejects_cycle_with_k1() {
        let p = BuildDegenerate::forests();
        let g = generators::cycle(6);
        let report = run(&p, &g, &mut MinIdAdversary);
        assert_eq!(
            report.outcome,
            Outcome::Success(Err(BuildError::NotKDegenerate))
        );
    }

    #[test]
    fn accepts_mixed_low_degeneracy_components() {
        // Forest + isolated nodes + a 4-cycle: degeneracy 2.
        let mut g = generators::random_tree(6, &mut StdRng::seed_from_u64(23));
        g = g.disjoint_union(&generators::cycle(4));
        g = g.disjoint_union(&Graph::empty(3));
        reconstructs(2, &g, 5);
    }

    #[test]
    fn output_is_schedule_independent_exhaustively() {
        // SIMASYNC messages do not depend on the order, but the output
        // function must also be order-oblivious: check every schedule.
        let g = Graph::from_edges(5, &[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]);
        let p = BuildDegenerate::new(2);
        assert_explored(&p, &g, &ExploreConfig::default(), |out| {
            out.as_ref() == Ok(&g)
        });
    }

    #[test]
    fn message_sizes_match_lemma_1() {
        let mut rng = StdRng::seed_from_u64(29);
        for (n, k) in [(50usize, 2usize), (200, 3), (500, 5)] {
            let g = generators::k_degenerate(n, k, true, &mut rng);
            let p = BuildDegenerate::new(k);
            let report = run(&p, &g, &mut RandomAdversary::new(1));
            let bound = (k * (k + 1) * id_bits(n) as usize) + 2 * id_bits(n) as usize;
            assert!(
                report.max_message_bits() <= bound,
                "n={n} k={k}: {} > {bound}",
                report.max_message_bits()
            );
            assert!(report.outcome.is_success());
        }
    }

    #[test]
    fn single_node_and_empty_graphs() {
        reconstructs(1, &Graph::empty(1), 0);
        reconstructs(2, &Graph::empty(7), 0);
    }

    /// The fixed-width and BigInt referees must return the same
    /// `Result<Graph, BuildError>` on the same board; returns it.
    fn assert_referees_agree(
        p: &BuildDegenerate,
        n: usize,
        board: &Whiteboard,
    ) -> Result<Graph, BuildError> {
        assert!(powersum::fits_i128(n, p.k()));
        let fixed = p.peel::<i128>(n, board);
        assert_eq!(fixed, p.peel::<BigInt>(n, board), "k = {}, n = {n}", p.k());
        fixed
    }

    /// A board of `(id, degree, power sums of nbrs)` rows, encoded with
    /// `power_sums` + `write_big` independently of the protocol's writer.
    fn forge(n: usize, k: usize, rows: &[(NodeId, u64, Vec<u32>)]) -> Whiteboard {
        Whiteboard::from_messages(rows.iter().map(|(id, degree, nbrs)| {
            let mut w = BitWriter::new();
            w.write_bits(*id as u64, id_bits(n));
            w.write_bits(*degree, id_bits(n));
            for (idx, s) in powersum::power_sums(nbrs, k).iter().enumerate() {
                w.write_big(s, powersum::power_sum_field_bits(n, idx as u32 + 1));
            }
            (*id, w.finish())
        }))
    }

    #[test]
    fn fixed_width_referee_matches_bigint_on_honest_and_crashed_boards() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(37);
        // k = 1..=5, plus two cases at the top of the fixed range (widest
        // fields of 126 and 120 bits), where ID^p passes 2^100.
        for (n, k) in (1..=5).map(|k| (40, k)).chain([(100, 17), (250, 14)]) {
            for trial in 0..6u64 {
                // In-class inputs, and (k+1)-degenerate ones the protocol
                // must reject.
                let g = generators::k_degenerate(
                    n,
                    k + (trial % 3 == 2) as usize,
                    trial % 2 == 0,
                    &mut rng,
                );
                let p = BuildDegenerate::new(k);
                let report = run(&p, &g, &mut RandomAdversary::new(trial));
                let verdict = if checks::degeneracy(&g).0 <= k {
                    Ok(g.clone())
                } else {
                    Err(BuildError::NotKDegenerate)
                };
                assert_eq!(assert_referees_agree(&p, g.n(), &report.board), verdict);
                let rows: Vec<(NodeId, BitVec)> = report
                    .board
                    .entries()
                    .iter()
                    .map(|e| (e.writer, e.msg.clone()))
                    .collect();
                for crash_share in [0.05, 0.3, 0.7] {
                    let survivors: Vec<_> = rows
                        .iter()
                        .filter(|_| !rng.gen_bool(crash_share))
                        .cloned()
                        .collect();
                    let mut wrote = vec![false; g.n() + 1];
                    for (v, _) in &survivors {
                        wrote[*v as usize] = true;
                    }
                    let board = Whiteboard::from_messages(survivors);
                    if let Ok(h) = assert_referees_agree(&p, g.n(), &board) {
                        // Each survivor is peeled with its crashed neighbors
                        // still in its sums: only edges between two crashed
                        // writers are lost.
                        let kept: Vec<_> = g
                            .edges()
                            .filter(|&(u, v)| wrote[u as usize] || wrote[v as usize])
                            .collect();
                        assert_eq!(h, Graph::from_edges(g.n(), &kept));
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_width_referee_matches_bigint_on_forged_boards() {
        use rand::Rng;
        // The forged boards of the failure-injection suite.
        for (n, k, rows) in [
            (2, 1, vec![(1, 1, vec![2]), (2, 0, vec![])]),
            (2, 1, vec![(1, 1, vec![1]), (2, 0, vec![])]),
            (3, 2, vec![(1, 2, vec![2]), (2, 0, vec![]), (3, 0, vec![])]),
            (
                3,
                1,
                vec![(1, 1, vec![2]), (2, 1, vec![3]), (3, 1, vec![1])],
            ),
        ] {
            let verdict = assert_referees_agree(&BuildDegenerate::new(k), n, &forge(n, k, &rows));
            assert!(verdict.is_err(), "{verdict:?}");
        }
        // Random forgeries: claimed degrees and neighbor sets that need not
        // agree (self-claims, asymmetric rows, sums driven negative by the
        // peel), some rows missing.
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..3000 {
            let n = rng.gen_range(2..=7usize);
            let k = rng.gen_range(1..=3usize);
            let mut rows: Vec<(NodeId, u64, Vec<u32>)> = Vec::new();
            for id in 1..=n as NodeId {
                if rng.gen_bool(0.1) {
                    continue;
                }
                let mut nbrs: Vec<u32> = (1..=n as u32).filter(|_| rng.gen_bool(0.35)).collect();
                nbrs.truncate(k + 1);
                let degree = if rng.gen_bool(0.8) {
                    nbrs.len() as u64
                } else {
                    rng.gen_range(0..n as u64)
                };
                rows.push((id, degree, nbrs));
            }
            let _ = assert_referees_agree(&BuildDegenerate::new(k), n, &forge(n, k, &rows));
        }
    }

    #[test]
    fn compose_matches_the_bigint_encoding_across_word_boundaries() {
        // 22-bit IDs: k = 4 writes fields of 44, 66, 88 and 110 bits on the
        // fixed path; k = 5 adds a 132-bit field and takes the BigInt path.
        let n = 3_000_000usize;
        let top = n as NodeId;
        for k in [4, 5] {
            assert_eq!(powersum::fits_i128(n, k), k == 4);
            for neighbors in [
                vec![],
                vec![top],
                vec![1, top - 1, top],
                (top - 999..=top).filter(|&u| u != top - 500).collect(),
            ] {
                let view = LocalView {
                    id: top - 500,
                    n,
                    neighbors: neighbors.clone(),
                };
                let mut w = BitWriter::new();
                write_id(&mut w, view.id, n);
                w.write_bits(neighbors.len() as u64, id_bits(n));
                for (idx, s) in powersum::power_sums(&neighbors, k).iter().enumerate() {
                    w.write_big(s, powersum::power_sum_field_bits(n, idx as u32 + 1));
                }
                assert_eq!(BuildNode { k }.compose(&view), w.finish(), "k = {k}");
            }
        }
    }

    #[test]
    fn planar_like_degeneracy_5_inputs() {
        // Planar graphs have degeneracy ≤ 5; our 5-degenerate generator
        // exercises the same bound the paper cites for planar BUILD.
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::k_degenerate(40, 5, true, &mut rng);
        reconstructs(5, &g, 9);
    }
}
