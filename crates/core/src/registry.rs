//! The **protocol registry**: one table from CLI-style protocol specs to
//! protocol values, correctness oracles, and tier support.
//!
//! Before this module existed, the protocol → oracle mapping was duplicated
//! across the CLI's `explore` and `campaign` commands, the campaign bench
//! bin, and the differential tests — four copies that could silently drift.
//! Now every tier resolves scenarios here:
//!
//! - [`dispatch`] drives the **step-engine tiers** (exhaustive exploration
//!   and Monte Carlo campaigns): it parses a spec like `"build:2"` or
//!   `"mis:3"`, constructs the protocol, and hands it to a caller-supplied
//!   [`ProtocolVisitor`] together with an oracle *binder* — a function that,
//!   given one instance graph, returns the outcome-correctness predicate for
//!   that instance (precomputing reference answers once per graph).
//! - [`dispatch_bulk`] does the same for the **bulk tier**
//!   ([`wb_runtime::bulk`]): every `SIMASYNC` protocol is wrapped in
//!   [`Oblivious`], and the observation-dependent `SIMSYNC` protocols (MIS,
//!   2-CLIQUES) use their columnar implementations from [`crate::bulk`].
//!   Both dispatchers share the same oracle binders, so the tiers cannot
//!   disagree about what "correct" means.
//! - [`PROTOCOLS`] is the static metadata table (spec syntax, native model,
//!   paper reference, bulk support) behind `whiteboard list` and
//!   `docs/PROTOCOLS.md`.
//!
//! Spec syntax is `name` or `name:ARG` (see [`crate::workload::split_spec`]);
//! the argument defaults match the historical CLI defaults.
//!
//! ```
//! use wb_core::registry::{self, BoundOracle, ProtocolVisitor};
//! use wb_graph::Graph;
//! use wb_runtime::{Model, Protocol};
//!
//! /// A visitor that just reports the resolved protocol's native model.
//! struct ModelOf;
//! impl ProtocolVisitor for ModelOf {
//!     type Result = Model;
//!     fn visit<P, B>(self, protocol: P, _bind: B) -> Model
//!     where
//!         P: Protocol + Clone + Send + Sync,
//!         P::Node: Send + Sync,
//!         P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
//!         B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
//!     {
//!         protocol.model()
//!     }
//! }
//!
//! assert_eq!(registry::dispatch("mis:1", 8, ModelOf).unwrap(), Model::SimSync);
//! assert_eq!(registry::dispatch("bfs", 8, ModelOf).unwrap(), Model::Sync);
//! assert!(registry::dispatch("frobnicate", 8, ModelOf).is_err());
//! assert!(registry::PROTOCOLS.iter().any(|p| p.name == "two-cliques" && p.bulk));
//! ```

use crate::bfs::{AsyncBipartiteBfs, BfsOutput, EobBfs, SyncBfs};
use crate::build::{BuildDegenerate, BuildError};
use crate::build_mixed::BuildMixed;
use crate::connectivity::{ConnectivityReport, ConnectivitySync};
use crate::hard_problems::{DiameterAtMost3FullRow, SquareFullRow};
use crate::mis::MisGreedy;
use crate::naive::NaiveBuild;
use crate::spanning::{SpanningForest, SpanningForestSync};
use crate::statistics::{DegreeStats, DegreeSummary, EdgeCount};
use crate::subgraph::SubgraphPrefix;
use crate::triangle::TriangleFullRow;
use crate::two_cliques::{TwoCliques, TwoCliquesVerdict};
use crate::two_cliques_randomized::TwoCliquesRandomized;
use crate::workload::split_spec;
use wb_graph::{checks, Graph, NodeId};
use wb_runtime::bulk::Oblivious;
use wb_runtime::{BulkProtocol, Model, Outcome, Protocol};

/// An outcome-correctness predicate bound to one instance graph.
///
/// The second argument is the **crashed set**: the nodes whose single write
/// died under the run's [`wb_runtime::FaultPlan`], in crash order. Fault-free
/// runs pass `&[]` and get exactly the historical verdict; with casualties
/// the oracle judges the *degraded* guarantee instead — what the protocol
/// still owes when `f` writes are lost (e.g. BUILD degrades to reconstructing
/// a graph sandwiched between the surviving-node subgraph and the full graph;
/// MIS verdicts quantify only over live nodes). The per-protocol degraded
/// contracts are catalogued in `docs/FAULTS.md`.
pub type BoundOracle<'g, O> = Box<dyn Fn(&Outcome<O>, &[NodeId]) -> bool + Send + Sync + 'g>;

/// A caller-supplied action over a resolved step protocol.
///
/// [`dispatch`] calls `visit` exactly once, with the protocol value and the
/// oracle binder for the spec it parsed. Implementations run whichever tier
/// they represent: the CLI's `explore` visitor explores, the campaign
/// visitor samples, the differential test visitor cross-checks.
pub trait ProtocolVisitor {
    /// What the visit produces.
    type Result;

    /// Drive `protocol`; `bind(g)` yields the instance-bound oracle.
    fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
    where
        P: Protocol + Clone + Send + Sync,
        P::Node: Send + Sync,
        P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync;
}

/// A caller-supplied action over a resolved bulk protocol (same shape as
/// [`ProtocolVisitor`], for the columnar tier).
pub trait BulkVisitor {
    /// What the visit produces.
    type Result;

    /// Drive `protocol`; `bind(g)` yields the instance-bound oracle.
    fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
    where
        P: BulkProtocol + Send + Sync,
        P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync;
}

/// Metadata for one registry entry.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolInfo {
    /// Spec key (`--protocol` name before any `:ARG`).
    pub name: &'static str,
    /// Display form of the spec, argument included.
    pub spec: &'static str,
    /// Native model.
    pub model: Model,
    /// Paper reference.
    pub paper: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Whether [`dispatch_bulk`] can drive it (simultaneous-**native**
    /// protocols only; the bulk tier can then run them under any model that
    /// includes the native one).
    pub bulk: bool,
    /// Whether the oracle is expected to hold on **every** input graph.
    /// `false` only for the Open Problem 3 ablation protocol
    /// (`async-bipartite-bfs`), which deadlocks by design off the bipartite
    /// promise — all-graph differential sweeps skip its oracle assertion,
    /// and failure-injection pipelines rely on it failing.
    pub total: bool,
}

/// Every registered protocol, in `whiteboard list` order.
pub const PROTOCOLS: &[ProtocolInfo] = &[
    ProtocolInfo {
        name: "build",
        spec: "build:K",
        model: Model::SimAsync,
        paper: "§3, Thm 2",
        summary: "BUILD, degeneracy ≤ K",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "build-mixed",
        spec: "build-mixed:K",
        model: Model::SimAsync,
        paper: "§3 closing remark",
        summary: "BUILD, low-or-high class",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "naive",
        spec: "naive",
        model: Model::SimAsync,
        paper: "§1",
        summary: "BUILD, Θ(n)-bit baseline",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "mis",
        spec: "mis:ROOT",
        model: Model::SimSync,
        paper: "Thm 5",
        summary: "rooted MIS",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "bfs",
        spec: "bfs",
        model: Model::Sync,
        paper: "Thm 10",
        summary: "BFS forest, any graph",
        bulk: false,
        total: true,
    },
    ProtocolInfo {
        name: "eob-bfs",
        spec: "eob-bfs",
        model: Model::Async,
        paper: "Thm 7",
        summary: "BFS forest, even-odd bipartite",
        bulk: false,
        total: true,
    },
    ProtocolInfo {
        name: "async-bipartite-bfs",
        spec: "async-bipartite-bfs",
        model: Model::Async,
        paper: "Cor 4 / Open Pb 3",
        summary: "BFS, bipartite promise (deadlocks off it)",
        bulk: false,
        total: false,
    },
    ProtocolInfo {
        name: "spanning",
        spec: "spanning",
        model: Model::Sync,
        paper: "§6",
        summary: "spanning forest",
        bulk: false,
        total: true,
    },
    ProtocolInfo {
        name: "two-cliques",
        spec: "two-cliques",
        model: Model::SimSync,
        paper: "§5.1",
        summary: "2-CLIQUES",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "two-cliques-rand",
        spec: "two-cliques-rand:SEED",
        model: Model::SimAsync,
        paper: "Open Pb 4",
        summary: "randomized 2-CLIQUES, one-sided error",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "subgraph",
        spec: "subgraph:F",
        model: Model::SimAsync,
        paper: "Thm 9",
        summary: "SUBGRAPH_F prefix subgraph",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "triangle",
        spec: "triangle",
        model: Model::SimAsync,
        paper: "Thm 3 context",
        summary: "TRIANGLE, Θ(n)-bit bracket",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "square",
        spec: "square",
        model: Model::SimAsync,
        paper: "§1, §4",
        summary: "SQUARE, Θ(n)-bit bracket",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "diameter3",
        spec: "diameter3",
        model: Model::SimAsync,
        paper: "§1, §4",
        summary: "DIAMETER ≤ 3, Θ(n)-bit bracket",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "connectivity",
        spec: "connectivity",
        model: Model::Sync,
        paper: "§6 / Open Pb 2",
        summary: "CONNECTIVITY + components",
        bulk: false,
        total: true,
    },
    ProtocolInfo {
        name: "edge-count",
        spec: "edge-count",
        model: Model::SimAsync,
        paper: "§1 motivation",
        summary: "|E| from degrees",
        bulk: true,
        total: true,
    },
    ProtocolInfo {
        name: "degree-stats",
        spec: "degree-stats",
        model: Model::SimAsync,
        paper: "§1 motivation",
        summary: "degree-sequence statistics",
        bulk: true,
        total: true,
    },
];

/// Metadata for `name` (the spec key before any `:ARG`).
pub fn info(name: &str) -> Option<&'static ProtocolInfo> {
    PROTOCOLS.iter().find(|p| p.name == name)
}

/// The unknown-spec error both dispatchers raise.
fn unknown(kind: &str) -> String {
    format!("unknown protocol '{kind}' (see `whiteboard list`)")
}

/// Refuse a `build:K` or `build-mixed:K` whose messages at `n` nodes would
/// need more than `u32::MAX` bits, the width of every message budget; every
/// other spec passes. Without this, a huge `K` aborts the process while
/// allocating its power sums. Both dispatchers call it first.
pub fn check_budget(spec: &str, n: usize) -> Result<(), String> {
    let (kind, arg) = split_spec(spec);
    let k = arg.unwrap_or(2).max(1) as usize;
    let budget = match kind {
        "build" => BuildDegenerate::new(k).checked_budget_bits(n),
        "build-mixed" => BuildMixed::new(k).checked_budget_bits(n),
        _ => return Ok(()),
    };
    match budget {
        Some(_) => Ok(()),
        None => Err(format!(
            "protocol '{spec}': one message at n = {n} would need more than {} bits; \
             choose a smaller K",
            u32::MAX
        )),
    }
}

// ---------------------------------------------------------------------------
// Oracle binders — ONE definition per protocol, shared by both dispatchers.
// Each binder precomputes the per-instance reference answer once, then
// returns the outcome predicate for that instance. Every oracle takes the
// crashed set as its second argument: with no casualties the historical
// fault-free verdict applies verbatim; with casualties the oracle switches
// to the protocol's *degraded* contract (see `docs/FAULTS.md`).
// ---------------------------------------------------------------------------

/// `true` iff `v`'s write reached the board (it is not in the crashed set).
fn live(v: NodeId, dead: &[NodeId]) -> bool {
    !dead.contains(&v)
}

/// The degraded reconstruction guarantee shared by the BUILD family: with
/// the `dead` nodes' writes lost, the output must still be sandwiched
/// between the surviving evidence and the truth — every claimed edge is
/// real (`h ⊆ g`), and every edge both of whose endpoints' writes survived
/// is recovered (`g[live] ⊆ h`).
fn reconstruction_sandwich(g: &Graph, h: &Graph, dead: &[NodeId]) -> bool {
    h.n() == g.n()
        && h.edges().all(|(u, v)| g.has_edge(u, v))
        && g.edges()
            .filter(|&(u, v)| live(u, dead) && live(v, dead))
            .all(|(u, v)| h.has_edge(u, v))
}

/// The degraded MIS contract: `set` is an independent set of survivors,
/// containing the root whenever the root's own write survived, and maximal
/// over the live nodes *except* in a dead root's neighborhood. (A crashed
/// non-root node is indistinguishable from one that never joined, so the
/// quantifiers shrink to the live subgraph; but the root's neighbors defer
/// to the root by instance knowledge, not by observation, so when the root's
/// write dies they still decline — an uncovered hole the protocol cannot
/// detect with its single write already spent.)
fn degraded_rooted_mis(g: &Graph, set: &[NodeId], root: NodeId, dead: &[NodeId]) -> bool {
    let in_set = |v: NodeId| set.contains(&v);
    set.iter().all(|&v| live(v, dead))
        && set
            .iter()
            .all(|&u| set.iter().all(|&v| u == v || !g.has_edge(u, v)))
        && (1..=g.n() as NodeId)
            .filter(|&v| live(v, dead) && !in_set(v))
            .all(|v| {
                set.iter().any(|&u| g.has_edge(u, v)) || (!live(root, dead) && g.has_edge(root, v))
            })
        && (!live(root, dead) || in_set(root))
}

fn build_oracle(
    k: usize,
) -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, Result<Graph, BuildError>> + Send + Sync {
    move |g| {
        let fits = checks::degeneracy(g).0 <= k;
        Box::new(move |out, dead| match out {
            Outcome::Success(Ok(h)) if dead.is_empty() => fits && h == g,
            Outcome::Success(Ok(h)) => reconstruction_sandwich(g, h, dead),
            // With casualties the surviving evidence may look off-class, so
            // robust rejection is acceptable even on in-class inputs.
            Outcome::Success(Err(_)) => !fits || !dead.is_empty(),
            Outcome::Deadlock { .. } => false,
        })
    }
}

fn build_mixed_oracle(
    k: usize,
) -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, Result<Graph, BuildError>> + Send + Sync {
    move |g| {
        let in_class = checks::mixed_elimination(g, k).is_some();
        Box::new(move |out, dead| match out {
            Outcome::Success(Ok(h)) if dead.is_empty() => in_class && h == g,
            Outcome::Success(Ok(h)) => reconstruction_sandwich(g, h, dead),
            Outcome::Success(Err(_)) => !in_class || !dead.is_empty(),
            Outcome::Deadlock { .. } => false,
        })
    }
}

fn naive_oracle() -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, Graph> + Send + Sync {
    |g| {
        Box::new(move |out, dead| match out {
            Outcome::Success(h) if dead.is_empty() => h == g,
            Outcome::Success(h) => reconstruction_sandwich(g, h, dead),
            Outcome::Deadlock { .. } => false,
        })
    }
}

fn mis_oracle(
    root: NodeId,
) -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, Vec<NodeId>> + Send + Sync {
    move |g| {
        Box::new(move |out, dead| match out {
            Outcome::Success(set) if dead.is_empty() => checks::is_rooted_mis(g, set, root),
            Outcome::Success(set) => degraded_rooted_mis(g, set, root, dead),
            Outcome::Deadlock { .. } => false,
        })
    }
}

fn bfs_oracle() -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, checks::BfsForest> + Send + Sync {
    |g| {
        let reference = checks::bfs_forest(g);
        // Free-model degradation: a lost write can strand every node that
        // was waiting on it, so with casualties a deadlock is within
        // contract, and a completed forest built from partial evidence is
        // not refuted against the full-information reference.
        Box::new(move |out, dead| match out {
            Outcome::Success(f) => !dead.is_empty() || *f == reference,
            Outcome::Deadlock { .. } => !dead.is_empty(),
        })
    }
}

fn eob_bfs_oracle() -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, BfsOutput> + Send + Sync {
    |g| {
        let valid = checks::is_even_odd_bipartite(g);
        let reference = valid.then(|| checks::bfs_forest(g));
        Box::new(move |out, dead| match out {
            Outcome::Success(BfsOutput::Forest(f)) => {
                !dead.is_empty() || reference.as_ref() == Some(f)
            }
            Outcome::Success(BfsOutput::NotEvenOddBipartite) => !valid || !dead.is_empty(),
            Outcome::Deadlock { .. } => !dead.is_empty(),
        })
    }
}

/// Completion everywhere, plus the reference forest on bipartite inputs.
/// Off the bipartite promise the protocol deadlocks by design (the Open
/// Problem 3 ablation) — those deadlocks *are* oracle failures, which is
/// exactly what the campaign failure-injection pipeline fishes for; the
/// entry is marked `total: false` so all-graph sweeps know not to demand a
/// clean pass. Crash-induced deadlocks, by contrast, are within contract.
fn async_bipartite_bfs_oracle(
) -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, checks::BfsForest> + Send + Sync {
    |g| {
        let reference = checks::is_bipartite(g).then(|| checks::bfs_forest(g));
        Box::new(move |out, dead| match out {
            Outcome::Success(f) => match &reference {
                Some(r) => !dead.is_empty() || f == r,
                None => true,
            },
            Outcome::Deadlock { .. } => !dead.is_empty(),
        })
    }
}

fn spanning_oracle() -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, SpanningForest> + Send + Sync
{
    |g| {
        let components = checks::components(g);
        Box::new(move |out, dead| match out {
            Outcome::Success(sf) if dead.is_empty() => {
                sf.edges.iter().all(|&(c, p)| g.has_edge(c, p))
                    && sf.edges.len() == g.n() - components.len()
                    && sf.roots.len() == components.len()
                    && checks::components(&Graph::from_edges(g.n(), &sf.edges)) == components
            }
            // Degraded: every surviving parent claim must still be a real
            // edge; completeness is forfeit once a parent write is lost.
            Outcome::Success(sf) => sf.edges.iter().all(|&(c, p)| g.has_edge(c, p)),
            Outcome::Deadlock { .. } => !dead.is_empty(),
        })
    }
}

fn two_cliques_oracle(
) -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, TwoCliquesVerdict> + Send + Sync {
    |g| {
        // §5.1 promise: an (n−1)-regular graph on 2n nodes. Off the promise
        // class the protocol may answer anything (but must still terminate);
        // on it, the verdict must equal ground truth. A casualty removes a
        // row of the evidence, so with crashes either verdict is within
        // contract — only termination remains owed.
        let on_promise = g.n() >= 2 && g.n() % 2 == 0 && g.regular_degree() == Some(g.n() / 2 - 1);
        let truth = checks::is_two_cliques(g);
        Box::new(move |out, dead| match out {
            Outcome::Success(v) => {
                !dead.is_empty() || !on_promise || (*v == TwoCliquesVerdict::TwoCliques) == truth
            }
            Outcome::Deadlock { .. } => false,
        })
    }
}

/// One-sided error (Open Problem 4): genuine two-clique instances must be
/// accepted on every schedule; off the yes-class a false accept is a hash
/// collision the protocol explicitly tolerates, so it is not a failure.
fn two_cliques_rand_oracle(
) -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, TwoCliquesVerdict> + Send + Sync {
    |g| {
        let truth = checks::is_two_cliques(g);
        Box::new(move |out, dead| match out {
            Outcome::Success(v) => {
                !truth || !dead.is_empty() || *v == TwoCliquesVerdict::TwoCliques
            }
            Outcome::Deadlock { .. } => false,
        })
    }
}

fn subgraph_oracle(f: usize) -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, Graph> + Send + Sync {
    move |g| {
        let reference = g.induced_prefix(f.min(g.n()));
        Box::new(move |out, dead| match out {
            Outcome::Success(h) if dead.is_empty() => *h == reference,
            Outcome::Success(h) => reconstruction_sandwich(&reference, h, dead),
            Outcome::Deadlock { .. } => false,
        })
    }
}

fn triangle_oracle() -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, bool> + Send + Sync {
    |g| {
        let truth = checks::has_triangle(g);
        // Degraded one-sidedly: surviving rows are a subgraph of g, so a
        // reported triangle is always real; a miss may be the casualty's.
        Box::new(move |out, dead| match out {
            Outcome::Success(b) if dead.is_empty() => *b == truth,
            Outcome::Success(b) => !*b || truth,
            Outcome::Deadlock { .. } => false,
        })
    }
}

fn square_oracle() -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, bool> + Send + Sync {
    |g| {
        let truth = checks::has_square(g);
        Box::new(move |out, dead| match out {
            Outcome::Success(b) if dead.is_empty() => *b == truth,
            Outcome::Success(b) => !*b || truth,
            Outcome::Deadlock { .. } => false,
        })
    }
}

fn diameter3_oracle() -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, bool> + Send + Sync {
    |g| {
        let truth = matches!(checks::diameter(g), Some(d) if d <= 3);
        // One-sided the other way round from detection: distances over the
        // surviving rows only overestimate, so `diameter ≤ 3` claims stay
        // sound and only affirmative answers are checked.
        Box::new(move |out, dead| match out {
            Outcome::Success(b) if dead.is_empty() => *b == truth,
            Outcome::Success(b) => !*b || truth,
            Outcome::Deadlock { .. } => false,
        })
    }
}

fn connectivity_oracle(
) -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, ConnectivityReport> + Send + Sync {
    |g| {
        let components = checks::components(g).len();
        Box::new(move |out, dead| match out {
            Outcome::Success(rep) => {
                !dead.is_empty()
                    || (rep.connected == (components <= 1) && rep.components == components)
            }
            Outcome::Deadlock { .. } => !dead.is_empty(),
        })
    }
}

fn edge_count_oracle() -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, usize> + Send + Sync {
    |g| {
        Box::new(move |out, dead| match out {
            Outcome::Success(m) if dead.is_empty() => *m == g.m(),
            // Each lost write hides one degree row: the count degrades to a
            // bracket between the fully-surviving edges and the truth.
            Outcome::Success(m) => {
                let floor = g
                    .edges()
                    .filter(|&(u, v)| live(u, dead) && live(v, dead))
                    .count();
                floor <= *m && *m <= g.m()
            }
            Outcome::Deadlock { .. } => false,
        })
    }
}

fn degree_stats_oracle(
) -> impl for<'g> Fn(&'g Graph) -> BoundOracle<'g, DegreeSummary> + Send + Sync {
    |g| {
        let degrees: Vec<usize> = (1..=g.n() as NodeId).map(|v| g.degree(v)).collect();
        Box::new(move |out, dead| match out {
            Outcome::Success(s) if dead.is_empty() => s.degrees == degrees,
            // Survivors' rows must still be exact; casualties' slots are
            // unconstrained (their true degree never reached the board).
            Outcome::Success(s) => {
                s.degrees.len() == degrees.len()
                    && (1..=g.n() as NodeId)
                        .filter(|&v| live(v, dead))
                        .all(|v| s.degrees[v as usize - 1] == degrees[v as usize - 1])
            }
            Outcome::Deadlock { .. } => false,
        })
    }
}

// ---------------------------------------------------------------------------
// Dispatchers.
// ---------------------------------------------------------------------------

/// Resolve `spec` (e.g. `"build:2"`, `"mis:3"`, `"bfs"`) on `n`-node
/// instances and hand the protocol plus its oracle binder to `visitor`.
///
/// `n` only affects instance-dependent defaults (the MIS root is clamped to
/// `1..=n`, matching the historical CLI behavior) and [`check_budget`].
pub fn dispatch<V: ProtocolVisitor>(spec: &str, n: usize, visitor: V) -> Result<V::Result, String> {
    check_budget(spec, n)?;
    let (kind, arg) = split_spec(spec);
    let k = arg.unwrap_or(2).max(1) as usize;
    Ok(match kind {
        "build" => visitor.visit(BuildDegenerate::new(k), build_oracle(k)),
        "build-mixed" => visitor.visit(BuildMixed::new(k), build_mixed_oracle(k)),
        "naive" => visitor.visit(NaiveBuild, naive_oracle()),
        "mis" => {
            let root = (arg.unwrap_or(1) as NodeId).clamp(1, n.max(1) as NodeId);
            visitor.visit(MisGreedy::new(root), mis_oracle(root))
        }
        "bfs" => visitor.visit(SyncBfs, bfs_oracle()),
        "eob-bfs" => visitor.visit(EobBfs, eob_bfs_oracle()),
        "async-bipartite-bfs" => visitor.visit(AsyncBipartiteBfs, async_bipartite_bfs_oracle()),
        "spanning" => visitor.visit(SpanningForestSync, spanning_oracle()),
        "two-cliques" => visitor.visit(TwoCliques, two_cliques_oracle()),
        "two-cliques-rand" => visitor.visit(
            TwoCliquesRandomized::new(arg.unwrap_or(7), 24),
            two_cliques_rand_oracle(),
        ),
        "subgraph" => visitor.visit(SubgraphPrefix::new(k), subgraph_oracle(k)),
        "triangle" => visitor.visit(TriangleFullRow, triangle_oracle()),
        "square" => visitor.visit(SquareFullRow, square_oracle()),
        "diameter3" => visitor.visit(DiameterAtMost3FullRow, diameter3_oracle()),
        "connectivity" => visitor.visit(ConnectivitySync, connectivity_oracle()),
        "edge-count" => visitor.visit(EdgeCount, edge_count_oracle()),
        "degree-stats" => visitor.visit(DegreeStats, degree_stats_oracle()),
        other => return Err(unknown(other)),
    })
}

/// Resolve `spec` for the **bulk tier**: `SIMASYNC` protocols arrive wrapped
/// in [`Oblivious`]; MIS and 2-CLIQUES arrive as their columnar
/// implementations. Free-**native** protocols (BFS, spanning, connectivity)
/// return an error — the bulk engine has no columnar form for them. The
/// resolved protocols, however, run under any *target* model that includes
/// their native one (`run_bulk`'s `model` argument), so `--model sync|async`
/// executions of the simultaneous-native protocols go through here too.
///
/// The oracle binders are the very same values [`dispatch`] uses, so the
/// step and bulk tiers share one definition of correctness per protocol.
pub fn dispatch_bulk<V: BulkVisitor>(
    spec: &str,
    n: usize,
    visitor: V,
) -> Result<V::Result, String> {
    check_budget(spec, n)?;
    let (kind, arg) = split_spec(spec);
    let k = arg.unwrap_or(2).max(1) as usize;
    Ok(match kind {
        "build" => visitor.visit(Oblivious::new(BuildDegenerate::new(k)), build_oracle(k)),
        "build-mixed" => visitor.visit(Oblivious::new(BuildMixed::new(k)), build_mixed_oracle(k)),
        "naive" => visitor.visit(Oblivious::new(NaiveBuild), naive_oracle()),
        "mis" => {
            let root = (arg.unwrap_or(1) as NodeId).clamp(1, n.max(1) as NodeId);
            visitor.visit(MisGreedy::new(root), mis_oracle(root))
        }
        "two-cliques" => visitor.visit(TwoCliques, two_cliques_oracle()),
        "two-cliques-rand" => visitor.visit(
            Oblivious::new(TwoCliquesRandomized::new(arg.unwrap_or(7), 24)),
            two_cliques_rand_oracle(),
        ),
        "subgraph" => visitor.visit(Oblivious::new(SubgraphPrefix::new(k)), subgraph_oracle(k)),
        "triangle" => visitor.visit(Oblivious::new(TriangleFullRow), triangle_oracle()),
        "square" => visitor.visit(Oblivious::new(SquareFullRow), square_oracle()),
        "diameter3" => visitor.visit(Oblivious::new(DiameterAtMost3FullRow), diameter3_oracle()),
        "edge-count" => visitor.visit(Oblivious::new(EdgeCount), edge_count_oracle()),
        "degree-stats" => visitor.visit(Oblivious::new(DegreeStats), degree_stats_oracle()),
        "bfs" | "eob-bfs" | "async-bipartite-bfs" | "spanning" | "connectivity" => {
            let model = info(kind).map_or("a free model", |p| match p.model {
                Model::Sync => "the free model SYNC",
                Model::Async => "the free model ASYNC",
                Model::SimSync => "SIMSYNC",
                Model::SimAsync => "SIMASYNC",
            });
            return Err(format!(
                "protocol '{kind}' runs under {model}; the bulk tier executes \
                 simultaneous-native protocols only (SIMASYNC or SIMSYNC — see \
                 `whiteboard list`)"
            ));
        }
        other => return Err(unknown(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_graph::generators;
    use wb_runtime::bulk::{run_bulk, shuffled_schedule, BulkConfig};
    use wb_runtime::{
        explore_with, run, ExploreConfig, FaultPlan, RandomAdversary, ScheduleAdversary,
    };

    /// Runs the protocol once under a random adversary and applies the
    /// bound oracle to the outcome.
    struct RunOnce<'a> {
        g: &'a Graph,
        seed: u64,
    }

    impl ProtocolVisitor for RunOnce<'_> {
        type Result = bool;
        fn visit<P, B>(self, protocol: P, bind: B) -> bool
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let oracle = bind(self.g);
            let report = run(&protocol, self.g, &mut RandomAdversary::new(self.seed));
            oracle(&report.outcome, &report.crashed)
        }
    }

    /// Bulk-runs the protocol on a seeded schedule and applies the oracle.
    struct BulkOnce<'a> {
        g: &'a Graph,
        seed: u64,
    }

    impl BulkVisitor for BulkOnce<'_> {
        type Result = bool;
        fn visit<P, B>(self, protocol: P, bind: B) -> bool
        where
            P: BulkProtocol + Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let oracle = bind(self.g);
            let schedule = shuffled_schedule(self.g.n(), self.seed);
            let report = run_bulk(&protocol, self.g, &schedule, None, &BulkConfig::default())
                .expect("registry bulk protocols run under their native model");
            oracle(&report.outcome, &[])
        }
    }

    /// Exhaustively explores the protocol under `crash:1`, judging every
    /// terminal (including every choice of casualty) with the fault-aware
    /// oracle. Returns the terminal count and the rendered failures.
    struct ExploreCrash<'a> {
        g: &'a Graph,
    }

    impl ProtocolVisitor for ExploreCrash<'_> {
        type Result = (u64, Vec<String>);
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let oracle = bind(self.g);
            let config = ExploreConfig::default().with_faults(Some(FaultPlan::crash_stop(1)));
            let report = explore_with(&protocol, self.g, &config, |o, died| oracle(o, died));
            assert!(!report.truncated, "crash:1 exploration truncated");
            let failures = report.failures.iter().map(|f| format!("{f:?}")).collect();
            (report.terminals, failures)
        }
    }

    #[test]
    fn every_registered_protocol_dispatches_and_passes_its_oracle() {
        // One mid-size instance per protocol, chosen inside each protocol's
        // promise class, driven end to end through the registry.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let cases: Vec<(&str, Graph)> = vec![
            ("build:2", generators::k_degenerate(30, 2, true, &mut rng)),
            ("build-mixed:2", generators::mixed_low_high(24, 2, &mut rng)),
            ("naive", generators::gnp(16, 0.3, &mut rng)),
            ("mis:3", generators::gnp(25, 0.2, &mut rng)),
            ("bfs", generators::gnp(20, 0.15, &mut rng)),
            (
                "eob-bfs",
                generators::even_odd_bipartite_connected(18, 0.2, &mut rng),
            ),
            (
                "async-bipartite-bfs",
                generators::bipartite_fixed(8, 8, 0.3, &mut rng),
            ),
            ("spanning", generators::gnp(22, 0.12, &mut rng)),
            ("two-cliques", generators::two_cliques(6)),
            ("two-cliques-rand", generators::two_cliques(6)),
            ("subgraph:3", generators::gnp(14, 0.3, &mut rng)),
            ("triangle", generators::clique(5)),
            ("square", generators::cycle(4)),
            ("diameter3", generators::star(9)),
            ("connectivity", generators::two_cliques(5)),
            ("edge-count", generators::gnp(20, 0.2, &mut rng)),
            ("degree-stats", generators::cycle(11)),
        ];
        assert_eq!(cases.len(), PROTOCOLS.len(), "one case per registry entry");
        for (spec, g) in &cases {
            let ok = dispatch(spec, g.n(), RunOnce { g, seed: 7 })
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(ok, "{spec}: oracle rejected a native run on {g:?}");
        }
    }

    #[test]
    fn every_registered_protocol_survives_single_crash_exploration() {
        // Small in-promise instances, every protocol, exhaustive over both
        // schedule AND casualty choice: the degraded oracles must accept
        // every ≤1-crash terminal, and no referee may panic on a partial
        // board.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let cases: Vec<(&str, Graph)> = vec![
            ("build:2", generators::k_degenerate(6, 2, true, &mut rng)),
            ("build-mixed:2", generators::mixed_low_high(6, 2, &mut rng)),
            ("naive", generators::gnp(5, 0.4, &mut rng)),
            ("mis:1", generators::gnp(5, 0.3, &mut rng)),
            ("bfs", generators::path(4)),
            ("eob-bfs", generators::path(4)),
            ("async-bipartite-bfs", generators::path(4)),
            ("spanning", generators::cycle(4)),
            ("two-cliques", generators::two_cliques(3)),
            ("two-cliques-rand", generators::two_cliques(3)),
            ("subgraph:3", generators::gnp(5, 0.4, &mut rng)),
            ("triangle", generators::clique(4)),
            ("square", generators::cycle(4)),
            ("diameter3", generators::star(5)),
            ("connectivity", generators::path(4)),
            // A path's endpoints have odd degree, so a crashed endpoint
            // leaves an odd degree sum — the handshake lemma must not be
            // asserted against a partial board.
            ("edge-count", generators::path(5)),
            ("degree-stats", generators::cycle(5)),
        ];
        assert_eq!(cases.len(), PROTOCOLS.len(), "one case per registry entry");
        for (spec, g) in &cases {
            let (terminals, failures) =
                dispatch(spec, g.n(), ExploreCrash { g }).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(terminals > 0, "{spec}: no terminals");
            assert!(
                failures.is_empty(),
                "{spec}: degraded oracle rejected {} terminals, e.g. {}",
                failures.len(),
                failures[0]
            );
        }
    }

    #[test]
    fn bulk_refusal_names_model_and_alternatives() {
        let probe = |spec: &str| {
            dispatch_bulk(
                spec,
                4,
                BulkOnce {
                    g: &generators::path(4),
                    seed: 0,
                },
            )
            .unwrap_err()
        };
        let err = probe("bfs");
        assert!(err.contains("the free model SYNC"), "{err}");
        assert!(err.contains("SIMASYNC or SIMSYNC"), "{err}");
        assert!(err.contains("simultaneous"), "{err}");
        let err = probe("eob-bfs");
        assert!(err.contains("the free model ASYNC"), "{err}");
    }

    #[test]
    fn bulk_dispatch_covers_exactly_the_simultaneous_entries() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
        for info in PROTOCOLS {
            let g = match info.name {
                "build" | "build-mixed" => generators::k_degenerate(20, 2, true, &mut rng),
                "two-cliques" | "two-cliques-rand" | "connectivity" => generators::two_cliques(5),
                "eob-bfs" => generators::even_odd_bipartite_connected(12, 0.3, &mut rng),
                _ => generators::gnp(18, 0.2, &mut rng),
            };
            let result = dispatch_bulk(info.name, g.n(), BulkOnce { g: &g, seed: 3 });
            if info.bulk {
                assert!(
                    result.as_ref().is_ok_and(|&ok| ok),
                    "{}: expected a passing bulk run, got {result:?}",
                    info.name
                );
                assert!(info.model.is_simultaneous(), "{}", info.name);
            } else {
                assert!(result.is_err(), "{}: free model must be refused", info.name);
            }
        }
    }

    #[test]
    fn both_dispatchers_share_one_oracle_per_protocol() {
        // Same schedule through the step and bulk engines, judged by each
        // dispatcher's oracle: verdicts must agree (here: both pass).
        let g = generators::two_cliques(4);
        let schedule = shuffled_schedule(g.n(), 11);

        struct StepWith<'a> {
            g: &'a Graph,
            schedule: Vec<NodeId>,
        }
        impl ProtocolVisitor for StepWith<'_> {
            type Result = bool;
            fn visit<P, B>(self, protocol: P, bind: B) -> bool
            where
                P: Protocol + Clone + Send + Sync,
                P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
                B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
            {
                let oracle = bind(self.g);
                let report = run(
                    &protocol,
                    self.g,
                    &mut ScheduleAdversary::new(self.schedule),
                );
                oracle(&report.outcome, &report.crashed)
            }
        }

        let step = dispatch(
            "two-cliques",
            g.n(),
            StepWith {
                g: &g,
                schedule: schedule.clone(),
            },
        )
        .unwrap();
        let bulk = dispatch_bulk("two-cliques", g.n(), BulkOnce { g: &g, seed: 11 }).unwrap();
        assert!(step && bulk);
    }

    #[test]
    fn info_lookup_and_unknown_specs() {
        assert_eq!(info("mis").unwrap().paper, "Thm 5");
        assert!(info("nope").is_none());
        assert!(dispatch(
            "nope",
            5,
            RunOnce {
                g: &generators::path(3),
                seed: 0
            }
        )
        .is_err());
        assert!(dispatch_bulk(
            "nope",
            5,
            BulkOnce {
                g: &generators::path(3),
                seed: 0
            }
        )
        .is_err());
    }
}
