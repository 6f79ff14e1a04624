//! Model checking: run a protocol under **every** adversary choice sequence.
//!
//! The paper's positive results are universally quantified over adversaries
//! ("no matter the order chosen by the adversary"). For small instances the
//! quantifier is finite: at each round the adversary picks one of the active
//! nodes, so the choice tree has at most `n!` leaves — most of them redundant
//! interleavings reaching identical configurations.
//!
//! Two executors make the quantifier executable:
//!
//! - The **schedule-space explorer** ([`explore`] / [`explore_parallel`] /
//!   [`assert_explored`]) — a breadth-first walk over generations of
//!   configurations. One generation step serves the sequential explorer
//!   (one worker, inline on the calling thread), the parallel one
//!   (`wb_par::num_threads()` scoped workers) and the certifying walk
//!   (`crate::certificate`, which adds an edge log). It walks the frontier
//!   in order, in batches of parents, each in four phases:
//!   1. *Probe*, over contiguous chunks of parents: each transition — an
//!      awake pick's write, then its crash while a fault budget lasts — is
//!      applied under a savepoint ([`Engine::step_token`]) just long enough
//!      to compute the child's dedup key, sleep mask and terminal flag, then
//!      undone, so a probe costs `O(changed bytes)` instead of
//!      `O(engine size)`.
//!   2. *Dedup*, over shards of the seen-set: a key lives in one shard, one
//!      worker owns a shard, and each shard records its arrivals in global
//!      (parent, transition) order. A key's fate depends only on earlier
//!      arrivals of the same key, so no lock is taken and every verdict
//!      equals the one-worker walk's.
//!   3. *Settle*, on the calling thread in global order: the counters, the
//!      `max_states` stop and the `max_frontier` cut.
//!   4. *Materialize*, on the calling thread in global order, consuming
//!      the parents: each admitted child is rebuilt by re-applying its
//!      transition to a clone of its parent (the parent's last child takes
//!      the parent itself), and terminals reach the caller's check.
//!
//!   Reports are therefore identical for every worker count. Deduplication
//!   keys on a 128-bit [`Engine::canonical_fingerprint`] of the canonical
//!   configuration encoding by default ([`DedupPolicy::Canonical`]), with
//!   exact full-encoding snapshots kept as a verification mode
//!   ([`DedupPolicy::Exact`]). On simultaneous models the `n!` tree
//!   collapses to its DAG of distinct configurations (`2^n` states instead
//!   of `n!` paths for a write-order-oblivious protocol). The result is a
//!   structured [`ExplorationReport`] — schedules, distinct states, dedup
//!   ratio, cap status, and a witness schedule per failure — never a panic
//!   mid-walk.
//! - The **naive recursive DFS** ([`for_each_schedule`]) — walks all leaves
//!   of the schedule tree on a single engine via step → recurse → undo. It
//!   scales factorially but assumes nothing about the protocol, so it is the
//!   correctness anchor: the explorer is cross-checked against it on small
//!   instances (see the tests here and `tests/differential.rs`).
//!
//! # When is deduplication sound?
//!
//! Canonical dedup ([`DedupPolicy::Canonical`] / [`DedupPolicy::Exact`])
//! merges configurations with equal (statuses, frozen messages, board
//! *sorted by writer*). That is sound — preserves the exact set of reachable
//! terminal outcomes — iff the protocol is **order-oblivious**: node state
//! and the output function may depend on the board only through its content,
//! not through the arrival order of the observed prefix. All problem
//! protocols in this repository qualify (their outputs are graphs, sets,
//! forests or counts decoded per-entry), and order-sensitive information
//! that ends up inside message bits (e.g. a "messages seen so far" counter)
//! keeps states apart automatically, because the board content then differs.
//! Two classes genuinely need [`DedupPolicy::Off`] (or the naive DFS):
//! protocols that hide order in private node state without ever writing it,
//! and protocols whose *output is a transcript* — a function of the board's
//! write order even when the content is order-free (the `FrozenSeenCount`
//! toy: every message is `(id, 0)`, but the output lists them in write
//! order, so one merged configuration stands for 24 distinct transcripts).
//! The `canonical_dedup_is_lossy_for_transcript_outputs` test pins this
//! boundary.
//!
//! # Fingerprints vs exact snapshots
//!
//! [`DedupPolicy::Canonical`] probes a 128-bit streaming digest of the
//! canonical encoding: two states merge only if both digest streams agree,
//! which a genuinely different pair does with probability ~`q²/2¹²⁹` over a
//! `q`-state walk — negligible against hardware fault rates for any
//! exploration that fits in memory. The probe allocates nothing and stores
//! 16 bytes per state instead of the whole encoding. [`DedupPolicy::Exact`]
//! keeps the full encodings (collision-free by construction) as the escape
//! hatch for certified runs; `tests/differential.rs` checks the two modes
//! reach identical state counts and outcome sets on every labeled graph up
//! to `n = 5` under all four models.

use crate::certificate::CertificateEdge;
use crate::engine::{CanonicalState, Engine, Outcome, RunReport};
use crate::fault::FaultPlan;
use crate::model::Model;
use crate::protocol::{Commutativity, Protocol};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::str::FromStr;
use std::sync::Mutex;
use wb_graph::{Graph, NodeId};
use wb_par::PassthroughBuildHasher;

// ---------------------------------------------------------------------------
// Explorer configuration and report
// ---------------------------------------------------------------------------

/// How the explorer recognizes already-visited configurations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DedupPolicy {
    /// Merge canonically equal configurations, probed via the streaming
    /// 128-bit [`Engine::canonical_fingerprint`] — the default: no
    /// allocation per probe, 16 bytes stored per state, collision
    /// probability ~`q²/2¹²⁹`. Sound for order-oblivious protocols — the
    /// module docs spell out the condition.
    #[default]
    Canonical,
    /// Merge canonically equal configurations keyed by the full
    /// [`Engine::canonical_state`] encoding: collision-free by
    /// construction, at `O(state)` memory per entry. The verification mode
    /// backing the fingerprint differential tests.
    Exact,
    /// No merging: every schedule prefix is its own state and every leaf of
    /// the `n!` tree is visited. Always sound; factorially slower.
    Off,
}

/// Which sound state-space reductions the explorer layers on top of
/// deduplication. Reductions change *how much work* the walk does, never
/// *what it concludes*: terminal outcomes, terminal counts, and failure
/// verdicts are identical to [`ReductionPolicy::Off`] (pinned by
/// `tests/reduction.rs` on every labeled graph up to `n = 5`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReductionPolicy {
    /// No reduction — the default, byte-identical to builds that predate
    /// this field.
    #[default]
    Off,
    /// Sleep-set dynamic partial-order reduction: skip the second half of
    /// commuting write pairs, as declared by [`Protocol::commutes`] and
    /// refined per model (see the module docs). Self-disables (recorded in
    /// [`ReductionStats::dpor_active`]) when the protocol declares
    /// [`Commutativity::None`], when `n > 64`, or when dedup is off.
    Dpor,
    /// Automorphism quotient: canonicalize every configuration over the
    /// graph automorphisms fixing [`Protocol::pinned_nodes`] before the
    /// seen-set probe, so one orbit representative stands for the whole
    /// orbit. Requires [`Protocol::equivariant`]; terminal orbits are
    /// re-expanded so the outcome multiset still matches the unreduced walk.
    Symmetry,
    /// Both reductions composed.
    DporSymmetry,
}

impl ReductionPolicy {
    /// Whether the policy asks for sleep-set DPOR.
    pub fn wants_dpor(self) -> bool {
        matches!(self, ReductionPolicy::Dpor | ReductionPolicy::DporSymmetry)
    }

    /// Whether the policy asks for the automorphism quotient.
    pub fn wants_symmetry(self) -> bool {
        matches!(
            self,
            ReductionPolicy::Symmetry | ReductionPolicy::DporSymmetry
        )
    }
}

impl FromStr for ReductionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(ReductionPolicy::Off),
            "dpor" => Ok(ReductionPolicy::Dpor),
            "symmetry" => Ok(ReductionPolicy::Symmetry),
            "dpor+symmetry" | "symmetry+dpor" => Ok(ReductionPolicy::DporSymmetry),
            other => Err(format!(
                "unknown reduction policy `{other}` (expected off|dpor|symmetry|dpor+symmetry)"
            )),
        }
    }
}

impl fmt::Display for ReductionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReductionPolicy::Off => "off",
            ReductionPolicy::Dpor => "dpor",
            ReductionPolicy::Symmetry => "symmetry",
            ReductionPolicy::DporSymmetry => "dpor+symmetry",
        })
    }
}

/// Per-technique accounting of what a reduction avoided, attached to
/// [`ExplorationReport::reduction`] whenever the policy is not `Off`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// The requested policy.
    pub policy: ReductionPolicy,
    /// Whether DPOR actually armed (requested *and* the protocol declares a
    /// usable independence relation, `n ≤ 64`, dedup on).
    pub dpor_active: bool,
    /// Whether the automorphism quotient actually armed (requested *and*
    /// the protocol is equivariant, dedup on, and the pinned stabilizer was
    /// enumerated completely with order > 1).
    pub symmetry_active: bool,
    /// Order of the automorphism group used (identity included); 0 when
    /// symmetry is inactive.
    pub group_order: u64,
    /// Transitions never generated because their pick was in the sleep set.
    pub sleep_skipped: u64,
    /// Terminal configurations reported via orbit expansion instead of
    /// being explored separately.
    pub orbit_terminals: u64,
    /// Frontier re-expansions forced by a sleep-set wake-up (a state was
    /// revisited with a strictly smaller sleep set).
    pub reexpansions: u64,
}

/// Tuning knobs for [`explore`]. The defaults explore up to a million
/// distinct states with fingerprinted canonical dedup.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Cap on distinct configurations discovered; exceeding it sets
    /// [`ExplorationReport::truncated`] instead of panicking.
    pub max_states: u64,
    /// Bound on the frontier (configurations awaiting expansion); overflow
    /// also sets `truncated`.
    pub max_frontier: usize,
    /// State-merging policy.
    pub dedup: DedupPolicy,
    /// Fault plan to quantify over: at every pick with remaining budget the
    /// explorer additionally branches into "this write dies"
    /// ([`Engine::step_crash`]), so the walk covers every choice of which
    /// ≤ `f` writes are lost on top of every write order. `None` — and any
    /// [`FaultPlan::is_inert`] plan — explores exactly the fault-free space,
    /// byte-identical to a build without this field.
    pub faults: Option<FaultPlan>,
    /// Sound state-space reductions (sleep-set DPOR and/or the automorphism
    /// quotient). Reductions piggyback on the seen-set, so they silently
    /// stay off under [`DedupPolicy::Off`] — the report's
    /// [`ExplorationReport::reduction`] block records what actually armed.
    pub reduction: ReductionPolicy,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 1 << 20,
            max_frontier: 1 << 16,
            dedup: DedupPolicy::Canonical,
            faults: None,
            reduction: ReductionPolicy::Off,
        }
    }
}

impl ExploreConfig {
    /// Default config with a different state cap.
    pub fn with_max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }

    /// Default config with a different frontier bound.
    pub fn with_max_frontier(mut self, max_frontier: usize) -> Self {
        self.max_frontier = max_frontier;
        self
    }

    /// Select a state-merging policy.
    pub fn with_dedup(mut self, dedup: DedupPolicy) -> Self {
        self.dedup = dedup;
        self
    }

    /// Exact-snapshot dedup (collision-free verification mode).
    pub fn exact(self) -> Self {
        self.with_dedup(DedupPolicy::Exact)
    }

    /// Disable state merging (always sound, factorially slower).
    pub fn without_dedup(self) -> Self {
        self.with_dedup(DedupPolicy::Off)
    }

    /// Quantify over a fault plan (see [`ExploreConfig::faults`]).
    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Select a state-space reduction policy (see [`ReductionPolicy`]).
    pub fn with_reduction(mut self, reduction: ReductionPolicy) -> Self {
        self.reduction = reduction;
        self
    }

    /// The effective fault budget: 0 when no plan is set or the plan is
    /// inert — exactly the condition for taking the fault-free fast path.
    pub fn fault_budget(&self) -> usize {
        self.faults.map(|p| p.budget()).unwrap_or(0)
    }
}

/// A terminal configuration that violated the caller's predicate, with the
/// adversary's write order as the replayable counterexample.
#[derive(Clone, Debug)]
pub struct ScheduleFailure<O> {
    /// The adversary's picks, in order — feed to
    /// [`crate::adversary::ScheduleAdversary`] to replay the run (crashed
    /// picks included; [`Self::died`] marks which of them to replay via
    /// [`Engine::step_crash`]).
    pub schedule: Vec<NodeId>,
    /// Picks whose write was dropped by the fault plan, in crash order.
    /// Empty for fault-free explorations.
    pub died: Vec<NodeId>,
    /// What the run ended in.
    pub outcome: Outcome<O>,
}

/// Structured result of a schedule-space exploration.
#[derive(Clone, Debug)]
pub struct ExplorationReport<O> {
    /// Distinct configurations discovered (root, internal, and terminal).
    pub distinct_states: u64,
    /// Distinct terminal configurations reached and checked.
    pub terminals: u64,
    /// Transitions that landed on an already-discovered configuration. With
    /// [`DedupPolicy::Off`] this is always 0.
    pub merged: u64,
    /// Whether a cap (`max_states` / `max_frontier`) cut the walk short. A
    /// truncated exploration is a partial result, never a proof.
    pub truncated: bool,
    /// High-water mark of the frontier.
    pub peak_frontier: usize,
    /// One outcome per distinct terminal *configuration*. Different
    /// configurations may produce equal outputs, so this can contain
    /// duplicates — set-ify before counting outcomes. The order is the
    /// deterministic discovery order, the same for the sequential and the
    /// parallel explorer.
    pub outcomes: Vec<Outcome<O>>,
    /// Terminal configurations whose outcome failed the predicate, each with
    /// a witness schedule.
    pub failures: Vec<ScheduleFailure<O>>,
    /// Reduction accounting: `Some` exactly when the config asked for a
    /// policy other than [`ReductionPolicy::Off`] (so default explorations
    /// stay byte-identical to builds that predate reductions).
    pub reduction: Option<ReductionStats>,
}

impl<O> ExplorationReport<O> {
    /// Whether the exploration is both complete and failure-free.
    pub fn passed(&self) -> bool {
        !self.truncated && self.failures.is_empty()
    }

    /// Configurations generated by the walk: every probed transition target,
    /// whether it survived (`distinct_states`) or merged. This is the
    /// quantity reductions shrink — distinct states and outcomes stay put.
    pub fn generated(&self) -> u64 {
        self.distinct_states + self.merged
    }

    /// Transitions explored per distinct state — how much of the schedule
    /// tree collapsed. 1.0 means no sharing; `k` means each state was
    /// reached `k` ways on average. An empty exploration (zero states)
    /// reports 1.0 rather than dividing by zero.
    pub fn dedup_ratio(&self) -> f64 {
        if self.distinct_states == 0 {
            return 1.0;
        }
        (self.distinct_states + self.merged) as f64 / self.distinct_states as f64
    }

    /// Distinct states discovered per second of wall time. Guards both
    /// degenerate corners — zero states and a zero (or negative, or NaN)
    /// duration — by reporting 0.0 instead of an infinity or NaN, so the
    /// value is always safe to serialize into the JSON reports the CLI and
    /// benchmark binaries emit.
    pub fn states_per_sec(&self, wall_sec: f64) -> f64 {
        if self.distinct_states == 0 || !(wall_sec > 0.0) {
            return 0.0;
        }
        self.distinct_states as f64 / wall_sec
    }
}

// ---------------------------------------------------------------------------
// Reductions: independence masks and the automorphism quotient
// ---------------------------------------------------------------------------

/// Enumeration cap for the pinned automorphism stabilizer: `|S₈| = 40320`,
/// enough for every benchmark family (clique-9 pins down to `8!`) while
/// bounding per-probe canonicalization work. A capped enumeration is *not a
/// group* (it is not closed under composition), and quotienting by a
/// non-group is unsound — so exceeding the cap disarms symmetry entirely
/// instead of using the partial set.
const AUT_CAP: usize = 40_320;

/// One automorphism as a forward/inverse relabeling pair
/// (`fwd[v-1]` = new ID of old node `v`).
struct PermPair {
    fwd: Vec<NodeId>,
    inv: Vec<NodeId>,
}

/// The non-identity elements of the pinned automorphism stabilizer.
struct SymQuotient {
    perms: Vec<PermPair>,
    /// Group order, identity included.
    order: u64,
}

/// Everything the expander needs to apply the configured reductions; built
/// once per exploration. Both parts are `None` when the corresponding
/// technique did not arm (policy off, protocol ineligible, dedup off).
struct Reduction {
    /// `indep[u-1]` = bitmask of nodes whose writes commute with `u`'s
    /// (bit `v-1` = node `v`). Present iff sleep-set DPOR armed.
    indep: Option<Vec<u64>>,
    /// Present iff the automorphism quotient armed.
    sym: Option<SymQuotient>,
    /// Whether dedup keys are exact snapshots (orbit members must then be
    /// compared by full state, not by fingerprint).
    exact: bool,
}

impl Reduction {
    /// An inert reduction: the explorer behaves exactly as if the policy
    /// were [`ReductionPolicy::Off`].
    fn inert(config: &ExploreConfig) -> Self {
        Reduction {
            indep: None,
            sym: None,
            exact: config.dedup == DedupPolicy::Exact,
        }
    }

    /// Derive the independence relation and automorphism quotient for this
    /// exploration, arming each technique only when it is sound:
    ///
    /// - DPOR needs a declared commutativity class, `n ≤ 64` (sleep sets are
    ///   node bitmasks), and dedup on (pruned transitions are exactly the
    ///   ones that would have merged — without a seen-set the equivalence
    ///   argument collapses).
    /// - Under `SIMASYNC` every message is frozen at time 0 and delivery is
    ///   skipped, so the configuration is a function of the written/crashed
    ///   *sets*: commutativity upgrades to [`Commutativity::All`] no matter
    ///   what the protocol declares.
    /// - Under `ASYNC` a common neighbor `w` of non-adjacent `u, v` freezes
    ///   its message at whichever write activates it first, so `u` and `v`
    ///   only commute when they also share no neighbor (distance > 2).
    /// - Symmetry needs equivariance, dedup on, and a completely enumerated
    ///   stabilizer of order > 1.
    fn build<P: Protocol>(protocol: &P, g: &Graph, config: &ExploreConfig) -> Self {
        let mut red = Reduction::inert(config);
        let policy = config.reduction;
        if policy == ReductionPolicy::Off || config.dedup == DedupPolicy::Off {
            return red;
        }
        let n = g.n();
        if policy.wants_dpor() && n <= 64 {
            let commutes = match protocol.model() {
                Model::SimAsync => Commutativity::All,
                _ => protocol.commutes(),
            };
            if commutes != Commutativity::None {
                let distance_two_dependent = protocol.model() == Model::Async;
                let masks = (1..=n as NodeId)
                    .map(|u| {
                        let mut mask = 0u64;
                        for v in 1..=n as NodeId {
                            let independent = v != u
                                && match commutes {
                                    Commutativity::All => true,
                                    Commutativity::NonAdjacent => {
                                        !g.has_edge(u, v)
                                            && (!distance_two_dependent
                                                || (1..=n as NodeId).all(|w| {
                                                    !(g.has_edge(u, w) && g.has_edge(v, w))
                                                }))
                                    }
                                    Commutativity::None => unreachable!(),
                                };
                            if independent {
                                mask |= 1u64 << (v - 1);
                            }
                        }
                        mask
                    })
                    .collect();
                red.indep = Some(masks);
            }
        }
        if policy.wants_symmetry() && protocol.equivariant() {
            let group = wb_graph::automorphism::stabilizer(g, &protocol.pinned_nodes(), AUT_CAP);
            if group.complete() && group.order() > 1 {
                let perms = group.elements()[1..]
                    .iter()
                    .map(|fwd| {
                        let mut inv = vec![0 as NodeId; fwd.len()];
                        for (i, &img) in fwd.iter().enumerate() {
                            inv[img as usize - 1] = (i + 1) as NodeId;
                        }
                        PermPair {
                            fwd: fwd.clone(),
                            inv,
                        }
                    })
                    .collect();
                red.sym = Some(SymQuotient {
                    perms,
                    order: group.order(),
                });
            }
        }
        red
    }

    /// Orbit-canonical fingerprint: the minimum over the automorphism group
    /// of the relabeled configuration's fingerprint, plus the minimizing
    /// permutation's index (`None` = identity; see [`Self::perm`]) so sleep
    /// masks can be carried into the canonical frame. Without symmetry this
    /// is the plain fingerprint.
    fn fp_key<P: Protocol>(&self, engine: &Engine<P>) -> (u128, Option<u32>) {
        let mut best = engine.canonical_fingerprint().as_u128();
        let mut best_perm = None;
        if let Some(sym) = &self.sym {
            for (i, pp) in sym.perms.iter().enumerate() {
                let fp = engine.permuted_fingerprint(&pp.fwd, &pp.inv).as_u128();
                if fp < best {
                    best = fp;
                    best_perm = Some(i as u32);
                }
            }
        }
        (best, best_perm)
    }

    /// Orbit-canonical exact key: lexicographically minimal relabeled
    /// canonical encoding (collision-free counterpart of [`Self::fp_key`]).
    fn exact_key<P: Protocol>(&self, engine: &Engine<P>) -> (CanonicalState, Option<u32>) {
        let mut best = engine.canonical_state();
        let mut best_perm = None;
        if let Some(sym) = &self.sym {
            for (i, pp) in sym.perms.iter().enumerate() {
                let state = engine.permuted_state(&pp.fwd, &pp.inv);
                if state < best {
                    best = state;
                    best_perm = Some(i as u32);
                }
            }
        }
        (best, best_perm)
    }

    /// The automorphism a key was minimized under (`None` = identity).
    fn perm(&self, index: Option<u32>) -> Option<&PermPair> {
        Some(&self.sym.as_ref()?.perms[index? as usize])
    }

    /// Relabel a node bitmask through a permutation (bit `v-1` → bit
    /// `perm[v-1]-1`).
    fn map_mask(mask: u64, perm: &[NodeId]) -> u64 {
        let mut out = 0u64;
        let mut rest = mask;
        while rest != 0 {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            out |= 1u64 << (perm[bit] - 1);
        }
        out
    }
}

/// A sleep mask in the arriving engine's labeling, mapped into the canonical
/// frame the seen-map stores masks in.
fn to_canonical_frame(sleep: u64, perm: Option<&PermPair>) -> u64 {
    match perm {
        Some(pp) => Reduction::map_mask(sleep, &pp.fwd),
        None => sleep,
    }
}

// ---------------------------------------------------------------------------
// The generation step
// ---------------------------------------------------------------------------

/// What recording one arrival did to the seen structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MaskMerge {
    /// First visit: the arrival's sleep mask was stored as-is.
    Inserted,
    /// Already seen, and the stored sleep mask was already a subset of the
    /// arrival's: nothing left to do under it.
    Subset,
    /// Already seen, but the intersection strictly shrank the stored mask:
    /// the payload names the cleared bits (`old & !arrival`), the picks
    /// earlier visits never explored, which must now be re-expanded.
    Shrunk(u64),
}

/// A seen-set key: the 128-bit fingerprint ([`DedupPolicy::Canonical`]) or
/// the exact encoding ([`DedupPolicy::Exact`]), orbit-canonical when the
/// symmetry quotient is armed.
trait DedupKey: Eq + Hash + Send + Sized {
    /// The seen-set hasher: fingerprints are already uniformly mixed, so
    /// they skip SipHash.
    type Hasher: BuildHasher + Default + Send;

    /// The key of `engine`'s configuration, plus the automorphism that
    /// minimized it (an index into the quotient's elements; `None` is the
    /// identity).
    fn of<P: Protocol>(red: &Reduction, engine: &Engine<P>) -> (Self, Option<u32>);

    /// Well-mixed bits choosing the key's shard: a pure function of the
    /// key, so orbit-canonical keys shard the same whichever orbit member
    /// was probed.
    fn route(&self) -> u64;
}

impl DedupKey for u128 {
    type Hasher = PassthroughBuildHasher;

    fn of<P: Protocol>(red: &Reduction, engine: &Engine<P>) -> (Self, Option<u32>) {
        red.fp_key(engine)
    }

    fn route(&self) -> u64 {
        (*self >> 64) as u64
    }
}

impl DedupKey for CanonicalState {
    type Hasher = std::collections::hash_map::RandomState;

    fn of<P: Protocol>(red: &Reduction, engine: &Engine<P>) -> (Self, Option<u32>) {
        red.exact_key(engine)
    }

    fn route(&self) -> u64 {
        self.shard_key()
    }
}

/// One shard of the seen structure. A key lives in the shard its
/// [`DedupKey::route`] picks, and one worker at a time owns a shard, so no
/// lock guards it. The sleep-mask map is chosen only when DPOR armed (an
/// entry holds the intersection of the sleep sets its configuration was
/// reached with); otherwise the plain set keeps the unreduced walk lean.
enum Shard<K: DedupKey> {
    Set(HashSet<K, K::Hasher>),
    Map(HashMap<K, u64, K::Hasher>),
}

impl<K: DedupKey> Shard<K> {
    fn new(sleep_sets: bool) -> Self {
        if sleep_sets {
            Shard::Map(HashMap::default())
        } else {
            Shard::Set(HashSet::default())
        }
    }

    /// Record one arrival whose sleep mask, in the canonical frame, is
    /// `sleep` (ignored by the plain set).
    fn admit(&mut self, key: K, sleep: u64) -> MaskMerge {
        match self {
            Shard::Set(set) => {
                if set.insert(key) {
                    MaskMerge::Inserted
                } else {
                    MaskMerge::Subset
                }
            }
            Shard::Map(map) => match map.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(sleep);
                    MaskMerge::Inserted
                }
                Entry::Occupied(mut slot) => {
                    let old = *slot.get();
                    let new = old & sleep;
                    if new == old {
                        MaskMerge::Subset
                    } else {
                        slot.insert(new);
                        MaskMerge::Shrunk(old & !sleep)
                    }
                }
            },
        }
    }
}

/// A frontier entry: a post-activation engine plus its DPOR context. `sleep`
/// is the sleep mask (bit `v-1` set = node `v`'s transitions are covered by
/// a sibling branch); `restrict` narrows a wake-up re-expansion to the
/// freshly woken picks (`u64::MAX` for ordinary expansions). Both stay
/// `0`/`MAX` when DPOR is off, making this a plain engine wrapper.
struct Pending<'a, P: Protocol> {
    engine: Engine<'a, P>,
    sleep: u64,
    restrict: u64,
}

impl<'a, P: Protocol> Pending<'a, P> {
    fn root(engine: Engine<'a, P>) -> Self {
        Pending {
            engine,
            sleep: 0,
            restrict: u64::MAX,
        }
    }
}

/// One transition of a frontier parent: found by the probe phase, judged by
/// the settle phase.
struct Move {
    pick: NodeId,
    /// Whether the pick's write dies (the fault branch).
    crash: bool,
    /// Whether the child has no active node.
    terminal: bool,
    /// Sleeping picks the parent passed right before this move (counted on
    /// ordinary expansions only).
    skipped: u32,
    /// The seen-set shard of the child's key.
    shard: u32,
    /// The child's sleep mask, in the parent's labeling.
    sleep: u64,
    /// The settle phase's verdict: 0 = no child; otherwise the child's
    /// `restrict` mask (`u64::MAX` for a first visit, which is also how an
    /// admitted terminal is marked).
    restrict: u64,
}

/// One probed transition as its key's shard sees it.
struct Arrival<K> {
    key: K,
    /// The child's sleep mask in the canonical frame.
    sleep: u64,
    /// The automorphism the key was minimized under.
    perm: Option<u32>,
}

/// What the probe phase learned about one contiguous chunk of the frontier.
struct Probed<K> {
    /// Per parent: the end of its moves in `moves`, and the sleeping picks
    /// it passes after its last move.
    parents: Vec<(usize, u32)>,
    moves: Vec<Move>,
    /// Per seen-set shard: the keys of this chunk's moves that route there,
    /// in move order.
    arrivals: Vec<Vec<Arrival<K>>>,
    /// With an edge log only: each parent's fingerprint, and each move's
    /// child's.
    from: Vec<u128>,
    to: Vec<u128>,
}

/// What the materialize phase has built so far, in global order.
struct Made<'a, P: Protocol> {
    /// Terminals not yet handed to the caller's check.
    leaves: Vec<RunReport<P::Output>>,
    /// The next frontier.
    children: Vec<Pending<'a, P>>,
    orbit_terminals: u64,
}

/// The certifying walk's record of the transition graph, filled by the
/// settle phase in global order.
#[derive(Default)]
pub(crate) struct EdgeLog {
    /// Fingerprint of the initial configuration.
    pub(crate) initial: u128,
    /// Every transition the walk took.
    pub(crate) edges: Vec<CertificateEdge>,
    /// Each judged terminal's fingerprint, in the order the walk judges it.
    pub(crate) terminals: Vec<u128>,
}

/// How many workers run a generation's parallel phases.
trait Width {
    fn width(&self) -> usize;
}

/// Run `f` over `items` on the walk's workers, results in item order.
trait Fan<T, R>: Width {
    fn fan(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>;
}

/// One worker, inline on the calling thread: no `Send` bound on anything,
/// so the sequential and certifying walks keep their plain trait bounds.
struct Inline;

impl Width for Inline {
    fn width(&self) -> usize {
        1
    }
}

impl<T, R> Fan<T, R> for Inline {
    fn fan(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        items.into_iter().map(f).collect()
    }
}

/// A pool of scoped workers of the given width.
struct Workers(usize);

impl Width for Workers {
    fn width(&self) -> usize {
        self.0.max(1)
    }
}

impl<T: Send, R: Send> Fan<T, R> for Workers {
    fn fan(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        if self.width() == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Each slot is taken by exactly one worker, so its lock is never
        // contended; it only lets an owned item cross to that worker.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        wb_par::par_stripes_with(self.width(), slots.len(), |i| {
            let item = slots[i]
                .lock()
                .expect("no slot lock is held across a panic")
                .take();
            f(item.expect("each item is taken once"))
        })
    }
}

/// Split `items` into `parts` contiguous chunks of near-equal length.
fn split<T>(mut items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    if parts <= 1 {
        return vec![items];
    }
    let len = items.len();
    let mut chunks: Vec<Vec<T>> = (1..parts)
        .rev()
        .map(|i| items.split_off(i * len / parts))
        .collect();
    chunks.push(items);
    chunks.reverse();
    chunks
}

/// Take one transition: `pick`'s write, or its crash. On simultaneous models
/// a write is applied **write-only** unless `deliver` asks for the
/// observation fan-out: the canonical encoding (statuses, frozen messages,
/// board) is final right after the write, the activation phase is a no-op,
/// and observation only mutates private node state — so probes, and
/// terminals (whose report reads only board and write order), skip the
/// fan-out. A crash puts nothing on the board, so it has nothing to
/// deliver; free models observe before the activation phase as usual.
fn apply<P: Protocol>(engine: &mut Engine<'_, P>, pick: NodeId, crash: bool, deliver: bool) {
    if crash {
        engine.step_crash(pick);
        engine.activation_phase();
    } else if engine.is_simultaneous() {
        engine.step_unobserved(pick);
        if deliver {
            engine.deliver_last_entry();
        }
    } else {
        engine.step(pick);
        engine.activation_phase();
    }
}

/// Report a terminal configuration into `leaves`, expanding its orbit when
/// the symmetry quotient is armed: the quotient merged every orbit member
/// into the representative that got probed, but the unreduced walk would
/// have reported each member as its own terminal — so the siblings follow
/// as relabeled reports (deduplicated within the orbit, since stabilizer
/// elements map the configuration to itself). Equivariance guarantees each
/// sibling is genuinely reachable, via the relabeled schedule the report
/// carries. Returns the number of siblings.
fn emit_leaf<P: Protocol>(
    engine: Engine<'_, P>,
    red: &Reduction,
    leaves: &mut Vec<RunReport<P::Output>>,
) -> u64 {
    let mut siblings = Vec::new();
    if let Some(sym) = &red.sym {
        if red.exact {
            let mut orbit = HashSet::from([engine.canonical_state()]);
            for pp in &sym.perms {
                if orbit.insert(engine.permuted_state(&pp.fwd, &pp.inv)) {
                    siblings.push(engine.permuted_report(&pp.fwd));
                }
            }
        } else {
            let mut orbit = HashSet::from([engine.canonical_fingerprint().as_u128()]);
            for pp in &sym.perms {
                if orbit.insert(engine.permuted_fingerprint(&pp.fwd, &pp.inv).as_u128()) {
                    siblings.push(engine.permuted_report(&pp.fwd));
                }
            }
        }
    }
    leaves.push(engine.finish());
    let count = siblings.len() as u64;
    leaves.append(&mut siblings);
    count
}

/// The read-only context of a walk's phases.
struct Step<'r> {
    red: &'r Reduction,
    fault_budget: usize,
    /// Seen-set shards; 0 with dedup off, where every child is new.
    shards: usize,
    /// Whether an edge log wants fingerprints.
    log: bool,
}

impl Step<'_> {
    /// The seen-set shard `key` lives in.
    fn shard_of<K: DedupKey>(&self, key: &K) -> usize {
        if self.shards > 1 {
            (key.route() % self.shards as u64) as usize
        } else {
            0
        }
    }

    /// Phase 1 over one chunk: for every parent, for every awake pick, take
    /// its transitions in turn — its write, then its crash while the fault
    /// budget lasts — each under a savepoint: apply, key the child, undo.
    /// A probe costs `O(changed bytes)`, not `O(engine size)`, and each
    /// parent's journal is freed once its probes are done.
    ///
    /// A sleeping pick skips *both* of its transitions: crash(v) writes
    /// nothing, so it commutes with at least everything write(v) commutes
    /// with, and reordering it never changes how much crash budget remains.
    fn probe<K: DedupKey, P: Protocol>(&self, parents: &mut [Pending<'_, P>]) -> Probed<K> {
        let mut out = Probed {
            parents: Vec::with_capacity(parents.len()),
            moves: Vec::new(),
            arrivals: (0..self.shards).map(|_| Vec::new()).collect(),
            from: Vec::new(),
            to: Vec::new(),
        };
        let dpor = self.red.indep.is_some();
        let indep = self.red.indep.as_deref().unwrap_or(&[]);
        for Pending {
            engine,
            sleep,
            restrict,
        } in parents
        {
            let (sleep, restrict) = (*sleep, *restrict);
            if self.log {
                out.from.push(engine.canonical_fingerprint().as_u128());
            }
            let per_pick = 1 + usize::from(engine.crashed_count() < self.fault_budget);
            // Picks expanded so far, as a mask: a later pick's child may
            // sleep on them exactly when they are independent of it.
            let mut explored = 0u64;
            let mut skipped = 0u32;
            // Iterate IDs and re-check activity instead of materializing the
            // active set: each undo restores the statuses this loop started
            // from.
            for pick in 1..=engine.node_count() as NodeId {
                if !engine.is_active(pick) {
                    continue;
                }
                if dpor {
                    let bit = 1u64 << (pick - 1);
                    if restrict & bit == 0 {
                        continue;
                    }
                    if sleep & bit != 0 {
                        if restrict == u64::MAX {
                            skipped += 1;
                        }
                        continue;
                    }
                }
                let child_sleep = if dpor {
                    (sleep | explored) & indep[pick as usize - 1]
                } else {
                    0
                };
                for &crash in &[false, true][..per_pick] {
                    let token = engine.step_token();
                    apply(engine, pick, crash, false);
                    let mut shard = 0;
                    if self.shards > 0 {
                        let (key, perm) = K::of(self.red, engine);
                        shard = self.shard_of(&key);
                        out.arrivals[shard].push(Arrival {
                            key,
                            sleep: to_canonical_frame(child_sleep, self.red.perm(perm)),
                            perm,
                        });
                    }
                    if self.log {
                        out.to.push(engine.canonical_fingerprint().as_u128());
                    }
                    out.moves.push(Move {
                        pick,
                        crash,
                        terminal: !engine.has_active(),
                        skipped,
                        shard: shard as u32,
                        sleep: child_sleep,
                        restrict: 0,
                    });
                    skipped = 0;
                    engine.undo(token);
                }
                if dpor {
                    explored |= 1u64 << (pick - 1);
                }
            }
            out.parents.push((out.moves.len(), skipped));
            engine.release_journal();
        }
        out
    }

    /// Phase 2 over one shard: record its arrivals in global order. A key's
    /// fate depends only on earlier arrivals of the same key, all of which
    /// are in this shard, so every fate equals the one-worker walk's.
    fn dedup<K: DedupKey>(
        &self,
        shard: &mut Shard<K>,
        arrivals: Vec<Vec<Arrival<K>>>,
    ) -> Vec<MaskMerge> {
        let mut fates = Vec::with_capacity(arrivals.iter().map(Vec::len).sum());
        for Arrival { key, sleep, perm } in arrivals.into_iter().flatten() {
            fates.push(match shard.admit(key, sleep) {
                // Woken picks go back into the arrival's labeling.
                MaskMerge::Shrunk(woken) => MaskMerge::Shrunk(match self.red.perm(perm) {
                    Some(pp) => Reduction::map_mask(woken, &pp.inv),
                    None => woken,
                }),
                fate => fate,
            });
        }
        fates
    }

    /// Phase 4 over one chunk, on the calling thread, consuming its
    /// parents: rebuild each admitted child by re-applying its transition
    /// to a clone of the parent, the parent's last admitted child taking
    /// the parent itself.
    fn materialize<'a, K, P: Protocol>(
        &self,
        parents: Vec<Pending<'a, P>>,
        probed: Probed<K>,
        made: &mut Made<'a, P>,
    ) {
        let mut start = 0;
        for (parent, &(end, _)) in parents.into_iter().zip(&probed.parents) {
            let moves = &probed.moves[start..end];
            start = end;
            let Some(last) = moves.iter().rposition(|m| m.restrict != 0) else {
                continue;
            };
            for mv in moves[..last].iter().filter(|m| m.restrict != 0) {
                self.make(parent.engine.clone(), mv, made);
            }
            let mut engine = parent.engine;
            engine.make_room();
            self.make(engine, &moves[last], made);
        }
    }

    fn make<'a, P: Protocol>(&self, mut engine: Engine<'a, P>, mv: &Move, made: &mut Made<'a, P>) {
        apply(&mut engine, mv.pick, mv.crash, !mv.terminal);
        if mv.terminal {
            made.orbit_terminals += emit_leaf(engine, self.red, &mut made.leaves);
        } else {
            made.children.push(Pending {
                engine,
                sleep: mv.sleep,
                restrict: mv.restrict,
            });
        }
    }
}

/// The walk's counters and caps, which only the settle phase updates.
struct Tally {
    distinct: u64,
    merged: u64,
    sleep_skipped: u64,
    reexpansions: u64,
    /// Set once `max_states` is exceeded: from then on no parent takes a
    /// transition.
    stopped: bool,
    max_states: u64,
    /// Children admitted to the next frontier in this generation.
    next: usize,
    max_frontier: usize,
    /// Set when `max_frontier` cut this generation: the children past the
    /// cap are dropped, the parent it happened in is finished, and the
    /// later parents are left untouched.
    cut: bool,
    /// Whether a fault plan is in force (see the hand-off rule in
    /// [`Tally::settle`]).
    faulted: bool,
}

impl Tally {
    /// Phase 3, on the calling thread: judge every move of a batch in global
    /// (parent, transition) order, marking admitted children in
    /// `Move::restrict`. `fates` holds each shard's verdicts in that order.
    ///
    /// `sleep_skipped` counts the sleeping picks a parent passes, in order,
    /// up to the stop check before each transition. When a fault-free
    /// parent's last transition is a fresh interior child, the count ends
    /// there (that walk handed its engine to the child); a faulted parent
    /// also counts the sleeping picks after it. `tests/golden_reports.rs`
    /// pins both rules.
    fn settle<K, T>(
        &mut self,
        chunks: &mut [(T, Probed<K>)],
        fates: Vec<Vec<MaskMerge>>,
        mut log: Option<&mut EdgeLog>,
    ) {
        let mut fates: Vec<_> = fates.into_iter().map(Vec::into_iter).collect();
        for (_, probed) in chunks.iter_mut() {
            let Probed {
                parents,
                moves,
                from,
                to,
                ..
            } = probed;
            let mut start = 0;
            for (p, &(end, tail)) in parents.iter().enumerate() {
                if self.cut {
                    return;
                }
                let count = end - start;
                let mut count_tail = true;
                for (i, mv) in moves[start..end].iter_mut().enumerate() {
                    self.sleep_skipped += u64::from(mv.skipped);
                    // The walk's stop check, before each transition.
                    if self.stopped {
                        count_tail = false;
                        break;
                    }
                    let fate = match fates.get_mut(mv.shard as usize) {
                        Some(shard) => shard.next().expect("one fate per arrival"),
                        None => MaskMerge::Inserted,
                    };
                    if let Some(log) = log.as_deref_mut() {
                        log.edges.push(CertificateEdge {
                            from: from[p],
                            writer: mv.pick,
                            crash: mv.crash,
                            to: to[start + i],
                        });
                    }
                    let woken = match fate {
                        MaskMerge::Inserted => {
                            self.distinct += 1;
                            if self.distinct > self.max_states {
                                self.stopped = true;
                                None
                            } else if mv.terminal {
                                mv.restrict = u64::MAX;
                                if let Some(log) = log.as_deref_mut() {
                                    log.terminals.push(to[start + i]);
                                }
                                None
                            } else {
                                Some(u64::MAX)
                            }
                        }
                        MaskMerge::Subset => {
                            self.merged += 1;
                            None
                        }
                        MaskMerge::Shrunk(woken) => {
                            self.merged += 1;
                            (!mv.terminal).then(|| {
                                self.reexpansions += 1;
                                woken
                            })
                        }
                    };
                    if let Some(woken) = woken {
                        if self.next < self.max_frontier {
                            self.next += 1;
                            mv.restrict = woken;
                        } else {
                            self.cut = true;
                        }
                        if i + 1 == count && woken == u64::MAX && !self.faulted {
                            count_tail = false;
                        }
                    }
                }
                if count_tail {
                    self.sleep_skipped += u64::from(tail);
                }
                start = end;
            }
        }
    }
}

/// Frontier parents per worker per pass of the generation step. A
/// generation runs the step on consecutive batches in frontier order, which
/// keeps the global order of every verdict while bounding the
/// per-transition records held at once, and lets the parents of one batch
/// be consumed before the next is probed.
const BATCH: usize = 1 << 10;

/// The generation step behind every explorer. Each BFS generation walks the
/// frontier in order, in four phases: probe (parallel over contiguous
/// chunks of parents), dedup (parallel over seen-set shards), then settle
/// and materialize (the calling thread, global order). `fan` decides how
/// many workers run the parallel phases; the report is the same for every
/// width. `log`, when given, records the transition graph for a
/// certificate.
///
/// Materialize stays on the calling thread: it is allocation-bound, a
/// second worker made it no faster, and children allocated by short-lived
/// workers spread over per-thread allocator arenas, which raised the
/// explore benchmark's peak RSS by about a quarter.
fn walk<'a, P, C, K, F>(
    protocol: &'a P,
    g: &Graph,
    config: &ExploreConfig,
    check: &C,
    fan: &F,
    mut log: Option<&mut EdgeLog>,
) -> ExplorationReport<P::Output>
where
    P: Protocol,
    P::Output: Clone,
    C: Fn(&Outcome<P::Output>, &[NodeId]) -> bool,
    K: DedupKey,
    F: Fan<Vec<Pending<'a, P>>, (Vec<Pending<'a, P>>, Probed<K>)>
        + Fan<(Shard<K>, Vec<Vec<Arrival<K>>>), (Shard<K>, Vec<MaskMerge>)>,
{
    let red = Reduction::build(protocol, g, config);
    let stats = (config.reduction != ReductionPolicy::Off).then(|| ReductionStats {
        policy: config.reduction,
        dpor_active: red.indep.is_some(),
        symmetry_active: red.sym.is_some(),
        group_order: red.sym.as_ref().map(|s| s.order).unwrap_or(0),
        sleep_skipped: 0,
        orbit_terminals: 0,
        reexpansions: 0,
    });
    let mut report = ExplorationReport {
        distinct_states: 1, // the root
        terminals: 0,
        merged: 0,
        truncated: false,
        peak_frontier: 0,
        outcomes: Vec::new(),
        failures: Vec::new(),
        reduction: stats,
    };
    if config.max_states == 0 || config.max_frontier == 0 {
        // A zero cap admits nothing — not even the root. Report an
        // immediately-truncated empty exploration (`passed()` is false)
        // instead of panicking or accidentally walking anything.
        report.distinct_states = 0;
        report.truncated = true;
        return report;
    }
    let check_leaf = |report: &mut ExplorationReport<P::Output>, run: RunReport<P::Output>| {
        report.terminals += 1;
        if !check(&run.outcome, &run.crashed) {
            report.failures.push(ScheduleFailure {
                schedule: run.write_order,
                died: run.crashed,
                outcome: run.outcome.clone(),
            });
        }
        report.outcomes.push(run.outcome);
    };

    let workers = fan.width();
    let step = Step {
        red: &red,
        fault_budget: config.fault_budget(),
        shards: match config.dedup {
            DedupPolicy::Off => 0,
            _ if workers == 1 => 1,
            _ => 4 * workers,
        },
        log: log.is_some(),
    };
    let mut seen: Vec<Shard<K>> = (0..step.shards)
        .map(|_| Shard::new(red.indep.is_some()))
        .collect();
    let mut root = Engine::new(protocol, g);
    root.activation_phase();
    if step.shards > 0 {
        let (key, _) = K::of(&red, &root);
        seen[step.shard_of(&key)].admit(key, 0);
    }
    if let Some(log) = log.as_deref_mut() {
        log.initial = root.canonical_fingerprint().as_u128();
    }
    if !root.has_active() {
        // The root is its own orbit (an equivariant protocol's initial
        // configuration is fixed by every pinned automorphism), so no orbit
        // expansion is needed here.
        check_leaf(&mut report, root.finish());
        return report;
    }

    let mut tally = Tally {
        distinct: 1,
        merged: 0,
        sleep_skipped: 0,
        reexpansions: 0,
        stopped: false,
        max_states: config.max_states,
        next: 0,
        max_frontier: config.max_frontier,
        cut: false,
        faulted: step.fault_budget > 0,
    };
    let mut made = Made {
        leaves: Vec::new(),
        children: Vec::new(),
        orbit_terminals: 0,
    };
    let mut frontier = vec![Pending::root(root)];
    while !frontier.is_empty() && !report.truncated {
        report.peak_frontier = report.peak_frontier.max(frontier.len());
        tally.next = 0;
        let mut parents = VecDeque::from(frontier);
        while !tally.cut && !parents.is_empty() {
            let batch: Vec<_> = if parents.len() <= BATCH * workers {
                std::mem::take(&mut parents).into()
            } else {
                parents.drain(..BATCH * workers).collect()
            };
            let parts = if workers == 1 {
                1
            } else {
                batch.len().min(4 * workers)
            };
            let mut probed = fan.fan(split(batch, parts), |mut parents| {
                let probed = step.probe::<K, P>(&mut parents);
                (parents, probed)
            });
            let mut fates = Vec::new();
            if step.shards > 0 {
                let tasks = seen
                    .drain(..)
                    .enumerate()
                    .map(|(s, shard)| {
                        let arrivals = probed
                            .iter_mut()
                            .map(|(_, p)| std::mem::take(&mut p.arrivals[s]))
                            .collect();
                        (shard, arrivals)
                    })
                    .collect();
                (seen, fates) = fan
                    .fan(tasks, |(mut shard, arrivals)| {
                        let fates = step.dedup(&mut shard, arrivals);
                        (shard, fates)
                    })
                    .into_iter()
                    .unzip();
            }
            tally.settle(&mut probed, fates, log.as_deref_mut());
            made.children.reserve(tally.next - made.children.len());
            for (parents, probed) in probed {
                step.materialize(parents, probed, &mut made);
            }
            for leaf in made.leaves.drain(..) {
                check_leaf(&mut report, leaf);
            }
        }
        report.truncated = tally.cut || tally.stopped;
        frontier = std::mem::take(&mut made.children);
    }
    report.distinct_states = tally.distinct;
    report.merged = tally.merged;
    if let Some(stats) = &mut report.reduction {
        stats.sleep_skipped = tally.sleep_skipped;
        stats.orbit_terminals = made.orbit_terminals;
        stats.reexpansions = tally.reexpansions;
    }
    report
}

/// Walk the schedule space of `protocol` on `g` sequentially, applying
/// `check` to every distinct terminal outcome. Failing terminals are
/// recorded with their witness schedule; nothing panics (cf.
/// [`assert_explored`]).
///
/// The fault-free form of [`explore_with`]: `check` sees outcomes only.
/// `config.faults` is still honored — deadlocks or degraded outputs a fault
/// plan introduces reach `check` like any other outcome, just without the
/// casualty list.
pub fn explore<P, C>(
    protocol: &P,
    g: &Graph,
    config: &ExploreConfig,
    check: C,
) -> ExplorationReport<P::Output>
where
    P: Protocol,
    P::Output: Clone,
    C: Fn(&Outcome<P::Output>) -> bool,
{
    explore_with(protocol, g, config, move |outcome, _died| check(outcome))
}

/// Like [`explore`], but `check` is fault-aware: it receives each terminal
/// outcome **and** the list of nodes whose write died on the way there
/// (empty for fault-free runs), so registry oracles can judge what remains
/// computable under `f` crashes.
pub fn explore_with<P, C>(
    protocol: &P,
    g: &Graph,
    config: &ExploreConfig,
    check: C,
) -> ExplorationReport<P::Output>
where
    P: Protocol,
    P::Output: Clone,
    C: Fn(&Outcome<P::Output>, &[NodeId]) -> bool,
{
    match config.dedup {
        DedupPolicy::Exact => {
            walk::<_, _, CanonicalState, _>(protocol, g, config, &check, &Inline, None)
        }
        _ => walk::<_, _, u128, _>(protocol, g, config, &check, &Inline, None),
    }
}

/// The certifying walk: the sequential walk over fingerprint keys, logging
/// every transition it takes and every terminal it judges into `log`.
pub(crate) fn explore_logged<P, C>(
    protocol: &P,
    g: &Graph,
    config: &ExploreConfig,
    check: &C,
    log: &mut EdgeLog,
) -> ExplorationReport<P::Output>
where
    P: Protocol,
    P::Output: Clone,
    C: Fn(&Outcome<P::Output>, &[NodeId]) -> bool,
{
    let config = config.clone().with_dedup(DedupPolicy::Canonical);
    walk::<_, _, u128, _>(protocol, g, &config, check, &Inline, Some(log))
}

/// Like [`explore`], but each generation's probe and dedup phases run on
/// `wb_par::num_threads()` scoped workers. The report is identical to the
/// sequential one: every dedup verdict, counter, cap and witness is settled
/// in the same global order whatever the width.
pub fn explore_parallel<P, C>(
    protocol: &P,
    g: &Graph,
    config: &ExploreConfig,
    check: C,
) -> ExplorationReport<P::Output>
where
    P: Protocol + Sync,
    P::Node: Send + Sync,
    P::Output: Clone + Send,
    C: Fn(&Outcome<P::Output>) -> bool,
{
    explore_parallel_with(protocol, g, config, move |outcome, _died| check(outcome))
}

/// The fault-aware form of [`explore_parallel`] (see [`explore_with`]).
pub fn explore_parallel_with<P, C>(
    protocol: &P,
    g: &Graph,
    config: &ExploreConfig,
    check: C,
) -> ExplorationReport<P::Output>
where
    P: Protocol + Sync,
    P::Node: Send + Sync,
    P::Output: Clone + Send,
    C: Fn(&Outcome<P::Output>, &[NodeId]) -> bool,
{
    explore_on(wb_par::num_threads(), protocol, g, config, &check)
}

/// [`explore_parallel_with`] on a pool of `workers` scoped workers; the
/// report does not depend on the width.
fn explore_on<P, C>(
    workers: usize,
    protocol: &P,
    g: &Graph,
    config: &ExploreConfig,
    check: &C,
) -> ExplorationReport<P::Output>
where
    P: Protocol + Sync,
    P::Node: Send + Sync,
    P::Output: Clone + Send,
    C: Fn(&Outcome<P::Output>, &[NodeId]) -> bool,
{
    let pool = Workers(workers);
    match config.dedup {
        DedupPolicy::Exact => {
            walk::<_, _, CanonicalState, _>(protocol, g, config, check, &pool, None)
        }
        _ => walk::<_, _, u128, _>(protocol, g, config, check, &pool, None),
    }
}

/// Explore with [`explore`] and panic — with the witness write order — if
/// any terminal configuration deadlocks or fails `pred`, or if a cap
/// truncated the walk. Returns the report otherwise. This is the
/// assert-style entry point the protocol test suites use.
pub fn assert_explored<P, C>(
    protocol: &P,
    g: &Graph,
    config: &ExploreConfig,
    pred: C,
) -> ExplorationReport<P::Output>
where
    P: Protocol,
    P::Output: Clone + std::fmt::Debug,
    C: Fn(&P::Output) -> bool,
{
    let report = explore(protocol, g, config, |outcome| match outcome {
        Outcome::Success(out) => pred(out),
        Outcome::Deadlock { .. } => false,
    });
    if let Some(failure) = report.failures.first() {
        match &failure.outcome {
            Outcome::Success(out) => panic!(
                "predicate failed for write order {:?} on {:?}: output {:?} ({} failing terminal(s) of {})",
                failure.schedule,
                g,
                out,
                report.failures.len(),
                report.terminals,
            ),
            Outcome::Deadlock { awake } => panic!(
                "deadlock (awake {:?}) under write order {:?} on {:?}",
                awake, failure.schedule, g
            ),
        }
    }
    assert!(
        !report.truncated,
        "schedule exploration truncated at {} states (frontier peak {}); \
         raise max_states/max_frontier or shrink the instance",
        report.distinct_states, report.peak_frontier
    );
    report
}

// ---------------------------------------------------------------------------
// The naive recursive DFS (correctness anchor)
// ---------------------------------------------------------------------------

/// Result of a naive DFS walk (see [`for_each_schedule`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NaiveReport {
    /// Leaves visited (complete schedules handed to the callback).
    pub schedules: u64,
    /// Tree nodes visited, leaves included — the explorer's
    /// `distinct_states` counterpart for measuring dedup wins.
    pub states: u64,
    /// Whether more than `max_schedules` leaves exist; the walk stopped
    /// after handing `max_schedules` of them to the callback.
    pub truncated: bool,
}

/// Walk every schedule of `protocol` on `g` depth-first, calling `visit`
/// with each leaf report. The whole walk runs on **one** engine via the
/// undo log (step → recurse → undo); nothing is cloned at branch points.
///
/// Stops after `max_schedules` leaves and reports `truncated` instead of
/// panicking, so partial exploration is usable; [`assert_all_schedules`]
/// keeps the strict behavior. This path assumes nothing about the protocol
/// (no dedup) and anchors the explorer's correctness.
pub fn for_each_schedule<P, F>(
    protocol: &P,
    g: &Graph,
    max_schedules: u64,
    mut visit: F,
) -> NaiveReport
where
    P: Protocol,
    F: FnMut(&RunReport<P::Output>),
{
    let mut report = NaiveReport::default();
    let mut engine = Engine::new(protocol, g);
    engine.activation_phase();
    dfs(&mut engine, max_schedules, &mut report, &mut visit);
    report
}

fn dfs<P, F>(engine: &mut Engine<'_, P>, cap: u64, report: &mut NaiveReport, visit: &mut F)
where
    P: Protocol,
    F: FnMut(&RunReport<P::Output>),
{
    if report.truncated {
        return;
    }
    report.states += 1;
    let active = engine.active_set();
    if active.is_empty() {
        if report.schedules == cap {
            report.truncated = true;
            return;
        }
        report.schedules += 1;
        visit(&engine.report());
        return;
    }
    for &pick in &active {
        let token = engine.step_token();
        engine.step(pick);
        engine.activation_phase();
        dfs(engine, cap, report, visit);
        engine.undo(token);
        if report.truncated {
            return;
        }
    }
}

/// Assert `pred` on the output of **every** schedule; panics with the failing
/// write order otherwise (deadlocks always fail — protocols whose spec allows
/// deadlock should use [`find_failing_schedule`] instead), and panics if the
/// walk exceeded the cap — an incomplete exhaustive check must never
/// masquerade as a complete one. Returns the number of schedules checked.
pub fn assert_all_schedules<P, F>(protocol: &P, g: &Graph, max_schedules: u64, mut pred: F) -> u64
where
    P: Protocol,
    F: FnMut(&P::Output) -> bool,
{
    let report = for_each_schedule(protocol, g, max_schedules, |report| match &report.outcome {
        Outcome::Success(out) => {
            assert!(
                pred(out),
                "predicate failed for write order {:?} on {:?}",
                report.write_order,
                g
            );
        }
        Outcome::Deadlock { awake } => {
            panic!(
                "deadlock (awake {:?}) under write order {:?} on {:?}",
                awake, report.write_order, g
            );
        }
    });
    assert!(
        !report.truncated,
        "exhaustive schedule exploration exceeded the cap of {max_schedules}; \
         shrink the instance or raise the cap"
    );
    report.schedules
}

/// Search for a schedule whose outcome violates `pred` (deadlocks count as
/// violations). Returns the adversary's write order as a counterexample, or
/// `None` if all schedules (up to `max_schedules`; a truncated search can
/// miss later counterexamples) satisfy the predicate.
///
/// This is the "attack" direction of model checking: where
/// [`assert_all_schedules`] certifies a positive theorem,
/// `find_failing_schedule` *exhibits* the bad run behind a negative one
/// (e.g. the adversary defeating a protocol run outside its model).
pub fn find_failing_schedule<P, F>(
    protocol: &P,
    g: &Graph,
    max_schedules: u64,
    mut pred: F,
) -> Option<Vec<NodeId>>
where
    P: Protocol,
    F: FnMut(&Outcome<P::Output>) -> bool,
{
    let mut found = None;
    for_each_schedule(protocol, g, max_schedules, |report| {
        if found.is_none() && !pred(&report.outcome) {
            found = Some(report.write_order.clone());
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::toys::*;
    use crate::engine::Outcome;
    use std::collections::HashSet;
    use std::hash::Hash;

    use wb_graph::generators;

    /// Set of leaf outcomes from the naive DFS, keyed on the real
    /// `Eq + Hash` outcome values (not their Debug rendering).
    fn naive_outcome_set<P: Protocol>(p: &P, g: &Graph) -> HashSet<Outcome<P::Output>>
    where
        P::Output: Clone + Eq + Hash,
    {
        let mut out = HashSet::new();
        let report = for_each_schedule(p, g, 1_000_000, |r| {
            out.insert(r.outcome.clone());
        });
        assert!(!report.truncated);
        out
    }

    fn explorer_outcome_set<O: Clone + Eq + Hash>(
        report: &ExplorationReport<O>,
    ) -> HashSet<Outcome<O>> {
        report.outcomes.iter().cloned().collect()
    }

    /// Multiset of outcomes, order-insensitively comparable (a reduced walk
    /// discovers terminals in a different order than the unreduced one).
    fn outcome_multiset<O: std::fmt::Debug>(report: &ExplorationReport<O>) -> Vec<String> {
        let mut v: Vec<String> = report.outcomes.iter().map(|o| format!("{o:?}")).collect();
        v.sort();
        v
    }

    #[test]
    fn empty_report_rate_fields_are_finite() {
        // A report with zero states/zero duration must never emit NaN or an
        // infinity (the CLI serializes these fields into JSON verbatim).
        let report: ExplorationReport<()> = ExplorationReport {
            distinct_states: 0,
            terminals: 0,
            merged: 0,
            truncated: false,
            peak_frontier: 0,
            outcomes: Vec::new(),
            failures: Vec::new(),
            reduction: None,
        };
        assert_eq!(report.dedup_ratio(), 1.0);
        assert_eq!(report.states_per_sec(0.0), 0.0);
        assert_eq!(report.states_per_sec(-1.0), 0.0);
        assert_eq!(report.states_per_sec(f64::NAN), 0.0);
        assert!(report.dedup_ratio().is_finite());
        // A populated report with a zero-duration wall clock is guarded too.
        let populated: ExplorationReport<()> = ExplorationReport {
            distinct_states: 10,
            merged: 5,
            ..report
        };
        assert_eq!(populated.states_per_sec(0.0), 0.0);
        assert_eq!(populated.states_per_sec(2.0), 5.0);
        assert_eq!(populated.dedup_ratio(), 1.5);
    }

    #[test]
    fn echo_explores_factorially_many_schedules() {
        let g = generators::path(4);
        let mut orders = HashSet::new();
        let report = for_each_schedule(&EchoId, &g, 100, |report| {
            assert_eq!(report.outcome, Outcome::Success(vec![1, 2, 3, 4]));
            orders.insert(report.write_order.clone());
        });
        assert_eq!(report.schedules, 24);
        assert!(!report.truncated);
        // Tree nodes: sum over k of 4!/(4-k)! = 1 + 4 + 12 + 24 + 24.
        assert_eq!(report.states, 65);
        assert_eq!(orders.len(), 24, "all 4! write orders distinct");
    }

    #[test]
    fn explorer_collapses_simultaneous_tree_to_subset_dag() {
        // EchoId is SIMASYNC: configurations are determined by the set of
        // written nodes, so the 65-node naive tree collapses to 2^4 states
        // — under the fingerprint probe and under exact snapshots alike.
        let g = generators::path(4);
        for config in [ExploreConfig::default(), ExploreConfig::default().exact()] {
            let report = explore(&EchoId, &g, &config, |o| {
                *o == Outcome::Success(vec![1, 2, 3, 4])
            });
            assert!(report.passed());
            assert_eq!(report.distinct_states, 16);
            assert_eq!(report.terminals, 1, "one distinct final configuration");
            // Every lattice edge was generated: sum over k of C(4,k)·(4-k) =
            // 32 transitions, 15 of them discovering a new state (root
            // excluded).
            assert_eq!(report.merged, 32 - 15);
            assert!(report.dedup_ratio() > 2.0);
        }
    }

    #[test]
    fn explorer_without_dedup_matches_naive_tree() {
        let g = generators::path(4);
        let config = ExploreConfig::default().without_dedup();
        let report = explore(&EchoId, &g, &config, |o| {
            *o == Outcome::Success(vec![1, 2, 3, 4])
        });
        assert!(report.passed());
        assert_eq!(report.merged, 0);
        assert_eq!(report.terminals, 24, "all 4! schedules reach a leaf");
        assert_eq!(report.distinct_states, 65, "same tree as the naive DFS");
    }

    #[test]
    fn explorer_and_naive_agree_on_order_dependent_outputs() {
        // SeenCount writes its observation count into the message, so the
        // board content keeps order-dependent states apart and dedup stays
        // exact: 6 distinct outputs on a 3-node instance, same as naive.
        let g = generators::path(3);
        let naive = naive_outcome_set(&SeenCount, &g);
        assert_eq!(naive.len(), 6);
        for (label, report) in [
            (
                "fingerprint",
                explore(&SeenCount, &g, &ExploreConfig::default(), |_| true),
            ),
            (
                "exact",
                explore(&SeenCount, &g, &ExploreConfig::default().exact(), |_| true),
            ),
            (
                "off",
                explore(
                    &SeenCount,
                    &g,
                    &ExploreConfig::default().without_dedup(),
                    |_| true,
                ),
            ),
            (
                "parallel",
                explore_parallel(&SeenCount, &g, &ExploreConfig::default(), |_| true),
            ),
        ] {
            assert_eq!(explorer_outcome_set(&report), naive, "{label}");
        }
    }

    #[test]
    fn explorer_agrees_with_naive_across_models_and_toys() {
        let g = generators::path(4);
        let cfg = ExploreConfig::default();
        // Order-oblivious outputs: canonical dedup preserves the outcome set.
        assert_eq!(
            explorer_outcome_set(&explore(&EchoId, &g, &cfg, |_| true)),
            naive_outcome_set(&EchoId, &g)
        );
        assert_eq!(
            explorer_outcome_set(&explore(&SeenCount, &g, &cfg, |_| true)),
            naive_outcome_set(&SeenCount, &g)
        );
        assert_eq!(
            explorer_outcome_set(&explore(&Chain, &g, &cfg, |_| true)),
            naive_outcome_set(&Chain, &g)
        );
        // Transcript-valued output: exact only with dedup off (see below).
        let off = ExploreConfig::default().without_dedup();
        assert_eq!(
            explorer_outcome_set(&explore(&FrozenSeenCount, &g, &off, |_| true)),
            naive_outcome_set(&FrozenSeenCount, &g)
        );
    }

    #[test]
    fn fingerprint_and_exact_dedup_agree_on_toys() {
        // The differential core of the fingerprint claim, on every toy: the
        // streaming 128-bit probe must discover exactly the states the
        // collision-free snapshots do.
        let g = generators::path(4);
        let fp_cfg = ExploreConfig::default();
        let exact_cfg = ExploreConfig::default().exact();
        macro_rules! check {
            ($p:expr) => {{
                let fp = explore(&$p, &g, &fp_cfg, |_| true);
                let exact = explore(&$p, &g, &exact_cfg, |_| true);
                assert_eq!(fp.distinct_states, exact.distinct_states);
                assert_eq!(fp.terminals, exact.terminals);
                assert_eq!(fp.merged, exact.merged);
                assert_eq!(fp.peak_frontier, exact.peak_frontier);
                assert_eq!(outcome_multiset(&fp), outcome_multiset(&exact));
            }};
        }
        check!(EchoId);
        check!(SeenCount);
        check!(FrozenSeenCount);
        check!(Chain);
    }

    #[test]
    fn canonical_dedup_is_lossy_for_transcript_outputs() {
        // FrozenSeenCount freezes `(id, 0)` for everyone, so all 4! leaf
        // boards carry the same *content* in different write orders — and
        // its output is the transcript of that order. Canonical dedup
        // (content-keyed) therefore collapses all of them into one terminal:
        // the documented soundness boundary, not a bug.
        let g = generators::path(4);
        let naive = naive_outcome_set(&FrozenSeenCount, &g);
        assert_eq!(naive.len(), 24, "one transcript per write order");
        let canonical = explore(&FrozenSeenCount, &g, &ExploreConfig::default(), |_| true);
        assert_eq!(canonical.terminals, 1, "all transcripts merged");
        let off = explore(
            &FrozenSeenCount,
            &g,
            &ExploreConfig::default().without_dedup(),
            |_| true,
        );
        assert_eq!(explorer_outcome_set(&off), naive, "Off recovers exactness");
    }

    /// Assert two reports describe the same walk: every counter, the
    /// reduction block, and the outcomes and failures in order.
    fn assert_same_report<O: PartialEq + std::fmt::Debug>(
        a: &ExplorationReport<O>,
        b: &ExplorationReport<O>,
        label: &str,
    ) {
        assert_eq!(a.distinct_states, b.distinct_states, "{label}: states");
        assert_eq!(a.terminals, b.terminals, "{label}: terminals");
        assert_eq!(a.merged, b.merged, "{label}: merged");
        assert_eq!(a.truncated, b.truncated, "{label}: truncated");
        assert_eq!(a.peak_frontier, b.peak_frontier, "{label}: peak frontier");
        assert_eq!(a.reduction, b.reduction, "{label}: reduction stats");
        assert_eq!(a.outcomes, b.outcomes, "{label}: outcomes");
        fn failures<O>(r: &ExplorationReport<O>) -> Vec<(&[NodeId], &[NodeId], &Outcome<O>)> {
            r.failures
                .iter()
                .map(|f| (&f.schedule[..], &f.died[..], &f.outcome))
                .collect()
        }
        assert_eq!(failures(a), failures(b), "{label}: failures");
    }

    /// `base` under every input the generation step treats differently:
    /// each reduction policy, each with no cap, a state cap and a frontier
    /// cap, under fingerprint and exact dedup.
    fn step_inputs(base: &ExploreConfig) -> Vec<(String, ExploreConfig)> {
        let mut inputs = Vec::new();
        for dedup in [DedupPolicy::Canonical, DedupPolicy::Exact] {
            for policy in [
                ReductionPolicy::Off,
                ReductionPolicy::Dpor,
                ReductionPolicy::Symmetry,
                ReductionPolicy::DporSymmetry,
            ] {
                let config = base.clone().with_dedup(dedup).with_reduction(policy);
                for (cap, config) in [
                    ("uncapped", config.clone()),
                    ("max_states=20", config.clone().with_max_states(20)),
                    ("max_frontier=4", config.with_max_frontier(4)),
                ] {
                    inputs.push((format!("{dedup:?} {policy} {cap}"), config));
                }
            }
        }
        inputs
    }

    /// EchoId with its one embedded ID made relabelable, so the symmetry
    /// quotient arms on symmetric graphs.
    struct SymEcho;

    impl Protocol for SymEcho {
        type Node = <EchoId as Protocol>::Node;
        type Output = Vec<NodeId>;
        fn model(&self) -> Model {
            EchoId.model()
        }
        fn budget_bits(&self, n: usize) -> u32 {
            EchoId.budget_bits(n)
        }
        fn spawn(&self, view: &crate::protocol::LocalView) -> Self::Node {
            EchoId.spawn(view)
        }
        fn output(&self, n: usize, board: &crate::board::Whiteboard) -> Vec<NodeId> {
            EchoId.output(n, board)
        }
        fn equivariant(&self) -> bool {
            true
        }
        fn relabel_message(
            &self,
            n: usize,
            msg: &wb_math::BitVec,
            perm: &[NodeId],
        ) -> wb_math::BitVec {
            let bits = wb_math::id_bits(n);
            let id = wb_math::BitReader::new(msg).read_bits(bits) as usize;
            let mut w = wb_math::BitWriter::new();
            w.write_bits(u64::from(perm[id - 1]), bits);
            w.finish()
        }
    }

    #[test]
    fn parallel_explorer_matches_sequential() {
        // Every report is the sequential one, in order, at every width.
        let g = generators::path(5);
        let check = |o: &Outcome<Vec<(NodeId, u64)>>, _: &[NodeId]| match o {
            Outcome::Success(rows) => rows[0].0 % 2 == 1,
            Outcome::Deadlock { .. } => false,
        };
        for (label, cfg) in step_inputs(&ExploreConfig::default()) {
            let seq = explore_with(&SeenCount, &g, &cfg, check);
            assert!(!seq.failures.is_empty() || seq.truncated, "{label}");
            for workers in 1..=4 {
                let par = explore_on(workers, &SeenCount, &g, &cfg, &check);
                assert_same_report(&seq, &par, &format!("SeenCount {label}, {workers} workers"));
            }
        }
        // A symmetric SIMASYNC instance, where DPOR and the quotient arm.
        let g = generators::cycle(6);
        let echo = |o: &Outcome<Vec<NodeId>>, _: &[NodeId]| o.is_success();
        for (label, cfg) in step_inputs(&ExploreConfig::default()) {
            let seq = explore_with(&SymEcho, &g, &cfg, echo);
            if let Some(stats) = seq.reduction {
                assert!(stats.dpor_active || !cfg.reduction.wants_dpor(), "{label}");
                assert!(stats.symmetry_active || !cfg.reduction.wants_symmetry());
            }
            for workers in 1..=4 {
                let par = explore_on(workers, &SymEcho, &g, &cfg, &echo);
                assert_same_report(&seq, &par, &format!("SymEcho {label}, {workers} workers"));
            }
        }
    }

    #[test]
    fn explorer_reports_deadlock_failures_with_witness() {
        let g = generators::path(2);
        let report = explore(&NeverActivate, &g, &ExploreConfig::default(), |o| {
            o.is_success()
        });
        assert!(!report.passed());
        assert_eq!(report.terminals, 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(
            report.failures[0].schedule,
            Vec::<wb_graph::NodeId>::new(),
            "deadlock happens before any write"
        );
        assert!(matches!(
            report.failures[0].outcome,
            Outcome::Deadlock { .. }
        ));
    }

    #[test]
    fn explorer_truncates_on_state_cap_without_panicking() {
        let g = generators::path(5);
        let cfg = ExploreConfig::default().without_dedup().with_max_states(10);
        let report = explore(&EchoId, &g, &cfg, |_| true);
        assert!(report.truncated);
        assert!(!report.passed());
        assert!(report.distinct_states <= 11);
    }

    #[test]
    fn explorer_truncates_on_frontier_cap_without_panicking() {
        let g = generators::path(5);
        let cfg = ExploreConfig::default()
            .without_dedup()
            .with_max_frontier(3);
        let report = explore(&EchoId, &g, &cfg, |_| true);
        assert!(report.truncated);
        assert!(report.peak_frontier <= 3);
    }

    #[test]
    fn assert_explored_returns_report_on_success() {
        let g = generators::path(3);
        let report = assert_explored(&EchoId, &g, &ExploreConfig::default(), |out| {
            out == &vec![1, 2, 3]
        });
        assert!(report.passed());
        assert_eq!(report.terminals, 1);
    }

    #[test]
    #[should_panic(expected = "predicate failed for write order")]
    fn assert_explored_panics_with_witness() {
        let g = generators::path(3);
        assert_explored(&EchoId, &g, &ExploreConfig::default(), |out| {
            out != &vec![1, 2, 3]
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn assert_explored_flags_deadlock() {
        assert_explored(
            &NeverActivate,
            &generators::path(2),
            &ExploreConfig::default(),
            |_| true,
        );
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn assert_explored_rejects_truncated_walks() {
        let cfg = ExploreConfig::default().without_dedup().with_max_states(5);
        assert_explored(&EchoId, &generators::path(5), &cfg, |_| true);
    }

    #[test]
    fn chain_has_single_schedule() {
        let g = generators::path(5);
        let report = for_each_schedule(&Chain, &g, 100, |report| {
            assert_eq!(report.write_order, vec![1, 2, 3, 4, 5]);
        });
        assert_eq!(report.schedules, 1);
        let explored = explore(&Chain, &g, &ExploreConfig::default(), |_| true);
        assert_eq!(explored.terminals, 1);
        assert_eq!(explored.merged, 0, "a forced chain has nothing to merge");
    }

    #[test]
    fn simsync_outputs_depend_on_schedule() {
        let g = generators::path(3);
        let mut outputs = HashSet::new();
        for_each_schedule(&SeenCount, &g, 100, |report| match &report.outcome {
            Outcome::Success(out) => {
                outputs.insert(out.clone());
            }
            _ => panic!("unexpected deadlock"),
        });
        // Ranks are always 0,1,2 but the id sequence varies: 6 outputs.
        assert_eq!(outputs.len(), 6);
        for out in &outputs {
            assert_eq!(
                out.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
                vec![0, 1, 2]
            );
        }
    }

    #[test]
    fn assert_all_schedules_counts() {
        let g = generators::path(3);
        let count = assert_all_schedules(&EchoId, &g, 100, |out| out == &vec![1, 2, 3]);
        assert_eq!(count, 6);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn assert_all_schedules_flags_deadlock() {
        assert_all_schedules(&NeverActivate, &generators::path(2), 10, |_| true);
    }

    #[test]
    fn for_each_schedule_reports_truncation_instead_of_panicking() {
        let mut visited = 0u64;
        let report = for_each_schedule(&EchoId, &generators::path(5), 10, |_| visited += 1);
        assert!(report.truncated);
        assert_eq!(report.schedules, 10, "exactly the cap's worth of leaves");
        assert_eq!(visited, 10);
    }

    #[test]
    #[should_panic(expected = "exceeded the cap")]
    fn assert_all_schedules_enforces_cap() {
        assert_all_schedules(&EchoId, &generators::path(5), 10, |_| true);
    }

    #[test]
    fn find_failing_schedule_returns_none_for_correct_protocols() {
        let g = generators::path(3);
        let found = find_failing_schedule(&EchoId, &g, 100, |o| match o {
            Outcome::Success(ids) => ids == &vec![1, 2, 3],
            _ => false,
        });
        assert_eq!(found, None);
    }

    #[test]
    fn find_failing_schedule_exhibits_deadlocks() {
        let g = generators::path(2);
        let found = find_failing_schedule(&NeverActivate, &g, 100, |o| {
            matches!(o, Outcome::Success(()))
        });
        assert_eq!(found, Some(vec![]), "deadlock happens before any write");
    }

    #[test]
    fn find_failing_schedule_pinpoints_order_dependent_outputs() {
        // SeenCount's output depends on the order: ask for the min-ID
        // transcript and get a counterexample order back otherwise.
        let g = generators::path(3);
        let found = find_failing_schedule(&SeenCount, &g, 100, |o| match o {
            Outcome::Success(rows) => rows.iter().map(|&(id, _)| id).eq(1..=3),
            _ => false,
        });
        let order = found.expect("non-identity orders exist");
        assert_ne!(order, vec![1, 2, 3]);
    }

    #[test]
    fn reduction_policy_parses_and_displays() {
        for (spec, policy) in [
            ("off", ReductionPolicy::Off),
            ("dpor", ReductionPolicy::Dpor),
            ("symmetry", ReductionPolicy::Symmetry),
            ("dpor+symmetry", ReductionPolicy::DporSymmetry),
        ] {
            assert_eq!(spec.parse::<ReductionPolicy>().unwrap(), policy);
            if spec != "off" {
                assert_eq!(policy.to_string(), spec);
            }
        }
        assert_eq!(
            "symmetry+dpor".parse::<ReductionPolicy>().unwrap(),
            ReductionPolicy::DporSymmetry
        );
        assert!("both".parse::<ReductionPolicy>().is_err());
    }

    #[test]
    fn zero_caps_report_immediately_truncated_empty_explorations() {
        // A zero cap must neither panic nor walk anything, and the resulting
        // empty report keeps its rate fields finite.
        for cfg in [
            ExploreConfig::default().with_max_states(0),
            ExploreConfig::default().with_max_frontier(0),
            ExploreConfig::default()
                .without_dedup()
                .with_max_states(0)
                .with_max_frontier(0),
        ] {
            for report in [
                explore(&EchoId, &generators::path(3), &cfg, |_| true),
                explore_parallel(&EchoId, &generators::path(3), &cfg, |_| true),
            ] {
                assert!(report.truncated);
                assert!(!report.passed());
                assert_eq!(report.distinct_states, 0);
                assert_eq!(report.terminals, 0);
                assert_eq!(report.generated(), 0);
                assert!(report.outcomes.is_empty());
                assert!(report.dedup_ratio().is_finite());
            }
        }
    }

    #[test]
    fn reduction_stats_are_absent_by_default_and_present_when_requested() {
        let g = generators::path(3);
        let plain = explore(&EchoId, &g, &ExploreConfig::default(), |_| true);
        assert!(plain.reduction.is_none());
        let cfg = ExploreConfig::default().with_reduction(ReductionPolicy::Dpor);
        let reduced = explore(&EchoId, &g, &cfg, |_| true);
        let stats = reduced.reduction.expect("policy != off records stats");
        assert_eq!(stats.policy, ReductionPolicy::Dpor);
        // EchoId is SIMASYNC: commutativity upgrades to All, so DPOR arms.
        assert!(stats.dpor_active);
        assert!(!stats.symmetry_active);
        assert!(stats.sleep_skipped > 0, "a path-3 walk has commuting picks");
    }

    #[test]
    fn dpor_self_disables_without_dedup_or_independence() {
        let g = generators::path(3);
        // Without dedup the sleep-set equivalence argument collapses, so
        // DPOR silently disarms and the walk matches the plain one.
        let cfg = ExploreConfig::default()
            .without_dedup()
            .with_reduction(ReductionPolicy::Dpor);
        let report = explore(&EchoId, &g, &cfg, |_| true);
        let stats = report.reduction.expect("stats still recorded");
        assert!(!stats.dpor_active);
        let plain = explore(
            &EchoId,
            &g,
            &ExploreConfig::default().without_dedup(),
            |_| true,
        );
        assert_eq!(report.distinct_states, plain.distinct_states);
        assert_eq!(report.terminals, plain.terminals);
        // SeenCount declares Commutativity::None (its state counts every
        // write), so DPOR disarms even with dedup on.
        let cfg = ExploreConfig::default().with_reduction(ReductionPolicy::Dpor);
        let report = explore(&SeenCount, &g, &cfg, |_| true);
        assert!(!report.reduction.unwrap().dpor_active);
    }

    #[test]
    fn dpor_preserves_states_terminals_and_outcomes() {
        // On SIMASYNC toys the sleep sets prune only transitions that would
        // have merged: distinct states, terminals, and outcomes are
        // identical, and the generated count drops.
        for g in [
            generators::path(4),
            generators::cycle(5),
            generators::star(5),
        ] {
            let off = explore(&EchoId, &g, &ExploreConfig::default(), |_| true);
            for policy in [ReductionPolicy::Dpor, ReductionPolicy::DporSymmetry] {
                let cfg = ExploreConfig::default().with_reduction(policy);
                let red = explore(&EchoId, &g, &cfg, |_| true);
                assert_eq!(red.distinct_states, off.distinct_states, "{g:?}");
                assert_eq!(red.terminals, off.terminals, "{g:?}");
                assert_eq!(outcome_multiset(&red), outcome_multiset(&off), "{g:?}");
                assert!(red.generated() < off.generated(), "{g:?}");
                assert!(red.merged < off.merged, "{g:?}");
            }
        }
    }

    #[test]
    fn dpor_matches_unreduced_walks_in_free_models() {
        use crate::adapt::Promote;
        // Promote<EchoId> keeps Commutativity::All in the free models (the
        // message is cached at spawn), exercising the sleep sets where
        // activation phases and freeze slots are in play.
        for target in [Model::Async, Model::Sync] {
            let p = Promote::new(EchoId, target);
            for g in [generators::path(4), generators::cycle(4)] {
                let off = explore(&p, &g, &ExploreConfig::default(), |_| true);
                let cfg = ExploreConfig::default().with_reduction(ReductionPolicy::Dpor);
                let red = explore(&p, &g, &cfg, |_| true);
                assert!(red.reduction.unwrap().dpor_active);
                assert_eq!(red.distinct_states, off.distinct_states, "{target} {g:?}");
                assert_eq!(red.terminals, off.terminals, "{target} {g:?}");
                assert_eq!(outcome_multiset(&red), outcome_multiset(&off));
            }
        }
    }

    #[test]
    fn dpor_preserves_crash_branch_coverage() {
        use crate::fault::FaultPlan;
        let g = generators::path(3);
        let base = ExploreConfig::default().with_faults(Some(FaultPlan::crash_stop(1)));
        let off = explore_with(&EchoId, &g, &base, |_, _| true);
        let cfg = base.clone().with_reduction(ReductionPolicy::Dpor);
        let red = explore_with(&EchoId, &g, &cfg, |_, _| true);
        assert_eq!(red.distinct_states, off.distinct_states);
        assert_eq!(red.terminals, off.terminals);
        assert_eq!(outcome_multiset(&red), outcome_multiset(&off));
        assert!(red.generated() <= off.generated());
    }

    #[test]
    fn parallel_dpor_matches_sequential_dpor() {
        let g = generators::path(5);
        let cfg = ExploreConfig::default().with_reduction(ReductionPolicy::Dpor);
        let seq = explore(&EchoId, &g, &cfg, |_| true);
        let par = explore_parallel(&EchoId, &g, &cfg, |_| true);
        assert!(seq.reduction.unwrap().dpor_active);
        assert_same_report(&seq, &par, "dpor");
    }

    #[test]
    fn inert_fault_plan_explores_identically() {
        use crate::fault::FaultPlan;
        let g = generators::path(4);
        let plain = explore(&EchoId, &g, &ExploreConfig::default(), |o| o.is_success());
        for plan in [
            None,
            Some(FaultPlan::crash_stop(0)),
            Some(FaultPlan::lossy(0)),
        ] {
            let config = ExploreConfig::default().with_faults(plan);
            let faulted = explore(&EchoId, &g, &config, |o| o.is_success());
            assert_eq!(plain.distinct_states, faulted.distinct_states);
            assert_eq!(plain.terminals, faulted.terminals);
            assert_eq!(plain.merged, faulted.merged);
            assert_eq!(outcome_multiset(&plain), outcome_multiset(&faulted));
        }
    }

    #[test]
    fn crash_branching_reaches_degraded_terminals() {
        use crate::fault::FaultPlan;
        let g = generators::path(3);
        let config = ExploreConfig::default().with_faults(Some(FaultPlan::crash_stop(1)));
        // Degraded check: the echoed list is exactly the survivors.
        let report = explore_with(&EchoId, &g, &config, |o, died| match o {
            Outcome::Success(ids) => {
                ids.len() + died.len() == 3 && ids.iter().all(|v| !died.contains(v))
            }
            Outcome::Deadlock { .. } => false,
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // Terminals now include every ≤1-crash variant: full runs plus one
        // two-survivor terminal per victim choice.
        let outcomes = explorer_outcome_set(&report);
        assert!(outcomes.contains(&Outcome::Success(vec![1, 2, 3])));
        assert!(outcomes.contains(&Outcome::Success(vec![1, 3])));
        let plain = explore(&EchoId, &g, &ExploreConfig::default(), |o| o.is_success());
        assert!(report.distinct_states > plain.distinct_states);
        // A fault-blind check records the crashed terminals as failures, and
        // each failure names its casualty.
        let strict = explore_with(&EchoId, &g, &config, |o, _| match o {
            Outcome::Success(ids) => ids.len() == 3,
            Outcome::Deadlock { .. } => false,
        });
        assert!(!strict.failures.is_empty());
        for fail in &strict.failures {
            assert_eq!(fail.died.len(), 1, "{fail:?}");
            assert!(fail.schedule.contains(&fail.died[0]));
        }
    }

    #[test]
    fn faulted_parallel_walk_matches_sequential() {
        use crate::fault::FaultPlan;
        let g = generators::cycle(4);
        type Check = fn(&Outcome<Vec<NodeId>>, &[NodeId]) -> bool;
        let check: Check = |o, died| match o {
            Outcome::Success(ids) => ids.len() + died.len() == 4,
            Outcome::Deadlock { .. } => false,
        };
        // A fault-blind check, so failures (with their casualties) compare too.
        let strict: Check = |o, _| match o {
            Outcome::Success(ids) => ids.len() == 4,
            Outcome::Deadlock { .. } => false,
        };
        for plan in [FaultPlan::crash_stop(1), FaultPlan::lossy(2)] {
            let base = ExploreConfig::default().with_faults(Some(plan));
            for (label, cfg) in step_inputs(&base) {
                for (name, check) in [("degraded", check), ("strict", strict)] {
                    let seq = explore_with(&SymEcho, &g, &cfg, check);
                    for workers in 1..=4 {
                        let par = explore_on(workers, &SymEcho, &g, &cfg, &check);
                        let label = format!("{plan:?} {label} {name}, {workers} workers");
                        assert_same_report(&seq, &par, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn crash_induced_deadlocks_surface_in_free_models() {
        use crate::fault::FaultPlan;
        // Chain: node v waits for v-1's write. Crashing node 1 still
        // activates node 2 (the write happened, board content didn't), but
        // crashing under EagerChain-style dependencies can strand waiters
        // when activation reads the *board*. NeverActivate deadlocks even
        // fault-free; here we check the faulted walk classifies deadlocks
        // through the fault-aware check.
        let g = generators::path(2);
        let config = ExploreConfig::default().with_faults(Some(FaultPlan::crash_stop(1)));
        let report = explore_with(&NeverActivate, &g, &config, |o, _| o.is_success());
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o, Outcome::Deadlock { .. })));
        assert!(!report.failures.is_empty());
    }
}
