//! The round loop of the whiteboard machine.
//!
//! Each round: (1) every awake node may become active (free models poll
//! `wants_to_activate`; simultaneous models activated everyone up front); in
//! asynchronous models the node's message is frozen at this moment; (2) the
//! adversary picks one active node; (3) its message — frozen, or composed now
//! in synchronous models — is appended to the board and the node terminates;
//! (4) surviving nodes observe the new entry.
//!
//! Differences from the paper's letter, none observable: the paper has a
//! written node terminate one round *after* its message appears; since a
//! written node can never be picked again ("no message of node v_j appears on
//! W" is required for writing) nor act on anything, we terminate it
//! immediately. Round indices shift by one; the set of reachable boards,
//! outputs and deadlocks is identical.

use crate::adversary::Adversary;
use crate::board::Whiteboard;
use crate::model::Model;
use crate::protocol::{LocalView, Node, Protocol};
use std::sync::Arc;
use wb_graph::{Graph, NodeId};
use wb_math::BitVec;

/// Terminal result of an execution.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Outcome<O> {
    /// All nodes terminated; the output function was applied to the final
    /// board (a *successful configuration*).
    Success(O),
    /// No node is active but some never wrote (a *corrupted configuration* /
    /// deadlock).
    Deadlock {
        /// Nodes still awake when the system stalled.
        awake: Vec<NodeId>,
    },
}

impl<O> Outcome<O> {
    /// The success value, panicking on deadlock.
    pub fn unwrap(self) -> O {
        match self {
            Outcome::Success(o) => o,
            Outcome::Deadlock { awake } => panic!("deadlock with awake nodes {awake:?}"),
        }
    }

    /// Whether the run reached a successful configuration.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Success(_))
    }
}

/// Full record of one execution.
#[derive(Clone, Debug)]
pub struct RunReport<O> {
    /// Success with output, or deadlock.
    pub outcome: Outcome<O>,
    /// Writers in write order (length = number of rounds executed). Includes
    /// the rounds whose write was dropped by a fault — the schedule is the
    /// adversary's full pick sequence; [`Self::crashed`] marks the casualties.
    pub write_order: Vec<NodeId>,
    /// The final whiteboard (message-size ledger included).
    pub board: Whiteboard,
    /// Nodes whose single write was dropped by a fault
    /// ([`Engine::step_crash`]), in crash order. Empty for fault-free runs.
    pub crashed: Vec<NodeId>,
}

impl<O> RunReport<O> {
    /// Largest message written, in bits.
    pub fn max_message_bits(&self) -> usize {
        self.board.max_message_bits()
    }

    /// Total bits on the final board.
    pub fn total_bits(&self) -> usize {
        self.board.total_bits()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Awake,
    Active,
    Terminated,
}

/// A canonical, write-order-oblivious snapshot of a configuration.
///
/// The encoding covers everything that determines a configuration's future
/// behavior for *order-oblivious* protocols (see
/// [`crate::exhaustive::DedupPolicy`]): the per-node statuses, every frozen
/// (activation-time) message, and the board entries **sorted by writer** —
/// well-defined because the one-write rule makes writers unique. The write
/// order itself is deliberately excluded: two schedule prefixes that
/// permute into the same configuration compare equal, which is exactly what
/// lets the schedule explorer collapse the `n!` tree into the DAG of
/// distinct configurations.
///
/// Snapshots are exact (full encodings, not hashes), so deduplication can
/// never merge two genuinely different configurations. The streaming
/// [`Fingerprint`] is the probabilistic counterpart: same encoding order,
/// no intermediate buffer.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalState(Vec<u64>);

impl CanonicalState {
    /// Size of the encoding in 64-bit words (for memory accounting).
    pub fn words(&self) -> usize {
        self.0.len()
    }

    /// A shard key derived from the encoding itself, so orbit-canonical
    /// exact keys shard consistently no matter which orbit member was
    /// probed (the explorer's sharded seen-set needs key → shard to be a
    /// pure function of the key).
    pub(crate) fn shard_key(&self) -> u64 {
        let mut digest = wb_math::hash::Digest128::new();
        for &word in &self.0 {
            digest.put(word);
        }
        (digest.finish() >> 64) as u64
    }
}

/// A 128-bit streaming digest of the canonical configuration encoding.
///
/// Two independent 64-bit mixing streams are fed the exact word sequence of
/// [`CanonicalState`] (same order, same length framing), so equal canonical
/// states always produce equal fingerprints, and the probe builds no
/// intermediate buffer — computing one performs **zero heap allocations**
/// (pinned by the `alloc_regression` integration test). Distinct states
/// collide with probability ~`q²/2¹²⁹` after `q` probes (birthday bound over
/// 128 bits, assuming the mixers behave like independent random functions) —
/// about 10⁻²⁰ for a billion-state exploration. For certified runs,
/// [`crate::exhaustive::DedupPolicy::Exact`] keeps the full encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The digest as a single 128-bit value.
    pub fn as_u128(&self) -> u128 {
        self.0
    }

    /// The high 64 bits — what the sharded seen-set uses to pick a shard.
    pub fn shard_key(&self) -> u64 {
        (self.0 >> 64) as u64
    }
}

/// Where the canonical encoding streams its words: a buffer (exact
/// snapshots) or the fingerprint mixers. One encoder, two consumers — the
/// two dedup representations can never drift apart.
trait CanonicalSink {
    fn put(&mut self, word: u64);
}

impl CanonicalSink for Vec<u64> {
    #[inline]
    fn put(&mut self, word: u64) {
        self.push(word);
    }
}

/// The canonical-encoding words streamed into [`wb_math::hash::Digest128`].
/// The digest construction lives in `wb-math` because it is part of the
/// certificate format: the independent verifier (`wb-verify`) recomputes
/// these fingerprints from its own re-implementation of the encoding, and
/// the two must agree bit for bit. Word throughput is two multiplies per
/// stream-pair — the probe runs at memory speed on typical configurations.
struct FingerprintSink(wb_math::hash::Digest128);

impl FingerprintSink {
    fn new() -> Self {
        FingerprintSink(wb_math::hash::Digest128::new())
    }

    fn finish(self) -> Fingerprint {
        Fingerprint(self.0.finish())
    }
}

impl CanonicalSink for FingerprintSink {
    #[inline]
    fn put(&mut self, word: u64) {
        self.0.put(word);
    }
}

/// One recorded mutation of an [`Engine`], undone in reverse order by
/// [`Engine::undo`]. Recording happens only while a [`StepToken`] is
/// outstanding, so plain runs pay nothing.
enum UndoOp<N> {
    /// `status[i]` held this value.
    Status(usize, Status),
    /// `frozen[i]` held this value.
    Frozen(usize, Option<BitVec>),
    /// `nodes[i]` held this state (saved before a mutating callback).
    Node(usize, N),
    /// A board/write-order push (synchronous models: the message was
    /// composed at write time, nothing to restore beyond the pop).
    Write,
    /// A board/write-order push whose message came out of `frozen[i]`
    /// (asynchronous models): the popped message moves back into the freeze
    /// slot, so no message is ever cloned for the log.
    WriteRefreeze(usize),
    /// A crashed write ([`Engine::step_crash`]): the pick went into both
    /// `write_order` and `crashed` but never onto the board, so undo pops
    /// both (status/frozen/node restoration ride the ops above).
    Crash,
}

/// Checkpoint returned by [`Engine::step_token`]; hand it back to
/// [`Engine::undo`] (restore) or [`Engine::commit`] (accept). Tokens nest
/// and must be resolved newest-first, like a stack of savepoints.
#[derive(Debug)]
#[must_use = "a step token must be resolved via undo() or commit()"]
pub struct StepToken {
    mark: usize,
}

/// The stepwise machine. Most callers use [`run`]; the exhaustive executor
/// drives `Engine` directly, branching via [`Engine::step_token`] /
/// [`Engine::undo`] and cloning only the states that survive dedup.
pub struct Engine<'a, P: Protocol> {
    protocol: &'a P,
    model: Model,
    budget: u32,
    /// Immutable after construction and shared between clones: a branch
    /// point copies a pointer, not `n` neighbor lists.
    views: Arc<[LocalView]>,
    nodes: Vec<P::Node>,
    status: Vec<Status>,
    frozen: Vec<Option<BitVec>>,
    board: Whiteboard,
    write_order: Vec<NodeId>,
    /// Nodes whose write was dropped by [`Self::step_crash`], in crash order.
    crashed: Vec<NodeId>,
    /// Delta journal; only written while `tokens > 0`.
    undo: Vec<UndoOp<P::Node>>,
    /// Outstanding step tokens.
    tokens: u32,
}

impl<'a, P: Protocol> Clone for Engine<'a, P> {
    fn clone(&self) -> Self {
        Engine {
            protocol: self.protocol,
            model: self.model,
            budget: self.budget,
            views: Arc::clone(&self.views),
            nodes: self.nodes.clone(),
            status: self.status.clone(),
            frozen: self.frozen.clone(),
            // A clone is a fresh branch point. It has room for two more
            // writes, the explorer's usual next steps (the child's own write,
            // then each probe of the child's children, one at a time), so
            // neither regrows the board; and it does not inherit the
            // original's outstanding savepoints.
            board: self.board.with_room(2),
            write_order: {
                let mut order = Vec::with_capacity(self.write_order.len() + 2);
                order.extend_from_slice(&self.write_order);
                order
            },
            crashed: self.crashed.clone(),
            undo: Vec::new(),
            tokens: 0,
        }
    }
}

impl<'a, P: Protocol> Engine<'a, P> {
    /// Initialize the machine on `g`: spawn one node per vertex; in
    /// simultaneous models activate everyone (freezing messages in
    /// `SIMASYNC`, where `compose` precedes every observation).
    pub fn new(protocol: &'a P, g: &Graph) -> Self {
        let n = g.n();
        assert!(n >= 1, "whiteboard protocols need at least one node");
        let model = protocol.model();
        let views: Arc<[LocalView]> = LocalView::all_of(g).into();
        let mut nodes: Vec<P::Node> = views.iter().map(|v| protocol.spawn(v)).collect();
        let mut frozen: Vec<Option<BitVec>> = vec![None; n];
        let status = if model.is_simultaneous() {
            if model.is_asynchronous() {
                for (i, node) in nodes.iter_mut().enumerate() {
                    frozen[i] = Some(node.compose(&views[i]));
                }
            }
            vec![Status::Active; n]
        } else {
            vec![Status::Awake; n]
        };
        Engine {
            protocol,
            model,
            budget: protocol.budget_bits(n),
            views,
            nodes,
            status,
            frozen,
            board: Whiteboard::with_capacity(n),
            write_order: Vec::with_capacity(n),
            crashed: Vec::new(),
            undo: Vec::new(),
            tokens: 0,
        }
    }

    /// Whether step/activation deltas are being journaled.
    #[inline]
    fn recording(&self) -> bool {
        self.tokens > 0
    }

    /// Open a savepoint: every mutation made by subsequent
    /// [`Self::step`]/[`Self::activation_phase`] calls is journaled until the
    /// token is resolved with [`Self::undo`] or [`Self::commit`]. This is how
    /// the exhaustive executors branch without cloning: step → recurse →
    /// undo, on one engine. While no token is outstanding the journal is
    /// inert and plain runs pay nothing.
    pub fn step_token(&mut self) -> StepToken {
        if self.tokens == 0 && self.undo.capacity() == 0 {
            // One step journals at most ~2n ops (status + node per survivor
            // plus the write); reserve once so hot expansion loops do not
            // regrow the journal from empty.
            self.undo.reserve(2 * self.nodes.len() + 8);
        }
        self.tokens += 1;
        StepToken {
            mark: self.undo.len(),
        }
    }

    /// Roll the engine back to the state it had when `token` was issued.
    /// Tokens must be resolved newest-first (LIFO).
    pub fn undo(&mut self, token: StepToken) {
        assert!(self.tokens > 0, "undo without an outstanding step token");
        assert!(
            token.mark <= self.undo.len(),
            "step tokens must be resolved newest-first"
        );
        self.tokens -= 1;
        while self.undo.len() > token.mark {
            match self.undo.pop().expect("loop guard") {
                UndoOp::Status(i, s) => self.status[i] = s,
                UndoOp::Frozen(i, f) => self.frozen[i] = f,
                UndoOp::Node(i, n) => self.nodes[i] = n,
                UndoOp::Write => {
                    self.board.pop().expect("journaled write has a board entry");
                    self.write_order.pop();
                }
                UndoOp::WriteRefreeze(i) => {
                    let entry = self.board.pop().expect("journaled write has a board entry");
                    self.write_order.pop();
                    self.frozen[i] = Some(entry.msg);
                }
                UndoOp::Crash => {
                    self.write_order.pop();
                    self.crashed.pop();
                }
            }
        }
    }

    /// Accept every change recorded under `token` and drop the journal,
    /// its memory included: a committed engine is typically parked in a
    /// frontier, where it should weigh no more than a clone.
    /// Only valid for the outermost token (the journal below it would
    /// otherwise be left inconsistent for enclosing savepoints).
    pub fn commit(&mut self, token: StepToken) {
        assert_eq!(
            self.tokens, 1,
            "commit is only valid for the outermost step token"
        );
        debug_assert_eq!(token.mark, 0);
        let _ = token;
        self.tokens = 0;
        self.undo = Vec::new();
    }

    /// Give the engine room for two more writes, as a clone has (see
    /// `Clone`): the explorer steps a parent it keeps for its last child.
    pub(crate) fn make_room(&mut self) {
        self.board.reserve(2);
        self.write_order.reserve_exact(2);
    }

    /// Free the journal's memory once branching from this engine is done
    /// (no token may be outstanding): the explorer keeps a whole frontier
    /// of probed parents alive until their children are built.
    pub(crate) fn release_journal(&mut self) {
        assert_eq!(self.tokens, 0, "a step token is still outstanding");
        self.undo = Vec::new();
    }

    /// Poll all awake nodes' activation predicates (free models). Must be
    /// called once per round, before [`Self::active_set`]/[`Self::step`].
    pub fn activation_phase(&mut self) {
        if self.model.is_simultaneous() {
            return;
        }
        let recording = self.recording();
        for i in 0..self.nodes.len() {
            if self.status[i] != Status::Awake {
                continue;
            }
            if recording {
                // `wants_to_activate` takes `&mut self` (promotion adapters
                // cache their composed message there), so the polled node
                // must be journaled even when it declines.
                self.undo.push(UndoOp::Node(i, self.nodes[i].clone()));
            }
            if self.nodes[i].wants_to_activate(&self.views[i]) {
                if recording {
                    self.undo.push(UndoOp::Status(i, Status::Awake));
                }
                self.status[i] = Status::Active;
                if self.model.is_asynchronous() {
                    // "nodes create their final messages as soon as they
                    // become active" — freeze now.
                    let msg = self.nodes[i].compose(&self.views[i]);
                    if recording {
                        self.undo.push(UndoOp::Frozen(i, self.frozen[i].take()));
                    }
                    self.frozen[i] = Some(msg);
                }
            }
        }
    }

    /// Currently active node IDs, ascending.
    pub fn active_set(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.active_set_into(&mut out);
        out
    }

    /// Fill `buf` with the currently active node IDs, ascending. The
    /// reusable-buffer form of [`Self::active_set`]: a Monte Carlo campaign
    /// runs millions of trials, and one `Vec` allocation per round is the
    /// difference between memory-speed trials and allocator-bound ones.
    pub fn active_set_into(&self, buf: &mut Vec<NodeId>) {
        buf.clear();
        buf.extend(
            self.status
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == Status::Active)
                .map(|(i, _)| i as NodeId + 1),
        );
    }

    /// Whether any node is currently active (no allocation, unlike
    /// [`Self::active_set`]).
    pub fn has_active(&self) -> bool {
        self.status.iter().any(|s| *s == Status::Active)
    }

    /// Number of currently active nodes (no allocation).
    pub fn active_count(&self) -> usize {
        self.status.iter().filter(|s| **s == Status::Active).count()
    }

    /// Whether node `id` is currently active (the explorer iterates IDs and
    /// re-checks instead of materializing [`Self::active_set`]).
    pub(crate) fn is_active(&self, id: NodeId) -> bool {
        self.status[id as usize - 1] == Status::Active
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The board so far.
    pub fn board(&self) -> &Whiteboard {
        &self.board
    }

    /// The adversary's picks so far, in write order.
    pub fn write_order(&self) -> &[NodeId] {
        &self.write_order
    }

    /// Stream the canonical configuration encoding into `sink`: statuses
    /// (packed 2 bits per node), frozen messages in node order, then board
    /// entries in writer order (via the board's persistent writer index —
    /// no sort), every message length-framed so the encoding is
    /// unambiguous. This single walker feeds both [`Self::canonical_state`]
    /// and [`Self::canonical_fingerprint`], which therefore can never
    /// disagree on the encoding.
    fn encode_canonical<S: CanonicalSink>(&self, sink: &mut S) {
        // Statuses, packed 2 bits per node.
        let mut acc = 0u64;
        let mut filled = 0u32;
        for s in &self.status {
            let code = match s {
                Status::Awake => 0u64,
                Status::Active => 1,
                Status::Terminated => 2,
            };
            acc |= code << filled;
            filled += 2;
            if filled == 64 {
                sink.put(acc);
                acc = 0;
                filled = 0;
            }
        }
        if filled > 0 {
            sink.put(acc);
        }
        // Frozen (activation-time) messages: a presence bitmap per 64 nodes,
        // then the occupied slots in node order, length-framed. Two states
        // with the same board but different freeze points must not merge;
        // synchronous models (never any frozen slot) pay one word per 64
        // nodes instead of one per node.
        let mut mask = 0u64;
        let mut bit = 0u32;
        for f in &self.frozen {
            if f.is_some() {
                mask |= 1 << bit;
            }
            bit += 1;
            if bit == 64 {
                sink.put(mask);
                mask = 0;
                bit = 0;
            }
        }
        if bit > 0 {
            sink.put(mask);
        }
        for f in self.frozen.iter().flatten() {
            sink.put(f.len() as u64);
            for &w in f.as_words() {
                sink.put(w);
            }
        }
        // Board entries in writer order (writers are unique: one write per
        // node).
        sink.put(self.board.len() as u64);
        for e in self.board.entries_by_writer() {
            sink.put(u64::from(e.writer));
            sink.put(e.msg.len() as u64);
            for &w in e.msg.as_words() {
                sink.put(w);
            }
        }
    }

    /// Exact canonical snapshot of the current configuration (see
    /// [`CanonicalState`]). Cost is `O(n + board bits/64)`; no node state is
    /// inspected — node state is a deterministic function of the observed
    /// prefix, so for order-oblivious protocols the snapshot determines it.
    pub fn canonical_state(&self) -> CanonicalState {
        let mut words = Vec::with_capacity(
            self.nodes.len() / 16 + 3 * self.board.len() + self.frozen.len() + 4,
        );
        self.encode_canonical(&mut words);
        CanonicalState(words)
    }

    /// 128-bit streaming digest of the canonical encoding (see
    /// [`Fingerprint`]): same word sequence as [`Self::canonical_state`],
    /// but fed straight into two mixers — no intermediate buffer, no heap
    /// allocation. This is the default dedup probe of the schedule explorer.
    pub fn canonical_fingerprint(&self) -> Fingerprint {
        let mut sink = FingerprintSink::new();
        self.encode_canonical(&mut sink);
        sink.finish()
    }

    /// Stream the canonical encoding of the configuration *relabeled* by a
    /// graph automorphism: `fwd[v - 1]` is the new ID of old node `v` and
    /// `inv` is the inverse map. The output is exactly what
    /// [`Self::encode_canonical`] would produce on the relabeled execution
    /// (statuses and frozen slots permuted, board entries re-sorted by new
    /// writer, embedded IDs rewritten via [`Protocol::relabel_message`]), so
    /// the symmetry quotient can take a minimum over the automorphism group
    /// without ever materializing permuted engines. Only meaningful when the
    /// protocol is [`Protocol::equivariant`].
    fn encode_canonical_permuted<S: CanonicalSink>(
        &self,
        fwd: &[NodeId],
        inv: &[NodeId],
        sink: &mut S,
    ) {
        let n = self.nodes.len();
        // Statuses of the relabeled configuration, packed 2 bits per node.
        let mut acc = 0u64;
        let mut filled = 0u32;
        for j in 0..n {
            let code = match self.status[inv[j] as usize - 1] {
                Status::Awake => 0u64,
                Status::Active => 1,
                Status::Terminated => 2,
            };
            acc |= code << filled;
            filled += 2;
            if filled == 64 {
                sink.put(acc);
                acc = 0;
                filled = 0;
            }
        }
        if filled > 0 {
            sink.put(acc);
        }
        // Frozen slots, permuted: presence bitmap then contents in (new)
        // node order.
        let mut mask = 0u64;
        let mut bit = 0u32;
        for j in 0..n {
            if self.frozen[inv[j] as usize - 1].is_some() {
                mask |= 1 << bit;
            }
            bit += 1;
            if bit == 64 {
                sink.put(mask);
                mask = 0;
                bit = 0;
            }
        }
        if bit > 0 {
            sink.put(mask);
        }
        for j in 0..n {
            if let Some(f) = &self.frozen[inv[j] as usize - 1] {
                let msg = self.protocol.relabel_message(n, f, fwd);
                sink.put(msg.len() as u64);
                for &w in msg.as_words() {
                    sink.put(w);
                }
            }
        }
        // Board entries sorted by *new* writer: writers stay unique under a
        // permutation, so bucketing by new ID replaces the sort.
        let mut by_new_writer: Vec<Option<&crate::board::Entry>> = vec![None; n];
        for e in self.board.entries() {
            by_new_writer[fwd[e.writer as usize - 1] as usize - 1] = Some(e);
        }
        sink.put(self.board.len() as u64);
        for (slot, e) in by_new_writer.iter().enumerate() {
            if let Some(e) = e {
                let msg = self.protocol.relabel_message(n, &e.msg, fwd);
                sink.put(slot as u64 + 1);
                sink.put(msg.len() as u64);
                for &w in msg.as_words() {
                    sink.put(w);
                }
            }
        }
    }

    /// Fingerprint of the configuration relabeled by `fwd`/`inv` (see
    /// [`Self::encode_canonical_permuted`]).
    pub(crate) fn permuted_fingerprint(&self, fwd: &[NodeId], inv: &[NodeId]) -> Fingerprint {
        let mut sink = FingerprintSink::new();
        self.encode_canonical_permuted(fwd, inv, &mut sink);
        sink.finish()
    }

    /// Exact canonical snapshot of the configuration relabeled by
    /// `fwd`/`inv` (see [`Self::encode_canonical_permuted`]).
    pub(crate) fn permuted_state(&self, fwd: &[NodeId], inv: &[NodeId]) -> CanonicalState {
        let mut words = Vec::with_capacity(
            self.nodes.len() / 16 + 3 * self.board.len() + self.frozen.len() + 4,
        );
        self.encode_canonical_permuted(fwd, inv, &mut words);
        CanonicalState(words)
    }

    /// Snapshot the terminal configuration *relabeled* by the automorphism
    /// `fwd` into a report: writers and casualties mapped through `fwd`,
    /// message IDs rewritten via [`Protocol::relabel_message`], and the
    /// outcome recomputed on the relabeled board. The symmetry quotient uses
    /// this to emit the terminals of orbit siblings it never expands.
    pub(crate) fn permuted_report(&self, fwd: &[NodeId]) -> RunReport<P::Output> {
        let n = self.nodes.len();
        let board = Whiteboard::from_messages(self.board.entries().iter().map(|e| {
            (
                fwd[e.writer as usize - 1],
                self.protocol.relabel_message(n, &e.msg, fwd),
            )
        }));
        let outcome = if self.is_complete() {
            Outcome::Success(self.protocol.output(n, &board))
        } else {
            let mut awake: Vec<NodeId> = self
                .status
                .iter()
                .enumerate()
                .filter(|(_, s)| **s != Status::Terminated)
                .map(|(i, _)| fwd[i])
                .collect();
            awake.sort_unstable();
            Outcome::Deadlock { awake }
        };
        RunReport {
            outcome,
            write_order: self
                .write_order
                .iter()
                .map(|&v| fwd[v as usize - 1])
                .collect(),
            board,
            crashed: self.crashed.iter().map(|&v| fwd[v as usize - 1]).collect(),
        }
    }

    /// Execute one write: `pick` (which must be active) writes its message,
    /// terminates, and all surviving nodes observe the new entry.
    pub fn step(&mut self, pick: NodeId) {
        self.step_unobserved(pick);
        self.deliver_last_entry();
    }

    /// Whether this engine runs a simultaneous model (the schedule explorer
    /// uses this to pick the write-only probe path).
    pub(crate) fn is_simultaneous(&self) -> bool {
        self.model.is_simultaneous()
    }

    /// The write half of [`Self::step`]: `pick` writes and terminates, but
    /// **no node observes the new entry yet**. The configuration encoding
    /// (statuses, frozen messages, board) is already final after this call —
    /// observation only mutates private node state — so the schedule
    /// explorer probes dedup on the cheap write-only state and pays for the
    /// observation fan-out ([`Self::deliver_last_entry`]) only on children
    /// that survive. Callers must deliver (or undo) before the next write.
    pub(crate) fn step_unobserved(&mut self, pick: NodeId) {
        let i = pick as usize - 1;
        assert_eq!(
            self.status[i],
            Status::Active,
            "adversary picked non-active node {pick}"
        );
        let recording = self.recording();
        let msg = if self.model.is_asynchronous() {
            // The frozen message moves onto the board; `WriteRefreeze`
            // moves it back on undo, so nothing is cloned here.
            self.frozen[i]
                .take()
                .expect("asynchronous node has no frozen message")
        } else {
            if recording {
                // `compose` takes `&mut self`; journal the pre-compose state.
                self.undo.push(UndoOp::Node(i, self.nodes[i].clone()));
            }
            self.nodes[i].compose(&self.views[i])
        };
        assert!(
            !msg.is_empty(),
            "node {pick} produced the empty word; a write must change the board"
        );
        assert!(
            msg.len() <= self.budget as usize,
            "node {pick} wrote {} bits, exceeding the declared budget of {} bits",
            msg.len(),
            self.budget
        );
        if recording {
            self.undo.push(UndoOp::Status(i, self.status[i]));
        }
        self.status[i] = Status::Terminated;
        self.board.push(pick, msg);
        self.write_order.push(pick);
        if recording {
            self.undo.push(if self.model.is_asynchronous() {
                UndoOp::WriteRefreeze(i)
            } else {
                UndoOp::Write
            });
        }
    }

    /// Execute one **crashed** write: `pick` (which must be active) composes
    /// its message exactly as in [`Self::step`] — a malformed message is a
    /// protocol bug whether or not the write then dies — but the message is
    /// dropped instead of reaching the board, and the node terminates
    /// silently. No observation fan-out happens: the board is unchanged, so
    /// no other node can distinguish "v crashed" from "v was never
    /// scheduled" until the run ends. The pick is appended to both
    /// [`Self::write_order`] (it consumed a schedule slot) and
    /// [`Self::crashed`], and is journaled under an outstanding
    /// [`StepToken`] just like a surviving write, so the exhaustive explorer
    /// can branch over *which* writes die.
    pub fn step_crash(&mut self, pick: NodeId) {
        let i = pick as usize - 1;
        assert_eq!(
            self.status[i],
            Status::Active,
            "adversary crashed non-active node {pick}"
        );
        let recording = self.recording();
        let msg = if self.model.is_asynchronous() {
            self.frozen[i]
                .take()
                .expect("asynchronous node has no frozen message")
        } else {
            if recording {
                self.undo.push(UndoOp::Node(i, self.nodes[i].clone()));
            }
            self.nodes[i].compose(&self.views[i])
        };
        assert!(
            !msg.is_empty(),
            "node {pick} produced the empty word; a write must change the board"
        );
        assert!(
            msg.len() <= self.budget as usize,
            "node {pick} wrote {} bits, exceeding the declared budget of {} bits",
            msg.len(),
            self.budget
        );
        if recording {
            if self.model.is_asynchronous() {
                // The frozen message was consumed by the crash; undo must
                // refreeze it.
                self.undo.push(UndoOp::Frozen(i, Some(msg)));
            }
            self.undo.push(UndoOp::Status(i, self.status[i]));
        }
        self.status[i] = Status::Terminated;
        self.write_order.push(pick);
        self.crashed.push(pick);
        if recording {
            self.undo.push(UndoOp::Crash);
        }
    }

    /// Nodes whose write was dropped by [`Self::step_crash`], in crash
    /// order. Empty for fault-free runs. A crashed node is exactly a node
    /// that is terminated but absent from the board, so this set is
    /// recoverable from the canonical configuration encoding — which is why
    /// faulted exploration needs no encoding change.
    pub fn crashed(&self) -> &[NodeId] {
        &self.crashed
    }

    /// Number of crashed writes so far (the explorer's spent fault budget).
    pub fn crashed_count(&self) -> usize {
        self.crashed.len()
    }

    /// The observation half of [`Self::step`]: every surviving node observes
    /// the most recent board entry.
    pub(crate) fn deliver_last_entry(&mut self) {
        let recording = self.recording();
        let seq = self.board.len() - 1;
        // Deliver straight out of the board (disjoint field borrows): the
        // observation fan-out clones nothing.
        let entry = self.board.entry(seq);
        let writer = entry.writer;
        let entry_msg = &entry.msg;
        for j in 0..self.nodes.len() {
            match self.status[j] {
                Status::Terminated => {}
                // An active asynchronous node's message is frozen; later
                // observations cannot influence it, so skip delivery.
                Status::Active if self.model.is_asynchronous() => {}
                _ => {
                    if recording {
                        self.undo.push(UndoOp::Node(j, self.nodes[j].clone()));
                    }
                    self.nodes[j].observe(&self.views[j], seq, writer, entry_msg)
                }
            }
        }
    }

    /// Whether every node has terminated.
    pub fn is_complete(&self) -> bool {
        self.status.iter().all(|s| *s == Status::Terminated)
    }

    /// Classify the current configuration: success with the decoded output,
    /// or deadlock with the still-awake nodes.
    fn outcome(&self) -> Outcome<P::Output> {
        if self.is_complete() {
            Outcome::Success(self.protocol.output(self.views.len(), &self.board))
        } else {
            Outcome::Deadlock {
                awake: self
                    .status
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s != Status::Terminated)
                    .map(|(i, _)| i as NodeId + 1)
                    .collect(),
            }
        }
    }

    /// Snapshot the current terminal configuration into a report without
    /// consuming the engine (call when the active set is empty). The
    /// exhaustive executors use this at leaves so they can undo back to the
    /// parent afterwards; [`Self::finish`] is the consuming form.
    pub fn report(&self) -> RunReport<P::Output> {
        RunReport {
            outcome: self.outcome(),
            write_order: self.write_order.clone(),
            board: self.board.clone(),
            crashed: self.crashed.clone(),
        }
    }

    /// Consume the engine into a report (call when the active set is empty).
    pub fn finish(self) -> RunReport<P::Output> {
        RunReport {
            outcome: self.outcome(),
            write_order: self.write_order,
            board: self.board,
            crashed: self.crashed,
        }
    }
}

/// Run `protocol` on `g` to completion under `adversary`.
pub fn run<P: Protocol, A: Adversary + ?Sized>(
    protocol: &P,
    g: &Graph,
    adversary: &mut A,
) -> RunReport<P::Output> {
    let mut engine = Engine::new(protocol, g);
    let mut active = Vec::with_capacity(g.n());
    loop {
        engine.activation_phase();
        engine.active_set_into(&mut active);
        if active.is_empty() {
            return engine.finish();
        }
        let pick = adversary.pick(&active, engine.board());
        engine.step(pick);
    }
}

/// One round of an execution timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRow {
    /// Round number (1-based; one write per round).
    pub round: usize,
    /// How many nodes were active when the adversary chose.
    pub active_before: usize,
    /// The node whose message was written.
    pub writer: NodeId,
    /// That message's length in bits.
    pub message_bits: usize,
}

/// Like [`run`], additionally recording a per-round timeline — useful for the
/// CLI, the examples, and for inspecting certificate-driven activation waves
/// (e.g. BFS layers opening all at once).
pub fn run_traced<P: Protocol, A: Adversary + ?Sized>(
    protocol: &P,
    g: &Graph,
    adversary: &mut A,
) -> (RunReport<P::Output>, Vec<TraceRow>) {
    let mut engine = Engine::new(protocol, g);
    let mut trace = Vec::with_capacity(g.n());
    loop {
        engine.activation_phase();
        let active = engine.active_set();
        if active.is_empty() {
            return (engine.finish(), trace);
        }
        let pick = adversary.pick(&active, engine.board());
        engine.step(pick);
        trace.push(TraceRow {
            round: trace.len() + 1,
            active_before: active.len(),
            writer: pick,
            message_bits: engine.board().entry(engine.board().len() - 1).msg.len(),
        });
    }
}

#[cfg(test)]
pub(crate) mod toys {
    //! Tiny protocols exercising each model's semantics; shared with the
    //! adapter and exhaustive tests.
    use super::*;
    use wb_math::{id_bits, BitReader, BitWriter};

    /// SIMASYNC: everyone writes its ID; output = sorted IDs from the board.
    pub struct EchoId;

    #[derive(Clone)]
    pub struct EchoNode {
        id: NodeId,
    }

    impl Node for EchoNode {
        fn observe(&mut self, _v: &LocalView, _s: usize, _w: NodeId, _m: &BitVec) {
            // SIMASYNC nodes never observe; reaching here under promotion is
            // fine because compose was cached at spawn.
        }
        fn compose(&mut self, view: &LocalView) -> BitVec {
            let mut w = BitWriter::new();
            w.write_bits(self.id as u64, id_bits(view.n));
            w.finish()
        }
    }

    impl Protocol for EchoId {
        type Node = EchoNode;
        type Output = Vec<NodeId>;
        fn model(&self) -> Model {
            Model::SimAsync
        }
        fn budget_bits(&self, n: usize) -> u32 {
            id_bits(n)
        }
        fn spawn(&self, view: &LocalView) -> EchoNode {
            EchoNode { id: view.id }
        }
        fn output(&self, n: usize, board: &Whiteboard) -> Vec<NodeId> {
            let mut ids: Vec<NodeId> = board
                .entries()
                .iter()
                .map(|e| BitReader::new(&e.msg).read_bits(id_bits(n)) as NodeId)
                .collect();
            ids.sort_unstable();
            ids
        }
    }

    /// SIMSYNC: message = (id, number of messages observed so far). Output:
    /// `(id, rank)` pairs in write order.
    pub struct SeenCount;

    #[derive(Clone, Default)]
    pub struct SeenNode {
        id: NodeId,
        seen: u64,
    }

    impl Node for SeenNode {
        fn observe(&mut self, _v: &LocalView, _s: usize, _w: NodeId, _m: &BitVec) {
            self.seen += 1;
        }
        fn compose(&mut self, view: &LocalView) -> BitVec {
            let mut w = BitWriter::new();
            w.write_bits(self.id as u64, id_bits(view.n));
            w.write_bits(self.seen, id_bits(view.n) + 1);
            w.finish()
        }
    }

    impl Protocol for SeenCount {
        type Node = SeenNode;
        type Output = Vec<(NodeId, u64)>;
        fn model(&self) -> Model {
            Model::SimSync
        }
        fn budget_bits(&self, n: usize) -> u32 {
            2 * id_bits(n) + 1
        }
        fn spawn(&self, view: &LocalView) -> SeenNode {
            SeenNode {
                id: view.id,
                seen: 0,
            }
        }
        fn output(&self, n: usize, board: &Whiteboard) -> Self::Output {
            board
                .entries()
                .iter()
                .map(|e| {
                    let mut r = BitReader::new(&e.msg);
                    let id = r.read_bits(id_bits(n)) as NodeId;
                    let seen = r.read_bits(id_bits(n) + 1);
                    (id, seen)
                })
                .collect()
        }
    }

    /// Same message function as [`SeenCount`] but declared ASYNC with
    /// immediate activation: everyone freezes `seen = 0` in round 1. The
    /// contrast with `SeenCount` is exactly the SIMSYNC/ASYNC semantic split.
    pub struct FrozenSeenCount;

    impl Protocol for FrozenSeenCount {
        type Node = SeenNode;
        type Output = Vec<(NodeId, u64)>;
        fn model(&self) -> Model {
            Model::Async
        }
        fn budget_bits(&self, n: usize) -> u32 {
            2 * id_bits(n) + 1
        }
        fn spawn(&self, view: &LocalView) -> SeenNode {
            SeenNode {
                id: view.id,
                seen: 0,
            }
        }
        fn output(&self, n: usize, board: &Whiteboard) -> Self::Output {
            SeenCount.output(n, board)
        }
    }

    /// SYNC, free: node `v_i` activates once `i−1` messages are on the board,
    /// forcing the write order `v_1, …, v_n` against any adversary.
    pub struct Chain;

    #[derive(Clone)]
    pub struct ChainNode {
        id: NodeId,
        seen: usize,
    }

    impl Node for ChainNode {
        fn observe(&mut self, _v: &LocalView, _s: usize, _w: NodeId, _m: &BitVec) {
            self.seen += 1;
        }
        fn wants_to_activate(&mut self, _view: &LocalView) -> bool {
            self.seen == self.id as usize - 1
        }
        fn compose(&mut self, view: &LocalView) -> BitVec {
            let mut w = BitWriter::new();
            w.write_bits(self.id as u64, id_bits(view.n));
            w.finish()
        }
    }

    impl Protocol for Chain {
        type Node = ChainNode;
        type Output = Vec<NodeId>;
        fn model(&self) -> Model {
            Model::Sync
        }
        fn budget_bits(&self, n: usize) -> u32 {
            id_bits(n)
        }
        fn spawn(&self, view: &LocalView) -> ChainNode {
            ChainNode {
                id: view.id,
                seen: 0,
            }
        }
        fn output(&self, n: usize, board: &Whiteboard) -> Vec<NodeId> {
            board
                .entries()
                .iter()
                .map(|e| BitReader::new(&e.msg).read_bits(id_bits(n)) as NodeId)
                .collect()
        }
    }

    /// Free protocol whose nodes never activate: guaranteed deadlock.
    pub struct NeverActivate;

    #[derive(Clone)]
    pub struct InertNode;

    impl Node for InertNode {
        fn observe(&mut self, _v: &LocalView, _s: usize, _w: NodeId, _m: &BitVec) {}
        fn wants_to_activate(&mut self, _view: &LocalView) -> bool {
            false
        }
        fn compose(&mut self, _view: &LocalView) -> BitVec {
            unreachable!("never active")
        }
    }

    impl Protocol for NeverActivate {
        type Node = InertNode;
        type Output = ();
        fn model(&self) -> Model {
            Model::Sync
        }
        fn budget_bits(&self, _n: usize) -> u32 {
            1
        }
        fn spawn(&self, _view: &LocalView) -> InertNode {
            InertNode
        }
        fn output(&self, _n: usize, _board: &Whiteboard) {}
    }

    /// Declares a 1-bit budget but writes 5 bits: must trip the engine.
    pub struct BudgetBuster;

    #[derive(Clone)]
    pub struct BustNode;

    impl Node for BustNode {
        fn observe(&mut self, _v: &LocalView, _s: usize, _w: NodeId, _m: &BitVec) {}
        fn compose(&mut self, _view: &LocalView) -> BitVec {
            let mut w = BitWriter::new();
            w.write_bits(0b10110, 5);
            w.finish()
        }
    }

    impl Protocol for BudgetBuster {
        type Node = BustNode;
        type Output = ();
        fn model(&self) -> Model {
            Model::SimAsync
        }
        fn budget_bits(&self, _n: usize) -> u32 {
            1
        }
        fn spawn(&self, _view: &LocalView) -> BustNode {
            BustNode
        }
        fn output(&self, _n: usize, _board: &Whiteboard) {}
    }
}

#[cfg(test)]
mod tests {
    use super::toys::*;
    use super::*;
    use crate::adversary::{MaxIdAdversary, MinIdAdversary, PriorityAdversary, RandomAdversary};
    use wb_graph::generators;

    fn path(n: usize) -> Graph {
        generators::path(n)
    }

    #[test]
    fn echo_succeeds_under_any_adversary() {
        let g = path(5);
        for report in [
            run(&EchoId, &g, &mut MinIdAdversary),
            run(&EchoId, &g, &mut MaxIdAdversary),
            run(&EchoId, &g, &mut RandomAdversary::new(1)),
            run(&EchoId, &g, &mut PriorityAdversary::random(5, 9)),
        ] {
            assert_eq!(report.outcome, Outcome::Success(vec![1, 2, 3, 4, 5]));
            assert_eq!(report.write_order.len(), 5);
            assert_eq!(report.max_message_bits(), 3);
            assert_eq!(report.total_bits(), 15);
        }
    }

    #[test]
    fn simsync_sees_growing_board() {
        let g = path(4);
        let report = run(&SeenCount, &g, &mut MinIdAdversary);
        let out = report.outcome.unwrap();
        // Under min-ID: nodes 1,2,3,4 write in order, observing 0,1,2,3 prior
        // messages respectively.
        assert_eq!(out, vec![(1, 0), (2, 1), (3, 2), (4, 3)]);
    }

    #[test]
    fn async_freezes_at_activation() {
        let g = path(4);
        let report = run(&FrozenSeenCount, &g, &mut MinIdAdversary);
        let out = report.outcome.unwrap();
        // Everyone activated on the empty board: all frozen with seen = 0.
        assert_eq!(out, vec![(1, 0), (2, 0), (3, 0), (4, 0)]);
    }

    #[test]
    fn chain_forces_write_order_against_all_adversaries() {
        let g = path(6);
        for report in [
            run(&Chain, &g, &mut MinIdAdversary),
            run(&Chain, &g, &mut MaxIdAdversary),
            run(&Chain, &g, &mut RandomAdversary::new(7)),
            run(&Chain, &g, &mut PriorityAdversary::new(&[6, 5, 4, 3, 2, 1])),
        ] {
            assert_eq!(report.write_order, vec![1, 2, 3, 4, 5, 6]);
            assert_eq!(report.outcome, Outcome::Success(vec![1, 2, 3, 4, 5, 6]));
        }
    }

    #[test]
    fn deadlock_is_reported_with_awake_set() {
        let g = path(3);
        let report = run(&NeverActivate, &g, &mut MinIdAdversary);
        assert_eq!(
            report.outcome,
            Outcome::Deadlock {
                awake: vec![1, 2, 3]
            }
        );
        assert!(report.write_order.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeding the declared budget")]
    fn budget_violation_panics() {
        run(&BudgetBuster, &path(2), &mut MinIdAdversary);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_graph_rejected() {
        Engine::new(&EchoId, &Graph::empty(0));
    }

    #[test]
    #[should_panic(expected = "non-active")]
    fn stepping_non_active_node_panics() {
        let g = path(3);
        let mut engine = Engine::new(&Chain, &g);
        engine.activation_phase();
        engine.step(3); // only node 1 is active
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let g = path(5);
        let plain = run(&SeenCount, &g, &mut MinIdAdversary);
        let (traced, trace) = run_traced(&SeenCount, &g, &mut MinIdAdversary);
        assert_eq!(plain.write_order, traced.write_order);
        assert_eq!(trace.len(), 5);
        for (i, row) in trace.iter().enumerate() {
            assert_eq!(row.round, i + 1);
            assert_eq!(row.writer, traced.write_order[i]);
            // SIMSYNC: actives shrink by one per round.
            assert_eq!(row.active_before, 5 - i);
            assert!(row.message_bits > 0);
        }
    }

    #[test]
    fn traced_chain_has_singleton_active_sets() {
        let g = path(4);
        let (_, trace) = run_traced(&Chain, &g, &mut MaxIdAdversary);
        assert!(trace.iter().all(|r| r.active_before == 1));
    }

    #[test]
    fn single_node_graph_runs() {
        let g = Graph::empty(1);
        let report = run(&EchoId, &g, &mut MinIdAdversary);
        assert_eq!(report.outcome, Outcome::Success(vec![1]));
    }

    /// Full observable state of an engine, for exact undo comparisons.
    fn observable<P: Protocol>(e: &Engine<P>) -> (CanonicalState, Vec<NodeId>, Whiteboard) {
        (
            e.canonical_state(),
            e.write_order().to_vec(),
            e.board().clone(),
        )
    }

    #[test]
    fn undo_restores_single_step_exactly() {
        for drive_activation in [false, true] {
            let g = path(4);
            let mut engine = Engine::new(&SeenCount, &g);
            engine.activation_phase();
            let before = observable(&engine);
            let fp_before = engine.canonical_fingerprint();
            let token = engine.step_token();
            engine.step(2);
            if drive_activation {
                engine.activation_phase();
            }
            assert_ne!(before.0, engine.canonical_state());
            engine.undo(token);
            assert_eq!(before, observable(&engine));
            assert_eq!(fp_before, engine.canonical_fingerprint());
            // The restored engine still runs to the same outcome.
            let mut adv = MinIdAdversary;
            loop {
                engine.activation_phase();
                let active = engine.active_set();
                if active.is_empty() {
                    break;
                }
                let pick = adv.pick(&active, engine.board());
                engine.step(pick);
            }
            assert_eq!(
                engine.finish().outcome,
                run(&SeenCount, &g, &mut MinIdAdversary).outcome
            );
        }
    }

    #[test]
    fn undo_tokens_nest_lifo() {
        let g = path(5);
        let mut engine = Engine::new(&EchoId, &g);
        engine.activation_phase();
        let s0 = observable(&engine);
        let t1 = engine.step_token();
        engine.step(3);
        engine.activation_phase();
        let s1 = observable(&engine);
        let t2 = engine.step_token();
        engine.step(1);
        engine.activation_phase();
        engine.undo(t2);
        assert_eq!(s1, observable(&engine));
        engine.undo(t1);
        assert_eq!(s0, observable(&engine));
    }

    #[test]
    fn undo_restores_async_freeze_slots() {
        // FrozenSeenCount is ASYNC with immediate activation: stepping moves
        // a frozen message onto the board; undo must move it back.
        let g = path(3);
        let mut engine = Engine::new(&FrozenSeenCount, &g);
        engine.activation_phase();
        let before = observable(&engine);
        let token = engine.step_token();
        engine.step(2);
        engine.activation_phase();
        engine.undo(token);
        assert_eq!(before, observable(&engine));
        // The refrozen message is still writable.
        engine.step(2);
        assert_eq!(engine.board().len(), 1);
    }

    #[test]
    fn undo_restores_free_model_activation() {
        // Chain (SYNC, free): stepping node 1 activates node 2 in the next
        // activation phase; undo must re-sleep it and roll back the polled
        // node states.
        let g = path(4);
        let mut engine = Engine::new(&Chain, &g);
        engine.activation_phase();
        assert_eq!(engine.active_set(), vec![1]);
        let before = observable(&engine);
        let token = engine.step_token();
        engine.step(1);
        engine.activation_phase();
        assert_eq!(engine.active_set(), vec![2]);
        engine.undo(token);
        assert_eq!(before, observable(&engine));
        assert_eq!(engine.active_set(), vec![1]);
        // Replaying after the undo still forces the chain order.
        for pick in 1..=4 {
            engine.step(pick);
            engine.activation_phase();
        }
        assert_eq!(engine.finish().outcome, Outcome::Success(vec![1, 2, 3, 4]));
    }

    #[test]
    fn commit_accepts_the_branch() {
        let g = path(3);
        let mut engine = Engine::new(&EchoId, &g);
        engine.activation_phase();
        let token = engine.step_token();
        engine.step(2);
        let after = observable(&engine);
        engine.commit(token);
        assert_eq!(after, observable(&engine));
        // A fresh token still works after commit.
        let token = engine.step_token();
        engine.step(1);
        engine.undo(token);
        assert_eq!(after, observable(&engine));
    }

    #[test]
    #[should_panic(expected = "without an outstanding step token")]
    fn undo_without_token_panics() {
        let g = path(2);
        let mut engine = Engine::new(&EchoId, &g);
        engine.activation_phase();
        let token = engine.step_token();
        engine.undo(token);
        let stale = StepToken { mark: 0 };
        engine.undo(stale);
    }

    #[test]
    fn fingerprint_agrees_with_canonical_equality() {
        // Drive EchoId (SIMASYNC) to a handful of configurations: equal
        // canonical states ⇔ equal fingerprints on permuted prefixes, and
        // all distinct states get distinct fingerprints here.
        let g = path(4);
        let drive = |order: &[NodeId]| {
            let mut e = Engine::new(&EchoId, &g);
            e.activation_phase();
            for &v in order {
                e.step(v);
                e.activation_phase();
            }
            (e.canonical_state(), e.canonical_fingerprint())
        };
        let (c12, f12) = drive(&[1, 2]);
        let (c21, f21) = drive(&[2, 1]);
        let (c13, f13) = drive(&[1, 3]);
        assert_eq!(c12, c21, "permuted prefixes reach one configuration");
        assert_eq!(f12, f21, "equal canonical states ⇒ equal fingerprints");
        assert_ne!(c12, c13);
        assert_ne!(f12, f13, "distinct states should not collide");
        assert_ne!(f12.shard_key(), 0, "shard key mixes the high bits");
    }

    #[test]
    fn unrecorded_runs_keep_an_empty_journal() {
        let g = path(4);
        let mut engine = Engine::new(&SeenCount, &g);
        engine.activation_phase();
        engine.step(1);
        engine.step(2);
        assert_eq!(engine.undo.len(), 0, "no token, no journal");
        let token = engine.step_token();
        engine.step(3);
        assert!(engine.undo.len() > 0);
        engine.undo(token);
        assert_eq!(engine.undo.len(), 0);
    }

    #[test]
    fn clones_do_not_inherit_savepoints() {
        let g = path(3);
        let mut engine = Engine::new(&EchoId, &g);
        engine.activation_phase();
        let _token = engine.step_token();
        engine.step(1);
        let branch = engine.clone();
        assert_eq!(branch.tokens, 0);
        assert!(branch.undo.is_empty());
        assert_eq!(branch.canonical_state(), engine.canonical_state());
    }

    #[test]
    fn outcome_unwrap_panics_on_deadlock() {
        let outcome: Outcome<()> = Outcome::Deadlock { awake: vec![2] };
        assert!(!outcome.is_success());
        let r = std::panic::catch_unwind(|| outcome.unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn crash_drops_the_write_and_terminates_the_node() {
        let g = path(3);
        let mut engine = Engine::new(&EchoId, &g);
        engine.activation_phase();
        engine.step_crash(2);
        assert_eq!(engine.board().len(), 0, "a crashed write never lands");
        assert_eq!(engine.write_order(), &[2]);
        assert_eq!(engine.crashed(), &[2]);
        assert_eq!(engine.crashed_count(), 1);
        engine.step(1);
        engine.step(3);
        assert!(engine.is_complete());
        let report = engine.finish();
        assert_eq!(report.outcome, Outcome::Success(vec![1, 3]));
        assert_eq!(report.write_order, vec![2, 1, 3]);
        assert_eq!(report.crashed, vec![2]);
    }

    #[test]
    fn crash_is_visible_in_the_canonical_encoding() {
        // "2 crashed" and "2 wrote" are different configurations (board
        // differs); "2 crashed" and "2 not yet scheduled" differ in status.
        let g = path(3);
        let mut crashed = Engine::new(&EchoId, &g);
        crashed.activation_phase();
        crashed.step_crash(2);
        let mut wrote = Engine::new(&EchoId, &g);
        wrote.activation_phase();
        wrote.step(2);
        let mut fresh = Engine::new(&EchoId, &g);
        fresh.activation_phase();
        assert_ne!(crashed.canonical_state(), wrote.canonical_state());
        assert_ne!(crashed.canonical_state(), fresh.canonical_state());
        assert_ne!(
            crashed.canonical_fingerprint(),
            wrote.canonical_fingerprint()
        );
    }

    #[test]
    fn undo_restores_a_crashed_sync_step_exactly() {
        let g = path(4);
        let mut engine = Engine::new(&SeenCount, &g);
        engine.activation_phase();
        let before = observable(&engine);
        let token = engine.step_token();
        engine.step_crash(3);
        engine.activation_phase();
        assert_ne!(before.0, engine.canonical_state());
        engine.undo(token);
        assert_eq!(before, observable(&engine));
        assert_eq!(engine.crashed_count(), 0);
        // The restored node still writes normally.
        engine.step(3);
        assert_eq!(engine.board().len(), 1);
    }

    #[test]
    fn undo_refreezes_a_crashed_async_message() {
        // FrozenSeenCount is ASYNC: the crash consumes the frozen message;
        // undo must put it back so the node can still write.
        let g = path(3);
        let mut engine = Engine::new(&FrozenSeenCount, &g);
        engine.activation_phase();
        let before = observable(&engine);
        let token = engine.step_token();
        engine.step_crash(2);
        engine.undo(token);
        assert_eq!(before, observable(&engine));
        engine.step(2);
        assert_eq!(engine.board().len(), 1);
    }

    #[test]
    fn crash_in_a_free_model_can_deadlock_downstream_waiters() {
        // Chain node 2 activates only after one message is on the board;
        // crashing node 1 erases that message forever.
        let g = path(3);
        let mut engine = Engine::new(&Chain, &g);
        engine.activation_phase();
        assert_eq!(engine.active_set(), vec![1]);
        engine.step_crash(1);
        engine.activation_phase();
        assert!(!engine.has_active(), "node 2 never sees a message");
        let report = engine.finish();
        assert_eq!(report.outcome, Outcome::Deadlock { awake: vec![2, 3] });
        assert_eq!(report.crashed, vec![1]);
    }

    #[test]
    #[should_panic(expected = "crashed non-active node")]
    fn crashing_a_non_active_node_panics() {
        let g = path(3);
        let mut engine = Engine::new(&Chain, &g);
        engine.activation_phase();
        engine.step_crash(3); // only node 1 is active
    }

    #[test]
    #[should_panic(expected = "exceeding the declared budget")]
    fn crashed_writes_still_enforce_the_budget() {
        let g = path(2);
        let mut engine = Engine::new(&BudgetBuster, &g);
        engine.activation_phase();
        engine.step_crash(1);
    }
}
