//! Timing wrappers around the public protocol interfaces.
//!
//! [`TracedBulk`] and [`TracedProtocol`] delegate every method to the
//! protocol they wrap and open a [`trace::hook`] span around each hook, so
//! the engines run the same program with timers at the layer boundaries.
//! Everything that steers an engine (model, budget, commutativity,
//! equivariance, pinned nodes, message relabelling) is passed through
//! untouched; the cross-check against the untraced reports proves it.

use crate::trace::{self, Hook};
use wb_graph::{Graph, NodeId};
use wb_math::BitVec;
use wb_runtime::bulk::{BulkBoard, BulkProtocol};
use wb_runtime::{Commutativity, LocalView, Model, Node, Protocol, Whiteboard};

/// A [`BulkProtocol`] whose `init`, `compose`, `observe` and `output` are
/// timed.
pub struct TracedBulk<P>(pub P);

impl<P: BulkProtocol> BulkProtocol for TracedBulk<P> {
    type State = P::State;
    type Output = P::Output;

    fn model(&self) -> Model {
        self.0.model()
    }

    fn budget_bits(&self, n: usize) -> u32 {
        self.0.budget_bits(n)
    }

    fn init(&self, g: &Graph) -> P::State {
        let _span = trace::hook(Hook::Init);
        self.0.init(g)
    }

    fn compose(&self, state: &P::State, v: NodeId) -> BitVec {
        let _span = trace::hook(Hook::Compose);
        self.0.compose(state, v)
    }

    fn observe(&self, state: &mut P::State, v: NodeId, msg: &BitVec) {
        let _span = trace::hook(Hook::Observe);
        self.0.observe(state, v, msg)
    }

    fn output(&self, n: usize, board: &BulkBoard) -> P::Output {
        let _span = trace::hook(Hook::Output);
        self.0.output(n, board)
    }
}

/// A step [`Protocol`] whose `spawn`, `output` and node hooks are timed.
#[derive(Clone)]
pub struct TracedProtocol<P>(pub P);

/// The node type of [`TracedProtocol`].
#[derive(Clone)]
pub struct TracedNode<N>(N);

impl<N: Node> Node for TracedNode<N> {
    fn observe(&mut self, view: &LocalView, seq: usize, writer: NodeId, msg: &BitVec) {
        let _span = trace::hook(Hook::NodeObserve);
        self.0.observe(view, seq, writer, msg)
    }

    fn wants_to_activate(&mut self, view: &LocalView) -> bool {
        let _span = trace::hook(Hook::NodeActivate);
        self.0.wants_to_activate(view)
    }

    fn compose(&mut self, view: &LocalView) -> BitVec {
        let _span = trace::hook(Hook::NodeCompose);
        self.0.compose(view)
    }
}

impl<P: Protocol> Protocol for TracedProtocol<P> {
    type Node = TracedNode<P::Node>;
    type Output = P::Output;

    fn model(&self) -> Model {
        self.0.model()
    }

    fn budget_bits(&self, n: usize) -> u32 {
        self.0.budget_bits(n)
    }

    fn spawn(&self, view: &LocalView) -> Self::Node {
        let _span = trace::hook(Hook::Spawn);
        TracedNode(self.0.spawn(view))
    }

    fn output(&self, n: usize, board: &Whiteboard) -> P::Output {
        let _span = trace::hook(Hook::Output);
        self.0.output(n, board)
    }

    fn commutes(&self) -> Commutativity {
        self.0.commutes()
    }

    fn equivariant(&self) -> bool {
        self.0.equivariant()
    }

    fn pinned_nodes(&self) -> Vec<NodeId> {
        self.0.pinned_nodes()
    }

    fn relabel_message(&self, n: usize, msg: &BitVec, perm: &[NodeId]) -> BitVec {
        self.0.relabel_message(n, msg, perm)
    }
}

/// The step-protocol hooks that count as protocol time.
pub const STEP_HOOKS: [Hook; 5] = [
    Hook::Spawn,
    Hook::NodeObserve,
    Hook::NodeActivate,
    Hook::NodeCompose,
    Hook::Output,
];
