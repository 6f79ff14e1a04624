//! The shared whiteboard: an append-only sequence of bit-string messages.

use wb_graph::NodeId;
use wb_math::BitVec;

/// One written message. The `writer` field is engine metadata used by the
/// invariant checker and by adversaries (which are omniscient); protocols read
/// IDs from the message *bits* themselves, as in the paper where every message
/// starts with `ID(v)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Engine metadata: who wrote this message.
    pub writer: NodeId,
    /// The message bits.
    pub msg: BitVec,
}

/// The whiteboard state `W`: the messages written so far, in write order.
///
/// Alongside the write-ordered entries the board maintains a persistent
/// writer→entry index (`by_writer`), kept sorted on every push, so canonical
/// encoders can stream entries in writer order without a per-call sort or
/// allocation. Writers are unique (the one-write rule), so the order is
/// total; the index is a pure function of the entries, which keeps the
/// derived `PartialEq` consistent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Whiteboard {
    entries: Vec<Entry>,
    by_writer: Vec<u32>,
}

impl Whiteboard {
    /// The empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty board with room for `n` messages (one per node) — lets the
    /// engine pre-size the hot append path.
    pub fn with_capacity(n: usize) -> Self {
        Whiteboard {
            entries: Vec::with_capacity(n),
            by_writer: Vec::with_capacity(n),
        }
    }

    /// Messages written so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the board is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in write order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The `i`-th entry.
    pub fn entry(&self, i: usize) -> &Entry {
        &self.entries[i]
    }

    /// Assemble a board from `(writer, message)` pairs.
    ///
    /// This is **not** part of the node-facing model — it exists so that
    /// reductions (Theorems 3, 6, 8) can synthesize the whiteboard a simulated
    /// protocol *would* have produced and feed it to that protocol's output
    /// function.
    pub fn from_messages(entries: impl IntoIterator<Item = (NodeId, BitVec)>) -> Self {
        let entries: Vec<Entry> = entries
            .into_iter()
            .map(|(writer, msg)| Entry { writer, msg })
            .collect();
        let mut by_writer: Vec<u32> = (0..entries.len() as u32).collect();
        by_writer.sort_by_key(|&i| entries[i as usize].writer);
        Whiteboard { entries, by_writer }
    }

    /// The entries in ascending writer order (the persistent index — no sort,
    /// no allocation). Well-defined because the one-write rule makes writers
    /// unique; this is the iteration order of the canonical state encoding.
    pub fn entries_by_writer(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.by_writer.iter().map(|&i| &self.entries[i as usize])
    }

    /// A copy with room for `extra` more messages (engine use: an engine
    /// clone that will be stepped should not regrow its board on the way).
    pub(crate) fn with_room(&self, extra: usize) -> Self {
        let mut board = Whiteboard::with_capacity(self.len() + extra);
        board.entries.extend_from_slice(&self.entries);
        board.by_writer.extend_from_slice(&self.by_writer);
        board
    }

    /// Reserve room for exactly `extra` more messages (engine use).
    pub(crate) fn reserve(&mut self, extra: usize) {
        self.entries.reserve_exact(extra);
        self.by_writer.reserve_exact(extra);
    }

    /// Append a message (engine use).
    pub(crate) fn push(&mut self, writer: NodeId, msg: BitVec) {
        let idx = self.entries.len() as u32;
        let pos = self
            .by_writer
            .partition_point(|&e| self.entries[e as usize].writer < writer);
        self.by_writer.insert(pos, idx);
        self.entries.push(Entry { writer, msg });
    }

    /// Remove and return the most recent entry (engine use: the undo log's
    /// inverse of [`Self::push`]).
    pub(crate) fn pop(&mut self) -> Option<Entry> {
        let entry = self.entries.pop()?;
        let idx = self.entries.len() as u32;
        let pos = self
            .by_writer
            .iter()
            .position(|&e| e == idx)
            .expect("writer index tracks entries");
        self.by_writer.remove(pos);
        Some(entry)
    }

    /// Total bits on the board — the quantity Lemma 3 bounds by `n·f(n)`.
    pub fn total_bits(&self) -> usize {
        self.entries.iter().map(|e| e.msg.len()).sum()
    }

    /// Largest single message in bits.
    pub fn max_message_bits(&self) -> usize {
        self.entries.iter().map(|e| e.msg.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_math::BitWriter;

    fn msg(bits: u64, width: u32) -> BitVec {
        let mut w = BitWriter::new();
        w.write_bits(bits, width);
        w.finish()
    }

    #[test]
    fn board_accumulates_in_order() {
        let mut b = Whiteboard::new();
        assert!(b.is_empty());
        b.push(3, msg(5, 4));
        b.push(1, msg(2, 8));
        assert_eq!(b.len(), 2);
        assert_eq!(b.entry(0).writer, 3);
        assert_eq!(b.entry(1).writer, 1);
        assert_eq!(b.total_bits(), 12);
        assert_eq!(b.max_message_bits(), 8);
    }

    #[test]
    fn empty_board_stats() {
        let b = Whiteboard::new();
        assert_eq!(b.total_bits(), 0);
        assert_eq!(b.max_message_bits(), 0);
    }

    #[test]
    fn writer_index_streams_entries_sorted() {
        let mut b = Whiteboard::with_capacity(4);
        for (w, bits) in [(3, 5), (1, 2), (4, 7), (2, 1)] {
            b.push(w, msg(bits, 4));
        }
        let writers: Vec<_> = b.entries_by_writer().map(|e| e.writer).collect();
        assert_eq!(writers, vec![1, 2, 3, 4]);
        // Write order is preserved independently of the index.
        let in_order: Vec<_> = b.entries().iter().map(|e| e.writer).collect();
        assert_eq!(in_order, vec![3, 1, 4, 2]);
    }

    #[test]
    fn pop_undoes_push_exactly() {
        let mut b = Whiteboard::new();
        b.push(2, msg(1, 3));
        let snapshot = b.clone();
        b.push(1, msg(6, 3));
        let popped = b.pop().expect("entry present");
        assert_eq!(popped.writer, 1);
        assert_eq!(b, snapshot);
        assert_eq!(
            b.entries_by_writer().map(|e| e.writer).collect::<Vec<_>>(),
            vec![2]
        );
        b.pop();
        assert!(b.pop().is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn from_messages_indexes_writers() {
        let b = Whiteboard::from_messages(vec![(9, msg(0, 2)), (4, msg(1, 2)), (6, msg(2, 2))]);
        let writers: Vec<_> = b.entries_by_writer().map(|e| e.writer).collect();
        assert_eq!(writers, vec![4, 6, 9]);
    }

    #[test]
    fn from_messages_builds_simulation_boards() {
        let b = Whiteboard::from_messages(vec![(2, msg(1, 3)), (7, msg(0, 5))]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.entry(0).writer, 2);
        assert_eq!(b.entry(1).writer, 7);
        assert_eq!(b.entry(1).msg.len(), 5);
        // Equal content compares equal regardless of construction path.
        let mut manual = Whiteboard::new();
        manual.push(2, msg(1, 3));
        manual.push(7, msg(0, 5));
        assert_eq!(b, manual);
    }
}
