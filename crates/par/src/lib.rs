//! Minimal data-parallel toolkit for the experiment harness.
//!
//! The benchmark binaries sweep grids of `(graph family × size × adversary
//! seed)` — embarrassingly parallel work. Rather than pull in a full
//! work-stealing runtime, this crate offers the few primitives the harness
//! needs, built on `std::thread::scope` (structured concurrency: no
//! `'static` bounds, joins on scope exit) and `parking_lot` locks, following
//! the project's HPC guides:
//!
//! - [`par_map`] — parallel map over a slice with deterministic output order;
//! - [`par_for_each`] — parallel consumption of an index range with a shared
//!   atomic cursor (dynamic load balancing for skewed work);
//! - [`par_reduce`] — map + associative fold;
//! - [`par_batch_reduce`] — index-range reduction in contiguous batches with
//!   a commutative-monoid merge (the Monte Carlo campaign runner's
//!   aggregation primitive);
//! - [`par_stripes_with`] — striped writers: fill independent output shards
//!   in parallel on a pool of a given width and reassemble them in stripe
//!   order (the bulk tier's sharded whiteboard appends through this, and
//!   the schedule explorer runs its generation phases on it);
//! - [`WorkQueue`] — a bounded queue with overflow reported to the producer
//!   instead of blocking or allocating without bound;
//! - [`ClosableQueue`] — the long-lived sibling of [`WorkQueue`]: consumers
//!   *block* until work arrives, producers still get overflow handed back,
//!   and [`ClosableQueue::close`] drains gracefully (no new work accepted,
//!   queued work still consumed) — the dispatch spine of the `whiteboard
//!   serve` worker pool;
//! - [`par_drain`] — parallel consumption of a `WorkQueue` whose consumers
//!   may push follow-up work (for worklists whose size is not known up
//!   front, unlike [`par_for_each`]);
//! - [`PassthroughHasher`] — a hasher for keys that are already uniformly
//!   mixed, such as the schedule explorer's 128-bit fingerprints;
//! - [`num_threads`] — the pool width (respects `WB_THREADS`).
//!
//! All functions fall back to sequential execution for tiny inputs, so tests
//! and benches can call them unconditionally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads: `WB_THREADS` if set, else available parallelism,
/// else 4.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("WB_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Parallel map with output order matching input order.
///
/// `f` runs on borrowed items across `num_threads()` scoped workers pulling
/// indices from a shared cursor; results land in a pre-sized buffer guarded by
/// a single mutex (contention is negligible because `f` dominates).
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                slots.lock()[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .into_iter()
        .map(|r| r.expect("slot filled"))
        .collect()
}

/// Fill `stripes` independent output stripes in parallel on up to `threads`
/// workers, returning them in stripe order: stripe `s` is produced by
/// `fill(s)`, exactly once.
///
/// This is the **striped writer** primitive behind the bulk tier's sharded
/// whiteboard: each stripe is an append-only shard owned by exactly one
/// worker at a time, so writers never contend on a shared lock, and
/// reassembling the stripes in index order recovers a deterministic global
/// append order regardless of which worker produced which stripe when.
/// Work distribution is dynamic (shared atomic cursor), so skewed stripes
/// (one shard of huge messages) do not serialize the sweep. The schedule
/// explorer runs each phase of a frontier generation through it too, one
/// chunk of parents or one seen-set shard per stripe.
///
/// The result is identical for every `threads ≥ 1`, so callers that must
/// *prove* thread-count insensitivity (the bulk tier's determinism tests) can
/// sweep the width without touching the `WB_THREADS` environment variable;
/// pass [`num_threads`] for the default pool. Falls back to a sequential
/// loop for a single stripe or a width-1 pool.
pub fn par_stripes_with<T: Send>(
    threads: usize,
    stripes: usize,
    fill: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.max(1).min(stripes.max(1));
    if threads <= 1 || stripes <= 1 {
        return (0..stripes).map(fill).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..stripes).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let s = cursor.fetch_add(1, Ordering::Relaxed);
                if s >= stripes {
                    break;
                }
                let r = fill(s);
                *slots[s].lock() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("stripe filled"))
        .collect()
}

/// Run `f(i)` for every `i in 0..count` across the pool (no result order —
/// use for side-effecting sweeps that accumulate into their own sinks).
pub fn par_for_each(count: usize, f: impl Fn(usize) + Sync) {
    let threads = num_threads().min(count.max(1));
    if threads <= 1 || count <= 1 {
        for i in 0..count {
            f(i);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                f(i);
            });
        }
    });
}

/// Parallel reduction over the index range `0..total`, processed in
/// contiguous batches of `batch` indices.
///
/// `map` receives each batch as a `Range<usize>` and returns a partial
/// result; partials are combined with `fold`, which — together with
/// `identity` — must form a **commutative monoid**: batches are handed to
/// workers through a dynamic cursor and folded in whatever order they
/// finish, so only an order-insensitive `fold` yields a deterministic
/// result. This is the aggregation primitive behind the Monte Carlo
/// campaign runner (`wb-sim`): millions of trials, sharded into batches,
/// each batch reduced locally, partial statistics merged without any
/// cross-thread ordering.
///
/// Falls back to a sequential fold when the pool is width 1 or there is at
/// most one batch.
pub fn par_batch_reduce<R: Send>(
    total: usize,
    batch: usize,
    map: impl Fn(std::ops::Range<usize>) -> R + Sync,
    identity: impl Fn() -> R + Sync,
    fold: impl Fn(R, R) -> R + Sync,
) -> R {
    assert!(batch >= 1, "batches must hold at least one index");
    let batches = total.div_ceil(batch.max(1));
    let range_of = |b: usize| (b * batch)..((b * batch + batch).min(total));
    let threads = num_threads().min(batches.max(1));
    if threads <= 1 || batches <= 1 {
        return (0..batches)
            .map(|b| map(range_of(b)))
            .fold(identity(), fold);
    }
    let cursor = AtomicUsize::new(0);
    let partials = Mutex::new(Vec::with_capacity(threads));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut acc = identity();
                loop {
                    let b = cursor.fetch_add(1, Ordering::Relaxed);
                    if b >= batches {
                        break;
                    }
                    acc = fold(acc, map(range_of(b)));
                }
                partials.lock().push(acc);
            });
        }
    });
    partials.into_inner().into_iter().fold(identity(), fold)
}

/// Parallel map-reduce with an associative, commutative `fold`.
pub fn par_reduce<T: Sync, R: Send>(
    items: &[T],
    map: impl Fn(&T) -> R + Sync,
    identity: impl Fn() -> R + Sync,
    fold: impl Fn(R, R) -> R + Sync,
) -> R {
    let partials = Mutex::new(Vec::with_capacity(num_threads()));
    let cursor = AtomicUsize::new(0);
    let threads = num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(map).fold(identity(), &fold);
    }
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut acc = identity();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    acc = fold(acc, map(&items[i]));
                }
                partials.lock().push(acc);
            });
        }
    });
    partials.into_inner().into_iter().fold(identity(), fold)
}

/// A bounded FIFO work queue shared between producers and consumers.
///
/// The capacity bound turns "the worklist exploded" from an OOM into a
/// recoverable signal: [`WorkQueue::push`] hands the item back instead of
/// growing past the bound, and the caller decides what truncation means
/// (the differential harness drains its graph sweeps through one via
/// [`par_drain`]).
#[derive(Debug)]
pub struct WorkQueue<T> {
    items: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T> WorkQueue<T> {
    /// An empty queue holding at most `capacity` items (`capacity ≥ 1`).
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "a work queue needs capacity for work");
        WorkQueue {
            items: Mutex::new(VecDeque::new()),
            capacity,
        }
    }

    /// Enqueue `item`, or hand it back if the queue is at capacity.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut q = self.items.lock();
        if q.len() >= self.capacity {
            return Err(item);
        }
        q.push_back(item);
        Ok(())
    }

    /// Dequeue the oldest item, if any.
    pub fn pop(&self) -> Option<T> {
        self.items.lock().pop_front()
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }

    /// The capacity bound given at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drain the queue into a `Vec` (consumes the queue).
    pub fn into_vec(self) -> Vec<T> {
        self.items.into_inner().into()
    }
}

/// Why a [`ClosableQueue::push`] was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back (backpressure).
    Full(T),
    /// The queue was closed; the item is handed back (shutdown).
    Closed(T),
}

impl<T> PushError<T> {
    /// Recover the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

/// A bounded MPMC queue with *blocking* consumers and graceful close.
///
/// [`WorkQueue`] serves worklists that drain to empty and stop; a
/// long-running service needs the complementary shape: worker threads that
/// sleep until work arrives and a shutdown protocol that refuses new work
/// while still finishing everything already accepted. Semantics:
///
/// - [`push`](Self::push) never blocks: at capacity it hands the item back
///   as [`PushError::Full`] (the caller turns that into a structured
///   `queue_full` rejection), after [`close`](Self::close) as
///   [`PushError::Closed`].
/// - [`pop`](Self::pop) blocks until an item is available, and returns
///   `None` only once the queue is *closed and empty* — so closing drains:
///   every accepted item is still consumed, then all workers wake and exit.
///
/// Built on `std::sync::{Mutex, Condvar}` (the vendored `parking_lot` stub
/// deliberately carries no condvar).
#[derive(Debug)]
pub struct ClosableQueue<T> {
    inner: std::sync::Mutex<ClosableInner<T>>,
    ready: std::sync::Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct ClosableInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> ClosableQueue<T> {
    /// An open queue holding at most `capacity` items (`capacity ≥ 1`).
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "a work queue needs capacity for work");
        ClosableQueue {
            inner: std::sync::Mutex::new(ClosableInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: std::sync::Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ClosableInner<T>> {
        // A worker that panicked mid-`pop` poisons nothing we care about —
        // the queue state itself is always consistent — so recover the
        // guard instead of propagating the poison.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue `item`; refuses (handing the item back) when full or closed.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut q = self.lock();
        if q.closed {
            return Err(PushError::Closed(item));
        }
        if q.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        q.items.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until an item is available; `None` once closed *and* empty.
    pub fn pop(&self) -> Option<T> {
        let mut q = self.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking variant of [`pop`](Self::pop): `Ok(item)` if one was
    /// queued, `Err(closed)` otherwise (so pollers can distinguish "empty
    /// for now" from "drained and closed").
    pub fn try_pop(&self) -> Result<T, bool> {
        let mut q = self.lock();
        match q.items.pop_front() {
            Some(item) => Ok(item),
            None => Err(q.closed),
        }
    }

    /// Refuse all future pushes; queued items remain consumable. Wakes
    /// every blocked consumer so idle workers observe the close.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// The capacity bound given at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A pass-through [`Hasher`] for keys that are already uniformly mixed
/// (fingerprints, digests): the written words are folded with xor/rotate
/// and returned as-is, skipping SipHash entirely. Do **not** use it for
/// attacker-controlled or structured keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassthroughHasher {
    state: u64,
}

impl Hasher for PassthroughHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (rarely hit for digest keys): fold bytes in.
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.state = self.state.rotate_left(9) ^ u64::from_le_bytes(w);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = self.state.rotate_left(9) ^ v;
    }

    fn write_u128(&mut self, v: u128) {
        // Low word carries a digest's already-mixed entropy; the high word
        // is folded so both halves participate.
        self.state = self.state.rotate_left(9) ^ (v as u64) ^ ((v >> 64) as u64).rotate_left(32);
    }
}

/// `BuildHasher` shorthand for [`PassthroughHasher`].
pub type PassthroughBuildHasher = BuildHasherDefault<PassthroughHasher>;

/// Consume `queue` across the pool until it is empty *and* every worker is
/// idle. `f` may push follow-up work back onto the queue (subject to the
/// capacity bound), which is what distinguishes this from [`par_for_each`]:
/// the item count need not be known up front.
///
/// Termination detection: a shared busy counter is incremented before `f`
/// runs and decremented after, so a momentarily empty queue does not stop
/// workers while a peer might still produce more work.
pub fn par_drain<T: Send>(queue: &WorkQueue<T>, f: impl Fn(T, &WorkQueue<T>) + Sync) {
    let threads = num_threads();
    if threads <= 1 {
        while let Some(item) = queue.pop() {
            f(item, queue);
        }
        return;
    }
    let busy = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Raise the busy flag *before* popping: a peer that sees an
                // empty queue while we hold an unprocessed item must keep
                // spinning, since our item may spawn follow-up work.
                busy.fetch_add(1, Ordering::SeqCst);
                match queue.pop() {
                    Some(item) => {
                        f(item, queue);
                        busy.fetch_sub(1, Ordering::SeqCst);
                    }
                    None => {
                        busy.fetch_sub(1, Ordering::SeqCst);
                        if busy.load(Ordering::SeqCst) == 0 && queue.is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out = par_map(&input, |&x| x * x);
        let expected: Vec<u64> = input.iter().map(|&x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_stripes_fills_every_stripe_in_order() {
        let got = par_stripes_with(num_threads(), 37, |s| {
            // Uneven per-stripe work: stripe s yields the vec [s; s % 5].
            vec![s; s % 5]
        });
        assert_eq!(got.len(), 37);
        for (s, stripe) in got.iter().enumerate() {
            assert_eq!(stripe, &vec![s; s % 5], "stripe {s}");
        }
        assert!(par_stripes_with(num_threads(), 0, |s| s).is_empty());
        assert_eq!(par_stripes_with(num_threads(), 1, |s| s + 10), vec![10]);
    }

    #[test]
    fn par_stripes_with_is_width_insensitive() {
        let reference: Vec<Vec<usize>> = (0..23).map(|s| vec![s; s % 4]).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_stripes_with(threads, 23, |s| vec![s; s % 4]);
            assert_eq!(got, reference, "threads = {threads}");
        }
        assert!(par_stripes_with(4, 0, |s| s).is_empty());
    }

    #[test]
    fn par_for_each_visits_every_index_once() {
        let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        par_for_each(500, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_batch_reduce_matches_sequential() {
        // Sum of squares over 0..10_000 in batches of 64: same value as the
        // sequential fold, every index visited exactly once.
        let expected: u64 = (0..10_000u64).map(|x| x * x).sum();
        let got = par_batch_reduce(
            10_000,
            64,
            |range| range.map(|i| (i as u64) * (i as u64)).sum::<u64>(),
            || 0u64,
            |a, b| a + b,
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn par_batch_reduce_is_batch_size_insensitive() {
        // A commutative-monoid fold must land on the same result no matter
        // the sharding grain (the campaign golden test's core invariant).
        let reduce = |batch: usize| {
            par_batch_reduce(
                1000,
                batch,
                |range| range.map(|i| i as u64).collect::<Vec<u64>>(),
                Vec::new,
                |mut a, mut b| {
                    a.append(&mut b);
                    a.sort_unstable();
                    a
                },
            )
        };
        let baseline = reduce(1000); // single batch: sequential
        assert_eq!(baseline, (0..1000u64).collect::<Vec<_>>());
        for batch in [1, 7, 64, 333] {
            assert_eq!(reduce(batch), baseline);
        }
    }

    #[test]
    fn par_batch_reduce_empty_input_is_identity() {
        let got = par_batch_reduce(0, 16, |_| 1u64, || 0u64, |a, b| a + b);
        assert_eq!(got, 0);
    }

    #[test]
    #[should_panic(expected = "at least one index")]
    fn par_batch_reduce_rejects_zero_batch() {
        par_batch_reduce(10, 0, |_| 0u64, || 0u64, |a, b| a + b);
    }

    #[test]
    fn par_reduce_matches_sequential() {
        let input: Vec<u64> = (1..=2000).collect();
        let total = par_reduce(&input, |&x| x, || 0u64, |a, b| a + b);
        assert_eq!(total, 2000 * 2001 / 2);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Skewed workload: ensure completion (dynamic cursor prevents one
        // thread from owning all the heavy tail items).
        let input: Vec<u64> = (0..64).collect();
        let out = par_map(&input, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn work_queue_is_fifo_and_bounded() {
        let q: WorkQueue<u32> = WorkQueue::bounded(3);
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(q.push(3), Ok(()));
        assert_eq!(q.push(4), Err(4), "overflow hands the item back");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(5), Ok(()), "pop frees capacity");
        assert_eq!(q.into_vec(), vec![2, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn work_queue_rejects_zero_capacity() {
        let _ = WorkQueue::<u8>::bounded(0);
    }

    #[test]
    fn closable_queue_backpressure_and_close_semantics() {
        let q: ClosableQueue<u32> = ClosableQueue::bounded(2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(
            q.push(3),
            Err(PushError::Full(3)),
            "full hands the item back"
        );
        assert_eq!(PushError::Full(3u32).into_inner(), 3);
        q.close();
        assert!(q.is_closed());
        assert_eq!(
            q.push(4),
            Err(PushError::Closed(4)),
            "closed refuses new work"
        );
        // Queued work survives the close (graceful drain)…
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Ok(2));
        // …and only then do consumers observe the end.
        assert_eq!(q.pop(), None);
        assert_eq!(q.try_pop(), Err(true));
    }

    #[test]
    fn closable_queue_blocking_pop_wakes_on_push_and_close() {
        let q: ClosableQueue<u64> = ClosableQueue::bounded(16);
        let consumed = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    // Blocks until items arrive; exits on close-and-empty.
                    while let Some(v) = q.pop() {
                        consumed.lock().push(v);
                    }
                });
            }
            scope.spawn(|| {
                for v in 0..200u64 {
                    // Retry on backpressure: consumers are draining.
                    let mut item = v;
                    loop {
                        match q.push(item) {
                            Ok(()) => break,
                            Err(PushError::Full(back)) => {
                                item = back;
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed(_)) => unreachable!("not closed yet"),
                        }
                    }
                }
                q.close();
            });
        });
        let mut got = consumed.into_inner();
        got.sort_unstable();
        assert_eq!(got, (0..200u64).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn closable_queue_rejects_zero_capacity() {
        let _ = ClosableQueue::<u8>::bounded(0);
    }

    #[test]
    fn par_drain_processes_follow_up_work() {
        // Each item n < 100 pushes n+1; starting from 0 every value in
        // 0..=100 must be processed exactly once per seed chain.
        let q = WorkQueue::bounded(1024);
        for seed in 0..8u64 {
            q.push(seed * 1000).unwrap();
        }
        let hits = Mutex::new(Vec::new());
        par_drain(&q, |item, queue| {
            hits.lock().push(item);
            if item % 1000 < 100 {
                queue.push(item + 1).unwrap();
            }
        });
        let mut seen = hits.into_inner();
        seen.sort_unstable();
        let expected: Vec<u64> = (0..8u64)
            .flat_map(|s| (0..=100u64).map(move |i| s * 1000 + i))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn par_drain_terminates_under_overflow() {
        // Follow-up work that would grow forever if pushes never failed: the
        // capacity bound sheds the excess and the drain still terminates.
        let q = WorkQueue::bounded(4);
        q.push(0u64).unwrap();
        let processed = AtomicU64::new(0);
        par_drain(&q, |item, queue| {
            processed.fetch_add(1, Ordering::Relaxed);
            if item < 10_000 {
                // Two children per item: unbounded this is 2^14 items, but
                // at most 4 can ever be queued, so shedding is guaranteed.
                let _ = queue.push(item + 1);
                let _ = queue.push(item + 2);
            }
        });
        assert!(q.is_empty());
        assert!(processed.load(Ordering::Relaxed) >= 1);
    }
}
