//! In-memory spans for the traced run.
//!
//! The wrappers in [`crate::traced`] open one [`HookSpan`] per call into a
//! protocol hook or oracle. Each thread accumulates its calls and busy time
//! in a slot of its own, registered once in a global list, so the parallel
//! compose and explore paths record without contending on one lock.
//! [`take`] drains every slot. A parent span's self time is its duration
//! minus the union of its child spans ([`self_time_ns`]); children that ran on
//! other threads can overlap, so when [`set_intervals`] is on each call also
//! keeps its `(start, end)` interval for that union.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// A protocol-facing call the traced run times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    /// `BulkProtocol::init`.
    Init,
    /// `BulkProtocol::compose`.
    Compose,
    /// `BulkProtocol::observe`.
    Observe,
    /// `BulkProtocol::output` / `Protocol::output` (the referee).
    Output,
    /// `Protocol::spawn`.
    Spawn,
    /// `Node::observe`.
    NodeObserve,
    /// `Node::wants_to_activate`.
    NodeActivate,
    /// `Node::compose`.
    NodeCompose,
    /// The registry oracle predicate.
    Oracle,
}

/// Number of [`Hook`] kinds.
pub const HOOKS: usize = 9;

/// Calls, busy nanoseconds and (optionally) intervals per hook.
#[derive(Clone, Debug, Default)]
pub struct HookTotals {
    /// Calls per hook, indexed by `Hook as usize`.
    pub calls: [u64; HOOKS],
    /// Summed call durations per hook, in nanoseconds.
    pub ns: [u64; HOOKS],
    /// `(start, end)` of every call while intervals were on.
    pub intervals: Vec<(u64, u64)>,
}

impl HookTotals {
    /// Calls of `hook`.
    pub fn calls(&self, hook: Hook) -> u64 {
        self.calls[hook as usize]
    }

    /// Busy seconds of `hook`.
    pub fn secs(&self, hook: Hook) -> f64 {
        self.ns[hook as usize] as f64 * 1e-9
    }

    /// Summed calls of several hooks.
    pub fn calls_of(&self, hooks: &[Hook]) -> u64 {
        hooks.iter().map(|&h| self.calls(h)).sum()
    }

    /// Summed busy seconds of several hooks.
    pub fn secs_of(&self, hooks: &[Hook]) -> f64 {
        hooks.iter().map(|&h| self.secs(h)).sum()
    }

    /// Total busy nanoseconds over every hook.
    pub fn busy_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn merge(&mut self, other: &mut HookTotals) {
        for h in 0..HOOKS {
            self.calls[h] += other.calls[h];
            self.ns[h] += other.ns[h];
        }
        self.intervals.append(&mut other.intervals);
    }
}

type Slot = Arc<Mutex<HookTotals>>;

fn slots() -> MutexGuard<'static, Vec<Slot>> {
    static SLOTS: OnceLock<Mutex<Vec<Slot>>> = OnceLock::new();
    SLOTS
        .get_or_init(Default::default)
        .lock()
        .expect("no thread panics while holding the slot list")
}

thread_local! {
    static LOCAL: OnceCell<Slot> = const { OnceCell::new() };
}

static INTERVALS: AtomicBool = AtomicBool::new(false);

/// Keep per-call intervals (needed when hooks run on several threads).
pub fn set_intervals(on: bool) {
    INTERVALS.store(on, Ordering::SeqCst);
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed hook call; records itself when dropped.
pub struct HookSpan {
    hook: Hook,
    start: u64,
}

/// Open a span for one call of `hook`.
pub fn hook(hook: Hook) -> HookSpan {
    HookSpan {
        hook,
        start: now_ns(),
    }
}

impl Drop for HookSpan {
    fn drop(&mut self) {
        let end = now_ns();
        let keep = INTERVALS.load(Ordering::Relaxed);
        LOCAL.with(|cell| {
            let slot = cell.get_or_init(|| {
                let slot = Slot::default();
                slots().push(Arc::clone(&slot));
                slot
            });
            // Only this thread and `take` ever lock the slot.
            let mut t = slot.lock().unwrap_or_else(|e| e.into_inner());
            t.calls[self.hook as usize] += 1;
            t.ns[self.hook as usize] += end - self.start;
            if keep {
                t.intervals.push((self.start, end));
            }
        });
    }
}

/// Drain every thread's totals recorded since the last `take`. Call it
/// after the traced work has joined its threads.
pub fn take() -> HookTotals {
    let mut all = HookTotals::default();
    let mut list = slots();
    for slot in list.iter() {
        let mut t = slot.lock().unwrap_or_else(|e| e.into_inner());
        all.merge(&mut std::mem::take(&mut *t));
    }
    // Slots of threads that have exited are empty now; forget them.
    list.retain(|slot| Arc::strong_count(slot) > 1);
    all
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals` (which are
/// clipped to that window; the slice is sorted in place).
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the union of its child spans.
pub fn self_time_ns(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    (hi - lo) - covered_ns(lo, hi, children)
}
