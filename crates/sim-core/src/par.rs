//! Index-ordered parallel `map` and `join` on scoped threads — the only
//! place the simulator makes threads.
//!
//! There is no pool. A parallel call spawns scoped helper threads that
//! pull chunks of items from an atomic cursor alongside the calling
//! thread, and results come back in item order, so a caller sees exactly
//! what the serial `iter().map(f).collect()` would give. There is no
//! reduction: a caller folds the ordered results itself, so no float
//! result can depend on the schedule.
//!
//! A process-wide count of busy threads is capped at [`threads`]: a call
//! adds helpers only below the cap and otherwise runs inline. A helper
//! counts while it runs and gives its slot back as soon as it runs out
//! of work. Any other thread counts from its first parallel call until
//! it exits, except while it waits for its helpers, so threads that fan
//! work out on their own (a harness's pool, a test runner) fill the
//! budget instead of multiplying it. Nested calls never put more than
//! [`threads`] threads to work at once.
//!
//! Every helper runs with the caller's `Scope` installed, so telemetry
//! recorded inside a parallel region lands in the caller's scoped registry
//! exactly as it would serially.

use std::cell::Cell;
use std::panic::resume_unwind;
#[expect(
    clippy::disallowed_types,
    reason = "the thread budget and busy count publish no data, hence relaxed atomics"
)]
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

use crate::metrics::Scope;

/// The budget set by [`set_threads`]; 0 means the default.
#[expect(
    clippy::disallowed_types,
    reason = "the thread budget and busy count publish no data, hence relaxed atomics"
)]
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The thread budget: the last [`set_threads`] value, else the host's
/// available parallelism.
pub fn threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    match THREADS.load(Relaxed) {
        0 => *DEFAULT.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

/// Set the thread budget for every later parallel call; 0 restores the
/// default. Calls already running keep the helpers they have.
pub fn set_threads(n: usize) {
    THREADS.store(n, Relaxed);
}

/// Threads doing work: every thread that has made a parallel call, plus
/// running helpers, less callers blocked on their helpers. A capacity
/// count that publishes no data, hence `Relaxed`.
#[expect(
    clippy::disallowed_types,
    reason = "the thread budget and busy count publish no data, hence relaxed atomics"
)]
static BUSY: AtomicUsize = AtomicUsize::new(0);

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Unseen,
    Helper,
    Caller,
}

/// How this thread is counted in [`BUSY`]: a helper through its [`Slot`],
/// a caller from its first call until the thread exits.
struct ThreadRole(Cell<Role>);

impl Drop for ThreadRole {
    fn drop(&mut self) {
        if self.0.get() == Role::Caller {
            BUSY.fetch_sub(1, Relaxed);
        }
    }
}

thread_local! {
    static ROLE: ThreadRole = const { ThreadRole(Cell::new(Role::Unseen)) };
}

/// One helper's share of [`BUSY`], given back when the helper ends, also
/// by panicking.
struct Slot;

impl Drop for Slot {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Relaxed);
    }
}

/// Up to `want` free slots, after counting the calling thread.
fn reserve(want: usize) -> Vec<Slot> {
    ROLE.with(|r| {
        if r.0.get() == Role::Unseen {
            r.0.set(Role::Caller);
            BUSY.fetch_add(1, Relaxed);
        }
    });
    let cap = threads();
    let mut got = 0;
    let _ = BUSY.fetch_update(Relaxed, Relaxed, |busy| {
        got = want.min(cap.saturating_sub(busy));
        Some(busy + got)
    });
    (0..got).map(|_| Slot).collect()
}

/// Counts the calling thread busy again when dropped.
struct Resume;

impl Drop for Resume {
    fn drop(&mut self) {
        BUSY.fetch_add(1, Relaxed);
    }
}

/// Run `wait` with the calling thread counted idle.
fn idle<T>(wait: impl FnOnce() -> T) -> T {
    BUSY.fetch_sub(1, Relaxed);
    let _resume = Resume;
    wait()
}

/// The body of a helper thread: `work` under the caller's `scope`.
fn helper<T>(slot: Slot, scope: &Scope, work: impl FnOnce() -> T) -> T {
    ROLE.with(|r| r.0.set(Role::Helper));
    let _slot = slot;
    scope.install(work)
}

/// A helper's result; its panic resumes on the caller.
fn result<T>(helper: thread::ScopedJoinHandle<'_, T>) -> T {
    helper
        .join()
        .unwrap_or_else(|payload| resume_unwind(payload))
}

/// Run `a` on this thread and `b` on a helper when one is free, else both
/// here, `a` first.
#[expect(
    clippy::disallowed_methods,
    reason = "the one place threads are made; each helper re-installs the caller's metrics scope"
)]
pub fn join<RA, RB>(a: impl FnOnce() -> RA, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RB: Send,
{
    let Some(slot) = reserve(1).pop() else {
        return (a(), b());
    };
    let scope = Scope::current();
    thread::scope(|s| {
        let hb = s.spawn(|| helper(slot, &scope, b));
        let ra = a();
        (ra, idle(|| result(hb)))
    })
}

/// `items` mapped through `f`, in parallel when helpers are free; the
/// results are in item order.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one place threads are made; each helper re-installs the caller's metrics scope; the chunk cursor publishes no data (the mutexes do)"
)]
pub fn map<I, R>(items: I, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
{
    let items: Vec<I::Item> = items.into_iter().collect();
    let n = items.len();
    let slots = reserve(n.saturating_sub(1));
    if slots.is_empty() {
        return items.into_iter().map(f).collect();
    }
    // Several chunks per thread, so uneven items (solver components,
    // paper sections) still balance through the cursor. Each chunk's
    // items and results are handed over through its own mutex, which is
    // never held across `f`, so it is never poisoned.
    let chunk = (n / (8 * (slots.len() + 1))).max(1);
    let mut items = items.into_iter();
    let mut inputs = Vec::with_capacity(n.div_ceil(chunk));
    loop {
        let c: Vec<I::Item> = items.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        inputs.push(Mutex::new(c));
    }
    let outputs: Vec<Mutex<Vec<R>>> = inputs.iter().map(|_| Mutex::new(Vec::new())).collect();
    // Which chunk to take next: a work index that publishes no data (the
    // mutexes do), hence `Relaxed`.
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let i = cursor.fetch_add(1, Relaxed);
        let Some(input) = inputs.get(i) else {
            return;
        };
        let c = std::mem::take(&mut *input.lock().unwrap_or_else(PoisonError::into_inner));
        let out: Vec<R> = c.into_iter().map(&f).collect();
        *outputs[i].lock().unwrap_or_else(PoisonError::into_inner) = out;
    };
    let (work, scope) = (&work, &Scope::current());
    thread::scope(|s| {
        let handles: Vec<_> = slots
            .into_iter()
            .map(|slot| s.spawn(move || helper(slot, scope, work)))
            .collect();
        work();
        idle(|| handles.into_iter().for_each(result));
    });
    // Sized up front, so a big result (a GPCNeT flow set) is allocated
    // once and keeps no spare capacity for as long as the caller holds it.
    let mut results = Vec::with_capacity(n);
    for m in outputs {
        results.append(&mut m.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    results
}

/// [`map`] for its effect: `f` over every item, typically disjoint `&mut`
/// pieces of one buffer.
pub fn for_each<I>(items: I, f: impl Fn(I::Item) + Sync)
where
    I: IntoIterator,
    I::Item: Send,
{
    map(items, f);
}
