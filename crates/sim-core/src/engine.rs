//! Discrete-event simulation engine.
//!
//! Events carry a payload `E`, are scheduled at absolute [`SimTime`]
//! instants, and are delivered in non-decreasing time order. Ties are broken
//! by insertion sequence number, which makes event delivery *fully
//! deterministic* — two events scheduled at the same instant always fire in
//! the order they were scheduled, regardless of payload or queue internals.
//!
//! Two schedulers implement that contract behind the [`EventScheduler`] trait:
//!
//! * [`EventQueue`] — a binary heap. O(log n) per operation with a small
//!   constant; the *reference* implementation every other scheduler is
//!   property-tested against.
//! * [`CalendarQueue`] — a calendar queue (Brown, CACM 1988) whose buckets
//!   are small binary heaps. Near-O(1) per operation when event times are
//!   spread (the common DES steady state: ~1 pending event per bucket), and
//!   never worse than O(log n) per operation when they are not (e.g. the
//!   all-messages-injected-at-t=0 burst that opens every message-level
//!   network simulation).
//!
//! [`Simulator`] is generic over the scheduler and defaults to
//! [`EventQueue`], so existing call sites are unchanged.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::marker::PhantomData;

use crate::time::SimTime;

/// A scheduled event: delivery instant plus a tie-breaking sequence number.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to get earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The contract shared by every event scheduler: timestamped events go in,
/// and come back out in `(time, insertion seq)` order — earliest first,
/// same-instant ties delivered in the order they were pushed.
///
/// Two implementations must be *byte-identical* under any interleaving of
/// pushes and pops (pinned by the parity proptests in `tests/proptests.rs`);
/// the [`EventQueue`] binary heap is the reference, the [`CalendarQueue`]
/// the data-oriented fast path.
pub trait EventScheduler<E> {
    /// Schedule `payload` for delivery at `time`.
    fn push(&mut self, time: SimTime, payload: E);
    /// Remove and return the earliest event (ties by insertion order).
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// The delivery instant of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Pop every event due at or before `deadline` into `out`, preserving
    /// the global `(time, seq)` delivery order. Returns how many were
    /// drained. This is the window primitive of conservative parallel
    /// execution: a caller with a lookahead bound drains one bounded
    /// window, processes it out of line, and pushes the follow-ups back.
    ///
    /// The default is pop-at-a-time; implementations with cheaper batch
    /// extraction (see [`CalendarQueue::drain_bucket_run`]) override it.
    fn drain_until(&mut self, deadline: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let mut n = 0;
        while self.peek_time().is_some_and(|t| t <= deadline) {
            match self.pop() {
                Some(ev) => {
                    out.push(ev);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

/// A deterministic priority queue of timestamped events.
///
/// This is the storage layer beneath [`Simulator`]; it can also be used
/// directly when a component wants its own private event stream.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// A queue whose heap is pre-sized for `capacity` pending events.
    /// Workloads that schedule their whole initial event population up
    /// front (e.g. one event per message) avoid the log₂(n) heap
    /// regrowths of an empty queue.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Pending events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.payload))
    }

    /// The delivery instant of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }
}

impl<E> EventScheduler<E> for EventQueue<E> {
    fn push(&mut self, time: SimTime, payload: E) {
        EventQueue::push(self, time, payload);
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
}

/// Smallest/largest bucket counts the calendar will use. The floor keeps
/// tiny queues from resizing constantly; the ceiling bounds redistribution
/// cost and memory for enormous event populations.
const CAL_MIN_BUCKETS: usize = 16;
const CAL_MAX_BUCKETS: usize = 1 << 20;

/// Pre-sizing cap for [`CalendarQueue::with_capacity`]: past this, a
/// bucket-per-event array stops paying off — the bucket headers outgrow
/// the cache and every sweep peek becomes a miss. Larger populations run
/// at a few events per bucket instead, which the FIFO buckets absorb in
/// O(1) per event.
const CAL_PRESIZE_MAX_BUCKETS: usize = 1 << 16;

/// When the pop sweep has peeked this many empty buckets (per live bucket)
/// since the last redistribution, the width estimate is stale: rebuild the
/// calendar from the live population. Amortized, this bounds sweep waste
/// to a small constant per pop while keeping redistributions rare.
///
/// A *provisional* width — one calibrated from a zero-span population,
/// i.e. a same-instant injection burst, where any width is a blind guess —
/// gets a much smaller budget ([`CAL_PROVISIONAL_WASTE`]): the first sign
/// of real sweep waste replaces it with an estimate from the by-then
/// spread-out population.
const CAL_WASTE_FACTOR: u64 = 4;
const CAL_PROVISIONAL_WASTE: u64 = 1024;

/// One calendar bucket: a FIFO fast path plus an out-of-order side heap.
///
/// DES workloads push *almost sorted* streams — an injection burst pushes
/// thousands of same-instant events in seq order, and steady-state
/// follow-ups usually land later than anything already in their bucket.
/// Events that arrive in non-decreasing `(time, seq)` order relative to
/// the FIFO's tail are appended to a `VecDeque` and pop in O(1) with
/// linear memory traffic; only genuinely out-of-order arrivals pay the
/// side heap's O(log n). The bucket's pop order is the exact `(time, seq)`
/// min across both halves, so the structure is invisible to callers.
struct Bucket<E> {
    fifo: VecDeque<Scheduled<E>>,
    heap: BinaryHeap<Scheduled<E>>,
}

impl<E> Bucket<E> {
    fn new() -> Self {
        Bucket {
            fifo: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.fifo.len() + self.heap.len()
    }

    fn push(&mut self, s: Scheduled<E>) {
        match self.fifo.back() {
            // Seq numbers are globally increasing, so tail.time <= s.time
            // already implies (tail.time, tail.seq) < (s.time, s.seq).
            Some(tail) if s.time < tail.time => self.heap.push(s),
            _ => self.fifo.push_back(s),
        }
    }

    /// The bucket's `(time, seq)` minimum.
    fn peek(&self) -> Option<&Scheduled<E>> {
        match (self.fifo.front(), self.heap.peek()) {
            (Some(f), Some(h)) => {
                if (f.time, f.seq) <= (h.time, h.seq) {
                    Some(f)
                } else {
                    Some(h)
                }
            }
            (Some(f), None) => Some(f),
            (None, h) => h,
        }
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        match (self.fifo.front(), self.heap.peek()) {
            (Some(f), Some(h)) => {
                if (f.time, f.seq) <= (h.time, h.seq) {
                    self.fifo.pop_front()
                } else {
                    self.heap.pop()
                }
            }
            (Some(_), None) => self.fifo.pop_front(),
            (None, _) => self.heap.pop(),
        }
    }

    /// Pop the bucket's `(time, seq)` minimum only if it is due exactly at
    /// `t`. Lets a run drain stop at a timestamp boundary without a
    /// separate peek.
    fn pop_if_time(&mut self, t: SimTime) -> Option<Scheduled<E>> {
        match self.peek() {
            Some(top) if top.time == t => self.pop(),
            _ => None,
        }
    }

    /// Move every event into `out` (arbitrary order), keeping both
    /// halves' allocations for reuse.
    fn drain_into(&mut self, out: &mut Vec<Scheduled<E>>) {
        out.extend(self.fifo.drain(..));
        out.extend(self.heap.drain());
    }
}

/// A calendar-queue scheduler: a power-of-two array of buckets, each
/// covering a `width`-picosecond slice of the time axis, cycled through
/// year after year (year = `buckets.len() * width`).
///
/// Design choices that keep it deterministic and robust:
///
/// * **Buckets are FIFO-first** (see [`Bucket`]): pushes arriving in
///   non-decreasing time order append to a ring buffer in O(1); only
///   out-of-order arrivals pay a side binary heap. DES workloads push
///   almost-sorted (a t=0 injection burst is *exactly* sorted), so the
///   common path is a linear-memory append/pop with no comparisons
///   beyond one against the FIFO tail — and the `(time, seq)` total
///   order of [`EventQueue`] is preserved exactly.
/// * **The bucket width is derived from the pending events themselves**
///   (span / population, recomputed at every resize), never from wall
///   clocks or randomness, so the structure — and therefore every pop —
///   is a pure function of the push history.
/// * **Recalibration is waste-driven**: the pop sweep counts fruitless
///   bucket inspections, and when they exceed [`CAL_WASTE_FACTOR`] ×
///   buckets the calendar rebuilds itself with a width re-derived from
///   the live population. A width frozen by an unlucky early calibration
///   (e.g. during a same-instant burst, when the span is zero) heals
///   after a bounded amount of wasted sweeping instead of degrading the
///   whole run.
/// * **Pops sweep buckets by year**: an event in bucket `b` is deliverable
///   only when the sweep's current year matches the event's own
///   `time / width` year, so far-future events parked in the same bucket
///   cannot jump the queue. If a full sweep finds nothing (sparse queue),
///   the minimum over bucket tops is taken directly — O(buckets), rare,
///   and exact.
pub struct CalendarQueue<E> {
    /// Power-of-two bucket array; each bucket FIFO-first (see [`Bucket`]).
    buckets: Vec<Bucket<E>>,
    /// Bucket width in picoseconds (>= 1).
    width: u64,
    /// Year index (`time / width`) the pop sweep resumes from.
    cur_year: u64,
    len: usize,
    next_seq: u64,
    /// One-shot trigger: when `len` first reaches this, recompute the
    /// width from the live population (used by [`CalendarQueue::with_capacity`],
    /// which pre-sizes the bucket array and would otherwise never pass
    /// through a width-calibrating grow).
    calibrate_at: usize,
    /// Fruitless bucket inspections by the pop sweep since the last
    /// resize; when it crosses its budget the width is recalibrated
    /// (see [`CalendarQueue::pop`]).
    waste: u64,
    /// True while `width` is a blind guess — initial, or calibrated from
    /// a zero-span (same-instant) population. Provisional widths get the
    /// eager [`CAL_PROVISIONAL_WASTE`] budget instead of the lax
    /// [`CAL_WASTE_FACTOR`]-based one.
    width_provisional: bool,
    /// `(bucket, time)` of the current global minimum, when known.
    /// `None` means *unknown*, not *empty* (`len` answers that). Pushes
    /// keep a known minimum fresh in O(1) (a new event either beats it
    /// or cannot be it); pops re-validate in O(1) when the drained
    /// bucket still holds events of the current year, and otherwise
    /// leave the cache unknown so the locating sweep runs at the *next*
    /// pop — after any follow-up pushes have landed, which keeps the
    /// sweep as short as it was before the cache existed. Makes
    /// [`CalendarQueue::peek_time`] a pure `&self` read (falling back to
    /// a non-mutating scan while unknown), so the [`EventScheduler`]
    /// trait needs no mutable peek and generic window code can inspect
    /// the head without exclusive access.
    ///
    /// Invariant: whenever this is `Some((b, t))`, `t` is the true
    /// global minimum, `b` is its bucket, and `cur_year` is `t`'s year.
    cached_next: Option<(usize, SimTime)>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..CAL_MIN_BUCKETS).map(|_| Bucket::new()).collect(),
            // 1 ns: a neutral starting width; the first resize replaces it
            // with an estimate from the actual event population.
            width: 1_000,
            cur_year: 0,
            len: 0,
            next_seq: 0,
            calibrate_at: usize::MAX,
            waste: 0,
            width_provisional: true,
            cached_next: None,
        }
    }

    /// A calendar pre-sized for `capacity` pending events: the bucket array
    /// starts at the target size (skipping the grow-doubling ladder), and
    /// the width self-calibrates once the queue is half loaded.
    pub fn with_capacity(capacity: usize) -> Self {
        let n = capacity
            .next_power_of_two()
            .clamp(CAL_MIN_BUCKETS, CAL_PRESIZE_MAX_BUCKETS);
        CalendarQueue {
            buckets: (0..n).map(|_| Bucket::new()).collect(),
            width: 1_000,
            cur_year: 0,
            len: 0,
            next_seq: 0,
            calibrate_at: (n / 2).max(CAL_MIN_BUCKETS),
            waste: 0,
            width_provisional: true,
            cached_next: None,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets currently in the calendar.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Current bucket width in picoseconds.
    pub fn bucket_width_ps(&self) -> u64 {
        self.width
    }

    /// Visit every bucket's occupancy (pending events per bucket), in
    /// bucket order. Used by telemetry to histogram how well the width
    /// estimate is spreading the event population.
    pub fn for_each_occupancy(&self, mut f: impl FnMut(usize)) {
        for b in &self.buckets {
            f(b.len());
        }
    }

    #[inline]
    fn bucket_of(&self, ps: u64) -> usize {
        ((ps / self.width) as usize) & (self.buckets.len() - 1)
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ps = time.as_picos();
        let year = ps / self.width;
        // Rewind the sweep if this event lands before its resume point —
        // the queue (unlike Simulator) accepts arbitrary time order.
        if self.len == 0 || year < self.cur_year {
            self.cur_year = year;
        }
        let b = self.bucket_of(ps);
        self.buckets[b].push(Scheduled { time, seq, payload });
        self.len += 1;
        // A new event is the minimum iff it beats a known minimum; equal
        // times keep the incumbent (its seq is lower — and equal times
        // land in the same bucket anyway). An unknown cache stays
        // unknown: one push can't reveal the rest of the queue. The sole
        // event of a previously empty queue is trivially the minimum.
        match self.cached_next {
            Some((_, t)) if time >= t => {}
            Some(_) => self.cached_next = Some((b, time)),
            None if self.len == 1 => self.cached_next = Some((b, time)),
            None => {}
        }
        if self.len > 4 * self.buckets.len() && self.buckets.len() < CAL_MAX_BUCKETS {
            let target = self.buckets.len() * 2;
            self.resize(target);
        } else if self.len >= self.calibrate_at {
            self.calibrate_at = usize::MAX;
            let target = self.buckets.len();
            self.resize(target);
        }
    }

    /// Remove and return the earliest event (ties by insertion order).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // A known cache names the bucket holding the global minimum, so
        // the extraction is O(1); otherwise locate it with the sweep.
        // Sweeping here — not when the previous pop invalidated the
        // cache — matters: the events pushed in between (a DES step's
        // follow-ups) usually land just ahead of the drained instant and
        // stop the sweep almost immediately.
        let b = match self.cached_next {
            Some((b, _)) => b,
            None => self.find_next()?,
        };
        let s = self.buckets[b].pop()?;
        self.len -= 1;
        self.after_remove(b);
        Some((s.time, s.payload))
    }

    /// Pop the entire same-timestamp run at the head of the queue — every
    /// pending event due at the earliest instant — appending
    /// `(time, payload)` pairs to `out` in `(time, seq)` order. Returns
    /// the run length (0 on an empty queue).
    ///
    /// Equal timestamps hash to the same bucket, so the whole run lives in
    /// one bucket and drains with one sweep's worth of bookkeeping instead
    /// of one per event. Injection bursts and barrier-synchronized rounds
    /// produce exactly these runs; the windowed parallel executor
    /// ([`EventScheduler::drain_until`]) is built on it.
    pub fn drain_bucket_run(&mut self, out: &mut Vec<(SimTime, E)>) -> usize {
        let Some((b, t0)) = self.ensure_cached() else {
            return 0;
        };
        let mut n = 0;
        while let Some(s) = self.buckets[b].pop_if_time(t0) {
            out.push((s.time, s.payload));
            n += 1;
        }
        self.len -= n;
        self.after_remove(b);
        n
    }

    /// Post-removal bookkeeping shared by [`CalendarQueue::pop`] and
    /// [`CalendarQueue::drain_bucket_run`]: shrink or recalibrate if the
    /// structure has gone stale, and re-validate the cached minimum —
    /// O(1) when bucket `b` (which held the removed minimum) still has
    /// events of the current year, since that year lives only in `b` and
    /// everything else in the queue is later. Otherwise the cache goes
    /// unknown and the next access pays the sweep.
    fn after_remove(&mut self, b: usize) {
        if self.len * 4 < self.buckets.len() && self.buckets.len() > CAL_MIN_BUCKETS {
            let target = (self.buckets.len() / 2).max(CAL_MIN_BUCKETS);
            self.resize(target);
        } else {
            self.cached_next = match self.buckets[b].peek() {
                Some(top) if top.time.as_picos() / self.width == self.cur_year => {
                    Some((b, top.time))
                }
                _ => None,
            };
            let budget = if self.width_provisional {
                CAL_PROVISIONAL_WASTE
            } else {
                CAL_WASTE_FACTOR * self.buckets.len() as u64 + 256
            };
            if self.waste > budget {
                // The sweep has wasted more inspections than the calendar
                // can amortize: the width is stale (e.g. it was calibrated
                // during a same-instant burst, when the population had zero
                // span). Rebuild at the current bucket count to re-derive
                // the width from the live population.
                let target = self.buckets.len();
                self.resize(target);
            }
        }
    }

    /// Make the cached minimum known (paying the sweep if necessary) and
    /// return it; `None` only on an empty queue.
    fn ensure_cached(&mut self) -> Option<(usize, SimTime)> {
        if self.cached_next.is_none() {
            let b = self.find_next()?;
            self.cached_next = self.buckets[b].peek().map(|s| (b, s.time));
        }
        self.cached_next
    }

    /// The delivery instant of the earliest pending event. O(1) while
    /// the cached minimum is known (pushes and same-year pops keep it
    /// so); otherwise a pure `&self` scan of the same structure the
    /// mutating sweep walks, without advancing the sweep cursor.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some((_, t)) = self.cached_next {
            return Some(t);
        }
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len();
        let mask = (nb - 1) as u64;
        for step in 0..nb as u64 {
            if let Some(year) = self.cur_year.checked_add(step) {
                let b = (year & mask) as usize;
                if let Some(top) = self.buckets[b].peek() {
                    if top.time.as_picos() / self.width == year {
                        return Some(top.time);
                    }
                }
            }
        }
        self.buckets
            .iter()
            .filter_map(|b| b.peek().map(|s| (s.time, s.seq)))
            .min()
            .map(|(t, _)| t)
    }

    /// Locate the bucket holding the global minimum `(time, seq)` event and
    /// advance `cur_year` to that event's year. Sweeps at most one full
    /// calendar year bucket-by-bucket; if the queue is too sparse for the
    /// sweep to connect, falls back to a direct minimum over bucket tops.
    fn find_next(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len();
        let mask = (nb - 1) as u64;
        for step in 0..nb as u64 {
            if self.width_provisional && step == CAL_PROVISIONAL_WASTE {
                // The width is a blind guess and this single sweep has
                // already blown its whole waste budget: recalibrate now
                // (the rebuild also repositions `cur_year` at the true
                // minimum) and rerun the sweep with the solid width.
                let target = nb;
                self.resize(target);
                return self.find_next();
            }
            let year = match self.cur_year.checked_add(step) {
                Some(y) => y,
                None => break, // beyond the time axis; use the fallback
            };
            let b = (year & mask) as usize;
            if let Some(top) = self.buckets[b].peek() {
                if top.time.as_picos() / self.width == year {
                    self.cur_year = year;
                    // Buckets inspected before the hit were fruitless.
                    self.waste += step;
                    return Some(b);
                }
            }
        }
        // Sparse queue: no event within a year of the sweep start. The
        // minimum over bucket tops is exact (each top is its bucket's
        // minimum) and O(buckets).
        self.waste += nb as u64;
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, bucket) in self.buckets.iter().enumerate() {
            if let Some(top) = bucket.peek() {
                let key = (top.time, top.seq, i);
                if best.is_none_or(|(t, s, _)| (top.time, top.seq) < (t, s)) {
                    best = Some(key);
                }
            }
        }
        best.map(|(t, _, b)| {
            self.cur_year = t.as_picos() / self.width;
            b
        })
    }

    /// Rebuild the calendar with `new_buckets` buckets and a width derived
    /// from the live population: the pending span divided by the
    /// population, clamped to at least 1 ps — aiming at ~1 event per
    /// bucket-year slot. Resets the waste counter: the new width gets a
    /// full budget before it can be declared stale in turn.
    fn resize(&mut self, new_buckets: usize) {
        let new_buckets = new_buckets.clamp(CAL_MIN_BUCKETS, CAL_MAX_BUCKETS);
        let mut all: Vec<Scheduled<E>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            b.drain_into(&mut all);
        }
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for s in &all {
            let ps = s.time.as_picos();
            lo = lo.min(ps);
            hi = hi.max(ps);
        }
        self.width_provisional = all.is_empty() || hi == lo;
        self.width = if self.width_provisional {
            1_000
        } else {
            // Bias the density estimate wide by 4x. Too-wide is cheap (a
            // few events share a bucket-year and the FIFO absorbs them);
            // too-narrow costs a cache-missing peek per empty bucket the
            // sweep crosses. And the estimate is stale in the narrow
            // direction the moment it is taken: a draining simulation's
            // pending population keeps spreading out in time.
            (4 * ((hi - lo) / all.len() as u64)).max(1)
        };
        // Redistribute in `(time, seq)` order so every event lands on its
        // bucket's FIFO fast path. The stable sort is adaptive: the input
        // is near-sorted already (burst-heavy buckets drain their FIFOs in
        // order), so this is closer to a merge pass than a full sort.
        all.sort_by_key(|s| (s.time, s.seq));
        // A same-size rebuild (width recalibration) reuses the bucket
        // array and every bucket's buffers; only genuine grows/shrinks
        // reallocate.
        if new_buckets != self.buckets.len() {
            self.buckets = (0..new_buckets).map(|_| Bucket::new()).collect();
        }
        self.cur_year = if all.is_empty() { 0 } else { lo / self.width };
        self.waste = 0;
        // The sorted population's head is the global minimum: cache it
        // directly instead of paying a sweep.
        self.cached_next = all
            .first()
            .map(|s| (self.bucket_of(s.time.as_picos()), s.time));
        for s in all {
            let b = self.bucket_of(s.time.as_picos());
            self.buckets[b].push(s);
        }
    }
}

impl<E> EventScheduler<E> for CalendarQueue<E> {
    fn push(&mut self, time: SimTime, payload: E) {
        CalendarQueue::push(self, time, payload);
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        CalendarQueue::pop(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        CalendarQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        self.len
    }
    fn drain_until(&mut self, deadline: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        // Window drains pull whole same-timestamp runs per iteration —
        // one sweep of bookkeeping per run instead of per event. A run
        // never straddles the deadline (all its events share one
        // instant), so the boundary check stays per-run too.
        let mut n = 0;
        while self.ensure_cached().is_some_and(|(_, t)| t <= deadline) {
            n += self.drain_bucket_run(out);
        }
        n
    }
}

/// A discrete-event simulator: an [`EventScheduler`] plus a monotone clock.
///
/// Generic over the scheduler and defaulting to the binary-heap
/// [`EventQueue`]; [`Simulator::calendar`]/[`Simulator::calendar_with_capacity`]
/// build one over a [`CalendarQueue`] instead. Both deliver events in the
/// identical deterministic order.
///
/// The simulator enforces causality: events cannot be scheduled in the past,
/// and [`Simulator::now`] never decreases.
///
/// # Examples
///
/// ```
/// use frontier_sim_core::prelude::*;
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Start, Stop }
///
/// let mut sim = Simulator::new();
/// sim.schedule_in(SimTime::from_micros(5), Ev::Stop);
/// sim.schedule_in(SimTime::from_micros(1), Ev::Start);
///
/// let mut order = vec![];
/// while let Some((t, ev)) = sim.pop() {
///     order.push((t.as_micros_f64() as u64, ev));
/// }
/// assert_eq!(order, vec![(1, Ev::Start), (5, Ev::Stop)]);
/// ```
pub struct Simulator<E, Q: EventScheduler<E> = EventQueue<E>> {
    queue: Q,
    now: SimTime,
    processed: u64,
    _payload: PhantomData<fn() -> E>,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    pub fn new() -> Self {
        Simulator::over(EventQueue::new())
    }

    /// A simulator whose event queue is pre-sized for `capacity` pending
    /// events (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Simulator::over(EventQueue::with_capacity(capacity))
    }
}

impl<E> Simulator<E, CalendarQueue<E>> {
    /// A simulator scheduling through a [`CalendarQueue`].
    pub fn calendar() -> Self {
        Simulator::over(CalendarQueue::new())
    }

    /// A calendar-queue simulator pre-sized for `capacity` pending events
    /// (see [`CalendarQueue::with_capacity`]).
    pub fn calendar_with_capacity(capacity: usize) -> Self {
        Simulator::over(CalendarQueue::with_capacity(capacity))
    }
}

impl<E, Q: EventScheduler<E>> Simulator<E, Q> {
    /// A simulator over an explicit scheduler instance.
    pub fn over(queue: Q) -> Self {
        Simulator {
            queue,
            now: SimTime::ZERO,
            processed: 0,
            _payload: PhantomData,
        }
    }

    /// Borrow the underlying scheduler (e.g. to read calendar-queue
    /// occupancy telemetry mid-run).
    pub fn queue(&self) -> &Q {
        &self.queue
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or zero before any event has fired).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Pending (not yet delivered) events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an event at an absolute instant.
    ///
    /// # Panics
    /// Panics if `time` is before the current clock (causality violation).
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "causality violation: scheduling at {time} but now is {}",
            self.now
        );
        self.queue.push(time, payload);
    }

    /// Schedule an event `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        #[expect(
            clippy::expect_used,
            reason = "clock overflow (~584 years at ns ticks) is unrepresentable state, not a recoverable error; a Result here would infect every schedule site"
        )]
        let t = self
            .now
            .checked_add(delay)
            .expect("simulation clock overflow");
        self.queue.push(t, payload);
    }

    /// Deliver the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now);
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }

    /// Timestamp of the next event without delivering it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Run the handler over every event until the queue drains or the
    /// handler returns `false`. Returns the number of events delivered.
    pub fn run<F>(&mut self, mut handler: F) -> u64
    where
        F: FnMut(&mut Self, SimTime, E) -> bool,
    {
        let start = self.processed;
        while let Some((t, e)) = self.pop() {
            if !handler(self, t, e) {
                break;
            }
        }
        self.processed - start
    }

    /// Run until the clock would pass `deadline`; events after the deadline
    /// remain queued. Returns the number of events delivered.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut Self, SimTime, E),
    {
        let start = self.processed;
        while self.peek_time().is_some_and(|t| t <= deadline) {
            let Some((t, e)) = self.pop() else { break };
            handler(self, t, e);
        }
        self.processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(30), "c");
        sim.schedule_at(SimTime::from_nanos(10), "a");
        sim.schedule_at(SimTime::from_nanos(20), "b");
        let mut seen = vec![];
        while let Some((_, e)) = sim.pop() {
            seen.push(e);
        }
        assert_eq!(seen, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulator::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            sim.schedule_at(t, i);
        }
        let mut seen = vec![];
        while let Some((_, e)) = sim.pop() {
            seen.push(e);
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(10), ());
        sim.schedule_at(SimTime::from_nanos(10), ());
        sim.schedule_at(SimTime::from_nanos(40), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = sim.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(sim.now(), t);
        }
        assert_eq!(last, SimTime::from_nanos(40));
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn cannot_schedule_in_the_past() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(10), ());
        sim.pop();
        sim.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn handler_can_schedule_followups() {
        // A self-perpetuating "clock tick" that stops after 5 ticks.
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_micros(1), 1u32);
        let delivered = sim.run(|sim, _, tick| {
            if tick < 5 {
                sim.schedule_in(SimTime::from_micros(1), tick + 1);
            }
            true
        });
        assert_eq!(delivered, 5);
        assert_eq!(sim.now(), SimTime::from_micros(5));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulator::new();
        for i in 1..=10u64 {
            sim.schedule_at(SimTime::from_micros(i), i);
        }
        let n = sim.run_until(SimTime::from_micros(4), |_, _, _| {});
        assert_eq!(n, 4);
        assert_eq!(sim.pending(), 6);
        assert_eq!(sim.now(), SimTime::from_micros(4));
    }

    #[test]
    fn run_handler_early_stop() {
        let mut sim = Simulator::new();
        for i in 1..=10u64 {
            sim.schedule_at(SimTime::from_micros(i), i);
        }
        let n = sim.run(|_, _, v| v < 3);
        assert_eq!(n, 3); // stops after delivering v == 3
        assert_eq!(sim.pending(), 7);
    }

    #[test]
    fn with_capacity_pre_sizes_the_heap() {
        let q: EventQueue<u64> = EventQueue::with_capacity(1000);
        assert!(q.is_empty());
        assert!(q.capacity() >= 1000);
        let mut sim: Simulator<u64> = Simulator::with_capacity(64);
        sim.schedule_at(SimTime::from_nanos(1), 1);
        assert_eq!(sim.pop(), Some((SimTime::from_nanos(1), 1)));
    }

    #[test]
    fn calendar_peek_time_is_immutable_and_exact() {
        // The trait peek and the inherent peek are the same &self read,
        // and stay correct across pushes (including out-of-order ones),
        // pops, and resizes.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(5), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        q.push(SimTime::from_micros(2), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
        q.push(SimTime::from_micros(9), 9);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
        // Force growth resizes and keep checking against a heap oracle.
        let mut oracle: EventQueue<u32> = EventQueue::new();
        for v in [5u32, 2, 9] {
            oracle.push(SimTime::from_micros(u64::from(v)), v);
        }
        for i in 0..2_000u32 {
            let t = SimTime::from_nanos(u64::from(i * 37 % 1_999));
            q.push(t, i);
            oracle.push(t, i);
            assert_eq!(q.peek_time(), oracle.peek_time());
        }
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), oracle.pop());
            assert_eq!(q.peek_time(), oracle.peek_time());
        }
        assert!(oracle.is_empty());
    }

    #[test]
    fn drain_bucket_run_pops_whole_same_time_runs() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let t1 = SimTime::from_nanos(10);
        let t2 = SimTime::from_nanos(20);
        for i in 0..5 {
            q.push(t1, i);
        }
        for i in 5..8 {
            q.push(t2, i);
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_bucket_run(&mut out), 5);
        assert_eq!(out, (0..5).map(|i| (t1, i)).collect::<Vec<_>>());
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(t2));
        out.clear();
        assert_eq!(q.drain_bucket_run(&mut out), 3);
        assert_eq!(out, (5..8).map(|i| (t2, i)).collect::<Vec<_>>());
        assert_eq!(q.drain_bucket_run(&mut out), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_until_matches_pop_loop_on_both_schedulers() {
        let times: Vec<u64> = (0..500).map(|i| (i * 13) % 97).collect();
        let mut cal: CalendarQueue<usize> = CalendarQueue::new();
        let mut heap: EventQueue<usize> = EventQueue::new();
        for (i, &ns) in times.iter().enumerate() {
            cal.push(SimTime::from_nanos(ns), i);
            heap.push(SimTime::from_nanos(ns), i);
        }
        let deadline = SimTime::from_nanos(48);
        let mut from_cal = Vec::new();
        let mut from_heap = Vec::new();
        let nc = EventScheduler::drain_until(&mut cal, deadline, &mut from_cal);
        let nh = EventScheduler::drain_until(&mut heap, deadline, &mut from_heap);
        assert_eq!(nc, nh);
        assert_eq!(from_cal, from_heap);
        assert!(from_cal.iter().all(|&(t, _)| t <= deadline));
        assert_eq!(cal.peek_time(), heap.peek_time());
        // The remainders drain identically too.
        let mut rc = Vec::new();
        let mut rh = Vec::new();
        EventScheduler::drain_until(&mut cal, SimTime::MAX, &mut rc);
        EventScheduler::drain_until(&mut heap, SimTime::MAX, &mut rh);
        assert_eq!(rc, rh);
        assert!(cal.is_empty() && heap.is_empty());
    }

    #[test]
    fn event_queue_standalone() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(2), 2);
        q.push(SimTime::from_nanos(1), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), 2)));
        assert_eq!(q.pop(), None);
    }
}
