//! Simulator-wide telemetry: a [`MetricsRegistry`] of hierarchically named
//! counters, max-gauges, histograms, and wall-clock timers.
//!
//! Instrumented code publishes through [`active`], which resolves to the
//! innermost *scoped* registry installed on the current thread (see
//! [`MetricsScope`]) or, when no scope is installed, to the process-global
//! registry behind an `enabled` flag. The cost when everything is off is a
//! single relaxed atomic load per instrumentation site:
//!
//! ```
//! use frontier_sim_core::metrics;
//!
//! if let Some(m) = metrics::active() {
//!     m.counter("fabric.maxmin.solves").inc();
//! }
//! ```
//!
//! # Scoped registries
//!
//! A [`MetricsScope`] is an RAII guard that pushes an
//! `Arc<MetricsRegistry>` onto a thread-local scope stack; while it lives,
//! [`active`] on that thread resolves to it instead of the global
//! registry. Scopes give each unit of work (a campaign variant, a repro
//! section, a server request) its own attributable snapshot:
//!
//! * **Resolution order**: innermost scope on the current thread first,
//!   then the global registry if [`enabled`], else `None`. Only the top of
//!   the stack collects — nested scopes do not fan out to their parents,
//!   which is what keeps a child scope from leaking counts upward.
//! * **Opt-in per scope**: an installed scope collects even when the
//!   global flag is off; installing it *is* the opt-in.
//! * **Parallel regions inherit the scope**: the scope stack is
//!   thread-local, and [`crate::par`] re-installs the caller's `Scope`
//!   on every helper thread it runs, so work fanned out through it
//!   records exactly where the serial loop would.
//! * **Shared resources**: telemetry whose attribution is race-dependent
//!   (e.g. which of several concurrent scopes triggers a shared cache
//!   build) must go through [`shared`], which ignores scopes and records
//!   globally — keeping per-scope snapshots schedule-independent.
//!
//! Names are dot-separated hierarchies (`fabric.maxmin.rounds`,
//! `bench.cache.dragonfly.requests`); the snapshot sorts them, so related
//! metrics group together in the emitted JSON.
//!
//! # Determinism contract
//!
//! Everything except wall-clock timers must be **order-independent**, so a
//! parallel run and a serial run of the same deterministic workload produce
//! byte-identical snapshots (pinned by property tests in
//! `frontier-fabric`). That is why the metric vocabulary is restricted to
//! commutative updates:
//!
//! * counters — `u64` additions commute exactly;
//! * max-gauges — `max` is commutative and associative, even over `f64`;
//! * histograms — integer bucket increments commute.
//!
//! There is deliberately **no f64 sum metric**: float addition is not
//! associative, so a parallel sum would leak the thread schedule into the
//! snapshot. Wall-clock timers are the one legitimately nondeterministic
//! family; they live in their own `wallclock` snapshot section, which
//! determinism comparisons exclude (see [`MetricsSnapshot::deterministic_json`]).

use crate::json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
#[expect(
    clippy::disallowed_types,
    reason = "commutative metric updates: relaxed atomic adds and maxes commute, so snapshots do not depend on the thread schedule"
)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Every registry mutex funnels through here. A poisoned lock means a
/// sibling thread panicked mid-update; the snapshot it guarded may be
/// torn, and rendering torn telemetry would be worse than propagating.
#[expect(
    clippy::expect_used,
    reason = "poisoned = a metric update already panicked; propagating beats emitting a torn snapshot"
)]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("metrics lock poisoned")
}

/// Sentinel bit pattern for a never-observed max-gauge.
const GAUGE_UNSET: f64 = f64::NEG_INFINITY;

#[expect(
    clippy::disallowed_types,
    reason = "commutative metric updates: relaxed atomic adds and maxes commute, so snapshots do not depend on the thread schedule"
)]
enum Metric {
    Counter(AtomicU64),
    /// Running maximum, stored as f64 bits. Initialized to
    /// [`GAUGE_UNSET`]; never-observed gauges are omitted from snapshots.
    MaxGauge(AtomicU64),
    Hist(HistMetric),
    /// Wall-clock samples in nanoseconds, recording order preserved.
    Wall(Mutex<Vec<u64>>),
}

#[expect(
    clippy::disallowed_types,
    reason = "commutative metric updates: relaxed atomic adds and maxes commute, so snapshots do not depend on the thread schedule"
)]
struct HistMetric {
    lo: f64,
    hi: f64,
    buckets: Box<[AtomicU64]>,
    underflow: AtomicU64,
    overflow: AtomicU64,
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::MaxGauge(_) => "max_gauge",
        Metric::Hist(_) => "histogram",
        Metric::Wall(_) => "wallclock",
    }
}

/// Handle to a monotonically increasing `u64` counter.
#[derive(Clone)]
pub struct Counter(Arc<Metric>);

impl Counter {
    #[inline]
    pub fn add(&self, n: u64) {
        if let Metric::Counter(c) = &*self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Handle to a running-maximum gauge over finite `f64` observations.
#[derive(Clone)]
pub struct MaxGauge(Arc<Metric>);

impl MaxGauge {
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if let Metric::MaxGauge(a) = &*self.0 {
            let mut cur = a.load(Ordering::Relaxed);
            while v > f64::from_bits(cur) {
                match a.compare_exchange_weak(
                    cur,
                    v.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }
}

/// Handle to a fixed-range linear histogram with under/overflow buckets.
#[derive(Clone)]
pub struct Hist(Arc<Metric>);

impl Hist {
    pub fn record(&self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if let Metric::Hist(h) = &*self.0 {
            if x < h.lo {
                h.underflow.fetch_add(1, Ordering::Relaxed);
            } else if x >= h.hi {
                h.overflow.fetch_add(1, Ordering::Relaxed);
            } else {
                let frac = (x - h.lo) / (h.hi - h.lo);
                let i = ((frac * h.buckets.len() as f64) as usize).min(h.buckets.len() - 1);
                h.buckets[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Handle to a wall-clock sample series (nanoseconds).
#[derive(Clone)]
pub struct Wallclock(Arc<Metric>);

impl Wallclock {
    pub fn record(&self, d: Duration) {
        if let Metric::Wall(samples) = &*self.0 {
            lock(samples).push(d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// RAII wall-clock scope: records the elapsed time into its metric when
/// dropped. Obtained from [`MetricsRegistry::timer`].
pub struct TimerScope {
    wall: Wallclock,
    start: Instant,
}

impl Drop for TimerScope {
    fn drop(&mut self) {
        self.wall.record(self.start.elapsed());
    }
}

/// A registry of named metrics behind one lock. One process-global
/// instance lives behind [`global`]/[`active`]; tests construct private
/// instances.
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Arc<Metric>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Arc<Metric> {
        let mut map = lock(&self.metrics);
        if let Some(m) = map.get(name) {
            return Arc::clone(m);
        }
        let m = Arc::new(make());
        map.insert(name.to_string(), Arc::clone(&m));
        m
    }

    fn typed(&self, name: &str, want: &'static str, make: impl FnOnce() -> Metric) -> Arc<Metric> {
        let m = self.get_or_insert(name, make);
        assert!(
            kind_name(&m) == want,
            "metric `{name}` already registered as a {}, requested as a {want}",
            kind_name(&m)
        );
        m
    }

    /// Monotonic counter handle for `name`, registering it on first use.
    #[expect(
        clippy::disallowed_types,
        reason = "commutative metric updates: relaxed atomic adds and maxes commute, so snapshots do not depend on the thread schedule"
    )]
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.typed(name, "counter", || Metric::Counter(AtomicU64::new(0))))
    }

    /// Running-maximum gauge handle for `name`.
    #[expect(
        clippy::disallowed_types,
        reason = "commutative metric updates: relaxed atomic adds and maxes commute, so snapshots do not depend on the thread schedule"
    )]
    pub fn max_gauge(&self, name: &str) -> MaxGauge {
        MaxGauge(self.typed(name, "max_gauge", || {
            Metric::MaxGauge(AtomicU64::new(GAUGE_UNSET.to_bits()))
        }))
    }

    /// Linear histogram over `[lo, hi)` with `buckets` equal-width bins
    /// (out-of-range samples land in under/overflow). The shape is fixed
    /// by the first registration; later calls must agree.
    #[expect(
        clippy::disallowed_types,
        reason = "commutative metric updates: relaxed atomic adds and maxes commute, so snapshots do not depend on the thread schedule"
    )]
    pub fn histogram(&self, name: &str, lo: f64, hi: f64, buckets: usize) -> Hist {
        assert!(buckets > 0 && hi > lo, "degenerate histogram shape");
        let m = self.typed(name, "histogram", || {
            Metric::Hist(HistMetric {
                lo,
                hi,
                buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
                underflow: AtomicU64::new(0),
                overflow: AtomicU64::new(0),
            })
        });
        if let Metric::Hist(h) = &*m {
            assert!(
                h.lo == lo && h.hi == hi && h.buckets.len() == buckets,
                "histogram `{name}` re-registered with a different shape"
            );
        }
        Hist(m)
    }

    /// Wall-clock series handle for `name`.
    pub fn wallclock(&self, name: &str) -> Wallclock {
        Wallclock(self.typed(name, "wallclock", || Metric::Wall(Mutex::new(Vec::new()))))
    }

    /// RAII timer: records into the `name` wall-clock series on drop.
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall-clock timer: its samples go to the `wallclock` section, which determinism comparisons exclude"
    )]
    pub fn timer(&self, name: impl Into<String>) -> TimerScope {
        TimerScope {
            wall: self.wallclock(&name.into()),
            start: Instant::now(),
        }
    }

    /// Drop every registered metric. Handles resolved before the reset
    /// keep updating their detached metrics, which later snapshots will
    /// not see — re-resolve handles after a reset.
    pub fn reset(&self) {
        lock(&self.metrics).clear();
    }

    /// A point-in-time, name-sorted copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, m) in lock(&self.metrics).iter() {
            match &**m {
                Metric::Counter(c) => {
                    snap.counters
                        .insert(name.clone(), c.load(Ordering::Relaxed));
                }
                Metric::MaxGauge(a) => {
                    let v = f64::from_bits(a.load(Ordering::Relaxed));
                    if v > GAUGE_UNSET {
                        snap.gauges.insert(name.clone(), v);
                    }
                }
                Metric::Hist(h) => {
                    snap.histograms.insert(
                        name.clone(),
                        HistSnapshot {
                            lo: h.lo,
                            hi: h.hi,
                            buckets: h
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            underflow: h.underflow.load(Ordering::Relaxed),
                            overflow: h.overflow.load(Ordering::Relaxed),
                        },
                    );
                }
                Metric::Wall(samples) => {
                    let samples = lock(samples);
                    let mut sorted = samples.clone();
                    sorted.sort_unstable();
                    let calls = sorted.len() as u64;
                    let total_ns: u64 = sorted.iter().sum();
                    let median_ns = sorted.get(sorted.len() / 2).copied().unwrap_or(0);
                    snap.wallclock.insert(
                        name.clone(),
                        WallSnapshot {
                            calls,
                            total_ms: total_ns as f64 / 1e6,
                            median_ms: median_ns as f64 / 1e6,
                        },
                    );
                }
            }
        }
        snap
    }
}

/// Histogram state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    pub lo: f64,
    pub hi: f64,
    pub buckets: Vec<u64>,
    pub underflow: u64,
    pub overflow: u64,
}

impl HistSnapshot {
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// `[lo, hi)` bounds of bucket `i`.
    pub fn bucket_range(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }
}

/// Wall-clock series summary at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct WallSnapshot {
    pub calls: u64,
    pub total_ms: f64,
    pub median_ms: f64,
}

/// A sorted, point-in-time copy of a registry. `BTreeMap` keys give the
/// JSON a canonical key order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// The only order-dependent section; excluded from
    /// [`MetricsSnapshot::deterministic_json`].
    pub wallclock: BTreeMap<String, WallSnapshot>,
}

impl MetricsSnapshot {
    /// The full snapshot as deterministic, name-sorted JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"counters\": {");
        push_entries(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n  \"gauges\": {");
        push_entries(
            &mut out,
            self.gauges.iter().map(|(k, &v)| (k, json::number(v))),
        );
        out.push_str("},\n  \"histograms\": {");
        push_entries(
            &mut out,
            self.histograms.iter().map(|(k, h)| (k, hist_json(h))),
        );
        out.push_str("},\n  \"wallclock\": {");
        push_entries(
            &mut out,
            self.wallclock.iter().map(|(k, w)| {
                (
                    k,
                    format!(
                        "{{\"calls\": {}, \"total_ms\": {}, \"median_ms\": {}}}",
                        w.calls,
                        json::number(w.total_ms),
                        json::number(w.median_ms)
                    ),
                )
            }),
        );
        out.push_str("}\n}\n");
        out
    }

    /// JSON of the order-independent sections only: the wall-clock section
    /// is emptied before rendering. Two runs of the same deterministic
    /// workload — any thread counts — must agree on this string exactly.
    pub fn deterministic_json(&self) -> String {
        let mut clone = self.clone();
        clone.wallclock.clear();
        clone.to_json()
    }

    /// Merge `other` into `self` with each family's commutative combine:
    /// counters and same-shape histograms add, gauges take the per-name
    /// maximum, wall-clock series sum calls and total time (the merged
    /// median is the max of the two medians — an upper bound, since the
    /// underlying samples are gone by snapshot time). A histogram whose
    /// shape disagrees keeps `self`'s series untouched.
    ///
    /// Absorbing disjoint scoped snapshots in any order yields the same
    /// deterministic sections — this is how per-section or per-variant
    /// scopes roll up into one run-level snapshot.
    pub fn absorb(&mut self, other: &Self) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges
                .entry(k.clone())
                .and_modify(|cur| *cur = cur.max(v))
                .or_insert(v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) if same_hist_shape(mine, h) => {
                    for (cur, add) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *cur += add;
                    }
                    mine.underflow += h.underflow;
                    mine.overflow += h.overflow;
                }
                Some(_) => {} // shape mismatch: different series, keep ours
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        for (k, w) in &other.wallclock {
            self.wallclock
                .entry(k.clone())
                .and_modify(|cur| {
                    cur.calls += w.calls;
                    cur.total_ms += w.total_ms;
                    cur.median_ms = cur.median_ms.max(w.median_ms);
                })
                .or_insert_with(|| w.clone());
        }
    }

    /// The deterministic sections as one *single-line* JSON object —
    /// the shape embedded into JSONL rows (`campaign --variant-metrics`),
    /// where one row must stay one line and serial/parallel byte-parity
    /// forbids wall-clock data.
    pub fn to_compact_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\": {");
        push_compact(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("}, \"gauges\": {");
        push_compact(
            &mut out,
            self.gauges.iter().map(|(k, &v)| (k, json::number(v))),
        );
        out.push_str("}, \"histograms\": {");
        push_compact(
            &mut out,
            self.histograms.iter().map(|(k, h)| (k, hist_json(h))),
        );
        out.push_str("}}");
        out
    }
}

fn same_hist_shape(a: &HistSnapshot, b: &HistSnapshot) -> bool {
    a.lo.to_bits() == b.lo.to_bits()
        && a.hi.to_bits() == b.hi.to_bits()
        && a.buckets.len() == b.buckets.len()
}

fn hist_json(h: &HistSnapshot) -> String {
    let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
    format!(
        "{{\"lo\": {}, \"hi\": {}, \"buckets\": [{}], \"underflow\": {}, \"overflow\": {}}}",
        json::number(h.lo),
        json::number(h.hi),
        buckets.join(", "),
        h.underflow,
        h.overflow
    )
}

/// Append `"key": value` entries without any whitespace framing — the
/// single-line sibling of [`push_entries`].
fn push_compact<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json::escape(k));
        out.push_str(": ");
        out.push_str(&v);
    }
}

/// Append `"key": value` entries (4-space indent, one per line) and leave
/// the cursor before the closing brace the caller prints.
fn push_entries<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
    let mut any = false;
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&json::escape(k));
        out.push_str(": ");
        out.push_str(&v);
        any = true;
    }
    if any {
        out.push_str("\n  ");
    }
}

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

/// One packed word gates every instrumentation site: bit 0 is the global
/// `enabled` flag, the upper bits count live [`MetricsScope`] guards
/// across all threads (each adds [`SCOPE_UNIT`]). `active()` reads this
/// once; zero means "everything off" and the thread-local scope stack is
/// never even touched — preserving the one-relaxed-load-and-branch cost
/// of disabled telemetry that makes instrumenting hot loops acceptable.
#[expect(
    clippy::disallowed_types,
    reason = "a gate that publishes no data: it only decides whether `active()` looks for a registry"
)]
static ACTIVE_STATE: AtomicU64 = AtomicU64::new(0);

const ENABLED_BIT: u64 = 1;
const SCOPE_UNIT: u64 = 2;

thread_local! {
    /// The innermost entry is the registry `active()` resolves to on this
    /// thread. Plain `Vec` push/pop: scopes nest lexically (RAII).
    static SCOPE_STACK: RefCell<Vec<ScopeEntry>> = const { RefCell::new(Vec::new()) };
}

#[derive(Clone)]
struct ScopeEntry {
    registry: Arc<MetricsRegistry>,
    label: Option<Arc<str>>,
}

/// The process-global registry. Always reachable (e.g. to snapshot after
/// a run); instrumentation sites should go through [`active`] instead so
/// disabled telemetry stays off the hot path.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

fn global_arc() -> Arc<MetricsRegistry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new())))
}

/// Turn global telemetry collection on or off. Off by default. Scoped
/// registries are unaffected: installing a [`MetricsScope`] opts that
/// thread in regardless of this flag.
pub fn set_enabled(on: bool) {
    if on {
        ACTIVE_STATE.fetch_or(ENABLED_BIT, Ordering::SeqCst);
    } else {
        ACTIVE_STATE.fetch_and(!ENABLED_BIT, Ordering::SeqCst);
    }
}

/// Is global telemetry collection enabled?
pub fn enabled() -> bool {
    ACTIVE_STATE.load(Ordering::Relaxed) & ENABLED_BIT != 0
}

/// The registry instrumentation should record into right now, else
/// `None`: the innermost scope installed on this thread, falling back to
/// the global registry when [`enabled`]. The disabled-everywhere cost is
/// one relaxed load and a branch — no allocation, no locking, no
/// thread-local access.
#[inline]
pub fn active() -> Option<Arc<MetricsRegistry>> {
    let state = ACTIVE_STATE.load(Ordering::Relaxed);
    if state == 0 {
        None
    } else {
        active_slow(state)
    }
}

#[cold]
#[inline(never)]
fn active_slow(state: u64) -> Option<Arc<MetricsRegistry>> {
    if state >= SCOPE_UNIT {
        // Some thread has a live scope; ours is authoritative if present.
        // try_with: during thread teardown the stack is gone — fall back.
        let mine = SCOPE_STACK
            .try_with(|s| s.borrow().last().map(|e| Arc::clone(&e.registry)))
            .ok()
            .flatten();
        if let Some(reg) = mine {
            return Some(reg);
        }
    }
    if state & ENABLED_BIT != 0 {
        Some(global_arc())
    } else {
        None
    }
}

/// The *global* registry if [`enabled`], ignoring any installed scope.
///
/// This is the escape hatch for shared-resource telemetry whose scope
/// attribution would be race-dependent — e.g. a process-wide cache where
/// "which caller triggered the build" depends on thread scheduling.
/// Recording such events into whichever scope happens to be installed
/// would make per-scope snapshots schedule-dependent; recording them
/// globally keeps every scope's snapshot deterministic.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "the sanctioned path to the global registry for shared-resource telemetry whose scope attribution would be race-dependent"
)]
pub fn shared() -> Option<&'static MetricsRegistry> {
    if enabled() {
        Some(global())
    } else {
        None
    }
}

/// The label of the innermost *named* scope on this thread (see
/// [`MetricsScope::enter_named`]), if any. Cheap when no scope exists
/// anywhere: one relaxed load. Used by trace recording to tag spans with
/// the unit of work they belong to.
pub fn scope_label() -> Option<String> {
    if ACTIVE_STATE.load(Ordering::Relaxed) < SCOPE_UNIT {
        return None;
    }
    SCOPE_STACK
        .try_with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find_map(|e| e.label.as_ref().map(|l| l.to_string()))
        })
        .ok()
        .flatten()
}

/// RAII guard that makes `registry` the [`active`] registry for the
/// current thread until dropped. Scopes nest: the innermost wins, and
/// dropping restores the previous resolution (outer scope, then global).
///
/// Not `Send` — a scope must be dropped on the thread that entered it.
/// [`crate::par`] re-installs it on its helper threads through a
/// `Scope` handle.
pub struct MetricsScope {
    _not_send: PhantomData<*const ()>,
}

impl MetricsScope {
    /// Install `registry` as this thread's active scope.
    pub fn enter(registry: Arc<MetricsRegistry>) -> MetricsScope {
        Self::push(ScopeEntry {
            registry,
            label: None,
        })
    }

    /// Install `registry` with a human-readable label (`"variant:17"`,
    /// `"section:fig6"`) that trace spans recorded under this scope can
    /// pick up via [`scope_label`].
    pub fn enter_named(label: impl Into<String>, registry: Arc<MetricsRegistry>) -> MetricsScope {
        Self::push(ScopeEntry {
            registry,
            label: Some(Arc::from(label.into().as_str())),
        })
    }

    fn push(entry: ScopeEntry) -> MetricsScope {
        SCOPE_STACK.with(|s| s.borrow_mut().push(entry));
        ACTIVE_STATE.fetch_add(SCOPE_UNIT, Ordering::SeqCst);
        MetricsScope {
            _not_send: PhantomData,
        }
    }
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        ACTIVE_STATE.fetch_sub(SCOPE_UNIT, Ordering::SeqCst);
        // try_with: thread teardown may have destroyed the stack already.
        let _ = SCOPE_STACK.try_with(|s| s.borrow_mut().pop());
    }
}

/// A capturable, cloneable handle to the current scope. The scope stack
/// is thread-local, so [`crate::par`] captures `Scope::current()` before
/// a parallel region and runs each helper under [`Scope::install`].
/// Re-installing preserves the scope's label, so traces recorded on
/// helpers stay attributed.
///
/// A handle captured with no scope installed is a no-op: `install` just
/// runs the closure, and helpers fall back to the global registry exactly
/// like the caller would.
#[derive(Clone, Default)]
pub(crate) struct Scope {
    entry: Option<ScopeEntry>,
}

impl Scope {
    /// Capture the innermost scope of the current thread (if any). One
    /// relaxed load when no scope exists anywhere in the process.
    pub fn current() -> Scope {
        if ACTIVE_STATE.load(Ordering::Relaxed) < SCOPE_UNIT {
            return Scope { entry: None };
        }
        Scope {
            entry: SCOPE_STACK
                .try_with(|s| s.borrow().last().cloned())
                .ok()
                .flatten(),
        }
    }

    /// Run `f` with this scope installed on the current thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.entry {
            Some(e) => {
                let _guard = MetricsScope::push(e.clone());
                f()
            }
            None => f(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.counter("a.b").add(3);
        r.counter("a.b").inc();
        r.counter("a.c").inc();
        let s = r.snapshot();
        assert_eq!(s.counters["a.b"], 4);
        assert_eq!(s.counters["a.c"], 1);
    }

    #[test]
    fn max_gauge_keeps_maximum_and_skips_unset() {
        let r = MetricsRegistry::new();
        let g = r.max_gauge("g");
        g.observe(1.5);
        g.observe(0.25);
        g.observe(f64::NAN); // ignored
        r.max_gauge("never");
        let s = r.snapshot();
        assert_eq!(s.gauges["g"], 1.5);
        assert!(!s.gauges.contains_key("never"));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h", 0.0, 1.0, 4);
        for x in [0.1, 0.1, 0.6, 0.99, 1.0, 2.0, -0.5] {
            h.record(x);
        }
        let s = &r.snapshot().histograms["h"];
        assert_eq!(s.buckets, vec![2, 0, 1, 1]);
        assert_eq!(s.overflow, 2);
        assert_eq!(s.underflow, 1);
        assert_eq!(s.count(), 7);
        assert_eq!(s.bucket_range(1), (0.25, 0.5));
    }

    #[test]
    fn timer_scope_records_on_drop() {
        let r = MetricsRegistry::new();
        {
            let _t = r.timer("w");
        }
        {
            let _t = r.timer("w");
        }
        let s = r.snapshot();
        assert_eq!(s.wallclock["w"].calls, 2);
        assert!(s.wallclock["w"].total_ms >= 0.0);
    }

    #[test]
    fn snapshot_json_is_sorted_and_reset_clears() {
        let r = MetricsRegistry::new();
        r.counter("z.last").inc();
        r.counter("a.first").inc();
        let j = r.snapshot().to_json();
        assert!(j.find("a.first").unwrap() < j.find("z.last").unwrap());
        r.reset();
        assert!(r.snapshot().counters.is_empty());
    }

    #[test]
    fn deterministic_json_excludes_wallclock() {
        let r = MetricsRegistry::new();
        r.counter("c").inc();
        {
            let _t = r.timer("w");
        }
        let s = r.snapshot();
        assert!(s.to_json().contains("\"w\""));
        assert!(!s.deterministic_json().contains("\"w\""));
        assert!(s.deterministic_json().contains("\"c\""));
    }

    #[test]
    fn json_escapes_hostile_names() {
        let r = MetricsRegistry::new();
        r.counter("we\"ird\\name").inc();
        let j = r.snapshot().to_json();
        assert!(j.contains(r#""we\"ird\\name": 1"#));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.max_gauge("x");
    }

    #[test]
    fn global_toggle_gates_active() {
        // The only unit test touching the global flag, so it cannot race
        // sibling tests (which all use private registries or scopes).
        assert!(active().is_none(), "telemetry must default to off");
        assert!(shared().is_none(), "shared() follows the global flag");
        set_enabled(true);
        assert!(active().is_some());
        assert!(shared().is_some());
        set_enabled(false);
        assert!(active().is_none());
        assert!(shared().is_none());
    }

    #[test]
    fn absorb_merges_every_family_commutatively() {
        let a = MetricsRegistry::new();
        a.counter("ops").add(3);
        a.max_gauge("peak").observe(1.0);
        a.histogram("lat", 0.0, 4.0, 4).record(0.5);
        {
            let _t = a.timer("wall");
        }
        let b = MetricsRegistry::new();
        b.counter("ops").add(4);
        b.counter("other").inc();
        b.max_gauge("peak").observe(2.5);
        b.histogram("lat", 0.0, 4.0, 4).record(3.5);
        {
            let _t = b.timer("wall");
        }

        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.absorb(&sb);
        let mut ba = sb.clone();
        ba.absorb(&sa);

        assert_eq!(ab.counters["ops"], 7);
        assert_eq!(ab.counters["other"], 1);
        assert_eq!(ab.gauges["peak"], 2.5);
        assert_eq!(ab.histograms["lat"].count(), 2);
        assert_eq!(ab.wallclock["wall"].calls, 2);
        // Order independence on the deterministic sections.
        assert_eq!(ab.deterministic_json(), ba.deterministic_json());
    }

    #[test]
    fn compact_json_is_one_line_without_wallclock() {
        let r = MetricsRegistry::new();
        r.counter("b").add(2);
        r.counter("a").inc();
        r.max_gauge("g").observe(1.5);
        {
            let _t = r.timer("w");
        }
        let j = r.snapshot().to_compact_json();
        assert!(!j.contains('\n'), "compact JSON must be one line: {j}");
        assert!(!j.contains("\"w\""), "no wallclock in compact JSON");
        assert!(j.starts_with("{\"counters\": {\"a\": 1, \"b\": 2}"));
        assert!(j.contains("\"gauges\": {\"g\": 1.5}"));
    }

    #[test]
    fn scope_collects_even_when_global_is_off() {
        // No set_enabled here: installing the scope is the opt-in.
        let reg = Arc::new(MetricsRegistry::new());
        {
            let _scope = MetricsScope::enter(Arc::clone(&reg));
            if let Some(m) = active() {
                m.counter("scoped.ops").inc();
            }
        }
        assert_eq!(reg.snapshot().counters["scoped.ops"], 1);
        // After the guard drops, this thread resolves to global-or-none
        // again; either way the scoped registry stops growing.
        if let Some(m) = active() {
            m.counter("scoped.ops").inc();
        }
        assert_eq!(reg.snapshot().counters["scoped.ops"], 1);
    }

    #[test]
    fn nested_scopes_resolve_innermost_and_do_not_leak() {
        let outer = Arc::new(MetricsRegistry::new());
        let inner = Arc::new(MetricsRegistry::new());
        let _o = MetricsScope::enter_named("track:0", Arc::clone(&outer));
        if let Some(m) = active() {
            m.counter("seen.outer").inc();
        }
        {
            let _i = MetricsScope::enter_named("variant:3", Arc::clone(&inner));
            assert_eq!(scope_label().as_deref(), Some("variant:3"));
            if let Some(m) = active() {
                m.counter("seen.inner").inc();
            }
        }
        assert_eq!(scope_label().as_deref(), Some("track:0"));
        let (so, si) = (outer.snapshot(), inner.snapshot());
        assert_eq!(so.counters["seen.outer"], 1);
        assert!(
            !so.counters.contains_key("seen.inner"),
            "inner scope must not fan out to its parent"
        );
        assert_eq!(si.counters["seen.inner"], 1);
        assert_eq!(si.counters.len(), 1);
    }

    #[test]
    fn scope_propagates_into_par_helpers() {
        let reg = Arc::new(MetricsRegistry::new());
        let _guard = MetricsScope::enter_named("section:test", Arc::clone(&reg));
        let items: Vec<u64> = (0..64).collect();
        let out = crate::par::map(&items, |&i| {
            if let Some(m) = active() {
                m.counter("par.ops").inc();
                m.counter("par.sum").add(i);
            }
            i
        });
        assert_eq!(out, items, "par::map preserves input order");
        let arm = |r: u64| {
            if let Some(m) = active() {
                m.counter("join.ops").inc();
            }
            r
        };
        assert_eq!(crate::par::join(|| arm(1), || arm(2)), (1, 2));
        let s = reg.snapshot();
        assert_eq!(s.counters["par.ops"], 64);
        assert_eq!(s.counters["par.sum"], (0..64).sum::<u64>());
        assert_eq!(s.counters["join.ops"], 2);
    }

    #[test]
    fn empty_scope_handle_is_a_transparent_wrapper() {
        // Captured with no scope installed: install runs the closure with
        // unchanged resolution.
        let scope = Scope::default();
        assert_eq!(scope.install(|| 41 + 1), 42);
    }
}
