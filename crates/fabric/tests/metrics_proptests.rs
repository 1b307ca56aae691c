//! Telemetry determinism for the fabric: a parallel route/solve batch and
//! its serial twin must produce byte-identical metrics snapshots (the
//! wall-clock section excepted), and the counters must add up to the work
//! actually done.
//!
//! These tests share the *process-global* registry, so they live in their
//! own integration-test binary and serialize on a file-local mutex; the
//! unit tests inside `sim-core` use private registries and stay parallel.

use frontier_fabric::des::{simulate, simulate_with, DesConfig, MessageBatch, QueueKind};
use frontier_fabric::dragonfly::{Dragonfly, DragonflyParams};
use frontier_fabric::maxmin::solve_maxmin;
use frontier_fabric::routing::{RoutePolicy, Router};
use frontier_fabric::solver::{ResolveDelta, Solver};
use frontier_fabric::topology::{EndpointId, LinkLevel};
use frontier_sim_core::check;
use frontier_sim_core::metrics::{self, MetricsRegistry};
use frontier_sim_core::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// The process-global registry, which these tests check.
#[expect(
    clippy::disallowed_methods,
    reason = "this test binary checks what reaches the process-global registry"
)]
fn global() -> &'static MetricsRegistry {
    metrics::global()
}

static GLOBAL_METRICS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A failed sibling test only poisons the guard, not the registry
    // state this test is about to reset anyway.
    GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner())
}

fn random_pairs(n: usize, seed: u64, count: usize) -> Vec<(EndpointId, EndpointId)> {
    let mut rng = StreamRng::from_seed(seed);
    (0..count)
        .map(|_| {
            let s = rng.index(n);
            let mut d = rng.index(n);
            if d == s {
                d = (d + 1) % n;
            }
            (EndpointId(s as u32), EndpointId(d as u32))
        })
        .collect()
}

/// Route the batch (serial or through `par`), solve, and return the
/// allocation plus the deterministic snapshot JSON.
fn route_and_solve(
    df: &Dragonfly,
    pairs: &[(EndpointId, EndpointId)],
    seed: u64,
    parallel: bool,
) -> (Vec<f64>, String) {
    metrics::set_enabled(true);
    global().reset();
    let r = Router::new(df, RoutePolicy::adaptive_default());
    let flows = if parallel {
        r.route_all_parallel(pairs, 0, seed)
    } else {
        r.route_all_serial(pairs, 0, seed)
    };
    let alloc = solve_maxmin(df.topology(), &flows);
    let snap = global().snapshot().deterministic_json();
    metrics::set_enabled(false);
    (alloc.rates, snap)
}

/// The determinism contract of the whole subsystem: thread scheduling
/// must leak into neither the simulated result nor the telemetry.
#[test]
fn parallel_and_serial_snapshots_are_byte_identical() {
    check::cases(16, |g| {
        let seed = g.range(0u64..500);
        let nflows = g.range(10usize..200);
        let _g = lock();
        let df = Dragonfly::build(DragonflyParams::scaled(6, 4, 4));
        let n = df.params().total_endpoints();
        let pairs = random_pairs(n, seed, nflows);
        let (rates_ser, snap_ser) = route_and_solve(&df, &pairs, seed, false);
        let (rates_par, snap_par) = route_and_solve(&df, &pairs, seed, true);
        assert_eq!(rates_ser, rates_par);
        assert_eq!(snap_ser, snap_par);
    });
}
#[test]
fn scoped_collection_isolates_from_global_and_matches_serial() {
    use frontier_sim_core::metrics::{MetricsRegistry, MetricsScope};
    use std::sync::Arc;

    let _g = lock();
    // Global telemetry stays OFF for the whole test: the scope alone must
    // opt the instrumentation in, and nothing may reach the global
    // registry.
    metrics::set_enabled(false);
    global().reset();

    let df = Dragonfly::build(DragonflyParams::scaled(6, 4, 4));
    let n = df.params().total_endpoints();
    let pairs = random_pairs(n, 21, 60);

    let scoped_run = |parallel: bool| -> (Vec<f64>, String) {
        let reg = Arc::new(MetricsRegistry::new());
        let rates = {
            let _scope = MetricsScope::enter(Arc::clone(&reg));
            let r = Router::new(&df, RoutePolicy::adaptive_default());
            let flows = if parallel {
                r.route_all_parallel(&pairs, 0, 21)
            } else {
                r.route_all_serial(&pairs, 0, 21)
            };
            solve_maxmin(df.topology(), &flows).rates
        };
        (rates, reg.snapshot().deterministic_json())
    };
    let (rates_ser, snap_ser) = scoped_run(false);
    let (rates_par, snap_par) = scoped_run(true);

    // Scope parity: same rates, byte-identical scoped snapshots, real
    // content inside.
    assert_eq!(rates_ser, rates_par);
    assert_eq!(snap_ser, snap_par);
    assert!(
        snap_ser.contains("fabric.maxmin.solves"),
        "scoped registry must have captured the solver counters"
    );

    // Isolation: the global registry saw none of it.
    let global = global().snapshot();
    assert!(global.counters.is_empty(), "{:?}", global.counters);
    assert!(global.histograms.is_empty());
}

#[test]
fn solver_metrics_add_up() {
    let _g = lock();
    metrics::set_enabled(true);
    global().reset();
    let df = Dragonfly::build(DragonflyParams::scaled(6, 4, 4));
    let n = df.params().total_endpoints();
    let pairs = random_pairs(n, 7, 50);
    let r = Router::new(&df, RoutePolicy::adaptive_default());
    let flows = r.route_all(&pairs, 0, 7);
    let alloc = solve_maxmin(df.topology(), &flows);
    let snap = global().snapshot();
    metrics::set_enabled(false);

    assert_eq!(snap.counters["fabric.maxmin.solves"], 1);
    assert_eq!(snap.counters["fabric.maxmin.rounds"], alloc.rounds as u64);
    assert_eq!(snap.counters["fabric.maxmin.flows"], 50);
    assert_eq!(snap.counters["fabric.route.flows"], 50);
    // Every routed flow (src != dst, so no empty paths) freezes exactly
    // once, for one of the two reasons.
    assert_eq!(
        snap.counters["fabric.maxmin.frozen_demand"]
            + snap.counters["fabric.maxmin.frozen_saturation"],
        50
    );
    let hist = &snap.histograms["fabric.maxmin.rounds_per_solve"];
    assert_eq!(hist.count(), 1);
    // Each level's `observed` is the number of distinct links of that
    // level some routed flow crosses.
    let mut crossed = BTreeSet::new();
    for f in &flows {
        crossed.extend(f.path.iter().copied());
    }
    let mut saturated_total = 0;
    for (level, name) in [
        (LinkLevel::Injection, "injection"),
        (LinkLevel::Ejection, "ejection"),
        (LinkLevel::Local, "local"),
        (LinkLevel::Global, "global"),
    ] {
        let want = crossed
            .iter()
            .filter(|&&l| df.topology().link(l).level == level)
            .count() as u64;
        let observed = snap.counters[&format!("fabric.link.{name}.observed")];
        let saturated = snap.counters[&format!("fabric.link.{name}.saturated")];
        assert_eq!(observed, want, "{name} links observed");
        assert!(saturated <= observed, "{name}: {saturated} > {observed}");
        saturated_total += saturated;
    }
    // Saturating flows guarantee at least one fully-utilized link.
    assert!(saturated_total >= 1);
}

#[test]
fn warm_resolve_metrics_add_up() {
    let _g = lock();
    metrics::set_enabled(true);
    global().reset();
    let df = Dragonfly::build(DragonflyParams::scaled(6, 4, 4));
    let n = df.params().total_endpoints();
    let pairs = random_pairs(n, 13, 40);
    let r = Router::new(&df, RoutePolicy::adaptive_default());
    let flows = r.route_all(&pairs, 0, 13);
    let mut solver = Solver::new(df.topology(), flows);
    let cold = solver.solve();
    let warm = solver.resolve_with(&ResolveDelta::default());
    let snap = global().snapshot();
    metrics::set_enabled(false);

    // One cold solve + one warm re-solve.
    assert_eq!(snap.counters["fabric.maxmin.solves"], 2);
    assert_eq!(snap.counters["fabric.maxmin.warm.resolves"], 1);
    // An empty delta dirties nothing: every component and flow is reused,
    // none re-solved, and the warm pass contributes zero freeze events.
    assert_eq!(
        snap.counters["fabric.maxmin.warm.components_reused"],
        cold.components as u64
    );
    assert_eq!(snap.counters["fabric.maxmin.warm.components_resolved"], 0);
    assert_eq!(snap.counters["fabric.maxmin.warm.flows_reused"], 40);
    assert_eq!(warm.rounds, 0);
    assert_eq!(
        snap.counters["fabric.maxmin.freeze_events"],
        cold.rounds as u64
    );
    // The components counter tallies *solved* components: all of them in
    // the cold pass, none in the all-reused warm pass.
    assert_eq!(
        snap.counters["fabric.maxmin.components"],
        cold.components as u64
    );
}

#[test]
fn ugal_decisions_partition_the_batch() {
    let _g = lock();
    metrics::set_enabled(true);
    global().reset();
    let df = Dragonfly::build(DragonflyParams::scaled(8, 4, 4));
    let n = df.params().total_endpoints();
    let pairs = random_pairs(n, 11, 80);
    let r = Router::new(&df, RoutePolicy::Minimal);
    let flows = r.route_all_ugal(&pairs, 0, 11);
    let snap = global().snapshot();
    metrics::set_enabled(false);

    assert_eq!(flows.len(), 80);
    assert_eq!(
        snap.counters["fabric.ugal.minimal"] + snap.counters["fabric.ugal.nonminimal"],
        80
    );
    // The UGAL candidate generation routes two batches through the batch
    // API (minimal + Valiant).
    assert_eq!(snap.counters["fabric.route.flows"], 160);
}

#[test]
fn des_counts_messages_and_hop_events() {
    let _g = lock();
    metrics::set_enabled(true);
    global().reset();
    let df = Dragonfly::build(DragonflyParams::scaled(4, 4, 2));
    let n = df.params().total_endpoints();
    let pairs = random_pairs(n, 3, 12);
    let r = Router::new(&df, RoutePolicy::Minimal);
    let flows = r.route_all(&pairs, 0, 3);
    let mut batch = MessageBatch::new();
    for (i, f) in flows.iter().enumerate() {
        batch.push_path(&f.path, Bytes::kib(64), SimTime::ZERO, i as u64);
    }
    let total_hops: u64 = flows.iter().map(|f| f.path.len() as u64).sum();
    simulate(df.topology(), &DesConfig::default(), &batch);
    let snap = global().snapshot();
    metrics::set_enabled(false);

    assert_eq!(snap.counters["fabric.des.messages"], 12);
    // Store-and-forward: one event per (message, hop).
    assert_eq!(snap.counters["fabric.des.events"], total_hops);
    assert!(snap.gauges["fabric.des.makespan_ns_max"] > 0.0);
    // This burst is far below CALENDAR_MIN_HOP_EVENTS, so auto-selection
    // picks the binary heap and no calendar telemetry appears…
    assert!(
        !snap
            .histograms
            .contains_key("fabric.des.calendar.bucket_occupancy"),
        "auto-selection should have picked the heap for a tiny burst"
    );

    // …but pinning the calendar explicitly reports its bucket-occupancy
    // telemetry for the injection burst.
    metrics::set_enabled(true);
    global().reset();
    simulate_with(
        df.topology(),
        &DesConfig::default(),
        &batch,
        QueueKind::Calendar,
    );
    let snap = global().snapshot();
    metrics::set_enabled(false);
    assert!(
        snap.histograms["fabric.des.calendar.bucket_occupancy"].count() > 0,
        "calendar occupancy histogram missing"
    );
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _g = lock();
    metrics::set_enabled(false);
    global().reset();
    let df = Dragonfly::build(DragonflyParams::scaled(4, 4, 2));
    let n = df.params().total_endpoints();
    let pairs = random_pairs(n, 5, 20);
    let r = Router::new(&df, RoutePolicy::adaptive_default());
    let flows = r.route_all(&pairs, 0, 5);
    solve_maxmin(df.topology(), &flows);
    let snap = global().snapshot();
    assert!(snap.counters.is_empty(), "{:?}", snap.counters);
    assert!(snap.histograms.is_empty());
}
