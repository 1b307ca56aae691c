//! Telemetry determinism for the Monte-Carlo MTTI estimator: the
//! parallel and serial runs must tally identical trial and
//! failure-cause counters, and the tallies must account for every trial.
//!
//! Uses the process-global registry, hence a dedicated test binary with a
//! serializing mutex (one lock per test keeps future additions safe).

use frontier_resilience::prelude::*;
use frontier_sim_core::metrics::{self, MetricsRegistry};
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
    GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn mc_mtti_tallies_are_deterministic_and_complete() {
    let _g = lock();
    let inv = Inventory::frontier();
    let fits = FitModel::frontier();
    const TRIALS: u64 = 10_000; // spans multiple 4096-trial chunks

    metrics::set_enabled(true);
    global().reset();
    let par = monte_carlo_mtti(&inv, &fits, TRIALS, 9);
    let snap_par = global().snapshot();

    global().reset();
    let ser = monte_carlo_mtti_serial(&inv, &fits, TRIALS, 9);
    let snap_ser = global().snapshot();
    metrics::set_enabled(false);

    // Estimate and telemetry both independent of the thread schedule.
    assert_eq!(par.to_bits(), ser.to_bits());
    assert_eq!(snap_par.deterministic_json(), snap_ser.deterministic_json());

    assert_eq!(snap_ser.counters["resilience.mtti.runs"], 1);
    assert_eq!(snap_ser.counters["resilience.mtti.trials"], TRIALS);
    // Every trial has exactly one first-failing class.
    let cause_total: u64 = snap_ser
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("resilience.mtti.cause."))
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(cause_total, TRIALS);
    // The paper's leading contributors must dominate the tallies too:
    // memory (HBM) should out-fail the NVMe drives by a wide margin.
    let hbm = snap_ser
        .counters
        .get("resilience.mtti.cause.hbm2e-stack")
        .copied()
        .unwrap_or(0);
    let nvme = snap_ser
        .counters
        .get("resilience.mtti.cause.nvme-drive")
        .copied()
        .unwrap_or(0);
    assert!(hbm > nvme, "HBM {hbm} vs NVMe {nvme}");
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _g = lock();
    metrics::set_enabled(false);
    global().reset();
    monte_carlo_mtti(&Inventory::frontier(), &FitModel::frontier(), 5_000, 3);
    assert!(global().snapshot().counters.is_empty());
}
