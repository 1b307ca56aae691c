//! Property tests for metric scopes (DESIGN §3.7): scoped collection
//! must be bitwise schedule-independent — the same work recorded under a
//! scope serially, through `par::map`, or through `par::join`
//! yields byte-identical deterministic snapshots — and nested scopes
//! must attribute each update to the innermost frame only, leaking into
//! neither enclosing scopes nor the global registry.
//!
//! Every test uses private registries, so the suite runs in parallel
//! with itself; nothing here flips the global enable flag.

use frontier_sim_core::metrics::{self, MetricsRegistry, MetricsScope};
use frontier_sim_core::{check, par};
use std::sync::Arc;

/// One unit of instrumented work, touching every commutative family.
fn record_one(x: u64) {
    if let Some(m) = metrics::active() {
        m.counter("scopetest.items").inc();
        m.counter("scopetest.sum").add(x);
        m.histogram("scopetest.vals", 0.0, 1024.0, 16)
            .record(x as f64);
        m.max_gauge("scopetest.peak").observe(x as f64);
    }
}

/// Record `items` under a fresh scoped registry, serially, and return the
/// wall-clock-free snapshot JSON.
fn serial_snapshot(items: &[u64]) -> String {
    let reg = Arc::new(MetricsRegistry::new());
    {
        let _s = MetricsScope::enter(Arc::clone(&reg));
        for &x in items {
            record_one(x);
        }
    }
    reg.snapshot().deterministic_json()
}

/// `par::map` parity: helper threads do not inherit the installing
/// thread's scope stack, so `par` must carry it — and once it does, the
/// schedule must be invisible in the snapshot bytes.
#[test]
fn par_map_snapshot_is_bitwise_serial() {
    check::cases(32, |g| {
        let items = g.vec(1..200, |g| g.range(0u64..1024));
        let serial = serial_snapshot(&items);
        let reg = Arc::new(MetricsRegistry::new());
        {
            let _s = MetricsScope::enter(Arc::clone(&reg));
            par::for_each(&items, |&x| record_one(x));
        }
        assert_eq!(serial, reg.snapshot().deterministic_json());
    });
}

/// `par::join` parity: both arms record into the caller's scope,
/// and an arbitrary split point never changes the merged bytes.
#[test]
fn join_snapshot_is_bitwise_serial() {
    check::cases(32, |g| {
        let items = g.vec(2..200, |g| g.range(0u64..1024));
        let split_frac = g.range(0.0f64..1.0);
        let serial = serial_snapshot(&items);
        // split_frac < 1.0, so split <= len - 1; an empty arm is legal.
        let split = ((items.len() as f64) * split_frac) as usize;
        let (lo, hi) = items.split_at(split);
        let reg = Arc::new(MetricsRegistry::new());
        {
            let _s = MetricsScope::enter(Arc::clone(&reg));
            par::join(
                || lo.iter().for_each(|&x| record_one(x)),
                || hi.iter().for_each(|&x| record_one(x)),
            );
        }
        assert_eq!(serial, reg.snapshot().deterministic_json());
    });
}

/// Nested scopes resolve to the innermost frame, structurally: each
/// nesting level records exactly once while it is innermost, so every
/// registry ends with exactly its own tally — no fan-out to parents,
/// nothing on the global registry.
#[test]
fn nested_scopes_attribute_to_the_innermost_frame_only() {
    check::cases(32, |g| {
        let depth = g.range(1usize..6);
        let hits = g.range(1u64..20);
        fn descend(regs: &[Arc<MetricsRegistry>], hits: u64) {
            if let Some((first, rest)) = regs.split_first() {
                let _s = MetricsScope::enter(Arc::clone(first));
                descend(rest, hits);
                // Inner frames have been dropped: this level is now the
                // innermost, and the update must land here alone.
                if let Some(m) = metrics::active() {
                    m.counter("scopetest.nested").add(hits);
                }
            }
        }
        let regs: Vec<Arc<MetricsRegistry>> = (0..depth)
            .map(|_| Arc::new(MetricsRegistry::new()))
            .collect();
        descend(&regs, hits);
        for r in &regs {
            assert_eq!(
                r.snapshot().counters.get("scopetest.nested").copied(),
                Some(hits)
            );
        }
        assert!(
            !metrics::global()
                .snapshot()
                .counters
                .contains_key("scopetest.nested"),
            "scoped updates must never reach the global registry"
        );
    });
}
