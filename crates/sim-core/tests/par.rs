//! `par`: item order, panics, scope propagation, the thread budget under
//! nesting and under callers' own threads, and results independent of
//! the budget.
//!
//! One test, because the budget and the busy-thread count are
//! process-wide: tests running concurrently would take each other's
//! helpers and change each other's budget.

use std::collections::BTreeSet;
#[expect(
    clippy::disallowed_types,
    reason = "the test counts threads at work with atomics"
)]
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use frontier_sim_core::metrics::{self, MetricsRegistry, MetricsScope};
use frontier_sim_core::par;

/// Uneven, nested work whose result depends only on `i`.
fn work(i: u64) -> u64 {
    let inner = par::map(0..(i % 7) + 1, |j| (i * 31 + j).pow(2) % 1_000_003);
    inner.iter().sum::<u64>() ^ i
}

#[test]
fn par_contract() {
    let default = par::threads();
    assert!(default >= 1);

    // Item order, over a slice, a range, and disjoint `&mut` pieces.
    let v: Vec<u64> = (0..1000).collect();
    assert_eq!(
        par::map(&v, |&i| i * i),
        v.iter().map(|i| i * i).collect::<Vec<_>>()
    );
    assert_eq!(
        par::map(0..1000u64, |i| i + 1),
        (1..1001).collect::<Vec<_>>()
    );
    let mut buf = vec![0u64; 100];
    par::for_each(buf.chunks_mut(7), |c| {
        let n = c.len() as u64;
        c.fill(n);
    });
    assert!(buf
        .iter()
        .enumerate()
        .all(|(i, &x)| x == if i < 98 { 7 } else { 2 }));

    // `join` runs both arms at once when a helper is free: each arm waits
    // for the other, so this only returns if they overlap.
    par::set_threads(2);
    let meet = Barrier::new(2);
    let arm = |r| {
        meet.wait();
        r
    };
    assert_eq!(par::join(|| arm(1), || arm(2)), (1, 2));

    // The parallel result is allocated once, at its final size, not grown
    // chunk by chunk.
    assert_eq!(par::map(0..1000u64, |i| i * i).capacity(), 1000);

    // A panic on a helper or on the caller reaches the caller, and every
    // helper's slot is given back: the next call still gets a helper.
    let r = std::panic::catch_unwind(|| par::for_each(0..64usize, |i| assert!(i != 40, "boom")));
    assert!(r.is_err(), "a panic in a parallel map reaches the caller");
    let r = std::panic::catch_unwind(|| par::join(|| 1, || panic!("boom")));
    assert!(r.is_err(), "a panic in a join arm reaches the caller");
    assert_eq!(par::join(|| arm(3), || arm(4)), (3, 4));

    // The caller's metrics scope is installed on every helper.
    let reg = Arc::new(MetricsRegistry::new());
    {
        let _s = MetricsScope::enter_named("section:par", Arc::clone(&reg));
        let labels = Mutex::new(BTreeSet::new());
        par::for_each(0..256u64, |i| {
            labels.lock().unwrap().insert(metrics::scope_label());
            if let Some(m) = metrics::active() {
                m.counter("par.items").inc();
                m.counter("par.sum").add(i);
            }
        });
        let labels = labels.into_inner().unwrap();
        assert_eq!(labels, BTreeSet::from([Some("section:par".to_string())]));
    }
    let s = reg.snapshot();
    assert_eq!(
        (s.counters["par.items"], s.counters["par.sum"]),
        (256, (0..256).sum())
    );

    // Nested calls never have more threads at work than the budget.
    for budget in [1, 2, 3] {
        par::set_threads(budget);
        #[expect(
            clippy::disallowed_types,
            reason = "the test counts threads at work with atomics"
        )]
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let tracked = |i: u64| {
            let now = live.fetch_add(1, SeqCst) + 1;
            peak.fetch_max(now, SeqCst);
            thread::yield_now();
            live.fetch_sub(1, SeqCst);
            i
        };
        par::for_each(0..64u64, |i| {
            par::map(0..16u64, |j| tracked(i * 16 + j));
        });
        let peak = peak.into_inner();
        assert!(
            peak <= budget,
            "{peak} threads at work on a budget of {budget}"
        );
    }

    // Threads that fan work out on their own count against the budget
    // once they have called into `par`, also while busy elsewhere: this
    // thread and two of its own fill a budget of three, so no call gets a
    // helper and every item runs on its caller.
    par::set_threads(3);
    let registered = Barrier::new(2);
    #[expect(
        clippy::disallowed_types,
        reason = "the test counts threads at work with atomics"
    )]
    let ran_elsewhere = AtomicUsize::new(0);
    let caller = || {
        par::map(0..1u64, |i| i);
        registered.wait();
        let me = thread::current().id();
        par::for_each(0..64u64, |_| {
            if thread::current().id() != me {
                ran_elsewhere.fetch_add(1, SeqCst);
            }
        });
        registered.wait();
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "plays a caller that makes its own threads, which count against the budget"
    )]
    thread::scope(|s| {
        s.spawn(caller);
        s.spawn(caller);
    });
    assert_eq!(
        ran_elsewhere.into_inner(),
        0,
        "a full budget makes no helpers"
    );

    // Identical results at 1, 2 and the default number of threads.
    let expect: Vec<u64> = (0..500).map(work).collect();
    for budget in [1, 2, 0] {
        par::set_threads(budget);
        assert_eq!(par::map(0..500u64, work), expect, "budget {budget}");
    }
    assert_eq!(par::threads(), default, "0 restores the default budget");
}
