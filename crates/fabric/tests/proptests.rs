//! Property-based tests for the fabric: routing validity and max-min
//! fairness invariants.

use frontier_fabric::dragonfly::{Dragonfly, DragonflyParams};
use frontier_fabric::maxmin::{solve_maxmin, solve_maxmin_reference, solve_maxmin_weighted};
use frontier_fabric::routing::{RoutePolicy, Router};
use frontier_fabric::solver::{ResolveDelta, Solver};
use frontier_fabric::topology::{EndpointId, Flow, LinkLevel};
use frontier_sim_core::check;
use frontier_sim_core::prelude::*;

fn small_df() -> Dragonfly {
    Dragonfly::build(DragonflyParams::scaled(6, 4, 4))
}

/// Every routed path starts with the source's injection link, ends with
/// the destination's ejection link, and respects the dragonfly hop
/// bounds (<= 1 global pipe minimal, <= 2 Valiant).
#[test]
fn routes_are_valid() {
    check::cases(64, |g| {
        let src = g.range(0u32..96);
        let dst = g.range(0u32..96);
        let seed = g.range(0u64..100);
        let valiant = g.bool();
        check::assume(src != dst);
        let df = small_df();
        let policy = if valiant {
            RoutePolicy::Valiant
        } else {
            RoutePolicy::Minimal
        };
        let r = Router::new(&df, policy);
        let mut rng = StreamRng::from_seed(seed);
        let path = r.route(EndpointId(src), EndpointId(dst), &mut rng);
        assert_eq!(path[0], df.topology().injection_link(EndpointId(src)));
        assert_eq!(
            *path.last().unwrap(),
            df.topology().ejection_link(EndpointId(dst))
        );
        let globals = r.global_hops(&path);
        if df.group_of(EndpointId(src)) == df.group_of(EndpointId(dst)) {
            assert_eq!(globals, 0);
            assert!(path.len() <= 3);
        } else if valiant {
            assert_eq!(globals, 2);
            assert!(path.len() <= 7);
        } else {
            assert_eq!(globals, 1);
            assert!(path.len() <= 5);
        }
        // No repeated links (loop freedom).
        let mut seen = std::collections::BTreeSet::new();
        for l in &path {
            assert!(seen.insert(*l), "loop through {l:?}");
        }
    });
}

/// Max-min allocations are feasible (no link over capacity) and
/// satisfy the fairness property: every flow is either at its demand
/// or crosses a saturated link.
#[test]
fn maxmin_is_feasible_and_fair() {
    check::cases(64, |g| {
        let seed = g.range(0u64..200);
        let nflows = g.range(2usize..40);
        let df = small_df();
        let n = df.params().total_endpoints();
        let mut rng = StreamRng::from_seed(seed);
        let router = Router::new(&df, RoutePolicy::adaptive_default());
        let mut flows = Vec::new();
        for i in 0..nflows {
            let s = rng.index(n);
            let mut d = rng.index(n);
            if d == s {
                d = (d + 1) % n;
            }
            let mut f = Flow::saturating(
                EndpointId(s as u32),
                EndpointId(d as u32),
                router.route(EndpointId(s as u32), EndpointId(d as u32), &mut rng),
                i as u32 % 3,
            );
            if i % 4 == 0 {
                f.demand = Bandwidth::gb_s(1.0 + rng.uniform() * 10.0);
            }
            flows.push(f);
        }
        let topo = df.topology();
        let alloc = solve_maxmin(topo, &flows);

        // Feasibility.
        let mut load = vec![0.0f64; topo.num_links() as usize];
        for (f, &r) in flows.iter().zip(&alloc.rates) {
            assert!(r >= 0.0);
            assert!(r <= f.demand.as_bytes_per_sec() * (1.0 + 1e-6));
            for l in &f.path {
                load[l.0 as usize] += r;
            }
        }
        for (i, l) in topo.links().iter().enumerate() {
            assert!(
                load[i] <= l.capacity.as_bytes_per_sec() * (1.0 + 1e-6),
                "link {i} over capacity"
            );
        }

        // Max-min fairness: every flow is demand-limited or bottlenecked.
        for (f, &r) in flows.iter().zip(&alloc.rates) {
            let at_demand = r >= f.demand.as_bytes_per_sec() * (1.0 - 1e-6);
            let bottlenecked = f.path.iter().any(|l| {
                let cap = topo.link(*l).capacity.as_bytes_per_sec();
                load[l.0 as usize] >= cap * (1.0 - 1e-6)
            });
            assert!(
                at_demand || bottlenecked,
                "flow neither satisfied nor bottlenecked"
            );
        }
    });
}

/// The event-driven v3 engine behind [`solve_maxmin_weighted`] is
/// allocation-preserving: on random dragonfly shapes, random pair sets,
/// random finite and infinite demands, random weights, and a few flows
/// with empty paths (never raised) it matches the straightforward
/// progressive-filling reference to 1e-9 relative — and it keeps the
/// `rounds <= links + flows + 1` convergence bound.
#[test]
fn optimized_matches_reference() {
    check::cases(64, |g| {
        let seed = g.range(0u64..1000);
        let groups = g.range(2usize..7);
        let spg = g.range(1usize..5);
        let eps = g.range(1usize..4);
        let nflows = g.range(1usize..60);
        let wmul = g.range(0.2f64..5.0);
        let df = Dragonfly::build(DragonflyParams::scaled(groups, spg, eps));
        let n = df.params().total_endpoints();
        check::assume(n >= 2);
        let topo = df.topology();
        let mut rng = StreamRng::from_seed(seed);
        let router = Router::new(&df, RoutePolicy::adaptive_default());
        let mut flows = Vec::with_capacity(nflows);
        for i in 0..nflows {
            let s = rng.index(n);
            let mut d = rng.index(n);
            if d == s {
                d = (d + 1) % n;
            }
            let mut f = Flow::saturating(
                EndpointId(s as u32),
                EndpointId(d as u32),
                router.route(EndpointId(s as u32), EndpointId(d as u32), &mut rng),
                (i % 5) as u32,
            );
            if i % 3 == 0 {
                // A mix of finite demands; the rest stay saturating.
                f.demand = Bandwidth::gb_s(0.3 + 40.0 * rng.uniform());
            }
            if i % 17 == 0 {
                // Degenerate empty-path flows, demand-limited and
                // saturating alike: neither solver raises them.
                f.path.clear();
            }
            flows.push(f);
        }
        let weight = |f: &Flow| wmul * (0.5 + f.vni as f64);
        let reference = solve_maxmin_reference(topo, &flows, weight);
        let alloc = solve_maxmin_weighted(topo, &flows, weight);
        assert_eq!(alloc.rates.len(), reference.rates.len());
        for (i, (a, b)) in alloc.rates.iter().zip(&reference.rates).enumerate() {
            let scale = 1.0f64.max(a.abs()).max(b.abs());
            assert!(
                (a - b).abs() <= 1e-9 * scale,
                "flow {i}: v3 {a} vs reference {b}"
            );
        }
        // Regression: the engine freezes at least one flow per event
        // batch, so the classic convergence bound holds.
        let nl = topo.num_links() as usize;
        assert!(
            alloc.rounds <= nl + flows.len() + 1,
            "{} rounds for {} links + {} flows",
            alloc.rounds,
            nl,
            flows.len()
        );
    });
}

/// Warm-start re-solves are exact: failing a random link (a change to
/// zero capacity) and re-routing the flows that crossed it onto fresh
/// paths, then calling [`Solver::resolve_with`], matches a cold reference
/// solve of the updated workload on a topology with that link zeroed —
/// to 1e-9, for random shapes, flow sets, and deltas.
#[test]
fn warm_resolve_matches_cold_reference() {
    check::cases(64, |g| {
        let seed = g.range(0u64..500);
        let groups = g.range(2usize..6);
        let spg = g.range(2usize..5);
        let eps = g.range(1usize..4);
        let nflows = g.range(2usize..50);
        let df = Dragonfly::build(DragonflyParams::scaled(groups, spg, eps));
        let n = df.params().total_endpoints();
        check::assume(n >= 2);
        let topo = df.topology();
        let mut rng = StreamRng::from_seed(seed);
        let router = Router::new(&df, RoutePolicy::adaptive_default());
        let mut flows = Vec::with_capacity(nflows);
        for i in 0..nflows {
            let s = rng.index(n);
            let mut d = rng.index(n);
            if d == s {
                d = (d + 1) % n;
            }
            let mut f = Flow::saturating(
                EndpointId(s as u32),
                EndpointId(d as u32),
                router.route(EndpointId(s as u32), EndpointId(d as u32), &mut rng),
                (i % 4) as u32,
            );
            if i % 3 == 0 {
                f.demand = Bandwidth::gb_s(0.3 + 40.0 * rng.uniform());
            }
            flows.push(f);
        }
        // Fail the middle link of a random flow's path, and re-route every
        // flow that crossed it onto the failed flow's injection/ejection
        // detour-free replacement (a fresh minimal route may still cross
        // the dead link; the solver treats it as zero capacity, exactly
        // like the cold oracle below, so parity holds either way).
        let victim = rng.index(nflows);
        check::assume(!flows[victim].path.is_empty());
        let dead = flows[victim].path[flows[victim].path.len() / 2];
        let mut changed = Vec::new();
        for (i, f) in flows.iter().enumerate() {
            if f.path.contains(&dead) {
                let mut p = router.route(f.src, f.dst, &mut rng);
                if i % 2 == 0 {
                    // Exercise the withdrawn-path shape too.
                    p = Vec::new();
                }
                changed.push((i, p));
            }
        }

        let mut solver = Solver::new(topo, flows.clone());
        solver.solve();
        let warm = solver.resolve_with(&ResolveDelta {
            changed_capacities: vec![(dead, Bandwidth::bytes_per_sec(0.0))],
            changed_flows: changed.clone(),
            removed_flows: vec![],
        });

        // Cold oracle: same updated flows on a topology with the link dead.
        let mut cold_topo = topo.clone();
        cold_topo.set_capacity(dead, Bandwidth::bytes_per_sec(0.0));
        for (i, p) in &changed {
            flows[*i].path = p.clone();
        }
        let cold = solve_maxmin_reference(&cold_topo, &flows, |_| 1.0);
        assert_eq!(warm.rates.len(), cold.rates.len());
        for (i, (a, b)) in warm.rates.iter().zip(&cold.rates).enumerate() {
            let scale = 1.0f64.max(a.abs()).max(b.abs());
            assert!(
                (a - b).abs() <= 1e-9 * scale,
                "flow {}: warm {} vs cold {}",
                i,
                a,
                b
            );
        }
    });
}

/// Capacity re-provisioning warm-starts are exact: after changing the
/// bandwidth-determining parameters of a same-shape dragonfly (link
/// rate, protocol efficiency, taper bundles), re-solving via
/// [`ResolveDelta::changed_capacities`] with the analytic
/// [`Dragonfly::capacities_for`] map matches a cold reference solve on
/// a freshly *built* fabric at the new parameters — to 1e-9, across
/// random group counts, shapes, flow sets, and parameter steps. This
/// is the exactness contract the campaign sweep engine stands on.
#[test]
fn warm_capacity_resolve_matches_cold_rebuild() {
    check::cases(64, |g| {
        let seed = g.range(0u64..500);
        let groups = g.range(2usize..6);
        let spg = g.range(2usize..5);
        let eps = g.range(1usize..4);
        let nflows = g.range(2usize..50);
        let rate_step = g.range(0usize..4);
        let eff_step = g.range(0usize..3);
        let bundle_step = g.range(1usize..4);
        let base = DragonflyParams::scaled(groups, spg, eps);
        let df = Dragonfly::build(base.clone());
        let n = base.total_endpoints();
        check::assume(n >= 2);
        let mut rng = StreamRng::from_seed(seed);
        let router = Router::new(&df, RoutePolicy::adaptive_default());
        let mut flows = Vec::with_capacity(nflows);
        for i in 0..nflows {
            let s = rng.index(n);
            let mut d = rng.index(n);
            if d == s {
                d = (d + 1) % n;
            }
            let mut f = Flow::saturating(
                EndpointId(s as u32),
                EndpointId(d as u32),
                router.route(EndpointId(s as u32), EndpointId(d as u32), &mut rng),
                (i % 4) as u32,
            );
            if i % 3 == 0 {
                f.demand = Bandwidth::gb_s(0.3 + 40.0 * rng.uniform());
            }
            flows.push(f);
        }

        let mut solver = Solver::new(df.topology(), flows.clone());
        solver.solve();

        // A same-shape re-provision: new link rate, payload efficiency,
        // and taper bundle count (group count & co stay fixed — shape
        // changes rebuild, they never warm-start).
        let mut next = base.clone();
        next.link_rate = Bandwidth::gbit_s([100.0, 150.0, 200.0, 250.0][rate_step]);
        next.protocol_efficiency = [0.60, 0.70, 0.80][eff_step];
        next.bundles_per_group_pair = bundle_step;
        let warm = solver.resolve_with(&ResolveDelta::changed_capacities(df.capacities_for(&next)));

        // Cold oracle: build the fabric from scratch at the new
        // parameters. Same shape => identical link IDs, so the routed
        // paths carry over verbatim.
        let cold_df = Dragonfly::build(next);
        let cold = solve_maxmin_reference(cold_df.topology(), &flows, |_| 1.0);
        assert_eq!(warm.rates.len(), cold.rates.len());
        for (i, (a, b)) in warm.rates.iter().zip(&cold.rates).enumerate() {
            let scale = 1.0f64.max(a.abs()).max(b.abs());
            assert!(
                (a - b).abs() <= 1e-9 * scale,
                "flow {}: warm {} vs cold rebuild {}",
                i,
                a,
                b
            );
        }
    });
}

/// Scaling all weights by a constant does not change the allocation.
#[test]
fn weighted_maxmin_scale_invariant() {
    check::cases(64, |g| {
        let seed = g.range(0u64..100);
        let k = g.range(0.1f64..10.0);
        let df = small_df();
        let n = df.params().total_endpoints();
        let mut rng = StreamRng::from_seed(seed);
        let router = Router::new(&df, RoutePolicy::Minimal);
        let flows: Vec<Flow> = (0..12)
            .map(|i| {
                let s = rng.index(n);
                let mut d = rng.index(n);
                if d == s {
                    d = (d + 1) % n;
                }
                Flow::saturating(
                    EndpointId(s as u32),
                    EndpointId(d as u32),
                    router.route(EndpointId(s as u32), EndpointId(d as u32), &mut rng),
                    i,
                )
            })
            .collect();
        let a = solve_maxmin_weighted(df.topology(), &flows, |f| 1.0 + f.vni as f64);
        let b = solve_maxmin_weighted(df.topology(), &flows, |f| k * (1.0 + f.vni as f64));
        for (x, y) in a.rates.iter().zip(&b.rates) {
            assert!((x - y).abs() <= 1e-6 * (1.0 + x.abs()), "{x} vs {y}");
        }
    });
}

/// The batch routing API is evaluation-order independent: the
/// parallel and serial renderings of the same batch are bitwise
/// identical (path-for-path equal), on random topologies, pair sets,
/// seeds, and policies — the determinism contract `repro`'s
/// concurrent runner and every batch caller rely on.
#[test]
fn route_all_parallel_matches_serial() {
    check::cases(64, |g| {
        let seed = g.range(0u64..1000);
        let groups = g.range(3usize..8);
        let spg = g.range(1usize..5);
        let eps = g.range(1usize..4);
        let npairs = g.range(1usize..150);
        let policy = g.range(0usize..3);
        let df = Dragonfly::build(DragonflyParams::scaled(groups, spg, eps));
        let n = df.params().total_endpoints();
        check::assume(n >= 2);
        let policy = match policy {
            0 => RoutePolicy::Minimal,
            1 => RoutePolicy::Valiant,
            _ => RoutePolicy::adaptive_default(),
        };
        let r = Router::new(&df, policy);
        let mut rng = StreamRng::from_seed(seed);
        let pairs: Vec<(EndpointId, EndpointId)> = (0..npairs)
            .map(|_| {
                let s = rng.index(n);
                let mut d = rng.index(n);
                if d == s {
                    d = (d + 1) % n;
                }
                (EndpointId(s as u32), EndpointId(d as u32))
            })
            .collect();
        let serial = r.route_all_serial(&pairs, 3, seed);
        let parallel = r.route_all_parallel(&pairs, 3, seed);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(&a.path, &b.path, "flow {} diverges", i);
            assert_eq!(a.vni, b.vni);
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
        }
    });
}

/// Dragonfly structural invariants hold for arbitrary (small) shapes.
#[test]
fn dragonfly_structure() {
    check::cases(64, |g| {
        let groups = g.range(2usize..8);
        let spg = g.range(1usize..6);
        let eps = g.range(1usize..5);
        let df = Dragonfly::build(DragonflyParams::scaled(groups, spg, eps));
        let topo = df.topology();
        assert_eq!(topo.num_switches() as usize, groups * spg);
        assert_eq!(topo.num_endpoints() as usize, groups * spg * eps);
        // Link count: endpoints*2 + intra duplex + pipes duplex + storage
        // pipes duplex.
        let intra = groups * spg * (spg - 1); // directed
        let pipes = groups * (groups - 1);
        let io = groups * df.params().io_groups * 2;
        assert_eq!(
            topo.num_links() as usize,
            groups * spg * eps * 2 + intra + pipes + io
        );
        // Global capacity at each level is positive and the taper formula
        // holds.
        let expect_taper = (pipes / groups) as f64 * df.params().pipe_capacity().as_gb_s()
            / ((spg * eps) as f64 * df.params().link_rate.as_gb_s());
        assert!((df.taper() - expect_taper).abs() < 1e-9);
        // Every endpoint maps into a valid group.
        for e in 0..topo.num_endpoints() {
            assert!(df.group_of(EndpointId(e)) < groups);
            assert!(df.local_switch_of(EndpointId(e)) < spg);
        }
        let _ = topo.level_capacity(LinkLevel::Global);
    });
}
